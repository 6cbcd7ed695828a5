#include "server/kv_service.h"

#include <cstdio>
#include <cstdlib>

#include "obs/sampler.h"
#include "platform/affinity.h"
#include "platform/rng.h"
#include "platform/time.h"
#include "server/telemetry.h"
#include "workload/trace.h"

namespace asl::server {

KvService::KvService(KvServiceConfig config)
    : config_(normalized_config(std::move(config))),
      cost_(resolved_cost_profile(config_)),
      slots_(worker_slots(config_)),
      metrics_(config_, slots_) {
  shards_.reserve(config_.num_shards);
  for (std::uint32_t s = 0; s < config_.num_shards; ++s) {
    std::unique_ptr<db::KvEngine> engine = db::make_kv_engine(config_.engine);
    if (engine == nullptr) {
      std::fprintf(stderr, "KvService: %s\n",
                   db::kv_engine_error(config_.engine).c_str());
      std::abort();
    }
    shards_.push_back(
        std::make_unique<Shard>(config_.queue_capacity, std::move(engine)));
  }

  // Register each request class as a named epoch, its controller seeded
  // proportionally to the SLO by the same rule the simulator configs use.
  for (const RequestClass& spec : config_.classes) {
    auto cs = std::make_unique<ClassState>();
    cs->spec = spec;
    cs->depth_limit = shed_threshold(spec.admission, config_.queue_capacity);
    EpochOptions opts;
    opts.default_slo_ns = spec.slo_ns;
    if (spec.slo_ns > 0) {
      seed_config_for_slo(opts.controller, spec.slo_ns);
    }
    cs->epoch_id = EpochRegistry::instance().register_epoch(spec.name, opts);
    classes_.push_back(std::move(cs));
  }

  // Median-first prefill (db::for_each_median_first: keeps the mvcc BST
  // logarithmic-depth; the key set is the same for every engine).
  db::for_each_median_first(config_.prefill_keys, [this](std::uint64_t key) {
    shards_[shard_of(key)]->engine->put(key, "prefill");
  });

  // Telemetry pipeline (DESIGN.md §11), built and frozen here so nothing on
  // the hot path or in a sampler tick ever allocates. The epoch defaults to
  // the construction instant so a stop()-without-start() final tick still
  // lands on a sane time axis; start() re-stamps it.
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<KvTelemetry>(config_, metrics_);
    telemetry_start_ns_ = now_ns();
    sampler_ = std::make_unique<obs::Sampler>(
        config_.telemetry.sample_period_ns,
        [this](std::uint64_t, Nanos now) { telemetry_tick(now); });
  }
}

KvService::~KvService() { stop(); }

void KvService::start() {
  // Whole transition under the lifecycle lock: a concurrent stop() either
  // runs first (stopped_ is set, no workers ever spawn) or waits until the
  // worker vector is fully populated and joins every thread. The old plain-
  // bool flags made start()/stop() from different threads a data race.
  lifecycle_lock_.lock();
  if (running_.load(std::memory_order_relaxed) ||
      stopped_.load(std::memory_order_relaxed)) {
    lifecycle_lock_.unlock();
    return;
  }
  running_.store(true, std::memory_order_relaxed);
  workers_.reserve(slots_.size());
  for (const WorkerSlot& slot : slots_) {
    workers_.emplace_back([this, &slot] { worker_loop(slot); });
  }
  if (sampler_) {
    // The time axis starts when service does; the sampler rides along for
    // the whole worker lifetime (stop() ends it after the joins).
    telemetry_start_ns_ = now_ns();
    sampler_->start();
  }
  lifecycle_lock_.unlock();
}

void KvService::stop() {
  lifecycle_lock_.lock();
  if (stopped_.load(std::memory_order_relaxed)) {
    lifecycle_lock_.unlock();
    return;
  }
  stopped_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    shard->queue.close();
  }
  for (auto& worker : workers_) {
    worker.join();
  }
  if (workers_.empty()) {
    // Never started: drain inline (each shard under its first worker slot's
    // core type) so the "after stop(), completed == accepted" invariant
    // holds regardless of lifecycle. The queues are already closed, so the
    // shared drain loop runs the batched pops dry and returns.
    for (const WorkerSlot& slot : slots_) {
      if (slot.index != slot.shard) continue;  // one drainer per shard
      ScopedCoreType scoped(slot.type);
      drain_queue(slot);
    }
  }
  if (sampler_) {
    // After the joins / inline drain: the sampler's final tick is the one
    // sample guaranteed to see empty queues and final counters.
    sampler_->stop();
  }
  workers_.clear();
  running_.store(false, std::memory_order_relaxed);
  lifecycle_lock_.unlock();
}

std::uint32_t KvService::shard_of(std::uint64_t key) const {
  return shard_for_key(key, config_.num_shards);
}

bool KvService::try_submit(OpType op, std::uint64_t key,
                           std::uint32_t class_index) {
  if (class_index >= classes_.size()) return false;
  ClassState& cs = *classes_[class_index];
  Request req;
  req.op = op;
  req.key = key;
  req.class_index = class_index;
  req.enqueue_ns = now_ns();
  const std::uint32_t shard = shard_of(key);
  // The class's precomputed depth limit turns the push into the shed
  // decision: protected classes carry limit == capacity (plain bounded-
  // queue admission), sheddable classes bounce early at their watermark.
  const PushResult pushed =
      shards_[shard]->queue.try_push_below(req, cs.depth_limit);
  if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
    rec->on_arrival(req.enqueue_ns, class_index, op == OpType::kPut, key,
                    trace_decision(pushed), shard);
  }
  metrics_.on_admission(class_index, pushed);
  return pushed == PushResult::kOk;
}

void KvService::set_recorder(TraceRecorder* recorder) {
  recorder_.store(recorder, std::memory_order_relaxed);
}

int KvService::epoch_id(std::uint32_t class_index) const {
  return class_index < classes_.size() ? classes_[class_index]->epoch_id : -1;
}

std::size_t KvService::queue_depth(std::uint32_t shard) const {
  return shard < shards_.size() ? shards_[shard]->queue.size() : 0;
}

std::size_t KvService::store_size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->engine->size();
  return n;
}

std::uint32_t KvService::num_workers() const {
  return static_cast<std::uint32_t>(slots_.size());
}

LockRouteStats KvService::lock_route_stats() const {
  return metrics_.routes();
}

ServiceReport KvService::report() const {
  ServiceReport report;
  for (std::uint32_t c = 0; c < classes_.size(); ++c) {
    report.classes.push_back(metrics_.class_report(c, classes_[c]->epoch_id));
  }
  return report;
}

void KvService::telemetry_tick(Nanos now) {
  std::vector<std::uint64_t>& depth = telemetry_->shard_depth();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    depth[s] = shards_[s]->queue.size();
  }
  telemetry_->fold_tick(now > telemetry_start_ns_ ? now - telemetry_start_ns_
                                                  : 0);
}

void KvService::worker_loop(const WorkerSlot& slot) {
  if (config_.pin_workers) {
    pin_to_cpu_wrapped(slot.index);
  }
  ScopedCoreType scoped(slot.type);
  drain_queue(slot);
  // No epoch-state reset here: the thread_local destructor folds this
  // worker's completion counts into the registry, which is how post-stop
  // snapshots still account for every served request.
}

std::string_view ValueArena::format_value(std::uint64_t key) {
  // The 1-byte alignment request packs slots tightly; with the null
  // upstream, running past the fixed buffer would throw rather than touch
  // the heap — unreachable by the sizing (kMaxBatch slots per batch).
  char* slot = static_cast<char*>(resource_.allocate(kSlotBytes, 1));
  const int len = std::snprintf(slot, kSlotBytes, "v:%llu",
                                static_cast<unsigned long long>(key));
  return std::string_view(slot, static_cast<std::size_t>(len));
}

void KvService::drain_queue(const WorkerSlot& slot) {
  Shard& shard = *shards_[slot.shard];
  // One arena and one batch plan per worker, on the drain loop's own stack:
  // naturally private to this thread for the whole run (see ValueArena's
  // sharing note), and reused batch after batch.
  ValueArena arena;
  BatchPlan plan;
  Request head;
  while (shard.queue.pop(head)) {
    serve_batch(slot, head, plan, arena);
  }
}

void KvService::serve_batch(const WorkerSlot& slot, const Request& head,
                            BatchPlan& plan, ValueArena& arena) {
  Shard& shard = *shards_[slot.shard];
  const Nanos head_start = now_ns();
  plan.begin(head, head_start > head.enqueue_ns ? head_start - head.enqueue_ns
                                                : 0,
             cost_);
  // The head's value is formatted here — outside the critical section, into
  // the worker's arena (DESIGN.md §9).
  if (head.op == OpType::kPut) {
    plan.member(0).value = arena.format_value(head.key);
  }

  // The acquisition runs under the *head* request's class epoch: one
  // reorder-dispatch decision per batch, governed by the window of the
  // class that was at the front of the queue (DESIGN.md §6).
  ClassState& head_cls = *classes_[head.class_index];
  epoch_start(head_cls.epoch_id);

  // Telemetry hooks (DESIGN.md §11): with telemetry off the lock is not
  // timed and no span is traced. A traced head (the span tracer's 1-in-N
  // gate) contributes one span per phase it passes through.
  KvTelemetry* const telem = telemetry_.get();
  const bool traced = telem && telem->tracer().sample(slot.index);
  if (traced) {
    telem->tracer().record(slot.index, obs::SpanPhase::kQueueWait,
                           head.enqueue_ns, plan.member(0).wait);
  }

  // Serves member i of the sealed plan: its segment's NOPs at the speed of
  // the side of the lock it runs on, then the engine op. A request is done
  // at the end of its own segment, not the batch's: later members pay for
  // the work ahead of them in their measured latency, exactly like
  // requests served by separate acquisitions.
  auto serve = [&](std::size_t i) {
    BatchMember& m = plan.member(i);
    const Segment seg = plan.segment(i);
    spin_nops(seg.on_lock ? slot.speed.scale_cs(seg.nops)
                          : slot.speed.scale_ncs(seg.nops));
    if (seg.op == OpType::kPut) {
      shard.engine->put(m.req.key, m.value);
    } else {
      (void)shard.engine->get(m.req.key);
    }
    m.done = now_ns();
    metrics_.on_segment(slot.index, seg);
  };

  Nanos t_acq = head_start;
  if (plan.locked()) {
    metrics_.on_acquisition(slot.index, plan);
    if (telem) {
      const Nanos waited = shard.lock.lock_timed();
      t_acq = now_ns();
      metrics_.on_lock_wait(slot.index, waited);
      if (traced) {
        telem->tracer().record(slot.index, obs::SpanPhase::kLockWait,
                               t_acq > waited ? t_acq - waited : 0, waited);
      }
    } else {
      shard.lock.lock();
    }
    // Batch extension after the acquisition: requests that were already
    // waiting when the lock was won ride along; the drain never waits for
    // new arrivals. Extension values are formatted at pop time — inside the
    // lock (the batch is discovered under it) but allocation-free.
    plan.extend(config_.batch_k, [&](BatchMember& m) {
      if (!shard.queue.try_pop(m.req)) return false;
      if (m.req.op == OpType::kPut) m.value = arena.format_value(m.req.key);
      const Nanos t = now_ns();
      m.wait = t > m.req.enqueue_ns ? t - m.req.enqueue_ns : 0;
      return true;
    });
  }
  plan.seal();
  for (std::size_t i = 0; i < plan.cs_count(); ++i) serve(i);
  if (plan.locked()) {
    // Hold time ends here; the histogram/span recording happens after the
    // release so observation never extends the critical section.
    const Nanos hold = telem ? now_ns() - t_acq : 0;
    shard.lock.unlock();
    if (telem) {
      metrics_.on_lock_hold(slot.index, hold);
      if (traced) {
        telem->tracer().record(slot.index, obs::SpanPhase::kCriticalSection,
                               t_acq, hold);
      }
    }
    // The recorder's internal lock must not extend the critical section.
    if (TraceRecorder* rec = recorder_.load(std::memory_order_relaxed)) {
      rec->on_batch(slot.shard, static_cast<std::uint32_t>(plan.count()));
    }
  }
  for (std::size_t i = plan.cs_count(); i < plan.count(); ++i) serve(i);
  if (traced && !plan.locked()) {
    // A solo lock-free get's service span.
    telem->tracer().record(slot.index, obs::SpanPhase::kCriticalSection,
                           head_start, plan.member(0).done - head_start);
  }

  // Per-request feedback even though the acquisition was shared: the head
  // ends the epoch opened before the lock; every later member brackets its
  // own class epoch with an immediate start/end pair. Each served request
  // therefore counts exactly one completion in its class's epoch, and each
  // class controller sees that request's end-to-end latency (queue wait
  // included) — batching amortizes the lock, never the feedback.
  const Nanos post_start = traced ? now_ns() : 0;
  for (std::size_t i = 0; i < plan.count(); ++i) {
    const BatchMember& m = plan.member(i);
    ClassState& cs = *classes_[m.req.class_index];
    const Nanos total =
        m.done > m.req.enqueue_ns ? m.done - m.req.enqueue_ns : 0;
    if (i > 0) epoch_start(cs.epoch_id);
    if (cs.spec.slo_ns > 0) {
      epoch_end_with_latency(cs.epoch_id, cs.spec.slo_ns, total);
    } else {
      epoch_end(cs.epoch_id);
    }
    metrics_.on_complete(slot.index, m.req.class_index, total, m.wait);
    spin_nops(slot.speed.scale_ncs(
        cost_.op(m.req.op == OpType::kPut).post_nops));
  }
  if (traced) {
    telem->tracer().record(slot.index, obs::SpanPhase::kPostSection,
                           post_start, now_ns() - post_start);
  }
  // Recycle every value slot for the next batch. The engines copied the
  // bytes during their put calls, so nothing references the arena now.
  arena.release();
}

}  // namespace asl::server
