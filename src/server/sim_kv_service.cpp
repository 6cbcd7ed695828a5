#include "server/sim_kv_service.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "asl/runtime.h"
#include "server/telemetry.h"
#include "sim/engine.h"

namespace asl::server {

struct SimKvService::Impl {
  // Requests carry their virtual arrival instant as enqueue_ns: admission is
  // instantaneous, so enqueue time equals arrival time (unlike the wall
  // clock, where try_submit stamps slightly after the scheduled instant).
  struct Shard {
    std::deque<Request> queue;
    std::unique_ptr<sim::SimLock> lock;
    SimShardStats stats;
    Nanos depth_since = 0;  // last depth-change instant (integral bookkeeping)
  };

  // One worker per simulated core (the twin of pin_workers), laid out by
  // worker_slots(). `plan` is reused for every batch the worker serves.
  struct Worker {
    WorkerSlot slot;
    sim::Core core{};
    sim::SimThread sim{};
    // Per-(worker, class) AIMD controllers — the twin of the real service's
    // thread-local epoch state, seeded by the same seed_config_for_slo rule.
    std::vector<WindowController> controllers;
    BatchPlan plan;
    bool busy = false;
  };

  struct ClassState {
    RequestClass spec;
    std::size_t depth_limit = 0;  // shed_threshold(spec.admission, capacity)
  };

  KvServiceConfig config;
  SimTwinConfig twin;
  db::CostProfile cost;  // resolved_cost_profile(config): per-op classes
  // Admission, completions, routes and lock timing: one slot per simulated
  // worker, so the big/little split folds exactly as on the real path.
  ServiceMetrics metrics;
  Rng rng;
  sim::Engine eng;
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<ClassState> classes;
  std::uint64_t allocs_charged = 0;  // sum of per-op CostProfile allocs
  TraceRecorder* recorder = nullptr;  // not owned; null = no recording
  bool ran = false;
  // Telemetry in virtual time (DESIGN.md §11): the same KvTelemetry the
  // real path folds, over the same ServiceMetrics.
  std::unique_ptr<KvTelemetry> telemetry;
  // Virtual instant of the last *service* event (arrival or work
  // completion). Telemetry ticks are engine events too, but they must not
  // move the reported drain time — drained_at reads this clock, which tick
  // events leave alone, so telemetry on/off cannot perturb the measured
  // tables (the twin-side zero-perturbation contract).
  Nanos work_clock = 0;
  void touch() { work_clock = eng.now(); }

  Impl(KvServiceConfig cfg, SimTwinConfig tw)
      : config(normalized_config(std::move(cfg))),
        twin(std::move(tw)),
        cost(resolved_cost_profile(config)),
        metrics(config, worker_slots(config)),
        rng(twin.seed) {
    for (const RequestClass& spec : config.classes) {
      ClassState cs;
      cs.spec = spec;
      cs.depth_limit = shed_threshold(spec.admission, config.queue_capacity);
      classes.push_back(std::move(cs));
    }

    shards.reserve(config.num_shards);
    for (std::uint32_t s = 0; s < config.num_shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->lock =
          make_sim_lock(twin.lock, &eng, &twin.machine, &rng);
      shards.push_back(std::move(shard));
    }

    for (const WorkerSlot& slot : worker_slots(config)) {
      auto worker = std::make_unique<Worker>();
      worker->slot = slot;
      worker->core.id = slot.index;
      worker->core.type = slot.type;
      worker->core.runnable = 1;
      worker->sim.id = slot.index;
      worker->sim.core = &worker->core;
      for (const RequestClass& spec : config.classes) {
        WindowController::Config ctl;
        if (spec.slo_ns > 0) seed_config_for_slo(ctl, spec.slo_ns);
        worker->controllers.emplace_back(ctl);
      }
      workers.push_back(std::move(worker));
    }

    if (config.telemetry.enabled) {
      telemetry = std::make_unique<KvTelemetry>(config, metrics);
    }
  }

  // One virtual-time sampler fold at telemetry time `t`.
  void sample_tick(Nanos t) {
    for (std::size_t s = 0; s < shards.size(); ++s) {
      telemetry->shard_depth()[s] = shards[s]->queue.size();
    }
    telemetry->fold_tick(t);
  }

  // Pre-posts one tick event per sample period over the arrival window (the
  // drain-instant final tick is collect()'s). Each tick reports *its own*
  // scheduled time, and none of them calls touch() — sampling reads state,
  // never advances the work clock.
  void schedule_ticks(Nanos horizon) {
    if (!telemetry) return;
    const Nanos period = config.telemetry.sample_period_ns < 1
                             ? 1
                             : config.telemetry.sample_period_ns;
    for (Nanos t = period; t <= horizon; t += period) {
      eng.at(t, [this, t] { sample_tick(t); });
    }
  }

  // A planned segment's NOPs (plus its allocation charge, allocs *
  // alloc_ns — DESIGN.md §9) in virtual ns under the machine model's
  // slowdown for the side of the lock it runs on, floored at 1 ns so
  // zero-cost classes still advance virtual time.
  sim::Time segment_time(CoreType type, const Segment& seg) const {
    const double ns = (static_cast<double>(seg.nops) * twin.nop_ns +
                       static_cast<double>(seg.allocs) * twin.alloc_ns) *
                      (seg.on_lock ? twin.machine.cs_slowdown(type)
                                   : twin.machine.ncs_slowdown(type));
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }
  sim::Time post_time(CoreType type, bool is_put) const {
    const double ns = static_cast<double>(cost.op(is_put).post_nops) *
                      twin.nop_ns * twin.machine.ncs_slowdown(type);
    return ns < 1.0 ? sim::Time{1} : static_cast<sim::Time>(ns);
  }

  void flush_depth(Shard& shard) {
    shard.stats.depth_integral +=
        static_cast<std::uint64_t>(shard.queue.size()) *
        (eng.now() - shard.depth_since);
    shard.depth_since = eng.now();
  }

  // Admission at arrival time. Returns the decision taken (the replay path
  // compares it against the recorded one) and, when a recorder is attached,
  // captures the arrival + decision + route before any queue/worker state
  // moves — so recorded order is exactly virtual processing order.
  TraceDecision arrive(std::uint32_t shard_index, const Request& req) {
    touch();
    Shard& shard = *shards[shard_index];
    const ClassState& cls = classes[req.class_index];
    const PushResult pushed = admission_decision(
        shard.queue.size(), config.queue_capacity, cls.depth_limit);
    const TraceDecision decision = trace_decision(pushed);
    if (recorder != nullptr) {
      recorder->on_arrival(req.enqueue_ns, req.class_index,
                           req.op == OpType::kPut, req.key, decision,
                           shard_index);
    }
    metrics.on_admission(req.class_index, pushed);
    count_admission(shard.stats, pushed);
    if (pushed != PushResult::kOk) return decision;
    flush_depth(shard);
    shard.queue.push_back(req);
    shard.stats.max_depth =
        std::max<std::uint64_t>(shard.stats.max_depth, shard.queue.size());
    // Kick the lowest-index idle worker of this shard (the twin's stand-in
    // for whichever blocked popper the OS would wake first).
    for (auto& worker : workers) {
      if (worker->slot.shard == shard_index && !worker->busy) {
        dispatch(*worker);
        break;
      }
    }
    return decision;
  }

  // Pops the head and executes the worker's BatchPlan for it. A locked plan
  // acquires the simulated shard lock through the production DispatchPolicy
  // under the *head* request's class window (one dispatch decision per
  // batch, DESIGN.md §6), extends the batch at acquisition time and serves
  // from there; an unlocked one (a lock-free get head) is served at once —
  // no acquisition, no extension, no dispatch decision.
  void dispatch(Worker& worker) {
    Shard& shard = *shards[worker.slot.shard];
    worker.busy = true;
    flush_depth(shard);
    const Request head = shard.queue.front();
    shard.queue.pop_front();
    BatchPlan& plan = worker.plan;
    if (!plan.begin(head, eng.now() - head.enqueue_ns, cost)) {
      plan.seal();
      serve_segment(worker, shard, 0, 0);
      return;
    }
    metrics.on_acquisition(worker.slot.index, plan);

    const ClassState& cls = classes[head.class_index];
    const WindowController& ctl = worker.controllers[head.class_index];
    const std::uint64_t window = cls.spec.slo_ns > 0
                                     ? ctl.window()
                                     : DispatchPolicy::no_epoch_window();
    const LockPlan lock_plan = DispatchPolicy::plan(worker.core.type, window);
    const Nanos lock_req_at = eng.now();
    shard.lock->acquire(
        &worker.sim,
        lock_plan.immediate ? sim::AcquireMode::kImmediate
                            : sim::AcquireMode::kReorder,
        lock_plan.window_ns, [this, &worker, &shard, lock_req_at] {
          touch();
          const Nanos acquired_at = eng.now();
          if (telemetry) {
            metrics.on_lock_wait(worker.slot.index, acquired_at - lock_req_at);
          }
          // Requests already waiting when the lock was won ride along, one
          // simulated lock handoff amortized over all of them; per-op
          // engine cost is still paid per request (serve_segment).
          BatchPlan& plan = worker.plan;
          plan.extend(config.batch_k, [&](BatchMember& m) {
            if (shard.queue.empty()) return false;
            flush_depth(shard);
            m.req = shard.queue.front();
            shard.queue.pop_front();
            m.wait = eng.now() - m.req.enqueue_ns;
            return true;
          });
          if (recorder != nullptr) {
            // One histogram bucket per acquisition: summed over buckets,
            // batch counts equal the route acquire counters (lock-free solo
            // gets acquire nothing and are not batches).
            recorder->on_batch(worker.slot.shard,
                               static_cast<std::uint32_t>(plan.count()));
          }
          plan.seal();
          serve_segment(worker, shard, 0, acquired_at);
        });
  }

  // Serves member i of the worker's sealed plan: one segment_time for its
  // segment, then that request's accounting and controller feedback at the
  // segment's end. The lock is released after the last critical-section
  // member (i + 1 == cs_count); an unlocked plan has cs_count 0 and never
  // releases. After the last member, each served request's own post-op
  // interval elapses before the worker re-dispatches or idles.
  void serve_segment(Worker& worker, Shard& shard, std::size_t i,
                     Nanos acquired_at) {
    const Segment seg = worker.plan.segment(i);
    metrics.on_segment(worker.slot.index, seg);
    // Ledger entry regardless of alloc_ns: the count is the twin-side
    // assertion surface for the zero-allocation contract (DESIGN.md §9).
    allocs_charged += seg.allocs;
    eng.after(segment_time(worker.core.type, seg),
              [this, &worker, &shard, i, acquired_at] {
      touch();
      const BatchPlan& plan = worker.plan;
      const BatchMember& served = plan.member(i);
      const ClassState& cls = classes[served.req.class_index];
      const Nanos total = eng.now() - served.req.enqueue_ns;
      metrics.on_complete(worker.slot.index, served.req.class_index, total,
                          served.wait);
      shard.stats.completed += 1;
      if (cls.spec.slo_ns > 0 &&
          DispatchPolicy::updates_window(worker.core.type)) {
        worker.controllers[served.req.class_index].on_epoch_end(
            total, cls.spec.slo_ns);
      }
      if (i + 1 == plan.cs_count()) {
        if (telemetry) {
          metrics.on_lock_hold(worker.slot.index, eng.now() - acquired_at);
        }
        shard.lock->release(&worker.sim);
      }
      if (i + 1 < plan.count()) {
        serve_segment(worker, shard, i + 1, acquired_at);
        return;
      }
      sim::Time post = 0;
      for (std::size_t m = 0; m < plan.count(); ++m) {
        post += post_time(worker.core.type,
                          plan.member(m).req.op == OpType::kPut);
      }
      eng.after(post, [this, &worker, &shard] {
        touch();
        if (!shard.queue.empty()) {
          dispatch(worker);
        } else {
          worker.busy = false;
        }
      });
    });
  }

  // Runs the posted arrivals and the telemetry ticks over the horizon, then
  // drains completely: arrivals stop at the horizon, workers run the queues
  // dry — the virtual-time equivalent of stop()'s close-then-drain, so
  // completed == accepted holds exactly on return. Shared verbatim by run()
  // and replay(), so both emit byte-identical tables for identical
  // executions.
  void drain(Nanos horizon, SimServiceReport& report) {
    schedule_ticks(horizon);
    eng.run_all();
    collect(report);
  }

  // Snapshot after run_all(): per-class reports, shard stats, routes, the
  // allocation ledger.
  void collect(SimServiceReport& report) {
    // work_clock, not eng.now(): the last service event defines the drain
    // instant. With telemetry off they are the same clock; with telemetry on
    // a trailing tick event past the drain must not move it.
    report.drained_at = work_clock;
    if (telemetry) {
      // The final tick, at the drain instant — the virtual-time twin of the
      // real Sampler's stop()-time fold: it observes empty queues and final
      // counters, so "the sampler sees zero after drain" holds here too.
      sample_tick(work_clock);
      report.telemetry = telemetry->log();
    }
    for (auto& shard : shards) flush_depth(*shard);
    for (std::uint32_t c = 0; c < classes.size(); ++c) {
      // epoch_id -1: the twin does not touch the global EpochRegistry.
      report.service.classes.push_back(metrics.class_report(c, -1));
    }
    for (const auto& shard : shards) {
      report.shards.push_back(shard->stats);
    }
    report.lock_routes = metrics.routes();
    report.allocs_charged = allocs_charged;
  }
};

SimKvService::SimKvService(KvServiceConfig config, SimTwinConfig twin)
    : impl_(new Impl(std::move(config), std::move(twin))) {}

SimKvService::~SimKvService() { delete impl_; }

std::uint32_t SimKvService::shard_of(std::uint64_t key) const {
  return shard_for_key(key, impl_->config.num_shards);
}

const KvServiceConfig& SimKvService::config() const { return impl_->config; }

SimServiceReport SimKvService::run(const std::vector<LoadSpec>& load,
                                   Nanos horizon) {
  SimServiceReport report;
  report.horizon = horizon;
  if (impl_->ran) return report;  // single-shot, like one start/stop cycle
  impl_->ran = true;

  // Pre-generate every schedule with the same pure function the wall-clock
  // generator replays, then post arrivals as engine events. Specs aimed at
  // unknown classes offer nothing (run_open_loop's rule).
  for (const LoadSpec& spec : load) {
    if (spec.class_index >= impl_->classes.size()) continue;
    for (const TracePoint& p : generate_trace(spec, horizon)) {
      const Request req{p.is_put ? OpType::kPut : OpType::kGet, p.key,
                        spec.class_index, p.at};
      report.offered += 1;
      impl_->eng.at(p.at, [this, req] {
        impl_->arrive(shard_of(req.key), req);
      });
    }
  }

  impl_->drain(horizon, report);
  return report;
}

void SimKvService::record_to(TraceRecorder* recorder) {
  impl_->recorder = recorder;
}

SimReplayReport SimKvService::replay(const RecordedTrace& trace) {
  SimReplayReport rr;
  rr.report.horizon = trace.meta.horizon;
  if (impl_->ran) return rr;  // single-shot, like run()
  impl_->ran = true;

  // Schedule the recorded stream in record order. Recorded order is the
  // original run's processing order ((time, insertion) — sim/engine.h), so
  // inserting in that order preserves both the time order and the original
  // FIFO tie-breaks among equal timestamps: the replayed event sequence is
  // the original one, which is what makes the tables byte-identical under
  // the recorded config. Records aimed at classes this config lacks are
  // skipped, mirroring run()'s unknown-class rule.
  for (const TraceRecord& rec : trace.records) {
    if (rec.class_index >= impl_->classes.size()) {
      rr.skipped += 1;
      continue;
    }
    const Request req{rec.is_put ? OpType::kPut : OpType::kGet, rec.key,
                      rec.class_index, rec.at};
    rr.report.offered += 1;
    impl_->eng.at(rec.at, [this, req, rec, &rr] {
      // Routing is always recomputed from the key: under the recorded
      // config it reproduces the recorded shard (shared shard_for_key
      // rule); under a changed shard count the divergence counter says how
      // much of the recorded routing no longer applies.
      const std::uint32_t shard = shard_of(req.key);
      if (shard != rec.shard) rr.shard_divergence += 1;
      const TraceDecision live = impl_->arrive(shard, req);
      if (live != rec.decision) rr.decision_divergence += 1;
    });
  }

  impl_->drain(trace.meta.horizon, rr.report);
  return rr;
}

SimServiceReport run_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin) {
  SimKvService service(scenario.service, twin);
  return service.run(scenario.load, scenario.horizon);
}

RecordedTrace record_sim_kv(const KvScenario& scenario,
                            const SimTwinConfig& twin,
                            SimServiceReport* report_out) {
  SimKvService service(scenario.service, twin);
  TraceRecorder recorder;
  service.record_to(&recorder);
  const SimServiceReport report = service.run(scenario.load, scenario.horizon);

  TraceMeta meta;
  if (!scenario.name.empty()) meta.scenario = scenario.name;
  meta.engine = service.config().engine;
  meta.horizon = scenario.horizon;
  meta.num_shards = service.config().num_shards;
  meta.twin_seed = twin.seed;
  meta.real_path = false;
  for (const RequestClass& cls : service.config().classes) {
    meta.class_names.push_back(cls.name);
  }
  for (const LoadSpec& spec : scenario.load) {
    meta.seeds.push_back(TraceMeta::SpecSeed{spec.class_index, spec.seed});
  }
  if (report_out != nullptr) *report_out = report;
  return recorder.finish(std::move(meta), report.lock_routes);
}

SimReplayReport replay_sim_kv(const RecordedTrace& trace,
                              const KvServiceConfig& config,
                              const SimTwinConfig& twin) {
  SimKvService service(config, twin);
  return service.replay(trace);
}

TraceAccounting sim_trace_accounting(const SimServiceReport& report) {
  TraceAccounting acc;
  for (const ClassReport& c : report.service.classes) {
    TraceClassTotals t;
    t.name = c.name;
    t.accepted = c.accepted;
    t.rejected = c.rejected;
    t.shed = c.shed;
    acc.classes.push_back(std::move(t));
  }
  for (const SimShardStats& s : report.shards) {
    acc.shards.push_back(TraceShardTotals{s.accepted, s.rejected, s.shed});
  }
  acc.routes = report.lock_routes;
  return acc;
}

Table sim_kv_measured_table(const SimServiceReport& report) {
  // All-integer cells (virtual ns): byte-identical across runs and the
  // anchor of the twin's determinism + golden-trace tests.
  Table table({"class", "slo_us", "offered", "accepted", "rejected", "shed",
               "completed", "slo_met", "mean_ns", "p50_ns", "p99_ns",
               "p99_big_ns", "p99_little_ns", "qwait_p99_ns"});
  for (const ClassReport& c : report.service.classes) {
    table.add_row(
        {c.name, std::to_string(c.slo_ns / kNanosPerMicro),
         std::to_string(c.accepted + c.rejected), std::to_string(c.accepted),
         std::to_string(c.rejected), std::to_string(c.shed),
         std::to_string(c.completed), std::to_string(c.slo_met),
         std::to_string(
             static_cast<std::uint64_t>(c.total.overall().mean())),
         std::to_string(c.total.overall().p50()),
         std::to_string(c.total.overall().p99()),
         std::to_string(c.total.p99_big()),
         std::to_string(c.total.p99_little()),
         std::to_string(c.queue_wait.p99())});
  }
  return table;
}

Table sim_kv_shard_table(const SimServiceReport& report) {
  // mean_depth_milli = time-averaged queue depth * 1000 (integer cell).
  const std::uint64_t span = report.drained_at > 0 ? report.drained_at : 1;
  Table table({"shard", "accepted", "rejected", "shed", "completed",
               "max_depth", "mean_depth_milli"});
  for (std::size_t s = 0; s < report.shards.size(); ++s) {
    const SimShardStats& st = report.shards[s];
    table.add_row({std::to_string(s), std::to_string(st.accepted),
                   std::to_string(st.rejected), std::to_string(st.shed),
                   std::to_string(st.completed), std::to_string(st.max_depth),
                   std::to_string(st.depth_integral * 1000 / span)});
  }
  return table;
}

Table sim_kv_telemetry_table(const SimServiceReport& report) {
  // Long-form {series, t_ns, value}: integer virtual-ns cells plus the
  // series name — byte-identical across runs, goldenable.
  return report.telemetry.table();
}

}  // namespace asl::server
