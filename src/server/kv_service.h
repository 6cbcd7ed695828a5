// Sharded KV front-end — the open-loop service layer over the asl_db
// engines (DESIGN.md §4), executed by worker threads on the wall clock.
//
// Layout: N shards, each one KvEngine (hash/btree/lsm/mvcc, selected by
// KvServiceConfig::engine — DESIGN.md §7) guarded by a BlockingAslMutex
// (the oversubscription-safe LibASL lock) behind a bounded request queue.
// Requests are routed by key hash, admitted with backpressure (a full queue
// rejects, it never blocks the submitter), and served by worker threads
// that declare big/little core types through the topology oracle and pin
// themselves like the paper's evaluation harness.
//
// Every request carries a *request class*: a named epoch registered with
// the EpochRegistry, so different classes (point lookups vs writes, say)
// adapt their reorder windows against different SLOs. The worker wraps the
// shard critical section in epoch_start / epoch_end_with_latency and feeds
// the controller the *end-to-end* latency (queue wait + service): under
// overload, queueing delay violates the SLO, the window collapses, and
// little-core workers stop standing by — the service-level version of the
// paper's feedback loop.
//
// What a batch serves, in which order and on which side of the lock — the
// lock-free get route of DESIGN.md §8 included — is the shared BatchPlan
// (server/serving.h); this file executes it with threads, spins and the
// real mutex, the twin (sim_kv_service.h) with events in virtual time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <string_view>
#include <thread>
#include <vector>

#include "asl/libasl.h"
#include "db/engine.h"
#include "platform/cacheline.h"
#include "server/request_queue.h"
#include "server/serving.h"

namespace asl::obs {
class Sampler;  // obs/sampler.h
}  // namespace asl::obs

namespace asl::server {

class KvTelemetry;  // server/telemetry.h

// Per-worker value arena (DESIGN.md §9). Puts format their value bytes into
// this fixed monotonic buffer *before* entering the critical section; the
// engines consume them as string_views and copy into their own storage, so
// the slots recycle every batch. Two guarantees by construction:
//   * zero heap traffic — the upstream is the null resource, so an arena
//     that would ever spill past its fixed buffer throws bad_alloc instead
//     of silently allocating (and the sizing makes that unreachable: at
//     most kMaxBatch values of kSlotBytes each per batch);
//   * no sharing — each worker thread owns one arena on its drain-loop
//     stack. "Per shard" would race: with two workers per shard, both
//     format values for the same shard concurrently outside the lock.
class ValueArena {
 public:
  // "v:" + at most 20 decimal digits + nul, rounded up: one slot per batch
  // member, kMaxBatch slots per batch.
  static constexpr std::size_t kSlotBytes = 32;

  ValueArena()
      : resource_(buffer_, sizeof(buffer_), std::pmr::null_memory_resource()) {}
  ValueArena(const ValueArena&) = delete;
  ValueArena& operator=(const ValueArena&) = delete;

  // Formats the service's value representation of `key` ("v:<key>") into an
  // arena slot. The view stays valid until the next release().
  std::string_view format_value(std::uint64_t key);

  // Recycles every slot (end of batch). O(1): a monotonic resource resets
  // its cursor to the start of the fixed buffer it was constructed over.
  void release() { resource_.release(); }

 private:
  alignas(kCacheLine) char buffer_[kMaxBatch * kSlotBytes];
  std::pmr::monotonic_buffer_resource resource_;
};

class TraceRecorder;  // workload/trace.h

class KvService {
 public:
  explicit KvService(KvServiceConfig config);
  ~KvService();
  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Spawns the worker pool. Idempotent; requests submitted before start()
  // sit in the shard queues (server_test uses this to fill a queue).
  void start();

  // Closes the queues, lets the workers drain every accepted request, and
  // joins them. After stop(), completed == accepted per class. Idempotent.
  void stop();

  // Key -> shard routing (hash-striped so skewed key popularity still
  // spreads over shards). Exposed for the routing tests.
  std::uint32_t shard_of(std::uint64_t key) const;

  // Open-loop admission: non-blocking; false = rejected (queue full,
  // class watermark hit, or service stopped). The enqueue timestamp is
  // taken here. Sheddable classes are rejected once their shard queue's
  // depth reaches shed_threshold(class.admission, queue_capacity); such
  // rejections count in both `rejected` and `shed` for the class. An
  // out-of-range class_index is a caller bug: it returns false without
  // counting a per-class rejection (there is no class to attribute it to),
  // so callers validate indices up front (run_open_loop does).
  bool try_submit(OpType op, std::uint64_t key, std::uint32_t class_index);

  // Number of configured request classes (>= 1: an empty config gets a
  // default no-SLO class at construction).
  std::uint32_t num_classes() const {
    return static_cast<std::uint32_t>(config_.classes.size());
  }
  // The EpochRegistry id backing class_index's epoch, or -1 when the index
  // is out of range. Valid ids are stable for the service's lifetime.
  int epoch_id(std::uint32_t class_index) const;
  // Instantaneous depth of one shard's queue (0 for an out-of-range shard).
  // A point-in-time read: concurrent submits/drains may move it immediately.
  std::size_t queue_depth(std::uint32_t shard) const;
  // Total keys stored across all shard engines (prefill + completed puts).
  std::size_t store_size() const;
  // Worker-slot count (worker_slots() of the config), fixed at
  // construction whether or not start() ever ran.
  std::uint32_t num_workers() const;
  // The effective configuration: normalized_config() of the one passed in.
  const KvServiceConfig& config() const { return config_; }

  // Merged per-class accounting snapshot: the admission counters plus a
  // fold of the workers' metric slots (ServiceMetrics). Safe any time; after
  // stop() it is quiescent and satisfies completed == accepted per class.
  // Mid-run it is consistent per cell, not per class: completed can even
  // run ahead of accepted (try_submit counts after the push). slo_met is
  // clamped to completed as shed is to rejected.
  ServiceReport report() const;

  // Route accounting (see LockRouteStats), folded from the same slots. On a
  // get_lock_free profile get_route_acquires stays 0 and cs_gets stays 0 —
  // every get is served off-lock.
  LockRouteStats lock_route_stats() const;

  // Attach a trace recorder (workload/trace.h, DESIGN.md §10): every
  // subsequent try_submit's admission decision + shard route and every
  // drained batch's size are captured into it. Not owned — it must outlive
  // the traffic it records; pass nullptr to detach. Real-path recording is
  // accounting-faithful, not byte-deterministic: concurrent submitters
  // append in whatever order they win the recorder's lock, so the record
  // stream's interleaving (unlike its per-class/per-shard totals) can
  // differ run to run.
  void set_recorder(TraceRecorder* recorder);

  // Live telemetry (DESIGN.md §11): null unless config.telemetry.enabled.
  // The time-series log and span rings are safe to read once stop() has
  // returned (the sampler's final tick and the worker joins both precede
  // it); mid-run reads see a racing-but-valid snapshot.
  const KvTelemetry* telemetry() const { return telemetry_.get(); }
  KvTelemetry* telemetry() { return telemetry_.get(); }
  // Wall-clock origin of the telemetry time axis (start() instant) — the
  // epoch write_chrome_trace rebases span timestamps against.
  Nanos telemetry_epoch_ns() const { return telemetry_start_ns_; }

 private:
  // Cache-line discipline inside the shard (DESIGN.md §9): the queue ends
  // with its own padded lock group, and the shard lock starts a fresh line,
  // so a submitter hammering the queue lock never bounces the line a worker
  // is spinning on for the shard mutex. The engine pointer rides after the
  // lock — it is read-only once constructed.
  struct Shard {
    Shard(std::size_t queue_capacity, std::unique_ptr<db::KvEngine> eng)
        : queue(queue_capacity), engine(std::move(eng)) {}
    BoundedQueue<Request> queue;
    alignas(kCacheLine) BlockingAslMutex lock;  // serializes shard workers
    std::unique_ptr<db::KvEngine> engine;
  };

  // Read-only after construction; every counter lives in metrics_.
  struct ClassState {
    RequestClass spec;
    int epoch_id = -1;
    std::size_t depth_limit = 0;  // shed_threshold(spec.admission, capacity)
  };

  void worker_loop(const WorkerSlot& slot);
  // Blocking-pop/batch/serve loop shared by worker threads and the inline
  // drain in stop(); returns when the shard queue is closed and empty.
  // Owns the worker's ValueArena and BatchPlan for its whole run.
  void drain_queue(const WorkerSlot& slot);
  // Executes one BatchPlan for `head`: the optional lock acquisition, the
  // critical-section pass, the release, the off-lock pass, then per-request
  // accounting + controller feedback (DESIGN.md §6). Put values are
  // formatted into `arena` (the head's before the acquisition); the arena is
  // recycled before return.
  void serve_batch(const WorkerSlot& slot, const Request& head,
                   BatchPlan& plan, ValueArena& arena);
  // One sampler fold: snapshots the queue depths into the telemetry's
  // preallocated tick input, then folds. Allocation-free (kv_alloc_audit
  // runs telemetry-on).
  void telemetry_tick(Nanos now);

  KvServiceConfig config_;
  db::CostProfile cost_;  // resolved_cost_profile(config_), fixed at build
  // Trace recorder hook (null = not recording). Atomic so set_recorder can
  // race benignly with in-flight submits/workers; callers attach before
  // traffic for a complete recording.
  std::atomic<TraceRecorder*> recorder_{nullptr};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<ClassState>> classes_;
  std::vector<WorkerSlot> slots_;
  // Admission, completions, routes and lock timing.
  ServiceMetrics metrics_;
  std::vector<std::thread> workers_;
  // Lifecycle: transitions (spawn/join, the flags) serialize on
  // lifecycle_lock_, so concurrent start()/stop() from different threads
  // compose instead of racing on the worker vector; the flags themselves
  // are atomic so diagnostic reads never need the lock. Workers never take
  // lifecycle_lock_, so joining under it cannot deadlock.
  mutable PthreadLock lifecycle_lock_;
  std::atomic<bool> running_{false};   // guarded by lifecycle_lock_ (writes)
  std::atomic<bool> stopped_{false};
  // Telemetry (null when disabled). The sampler starts after the workers
  // spawn and stops after they join — its final tick is the one sample
  // guaranteed to observe drained queues and final counters.
  std::unique_ptr<KvTelemetry> telemetry_;
  std::unique_ptr<obs::Sampler> sampler_;
  Nanos telemetry_start_ns_ = 0;
};

}  // namespace asl::server
