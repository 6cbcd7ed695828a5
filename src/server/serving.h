// The serving core (DESIGN.md §1): every rule the real KV service
// (kv_service.h — worker threads on the wall clock) and its simulated twin
// (sim_kv_service.h — events in virtual time) must apply identically,
// written once and owned by neither executor, as DispatchPolicy is for
// Algorithm 3. The executors keep only what differs in kind: how a queue
// blocks, how time passes (spin vs virtual delay), how the lock is taken,
// and how epoch feedback reaches a controller.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "db/engine.h"
#include "obs/metrics.h"
#include "platform/cacheline.h"
#include "platform/rng.h"
#include "platform/time.h"
#include "platform/topology.h"
#include "server/request_queue.h"
#include "stats/histogram.h"
#include "stats/latency_split.h"
#include "workload/cs_workload.h"

namespace asl::server {

// The two engine operations a request can carry: kGet reads the key (a
// miss is not an error — unprefilled keys simply return nothing), kPut
// upserts a value derived from the key.
enum class OpType : std::uint8_t { kGet = 0, kPut = 1 };

// Key -> shard mapping: splitmix64 decorrelates shard choice from key
// order, spreading zipfian-hot ranks and sequential prefills alike over the
// shards.
inline std::uint32_t shard_for_key(std::uint64_t key,
                                   std::uint32_t num_shards) {
  std::uint64_t h = key;
  return static_cast<std::uint32_t>(splitmix64(h) % num_shards);
}

// Upper bound on batch_k: a worker never carries more than this many
// requests through one lock acquisition (BatchPlan is a fixed array, and
// unbounded batches would starve the other worker of a shard anyway).
inline constexpr std::size_t kMaxBatch = 64;

// One queued request. `class_index` is the dense index into the configured
// request classes; `enqueue_ns` is the admission instant (wall clock on the
// real path, the scheduled arrival in virtual time on the twin). A
// fixed-size value type on purpose: the real shard queues are preallocated
// rings of these, so admission moves 24 bytes and never touches the heap
// (DESIGN.md §9).
struct Request {
  OpType op = OpType::kGet;
  std::uint64_t key = 0;
  std::uint32_t class_index = 0;
  Nanos enqueue_ns = 0;
};

// Class-aware admission control (DESIGN.md §6). Under backpressure the
// bounded shard queues should not degrade every class together: deliberately
// rejecting ("shedding") the loose-SLO class early keeps queue headroom —
// and therefore queueing delay — for the tight-SLO class. The policy is two
// knobs that combine into one depth threshold:
//
//   * shed_priority — 0 marks the class protected: it is rejected only by a
//     genuinely full queue (exactly the class-blind FIFO behaviour shedding
//     replaces). Values >= 1 mark it sheddable; larger values shed earlier.
//   * watermark — the queue-depth fraction of capacity where priority-1
//     shedding begins. Each further priority level halves geometrically:
//     priority p sheds once depth >= capacity * watermark^p. Priority 0
//     yields watermark^0 = 1.0, i.e. the full-capacity limit, which is how
//     "protected" and "plain FIFO rejection" are the same code path.
//
// Shed rejections are counted per class (ClassReport::shed, a subset of
// rejected): deliberate sheds are admission policy at work, not overload,
// which is why class_meets_slo() exempts them from the rejection bound.
struct AdmissionPolicy {
  std::uint32_t shed_priority = 0;  // 0 = protected (full-queue rejects only)
  double watermark = 0.5;           // depth fraction where priority 1 sheds
};

// The depth limit `policy` imposes on a queue of `capacity` slots: requests
// of the class are admitted only while depth < the returned limit. Clamped
// to [1, capacity] so a sheddable class always has at least one slot when
// the queue is otherwise empty (a zero limit would starve a class even at
// idle, which is a misconfiguration, not a policy).
inline std::size_t shed_threshold(const AdmissionPolicy& policy,
                                  std::size_t capacity) {
  if (policy.shed_priority == 0) return capacity;
  double fraction = 1.0;
  for (std::uint32_t p = 0; p < policy.shed_priority; ++p) {
    fraction *= policy.watermark;
  }
  // Nudge before flooring: watermarks like 0.29 are not exactly
  // representable, so capacity * fraction can land a hair under the
  // intended integer (100 * 0.29 == 28.999...) and a bare truncation
  // would shed one slot early.
  const double slots =
      std::floor(static_cast<double>(capacity) * fraction + 1e-9);
  if (slots <= 1.0) return 1;
  if (slots >= static_cast<double>(capacity)) return capacity;
  return static_cast<std::size_t>(slots);
}

// A request class: its epoch name (registered with the EpochRegistry at
// service construction), the end-to-end latency SLO, and its admission
// policy. slo_ns == 0 means "no SLO": the epoch still tags the request but
// runs no feedback. The default admission policy is protected, so configs
// that never mention shedding behave exactly as before.
struct RequestClass {
  std::string name;
  Nanos slo_ns = 0;
  AdmissionPolicy admission{};
};

// Live-telemetry knobs (DESIGN.md §11). Default-off: no sampler thread, no
// series or span rings, no shard-lock timing; the accounting cells
// (ServiceMetrics) are live either way. With enabled = true the service
// preallocates the pipeline at construction (time-series capacity, span
// rings), so recording and sampling stay allocation-free — the
// telemetry-on kv_alloc_audit zero is part of the contract.
struct TelemetryConfig {
  bool enabled = false;
  // Fold cadence of the sampler thread (real path) / of the virtual-time
  // tick events the twin schedules over its horizon.
  Nanos sample_period_ns = 5 * kNanosPerMilli;
  // Preallocated points per series; later ticks drop (and count drops).
  std::size_t max_ticks = 4096;
  // Span tracing: 1-in-N request sampling per worker (0 = off — the
  // compiled-in, default-off knob) into fixed per-worker rings that
  // overwrite oldest when full.
  std::uint32_t span_sample_every = 0;
  std::size_t span_ring_capacity = 1024;
};

struct KvServiceConfig {
  std::uint32_t num_shards = 4;
  std::size_t queue_capacity = 256;  // per shard
  // Workers = num_shards * workers_per_shard, laid out by worker_slots().
  std::uint32_t workers_per_shard = 1;
  // How many workers declare CoreType::kBig (the rest are little); ~0u =
  // half, rounded up.
  std::uint32_t big_workers = ~0u;
  bool pin_workers = true;
  // Storage engine per shard, by registry name (db/engine.h: "hash",
  // "btree", "lsm", "mvcc"). An unknown name is a configuration bug: the
  // service aborts at construction with kv_engine_error's diagnosis.
  std::string engine = "hash";
  // Per-op service-cost classes (DESIGN.md §7). All-zero (the default)
  // resolves to the engine's checked-in calibrated profile
  // (db::default_cost_profile); a non-empty profile — e.g. one measured by
  // the engine_calib harness on this host — overrides it. Either way every
  // class is scaled by cost_scale (the overload scenarios' knob: scaling
  // preserves the get/put asymmetry instead of folding it away). The real
  // worker spins each BatchPlan segment's NOPs on top of the actual engine
  // op; the twin charges the identical segments in virtual time.
  db::CostProfile cost{};
  double cost_scale = 1.0;
  // Keys [0, prefill_keys) are inserted at construction so gets can hit.
  std::uint64_t prefill_keys = 0;
  // Batch drain (DESIGN.md §6, BatchPlan below): a worker serves up to
  // batch_k same-shard requests per lock acquisition. One acquisition (and
  // one reorder-dispatch decision, made under the head request's class
  // epoch) is amortized over the batch, while latency accounting and
  // controller feedback stay per-request. batch_k = 1 is exactly the
  // unbatched service.
  std::uint32_t batch_k = 1;
  std::vector<RequestClass> classes;
  // Live telemetry (metrics registry + sampler + span tracer, DESIGN.md
  // §11), sampled in virtual time by the twin under the same schema.
  TelemetryConfig telemetry;
};

// The configuration both executors actually run: num_shards,
// workers_per_shard and queue_capacity raised to at least 1 (the real
// BoundedQueue cannot hold zero slots, so neither may the twin's queue),
// batch_k clamped to [1, kMaxBatch], and a default no-SLO "kv-default"
// class when none is configured. Idempotent.
KvServiceConfig normalized_config(KvServiceConfig config);

// The per-op cost classes `config` actually runs with: the explicit profile
// when set, otherwise the engine's checked-in default, either one scaled by
// cost_scale. Aborts (with kv_engine_error's message) when the engine name
// is unknown — validated even under an explicit profile, since the twin
// never constructs an engine and must reject a typo'd name too.
db::CostProfile resolved_cost_profile(const KvServiceConfig& config);

// One worker's place in the service: worker w serves shard w % num_shards,
// the first big_workers slots are big (m1_layout order), the rest little.
// Padded to a line so a vector of slots indexed by every worker's hot loop
// never shares a line between two workers.
struct alignas(kCacheLine) WorkerSlot {
  std::uint32_t index = 0;
  std::uint32_t shard = 0;
  CoreType type = CoreType::kBig;
  SpeedFactors speed{};  // the real worker's NOP scaling for `type`
};

// The slot layout of a normalized config: num_shards * workers_per_shard
// slots in worker-index order.
std::vector<WorkerSlot> worker_slots(const KvServiceConfig& config);

// Per-class accounting, merged across workers. Conservation contract:
// offered = accepted + rejected; shed <= rejected (a shed is one kind of
// rejection, so totals that sum accepted + rejected never double-count);
// after stop() / a twin drain, completed == accepted.
struct ClassReport {
  std::string name;
  int epoch_id = -1;
  Nanos slo_ns = 0;
  std::uint64_t accepted = 0;   // admitted to a shard queue
  std::uint64_t rejected = 0;   // all bounces: full-queue + shed
  std::uint64_t shed = 0;       // deliberate watermark rejections (subset)
  std::uint64_t completed = 0;  // served by a worker
  std::uint64_t slo_met = 0;    // completed with end-to-end latency <= SLO
  LatencySplit total;           // end-to-end latency, by worker core type
  Histogram queue_wait;         // admission -> service start

  // Fraction of completed requests that met the class SLO; vacuously 1.0
  // when nothing completed (an idle class has violated nothing).
  double attainment() const {
    return completed == 0 ? 1.0
                          : static_cast<double>(slo_met) /
                                static_cast<double>(completed);
  }
};

// Snapshot of every class's accounting, in config order. Totals below sum
// over classes; `shed` totals are part of total_rejected(), never added on
// top of it.
struct ServiceReport {
  std::vector<ClassReport> classes;

  std::uint64_t total_accepted() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.accepted;
    return n;
  }
  std::uint64_t total_rejected() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.rejected;
    return n;
  }
  std::uint64_t total_completed() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.completed;
    return n;
  }
  std::uint64_t total_shed() const {
    std::uint64_t n = 0;
    for (const ClassReport& c : classes) n += c.shed;
    return n;
  }
};

// Per-class capacity-probe pass/fail criterion, shared by the real path and
// the simulated twin: a class with an SLO passes iff its end-to-end p99 is
// within the SLO *and* its **hard** rejections (full-queue bounces, i.e.
// rejected - shed) are at most max_reject_fraction of its offered requests.
// A hard-rejected request is an infinite-latency request — with bounded
// queues, overload surfaces as rejections long before the queue-capped p99
// moves, so the rejection term is what detects saturation. Deliberate sheds
// are excluded from the bound: they are the admission policy working as
// configured, not the service failing, so shedding the loose class must not
// fail the tight class's capacity check (and the shed class itself is
// judged on the latency of what it actually served). Classes without an SLO
// (slo_ns == 0) pass vacuously.
inline bool class_meets_slo(const ClassReport& c,
                            double max_reject_fraction = 0.0) {
  if (c.slo_ns == 0) return true;
  const std::uint64_t offered = c.accepted + c.rejected;
  if (offered == 0) return true;
  // Defensive clamp: report() enforces shed <= rejected, but hand-built
  // reports may not, and an unsigned underflow here would read as an
  // astronomical rejection fraction.
  const std::uint64_t hard = c.rejected >= c.shed ? c.rejected - c.shed : 0;
  const double reject_fraction =
      static_cast<double>(hard) / static_cast<double>(offered);
  if (reject_fraction > max_reject_fraction) return false;
  return c.total.overall().p99() <= c.slo_ns;
}

// Whole-service criterion: every class passes class_meets_slo. This is the
// oracle the capacity probes bisect against on both paths.
inline bool report_meets_slos(const ServiceReport& report,
                              double max_reject_fraction = 0.0) {
  for (const ClassReport& c : report.classes) {
    if (!class_meets_slo(c, max_reject_fraction)) return false;
  }
  return true;
}

// Which route served what (DESIGN.md §8) — the observable that proves the
// lock-free read path is actually lock-free:
//   * get_route_acquires — shard-lock acquisitions whose batch head was a
//     get. Zero on a get_lock_free profile (the acceptance criterion: gets
//     never block on the shard mutex), nonzero on locked engines.
//   * put_route_acquires — acquisitions headed by a put.
//   * cs_gets — gets served inside a critical section (locked engines).
//   * lockfree_gets — gets served off-lock (head-get solo serves plus gets
//     that rode a put-headed batch and were deferred past the release).
// cs_gets + lockfree_gets == completed gets, always.
struct LockRouteStats {
  std::uint64_t get_route_acquires = 0;
  std::uint64_t put_route_acquires = 0;
  std::uint64_t cs_gets = 0;
  std::uint64_t lockfree_gets = 0;
};

// One service segment of a planned batch: the op it runs, whether it runs
// inside the critical section (core-speed `cs` scaling) or off-lock
// (`ncs` scaling), and the op class's emulated NOPs and allocation count.
struct Segment {
  OpType op = OpType::kGet;
  bool on_lock = false;
  std::uint64_t nops = 0;
  std::uint64_t allocs = 0;
};

// A batch member: the request, its queue wait frozen at the instant a
// worker took charge of it (pop time), the end of its own service segment,
// and — real path only — its put value, formatted into the worker's arena.
struct BatchMember {
  Request req;
  Nanos wait = 0;
  Nanos done = 0;
  std::string_view value;
};

// The batch plan (DESIGN.md §6/§8): which requests one acquisition serves,
// in which order, and which of them hold the lock.
//
//   begin(head)  — a get head on a get_lock_free profile is served alone,
//                  off-lock, with no acquisition (locked() == false);
//                  every other head takes the shard lock.
//   extend(pop)  — after the acquisition, requests already waiting join
//                  until the batch holds batch_k (never past kMaxBatch).
//   seal()       — fixes the serving order: pop order, except that on a
//                  get_lock_free profile the puts move ahead of the gets
//                  (each group keeps pop order), and only the puts stay on
//                  the lock. cs_count() members run inside the critical
//                  section, the rest after the release.
//
// member(i) / segment(i) then walk the batch in serving order; member(0)
// is the head from begin() on (the head always leads the serving order). A
// plan is reused batch after batch (one per worker), so building one never
// allocates.
class BatchPlan {
 public:
  // Starts a batch at `head` (queue wait `wait`) under `cost`, which must
  // outlive the batch. Returns locked().
  bool begin(const Request& head, Nanos wait, const db::CostProfile& cost);

  // Appends requests already waiting while the batch is below batch_k:
  // `pop(member)` fills a reset member and returns false when the queue has
  // none. Only a locked batch extends.
  template <typename Pop>
  void extend(std::size_t batch_k, Pop&& pop) {
    const std::size_t limit = batch_k < kMaxBatch ? batch_k : kMaxBatch;
    while (locked_ && count_ < limit) {
      BatchMember& m = members_[count_];
      m = BatchMember{};
      if (!pop(m)) break;
      ++count_;
    }
  }

  void seal();

  bool locked() const { return locked_; }
  std::size_t count() const { return count_; }
  std::size_t cs_count() const { return cs_count_; }
  BatchMember& member(std::size_t i) { return members_[order_[i]]; }
  const BatchMember& member(std::size_t i) const {
    return members_[order_[i]];
  }
  Segment segment(std::size_t i) const;

 private:
  const db::CostProfile* cost_ = nullptr;
  bool locked_ = false;
  std::size_t count_ = 0;
  std::size_t cs_count_ = 0;
  std::uint8_t order_[kMaxBatch] = {};  // serving order -> members_ index
  BatchMember members_[kMaxBatch];      // pop order
};

// Admission accounting, written once for the twin's plain counters and the
// real service's relaxed atomic ones.
inline void bump(std::uint64_t& counter) { counter += 1; }
inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}
// One admission decision into `accepted`/`rejected`/`shed` counters (a
// class's or a shard's). A shed is a rejection too, counted second: a
// snapshot that reads shed before rejected then undercounts shed rather
// than overcounting it, preserving shed <= rejected.
template <typename Counters>
void count_admission(Counters& counters, PushResult pushed) {
  if (pushed == PushResult::kOk) {
    bump(counters.accepted);
    return;
  }
  bump(counters.rejected);
  if (pushed == PushResult::kShed) bump(counters.shed);
}

// The one accounting store of both executors (DESIGN.md §1, §11): worker w
// of worker_slots() — a thread, or a simulated worker on the twin — records
// completions, routes and (with telemetry on) lock wait/hold into slot w of
// one obs::MetricsRegistry, under its one-writer-per-slot rule (wait-free,
// allocation-free). Admission is counted by submitters, which are not
// worker slots, into per-class relaxed atomics. ServiceReport,
// LockRouteStats and the telemetry ticks all read these same cells.
class ServiceMetrics {
 public:
  // Registers and freezes every metric: the only allocation made here.
  ServiceMetrics(const KvServiceConfig& config,
                 const std::vector<WorkerSlot>& slots);

  // One admission decision of `class_index` (any thread).
  void on_admission(std::uint32_t class_index, PushResult pushed) {
    count_admission(admission_[class_index], pushed);
  }
  // One served request: end-to-end latency, queue wait, and whether it met
  // the class SLO (always, for a class without one).
  void on_complete(std::uint32_t slot, std::uint32_t class_index,
                   Nanos total_ns, Nanos wait_ns) {
    const ClassMetrics& c = classes_[class_index];
    registry_.observe(c.latency, slot, total_ns);
    registry_.observe(c.queue_wait, slot, wait_ns);
    if (c.spec.slo_ns == 0 || total_ns <= c.spec.slo_ns) {
      registry_.add(c.slo_met, slot, 1);
    }
  }
  // An acquisition counts on its head's route: the get route must stay at
  // zero on a get_lock_free profile.
  void on_acquisition(std::uint32_t slot, const BatchPlan& plan) {
    if (!plan.locked()) return;
    const bool put = plan.member(0).req.op == OpType::kPut;
    registry_.add(put ? put_acquires_ : get_acquires_, slot, 1);
  }
  void on_segment(std::uint32_t slot, const Segment& segment) {
    if (!segment.on_lock) {
      registry_.add(lockfree_gets_, slot, 1);
    } else if (segment.op == OpType::kGet) {
      registry_.add(cs_gets_, slot, 1);
    }
  }
  // Lock timing: telemetry on only (see lock_wait_).
  void on_lock_wait(std::uint32_t slot, Nanos wait_ns) {
    registry_.observe(lock_wait_, slot, wait_ns);
  }
  void on_lock_hold(std::uint32_t slot, Nanos hold_ns) {
    registry_.observe(lock_hold_, slot, hold_ns);
  }

  // A class's report: identity, admission counters, and its slots folded
  // by core type (completed = the latency count). A racing fold is
  // consistent per cell, so shed is clamped to rejected and slo_met to
  // completed.
  ClassReport class_report(std::uint32_t class_index, int epoch_id) const;
  LockRouteStats routes() const;

  // What the telemetry ticks fold.
  std::uint64_t accepted(std::uint32_t c) const {
    return admission_[c].accepted.load(std::memory_order_relaxed);
  }
  std::uint64_t shed(std::uint32_t c) const {
    return admission_[c].shed.load(std::memory_order_relaxed);
  }
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricId latency(std::uint32_t c) const { return classes_[c].latency; }
  obs::MetricId lock_wait() const { return lock_wait_; }
  obs::MetricId lock_hold() const { return lock_hold_; }

 private:
  struct ClassMetrics {
    RequestClass spec;
    obs::MetricId latency, queue_wait;  // histograms
    obs::MetricId slo_met;              // counter
  };
  // Bumped by submitters on every try_submit: each class on its own line.
  struct alignas(kCacheLine) Admission {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};  // all bounces (shed included)
    std::atomic<std::uint64_t> shed{0};      // watermark bounces only
  };

  obs::MetricsRegistry registry_;
  std::vector<CoreType> slot_types_;
  std::vector<ClassMetrics> classes_;
  std::vector<Admission> admission_;
  obs::MetricId get_acquires_, put_acquires_, cs_gets_, lockfree_gets_;
  // Registered with telemetry on only: lock timing is measured, recorded
  // and read by the telemetry paths alone.
  obs::MetricId lock_wait_ = 0, lock_hold_ = 0;
};

}  // namespace asl::server
