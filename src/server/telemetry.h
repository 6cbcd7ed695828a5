// KvTelemetry — the service-side telemetry bundle (DESIGN.md §11): one
// metrics registry + one time-series log + one span tracer, wired to the
// KV service's schema.
//
// Split of responsibilities with the service:
//   * the *hot path* calls on_complete / on_lock_wait / on_lock_hold —
//     each is one or two relaxed atomic RMWs into the registry's per-slot
//     cells (wait-free, allocation-free; the telemetry-on kv_alloc_audit
//     zero depends on it);
//   * the *sampler* (a real thread on the real path, virtual-time tick
//     events on the twin) fills tick_inputs() with a snapshot of the
//     counters the service already owns (admission, queue depths, lock
//     routes) and calls fold_tick, which sums the registry slots,
//     computes windowed p99s from per-tick bucket deltas, and appends one
//     point per series. All fold scratch is preallocated here, so a tick
//     never allocates either.
//
// Series schema (canonical order, identical on the real path and the twin
// so the twin's virtual-time CSV is goldenable against this layout):
//   per class c:  class.<name>.accepted   (cumulative)
//                 class.<name>.completed  (cumulative)
//                 class.<name>.shed       (cumulative)
//                 class.<name>.p99_ns     (end-to-end p99 of THIS tick's
//                                          completions; 0 on an idle tick)
//   per shard s:  shard.<s>.depth         (instantaneous queue depth)
//   then:         lock.acquires           (cumulative, both routes)
//                 lock.wait_p99_ns        (windowed, shard-lock wait)
//                 lock.hold_p99_ns        (windowed, shard-lock hold)
//                 routes.lockfree_gets    (cumulative)
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "obs/timeseries_log.h"
#include "platform/time.h"
#include "server/serving.h"

namespace asl::server {

// One sampler fold's view of the counters the *service* owns (the registry
// covers only what workers record directly). KvTelemetry preallocates one
// (vectors sized to the config's classes and shards); the service fills it
// in place before each fold_tick, so a tick never allocates.
struct TelemetryTickInputs {
  std::vector<std::uint64_t> class_accepted;  // [num_classes]
  std::vector<std::uint64_t> class_shed;      // [num_classes]
  std::vector<std::uint64_t> shard_depth;     // [num_shards]
  LockRouteStats routes;
};

class KvTelemetry {
 public:
  // Builds and freezes the whole pipeline for `config` (post-clamping, so
  // classes is non-empty) with `num_slots` writer identities. Every
  // allocation the telemetry layer will ever make happens here.
  KvTelemetry(const KvServiceConfig& config, std::uint32_t num_slots);
  KvTelemetry(const KvTelemetry&) = delete;
  KvTelemetry& operator=(const KvTelemetry&) = delete;

  // --- hot path (worker threads; wait-free, allocation-free) -------------
  void on_complete(std::uint32_t slot, std::uint32_t class_index,
                   Nanos latency_ns) {
    registry_.add(class_completed_[class_index], slot, 1);
    registry_.observe(class_latency_[class_index], slot,
                      static_cast<std::uint64_t>(latency_ns));
  }
  void on_lock_wait(std::uint32_t slot, Nanos wait_ns) {
    registry_.observe(lock_wait_, slot, static_cast<std::uint64_t>(wait_ns));
  }
  void on_lock_hold(std::uint32_t slot, Nanos hold_ns) {
    registry_.observe(lock_hold_, slot, static_cast<std::uint64_t>(hold_ns));
  }

  // --- sampler side ------------------------------------------------------
  // The inputs the next fold_tick reads; the service fills them first.
  TelemetryTickInputs& tick_inputs() { return tick_; }
  // Appends one point to every series at time `t` (ns on the telemetry time
  // axis — wall-clock-since-start() on the real path, virtual time on the
  // twin) from tick_inputs() and the registry. Single-threaded by contract:
  // the real Sampler serializes its ticks, the twin is single-threaded by
  // construction.
  void fold_tick(Nanos t);

  std::uint64_t ticks() const { return ticks_; }
  const obs::TimeSeriesLog& log() const { return log_; }
  const obs::SpanTracer& tracer() const { return tracer_; }
  obs::SpanTracer& tracer() { return tracer_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  // p99 over one tick's worth of a histogram metric: fold the registry's
  // buckets, diff against the previous tick's fold, quantile the delta.
  std::uint64_t windowed_p99(std::size_t hist_index, obs::MetricId id);

  obs::MetricsRegistry registry_;
  obs::TimeSeriesLog log_;
  obs::SpanTracer tracer_;

  // Registry metric ids (what workers record).
  std::vector<obs::MetricId> class_completed_;  // counter per class
  std::vector<obs::MetricId> class_latency_;    // histogram per class
  obs::MetricId lock_wait_ = 0;                 // histogram
  obs::MetricId lock_hold_ = 0;                 // histogram

  // Series ids, in schema order.
  std::vector<obs::TimeSeriesLog::SeriesId> s_class_accepted_;
  std::vector<obs::TimeSeriesLog::SeriesId> s_class_completed_;
  std::vector<obs::TimeSeriesLog::SeriesId> s_class_shed_;
  std::vector<obs::TimeSeriesLog::SeriesId> s_class_p99_;
  std::vector<obs::TimeSeriesLog::SeriesId> s_shard_depth_;
  obs::TimeSeriesLog::SeriesId s_lock_acquires_ = 0;
  obs::TimeSeriesLog::SeriesId s_lock_wait_p99_ = 0;
  obs::TimeSeriesLog::SeriesId s_lock_hold_p99_ = 0;
  obs::TimeSeriesLog::SeriesId s_lockfree_gets_ = 0;

  // Fold scratch, preallocated: cur_/delta_ are one histogram's buckets,
  // prev_ snapshots every histogram metric's previous fold (class latencies
  // first, then lock wait, then lock hold — indexed by hist_index).
  std::vector<std::uint64_t> cur_;
  std::vector<std::uint64_t> delta_;
  std::vector<std::uint64_t> prev_;
  TelemetryTickInputs tick_;
  std::uint64_t ticks_ = 0;
};

}  // namespace asl::server
