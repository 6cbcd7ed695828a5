// KvTelemetry — the service-side telemetry bundle (DESIGN.md §11): one
// time-series log + one span tracer, wired to the KV service's schema and
// sampling the service's ServiceMetrics (server/serving.h).
//
// Split of responsibilities with the service:
//   * the *hot path* records into ServiceMetrics — the same cells report()
//     folds — and, on a traced request, into tracer();
//   * the *sampler* (a real thread on the real path, virtual-time tick
//     events on the twin) fills shard_depth() with the executor's queue
//     depths and calls fold_tick, which reads the ServiceMetrics cells
//     (admission, completions, routes, lock timing), computes windowed
//     p99s from per-tick bucket deltas, and appends one point per series.
//     All fold scratch is preallocated here, so a tick never allocates,
//     and the final tick reads the cells the final report() reads.
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

class KvTelemetry {
 public:
  // Builds the whole pipeline for `config` (post-clamping, so classes is
  // non-empty) over `metrics`, which must outlive it; the span tracer gets
  // one ring per metric slot. Every allocation the telemetry layer will
  // ever make happens here.
  KvTelemetry(const KvServiceConfig& config, const ServiceMetrics& metrics);
  KvTelemetry(const KvTelemetry&) = delete;
  KvTelemetry& operator=(const KvTelemetry&) = delete;

  // The queue depths the next fold_tick reads ([num_shards], preallocated);
  // the executor fills them first.
  std::vector<std::uint64_t>& shard_depth() { return shard_depth_; }
  // Appends one point to every series at time `t` (ns on the telemetry time
  // axis — wall-clock-since-start() on the real path, virtual time on the
  // twin) from shard_depth() and the metric cells. Single-threaded by
  // contract: the real Sampler serializes its ticks, the twin is
  // single-threaded by construction.
  void fold_tick(Nanos t);

  std::uint64_t ticks() const { return ticks_; }
  const obs::TimeSeriesLog& log() const { return log_; }
  const obs::SpanTracer& tracer() const { return tracer_; }
  obs::SpanTracer& tracer() { return tracer_; }

 private:
  // p99 over one tick's worth of a histogram metric: fold the registry's
  // buckets, diff against the previous tick's fold, quantile the delta.
  // `*count` receives the fold's cumulative observation count.
  std::uint64_t windowed_p99(std::size_t hist_index, obs::MetricId id,
                             std::uint64_t* count);

  const ServiceMetrics& metrics_;
  obs::TimeSeriesLog log_;
  obs::SpanTracer tracer_;

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
  std::vector<std::uint64_t> shard_depth_;
  std::uint64_t ticks_ = 0;
};

}  // namespace asl::server
