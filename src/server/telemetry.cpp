#include "server/telemetry.h"

#include "stats/histogram.h"

namespace asl::server {

KvTelemetry::KvTelemetry(const KvServiceConfig& config,
                         const ServiceMetrics& metrics)
    : metrics_(metrics),
      tracer_(metrics.registry().num_slots(),
              config.telemetry.span_ring_capacity,
              config.telemetry.span_sample_every) {
  const std::size_t num_classes = config.classes.size();
  const std::size_t num_shards = config.num_shards;
  const std::size_t cap = config.telemetry.max_ticks;

  s_class_accepted_.reserve(num_classes);
  s_class_completed_.reserve(num_classes);
  s_class_shed_.reserve(num_classes);
  s_class_p99_.reserve(num_classes);
  s_shard_depth_.reserve(num_shards);

  for (const RequestClass& c : config.classes) {
    s_class_accepted_.push_back(
        log_.add_series("class." + c.name + ".accepted", cap));
    s_class_completed_.push_back(
        log_.add_series("class." + c.name + ".completed", cap));
    s_class_shed_.push_back(log_.add_series("class." + c.name + ".shed", cap));
    s_class_p99_.push_back(log_.add_series("class." + c.name + ".p99_ns", cap));
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    s_shard_depth_.push_back(
        log_.add_series("shard." + std::to_string(s) + ".depth", cap));
  }
  s_lock_acquires_ = log_.add_series("lock.acquires", cap);
  s_lock_wait_p99_ = log_.add_series("lock.wait_p99_ns", cap);
  s_lock_hold_p99_ = log_.add_series("lock.hold_p99_ns", cap);
  s_lockfree_gets_ = log_.add_series("routes.lockfree_gets", cap);

  const std::size_t num_hists = num_classes + 2;
  shard_depth_.resize(num_shards);
  cur_.resize(Histogram::kNumBuckets);
  delta_.resize(Histogram::kNumBuckets);
  prev_.assign(num_hists * Histogram::kNumBuckets, 0);
}

std::uint64_t KvTelemetry::windowed_p99(std::size_t hist_index,
                                        obs::MetricId id,
                                        std::uint64_t* count) {
  *count = metrics_.registry().fold_buckets(id, cur_.data());
  std::uint64_t* prev = prev_.data() + hist_index * Histogram::kNumBuckets;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    // Counters are monotone, so cur >= prev bucket-wise; the delta is
    // exactly this tick's observations.
    delta_[b] = cur_[b] - prev[b];
    total += delta_[b];
    prev[b] = cur_[b];
  }
  return Histogram::quantile_from_bucket_counts(delta_.data(), total, 0.99);
}

void KvTelemetry::fold_tick(Nanos t) {
  const std::uint64_t ts = static_cast<std::uint64_t>(t);
  const std::uint32_t num_classes =
      static_cast<std::uint32_t>(s_class_p99_.size());
  std::uint64_t count = 0;
  for (std::uint32_t c = 0; c < num_classes; ++c) {
    // completed is the latency histogram's count, as in report().
    const std::uint64_t p99 = windowed_p99(c, metrics_.latency(c), &count);
    log_.append(s_class_accepted_[c], ts, metrics_.accepted(c));
    log_.append(s_class_completed_[c], ts, count);
    log_.append(s_class_shed_[c], ts, metrics_.shed(c));
    log_.append(s_class_p99_[c], ts, p99);
  }
  for (std::size_t s = 0; s < s_shard_depth_.size(); ++s) {
    log_.append(s_shard_depth_[s], ts, shard_depth_[s]);
  }
  const LockRouteStats routes = metrics_.routes();
  log_.append(s_lock_acquires_, ts,
              routes.get_route_acquires + routes.put_route_acquires);
  log_.append(s_lock_wait_p99_, ts,
              windowed_p99(num_classes, metrics_.lock_wait(), &count));
  log_.append(s_lock_hold_p99_, ts,
              windowed_p99(num_classes + 1, metrics_.lock_hold(), &count));
  log_.append(s_lockfree_gets_, ts, routes.lockfree_gets);
  ticks_ += 1;
}

}  // namespace asl::server
