#include "obs/metrics.h"

#include <cstdio>
#include <cstdlib>

namespace asl::obs {

MetricsRegistry::MetricsRegistry(std::uint32_t num_slots)
    : num_slots_(num_slots < 1 ? 1 : num_slots) {}

MetricId MetricsRegistry::register_metric(std::string name, MetricKind kind) {
  if (frozen_) {
    // Registration after freeze() would need a reallocation under live
    // writers — a structural bug, not a recoverable condition.
    std::fprintf(stderr,
                 "MetricsRegistry: register('%s') after freeze()\n",
                 name.c_str());
    std::abort();
  }
  Metric m;
  m.name = std::move(name);
  m.kind = kind;
  m.base = kind == MetricKind::kHistogram ? hist_count_++ : scalar_count_++;
  metrics_.push_back(std::move(m));
  return static_cast<MetricId>(metrics_.size() - 1);
}

MetricId MetricsRegistry::counter(std::string name) {
  return register_metric(std::move(name), MetricKind::kCounter);
}

MetricId MetricsRegistry::gauge(std::string name) {
  return register_metric(std::move(name), MetricKind::kGauge);
}

MetricId MetricsRegistry::histogram(std::string name) {
  return register_metric(std::move(name), MetricKind::kHistogram);
}

void MetricsRegistry::freeze() {
  if (frozen_) return;
  frozen_ = true;
  // The one-and-only allocation: every cell this registry will ever touch,
  // zero-initialized. vector(n) constructs elements in place, so the
  // non-movable atomic cells never need to relocate.
  scalars_ = std::vector<PaddedCell>(scalar_count_ * num_slots_);
  hist_ = std::vector<std::atomic<std::uint64_t>>(hist_count_ * num_slots_ *
                                                  kHistCells);
}

std::uint64_t MetricsRegistry::fold(MetricId id) const {
  std::uint64_t sum = 0;
  for (std::uint32_t s = 0; s < num_slots_; ++s) {
    sum += scalars_[scalar_cell(id, s)].value.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t MetricsRegistry::fold_buckets(MetricId id,
                                            std::uint64_t* out) const {
  for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) out[b] = 0;
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < num_slots_; ++s) {
    const std::size_t base = hist_base(id, s);
    for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::uint64_t n = hist_[base + b].load(std::memory_order_relaxed);
      out[b] += n;
      total += n;
    }
  }
  return total;
}

void MetricsRegistry::merge_slot(MetricId id, std::uint32_t slot,
                                 Histogram& out) const {
  const std::atomic<std::uint64_t>* cells = &hist_[hist_base(id, slot)];
  std::uint64_t buckets[Histogram::kNumBuckets];
  for (std::uint32_t b = 0; b < Histogram::kNumBuckets; ++b) {
    // Acquire, pairing with observe(): the summary read next covers every
    // observation these buckets count.
    buckets[b] = cells[b].load(std::memory_order_acquire);
  }
  out.merge_cells(buckets, cells[kSum].load(kRelaxed),
                  ~cells[kNotMin].load(kRelaxed), cells[kMax].load(kRelaxed));
}

}  // namespace asl::obs
