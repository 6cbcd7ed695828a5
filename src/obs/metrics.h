// Lock-free metrics registry — the KV service's accounting store and the
// recording half of the telemetry layer (DESIGN.md §11).
//
// Metrics are *named at registration, indexed at recording*: a service
// registers counters, gauges and log-bucketed histograms while it is built,
// calls freeze() once to lay the storage out, and from then on every
// recording writes preallocated per-slot cells — wait-free and
// allocation-free, which is what lets the kv_alloc_audit zero hold
// (DESIGN.md §9). A "slot" is a writer identity (a worker thread on the
// real path, a simulated worker on the twin) with exactly one writer, so
// recording never contends: a counter or bucket is one relaxed RMW, a
// histogram's sum/min/max cells a plain load, compare and store.
//
// Folds read a metric's slots with relaxed loads, racing the writers: the
// snapshot is consistent per cell — monotone counters can only be
// undercounted by an in-flight increment, never corrupted.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/cacheline.h"
#include "stats/histogram.h"

namespace asl::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

// Dense handle returned at registration; recording and folding are O(1)
// array indexing off it, never a name lookup.
using MetricId = std::uint32_t;

class MetricsRegistry {
 public:
  // `num_slots` is the writer population (clamped to >= 1): recording slot
  // s of any metric is private to writer s.
  explicit MetricsRegistry(std::uint32_t num_slots);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration (before freeze() only): returns the metric's id. Counters
  // accumulate via add(), gauges overwrite via set(), histograms bucket
  // observations via observe() into Histogram's log-bucketed layout.
  MetricId counter(std::string name);
  MetricId gauge(std::string name);
  MetricId histogram(std::string name);

  // Lays out the storage (the only allocation this class ever performs).
  // Registration after freeze() or recording before it is a caller bug.
  void freeze();
  bool frozen() const { return frozen_; }

  // --- recording (slot's one writer only): wait-free, allocation-free ----
  void add(MetricId id, std::uint32_t slot, std::uint64_t delta) {
    scalars_[scalar_cell(id, slot)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void set(MetricId id, std::uint32_t slot, std::uint64_t value) {
    scalars_[scalar_cell(id, slot)].value.store(value,
                                                std::memory_order_relaxed);
  }
  void observe(MetricId id, std::uint32_t slot, std::uint64_t value) {
    std::atomic<std::uint64_t>* c = &hist_[hist_base(id, slot)];
    c[kSum].store(c[kSum].load(kRelaxed) + value, kRelaxed);
    if (~value > c[kNotMin].load(kRelaxed)) {
      c[kNotMin].store(~value, kRelaxed);
    }
    if (value > c[kMax].load(kRelaxed)) c[kMax].store(value, kRelaxed);
    // Release: a merge_slot() that counts this observation also sees it in
    // the summary cells, so a mid-run fold's max covers its buckets.
    c[Histogram::bucket_index(value)].fetch_add(1, std::memory_order_release);
  }

  // --- folding (any thread; allocation-free) -----------------------------
  // Sum of a counter/gauge over every slot.
  std::uint64_t fold(MetricId id) const;
  // Per-bucket sums of a histogram over every slot, written into `out`
  // (caller-preallocated, Histogram::kNumBuckets entries, overwritten).
  // Returns the total observation count (the bucket sum).
  std::uint64_t fold_buckets(MetricId id, std::uint64_t* out) const;
  // Merges one slot of a histogram into `out` — buckets, count, sum, min and
  // max — so merging every slot reproduces one Histogram exactly.
  void merge_slot(MetricId id, std::uint32_t slot, Histogram& out) const;

  std::uint32_t num_slots() const { return num_slots_; }
  std::size_t size() const { return metrics_.size(); }
  const std::string& name(MetricId id) const { return metrics_[id].name; }
  MetricKind kind(MetricId id) const { return metrics_[id].kind; }

 private:
  // One padded cell per (scalar metric, slot): two writers' hot counters
  // never share a line, and neither does the sampler's fold cursor.
  struct alignas(kCacheLine) PaddedCell {
    std::atomic<std::uint64_t> value{0};
  };

  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    // Dense index among metrics of the same storage family (scalar vs
    // histogram); the cell math below turns it into an array offset.
    std::size_t base = 0;
  };

  std::size_t scalar_cell(MetricId id, std::uint32_t slot) const {
    return metrics_[id].base * num_slots_ + slot;
  }
  // A histogram slot's block: the buckets, then sum, ~min (complemented, so
  // a zeroed cell is an empty slot's ~0) and max padded to a line — way
  // past a line in all, so per-slot padding is structural.
  static constexpr std::size_t kSum = Histogram::kNumBuckets;
  static constexpr std::size_t kNotMin = kSum + 1, kMax = kSum + 2;
  static constexpr std::size_t kHistCells = kSum + kCacheLine / 8;
  std::size_t hist_base(MetricId id, std::uint32_t slot) const {
    return (metrics_[id].base * num_slots_ + slot) * kHistCells;
  }
  static constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

  MetricId register_metric(std::string name, MetricKind kind);

  std::uint32_t num_slots_;
  bool frozen_ = false;
  std::vector<Metric> metrics_;
  std::size_t scalar_count_ = 0;  // scalar metrics registered so far
  std::size_t hist_count_ = 0;    // histogram metrics registered so far
  std::vector<PaddedCell> scalars_;              // [scalar metric x slot]
  std::vector<std::atomic<std::uint64_t>> hist_; // [hist metric x slot x cell]
};

}  // namespace asl::obs
