// Shared pieces of the benchmark runner: the run options, the metric list a
// run reports, and the percentile helpers every workload uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "platform/time.h"
#include "stats/histogram.h"

namespace perfbench {

using asl::Nanos;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the run
  bool trace = false;     // false: end-to-end metrics; true: per-layer ledger
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `attempted` / `failed` count operations
// offered and operations that failed (rejected, or lost by a failed check).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Reported beside the metrics (sample counts, trial tables), never gated.
  std::vector<Metric> extras;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  bool has(const std::string& name) const {
    for (const Metric& m : metrics) {
      if (m.name == name) return true;
    }
    return false;
  }
  // Adds every metric of `other` this result does not have yet.
  void fill_from(const RunResult& other) {
    for (const Metric& m : other.metrics) {
      if (!has(m.name)) metrics.push_back(m);
    }
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    check_failures.push_back(what);
  }
};

inline double seconds_between(Nanos a, Nanos b) {
  return b > a ? static_cast<double>(b - a) / 1e9 : 0.0;
}

// Quantile q of a sample, interpolated linearly between order statistics
// (0 for an empty one). Takes a copy: callers keep their order.
inline double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return quantile_of(v, 0.5);
}

// Sum of the observations a cumulative histogram gained between two
// instants, exact from the two snapshots' means and counts.
inline double sum_between(const asl::Histogram& earlier,
                          const asl::Histogram& later) {
  return later.mean() * static_cast<double>(later.count()) -
         earlier.mean() * static_cast<double>(earlier.count());
}

// Per-bucket observation counts of a log-bucketed histogram, rebuilt from
// its CDF. Counts subtract, so a cumulative report taken at two instants
// gives the histogram of the interval between them.
struct BucketCounts {
  std::vector<std::uint64_t> n =
      std::vector<std::uint64_t>(asl::Histogram::kNumBuckets, 0);
  std::uint64_t total = 0;

  BucketCounts() = default;
  explicit BucketCounts(const asl::Histogram& h) {
    std::uint64_t seen = 0;
    for (const auto& point : h.cdf()) {
      const auto upto = static_cast<std::uint64_t>(
          std::llround(point.cumulative * static_cast<double>(h.count())));
      n[asl::Histogram::bucket_index(point.value)] += upto - seen;
      seen = upto;
    }
    total = seen;
  }
  void add(const BucketCounts& o) {
    for (std::size_t i = 0; i < n.size(); ++i) n[i] += o.n[i];
    total += o.total;
  }
  // This minus an earlier snapshot of the same cumulative histogram.
  BucketCounts since(const BucketCounts& earlier) const {
    BucketCounts d;
    for (std::size_t i = 0; i < n.size(); ++i) d.n[i] = n[i] - earlier.n[i];
    d.total = total - earlier.total;
    return d;
  }

  // Quantile, interpolated linearly inside the containing bucket (whose
  // width is ~1.6% of its value). The library's value_at_quantile returns
  // the bucket's upper edge, which would report the same number for every
  // run that lands in one bucket.
  double quantile(double q) const {
    if (total == 0) return 0.0;
    const double target = q * static_cast<double>(total);
    double before = 0.0;
    for (std::uint32_t b = 0; b < n.size(); ++b) {
      if (n[b] == 0) continue;
      const double here = static_cast<double>(n[b]);
      if (before + here >= target) {
        const double hi =
            static_cast<double>(asl::Histogram::bucket_upper_edge(b));
        const double lo =
            b == 0 ? 0.0
                   : static_cast<double>(asl::Histogram::bucket_upper_edge(b - 1));
        return lo + (target - before) / here * (hi - lo);
      }
      before += here;
    }
    return static_cast<double>(asl::Histogram::bucket_upper_edge(
        static_cast<std::uint32_t>(n.size() - 1)));
  }
};

}  // namespace perfbench
