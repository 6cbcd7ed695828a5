// Statistics substrate tests: histogram vs exact-percentile oracle
// (parameterized over distributions), CDF, merge, time series, table
// rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "platform/rng.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/table.h"
#include "stats/timeseries.h"

namespace asl {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 12345u);
  EXPECT_EQ(h.min(), 12345u);
  // Quantile returns the bucket's upper edge clamped to max.
  EXPECT_EQ(h.p99(), 12345u);
  EXPECT_EQ(h.value_at_quantile(0.0), 12345u);
}

TEST(Histogram, SmallValuesAreExact) {
  // Octave 0 buckets are width-1: values < kSubBuckets report exactly.
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::bucket_upper_edge(Histogram::bucket_index(v)), v);
  }
}

TEST(Histogram, BucketIndexMonotone) {
  std::uint32_t prev = 0;
  for (std::uint64_t v = 1; v < (1ULL << 30); v = v * 3 / 2 + 1) {
    const std::uint32_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(Histogram, BucketRelativeErrorBounded) {
  // The reported value (bucket upper edge) overestimates by < 1/kSubBuckets.
  for (std::uint64_t v = 100; v < (1ULL << 40); v *= 7) {
    const std::uint64_t edge =
        Histogram::bucket_upper_edge(Histogram::bucket_index(v));
    EXPECT_GE(edge, v);
    EXPECT_LE(static_cast<double>(edge - v) / static_cast<double>(v),
              2.0 / Histogram::kSubBuckets);
  }
}

TEST(Histogram, RecordNMatchesRepeatedRecord) {
  Histogram a, b;
  a.record_n(777, 5);
  for (int i = 0; i < 5; ++i) b.record(777);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.p99(), b.p99());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(Histogram, MergeCombinesCountsAndExtremes) {
  Histogram a, b;
  a.record(10);
  b.record(1000000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(Histogram, SingleValueIsExactAtEveryQuantile) {
  // The documented single-sample contract (histogram.h): the containing
  // bucket's upper edge is >= v and the max clamp pulls every quantile back
  // to exactly v — including a value far above the width-1 octave.
  for (std::uint64_t v : {1ULL, 63ULL, 12345ULL, 987654321ULL}) {
    Histogram h;
    h.record(v);
    for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(h.value_at_quantile(q), v) << "v=" << v << " q=" << q;
    }
  }
}

TEST(Histogram, MergeMatchesSingleCombinedHistogram) {
  // The documented merge contract (histogram.h): merging per-worker
  // histograms is *exact* — identical to recording both observation streams
  // into one histogram. Checked against that oracle across the full summary
  // surface, not just count/extremes.
  Histogram a, b, combined;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.below(1ULL << 22) + 1;
    if (i % 3 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.value_at_quantile(q), combined.value_at_quantile(q))
        << "q=" << q;
  }
  const auto cdf_a = a.cdf();
  const auto cdf_c = combined.cdf();
  ASSERT_EQ(cdf_a.size(), cdf_c.size());
  for (std::size_t i = 0; i < cdf_a.size(); ++i) {
    EXPECT_EQ(cdf_a[i].value, cdf_c[i].value);
    EXPECT_DOUBLE_EQ(cdf_a[i].cumulative, cdf_c[i].cumulative);
  }
}

TEST(Histogram, MergeWithEmptyIsIdentity) {
  Histogram a, empty;
  a.record(500);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.p99(), 500u);
  // Merging into an empty histogram adopts the other's extremes (the ~0
  // min sentinel must not leak through).
  Histogram c;
  c.merge(a);
  EXPECT_EQ(c.count(), 1u);
  EXPECT_EQ(c.min(), 500u);
  EXPECT_EQ(c.max(), 500u);
}

TEST(Histogram, QuantileFromBucketCountsMatchesUnclampedWalk) {
  // The static kernel (telemetry's windowed-p99 path) on a hand-built
  // bucket array: zero total is 0 for every q, and a populated array
  // reports the nearest-rank bucket's upper edge with no max clamp.
  std::vector<std::uint64_t> buckets(Histogram::kNumBuckets, 0);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(Histogram::quantile_from_bucket_counts(buckets.data(), 0, q),
              0u);
  }
  // 90 observations of ~100, 10 of ~200000: p50 sits in the low bucket,
  // p99 in the high one.
  const std::uint32_t lo = Histogram::bucket_index(100);
  const std::uint32_t hi = Histogram::bucket_index(200000);
  buckets[lo] = 90;
  buckets[hi] = 10;
  EXPECT_EQ(Histogram::quantile_from_bucket_counts(buckets.data(), 100, 0.5),
            Histogram::bucket_upper_edge(lo));
  EXPECT_EQ(Histogram::quantile_from_bucket_counts(buckets.data(), 100, 0.99),
            Histogram::bucket_upper_edge(hi));
  // Consistency with the member walk: the kernel on a histogram's own
  // buckets is value_at_quantile without the observed-max clamp, so the
  // two agree exactly whenever the quantile lands below the max's bucket.
  Histogram h;
  h.record_n(100, 90);
  h.record_n(200000, 10);
  EXPECT_EQ(h.value_at_quantile(0.5),
            Histogram::quantile_from_bucket_counts(buckets.data(), 100, 0.5));
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, CdfIsMonotoneAndEndsAtOne) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.record(rng.below(1 << 20));
  auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0;
  std::uint64_t prev_v = 0;
  for (const auto& p : cdf) {
    EXPECT_GE(p.cumulative, prev);
    EXPECT_GE(p.value, prev_v);
    prev = p.cumulative;
    prev_v = p.value;
  }
  EXPECT_DOUBLE_EQ(cdf.back().cumulative, 1.0);
}

// Parameterized distribution sweep: histogram P50/P99/P999 must agree with
// the exact oracle within the bucket quantization error.
struct DistroCase {
  const char* name;
  std::uint64_t (*draw)(Rng&);
};

std::uint64_t draw_uniform(Rng& rng) { return rng.below(1'000'000); }
std::uint64_t draw_exponentialish(Rng& rng) {
  return static_cast<std::uint64_t>(-std::log(1.0 - rng.uniform()) * 50'000.0);
}
std::uint64_t draw_bimodal(Rng& rng) {
  return rng.chance(0.9) ? rng.below(10'000) : 1'000'000 + rng.below(100'000);
}
std::uint64_t draw_constant(Rng&) { return 77'777; }
std::uint64_t draw_heavy_tail(Rng& rng) {
  const double u = rng.uniform();
  return static_cast<std::uint64_t>(1000.0 / std::pow(1.0 - u, 1.5));
}

class HistogramDistro : public ::testing::TestWithParam<DistroCase> {};

TEST_P(HistogramDistro, MatchesExactOracle) {
  const DistroCase& c = GetParam();
  Histogram h;
  ExactSample exact;
  Rng rng(99);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = c.draw(rng);
    h.record(v);
    exact.record(v);
  }
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto approx = static_cast<double>(h.value_at_quantile(q));
    const auto truth = static_cast<double>(exact.value_at_quantile(q));
    // Allow bucket quantization (~1.6%) plus rank-vs-edge slack.
    EXPECT_LE(std::abs(approx - truth), truth * 0.05 + 2.0)
        << c.name << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, HistogramDistro,
    ::testing::Values(DistroCase{"uniform", draw_uniform},
                      DistroCase{"exponential", draw_exponentialish},
                      DistroCase{"bimodal", draw_bimodal},
                      DistroCase{"constant", draw_constant},
                      DistroCase{"heavy_tail", draw_heavy_tail}),
    [](const ::testing::TestParamInfo<DistroCase>& info) {
      return info.param.name;
    });

TEST(ExactSample, NearestRankDefinition) {
  ExactSample s;
  for (std::uint64_t v = 1; v <= 100; ++v) s.record(v);
  EXPECT_EQ(s.value_at_quantile(0.50), 50u);
  EXPECT_EQ(s.value_at_quantile(0.99), 99u);
  EXPECT_EQ(s.value_at_quantile(1.0), 100u);
  EXPECT_EQ(s.value_at_quantile(0.0), 1u);
}

TEST(ExactSample, EdgeContractMatchesHistogram) {
  // percentile.h's documented edge contract, pinned against the histogram's:
  // empty -> 0 for every q, single sample -> exactly that sample for every q.
  ExactSample empty;
  Histogram empty_h;
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(empty.value_at_quantile(q), 0u);
    EXPECT_EQ(empty.value_at_quantile(q), empty_h.value_at_quantile(q));
  }
  ExactSample one;
  Histogram one_h;
  one.record(98765);
  one_h.record(98765);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.value_at_quantile(q), 98765u);
    EXPECT_EQ(one.value_at_quantile(q), one_h.value_at_quantile(q));
  }
}

TEST(TimeSeries, RecordsInOrder) {
  TimeSeries ts;
  ts.record(1, 10);
  ts.record(2, 20);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.points()[0].t, 1u);
  EXPECT_EQ(ts.points()[1].v, 20u);
}

TEST(TimeSeries, DownsampleKeepsSpikes) {
  TimeSeries ts;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ts.record(i, i == 500 ? 999999u : 10u);
  }
  TimeSeries down = ts.downsample_keep_max(50);
  EXPECT_LE(down.size(), 51u);
  bool found_spike = false;
  for (const auto& p : down.points()) found_spike |= p.v == 999999u;
  EXPECT_TRUE(found_spike);
}

TEST(TimeSeries, MaxInWindow) {
  TimeSeries ts;
  ts.record(10, 5);
  ts.record(20, 50);
  ts.record(30, 7);
  EXPECT_EQ(ts.max_in(0, 15), 5u);
  EXPECT_EQ(ts.max_in(0, 25), 50u);
  EXPECT_EQ(ts.max_in(25, 40), 7u);
  EXPECT_EQ(ts.max_in(40, 50), 0u);
}

TEST(Table, AlignedOutputContainsHeadersAndCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b,c\nonly,,\n");
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(1.234, 2), "1.23");
  EXPECT_EQ(Table::fmt_ns_as_us(1500, 1), "1.5");
  EXPECT_EQ(Table::fmt_ops(2.5e6), "2.5e+06");
}

}  // namespace
}  // namespace asl
