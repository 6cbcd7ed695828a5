// lock_bench1 — the paper's Bench-1 on real threads: one big and two little
// threads (declared through ScopedCoreType, pinned to distinct CPUs) run
// epochs of four critical sections over two AslMutex<McsLock>s. Only the
// locks/, reorder/ and asl/ layers do work here.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "asl/libasl.h"
#include "platform/affinity.h"
#include "platform/cacheline.h"
#include "workload/cs_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using asl::CoreType;
using asl::SpeedFactors;

constexpr std::uint32_t kThreads = 3;  // thread 0 big, the rest little
constexpr Nanos kSlo = 50 * asl::kNanosPerMicro;
constexpr std::size_t kRegionLines = 32;  // per lock: 64 lines in total
constexpr std::uint64_t kCsReps = 2;      // big-core reps; little scales
constexpr std::uint64_t kGapNops = 60;    // between sections
constexpr std::uint64_t kEpochGapNops = 250;
constexpr int kSetups = 201;              // set-ups timed per run
constexpr double kWindowSeconds = 0.25;   // throughput sampling window

struct Section {
  std::uint32_t lock;
  std::size_t lines;
};
constexpr Section kSections[4] = {{0, 8}, {1, 16}, {0, 24}, {1, 16}};

struct alignas(asl::kCacheLine) GuardedRegion {
  asl::AslMutex<asl::McsLock> lock;
  asl::SharedRegion region{kRegionLines};
  // Traced runs: acquisitions, counted under the lock on a line of its own.
  alignas(asl::kCacheLine) std::uint64_t acquired = 0;
};

struct alignas(asl::kCacheLine) ThreadOut {
  // Every epoch, warm-up included. Written by its thread only; the main
  // thread samples it for per-window throughput.
  std::atomic<std::uint64_t> all_epochs{0};
  std::uint64_t epochs = 0;  // measured epochs
  std::uint64_t slo_met = 0;
  std::uint64_t expected[2] = {0, 0};  // line increments per region
  // Measured epoch latency (ns), double-buffered by window parity: the
  // thread records window w into latency[w % 2] and announces in `moved_to`
  // each window it starts; the main thread then reads and resets the
  // previous window's buffer. The benchmark's memory stays the same
  // whatever the run length.
  asl::Histogram latency[2];
  std::atomic<std::uint32_t> moved_to{0};
  asl::Histogram wait;     // traced: lock() wait, ns
  asl::Histogram hold;     // traced: lock return -> unlock, ns
};

struct Shared {
  GuardedRegion regions[2];
  std::atomic<std::uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> measuring{false};
  std::atomic<std::uint32_t> window{0};  // current measurement window
  std::atomic<bool> stop{false};
};

void worker(Shared& sh, ThreadOut& out, std::uint32_t index, int epoch_id,
            bool traced) {
  asl::pin_to_cpu_wrapped(index);
  const CoreType type = index == 0 ? CoreType::kBig : CoreType::kLittle;
  const SpeedFactors speed =
      type == CoreType::kBig ? SpeedFactors::big() : SpeedFactors::little();
  asl::ScopedCoreType scoped(type);
  const std::uint64_t reps = speed.scale_cs(kCsReps);
  const std::uint64_t gap = speed.scale_ncs(kGapNops);
  const std::uint64_t epoch_gap = speed.scale_ncs(kEpochGapNops);
  sh.ready.fetch_add(1, std::memory_order_acq_rel);
  // Yielding waits: a spinner would hold its CPU for a whole scheduler tick
  // against the main thread when both land on one CPU.
  while (!sh.go.load(std::memory_order_acquire)) std::this_thread::yield();
  std::uint64_t n = 0;
  std::uint32_t window = 0;  // the latest window this thread has seen
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const bool measured = sh.measuring.load(std::memory_order_relaxed);
    const std::size_t first = (n * 7) % kRegionLines;
    const Nanos t0 = asl::now_ns();
    asl::epoch_start(epoch_id);
    for (const Section& s : kSections) {
      GuardedRegion& g = sh.regions[s.lock];
      if (traced) {
        const Nanos r = asl::now_ns();
        g.lock.lock();
        const Nanos a = asl::now_ns();
        g.acquired += 1;
        g.region.rmw(first, s.lines, reps);
        const Nanos u = asl::now_ns();
        g.lock.unlock();
        if (measured) {
          out.wait.record(a - r);
          out.hold.record(u - a);
        }
      } else {
        g.lock.lock();
        g.region.rmw(first, s.lines, reps);
        g.lock.unlock();
      }
      out.expected[s.lock] += s.lines * reps;
      asl::spin_nops(gap);
    }
    const Nanos t1 = asl::now_ns();
    asl::epoch_end(epoch_id, kSlo);
    if (measured) {
      out.epochs += 1;
      if (t1 - t0 <= kSlo) out.slo_met += 1;
      const std::uint32_t w = sh.window.load(std::memory_order_acquire);
      if (w != window) {
        window = w;
        out.moved_to.store(w, std::memory_order_release);
      }
      out.latency[window % 2].record(t1 - t0);
    }
    out.all_epochs.store(out.all_epochs.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    n += 1;
    asl::spin_nops(epoch_gap);
  }
}

struct Bench1Run {
  Nanos setup = 0;  // state construction + thread spawn until ready
  std::vector<ThreadOut> out = std::vector<ThreadOut>(kThreads);
  std::vector<double> window_rates;  // epochs per second, per window
  std::vector<double> p50s, p99s;    // epoch latency (ns), per window
  std::uint64_t latency_samples = 0;
  std::uint64_t region_sum[2] = {0, 0};
  std::uint64_t acquired = 0;  // traced runs: counted under the locks
  std::uint64_t completions_delta = 0;
  double window_mean_ns = 0;
};

int bench1_epoch() {
  asl::EpochOptions opts;
  opts.default_slo_ns = kSlo;
  asl::seed_config_for_slo(opts.controller, kSlo);
  return asl::EpochRegistry::instance().register_epoch("perfbench.bench1",
                                                       opts);
}

std::uint64_t epochs_so_far(const Bench1Run& run) {
  std::uint64_t n = 0;
  for (const ThreadOut& o : run.out) {
    n += o.all_epochs.load(std::memory_order_relaxed);
  }
  return n;
}

// Takes window w's latency percentiles over all threads and resets its
// buffers for window w + 2. Runs once every thread has moved past w.
void fold_window(Bench1Run& run, int w) {
  BucketCounts lat;
  for (ThreadOut& o : run.out) {
    lat.add(BucketCounts(o.latency[w % 2]));
    o.latency[w % 2].reset();
  }
  run.p50s.push_back(lat.quantile(0.50));
  run.p99s.push_back(lat.quantile(0.99));
  run.latency_samples += lat.total;
}

// One run: warm-up, then `seconds` measured in windows. seconds == 0 only
// times the set-up (spawn until every thread is ready) and stops the
// threads at once.
std::unique_ptr<Bench1Run> run_bench1(double seconds, bool traced) {
  const int epoch_id = bench1_epoch();
  auto run = std::make_unique<Bench1Run>();
  const std::uint64_t completions_before =
      asl::EpochRegistry::instance().completions(epoch_id);

  const int windows =
      std::max(1, static_cast<int>(seconds / kWindowSeconds + 0.5));
  run->window_rates.reserve(windows);
  run->p50s.reserve(windows);
  run->p99s.reserve(windows);

  const Nanos t_setup = asl::now_ns();
  auto sh = std::make_unique<Shared>();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(worker, std::ref(*sh), std::ref(run->out[i]), i,
                         epoch_id, traced);
  }
  while (sh->ready.load(std::memory_order_acquire) != kThreads) {
    std::this_thread::yield();
  }
  run->setup = asl::now_ns() - t_setup;

  if (seconds <= 0) sh->stop.store(true);
  sh->go.store(true, std::memory_order_release);
  if (seconds > 0) {
    // Warm-up: the AIMD windows settle within a few thousand epochs.
    asl::sleep_ns(static_cast<Nanos>(std::min(0.5, seconds * 0.1) * 1e9));
    sh->measuring.store(true, std::memory_order_relaxed);
    Nanos t = asl::now_ns();
    std::uint64_t count = epochs_so_far(*run);
    for (int w = 0; w < windows; ++w) {
      asl::sleep_ns(static_cast<Nanos>(kWindowSeconds * 1e9));
      const Nanos t1 = asl::now_ns();
      const std::uint64_t c1 = epochs_so_far(*run);
      run->window_rates.push_back(static_cast<double>(c1 - count) /
                                  seconds_between(t, t1));
      t = t1;
      count = c1;
      if (w + 1 < windows) {
        const auto next = static_cast<std::uint32_t>(w + 1);
        sh->window.store(next, std::memory_order_release);
        for (const ThreadOut& o : run->out) {
          while (o.moved_to.load(std::memory_order_acquire) < next) {
            std::this_thread::yield();
          }
        }
        fold_window(*run, w);
      }
    }
    sh->measuring.store(false, std::memory_order_relaxed);
    // Windows are aggregated over live threads only: read before the stop.
    for (const asl::EpochSnapshot& s :
         asl::EpochRegistry::instance().snapshot()) {
      if (s.id == epoch_id) run->window_mean_ns = s.window_mean;
    }
    sh->stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread& th : threads) th.join();
  if (seconds > 0) fold_window(*run, windows - 1);
  run->completions_delta =
      asl::EpochRegistry::instance().completions(epoch_id) - completions_before;
  for (std::uint32_t r = 0; r < 2; ++r) {
    run->acquired += sh->regions[r].acquired;
    for (std::size_t i = 0; i < kRegionLines; ++i) {
      run->region_sum[r] += sh->regions[r].region.line_value(i);
    }
  }
  return run;
}

// The correctness check: no line update was lost under the locks, and every
// epoch ended exactly once in the registry.
void check_bench1(const Bench1Run& run, RunResult& result) {
  std::uint64_t expected[2] = {0, 0};
  for (const ThreadOut& o : run.out) {
    expected[0] += o.expected[0];
    expected[1] += o.expected[1];
  }
  result.check(run.region_sum[0] == expected[0] &&
                   run.region_sum[1] == expected[1],
               "lock_bench1: shared-region line sums differ from epochs x "
               "lines x reps");
  result.check(run.completions_delta == epochs_so_far(run),
               "lock_bench1: registry completions differ from epochs run");
}

double setup_median(Nanos last_setup) {
  // Thread spawn is short and noisy: take the median of several set-ups.
  std::vector<double> s{static_cast<double>(last_setup) / 1e9};
  for (int i = 1; i < kSetups; ++i) {
    s.push_back(static_cast<double>(run_bench1(0, false)->setup) / 1e9);
  }
  return median(s);
}

std::uint64_t measured_epochs(const Bench1Run& run) {
  std::uint64_t n = 0;
  for (const ThreadOut& o : run.out) n += o.epochs;
  return n;
}

}  // namespace

RunResult run_lock_bench1(const Options& opt) {
  RunResult result;
  const std::unique_ptr<Bench1Run> run = run_bench1(opt.seconds, false);
  check_bench1(*run, result);
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::uint64_t little_epochs = 0, little_met = 0;
  for (std::uint32_t i = 1; i < kThreads; ++i) {
    little_epochs += run->out[i].epochs;
    little_met += run->out[i].slo_met;
  }
  const std::uint64_t epochs = measured_epochs(*run);
  result.attempted = epochs;
  result.failed = result.correct ? 0 : epochs;
  result.set("throughput_ops_s", median(run->window_rates), "1/s");

  // Latency percentiles are medians over windows, like kv_*'s.
  result.set("latency_p50_us", median(run->p50s) / 1e3, "us");
  result.extras.push_back({"latency_p99_us", median(run->p99s) / 1e3, "us"});
  result.set("slo_attainment",
             little_epochs == 0 ? 0.0
                                : static_cast<double>(little_met) /
                                      static_cast<double>(little_epochs),
             "frac");
  result.set("setup_s", setup_median(run->setup), "s");
  result.extras.push_back(
      {"latency_samples", static_cast<double>(run->latency_samples),
       "count"});
  return result;
}

RunResult trace_lock_bench1(double seconds) {
  RunResult result;
  const std::unique_ptr<Bench1Run> base = run_bench1(seconds / 2, false);
  const std::unique_ptr<Bench1Run> run = run_bench1(seconds / 2, true);
  check_bench1(*base, result);
  check_bench1(*run, result);

  BucketCounts wait_little, hold;
  for (std::uint32_t i = 0; i < kThreads; ++i) {
    const ThreadOut& o = run->out[i];
    if (i > 0) wait_little.add(BucketCounts(o.wait));
    hold.add(BucketCounts(o.hold));
  }
  const BucketCounts wait_big(run->out[0].wait);
  const std::uint64_t epochs = measured_epochs(*run);
  // Acquisitions counted under the locks against epochs counted by the
  // registry, both over the whole traced run.
  result.check(run->acquired == 4 * run->completions_delta,
               "lock_bench1: lock acquisitions differ from 4 x registry "
               "completions");
  result.attempted = epochs;
  result.failed = result.correct ? 0 : epochs;
  result.set("locks.wait_big_ns.p50", wait_big.quantile(0.50), "ns");
  result.set("locks.wait_big_ns.p99", wait_big.quantile(0.99), "ns");
  result.set("locks.wait_little_ns.p50", wait_little.quantile(0.50), "ns");
  result.set("locks.wait_little_ns.p99", wait_little.quantile(0.99), "ns");
  result.set("locks.hold_ns.p50", hold.quantile(0.50), "ns");
  result.set("locks.acquires", static_cast<double>(run->acquired), "count");
  result.set("asl.window_mean_us", run->window_mean_ns / 1e3, "us");
  result.set("asl.epoch_completions",
             static_cast<double>(run->completions_delta), "count");
  const double base_tp = median(base->window_rates);
  const double traced_tp = median(run->window_rates);
  result.set("bench.trace_overhead_frac",
             base_tp > 0 ? 1.0 - traced_tp / base_tp : 0.0, "frac");
  result.set("failed_frac", result.correct ? 0.0 : 1.0, "frac");
  return result;
}

}  // namespace perfbench
