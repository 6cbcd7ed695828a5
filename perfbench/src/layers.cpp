// Substrate probes: each times a loop of calls into one module's public
// functions on this thread and reports the median per-call cost of several
// repetitions. None of them needs a workload's threads.
#include <sched.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "asl/libasl.h"
#include "asl/reclaim.h"
#include "db/engine.h"
#include "platform/affinity.h"
#include "platform/rng.h"
#include "sim/engine.h"
#include "workload/keydist.h"
#include "workload/open_loop.h"
#include "workloads.h"

namespace perfbench {

// Every probe folds its results in here, so no timed loop is dead code.
std::uint64_t g_sink = 0;

namespace {

constexpr int kReps = 5;
constexpr std::uint64_t kKeySpace = 32 * 1024;

// Median over kReps of (time of `body(n)`) / n, in ns per call.
template <typename Body>
double ns_per_call(std::uint64_t n, Body&& body) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const Nanos t0 = asl::now_ns();
    body(n);
    v.push_back(static_cast<double>(asl::now_ns() - t0) / static_cast<double>(n));
  }
  return median(v);
}

double now_ns_cost() {
  return ns_per_call(1 << 21, [](std::uint64_t n) {
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i) acc += asl::now_ns();
    g_sink += acc;
  });
}

// Uncontended lock + unlock through the LibASL dispatch, as a big and as a
// little core (the little path consults the epoch window first); the mean
// of the two.
template <typename Mutex>
double handover_cost() {
  Mutex m;
  double total = 0;
  for (asl::CoreType type : {asl::CoreType::kBig, asl::CoreType::kLittle}) {
    asl::ScopedCoreType scoped(type);
    total += ns_per_call(1 << 20, [&m](std::uint64_t n) {
      for (std::uint64_t i = 0; i < n; ++i) {
        m.lock();
        m.unlock();
      }
    });
  }
  return total / 2;
}

double epoch_pair_cost(asl::CoreType type) {
  asl::ScopedCoreType scoped(type);
  asl::EpochOptions opts;
  opts.default_slo_ns = 50 * asl::kNanosPerMicro;
  const int id =
      asl::EpochRegistry::instance().register_epoch("perfbench.probe", opts);
  return ns_per_call(1 << 20, [id](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      asl::epoch_start(id);
      asl::epoch_end(id, 50 * asl::kNanosPerMicro);
    }
  });
}

double reclaim_pin_cost() {
  asl::EpochReclaimer domain;
  return ns_per_call(1 << 21, [&domain](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      domain.pin();
      domain.unpin();
    }
  });
}

// Get and put cost of one engine, prefilled like the service's shards and
// driven with the workload's key distribution.
void engine_costs(const char* name, bool zipf, RunResult& out) {
  std::unique_ptr<asl::db::KvEngine> engine = asl::db::make_kv_engine(name);
  // KvService's prefill order: each range's midpoint before its halves, so
  // the mvcc tree comes up with logarithmic depth.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges{{0, kKeySpace}};
  while (!ranges.empty()) {
    const auto [lo, hi] = ranges.back();
    ranges.pop_back();
    const std::uint64_t mid = lo + (hi - lo) / 2;
    engine->put(mid, "prefill");
    if (mid > lo) ranges.emplace_back(lo, mid);
    if (mid + 1 < hi) ranges.emplace_back(mid + 1, hi);
  }
  const asl::workload::KeyDist keys =
      zipf ? asl::workload::KeyDist::zipfian(kKeySpace, 0.99)
           : asl::workload::KeyDist::uniform(kKeySpace);
  asl::Rng rng(0xD0B);
  std::vector<std::uint64_t> stream(1 << 16);
  for (std::uint64_t& k : stream) k = keys.next(rng);
  const std::string value = "v:123456789";
  const std::uint64_t n = 1 << 14;
  const double get_ns = ns_per_call(n, [&](std::uint64_t count) {
    std::uint64_t found = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      found += engine->get(stream[i & (stream.size() - 1)]).has_value();
    }
    g_sink += found;
  });
  const double put_ns = ns_per_call(n, [&](std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      engine->put(stream[i & (stream.size() - 1)], value);
    }
  });
  const std::string prefix = std::string("db.") + name;
  out.set(prefix + ".get_ns", get_ns, "ns");
  out.set(prefix + ".put_ns", put_ns, "ns");
}

// generate_trace for one second of kv_hash_zipf's open-loop get stream.
double trace_gen_seconds() {
  asl::server::LoadSpec spec;
  spec.arrivals = asl::workload::ArrivalProcess::poisson(15'000.0);
  spec.keys = asl::workload::KeyDist::zipfian(kKeySpace, 0.99);
  spec.put_fraction = 0.0;
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const Nanos t0 = asl::now_ns();
    g_sink += asl::server::generate_trace(spec, asl::kNanosPerSec).size();
    v.push_back(static_cast<double>(asl::now_ns() - t0) / 1e9);
  }
  return median(v);
}

// sim::Engine at + step with ~2k events pending: every executed event
// schedules one successor, so the heap size stays constant. The closure is
// one pointer, as small as a simulator event's usually is.
double sim_event_cost() {
  struct Ctx {
    asl::sim::Engine engine;
    asl::Rng rng{7};
    std::uint64_t fired = 0;
    std::function<void()> tick;
  };
  return ns_per_call(1 << 20, [](std::uint64_t n) {
    Ctx c;
    Ctx* p = &c;
    c.tick = [p] {
      p->fired += 1;
      p->engine.after(1 + p->rng.below(4096), p->tick);
    };
    for (int i = 0; i < 2048; ++i) c.engine.at(c.rng.below(4096), c.tick);
    for (std::uint64_t i = 0; i < n; ++i) c.engine.step();
    g_sink += c.fired;
  });
}

}  // namespace

RunResult substrate_layers() {
  RunResult out;
  out.set("platform.now_ns_ns", now_ns_cost(), "ns");
  out.set("locks.mcs_handover_ns", handover_cost<asl::AslMutex<asl::McsLock>>(),
          "ns");
  out.set("locks.blocking_handover_ns", handover_cost<asl::BlockingAslMutex>(),
          "ns");
  out.set("asl.epoch_pair_ns.big", epoch_pair_cost(asl::CoreType::kBig), "ns");
  out.set("asl.epoch_pair_ns.little", epoch_pair_cost(asl::CoreType::kLittle),
          "ns");
  out.set("asl.reclaim_pin_ns", reclaim_pin_cost(), "ns");
 engine_costs("hash", true, out);
 engine_costs("mvcc", false, out);
  out.set("workload.trace_gen_s", trace_gen_seconds(), "s");
  out.set("sim.engine_event_ns", sim_event_cost(), "ns");
  return out;
}

double deschedule_gaps_per_s(double seconds, double* longest_us) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  asl::pin_to_cpu(asl::online_cpus() - 1);
  const Nanos gap = 20 * asl::kNanosPerMicro;
  const Nanos t0 = asl::now_ns();
  const Nanos end = t0 + static_cast<Nanos>(seconds * 1e9);
  Nanos prev = t0, longest = 0;
  std::uint64_t gaps = 0;
  for (Nanos t = asl::now_ns(); t < end; t = asl::now_ns()) {
    if (t - prev > gap) {
      gaps += 1;
      if (t - prev > longest) longest = t - prev;
    }
    prev = t;
  }
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
  if (longest_us != nullptr) *longest_us = static_cast<double>(longest) / 1e3;
  return static_cast<double>(gaps) / seconds_between(t0, prev);
}

}  // namespace perfbench
