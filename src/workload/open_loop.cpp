#include "workload/open_loop.h"

#include <atomic>
#include <string>
#include <thread>

namespace asl::server {

std::vector<TracePoint> generate_trace(const LoadSpec& spec, Nanos horizon) {
  // Copies of the process and a fresh Rng make this a pure function of
  // (spec, horizon); the draw order (gap, key, op) is part of the contract.
  workload::ArrivalProcess arrivals = spec.arrivals;
  Rng rng(spec.seed);
  std::vector<TracePoint> trace;
  Nanos t = 0;
  for (;;) {
    t += arrivals.next_gap(rng);
    if (t >= horizon) break;
    TracePoint point;
    point.at = t;
    point.key = spec.keys.next(rng);
    point.is_put = rng.chance(spec.put_fraction);
    trace.push_back(point);
  }
  return trace;
}

Table offered_trace_table(const std::vector<LoadSpec>& specs, Nanos horizon,
                          std::uint32_t buckets) {
  if (buckets < 1) buckets = 1;
  Table table({"class", "bucket", "arrivals", "puts", "key_xor"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::vector<std::uint64_t> arrivals(buckets, 0);
    std::vector<std::uint64_t> puts(buckets, 0);
    std::vector<std::uint64_t> key_xor(buckets, 0);
    for (const TracePoint& p : generate_trace(specs[i], horizon)) {
      const std::uint32_t b = static_cast<std::uint32_t>(
          static_cast<unsigned __int128>(p.at) * buckets / horizon);
      arrivals[b] += 1;
      puts[b] += p.is_put ? 1 : 0;
      key_xor[b] ^= p.key;
    }
    for (std::uint32_t b = 0; b < buckets; ++b) {
      table.add_row({std::to_string(specs[i].class_index), std::to_string(b),
                     std::to_string(arrivals[b]), std::to_string(puts[b]),
                     std::to_string(key_xor[b])});
    }
  }
  return table;
}

OpenLoopResult run_open_loop(KvService& service,
                             const std::vector<LoadSpec>& specs,
                             Nanos horizon) {
  // Pre-generate every schedule so the replay loop does no RNG work and the
  // offered load matches offered_trace_table() arrival-for-arrival. A spec
  // aimed at a class the service does not have is a configuration bug;
  // offering it anyway would desync the generator's rejected count from the
  // service's per-class accounting, so such a spec offers nothing.
  std::vector<std::vector<TracePoint>> traces;
  traces.reserve(specs.size());
  for (const LoadSpec& spec : specs) {
    traces.push_back(spec.class_index < service.num_classes()
                         ? generate_trace(spec, horizon)
                         : std::vector<TracePoint>{});
  }

  std::atomic<std::uint64_t> accepted{0}, rejected{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint32_t> ready{0};
  std::vector<std::thread> generators;
  generators.reserve(specs.size());
  const std::uint32_t n = static_cast<std::uint32_t>(specs.size());

  Nanos start = 0;  // written before go is released, read after
  for (std::uint32_t i = 0; i < n; ++i) {
    generators.emplace_back([&, i] {
      const LoadSpec& spec = specs[i];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (const TracePoint& p : traces[i]) {
        const Nanos target = start + p.at;
        const Nanos now = now_ns();
        if (now < target) {
          // Coarse sleep, then spin the last stretch: submission instants
          // stay close to the schedule without burning a core per stream.
          if (target - now > 60 * kNanosPerMicro) {
            sleep_ns(target - now - 50 * kNanosPerMicro);
          }
          spin_until(target);
        }
        const bool ok = service.try_submit(
            p.is_put ? OpType::kPut : OpType::kGet, p.key, spec.class_index);
        (ok ? accepted : rejected).fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  while (ready.load(std::memory_order_acquire) != n) {
  }
  start = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : generators) t.join();

  OpenLoopResult result;
  for (const auto& trace : traces) result.offered += trace.size();
  result.accepted = accepted.load(std::memory_order_relaxed);
  result.rejected = rejected.load(std::memory_order_relaxed);
  result.elapsed = now_ns() - start;
  result.released_at = start;
  return result;
}

}  // namespace asl::server
