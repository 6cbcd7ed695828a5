// Shared helpers for the KV service benches (kv_capacity, kv_batch_sweep,
// kv_engine_sweep, kv_scenarios): rate-scaled scenario construction, the
// twin's absorbed-throughput rule, the per-class capacity search over a
// deterministic twin oracle (memoized per trial rate), and the per-class
// measured-report tables both the real and engine-sweep benches print. Lives
// beside the benches rather than in bench_common.h so the pure figure benches
// never pull in the server layer.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/capacity_probe.h"
#include "server/scenarios.h"
#include "server/sim_kv_service.h"
#include "workload/open_loop.h"

namespace asl::bench {

// `base` with every stream scaled so the combined nominal offered rate is
// `rate` req/s — the one trial-construction rule every capacity probe and
// sweep shares, so "offered rate r" means the same thing in each of them.
inline server::KvScenario at_rate(const server::KvScenario& base,
                                  double rate) {
  server::KvScenario sc = base;
  server::scale_load_rates(
      sc.load, rate / server::nominal_rate_per_sec(base.load));
  return sc;
}

// Sustained absorbed rate of a twin run: completions per second of *arrival
// window*. The horizon, not drained_at, is the denominator — at fixed
// offered load the service that completes more of it has the higher
// throughput, and the post-horizon drain tail (one final large batch chewing
// on a little core while the big core idles) does not punish the very
// batching that created it.
inline std::uint64_t tput_per_sec(const server::SimServiceReport& r) {
  return r.horizon == 0 ? 0
                        : r.total_completed() * kNanosPerSec / r.horizon;
}

// The probe configuration the twin searches share: start at the scenario's
// nominal rate, double to bracket, narrow to 10%.
inline CapacityProbeConfig twin_probe_config(const server::KvScenario& base,
                                             std::uint32_t max_trials = 24) {
  CapacityProbeConfig cfg;
  cfg.start_rate = server::nominal_rate_per_sec(base.load);
  cfg.growth = 2.0;
  cfg.tolerance = 0.1;
  cfg.max_trials = max_trials;
  return cfg;
}

// The real path's per-class measured table (offered/accepted/rejected/
// completed, SLO attainment, wall-clock latency split) — shared by the
// kv_* scenario family and the engine sweep's real smoke so the column
// convention cannot drift between them.
inline Table kv_measured_table(const server::ServiceReport& report) {
  Table measured({"class", "slo_us", "offered_ops", "accepted", "rejected",
                  "completed", "attain_pct", "p50_us", "p99_big_us",
                  "p99_little_us", "qwait_p99_us"});
  for (const server::ClassReport& c : report.classes) {
    measured.add_row(
        {c.name, std::to_string(c.slo_ns / kNanosPerMicro),
         std::to_string(c.accepted + c.rejected), std::to_string(c.accepted),
         std::to_string(c.rejected), std::to_string(c.completed),
         Table::fmt(100.0 * c.attainment(), 1),
         Table::fmt_ns_as_us(c.total.overall().p50()),
         Table::fmt_ns_as_us(c.total.p99_big()),
         Table::fmt_ns_as_us(c.total.p99_little()),
         Table::fmt_ns_as_us(c.queue_wait.p99())});
  }
  return measured;
}

// The config's class names in class-index order — the order
// find_capacity_per_class reports its results in.
inline std::vector<std::string> class_names(
    const server::KvServiceConfig& config) {
  std::vector<std::string> names;
  names.reserve(config.classes.size());
  for (const server::RequestClass& c : config.classes) {
    names.push_back(c.name);
  }
  return names;
}

// Runs one capacity search per class of `service`, judging class c at rate
// r by class_meets_slo on its slice of report_at(r). The per-class searches
// share growth/tolerance/start, so their trial-rate ladders largely
// coincide — the (deterministic) twin report is memoized per distinct rate
// and each full simulation runs once, not once per class. Synchronous: the
// cache lives on this frame.
inline std::vector<ClassCapacity> find_class_capacities_memoized(
    const CapacityProbeConfig& config,
    const server::KvServiceConfig& service,
    const std::function<server::SimServiceReport(double)>& report_at) {
  std::map<double, server::SimServiceReport> cache;
  return find_capacity_per_class(
      config, class_names(service),
      [&cache, &report_at](std::size_t class_index, double rate) {
        auto it = cache.find(rate);
        if (it == cache.end()) {
          it = cache.emplace(rate, report_at(rate)).first;
        }
        return server::class_meets_slo(
            it->second.service.classes[class_index]);
      });
}

}  // namespace asl::bench
