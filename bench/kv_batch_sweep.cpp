// Batch + shed sweep (DESIGN.md §6): the measured case for request batching
// on the shard queue and class-aware load shedding.
//
//   * kv_batch_sweep_twin — the sweep on the simulated twin: batch_k in
//     {1,2,4,8,16} x {shed off, shed on} at one fixed offered overload.
//     Virtual time makes the two headline claims assertable facts:
//     throughput is monotone non-decreasing in batch_k at fixed offered
//     load, and with shedding on the loose class absorbs the rejections
//     while the tight class's p99 improves over the unshedded run. A
//     per-class capacity probe (find_capacity_per_class) then reports how
//     much offered load each class can absorb at batch_k 1 vs 8.
//   * kv_batch_sweep_real — the same sweep on the wall-clock service in
//     smoke mode: coarse rates, accounting-only shape checks (shed counts
//     land in the right class, conservation holds), since wall-clock
//     latency on a shared runner is not assertable.
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/capacity_probe.h"
#include "kv_probe_common.h"
#include "server/sim_kv_service.h"
#include "workload/open_loop.h"

namespace asl::bench {
namespace {

using server::AdmissionPolicy;
using server::ClassReport;
using server::KvScenario;
using server::KvService;
using server::SimServiceReport;

// The sweep's base configuration: the kv_batch_shed scenario (uniform keys,
// steady Poisson, tight gets + sheddable loose puts) under the shared
// heavy-cost overload profile (scenarios.h make_overloaded_kv_scenario —
// the same profile the TwinShapes tests assert on and the golden CSV pins),
// with the batch/shed knobs overridden per sweep cell.
KvScenario sweep_scenario(std::uint32_t batch_k, bool shed,
                          double rate_scale, Nanos horizon) {
  KvScenario sc =
      server::make_overloaded_kv_scenario("kv_batch_shed", rate_scale,
                                          horizon);
  sc.service.batch_k = batch_k;
  if (!shed) sc.service.classes[1].admission = AdmissionPolicy{};
  return sc;
}

void run_batch_sweep_twin(ScenarioContext& ctx) {
  const Nanos horizon = 20 * kNanosPerMilli;
  // 8x the nominal rate: comfortably past saturation for the heavy-cost
  // profile, so both backpressure regimes (shed vs full-queue) are active.
  const double overload = 8.0;
  const std::vector<std::uint32_t> batch_ks = {1, 2, 4, 8, 16};

  ctx.banner("kv_batch_sweep_twin",
             "batch_k x shed sweep on the simulated twin (deterministic)");
  ctx.note("offered load fixed at " + Table::fmt(overload, 1) +
           "x nominal; tight class kv-get (1 ms SLO, protected), loose "
           "class kv-put (4 ms SLO, sheds at half queue depth)");

  Table sweep({"batch_k", "shed_on", "offered", "accepted", "rejected",
               "shed", "completed", "tput_per_sec", "get_p99_ns",
               "put_p99_ns", "get_rejected", "put_rejected"});
  bool monotone = true;
  bool conserved = true;
  std::uint64_t tight_p99_shed = 0, tight_p99_noshed = 0;
  std::uint64_t loose_rej_shed = 0, tight_rej_shed = 0, shed_total = 0;
  for (const bool shed : {false, true}) {
    std::uint64_t prev_tput = 0;
    for (const std::uint32_t k : batch_ks) {
      const SimServiceReport r =
          run_sim_kv(sweep_scenario(k, shed, overload, horizon));
      const std::uint64_t tput = tput_per_sec(r);
      const ClassReport& get = r.service.classes[0];
      const ClassReport& put = r.service.classes[1];
      sweep.add_row({std::to_string(k), shed ? "1" : "0",
                     std::to_string(r.offered),
                     std::to_string(r.total_accepted()),
                     std::to_string(r.total_rejected()),
                     std::to_string(r.service.total_shed()),
                     std::to_string(r.total_completed()),
                     std::to_string(tput),
                     std::to_string(get.total.overall().p99()),
                     std::to_string(put.total.overall().p99()),
                     std::to_string(get.rejected),
                     std::to_string(put.rejected)});
      monotone = monotone && tput >= prev_tput;
      prev_tput = tput;
      conserved = conserved &&
                  r.offered == r.total_accepted() + r.total_rejected() &&
                  r.total_completed() == r.total_accepted();
      // Compare shed vs unshedded at batch_k = 4 (the kv_batch_shed
      // default): at k = 1 the queue-capped p99s of the two settings tie —
      // the service is too slow for admission policy to change what the
      // tail looks like — while any batched cell shows the separation.
      if (k == 4) {
        if (shed) {
          tight_p99_shed = get.total.overall().p99();
          loose_rej_shed = put.rejected;
          tight_rej_shed = get.rejected;
          shed_total = r.service.total_shed();
        } else {
          tight_p99_noshed = get.total.overall().p99();
        }
      }
    }
  }
  ctx.emit(sweep, "batch_sweep");

  ctx.shape_check(conserved, "conservation in every sweep cell");
  ctx.shape_check(monotone,
                  "throughput monotone non-decreasing in batch_k "
                  "(both shed settings)");
  ctx.shape_check(shed_total > 0 && loose_rej_shed > tight_rej_shed,
                  "past saturation the loose class absorbs the rejections");
  ctx.shape_check(tight_p99_shed < tight_p99_noshed,
                  "shedding the loose class shortens the tight-class p99");

  // Per-class capacity: how much offered load can each class absorb while
  // *it* keeps its SLO (hard rejections only — deliberate sheds are policy,
  // not overload). Reported at batch_k 1 vs 8, shedding on.
  for (const std::uint32_t k : {1u, 8u}) {
    const KvScenario base =
        sweep_scenario(k, /*shed=*/true, 1.0, 10 * kNanosPerMilli);
    const std::vector<ClassCapacity> per_class =
        find_class_capacities_memoized(
            twin_probe_config(base, /*max_trials=*/20), base.service,
            [&base](double rate) { return run_sim_kv(at_rate(base, rate)); });
    ctx.emit(class_capacity_table(per_class),
             "capacity_by_class_batch" + std::to_string(k));
    bool sane = true;
    for (const ClassCapacity& c : per_class) {
      sane = sane && c.result.feasible &&
             (!c.result.bracketed ||
              c.result.max_rate < c.result.min_violating);
    }
    ctx.shape_check(sane, "per-class probes feasible and ordered (batch_k=" +
                              std::to_string(k) + ")");
  }
}

void run_batch_sweep_real(ScenarioContext& ctx) {
  const Nanos horizon = static_cast<Nanos>(
      static_cast<double>(40 * kNanosPerMilli) * ctx.time_scale());
  ctx.banner("kv_batch_sweep_real",
             "batch_k x shed sweep on the real service (smoke mode)");

  Table sweep({"batch_k", "shed_on", "offered", "accepted", "rejected",
               "shed", "completed", "get_rejected", "put_rejected",
               "put_shed"});
  bool conserved = true;
  bool shed_attribution = true;
  for (const bool shed : {false, true}) {
    for (const std::uint32_t k : {1u, 4u, 16u}) {
      KvScenario sc = server::make_kv_scenario("kv_batch_shed");
      sc.service.batch_k = k;
      sc.service.prefill_keys = 4096;
      // A small queue, a heavier critical section and 20x nominal load make
      // backpressure likely even in a short smoke run on a fast host; the
      // wall-clock cells stay accounting-only regardless, so a quiet runner
      // that absorbs everything still passes.
      sc.service.queue_capacity = 32;
      sc.service.cost_scale = 50.0;  // hash default cs class -> 20k NOPs
      if (!shed) sc.service.classes[1].admission = AdmissionPolicy{};
      server::scale_load_rates(sc.load, 20.0);

      KvService service(sc.service);
      service.start();
      server::run_open_loop(service, sc.load, horizon);
      service.stop();
      const server::ServiceReport r = service.report();
      const ClassReport& get = r.classes[0];
      const ClassReport& put = r.classes[1];
      sweep.add_row({std::to_string(k), shed ? "1" : "0",
                     std::to_string(r.total_accepted() + r.total_rejected()),
                     std::to_string(r.total_accepted()),
                     std::to_string(r.total_rejected()),
                     std::to_string(r.total_shed()),
                     std::to_string(r.total_completed()),
                     std::to_string(get.rejected), std::to_string(put.rejected),
                     std::to_string(put.shed)});
      conserved = conserved && r.total_completed() == r.total_accepted();
      // Sheds may only appear in the sheddable class, and only when the
      // policy is on; the protected tight class must never record one.
      shed_attribution = shed_attribution && get.shed == 0 &&
                         (shed || put.shed == 0) && put.shed <= put.rejected;
    }
  }
  ctx.emit(sweep, "batch_sweep_real");
  ctx.shape_check(conserved, "stop() drains every accepted request");
  ctx.shape_check(shed_attribution,
                  "sheds attributed only to the sheddable class");
}

}  // namespace
}  // namespace asl::bench

ASL_SCENARIO(kv_batch_sweep_twin,
             "batch_k x shed sweep + per-class capacity on the twin "
             "(deterministic)") {
  asl::bench::run_batch_sweep_twin(ctx);
}

ASL_SCENARIO(kv_batch_sweep_real,
             "batch_k x shed sweep on the real service (smoke, accounting)") {
  asl::bench::run_batch_sweep_real(ctx);
}
