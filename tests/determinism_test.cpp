// Determinism suite: a (config, seed) pair must define one result,
// byte-for-byte. Two anchors:
//  * the discrete-event simulator: two runs of the same seeded config
//    produce byte-identical CSV tables (counts, percentiles, CDF);
//  * the open-loop scenario family: each scenario's offered-load digest
//    (arrival counts, op mix, key checksums per interval) is byte-identical
//    across generations — the wall-clock replay may jitter, the schedule
//    it replays may not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "db/engine.h"
#include "harness/experiment.h"
#include "server/scenarios.h"
#include "server/sim_kv_service.h"
#include "sim/db_model.h"
#include "sim/sim_runner.h"
#include "stats/table.h"
#include "workload/arrival.h"
#include "workload/open_loop.h"

namespace asl {
namespace {

// Renders everything a figure bench would print for one sim run.
std::string sim_csv(const sim::SimConfig& cfg, const sim::EpochGen& gen) {
  sim::SimResult r = sim::run_sim(cfg, gen);
  Table table({"cs_total", "cs_big", "cs_little", "epochs", "p50", "p99_big",
               "p99_little", "p99_overall", "max"});
  table.add_row({std::to_string(r.cs_total), std::to_string(r.cs_big),
                 std::to_string(r.cs_little), std::to_string(r.epochs),
                 std::to_string(r.latency.overall().p50()),
                 std::to_string(r.latency.p99_big()),
                 std::to_string(r.latency.p99_little()),
                 std::to_string(r.latency.p99_overall()),
                 std::to_string(r.latency.overall().max())});
  Table cdf({"value", "cumulative"});
  for (const Histogram::CdfPoint& p : r.latency.overall().cdf()) {
    cdf.add_row({std::to_string(p.value), Table::fmt(p.cumulative, 6)});
  }
  std::ostringstream out;
  table.print_csv(out);
  cdf.print_csv(out);
  return out.str();
}

TEST(Determinism, SimEngineCsvIsByteIdenticalAcrossRuns) {
  sim::SimConfig cfg =
      sim::scale_durations(sim::bench1_asl_config(50 * sim::kMicro), 0.2);
  const sim::EpochGen gen = sim::bench1_workload();
  EXPECT_EQ(sim_csv(cfg, gen), sim_csv(cfg, gen));

  // The seed is load-bearing: on a workload that draws per-op randomness
  // (Bench-1 is a fixed script), a different seed must change the run —
  // otherwise byte-identity above would be vacuous.
  const sim::DbWorkload db = sim::make_db_workload(sim::DbKind::kKyoto);
  sim::SimConfig db_cfg = sim::scale_durations(
      sim::db_asl_config(db, 100 * sim::kMicro), 0.1);
  sim::SimConfig db_reseeded = db_cfg;
  db_reseeded.seed = db_cfg.seed + 1;
  EXPECT_EQ(sim_csv(db_cfg, db.gen), sim_csv(db_cfg, db.gen));
  EXPECT_NE(sim_csv(db_cfg, db.gen), sim_csv(db_reseeded, db.gen));
}

TEST(Determinism, SimEngineDeterministicAcrossLockKinds) {
  for (const sim::LockKind kind :
       {sim::LockKind::kMcs, sim::LockKind::kTas, sim::LockKind::kShflPb}) {
    sim::SimConfig cfg =
        sim::scale_durations(sim::bench1_config(kind), 0.2);
    const sim::EpochGen gen = sim::bench1_workload();
    EXPECT_EQ(sim_csv(cfg, gen), sim_csv(cfg, gen))
        << "lock kind " << sim::to_string(kind);
  }
}

TEST(Determinism, OpenLoopScenarioTracesAreByteIdentical) {
  for (const std::string& name : server::kv_scenario_names()) {
    // Two independently built scenarios (fresh ArrivalProcess and KeyDist
    // state each time) must offer the same schedule.
    server::KvScenario a = server::make_kv_scenario(name);
    server::KvScenario b = server::make_kv_scenario(name);
    std::ostringstream csv_a, csv_b;
    server::offered_trace_table(a.load, a.horizon).print_csv(csv_a);
    server::offered_trace_table(b.load, b.horizon).print_csv(csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str()) << name;
    EXPECT_GT(csv_a.str().size(), 0u) << name;

    // And the full trace, not just the digest.
    for (std::size_t i = 0; i < a.load.size(); ++i) {
      const auto ta = server::generate_trace(a.load[i], a.horizon);
      const auto tb = server::generate_trace(b.load[i], b.horizon);
      ASSERT_EQ(ta.size(), tb.size()) << name;
      ASSERT_GT(ta.size(), 0u) << name;
      for (std::size_t j = 0; j < ta.size(); ++j) {
        ASSERT_EQ(ta[j].at, tb[j].at) << name;
        ASSERT_EQ(ta[j].key, tb[j].key) << name;
        ASSERT_EQ(ta[j].is_put, tb[j].is_put) << name;
      }
    }
  }
}

// Everything a twin scenario emits, as one CSV blob (the same two tables
// the sim_kv_* benches write).
std::string twin_csv(const server::KvScenario& sc,
                     const server::SimTwinConfig& twin = {}) {
  const server::SimServiceReport report = server::run_sim_kv(sc, twin);
  std::ostringstream out;
  out << "# scenario=" << sc.name << " engine=" << sc.service.engine
      << " table=sim_kv_measured\n";
  server::sim_kv_measured_table(report).print_csv(out);
  out << "# scenario=" << sc.name << " engine=" << sc.service.engine
      << " table=sim_kv_shards\n";
  server::sim_kv_shard_table(report).print_csv(out);
  return out.str();
}

TEST(Determinism, SimTwinMeasuredCsvIsByteIdenticalAcrossRuns) {
  // The acceptance bar of the twin (DESIGN.md §5): every scenario's
  // *measured* table — not just the offered digest — is byte-identical
  // across two consecutive runs. This is what lets queueing shapes be
  // asserted instead of accounted.
  for (const std::string& name : server::kv_scenario_names()) {
    const server::KvScenario a = server::make_kv_scenario(name);
    const server::KvScenario b = server::make_kv_scenario(name);
    const std::string csv_a = twin_csv(a);
    EXPECT_EQ(csv_a, twin_csv(b)) << name;
    EXPECT_GT(csv_a.size(), 0u) << name;
  }
}

TEST(Determinism, EngineCostClassesAreLoadBearing) {
  // Same traffic, different engine => different virtual-time bytes (the
  // measured table itself, not the labeled header): if the per-op
  // CostProfile resolution ever silently fell back to one flat cost, the
  // per-engine goldens above would all pin the same table and the engine
  // sweep's contrasts would be vacuous.
  const auto measured = [](const char* engine) {
    std::ostringstream out;
    server::sim_kv_measured_table(
        server::run_sim_kv(
            server::make_kv_scenario("kv_uniform_steady", engine)))
        .print_csv(out);
    return out.str();
  };
  const std::string hash = measured("hash");
  const std::string lsm = measured("lsm");
  const std::string btree = measured("btree");
  EXPECT_NE(hash, lsm);
  EXPECT_NE(hash, btree);
  EXPECT_NE(lsm, btree);
}

TEST(Determinism, SimTwinSeedsAreLoadBearing) {
  // Reseeding the *load* must change the measured bytes (otherwise the
  // byte-identity above would be vacuous); reseeding the twin's lock model
  // only perturbs tie-breaking, so it must still produce a valid run with
  // identical admission accounting under an uncontended scenario.
  server::KvScenario base = server::make_kv_scenario("kv_uniform_steady");
  server::KvScenario reseeded = server::make_kv_scenario("kv_uniform_steady");
  reseeded.load[0].seed += 1;
  EXPECT_NE(twin_csv(base), twin_csv(reseeded));

  server::SimTwinConfig twin;
  twin.seed += 1;
  const server::SimServiceReport a = server::run_sim_kv(base);
  const server::SimServiceReport b = server::run_sim_kv(base, twin);
  EXPECT_EQ(a.total_accepted(), b.total_accepted());
  EXPECT_EQ(a.total_completed(), b.total_completed());
}

// The twin's telemetry time series as one CSV blob (what the
// sim_kv_telemetry bench writes).
std::string twin_telemetry_csv(const server::KvScenario& sc) {
  const server::SimServiceReport report = server::run_sim_kv(sc);
  std::ostringstream out;
  server::sim_kv_telemetry_table(report).print_csv(out);
  return out.str();
}

TEST(Determinism, SimTwinTelemetrySeriesIsByteIdentical) {
  // DESIGN.md §11: the twin samples telemetry in virtual time, so the
  // time-series table is an observable like any other — two runs of the
  // same scenario must render byte-identical series CSV.
  const server::KvScenario a = server::make_kv_scenario("kv_telemetry");
  const server::KvScenario b = server::make_kv_scenario("kv_telemetry");
  ASSERT_TRUE(a.service.telemetry.enabled);
  const std::string csv_a = twin_telemetry_csv(a);
  EXPECT_EQ(csv_a, twin_telemetry_csv(b));
  EXPECT_GT(csv_a.size(), 0u);
  // Long-form schema, not an accidental empty table.
  EXPECT_EQ(csv_a.rfind("series,t_ns,value\n", 0), 0u);
}

TEST(Determinism, TelemetryDoesNotPerturbTheTwin) {
  // The perturbation bound's exact analogue in virtual time: sampling is
  // an observer, so switching telemetry off must not move a single byte
  // of the measured table (same admissions, completions, percentiles).
  server::KvScenario on = server::make_kv_scenario("kv_telemetry");
  server::KvScenario off = server::make_kv_scenario("kv_telemetry");
  off.service.telemetry.enabled = false;
  const server::SimServiceReport r_on = server::run_sim_kv(on);
  const server::SimServiceReport r_off = server::run_sim_kv(off);
  std::ostringstream csv_on, csv_off;
  server::sim_kv_measured_table(r_on).print_csv(csv_on);
  server::sim_kv_measured_table(r_off).print_csv(csv_off);
  EXPECT_EQ(csv_on.str(), csv_off.str());
  EXPECT_FALSE(r_on.telemetry.empty());
  EXPECT_TRUE(r_off.telemetry.empty());
}

TEST(Determinism, SimTwinTelemetryGoldenMatchesCheckedInCsv) {
  // Pins the twin's telemetry series byte-for-byte against tests/golden/,
  // like the measured-table goldens above: a reordered sampling tick, a
  // renamed series, or a drifted fold shows up here first. Regenerate
  // after an intentional schema change with:
  //   ASL_WRITE_GOLDEN=1 ./determinism_test
  //     --gtest_filter='*SimTwinTelemetryGolden*'
  const std::string path =
      std::string(ASL_GOLDEN_DIR) + "/sim_kv_telemetry.csv";
  const std::string csv =
      twin_telemetry_csv(server::make_kv_scenario("kv_telemetry"));

  if (std::getenv("ASL_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << csv;
    GTEST_SKIP() << "golden regenerated";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with ASL_WRITE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), csv)
      << "twin telemetry series drifted from the checked-in golden; if the "
         "schema change is intentional, regenerate with ASL_WRITE_GOLDEN=1";
}

TEST(Determinism, SimTwinGoldenTraceMatchesCheckedInCsv) {
  // Byte-compare twin scenarios against tests/golden/: an accidental
  // determinism break (iteration-order change, float formatting, an RNG
  // draw reordered) fails loudly here, not silently downstream. Goldens:
  // the steady scenario once per registered engine — each engine's per-op
  // CostProfile produces distinct virtual-time tables, so all three cost
  // models are pinned byte-for-byte (sim_kv_<engine>_steady.csv) — and the
  // overloaded batch+shed scenario, pinning the batch-drain and
  // admission-policy paths, on hash and on mvcc. To regenerate after an
  // *intentional* model change:
  //   ASL_WRITE_GOLDEN=1 ./determinism_test
  //     --gtest_filter='*SimTwinGoldenTrace*'
  // The batch+shed golden runs the scenario at the shared overload profile
  // (scenarios.h make_overloaded_kv_scenario — the one the TwinShapes
  // tests assert on) at 8x nominal: at the nominal rate queues never
  // exceed depth 1, so batches never form and the watermark is never
  // reached — the overloaded variant is what actually pins the batch drain
  // and the shed accounting byte-for-byte.
  struct GoldenCase {
    std::string file;
    server::KvScenario scenario;
  };
  std::vector<GoldenCase> cases;
  for (const std::string& engine : db::kv_engine_names()) {
    cases.push_back(
        {"sim_kv_" + engine + "_steady.csv",
         server::make_kv_scenario("kv_uniform_steady", engine)});
  }
  cases.push_back({"sim_kv_batch_shed_overload.csv",
                   server::make_overloaded_kv_scenario("kv_batch_shed", 8.0)});
  // The same overload on the mvcc engine pins the lock-free route split:
  // put-headed batches whose deferred gets run after the release (325
  // acquisitions, 306 of them multi-request; every get served off-lock).
  server::KvScenario mvcc_shed =
      server::make_overloaded_kv_scenario("kv_batch_shed", 8.0);
  mvcc_shed.service.engine = "mvcc";
  cases.push_back({"sim_kv_mvcc_batch_shed_overload.csv", mvcc_shed});

  bool regenerated = false;
  for (const GoldenCase& gc : cases) {
    const std::string path = std::string(ASL_GOLDEN_DIR) + "/" + gc.file;
    const std::string csv = twin_csv(gc.scenario);

    if (std::getenv("ASL_WRITE_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << csv;
      regenerated = true;
      continue;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with ASL_WRITE_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), csv)
        << gc.file
        << ": twin output drifted from the checked-in golden; if the model "
           "change is intentional, regenerate with ASL_WRITE_GOLDEN=1";
  }
  if (regenerated) GTEST_SKIP() << "goldens regenerated";
}

TEST(Determinism, ArrivalRateIsUnbiasedAtNanosecondGaps) {
  // Regression for the mean-truncation bug (workload/arrival.h): next_gap
  // used to floor the mean inter-arrival to whole ns *before* the
  // exponential draw, so a 600M/s process (1.67 ns mean) drew from a 1 ns
  // mean and offered ~1.67x the configured rate. The mean now stays
  // fractional; only the drawn gap is floored at 1 ns, which keeps the
  // offered rate within 1% of configured even at nanosecond-scale means.
  const double kRates[] = {6e8, 1e6};
  for (const double rate : kRates) {
    workload::ArrivalProcess process = workload::ArrivalProcess::poisson(rate);
    Rng rng(123);
    const std::uint64_t kDraws = 2000000;
    std::uint64_t total_ns = 0;
    for (std::uint64_t i = 0; i < kDraws; ++i) {
      total_ns += process.next_gap(rng);
    }
    const double offered = static_cast<double>(kDraws) * 1e9 /
                           static_cast<double>(total_ns);
    EXPECT_NEAR(offered / rate, 1.0, 0.01) << "configured rate " << rate;
  }
}

TEST(Determinism, DistinctSeedsOfferDistinctSchedules) {
  server::KvScenario sc = server::make_kv_scenario("kv_uniform_steady");
  server::LoadSpec reseeded = sc.load[0];
  reseeded.seed += 1;
  const auto a = server::generate_trace(sc.load[0], sc.horizon);
  const auto b = server::generate_trace(reseeded, sc.horizon);
  ASSERT_GT(a.size(), 0u);
  bool any_diff = a.size() != b.size();
  for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
    any_diff = a[i].at != b[i].at || a[i].key != b[i].key;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace asl
