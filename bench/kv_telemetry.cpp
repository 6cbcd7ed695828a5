// kv_telemetry / sim_kv_telemetry — the live-telemetry scenarios
// (DESIGN.md §11).
//
// kv_telemetry runs the real service under kv_zipf_diurnal's traffic with
// the observation pipeline on: the sampler folds the lock-free metrics
// registry into time series (emitted as long-form CSV) and 1-in-64 span
// tracing exports a Chrome-trace JSON timeline (--spans=PATH). The shape
// checks make the telemetry *load-bearing*: the sampled series must resolve
// the diurnal swing (peak-window completion rate clearly above the trough
// windows), the final tick must observe the drained service, and a
// closed-loop A/B pump bounds the perturbation telemetry is allowed to
// cost.
//
// sim_kv_telemetry samples the identical series schema in virtual time on
// the twin: the trough/peak ordering becomes an exact deterministic fact,
// the telemetry CSV is byte-identical across runs (the determinism suite
// pins it against a checked-in golden), and telemetry on vs off leaves the
// measured table byte-identical — sampling reads virtual time, it never
// bends it.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_common.h"
#include "kv_probe_common.h"
#include "platform/rng.h"
#include "server/scenarios.h"
#include "server/sim_kv_service.h"
#include "server/telemetry.h"
#include "workload/open_loop.h"

namespace asl::bench {
namespace {

using server::KvScenario;
using server::KvService;
using server::KvTelemetry;
using server::OpenLoopResult;
using server::ServiceReport;
using server::SimServiceReport;

// The diurnal period of the kv_telemetry load (scenarios.cpp) — needed here
// to place the phase windows; scaled with --time-scale like the horizon.
constexpr Nanos kDiurnalPeriod = 200 * kNanosPerMilli;

// Mean throughput (ops per ns, wall or virtual) of a cumulative-counter
// series inside the diurnal trough and peak windows. `origin` is the series
// time of phase 0 (the arrivals' offset 0); each inter-tick delta is
// attributed to the phase of its midpoint, and ticks before the origin
// belong to no phase. The windows are the ±12.5% of the period around the
// trough (phase 0) and the peak (phase 0.5) — narrow enough that the 3.2x
// offered swing cannot average away.
struct DiurnalRates {
  double trough = 0.0;  // ops/ns
  double peak = 0.0;
  bool valid = false;  // both windows saw at least one whole tick
};

DiurnalRates diurnal_window_rates(const TimeSeries* completed, Nanos period,
                                  std::uint64_t origin) {
  DiurnalRates rates;
  if (completed == nullptr || period <= 0 || completed->size() < 2) {
    return rates;
  }
  const auto& pts = completed->points();
  const auto p = static_cast<std::uint64_t>(period);
  double trough_ops = 0.0, trough_ns = 0.0, peak_ops = 0.0, peak_ns = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const std::uint64_t t0 = pts[i - 1].t, t1 = pts[i].t;
    const std::uint64_t mid = (t0 + t1) / 2;
    if (t1 <= t0 || pts[i].v < pts[i - 1].v || mid < origin) continue;
    const double phase = static_cast<double>((mid - origin) % p) /
                         static_cast<double>(p);
    const double ops = static_cast<double>(pts[i].v - pts[i - 1].v);
    const double ns = static_cast<double>(t1 - t0);
    if (phase >= 0.875 || phase < 0.125) {
      trough_ops += ops;
      trough_ns += ns;
    } else if (phase >= 0.375 && phase < 0.625) {
      peak_ops += ops;
      peak_ns += ns;
    }
  }
  if (trough_ns > 0 && peak_ns > 0) {
    rates.trough = trough_ops / trough_ns;
    rates.peak = peak_ops / peak_ns;
    rates.valid = true;
  }
  return rates;
}

// Last recorded value of a named series (0 when absent or empty).
std::uint64_t last_value(const obs::TimeSeriesLog& log,
                         const std::string& name) {
  const TimeSeries* s = log.find(name);
  return (s == nullptr || s->empty()) ? 0 : s->points().back().v;
}

// The kv_telemetry scenario with its time knobs (horizon, arrival
// modulation, sampling cadence) compressed by `time_scale` together, so a
// scaled run sees the same two "days" resolved into the same ~40 ticks per
// day.
KvScenario scaled_scenario(double time_scale) {
  KvScenario sc = server::make_kv_scenario("kv_telemetry");
  sc.horizon =
      static_cast<Nanos>(static_cast<double>(sc.horizon) * time_scale);
  for (server::LoadSpec& spec : sc.load) {
    spec.arrivals = spec.arrivals.with_time_scale(time_scale);
  }
  sc.service.telemetry.sample_period_ns = std::max<Nanos>(
      1, static_cast<Nanos>(
             static_cast<double>(sc.service.telemetry.sample_period_ns) *
             time_scale));
  return sc;
}

// ------------------------------------------------------------- real path

// Wall time of a closed-loop pump of `n` requests against a small service
// with telemetry on or off (the kv_alloc_audit idiom: try_submit + yield,
// then poll the queues dry). Construction/teardown are excluded from the
// timed window, so the A/B compares only the instrumented hot path plus the
// live sampler.
Nanos pump_window_ns(bool telemetry_on, std::uint64_t n) {
  server::KvServiceConfig cfg;
  cfg.engine = "hash";
  cfg.num_shards = 2;
  cfg.workers_per_shard = 2;
  cfg.queue_capacity = 64;
  cfg.batch_k = 4;
  cfg.prefill_keys = 512;
  cfg.classes.push_back(server::RequestClass{"perturb", 2 * kNanosPerMilli});
  if (telemetry_on) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.sample_period_ns = 1 * kNanosPerMilli;
    cfg.telemetry.span_sample_every = 64;
    cfg.telemetry.span_ring_capacity = 512;
  }
  KvService service(cfg);
  service.start();
  Rng rng(0x7e1e);
  auto pump_one = [&](std::uint64_t i) {
    const server::OpType op =
        (i % 4 == 0) ? server::OpType::kPut : server::OpType::kGet;
    while (!service.try_submit(op, rng.below(512), 0)) {
      std::this_thread::yield();
    }
  };
  // Short warm pass so both variants time steady state, not first-touch
  // effects.
  for (std::uint64_t i = 0; i < n / 10; ++i) pump_one(i);
  const Nanos t0 = now_ns();
  for (std::uint64_t i = 0; i < n; ++i) pump_one(i);
  for (std::uint32_t s = 0; s < cfg.num_shards; ++s) {
    while (service.queue_depth(s) != 0) std::this_thread::yield();
  }
  const Nanos elapsed = now_ns() - t0;
  service.stop();
  return elapsed;
}

void run_kv_telemetry(ScenarioContext& ctx) {
  KvScenario sc = scaled_scenario(ctx.time_scale());
  const Nanos period = static_cast<Nanos>(
      static_cast<double>(kDiurnalPeriod) * ctx.time_scale());

  ctx.banner("kv_telemetry", sc.title);
  ctx.note("sample_period_us=" +
           std::to_string(sc.service.telemetry.sample_period_ns /
                          kNanosPerMicro) +
           " span_sample_every=" +
           std::to_string(sc.service.telemetry.span_sample_every) +
           " horizon_ms=" + std::to_string(sc.horizon / kNanosPerMilli));

  KvService service(sc.service);
  service.start();
  OpenLoopResult load = server::run_open_loop(service, sc.load, sc.horizon);
  service.stop();
  const ServiceReport report = service.report();
  const KvTelemetry* telem = service.telemetry();

  ctx.emit(kv_measured_table(report), "kv_measured");
  ctx.emit(telem->log().table(), "kv_telemetry_series");

  // The usual accounting bar first, then the telemetry contract proper.
  ctx.shape_check(load.offered == load.accepted + load.rejected,
                  "offered = accepted + rejected (generator)");
  ctx.shape_check(report.total_completed() == report.total_accepted(),
                  "stop() drains every accepted request");
  ctx.shape_check(telem->ticks() > 2, "sampler folded periodic ticks");
  ctx.note("sampler ticks=" + std::to_string(telem->ticks()) +
           " series=" + std::to_string(telem->log().num_series()) +
           " dropped_points=" + std::to_string(telem->log().dropped()));

  // The final tick runs after the drain (stop() stops the sampler last):
  // cumulative completed series end at the report's totals and every
  // sampled queue depth ends at zero.
  bool final_matches = true;
  for (const server::ClassReport& c : report.classes) {
    final_matches =
        final_matches &&
        last_value(telem->log(), "class." + c.name + ".completed") ==
            c.completed;
  }
  ctx.shape_check(final_matches,
                  "final tick's completed series equal the report totals");
  bool depths_zero = true;
  for (std::uint32_t s = 0; s < sc.service.num_shards; ++s) {
    depths_zero = depths_zero &&
                  last_value(telem->log(),
                             "shard." + std::to_string(s) + ".depth") == 0;
  }
  ctx.shape_check(depths_zero, "final tick observes drained queues");

  // The sampled series must resolve the diurnal swing: the interactive
  // class's completion rate inside the peak windows clearly above the
  // trough windows. The offered swing is ~3.2x; asserting 1.5x keeps the
  // check CI-safe while still failing a sampler that smears or misorders
  // its ticks. The series axis starts at service.start(); the arrivals'
  // phase starts at the generator release, which trace generation and
  // thread spawn put a sizeable fraction of a scaled period later.
  const std::uint64_t origin = static_cast<std::uint64_t>(
      load.released_at - service.telemetry_epoch_ns());
  ctx.note("generator release at +" + std::to_string(origin / kNanosPerMicro) +
           " us on the series axis");
  const DiurnalRates rates = diurnal_window_rates(
      telem->log().find("class." + sc.service.classes[0].name + ".completed"),
      period, origin);
  ctx.shape_check(rates.valid, "trough and peak windows both sampled");
  if (rates.valid) {
    ctx.note("trough " + Table::fmt_ops(rates.trough * 1e9) +
             " ops/s vs peak " + Table::fmt_ops(rates.peak * 1e9) + " ops/s");
    ctx.shape_check(
        rates.peak > 1.5 * rates.trough,
        "time series resolve the diurnal swing (peak > 1.5x trough)");
  }

  // Span tracing: the 1-in-64 gate must have sampled real requests; the
  // export is Chrome trace-event JSON (schema pinned by obs_test; CI also
  // loads the artifact with a JSON parser).
  ctx.shape_check(telem->tracer().recorded() > 0,
                  "span tracer sampled requests");
  const std::string spans_path = ctx.option("spans");
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    if (out) {
      telem->tracer().write_chrome_trace(out, service.telemetry_epoch_ns());
    }
    ctx.shape_check(static_cast<bool>(out),
                    "wrote Chrome trace JSON to " + spans_path);
    ctx.note("spans recorded=" + std::to_string(telem->tracer().recorded()) +
             " dropped=" + std::to_string(telem->tracer().dropped()));
  }

  // Perturbation bound: a closed-loop pump with telemetry on must stay
  // within a band of the same pump with it off. Min-of-3 each, interleaved
  // to decorrelate runner drift; the wide 1.5x + 10 ms band keeps shared CI
  // runners from flaking while still catching a hot path that grew a lock
  // or a syscall.
  const std::uint64_t pump_reqs = 100'000;
  Nanos off_ns = ~Nanos{0} >> 1, on_ns = ~Nanos{0} >> 1;
  for (int trial = 0; trial < 3; ++trial) {
    off_ns = std::min(off_ns, pump_window_ns(false, pump_reqs));
    on_ns = std::min(on_ns, pump_window_ns(true, pump_reqs));
  }
  ctx.note("perturbation pump (" + std::to_string(pump_reqs) +
           " reqs, min of 3): telemetry-off " +
           std::to_string(off_ns / kNanosPerMicro) + " us, telemetry-on " +
           std::to_string(on_ns / kNanosPerMicro) + " us");
  ctx.shape_check(on_ns <= off_ns + off_ns / 2 + 10 * kNanosPerMilli,
                  "telemetry-on throughput within band of telemetry-off");
}

// ------------------------------------------------------------------ twin

void run_sim_kv_telemetry(ScenarioContext& ctx) {
  KvScenario sc = scaled_scenario(ctx.time_scale());
  const Nanos period = static_cast<Nanos>(
      static_cast<double>(kDiurnalPeriod) * ctx.time_scale());

  ctx.banner("sim_kv_telemetry", "twin of: " + sc.title);

  const SimServiceReport report = server::run_sim_kv(sc);
  ctx.emit(server::sim_kv_measured_table(report), "sim_kv_measured");
  ctx.emit(server::sim_kv_telemetry_table(report), "sim_kv_telemetry");

  ctx.shape_check(report.total_completed() == report.total_accepted(),
                  "drain completes every accepted request");
  ctx.shape_check(!report.telemetry.empty(),
                  "virtual-time sampler recorded series");

  // Byte-determinism: a second run emits the identical telemetry CSV (the
  // determinism suite additionally pins it against a checked-in golden).
  {
    const SimServiceReport again = server::run_sim_kv(sc);
    std::ostringstream a, b;
    server::sim_kv_telemetry_table(report).print_csv(a);
    server::sim_kv_telemetry_table(again).print_csv(b);
    ctx.shape_check(a.str() == b.str() && !a.str().empty(),
                    "telemetry time-series CSV is byte-identical across runs");
  }

  // Zero perturbation, exactly: the same scenario with telemetry off
  // produces a byte-identical measured table — sampling reads virtual time,
  // it never bends it.
  {
    KvScenario off = sc;
    off.service.telemetry.enabled = false;
    const SimServiceReport off_report = server::run_sim_kv(off);
    std::ostringstream a, b;
    server::sim_kv_measured_table(report).print_csv(a);
    server::sim_kv_measured_table(off_report).print_csv(b);
    ctx.shape_check(a.str() == b.str(),
                    "telemetry on/off measured tables are byte-identical "
                    "(zero perturbation)");
  }

  // In virtual time the diurnal ordering is exact, so the bar is higher
  // than the real path's.
  const DiurnalRates rates = diurnal_window_rates(
      report.telemetry.find("class." + sc.service.classes[0].name +
                            ".completed"),
      period, 0);
  ctx.shape_check(rates.valid, "trough and peak windows both sampled");
  if (rates.valid) {
    ctx.note("trough " + Table::fmt_ops(rates.trough * 1e9) +
             " ops/s vs peak " + Table::fmt_ops(rates.peak * 1e9) +
             " ops/s (virtual)");
    ctx.shape_check(
        rates.peak > 2.0 * rates.trough,
        "virtual-time series resolve the diurnal swing (peak > 2x trough)");
  }

  // Final-tick drain facts, exact in virtual time.
  bool final_matches = true;
  for (const server::ClassReport& c : report.service.classes) {
    final_matches = final_matches &&
                    last_value(report.telemetry,
                               "class." + c.name + ".completed") == c.completed;
  }
  ctx.shape_check(final_matches,
                  "final tick's completed series equal the report totals");
  bool depths_zero = true;
  for (std::uint32_t s = 0; s < sc.service.num_shards; ++s) {
    depths_zero = depths_zero &&
                  last_value(report.telemetry,
                             "shard." + std::to_string(s) + ".depth") == 0;
  }
  ctx.shape_check(depths_zero, "final tick observes drained queues");
}

}  // namespace
}  // namespace asl::bench

ASL_SCENARIO(kv_telemetry,
             "live telemetry: time series + span traces over a diurnal KV "
             "run") {
  asl::bench::run_kv_telemetry(ctx);
}

ASL_SCENARIO(sim_kv_telemetry,
             "twin: virtual-time telemetry series over the diurnal KV run") {
  asl::bench::run_sim_kv_telemetry(ctx);
}
