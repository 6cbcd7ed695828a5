// Open-loop load generator for the KV service.
//
// A LoadSpec is one traffic stream: an arrival process, a key distribution,
// an op mix and a request class. The schedule a spec offers is a pure
// function of (spec, horizon) — generate_trace() — so the same spec can be
// (a) digested into a deterministic offered-load table (the byte-identity
// anchor of the determinism tests), and (b) replayed against the wall clock
// by run_open_loop(), which submits each request at its scheduled instant
// whether or not the service keeps up. Requests the service rejects
// (bounded-queue backpressure) are counted, never retried: offered load is
// the generator's to decide, accepted load is the server's.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/time.h"
#include "server/kv_service.h"
#include "stats/table.h"
#include "workload/arrival.h"
#include "workload/keydist.h"

namespace asl::server {

struct LoadSpec {
  workload::ArrivalProcess arrivals = workload::ArrivalProcess::poisson(1000);
  workload::KeyDist keys = workload::KeyDist::uniform(1 << 15);
  double put_fraction = 0.5;
  std::uint32_t class_index = 0;
  std::uint64_t seed = 1;
};

struct TracePoint {
  Nanos at = 0;  // offset from the run start
  std::uint64_t key = 0;
  bool is_put = false;
};

// The offered schedule of `spec` over [0, horizon): deterministic in
// (spec, horizon), independent of wall-clock time.
std::vector<TracePoint> generate_trace(const LoadSpec& spec, Nanos horizon);

// Combined nominal rate of a load (sum of per-spec base/peak rates) — the
// denominator the capacity probe uses to turn an absolute target rate into
// a per-spec scale factor.
inline double nominal_rate_per_sec(const std::vector<LoadSpec>& specs) {
  double rate = 0.0;
  for (const LoadSpec& spec : specs) {
    rate += spec.arrivals.base_rate_per_sec();
  }
  return rate;
}

// Scale every stream's rate by `factor`, preserving the traffic mix (the
// get:put ratio, burst shapes and key distributions are untouched).
inline void scale_load_rates(std::vector<LoadSpec>& specs, double factor) {
  for (LoadSpec& spec : specs) {
    spec.arrivals = spec.arrivals.with_rate_scale(factor);
  }
}

// The read/write mix knob: scale only the streams aimed at `class_index`
// (the scenario convention routes gets and puts through separate classes),
// leaving every other stream's rate, all burst shapes and all key
// distributions untouched. Composes with scale_load_rates — scale the mix
// first, then the whole offered load.
inline void scale_class_rates(std::vector<LoadSpec>& specs,
                              std::uint32_t class_index, double factor) {
  for (LoadSpec& spec : specs) {
    if (spec.class_index == class_index) {
      spec.arrivals = spec.arrivals.with_rate_scale(factor);
    }
  }
}

// Per-interval digest of every spec's offered load (arrival counts, op mix,
// key checksum per horizon/buckets slice). All-integer cells, so two
// generations with the same specs are byte-identical CSV.
Table offered_trace_table(const std::vector<LoadSpec>& specs, Nanos horizon,
                          std::uint32_t buckets = 8);

struct OpenLoopResult {
  std::uint64_t offered = 0;   // scheduled arrivals within the horizon
  std::uint64_t accepted = 0;  // admitted by the service
  std::uint64_t rejected = 0;  // bounced by queue backpressure
  Nanos elapsed = 0;           // wall clock, release -> last submission
  // now_ns() at the generators' release: the wall instant of schedule
  // offset 0, i.e. the origin of every arrival process's phase (a diurnal
  // trough). Later than service.start() by trace generation and thread
  // spawn, so phase-aware readers of the service's telemetry axis must
  // count from here, not from the service's start.
  Nanos released_at = 0;

  double offered_rate_per_sec() const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(offered) *
                              static_cast<double>(kNanosPerSec) /
                              static_cast<double>(elapsed);
  }
};

// Replays every spec against `service` (one generator thread per spec,
// submitting at the scheduled instants; a generator that falls behind
// submits immediately — lag becomes burst, as in a real open loop).
// The service must be started; the caller stops it afterwards. Specs whose
// class_index the service does not know offer nothing (see the .cpp note).
OpenLoopResult run_open_loop(KvService& service,
                             const std::vector<LoadSpec>& specs,
                             Nanos horizon);

}  // namespace asl::server
