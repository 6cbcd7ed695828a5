// perfbench_runner — runs one workload and prints one JSON line:
//   {"manifest": {...}, "result": {"correct", "attempted", "failed",
//    "metrics"}, "extras": {...}, "notes": {...}, "check_failures": [...]}
// run.py builds this binary and turns that line into the benchmark's
// output. Exit code 1 when a correctness check failed, 2 on bad arguments.
//
//   perfbench_runner --workload lock_bench1 --seed 1 --seconds 10 --trace 0
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "platform/affinity.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kHostProbeSeconds = 0.5;

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metric_map(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit)
       << "}";
  }
  os << "}";
  return os.str();
}

// Adds `other`'s metrics this result lacks, and its check outcome.
void absorb(RunResult& into, const RunResult& other) {
  into.fill_from(other);
  for (const std::string& f : other.check_failures) into.check(false, f);
  for (const auto& n : other.notes) into.notes.push_back(n);
  for (const Metric& m : other.extras) into.extras.push_back(m);
}

RunResult run_end_to_end(const Options& opt) {
  if (opt.workload == "lock_bench1") return run_lock_bench1(opt);
  if (opt.workload == "kv_hash_zipf") return run_kv(opt, KvKind::kHashZipf);
  if (opt.workload == "kv_mvcc_reads") return run_kv(opt, KvKind::kMvccReads);
  return run_twin_kv(opt);
}

// The per-layer ledger. Metrics homed on the workload come from its own
// traced pass; substrate probes run every time; the lock-layer and
// server-layer metrics of a workload that does not exercise those layers
// come from a short traced slice of their home workload (lock_bench1 and
// kv_hash_zipf respectively). The home pass gets 60% of the run and a
// slice a fifth, so a traced run lasts about as long as an untraced one
// (kv passes add their fixed-length capacity ladder on top).
RunResult run_ledger(const Options& opt) {
  RunResult r;
  const double home = opt.seconds * 0.6;
  if (opt.workload == "lock_bench1") {
    r = trace_lock_bench1(home);
  } else if (opt.workload == "kv_hash_zipf") {
    r = trace_kv(opt, KvKind::kHashZipf, home);
  } else if (opt.workload == "kv_mvcc_reads") {
    r = trace_kv(opt, KvKind::kMvccReads, home);
  } else {
    r = trace_twin_kv(opt, home);
  }
  const double slice = std::max(1.0, opt.seconds / 5);
  if (!r.has("locks.wait_big_ns.p50")) {
    absorb(r, trace_lock_bench1(slice));
  }
  if (!r.has("server.submit_ns.p50")) {
    absorb(r, trace_kv(opt, KvKind::kHashZipf, slice));
  }
  absorb(r, substrate_layers());
  return r;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        return false;
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else {
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return opt.workload == "lock_bench1" || opt.workload == "kv_hash_zipf" ||
         opt.workload == "kv_mvcc_reads" || opt.workload == "twin_kv";
}

}  // namespace

double peak_rss_mb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench_runner --workload "
                 "{lock_bench1|kv_hash_zipf|kv_mvcc_reads|twin_kv} --seed N "
                 "--seconds S --trace {0|1}\n";
    return 2;
  }
  // Host noise first, on an otherwise idle process, so it shows beside the
  // numbers the run is about to take.
  double longest_gap_us = 0;
  const double gaps_per_s =
      deschedule_gaps_per_s(kHostProbeSeconds, &longest_gap_us);

  RunResult r = opt.trace ? run_ledger(opt) : run_end_to_end(opt);
  if (opt.trace) r.set("host.deschedule_gaps_per_s", gaps_per_s, "1/s");

  std::ostringstream os;
  os << "{\"manifest\": {\"workload\": " << quoted(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << number(opt.seconds)
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << quoted(__VERSION__)
     << ", \"nproc\": " << asl::online_cpus()
     << ", \"host.deschedule_gaps_per_s\": " << number(gaps_per_s)
     << ", \"host.longest_gap_us\": " << number(longest_gap_us) << "}";
  os << ", \"result\": {\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": " << metric_map(r.metrics) << "}";
  os << ", \"extras\": " << metric_map(r.extras) << ", \"notes\": {";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    os << (i ? ", " : "") << quoted(r.notes[i].first) << ": "
       << quoted(r.notes[i].second);
  }
  os << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    os << (i ? ", " : "") << quoted(r.check_failures[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return r.correct ? 0 : 1;
}
