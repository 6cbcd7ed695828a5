// The benchmark's workloads and layer probes. Each run_* function measures
// the end-to-end metrics of one workload (tracing off); each trace_*
// function measures the per-layer metrics homed on that workload, timing
// calls into the library from these files.
#pragma once

#include "common.h"

namespace perfbench {

enum class KvKind { kHashZipf, kMvccReads };

RunResult run_lock_bench1(const Options& opt);
RunResult trace_lock_bench1(double seconds);

RunResult run_kv(const Options& opt, KvKind kind);
RunResult trace_kv(const Options& opt, KvKind kind, double seconds);

RunResult run_twin_kv(const Options& opt);
RunResult trace_twin_kv(const Options& opt, double seconds);

// Substrate probes that need no workload: timing primitives, lock
// handover, epoch and reclaimer operations, engine operations, trace
// generation and simulator event dispatch.
RunResult substrate_layers();

// The process's peak resident set so far, in MB: VmHWM from
// /proc/self/status. Not getrusage's ru_maxrss: at exec Linux folds the
// launching process's peak into it, so a runner started from Python reads
// the interpreter's memory. Falls back to ru_maxrss where /proc is absent.
double peak_rss_mb();

// Pinned spinner on one CPU for `seconds`: counts gaps over 20 us between
// consecutive clock reads (the thread was descheduled). Returns gaps per
// second; the longest gap lands in `*longest_us`.
double deschedule_gaps_per_s(double seconds, double* longest_us);

}  // namespace perfbench
