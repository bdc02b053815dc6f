#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Each sets up its input from the seed, measures
// for args.seconds, checks the program's outputs into `result`, and sets
// the end-to-end metrics (untraced) or the per-layer metrics (traced).

#include "bench_common.h"

namespace perfbench {

/// The paper's pipeline: one global AQ-K-slack feeding a tumbling sum,
/// driven through StreamSession::Ingest on the benchmark thread.
void RunAqGlobal(const RunArgs& args, RunResult* result);

/// ShardedKeyedRunner, 3 workers: per-key fixed K-slack feeding a sliding
/// mean with per-key watermarks over Zipf keys.
void RunKeyedSharded(const RunArgs& args, RunResult* result);

/// In-process StreamQServer on loopback, 3 tenants, one closed-loop client
/// connection each.
void RunServiceLoopback(const RunArgs& args, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
