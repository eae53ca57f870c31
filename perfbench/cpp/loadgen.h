// Open-loop load generator for wym_serve: one process, one thread,
// a seeded Poisson schedule per offered rate, every request timed from
// the moment it was due.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include "common.h"

namespace perfbench {

/// `wym_perf loadgen`: warms the server up, runs the schedule, checks
/// every response, and prints one JSON object with the per-rate
/// latencies, the generator's own lag and the serve-side layer metrics.
int RunLoadgen(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
