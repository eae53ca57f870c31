// The traced run: spans around the benchmark's own calls into each
// module's public functions, plus the counters the program exports
// through the obs registry, reduced to the per-layer metrics.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "common.h"

namespace perfbench {

/// `wym_perf trace`: the workload's traced phase plus the layer probe
/// over the workload's records; prints one JSON object with the
/// in-process per-layer metrics and writes the spans to `--spans`.
int RunTrace(const Args& args);

/// Prints the per-layer self-time table of a recorder to stderr.
void PrintSelfTimes(const SpanRecorder& spans, const std::string& title);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
