// Seeded inputs, set-up and timed passes of the three benchmark
// workloads. Every input is a pure function of (workload, seed); the
// library under test only ever sees the generated records and tables.
// The training data of each workload's model is the same for every
// seed: the model under test is fixed, and the seed varies the traffic
// it is applied to.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "blocking/candidate_stream.h"
#include "common.h"
#include "core/wym.h"
#include "data/record.h"
#include "data/split.h"

namespace perfbench {

inline constexpr const char* kExplainBatch = "explain-batch";
inline constexpr const char* kMatchTables = "match-tables";
inline constexpr const char* kServeMixed = "serve-mixed";

bool IsWorkload(const std::string& name);

/// Two raw tables plus the ground-truth (left row, right row) pairs.
struct TablePair {
  wym::blocking::EntityTable left;
  wym::blocking::EntityTable right;
  std::set<std::pair<size_t, size_t>> truth;
};

/// Labelled training data of a workload's model: its `train` and
/// `validation` parts (seed-independent).
wym::data::Split MakeTrainingData(const std::string& workload);

/// explain-batch: the held-out T-AB batch.
wym::data::Dataset MakeExplainBatch(uint64_t seed);

/// match-tables: the two product tables matched in the timed phase.
TablePair MakeMatchTables(uint64_t seed);

/// serve-mixed: labelled short product pairs, hot set first.
wym::data::Dataset MakeServePool(uint64_t seed);

/// The records a workload pushes through the pipeline, as labelled
/// pairs: the batch, the blocked candidates of the two tables, or the
/// serving pool. Feeds the traced layer probe and the serve probe.
wym::data::Dataset WorkloadRecords(const std::string& workload, uint64_t seed,
                                   const wym::core::WymModel& model);

/// The two tables a workload's records span: match-tables' own tables,
/// otherwise the left and right sides of `records` (its
/// WorkloadRecords) with the labelled matches as truth.
TablePair WorkloadTables(const std::string& workload, uint64_t seed,
                         const wym::data::Dataset& records);

/// Loads a model file or exits.
wym::core::WymModel LoadModelOrDie(const std::string& path);

/// `wym_perf setup`: generate, fit, save and load `--reps` times.
int RunSetup(const Args& args);
/// `wym_perf pass`: one timed pass of a batch workload in this
/// (fresh) process.
int RunPass(const Args& args);

/// Digest of the matches of left rows below `left_rows`, in
/// (left row, right row) order: row ids, probability and blocking
/// score, bit for bit.
Digest DigestMatches(std::vector<wym::blocking::TableMatch> matches, size_t left_rows);

/// F1 of predictions against labels (0 when undefined).
double F1Score(size_t true_positives, size_t predicted, size_t actual);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
