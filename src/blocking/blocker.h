#ifndef WYM_BLOCKING_BLOCKER_H_
#define WYM_BLOCKING_BLOCKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "data/record.h"

/// \file
/// Shared vocabulary of candidate generation (blocking), the step
/// upstream of matching in a real ER deployment. The Magellan benchmark
/// datasets the paper evaluates on are *outputs* of such blockers —
/// labelled candidate pairs — so this module closes the loop for users
/// who start from two raw entity tables instead of a pre-paired dataset
/// (see examples/end_to_end_er.cpp).
///
/// Candidates themselves come from the streaming tier in
/// candidate_stream.h (token index, optional embedding LSH); this
/// header holds the table and candidate types it shares with the
/// indexes, the token-stage bounds, and the helpers that turn
/// candidates into a labelled dataset and measure blocking recall.

namespace wym::blocking {

/// A table of entity descriptions over one schema.
struct EntityTable {
  data::Schema schema;
  std::vector<data::Entity> rows;

  size_t size() const { return rows.size(); }
};

/// One candidate produced by a blocker.
struct CandidatePair {
  size_t left_row = 0;
  size_t right_row = 0;
  double score = 0.0;
};

/// Token-stage bounds of candidate generation (CandidateStreamOptions
/// ::token): pairs sharing enough rare tokens are scored with
/// whole-record token Jaccard.
struct TokenBlockerOptions {
  /// Minimum number of shared tokens for a pair to be scored at all.
  size_t min_shared_tokens = 1;
  /// Minimum token Jaccard over the full descriptions.
  double min_jaccard = 0.15;
  /// Keep at most this many candidates per left row (best first);
  /// 0 = unlimited.
  size_t max_candidates_per_row = 10;
  /// Tokens occurring in more than this fraction of the right table are
  /// skipped when probing the index (stop-token pruning); 1 disables.
  double max_token_frequency = 0.25;
};

/// Builds an EM dataset from blocked candidates: each candidate becomes
/// a record; `left_identity[i]` / `right_identity[j]` give the
/// ground-truth entity id of the rows (records are labelled match when
/// they agree). Used by the end-to-end example and the blocking tests.
data::Dataset BuildCandidateDataset(const EntityTable& left,
                                    const EntityTable& right,
                                    const std::vector<CandidatePair>& pairs,
                                    const std::vector<size_t>& left_identity,
                                    const std::vector<size_t>& right_identity,
                                    const std::string& name);

/// Blocking recall: the fraction of true matches (same identity) that
/// survive into the candidate set.
double BlockingRecall(const std::vector<CandidatePair>& pairs,
                      const std::vector<size_t>& left_identity,
                      const std::vector<size_t>& right_identity);

}  // namespace wym::blocking

#endif  // WYM_BLOCKING_BLOCKER_H_
