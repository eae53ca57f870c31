#include "blocking/blocker.h"

#include <map>
#include <set>
#include <utility>

#include "util/logging.h"

namespace wym::blocking {

data::Dataset BuildCandidateDataset(const EntityTable& left,
                                    const EntityTable& right,
                                    const std::vector<CandidatePair>& pairs,
                                    const std::vector<size_t>& left_identity,
                                    const std::vector<size_t>& right_identity,
                                    const std::string& name) {
  WYM_CHECK_EQ(left_identity.size(), left.size());
  WYM_CHECK_EQ(right_identity.size(), right.size());
  data::Dataset dataset;
  dataset.name = name;
  dataset.schema = left.schema;
  dataset.records.reserve(pairs.size());
  for (const auto& pair : pairs) {
    WYM_CHECK_LT(pair.left_row, left.size());
    WYM_CHECK_LT(pair.right_row, right.size());
    data::EmRecord record;
    record.left = left.rows[pair.left_row];
    record.right = right.rows[pair.right_row];
    record.label = left_identity[pair.left_row] ==
                           right_identity[pair.right_row]
                       ? 1
                       : 0;
    dataset.records.push_back(std::move(record));
  }
  return dataset;
}

double BlockingRecall(const std::vector<CandidatePair>& pairs,
                      const std::vector<size_t>& left_identity,
                      const std::vector<size_t>& right_identity) {
  // True matches: (l, r) with equal identities.
  std::map<size_t, std::vector<size_t>> right_by_identity;
  for (size_t r = 0; r < right_identity.size(); ++r) {
    right_by_identity[right_identity[r]].push_back(r);
  }
  size_t total = 0;
  std::set<std::pair<size_t, size_t>> truth;
  for (size_t l = 0; l < left_identity.size(); ++l) {
    auto it = right_by_identity.find(left_identity[l]);
    if (it == right_by_identity.end()) continue;
    for (size_t r : it->second) {
      truth.emplace(l, r);
      ++total;
    }
  }
  if (total == 0) return 1.0;
  size_t found = 0;
  for (const auto& pair : pairs) {
    found += truth.count({pair.left_row, pair.right_row});
  }
  return static_cast<double>(found) / static_cast<double>(total);
}

}  // namespace wym::blocking
