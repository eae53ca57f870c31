#include "explain/counterfactual.h"

#include <algorithm>

#include "util/logging.h"

namespace wym::explain {

Counterfactual FindCounterfactual(const core::WymModel& model,
                                  const core::Explanation& explanation,
                                  CounterfactualOptions options) {
  Counterfactual out;
  if (explanation.units.empty()) return out;
  const int original = explanation.prediction;

  // Units ranked by how strongly they support the current prediction.
  const std::vector<size_t> order = explanation.RankTowardClass(original);

  std::vector<bool> removed(explanation.units.size(), false);
  for (size_t step = 0;
       step < std::min(options.max_removals, order.size()); ++step) {
    removed[order[step]] = true;
    out.removed_units.push_back(order[step]);

    std::vector<size_t> keep;
    for (size_t u = 0; u < explanation.units.size(); ++u) {
      if (!removed[u]) keep.push_back(u);
    }
    const core::ScoredUnitSet remaining = explanation.SubsetUnits(keep);
    const double proba = remaining.units.empty()
                             ? 0.0
                             : model.PredictProbaFromUnits(remaining);
    const int prediction = proba >= 0.5 ? 1 : 0;
    if (prediction != original) {
      out.found = true;
      out.flipped_prediction = prediction;
      out.flipped_probability = proba;
      return out;
    }
  }
  out.removed_units.clear();  // Budget exhausted without a flip.
  return out;
}

}  // namespace wym::explain
