#include "explain/global.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/table.h"

namespace wym::explain {

GlobalAttribution ComputeGlobalAttribution(const core::WymModel& model,
                                           const data::Dataset& dataset,
                                           size_t top_k) {
  WYM_CHECK(model.fitted());
  GlobalAttribution report;
  report.attributes.assign(model.num_attributes(), AttributeInfluence{});
  for (size_t a = 0; a < report.attributes.size(); ++a) {
    report.attributes[a].attribute = a;
  }

  struct UnitAggregate {
    bool paired = false;
    size_t occurrences = 0;
    double impact_sum = 0.0;
  };
  std::map<std::string, UnitAggregate> units;

  // Explained through the batch path in bounded chunks; aggregation
  // stays in record order.
  constexpr size_t kChunkRecords = 8192;
  const std::span<const data::EmRecord> records(dataset.records);
  std::vector<core::Explanation> explanations;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i % kChunkRecords == 0) {
      explanations = model.ExplainBatch(
          records.subspan(i, std::min(kChunkRecords, records.size() - i)));
    }
    const core::Explanation& explanation = explanations[i % kChunkRecords];
    ++report.records_analyzed;
    for (const auto& eu : explanation.units) {
      AttributeInfluence& influence =
          report.attributes[std::min(eu.unit.AnchorAttribute(),
                                     report.attributes.size() - 1)];
      influence.mean_absolute_impact += std::fabs(eu.impact);
      influence.mean_impact += eu.impact;
      ++influence.unit_count;

      UnitAggregate& aggregate = units[eu.unit.Label()];
      aggregate.paired = eu.unit.paired;
      ++aggregate.occurrences;
      aggregate.impact_sum += eu.impact;
    }
  }
  for (auto& influence : report.attributes) {
    if (influence.unit_count == 0) continue;
    influence.mean_absolute_impact /=
        static_cast<double>(influence.unit_count);
    influence.mean_impact /= static_cast<double>(influence.unit_count);
  }

  // Recurring units (>= 2 occurrences), ranked by mean impact.
  std::vector<RecurringUnit> recurring;
  for (const auto& [label, aggregate] : units) {
    if (aggregate.occurrences < 2) continue;
    recurring.push_back(
        {label, aggregate.paired, aggregate.occurrences,
         aggregate.impact_sum / static_cast<double>(aggregate.occurrences)});
  }
  std::sort(recurring.begin(), recurring.end(),
            [](const RecurringUnit& a, const RecurringUnit& b) {
              return a.mean_impact > b.mean_impact;
            });
  for (size_t i = 0; i < std::min(top_k, recurring.size()); ++i) {
    if (recurring[i].mean_impact <= 0) break;
    report.top_match_units.push_back(recurring[i]);
  }
  for (size_t i = recurring.size(); i-- > 0;) {
    if (report.top_non_match_units.size() == top_k) break;
    if (recurring[i].mean_impact >= 0) break;
    report.top_non_match_units.push_back(recurring[i]);
  }
  return report;
}

std::string RenderGlobalAttribution(const GlobalAttribution& report,
                                    const data::Schema& schema) {
  std::ostringstream out;
  out << "global attribution over " << report.records_analyzed
      << " records\n\n";

  TablePrinter attributes({"attribute", "units", "mean |impact|",
                           "mean impact"});
  for (const auto& influence : report.attributes) {
    const std::string name =
        influence.attribute < schema.size()
            ? schema.attributes[influence.attribute]
            : "attr" + std::to_string(influence.attribute);
    attributes.AddRow({name, std::to_string(influence.unit_count),
                       strings::FormatDouble(influence.mean_absolute_impact,
                                             4),
                       strings::FormatDouble(influence.mean_impact, 4)});
  }
  out << attributes.ToString();

  auto render_units = [&out](const char* title,
                             const std::vector<RecurringUnit>& units) {
    out << '\n' << title << '\n';
    if (units.empty()) {
      out << "  (none)\n";
      return;
    }
    for (const auto& unit : units) {
      out << "  " << unit.label << "  x" << unit.occurrences
          << "  mean impact " << strings::FormatDouble(unit.mean_impact, 4)
          << '\n';
    }
  };
  render_units("top recurring match evidence:", report.top_match_units);
  render_units("top recurring non-match evidence:",
               report.top_non_match_units);
  return out.str();
}

}  // namespace wym::explain
