#include "analysis/findings.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "obs/json.h"

namespace wym::analysis {

Severity SeverityOf(const std::string& check) {
  if (check == "todo-issue") return Severity::kWarning;
  return Severity::kError;
}

const char* SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

int Report::StaleCount() const {
  int count = 0;
  for (const lint::Finding& f : findings) {
    if (f.check == "stale-suppression") ++count;
  }
  return count;
}

int Report::ExitCode() const {
  if (StaleCount() > 0) return 6;
  if (!findings.empty()) return 5;
  return 0;
}

void SortFindings(std::vector<lint::Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const lint::Finding& a, const lint::Finding& b) {
              return std::tie(a.path, a.line, a.check, a.message) <
                     std::tie(b.path, b.line, b.check, b.message);
            });
}

std::string RenderText(const Report& report) {
  std::ostringstream os;
  for (const lint::Finding& f : report.findings) {
    os << lint::FormatFinding(f) << "\n";
  }
  if (report.findings.empty()) {
    os << "wym-lint " << report.pass << ": clean (" << report.files_scanned
       << " files, " << report.suppressions_honored
       << " suppressions honored)\n";
  } else {
    os << "wym-lint " << report.pass << ": " << report.findings.size()
       << " finding(s) in " << report.files_scanned << " file(s), "
       << report.suppressions_honored << " suppression(s) honored, "
       << report.StaleCount() << " stale\n";
  }
  return os.str();
}

std::string RenderJson(const Report& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"wym-analysis-report/v1\",\n";
  os << "  \"pass\": \"" << obs::JsonEscape(report.pass) << "\",\n";
  os << "  \"files_scanned\": " << report.files_scanned << ",\n";
  os << "  \"suppressions_honored\": " << report.suppressions_honored
     << ",\n";
  os << "  \"stale_suppressions\": " << report.StaleCount() << ",\n";
  os << "  \"exit_code\": " << report.ExitCode() << ",\n";
  os << "  \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const lint::Finding& f = report.findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"path\": \"" << obs::JsonEscape(f.path) << "\", "
       << "\"line\": " << f.line << ", "
       << "\"check\": \"" << obs::JsonEscape(f.check) << "\", "
       << "\"severity\": \"" << SeverityName(SeverityOf(f.check)) << "\", "
       << "\"message\": \"" << obs::JsonEscape(f.message) << "\"}";
  }
  os << (report.findings.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

}  // namespace wym::analysis
