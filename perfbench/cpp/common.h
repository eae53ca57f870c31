// Shared helpers of the wym_perf benchmark runner: argument parsing,
// clocks, a flat JSON writer, result digests, process memory readings
// and the in-memory span recorder of the traced runs.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// `--key value` pairs after the subcommand. A key without a value is
/// a flag and maps to "".
class Args {
 public:
  Args(int argc, char** argv, int first);

  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const;
  /// Fails the process (exit 2) when the key is missing.
  std::string Require(const std::string& key) const;
  uint64_t GetUint(const std::string& key, uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t NowNs();
inline double NsToSeconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Shortest text that reads back as the same double.
std::string FormatDouble(double value);

/// One-line JSON object, keys in insertion order.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value);
  JsonLine& Int(const std::string& key, uint64_t value);
  JsonLine& Str(const std::string& key, const std::string& value);
  JsonLine& Bool(const std::string& key, bool value);
  /// `json` must already be valid JSON.
  JsonLine& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// FNV-1a over the exact bit patterns of the values fed in, so two
/// digests agree only when every double agrees bit for bit.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(double value);
  std::string Hex() const;

 private:
  uint64_t state_ = 1469598103934665603ull;
};

/// Peak resident set of this process (`VmHWM`), MiB.
double PeakRssMb();

/// Linear-interpolated percentile of `values` (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Span recorder of the traced runs: spans live in memory and are
/// written out once, when the run ends. Single-threaded by design —
/// the traced passes run their layer calls on one thread.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    /// Index of the enclosing span, or -1 for a root.
    int64_t parent = -1;
    std::string request;
  };

  /// Opens a span under the innermost open span; returns its index.
  size_t Begin(const std::string& name);
  void End(size_t index);
  /// Appends a finished span with explicit times (client-side request
  /// spans of the load generator).
  size_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
             int64_t parent, const std::string& request);

  struct LayerTime {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    /// Duration minus the time covered by direct child spans.
    uint64_t self_ns = 0;
  };
  std::map<std::string, LayerTime> SelfTimes() const;

  /// One JSON object per span, one per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

/// Exits the process with code 1 after printing `message` to stderr.
[[noreturn]] void Fail(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
