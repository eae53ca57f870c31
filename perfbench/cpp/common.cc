#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Fail("unexpected argument: " + key);
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "";
    }
  }
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::string Args::Require(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) {
    std::fprintf(stderr, "missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

uint64_t Args::GetUint(const std::string& key, uint64_t fallback) const {
  return Has(key) ? std::strtoull(Get(key, "").c_str(), nullptr, 10)
                  : fallback;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatDouble(double value) {
  char buffer[40];
  for (int precision = 9; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

JsonLine& JsonLine::Num(const std::string& key, double value) {
  return Raw(key, FormatDouble(value));
}

JsonLine& JsonLine::Int(const std::string& key, uint64_t value) {
  return Raw(key, std::to_string(value));
}

JsonLine& JsonLine::Str(const std::string& key, const std::string& value) {
  return Raw(key, JsonEscape(value));
}

JsonLine& JsonLine::Bool(const std::string& key, bool value) {
  return Raw(key, value ? "true" : "false");
}

JsonLine& JsonLine::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonLine::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonEscape(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

void Digest::Add(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xFF;
    state_ *= 1099511628211ull;
  }
}

void Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtol(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

size_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

size_t SpanRecorder::Add(const std::string& name, uint64_t start_ns,
                         uint64_t end_ns, int64_t parent,
                         const std::string& request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return spans_.size() - 1;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::SelfTimes()
    const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t total = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& layer = out[spans_[i].name];
    ++layer.count;
    layer.total_ns += total;
    layer.self_ns += total > child_ns[i] ? total - child_ns[i] : 0;
  }
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    JsonLine line;
    line.Int("id", i).Str("name", span.name).Int("start_ns", span.start_ns)
        .Int("end_ns", span.end_ns)
        .Raw("parent", span.parent < 0 ? "null" : std::to_string(span.parent));
    if (!span.request.empty()) line.Str("req", span.request);
    out << line.Render() << '\n';
  }
  return static_cast<bool>(out);
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "wym_perf: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace perfbench
