#ifndef WYM_OBS_JSON_H_
#define WYM_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file
/// The tree's JSON, both directions, with no external dependencies.
///
/// Reading: a minimal from-scratch parser, just enough to validate the
/// observability layer's own outputs (trace_event files, bench
/// reports) and to read the wire protocol. Strict on structure
/// (balanced containers, quoted keys, no trailing commas), permissive
/// on numbers (parsed via strtod). Objects preserve key order and
/// allow duplicate keys (Find returns the first), which is all the
/// validators need.
///
/// Writing: JsonEscape, the one string escaper, and JsonWriter, the one
/// streaming emitter every serializer renders through (metrics, the
/// journal, flight-recorder dumps, telemetry, trace files, the wire
/// protocol, explanations, bench reports). The only hand-written JSON
/// left is analysis::RenderJson, the one indented document.

namespace wym::obs {

/// One parsed JSON value; a tagged tree.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// First member with `key`, or nullptr. Object-kind only.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses `text` into `*out`. On failure returns false and describes
/// the problem (with a line number) in `*error` when non-null.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

/// The body of a JSON string literal for `text`, without the quotes:
/// `"` `\` `\n` `\r` `\t` get their short escapes, other bytes below
/// 0x20 become `\u00xx`, everything else (UTF-8 included) passes
/// through. The escaper behind JsonWriter::String and the analysis
/// report.
std::string JsonEscape(const std::string& text);

/// Streaming JSON emitter that appends to a caller-owned string.
///
/// The writer places the commas; callers emit keys and values in
/// document order and never write punctuation themselves. It keeps one
/// flag of state and never allocates beyond the target string's own
/// growth, so a caller that reuses its string renders without touching
/// the heap in steady state. The caller may clear or flush the string
/// between values (the trace writer streams one event at a time) and
/// may append whitespace between tokens. Structure is not validated:
/// unbalanced Begin/End calls produce unbalanced text.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  /// An object member's key; the next call writes its value, which
  /// the returned reference lets the caller chain:
  /// `w.Key("seq").Uint(seq);`.
  JsonWriter& Key(std::string_view key);

  /// A quoted string, escaped as JsonEscape does.
  void String(std::string_view value);
  void Uint(std::uint64_t value);
  void Int(std::int64_t value);
  void Bool(bool value) { Raw(value ? "true" : "false"); }
  /// The shortest `%.*g` spelling (9 to 17 digits) that strtod reads
  /// back as exactly `value`. Non-finite values have no JSON spelling
  /// and render as `0`.
  void Double(double value);
  /// `%.*f` with `digits` decimals: a fixed-precision number for
  /// artifacts whose spelling is part of their contract.
  void Fixed(double value, int digits);
  /// An already-rendered JSON value, appended verbatim (leading
  /// whitespace included).
  void Raw(std::string_view json);

 private:
  /// Writes the separating comma (when a value precedes this one in
  /// its container), then `bracket`.
  void Open(char bracket);
  void Close(char bracket);

  std::string* out_;
  /// True after a complete value or member: the next one needs a comma.
  bool need_comma_ = false;
};

}  // namespace wym::obs

#endif  // WYM_OBS_JSON_H_
