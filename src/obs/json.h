#ifndef WYM_OBS_JSON_H_
#define WYM_OBS_JSON_H_

#include <string>
#include <utility>
#include <vector>

/// \file
/// Minimal from-scratch JSON parser, just enough to validate the
/// observability layer's own outputs (trace_event files, bench
/// reports) without external dependencies. Strict on structure
/// (balanced containers, quoted keys, no trailing commas), permissive
/// on numbers (parsed via strtod). Objects preserve key order and
/// allow duplicate keys (Find returns the first), which is all the
/// validators need. Also home to the tree's one JSON string escaper.

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
/// through. The one escaper of the analysis report, explanation JSON
/// and wire protocol.
std::string JsonEscape(const std::string& text);

}  // namespace wym::obs

#endif  // WYM_OBS_JSON_H_
