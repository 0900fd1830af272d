// Minimal JSON support for the artifacts this library writes: run reports
// (obs::writeRunReport), Chrome trace-event files, curve sections and the
// robustd STATS document. The two writer helpers are the one escape and
// number rule every writer shares; the reader exists so tests and the
// report_check tool can verify schemas without an external dependency. It
// is not a general-purpose JSON library (\uXXXX escapes are decoded for the
// Basic Multilingual Plane only — no surrogate pairs, which our writers
// never emit — and numbers are parsed as double).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace robust::obs::json {

/// `s` escaped for use inside a JSON string literal (no surrounding
/// quotes): `"` and `\` get a backslash, newline and tab their short
/// forms, every other control character \u00XX.
[[nodiscard]] std::string escape(std::string_view s);

/// `v` as a JSON number: %.17g (round-trips) when finite. JSON has no
/// infinity or NaN literal, so +/-infinity render as the extreme finite
/// doubles and NaN as 0.
[[nodiscard]] std::string number(double v);

/// One parsed JSON value. Object member order is preserved.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  [[nodiscard]] bool isNull() const noexcept { return kind == Kind::Null; }
  [[nodiscard]] bool isBool() const noexcept { return kind == Kind::Bool; }
  [[nodiscard]] bool isNumber() const noexcept { return kind == Kind::Number; }
  [[nodiscard]] bool isString() const noexcept { return kind == Kind::String; }
  [[nodiscard]] bool isArray() const noexcept { return kind == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept { return kind == Kind::Object; }

  /// Member of an object by key, or nullptr (also nullptr on non-objects).
  [[nodiscard]] const Value* find(std::string_view key) const noexcept;
};

/// Parses one JSON document (the whole input must be consumed). Throws
/// std::runtime_error naming the byte offset on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Reads and parses a JSON file. Throws std::runtime_error when the file
/// cannot be read or does not parse.
[[nodiscard]] Value parseFile(const std::string& path);

}  // namespace robust::obs::json
