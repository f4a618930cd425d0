// Minimal JSON reader for the sweep engine's own JSON-lines output.
//
// The report generator (`axihc --sweep-report`) and the digest pin checker
// (`--sweep-check`) consume files this repo's writers produced, so the
// parser is deliberately small: UTF-8 passthrough, \u00XX escapes below
// 0x80 decoded and other \uXXXX kept verbatim, numbers as double plus the raw token (so 64-bit digests printed
// as strings stay exact — the writers quote anything that must round-trip).
// Throws ModelError on malformed input.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace axihc {

/// A malformed line of a JSON-lines file (sweep rows, pins). `line` is
/// 1-based; the CLI reports it as `axihc: <file>:<line>: <what>`.
class JsonLineError : public ModelError {
 public:
  JsonLineError(std::size_t line, const std::string& what)
      : ModelError(what), line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw;  ///< number token or string contents
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  /// Object member lookup (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
  [[nodiscard]] double num_or(double fallback) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  [[nodiscard]] std::string str_or(const std::string& fallback) const {
    return kind == Kind::kString ? raw : fallback;
  }
};

/// Parses one complete JSON document (throws ModelError on trailing junk).
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// parse_json for line `line` of a JSON-lines file: throws JsonLineError.
[[nodiscard]] JsonValue parse_json_line(const std::string& text,
                                        std::size_t line);

}  // namespace axihc
