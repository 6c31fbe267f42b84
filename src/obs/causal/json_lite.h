// Minimal recursive-descent JSON reader for the analysis tooling.
//
// cruz_analyze consumes files the simulation itself wrote (trace JSONL,
// MetricsRegistry::ExportJson snapshots), so this parser only needs to be
// correct for well-formed JSON, not forgiving: any syntax error fails the
// parse, a raw control character inside a string included. Object keys
// keep insertion order; numbers keep their raw text so 64-bit nanosecond
// timestamps round-trip exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cruz::obs::causal {

struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  std::string text;  // string value, or raw number text
  std::vector<JsonValue> items;                          // arrays
  std::vector<std::pair<std::string, JsonValue>> fields;  // objects

  // First field with this key; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Number/string as u64 (raw text, exact for 64-bit); 0 on mismatch.
  std::uint64_t AsU64() const;
  double AsDouble() const;
};

// Parses exactly one JSON value (trailing whitespace allowed, trailing
// garbage is an error). Returns false with a message in `error`.
bool ParseJson(const std::string& text, JsonValue& out, std::string& error);

}  // namespace cruz::obs::causal
