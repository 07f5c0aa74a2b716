#ifndef GKEYS_WORKLOAD_JSON_H_
#define GKEYS_WORKLOAD_JSON_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gkeys {

/// Minimal JSON reader for workload spec files (src/workload/workload.h).
/// The repo's bench artifacts only ever needed a writer
/// (common/json_writer.h); specs need the other direction. Supports the
/// full value grammar (object / array / string / number / true / false /
/// null) with `\uXXXX` escapes decoded to UTF-8; numbers are held as
/// double (spec fields are counts, seeds, and fractions — all exact in a
/// double's 53-bit mantissa). Parse errors are InvalidArgument naming the
/// 1-based line.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  /// Object members in document order (specs are small; lookup is linear).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  // ---- Typed spec-field helpers (defaults when absent) -----------------
  bool BoolOr(std::string_view key, bool fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_bool() ? v->bool_value() : fallback;
  }
  std::string StringOr(std::string_view key, std::string fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->is_string() ? v->string() : std::move(fallback);
  }

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// content rejected).
StatusOr<JsonValue> ParseJson(std::string_view text);

}  // namespace gkeys

#endif  // GKEYS_WORKLOAD_JSON_H_
