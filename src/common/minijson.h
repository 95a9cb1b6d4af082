#ifndef ROBUSTMAP_COMMON_MINIJSON_H_
#define ROBUSTMAP_COMMON_MINIJSON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace robustmap {

/// A minimal read-side JSON value — just enough for the observability
/// sidecars this tree writes itself (trace-event files, telemetry.json):
/// objects, arrays, strings, numbers, booleans, null. Not a general JSON
/// library: no streaming, no document editing, strict single-document
/// parses only. Object members keep file order; `Find` returns the first
/// member with the key.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member with `key`, or nullptr. Objects only.
  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : members_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  void Append(JsonValue v) { items_.push_back(std::move(v)); }
  void Set(std::string key, JsonValue v) {
    members_.emplace_back(std::move(key), std::move(v));
  }

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON document (trailing whitespace allowed, anything
/// else after it is an error). Errors carry a byte offset.
Result<JsonValue> ParseJson(const std::string& text);

/// Reads and parses a whole file.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; no surrounding quotes).
std::string JsonEscape(const std::string& s);

}  // namespace robustmap

#endif  // ROBUSTMAP_COMMON_MINIJSON_H_
