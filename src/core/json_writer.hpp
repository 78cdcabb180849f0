// Minimal JSON writer: enough for flat objects/arrays of strings + numbers.
// Shared by the report serializers (report_json.cpp, decode_sweep.cpp) and
// the serve daemon's small replies, so every JSON document formats numbers
// identically — a requirement for byte-reproducible golden diffing.
//
// The writer appends to one std::string; there is no stream in the path.
// Number format contract:
//  * a finite double is written as printf("%.12g") writes it: shortest of
//    fixed/scientific at 12 significant digits, trailing zeros dropped, "-0"
//    for negative zero.  It comes from std::to_chars(..., general, 12), which
//    the standard defines as exactly that printf conversion in the C locale;
//    an ostream at precision(12) — what the serializers used before, and what
//    tests/test_report_json.cpp keeps as the oracle — performs the same
//    conversion, so the bytes are unchanged.  NaN and +-inf are written as
//    null (JSON has no spelling for them);
//  * integers are plain decimal (std::to_chars);
//  * strings and keys go through json::append_escaped (support/json.hpp).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/json.hpp"

namespace proof {

class JsonWriter {
 public:
  JsonWriter() = default;
  /// Reserves `capacity` bytes up front (an estimate of the document size).
  explicit JsonWriter(size_t capacity) { out_.reserve(capacity); }

  void begin_object() { separator(); out_.push_back('{'); fresh_ = true; }
  void begin_object(std::string_view key) {
    separator();
    emit_key(key);
    out_.push_back('{');
    fresh_ = true;
  }
  void end_object() { out_.push_back('}'); fresh_ = false; }
  void begin_array(std::string_view key) {
    separator();
    emit_key(key);
    out_.push_back('[');
    fresh_ = true;
  }
  void end_array() { out_.push_back(']'); fresh_ = false; }

  void field(std::string_view key, std::string_view value) {
    separator();
    emit_key(key);
    json::append_quoted(out_, value);
  }
  /// Without this overload a string literal would convert to bool.
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, double value) {
    separator();
    emit_key(key);
    emit_number(value);
  }
  void field(std::string_view key, int64_t value) {
    separator();
    emit_key(key);
    emit_int(value);
  }
  void field(std::string_view key, bool value) {
    separator();
    emit_key(key);
    out_.append(value ? "true" : "false");
  }
  void string_element(std::string_view value) {
    separator();
    json::append_quoted(out_, value);
  }
  /// Splices a pre-serialized JSON value under `key` (self-profile section).
  void raw_field(std::string_view key, std::string_view json) {
    separator();
    emit_key(key);
    out_.append(json);
  }
  /// Splices a pre-serialized JSON value as an array element.
  void raw_element(std::string_view json) {
    separator();
    out_.append(json);
  }

  /// The document, in a string sized exactly to it.  Leaves the writer empty.
  [[nodiscard]] std::string take() {
    out_.shrink_to_fit();
    std::string done = std::move(out_);
    out_.clear();
    fresh_ = true;
    return done;
  }

 private:
  void separator() {
    if (!fresh_) {
      out_.push_back(',');
    }
    fresh_ = false;
  }
  void emit_key(std::string_view key) {
    json::append_quoted(out_, key);
    out_.push_back(':');
  }
  void emit_number(double value) {
    if (!std::isfinite(value)) {
      out_.append("null");
      return;
    }
    char buf[32];  // "%.12g" needs at most 19 bytes ("-1.23456789012e-308")
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, 12);
    out_.append(buf, r.ptr);
  }
  void emit_int(int64_t value) {
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, r.ptr);
  }

  std::string out_;
  bool fresh_ = true;
};

}  // namespace proof
