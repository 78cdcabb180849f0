// Node attributes (ONNX-style): a small named-value map attached to a node.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace proof {

using AttrValue = std::variant<int64_t, double, std::string, std::vector<int64_t>,
                               std::vector<double>>;

/// Ordered attribute map with heterogeneous (string_view, allocation-free)
/// lookup.  Accessors throw proof::Error on missing keys or type mismatches;
/// the *_or variants return a default instead.
class AttrMap {
 public:
  /// Ordered storage (std::less<> enables transparent string_view find);
  /// ordering keeps serialization and fingerprinting deterministic.
  using Map = std::map<std::string, AttrValue, std::less<>>;

  void set(const std::string& key, AttrValue value) { values_[key] = std::move(value); }

  [[nodiscard]] bool has(std::string_view key) const {
    return values_.find(key) != values_.end();
  }

  [[nodiscard]] int64_t get_int(std::string_view key) const;
  [[nodiscard]] int64_t get_int_or(std::string_view key, int64_t fallback) const;
  [[nodiscard]] double get_float(std::string_view key) const;
  [[nodiscard]] double get_float_or(std::string_view key, double fallback) const;
  [[nodiscard]] const std::string& get_string(std::string_view key) const;
  [[nodiscard]] std::string get_string_or(std::string_view key,
                                          std::string_view fallback) const;
  [[nodiscard]] const std::vector<int64_t>& get_ints(std::string_view key) const;
  [[nodiscard]] std::vector<int64_t> get_ints_or(std::string_view key,
                                                 std::vector<int64_t> fallback) const;

  [[nodiscard]] const Map& raw() const { return values_; }

  [[nodiscard]] bool operator==(const AttrMap& other) const = default;

 private:
  Map values_;
};

}  // namespace proof
