// Tensor shapes.
//
// Shapes are fully static during inference (the paper's analytical model
// relies on DNNs having static control flow), so a shape is simply an ordered
// list of non-negative extents.  A scalar is rank-0.
//
// Storage: up to kInlineRank extents live inside the object, longer shapes
// spill to one heap buffer.  kInlineRank covers every tensor in the model
// zoo, so copying, broadcasting or re-inferring a shape allocates nothing;
// the spill keeps higher ranks legal rather than adding a rank limit.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace proof {

class Shape {
 public:
  /// Extents stored without a heap allocation (the zoo's largest rank).
  static constexpr size_t kInlineRank = 6;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims);
  explicit Shape(std::span<const int64_t> dims);

  Shape(const Shape& other) = default;
  Shape& operator=(const Shape& other) = default;
  // Moves leave the source a scalar (rank 0), never a rank without storage.
  Shape(Shape&& other) noexcept;
  Shape& operator=(Shape&& other) noexcept;

  [[nodiscard]] size_t rank() const { return rank_; }
  [[nodiscard]] bool empty() const { return rank_ == 0; }

  /// Extent of dimension `axis`; negative axes count from the back.
  [[nodiscard]] int64_t dim(int axis) const;

  /// Mutable access (positive axis only).
  void set_dim(int axis, int64_t value);

  /// The extents, outermost first; valid until the shape is next modified.
  [[nodiscard]] std::span<const int64_t> dims() const { return {data(), rank_}; }

  /// Total element count (1 for scalars).
  [[nodiscard]] int64_t numel() const;

  /// "[1, 3, 224, 224]" rendering.
  [[nodiscard]] std::string to_string() const;

  /// Normalizes a possibly-negative axis against this shape's rank;
  /// throws on out-of-range.
  [[nodiscard]] int normalize_axis(int axis) const;

  /// NumPy-style broadcast of two shapes; throws when incompatible.
  [[nodiscard]] static Shape broadcast(const Shape& a, const Shape& b);

  /// True when `a` can broadcast against `b`.
  [[nodiscard]] static bool broadcastable(const Shape& a, const Shape& b);

  bool operator==(const Shape& other) const;

  void push_back(int64_t dim);
  void insert_dim(int axis, int64_t dim);
  void erase_dim(int axis);

 private:
  [[nodiscard]] const int64_t* data() const {
    return rank_ <= kInlineRank ? inline_ : spill_.data();
  }
  [[nodiscard]] int64_t* data() { return rank_ <= kInlineRank ? inline_ : spill_.data(); }
  /// Sets the rank to `rank`, keeping the leading extents and moving them
  /// between the inline buffer and the spill as the rank crosses
  /// kInlineRank.  Extents past the old rank are unspecified.
  void resize(size_t rank);

  size_t rank_ = 0;
  int64_t inline_[kInlineRank] = {};
  std::vector<int64_t> spill_;  ///< the extents when rank_ > kInlineRank
};

}  // namespace proof
