#include "tensor/shape.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace proof {

Shape::Shape(std::initializer_list<int64_t> dims)
    : Shape(std::span<const int64_t>(dims.begin(), dims.size())) {}

Shape::Shape(std::span<const int64_t> dims) {
  resize(dims.size());
  std::copy(dims.begin(), dims.end(), data());
  for (const int64_t d : dims) {
    PROOF_CHECK(d >= 0, "negative extent in shape " << to_string());
  }
}

Shape::Shape(Shape&& other) noexcept
    : rank_(std::exchange(other.rank_, 0)), spill_(std::move(other.spill_)) {
  std::copy(std::begin(other.inline_), std::end(other.inline_), inline_);
}

Shape& Shape::operator=(Shape&& other) noexcept {
  if (this != &other) {
    rank_ = std::exchange(other.rank_, 0);
    std::copy(std::begin(other.inline_), std::end(other.inline_), inline_);
    spill_ = std::move(other.spill_);
  }
  return *this;
}

void Shape::resize(size_t rank) {
  if (rank > kInlineRank) {
    if (rank_ <= kInlineRank) {
      spill_.assign(inline_, inline_ + rank_);
    }
    spill_.resize(rank);
  } else if (rank_ > kInlineRank) {
    std::copy_n(spill_.begin(), rank, inline_);
    spill_ = {};
  }
  rank_ = rank;
}

int64_t Shape::dim(int axis) const {
  return data()[normalize_axis(axis)];
}

void Shape::set_dim(int axis, int64_t value) {
  PROOF_CHECK(value >= 0, "negative extent " << value);
  data()[normalize_axis(axis)] = value;
}

int64_t Shape::numel() const {
  int64_t n = 1;
  for (const int64_t d : dims()) {
    n *= d;
  }
  return n;
}

std::string Shape::to_string() const {
  std::string out = "[";
  for (size_t i = 0; i < rank_; ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += std::to_string(data()[i]);
  }
  out += "]";
  return out;
}

int Shape::normalize_axis(int axis) const {
  const int r = static_cast<int>(rank());
  const int normalized = axis < 0 ? axis + r : axis;
  PROOF_CHECK(normalized >= 0 && normalized < r,
              "axis " << axis << " out of range for rank " << r);
  return normalized;
}

bool Shape::operator==(const Shape& other) const {
  return std::ranges::equal(dims(), other.dims());
}

Shape Shape::broadcast(const Shape& a, const Shape& b) {
  const size_t out_rank = std::max(a.rank(), b.rank());
  Shape out;
  out.resize(out_rank);
  int64_t* out_dims = out.data();
  for (size_t i = 0; i < out_rank; ++i) {
    const int64_t da = i < a.rank() ? a.dims()[a.rank() - 1 - i] : 1;
    const int64_t db = i < b.rank() ? b.dims()[b.rank() - 1 - i] : 1;
    PROOF_CHECK(da == db || da == 1 || db == 1,
                "shapes not broadcastable: " << a.to_string() << " vs " << b.to_string());
    out_dims[out_rank - 1 - i] = std::max(da, db);
  }
  return out;
}

bool Shape::broadcastable(const Shape& a, const Shape& b) {
  const size_t out_rank = std::max(a.rank(), b.rank());
  for (size_t i = 0; i < out_rank; ++i) {
    const int64_t da = i < a.rank() ? a.dims()[a.rank() - 1 - i] : 1;
    const int64_t db = i < b.rank() ? b.dims()[b.rank() - 1 - i] : 1;
    if (da != db && da != 1 && db != 1) {
      return false;
    }
  }
  return true;
}

void Shape::push_back(int64_t dim) {
  resize(rank_ + 1);
  data()[rank_ - 1] = dim;
}

void Shape::insert_dim(int axis, int64_t dim) {
  PROOF_CHECK(dim >= 0, "negative extent " << dim);
  const int r = static_cast<int>(rank());
  const int normalized = axis < 0 ? axis + r + 1 : axis;
  PROOF_CHECK(normalized >= 0 && normalized <= r,
              "insert axis " << axis << " out of range for rank " << r);
  resize(rank_ + 1);
  int64_t* d = data();
  std::copy_backward(d + normalized, d + rank_ - 1, d + rank_);
  d[normalized] = dim;
}

void Shape::erase_dim(int axis) {
  const int normalized = normalize_axis(axis);
  int64_t* d = data();
  std::copy(d + normalized + 1, d + rank_, d + normalized);
  resize(rank_ - 1);
}

}  // namespace proof
