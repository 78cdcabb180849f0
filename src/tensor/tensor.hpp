// Tensor descriptors and a dense reference tensor.
//
// TensorDesc is what the analysis layer works with: dtype + shape + whether
// the tensor is a model parameter (initializer).  A tensor's name is its key
// in the graph that declares it (Graph::set_tensor / tensor_name).  Tensor adds typed
// storage and is only used by the reference executor in tests, so storage is
// kept simple: everything is held as float regardless of the logical dtype.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace proof {

/// Metadata of one tensor in a model graph.
struct TensorDesc {
  DType dtype = DType::kF32;
  Shape shape;
  /// True when the tensor is a weight/bias baked into the model.
  bool is_param = false;

  /// Bytes occupied by the tensor contents at its logical dtype.
  [[nodiscard]] int64_t size_bytes() const {
    return shape.numel() * static_cast<int64_t>(dtype_size(dtype));
  }

  [[nodiscard]] int64_t numel() const { return shape.numel(); }
};

/// Dense tensor with float storage, used by the reference executor.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, std::vector<float> values);

  /// Tensor filled with deterministic pseudo-random values in [-1, 1),
  /// keyed by `seed_key` so the same tensor name always gets the same data.
  static Tensor random(const Shape& shape, const std::string& seed_key);

  /// Tensor filled with a constant.
  static Tensor full(const Shape& shape, float value);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] int64_t numel() const { return shape_.numel(); }

  [[nodiscard]] float* data() { return values_.data(); }
  [[nodiscard]] const float* data() const { return values_.data(); }

  [[nodiscard]] float at(int64_t index) const { return values_.at(static_cast<size_t>(index)); }
  float& at(int64_t index) { return values_.at(static_cast<size_t>(index)); }

  [[nodiscard]] const std::vector<float>& values() const { return values_; }

 private:
  Shape shape_;
  std::vector<float> values_;
};

}  // namespace proof
