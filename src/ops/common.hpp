// Internal helpers shared by the built-in operator defines.
#pragma once

#include <functional>
#include <string>

#include "ops/op_def.hpp"

namespace proof::ops {

/// Elementwise unary operator: one input, same-shape output,
/// `cost` FLOP per element, optional scalar reference function.
class UnaryOp final : public OpDef {
 public:
  using ScalarFn = std::function<float(float, const OpContext&)>;

  UnaryOp(std::string type, double cost, ScalarFn fn = nullptr,
          OpClass cls = OpClass::kElementwise)
      : type_(std::move(type)), cost_(cost), fn_(std::move(fn)), class_(cls) {}

  [[nodiscard]] std::string_view type() const override { return type_; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return cost_ * static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return class_; }

  [[nodiscard]] bool has_reference() const override { return fn_ != nullptr; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override;

 private:
  std::string type_;
  double cost_;
  ScalarFn fn_;
  OpClass class_;
};

/// Elementwise binary operator with NumPy broadcasting.
class BinaryOp final : public OpDef {
 public:
  using ScalarFn = std::function<float(float, float)>;

  BinaryOp(std::string type, double cost, ScalarFn fn = nullptr)
      : type_(std::move(type)), cost_(cost), fn_(std::move(fn)) {}

  [[nodiscard]] std::string_view type() const override { return type_; }
  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override;
  [[nodiscard]] double flops(const OpContext& ctx) const override;
  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kElementwise;
  }
  [[nodiscard]] bool has_reference() const override { return fn_ != nullptr; }
  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override;

 private:
  std::string type_;
  double cost_;
  ScalarFn fn_;
};

/// Broadcast-aware element read: returns the flat index into `shape` that a
/// broadcasted read at `out_index` of `out_shape` should use.
[[nodiscard]] int64_t broadcast_index(const Shape& out_shape, int64_t out_index,
                                      const Shape& in_shape);

/// Row-major strides for a shape.
[[nodiscard]] std::vector<int64_t> row_major_strides(const Shape& shape);

}  // namespace proof::ops
