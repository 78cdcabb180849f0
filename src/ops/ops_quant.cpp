// Quantization operator defines: QuantizeLinear / DequantizeLinear (the ONNX
// QDQ representation the paper's int8 runs execute).
#include <cmath>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

/// QuantizeLinear(x, scale[, zero_point]) -> int8 tensor of x's shape.
class QuantizeLinearOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "QuantizeLinear"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    PROOF_CHECK(ctx.num_inputs() >= 2, "QuantizeLinear needs x and scale");
    TensorDesc out;
    out.dtype = DType::kI8;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    // scale-divide + round per element.
    return (flop_cost::kDiv + 1.0) * static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kElementwise;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext&, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const float scale = inputs[1]->at(0);
    for (int64_t i = 0; i < inputs[0]->numel(); ++i) {
      const float q = std::round(inputs[0]->at(i) / scale);
      outputs[0].at(i) = std::min(127.0f, std::max(-128.0f, q));
    }
  }
};

/// DequantizeLinear(x_int8, scale) -> float tensor of x's shape; the output
/// precision follows the scale parameter so fp16 deployments flow through.
class DequantizeLinearOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override {
    return "DequantizeLinear";
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    PROOF_CHECK(ctx.num_inputs() >= 2, "DequantizeLinear needs x and scale");
    TensorDesc out;
    out.dtype = ctx.input(1).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return static_cast<double>(ctx.in_shape(0).numel());  // one multiply
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kElementwise;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext&, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const float scale = inputs[1]->at(0);
    for (int64_t i = 0; i < inputs[0]->numel(); ++i) {
      outputs[0].at(i) = inputs[0]->at(i) * scale;
    }
  }
};

}  // namespace

void register_quant_ops(OpRegistry& r) {
  r.add(std::make_unique<QuantizeLinearOp>());
  r.add(std::make_unique<DequantizeLinearOp>());
}

}  // namespace proof::ops
