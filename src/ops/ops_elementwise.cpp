// Elementwise operator defines: arithmetic, activations, comparisons.
#include <cmath>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

void UnaryOp::eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
                   std::vector<Tensor>& outputs) const {
  PROOF_CHECK(fn_ != nullptr, "no reference for '" << type_ << "'");
  PROOF_CHECK(inputs.size() >= 1 && outputs.size() == 1,
              "unary op '" << type_ << "' arity mismatch");
  const Tensor& in = *inputs[0];
  Tensor& out = outputs[0];
  for (int64_t i = 0; i < in.numel(); ++i) {
    out.at(i) = fn_(in.at(i), ctx);
  }
}

std::vector<TensorDesc> BinaryOp::infer(const OpContext& ctx) const {
  TensorDesc out;
  out.dtype = ctx.input(0).dtype;
  out.shape = Shape::broadcast(ctx.in_shape(0), ctx.in_shape(1));
  return single_output(std::move(out));
}

double BinaryOp::flops(const OpContext& ctx) const {
  const Shape out = Shape::broadcast(ctx.in_shape(0), ctx.in_shape(1));
  return cost_ * static_cast<double>(out.numel());
}

void BinaryOp::eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
                    std::vector<Tensor>& outputs) const {
  PROOF_CHECK(fn_ != nullptr, "no reference for '" << type_ << "'");
  PROOF_CHECK(inputs.size() == 2 && outputs.size() == 1,
              "binary op '" << type_ << "' arity mismatch");
  const Shape out_shape = Shape::broadcast(ctx.in_shape(0), ctx.in_shape(1));
  Tensor& out = outputs[0];
  for (int64_t i = 0; i < out_shape.numel(); ++i) {
    const int64_t ia = broadcast_index(out_shape, i, ctx.in_shape(0));
    const int64_t ib = broadcast_index(out_shape, i, ctx.in_shape(1));
    out.at(i) = fn_(inputs[0]->at(ia), inputs[1]->at(ib));
  }
}

std::vector<int64_t> row_major_strides(const Shape& shape) {
  std::vector<int64_t> strides(shape.rank(), 1);
  for (int i = static_cast<int>(shape.rank()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i) + 1] * shape.dims()[static_cast<size_t>(i) + 1];
  }
  return strides;
}

int64_t broadcast_index(const Shape& out_shape, int64_t out_index, const Shape& in_shape) {
  const size_t out_rank = out_shape.rank();
  const size_t in_rank = in_shape.rank();
  int64_t remaining = out_index;
  int64_t in_index = 0;
  int64_t in_stride = 1;
  // Walk dims from the last to the first, accumulating the input offset.
  std::vector<int64_t> out_coord(out_rank, 0);
  for (int d = static_cast<int>(out_rank) - 1; d >= 0; --d) {
    const int64_t extent = out_shape.dims()[static_cast<size_t>(d)];
    out_coord[static_cast<size_t>(d)] = remaining % extent;
    remaining /= extent;
  }
  for (int d = static_cast<int>(in_rank) - 1; d >= 0; --d) {
    const int64_t in_extent = in_shape.dims()[static_cast<size_t>(d)];
    const size_t out_d = out_rank - in_rank + static_cast<size_t>(d);
    const int64_t coord = in_extent == 1 ? 0 : out_coord[out_d];
    in_index += coord * in_stride;
    in_stride *= in_extent;
  }
  return in_index;
}

void register_elementwise_ops(OpRegistry& r) {
  using C = OpContext;
  // Binary arithmetic.
  r.add(std::make_unique<BinaryOp>("Add", flop_cost::kAdd,
                                   [](float a, float b) { return a + b; }));
  r.add(std::make_unique<BinaryOp>("Sub", flop_cost::kAdd,
                                   [](float a, float b) { return a - b; }));
  r.add(std::make_unique<BinaryOp>("Mul", flop_cost::kMul,
                                   [](float a, float b) { return a * b; }));
  r.add(std::make_unique<BinaryOp>("Div", flop_cost::kDiv,
                                   [](float a, float b) { return a / b; }));
  r.add(std::make_unique<BinaryOp>("Pow", flop_cost::kExp,
                                   [](float a, float b) { return std::pow(a, b); }));
  r.add(std::make_unique<BinaryOp>("Min", flop_cost::kCompare,
                                   [](float a, float b) { return std::min(a, b); }));
  r.add(std::make_unique<BinaryOp>("Max", flop_cost::kCompare,
                                   [](float a, float b) { return std::max(a, b); }));
  r.add(std::make_unique<BinaryOp>("Equal", flop_cost::kCompare,
                                   [](float a, float b) { return a == b ? 1.0f : 0.0f; }));

  // Unary activations / math.
  r.add(std::make_unique<UnaryOp>("Relu", 1.0,
                                  [](float x, const C&) { return x > 0.0f ? x : 0.0f; }));
  r.add(std::make_unique<UnaryOp>(
      "LeakyRelu", 2.0, [](float x, const C& ctx) {
        const float alpha = static_cast<float>(ctx.attrs().get_float_or("alpha", 0.01));
        return x > 0.0f ? x : alpha * x;
      }));
  r.add(std::make_unique<UnaryOp>("Sigmoid", flop_cost::kExp + flop_cost::kDiv + 1.0,
                                  [](float x, const C&) {
                                    return 1.0f / (1.0f + std::exp(-x));
                                  }));
  r.add(std::make_unique<UnaryOp>("Tanh", flop_cost::kTanh,
                                  [](float x, const C&) { return std::tanh(x); }));
  r.add(std::make_unique<UnaryOp>("Erf", flop_cost::kErf,
                                  [](float x, const C&) { return std::erf(x); }));
  r.add(std::make_unique<UnaryOp>("Exp", flop_cost::kExp,
                                  [](float x, const C&) { return std::exp(x); }));
  r.add(std::make_unique<UnaryOp>("Log", flop_cost::kLog,
                                  [](float x, const C&) { return std::log(x); }));
  r.add(std::make_unique<UnaryOp>("Sqrt", flop_cost::kSqrt,
                                  [](float x, const C&) { return std::sqrt(x); }));
  r.add(std::make_unique<UnaryOp>("Reciprocal", flop_cost::kDiv,
                                  [](float x, const C&) { return 1.0f / x; }));
  r.add(std::make_unique<UnaryOp>("Neg", 1.0, [](float x, const C&) { return -x; }));
  r.add(std::make_unique<UnaryOp>(
      "Clip", 2.0 * flop_cost::kCompare, [](float x, const C& ctx) {
        const float lo = static_cast<float>(ctx.attrs().get_float_or("min", -3.4e38));
        const float hi = static_cast<float>(ctx.attrs().get_float_or("max", 3.4e38));
        return std::min(hi, std::max(lo, x));
      }));
  r.add(std::make_unique<UnaryOp>(
      "HardSigmoid", 3.0, [](float x, const C& ctx) {
        const float alpha = static_cast<float>(ctx.attrs().get_float_or("alpha", 0.2));
        const float beta = static_cast<float>(ctx.attrs().get_float_or("beta", 0.5));
        return std::min(1.0f, std::max(0.0f, alpha * x + beta));
      }));
  // HardSwish: x * relu6(x + 3) / 6.
  r.add(std::make_unique<UnaryOp>("HardSwish", 5.0, [](float x, const C&) {
    const float r6 = std::min(6.0f, std::max(0.0f, x + 3.0f));
    return x * r6 / 6.0f;
  }));
  // SiLU / Swish: x * sigmoid(x).  Torch exports it as Sigmoid+Mul; the
  // fused single-node form is also accepted by the analysis.
  r.add(std::make_unique<UnaryOp>("Silu", flop_cost::kExp + flop_cost::kDiv + 2.0,
                                  [](float x, const C&) {
                                    return x / (1.0f + std::exp(-x));
                                  }));
  // GELU (erf formulation): 0.5 x (1 + erf(x / sqrt(2))).
  r.add(std::make_unique<UnaryOp>("Gelu", flop_cost::kErf + 4.0, [](float x, const C&) {
    return 0.5f * x * (1.0f + std::erf(x * 0.70710678f));
  }));
}

}  // namespace proof::ops
