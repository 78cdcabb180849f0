// Normalization, softmax and reduction operator defines.
#include <cmath>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

/// Inference-mode BatchNormalization: y = scale * (x - mean) / sqrt(var+eps) + bias.
/// At inference this folds to one multiply-add per element.
class BatchNormOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "BatchNormalization"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return 2.0 * static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kNormalization;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    PROOF_CHECK(inputs.size() == 5, "BatchNormalization expects x,scale,bias,mean,var");
    const Shape& x = ctx.in_shape(0);
    const int64_t n = x.dim(0);
    const int64_t c = x.dim(1);
    const int64_t spatial = x.numel() / (n * c);
    const double eps = ctx.attrs().get_float_or("epsilon", 1e-5);
    for (int64_t b = 0; b < n; ++b) {
      for (int64_t ch = 0; ch < c; ++ch) {
        const float scale = inputs[1]->at(ch);
        const float bias = inputs[2]->at(ch);
        const float mean = inputs[3]->at(ch);
        const float inv_std =
            1.0f / std::sqrt(inputs[4]->at(ch) + static_cast<float>(eps));
        for (int64_t s = 0; s < spatial; ++s) {
          const int64_t i = (b * c + ch) * spatial + s;
          outputs[0].at(i) = scale * (inputs[0]->at(i) - mean) * inv_std + bias;
        }
      }
    }
  }
};

/// LayerNormalization over the last `axis`.. dims (default: last dim).
class LayerNormOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "LayerNormalization"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    // mean + variance + normalize + affine: ~8 FLOP per element.
    return 8.0 * static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kNormalization;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape& x = ctx.in_shape(0);
    const int axis = x.normalize_axis(
        static_cast<int>(ctx.attrs().get_int_or("axis", -1)));
    int64_t inner = 1;
    for (size_t d = static_cast<size_t>(axis); d < x.rank(); ++d) {
      inner *= x.dims()[d];
    }
    const int64_t outer = x.numel() / inner;
    const double eps = ctx.attrs().get_float_or("epsilon", 1e-5);
    const Tensor* scale = inputs.size() > 1 ? inputs[1] : nullptr;
    const Tensor* bias = inputs.size() > 2 ? inputs[2] : nullptr;
    for (int64_t o = 0; o < outer; ++o) {
      double mean = 0.0;
      for (int64_t i = 0; i < inner; ++i) {
        mean += inputs[0]->at(o * inner + i);
      }
      mean /= static_cast<double>(inner);
      double var = 0.0;
      for (int64_t i = 0; i < inner; ++i) {
        const double d = inputs[0]->at(o * inner + i) - mean;
        var += d * d;
      }
      var /= static_cast<double>(inner);
      const double inv_std = 1.0 / std::sqrt(var + eps);
      for (int64_t i = 0; i < inner; ++i) {
        double v = (inputs[0]->at(o * inner + i) - mean) * inv_std;
        if (scale != nullptr) v *= scale->at(i);
        if (bias != nullptr) v += bias->at(i);
        outputs[0].at(o * inner + i) = static_cast<float>(v);
      }
    }
  }
};

/// GroupNormalization (used by the Stable-Diffusion UNet).
class GroupNormOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "GroupNormalization"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return 8.0 * static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kNormalization;
  }
};

class SoftmaxOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Softmax"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    // max-subtract + exp + sum + divide per element.
    return (flop_cost::kCompare + 1.0 + flop_cost::kExp + flop_cost::kAdd +
            flop_cost::kDiv) *
           static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kSoftmax;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape& x = ctx.in_shape(0);
    const int axis = x.normalize_axis(
        static_cast<int>(ctx.attrs().get_int_or("axis", -1)));
    PROOF_CHECK(axis == static_cast<int>(x.rank()) - 1,
                "reference Softmax supports the last axis only");
    const int64_t inner = x.dim(-1);
    const int64_t outer = x.numel() / inner;
    for (int64_t o = 0; o < outer; ++o) {
      float max_v = -3.4e38f;
      for (int64_t i = 0; i < inner; ++i) {
        max_v = std::max(max_v, inputs[0]->at(o * inner + i));
      }
      double sum = 0.0;
      for (int64_t i = 0; i < inner; ++i) {
        const double e = std::exp(static_cast<double>(inputs[0]->at(o * inner + i) - max_v));
        outputs[0].at(o * inner + i) = static_cast<float>(e);
        sum += e;
      }
      for (int64_t i = 0; i < inner; ++i) {
        outputs[0].at(o * inner + i) =
            static_cast<float>(outputs[0].at(o * inner + i) / sum);
      }
    }
  }
};

/// Shared reduce implementation (mean / sum).
class ReduceOp final : public OpDef {
 public:
  ReduceOp(std::string type, bool mean) : type_(std::move(type)), mean_(mean) {}

  [[nodiscard]] std::string_view type() const override { return type_; }

  static Shape reduced_shape(const OpContext& ctx) {
    const Shape& x = ctx.in_shape(0);
    const bool keepdims = ctx.attrs().get_int_or("keepdims", 1) != 0;
    std::vector<int64_t> axes64 =
        ctx.attrs().get_ints_or("axes", [&] {
          std::vector<int64_t> all(x.rank());
          for (size_t i = 0; i < x.rank(); ++i) all[i] = static_cast<int64_t>(i);
          return all;
        }());
    std::vector<bool> reduced(x.rank(), false);
    for (const int64_t a : axes64) {
      reduced[static_cast<size_t>(x.normalize_axis(static_cast<int>(a)))] = true;
    }
    std::vector<int64_t> dims;
    for (size_t d = 0; d < x.rank(); ++d) {
      if (!reduced[d]) {
        dims.push_back(x.dims()[d]);
      } else if (keepdims) {
        dims.push_back(1);
      }
    }
    return Shape(std::move(dims));
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = reduced_shape(ctx);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    double total = static_cast<double>(ctx.in_shape(0).numel()) * flop_cost::kAdd;
    if (mean_) {
      total += static_cast<double>(reduced_shape(ctx).numel()) * flop_cost::kDiv;
    }
    return total;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }

 private:
  std::string type_;
  bool mean_;
};

}  // namespace

void register_norm_ops(OpRegistry& r) {
  r.add(std::make_unique<BatchNormOp>());
  r.add(std::make_unique<LayerNormOp>());
  r.add(std::make_unique<GroupNormOp>());
  r.add(std::make_unique<SoftmaxOp>());
  r.add(std::make_unique<ReduceOp>("ReduceMean", /*mean=*/true));
  r.add(std::make_unique<ReduceOp>("ReduceSum", /*mean=*/false));
}

}  // namespace proof::ops
