// Extended operator defines beyond the Table-3 model requirements: common
// ONNX operators a downstream user's models may contain (super-resolution
// shuffles, detection heads, classic CNNs, language-model exports).
#include <cmath>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

/// Inference-mode InstanceNormalization: per-(N,C) spatial statistics.
class InstanceNormOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override {
    return "InstanceNormalization";
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    PROOF_CHECK(ctx.in_shape(0).rank() >= 3,
                "InstanceNormalization expects NCHW-like input");
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

/// PRelu: y = x > 0 ? x : slope * x, slope broadcast per channel.
class PReluOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "PRelu"; }

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
    return OpClass::kElementwise;
  }
};

/// DepthToSpace / SpaceToDepth (pixel shuffle): pure data rearrangement.
class PixelShuffleOp final : public OpDef {
 public:
  PixelShuffleOp(std::string type, bool depth_to_space)
      : type_(std::move(type)), depth_to_space_(depth_to_space) {}

  [[nodiscard]] std::string_view type() const override { return type_; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    PROOF_CHECK(x.rank() == 4, type_ << " expects NCHW input");
    const int64_t block = ctx.attrs().get_int("blocksize");
    PROOF_CHECK(block > 0, "blocksize must be positive");
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    if (depth_to_space_) {
      PROOF_CHECK(x.dim(1) % (block * block) == 0,
                  type_ << ": channels not divisible by blocksize^2");
      out.shape = Shape{x.dim(0), x.dim(1) / (block * block), x.dim(2) * block,
                        x.dim(3) * block};
    } else {
      PROOF_CHECK(x.dim(2) % block == 0 && x.dim(3) % block == 0,
                  type_ << ": spatial dims not divisible by blocksize");
      out.shape = Shape{x.dim(0), x.dim(1) * block * block, x.dim(2) / block,
                        x.dim(3) / block};
    }
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kDataMovement;
  }

 private:
  std::string type_;
  bool depth_to_space_;
};

class GlobalMaxPoolOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "GlobalMaxPool"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    PROOF_CHECK(x.rank() >= 3, "GlobalMaxPool expects NCHW-like input");
    std::vector<int64_t> dims = {x.dim(0), x.dim(1)};
    for (size_t d = 2; d < x.rank(); ++d) {
      dims.push_back(1);
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape(std::move(dims));
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return static_cast<double>(ctx.in_shape(0).numel()) * flop_cost::kCompare;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }
};

/// Reduce over axes keeping the comparison semantics (Max / Min).
class ReduceExtremumOp final : public OpDef {
 public:
  explicit ReduceExtremumOp(std::string type) : type_(std::move(type)) {}

  [[nodiscard]] std::string_view type() const override { return type_; }

  static Shape reduced_shape(const OpContext& ctx) {
    const Shape& x = ctx.in_shape(0);
    const bool keepdims = ctx.attrs().get_int_or("keepdims", 1) != 0;
    const auto axes = ctx.attrs().get_ints_or("axes", [&] {
      std::vector<int64_t> all(x.rank());
      for (size_t i = 0; i < x.rank(); ++i) all[i] = static_cast<int64_t>(i);
      return all;
    }());
    std::vector<bool> reduced(x.rank(), false);
    for (const int64_t a : axes) {
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
    return static_cast<double>(ctx.in_shape(0).numel()) * flop_cost::kCompare;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }

 private:
  std::string type_;
};

/// ArgMax over one axis: index output, integer dtype.
class ArgMaxOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "ArgMax"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    Shape shape = ctx.in_shape(0);
    const int axis = shape.normalize_axis(
        static_cast<int>(ctx.attrs().get_int_or("axis", 0)));
    const bool keepdims = ctx.attrs().get_int_or("keepdims", 1) != 0;
    if (keepdims) {
      shape.set_dim(axis, 1);
    } else {
      shape.erase_dim(axis);
    }
    TensorDesc out;
    out.dtype = DType::kI64;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return static_cast<double>(ctx.in_shape(0).numel()) * flop_cost::kCompare;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }
};

class LogSoftmaxOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "LogSoftmax"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return (flop_cost::kCompare + 1.0 + flop_cost::kExp + flop_cost::kAdd +
            flop_cost::kLog) *
           static_cast<double>(ctx.in_shape(0).numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kSoftmax;
  }
};

/// Restricted Einsum: matmul-like contractions "...ij,...jk->...ik" and the
/// transpose-contraction "bhid,bhjd->bhij" attention pattern.
class EinsumOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Einsum"; }

  struct Contraction {
    Shape out;
    double macs;
  };

  static Contraction analyze(const OpContext& ctx) {
    const std::string equation = ctx.attrs().get_string("equation");
    PROOF_CHECK(ctx.num_inputs() == 2, "Einsum supports 2 operands");
    const size_t arrow = equation.find("->");
    PROOF_CHECK(arrow != std::string::npos, "Einsum needs explicit output");
    const size_t comma = equation.find(',');
    PROOF_CHECK(comma != std::string::npos && comma < arrow,
                "Einsum needs two input subscripts");
    const std::string sub_a = equation.substr(0, comma);
    const std::string sub_b = equation.substr(comma + 1, arrow - comma - 1);
    const std::string sub_out = equation.substr(arrow + 2);
    const Shape& a = ctx.in_shape(0);
    const Shape& b = ctx.in_shape(1);
    PROOF_CHECK(sub_a.size() == a.rank() && sub_b.size() == b.rank(),
                "Einsum subscripts must match operand ranks");
    // Map every label to its extent; consistency-checked across operands.
    std::map<char, int64_t> extent;
    for (size_t i = 0; i < sub_a.size(); ++i) {
      extent[sub_a[i]] = a.dims()[i];
    }
    for (size_t i = 0; i < sub_b.size(); ++i) {
      const auto it = extent.find(sub_b[i]);
      PROOF_CHECK(it == extent.end() || it->second == b.dims()[i],
                  "Einsum label '" << sub_b[i] << "' extent mismatch");
      extent[sub_b[i]] = b.dims()[i];
    }
    std::vector<int64_t> out_dims;
    for (const char label : sub_out) {
      const auto it = extent.find(label);
      PROOF_CHECK(it != extent.end(), "Einsum output label '" << label
                                                              << "' unbound");
      out_dims.push_back(it->second);
    }
    // MACs = product of all label extents (each output element accumulates
    // over every contracted label).
    double macs = 1.0;
    for (const auto& [label, dim] : extent) {
      macs *= static_cast<double>(dim);
    }
    return {Shape(std::move(out_dims)), macs};
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = analyze(ctx).out;
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return 2.0 * analyze(ctx).macs;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kGemm;
  }
};

}  // namespace

void register_extended_ops(OpRegistry& r) {
  r.add(std::make_unique<InstanceNormOp>());
  r.add(std::make_unique<PReluOp>());
  r.add(std::make_unique<PixelShuffleOp>("DepthToSpace", true));
  r.add(std::make_unique<PixelShuffleOp>("SpaceToDepth", false));
  r.add(std::make_unique<GlobalMaxPoolOp>());
  r.add(std::make_unique<ReduceExtremumOp>("ReduceMax"));
  r.add(std::make_unique<ReduceExtremumOp>("ReduceMin"));
  r.add(std::make_unique<ArgMaxOp>());
  r.add(std::make_unique<LogSoftmaxOp>());
  r.add(std::make_unique<EinsumOp>());
  // Additional activations on the shared elementwise machinery.
  r.add(std::make_unique<UnaryOp>("Elu", flop_cost::kExp + 2.0,
                                  [](float x, const OpContext& ctx) {
                                    const float alpha = static_cast<float>(
                                        ctx.attrs().get_float_or("alpha", 1.0));
                                    return x > 0.0f
                                               ? x
                                               : alpha * (std::exp(x) - 1.0f);
                                  }));
  r.add(std::make_unique<UnaryOp>("Softplus", flop_cost::kExp + flop_cost::kLog,
                                  [](float x, const OpContext&) {
                                    return std::log1p(std::exp(x));
                                  }));
  r.add(std::make_unique<UnaryOp>(
      "Mish", flop_cost::kExp + flop_cost::kLog + flop_cost::kTanh + 1.0,
      [](float x, const OpContext&) {
        return x * std::tanh(std::log1p(std::exp(x)));
      }));
  r.add(std::make_unique<UnaryOp>("Abs", 1.0, [](float x, const OpContext&) {
    return std::abs(x);
  }));
  r.add(std::make_unique<UnaryOp>("Floor", 1.0, [](float x, const OpContext&) {
    return std::floor(x);
  }));
  r.add(std::make_unique<UnaryOp>("Ceil", 1.0, [](float x, const OpContext&) {
    return std::ceil(x);
  }));
}

}  // namespace proof::ops
