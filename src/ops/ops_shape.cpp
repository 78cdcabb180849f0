// Shape-manipulation and data-movement operator defines.
//
// The distinction between "metadata only" ops (Reshape, Shape, ...) and real
// data movers (Transpose, Concat, ...) is what makes the ShuffleNetV2 case
// study (§4.5) come out right: the Shuffle op lowers to Transpose + copies,
// which are memory-intensive, while Reshape is free.
#include <algorithm>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

/// Resolves a Reshape-style target shape (may contain one -1 and 0 = copy).
Shape resolve_reshape(const Shape& in, const std::vector<int64_t>& target) {
  Shape out;
  int64_t known = 1;
  int infer_at = -1;
  for (size_t i = 0; i < target.size(); ++i) {
    int64_t d = target[i];
    if (d == 0) {
      PROOF_CHECK(i < in.rank(), "reshape dim 0 out of range");
      d = in.dims()[i];
    }
    if (d == -1) {
      PROOF_CHECK(infer_at < 0, "reshape: multiple -1 dims");
      infer_at = static_cast<int>(i);
      out.push_back(0);  // placeholder, inferred below
      continue;
    }
    out.push_back(d);
    known *= d;
  }
  if (infer_at >= 0) {
    PROOF_CHECK(known != 0 && in.numel() % known == 0,
                "reshape: cannot infer dim for " << in.to_string());
    out.set_dim(infer_at, in.numel() / known);
  }
  for (const int64_t d : out.dims()) {
    PROOF_CHECK(d >= 0, "negative extent in shape " << out.to_string());
  }
  PROOF_CHECK(out.numel() == in.numel(), "reshape changes element count: "
                                             << in.to_string() << " -> "
                                             << out.to_string());
  return out;
}

/// Metadata-only view op: no data is read or written (zero-copy in runtimes).
class ViewOpBase : public OpDef {
 public:
  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] MemoryEstimate memory(const OpContext&) const override {
    return MemoryEstimate{};  // aliasing, no DRAM traffic
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kNoOp; }

  [[nodiscard]] bool has_reference() const override { return true; }
  void eval(const OpContext&, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    // Views alias storage; the reference executor materializes a copy.
    for (int64_t i = 0; i < inputs[0]->numel(); ++i) {
      outputs[0].at(i) = inputs[0]->at(i);
    }
  }
};

class ReshapeOp final : public ViewOpBase {
 public:
  [[nodiscard]] std::string_view type() const override { return "Reshape"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = resolve_reshape(ctx.in_shape(0), ctx.attrs().get_ints("shape"));
    return single_output(std::move(out));
  }
};

class FlattenOp final : public ViewOpBase {
 public:
  [[nodiscard]] std::string_view type() const override { return "Flatten"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    const int axis = static_cast<int>(ctx.attrs().get_int_or("axis", 1));
    int64_t lead = 1;
    for (int d = 0; d < axis; ++d) lead *= x.dim(d);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{lead, x.numel() / lead};
    return single_output(std::move(out));
  }
};

class SqueezeOp final : public ViewOpBase {
 public:
  [[nodiscard]] std::string_view type() const override { return "Squeeze"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    Shape shape = ctx.in_shape(0);
    auto axes = ctx.attrs().get_ints("axes");
    std::vector<int> normalized;
    for (const int64_t a : axes) {
      normalized.push_back(shape.normalize_axis(static_cast<int>(a)));
    }
    std::sort(normalized.rbegin(), normalized.rend());
    for (const int a : normalized) {
      PROOF_CHECK(shape.dim(a) == 1, "Squeeze axis " << a << " has extent "
                                                     << shape.dim(a));
      shape.erase_dim(a);
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }
};

class UnsqueezeOp final : public ViewOpBase {
 public:
  [[nodiscard]] std::string_view type() const override { return "Unsqueeze"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    Shape shape = ctx.in_shape(0);
    auto axes = ctx.attrs().get_ints("axes");
    std::sort(axes.begin(), axes.end());
    for (const int64_t a : axes) {
      shape.insert_dim(static_cast<int>(a), 1);
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }
};

class IdentityOp final : public ViewOpBase {
 public:
  [[nodiscard]] std::string_view type() const override { return "Identity"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }
};

class ShapeOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Shape"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = DType::kI64;
    out.shape = Shape{static_cast<int64_t>(ctx.in_shape(0).rank())};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] MemoryEstimate memory(const OpContext& ctx) const override {
    // Only the rank-sized metadata vector is written; the tensor content is
    // never touched (paper §3.2.1).
    MemoryEstimate est;
    est.write_bytes = static_cast<double>(ctx.in_shape(0).rank() * sizeof(int64_t));
    return est;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kNoOp; }
};

class TransposeOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Transpose"; }

  static std::vector<int64_t> perm(const OpContext& ctx) {
    const Shape& x = ctx.in_shape(0);
    return ctx.attrs().get_ints_or("perm", [&] {
      std::vector<int64_t> rev(x.rank());
      for (size_t i = 0; i < x.rank(); ++i) {
        rev[i] = static_cast<int64_t>(x.rank() - 1 - i);
      }
      return rev;
    }());
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    if (!ctx.attrs().has("perm")) {  // default: reverse the axes
      for (size_t i = x.rank(); i > 0; --i) {
        out.shape.push_back(x.dims()[i - 1]);
      }
      return single_output(std::move(out));
    }
    const std::vector<int64_t>& p = ctx.attrs().get_ints("perm");
    PROOF_CHECK(p.size() == x.rank(), "Transpose perm rank mismatch");
    for (const int64_t axis : p) {
      out.shape.push_back(x.dim(static_cast<int>(axis)));
    }
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kDataMovement;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape& x = ctx.in_shape(0);
    const auto p = perm(ctx);
    const Shape out_shape = infer(ctx)[0].shape;
    const auto in_strides = row_major_strides(x);
    for (int64_t i = 0; i < out_shape.numel(); ++i) {
      int64_t rest = i;
      int64_t src = 0;
      for (size_t d = 0; d < out_shape.rank(); ++d) {
        const size_t rd = out_shape.rank() - 1 - d;
        const int64_t coord = rest % out_shape.dims()[rd];
        rest /= out_shape.dims()[rd];
        src += coord * in_strides[static_cast<size_t>(p[rd])];
      }
      outputs[0].at(i) = inputs[0]->at(src);
    }
  }
};

class ConcatOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Concat"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    PROOF_CHECK(ctx.num_inputs() >= 1, "Concat needs inputs");
    Shape shape = ctx.in_shape(0);
    const int axis = shape.normalize_axis(
        static_cast<int>(ctx.attrs().get_int("axis")));
    int64_t total = 0;
    for (size_t i = 0; i < ctx.num_inputs(); ++i) {
      total += ctx.in_shape(i).dim(axis);
    }
    shape.set_dim(axis, total);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kDataMovement;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape out_shape = infer(ctx)[0].shape;
    const int axis = out_shape.normalize_axis(
        static_cast<int>(ctx.attrs().get_int("axis")));
    int64_t outer = 1;
    for (int d = 0; d < axis; ++d) outer *= out_shape.dim(d);
    int64_t inner = 1;
    for (size_t d = static_cast<size_t>(axis) + 1; d < out_shape.rank(); ++d) {
      inner *= out_shape.dims()[d];
    }
    int64_t out_pos_base = 0;
    for (size_t t = 0; t < inputs.size(); ++t) {
      const int64_t extent = ctx.in_shape(t).dim(axis);
      for (int64_t o = 0; o < outer; ++o) {
        for (int64_t e = 0; e < extent; ++e) {
          for (int64_t i = 0; i < inner; ++i) {
            outputs[0].at((o * out_shape.dim(axis) + out_pos_base + e) * inner + i) =
                inputs[t]->at((o * extent + e) * inner + i);
          }
        }
      }
      out_pos_base += extent;
    }
  }
};

class SplitOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Split"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    const int axis = x.normalize_axis(static_cast<int>(ctx.attrs().get_int_or("axis", 0)));
    const size_t n_out = ctx.num_outputs();
    std::vector<int64_t> sizes = ctx.attrs().get_ints_or("split", [&] {
      PROOF_CHECK(x.dim(axis) % static_cast<int64_t>(n_out) == 0,
                  "Split: axis extent " << x.dim(axis) << " not divisible by "
                                        << n_out);
      return std::vector<int64_t>(n_out, x.dim(axis) / static_cast<int64_t>(n_out));
    }());
    PROOF_CHECK(sizes.size() == n_out, "Split sizes/outputs mismatch");
    std::vector<TensorDesc> outs;
    for (const int64_t s : sizes) {
      Shape shape = x;
      shape.set_dim(axis, s);
      TensorDesc out;
      out.dtype = ctx.input(0).dtype;
      out.shape = std::move(shape);
      outs.push_back(std::move(out));
    }
    return outs;
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kDataMovement;
  }
};

class SliceOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Slice"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    Shape shape = ctx.in_shape(0);
    const auto starts = ctx.attrs().get_ints("starts");
    const auto ends = ctx.attrs().get_ints("ends");
    const auto axes = ctx.attrs().get_ints_or("axes", [&] {
      std::vector<int64_t> all(starts.size());
      for (size_t i = 0; i < starts.size(); ++i) all[i] = static_cast<int64_t>(i);
      return all;
    }());
    const auto steps =
        ctx.attrs().get_ints_or("steps", std::vector<int64_t>(starts.size(), 1));
    PROOF_CHECK(starts.size() == ends.size() && starts.size() == axes.size() &&
                    starts.size() == steps.size(),
                "Slice attribute arity mismatch");
    for (size_t i = 0; i < axes.size(); ++i) {
      const int axis = shape.normalize_axis(static_cast<int>(axes[i]));
      const int64_t extent = ctx.in_shape(0).dim(axis);
      int64_t start = starts[i] < 0 ? starts[i] + extent : starts[i];
      int64_t end = ends[i] < 0 ? ends[i] + extent : ends[i];
      start = std::clamp<int64_t>(start, 0, extent);
      end = std::clamp<int64_t>(end, 0, extent);
      const int64_t step = steps[i];
      PROOF_CHECK(step > 0, "Slice: only positive steps supported");
      shape.set_dim(axis, std::max<int64_t>(0, (end - start + step - 1) / step));
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] MemoryEstimate memory(const OpContext& ctx) const override {
    // Only the selected window is read.
    const auto out = infer(ctx)[0];
    MemoryEstimate est;
    est.read_bytes = static_cast<double>(out.shape.numel()) *
                     static_cast<double>(dtype_size(ctx.input(0).dtype));
    est.write_bytes = static_cast<double>(out.shape.numel()) *
                      static_cast<double>(dtype_size(out.dtype));
    return est;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kCopy;
  }
};

class GatherOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Gather"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& data = ctx.in_shape(0);
    const Shape& indices = ctx.in_shape(1);
    const int axis = data.normalize_axis(
        static_cast<int>(ctx.attrs().get_int_or("axis", 0)));
    std::vector<int64_t> dims;
    for (int d = 0; d < axis; ++d) dims.push_back(data.dim(d));
    for (const int64_t d : indices.dims()) dims.push_back(d);
    for (size_t d = static_cast<size_t>(axis) + 1; d < data.rank(); ++d) {
      dims.push_back(data.dims()[d]);
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape(std::move(dims));
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] MemoryEstimate memory(const OpContext& ctx) const override {
    // Reads indices + gathered rows only, writes the output.
    const auto out = infer(ctx)[0];
    const double out_bytes = static_cast<double>(out.shape.numel()) *
                             static_cast<double>(dtype_size(ctx.input(0).dtype));
    MemoryEstimate est;
    est.read_bytes = out_bytes + static_cast<double>(ctx.input(1).size_bytes());
    est.write_bytes = out_bytes;
    return est;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kDataMovement;
  }
};

class PadOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Pad"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    Shape shape = ctx.in_shape(0);
    const auto pads = ctx.attrs().get_ints("pads");
    PROOF_CHECK(pads.size() == 2 * shape.rank(), "Pad: pads must have 2*rank entries");
    for (size_t d = 0; d < shape.rank(); ++d) {
      shape.set_dim(static_cast<int>(d),
                    shape.dims()[d] + pads[d] + pads[d + shape.rank()]);
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kCopy;
  }
};

class ResizeOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Resize"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    Shape shape = x;
    if (ctx.attrs().has("sizes")) {
      const auto sizes = ctx.attrs().get_ints("sizes");
      PROOF_CHECK(sizes.size() == x.rank(), "Resize sizes rank mismatch");
      shape = Shape(sizes);
    } else {
      const auto& raw = ctx.attrs().raw().at("scales");
      const auto* scales = std::get_if<std::vector<double>>(&raw);
      PROOF_CHECK(scales != nullptr && scales->size() == x.rank(),
                  "Resize scales rank mismatch");
      for (size_t d = 0; d < x.rank(); ++d) {
        shape.set_dim(static_cast<int>(d),
                      static_cast<int64_t>(static_cast<double>(x.dims()[d]) *
                                           (*scales)[d]));
      }
    }
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = std::move(shape);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    // Nearest interpolation: index math only; linear: 7 FLOP per output.
    const std::string mode = ctx.attrs().get_string_or("mode", "nearest");
    if (mode == "nearest") return 0.0;
    return 7.0 * static_cast<double>(infer(ctx)[0].shape.numel());
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kCopy;
  }
};

class ExpandOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Expand"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape target(ctx.attrs().get_ints("shape"));
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape::broadcast(ctx.in_shape(0), target);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kCopy;
  }
};

class CastOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Cast"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = dtype_from_name(ctx.attrs().get_string("to"));
    out.shape = ctx.in_shape(0);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kCopy;
  }
};

class WhereOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Where"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = ctx.input(1).dtype;
    out.shape = Shape::broadcast(Shape::broadcast(ctx.in_shape(0), ctx.in_shape(1)),
                                 ctx.in_shape(2));
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    return static_cast<double>(infer(ctx)[0].shape.numel()) * flop_cost::kCompare;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kElementwise;
  }
};

class ConstantOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Constant"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    TensorDesc out;
    out.dtype = dtype_from_name(ctx.attrs().get_string_or("dtype", "fp32"));
    out.shape = Shape(ctx.attrs().get_ints_or("value_shape", {}));
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext&) const override { return 0.0; }

  [[nodiscard]] MemoryEstimate memory(const OpContext&) const override {
    return MemoryEstimate{};  // folded by every runtime
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kNoOp; }
};

}  // namespace

void register_shape_ops(OpRegistry& r) {
  r.add(std::make_unique<ReshapeOp>());
  r.add(std::make_unique<FlattenOp>());
  r.add(std::make_unique<SqueezeOp>());
  r.add(std::make_unique<UnsqueezeOp>());
  r.add(std::make_unique<IdentityOp>());
  r.add(std::make_unique<ShapeOp>());
  r.add(std::make_unique<TransposeOp>());
  r.add(std::make_unique<ConcatOp>());
  r.add(std::make_unique<SplitOp>());
  r.add(std::make_unique<SliceOp>());
  r.add(std::make_unique<GatherOp>());
  r.add(std::make_unique<PadOp>());
  r.add(std::make_unique<ResizeOp>());
  r.add(std::make_unique<ExpandOp>());
  r.add(std::make_unique<CastOp>());
  r.add(std::make_unique<WhereOp>());
  r.add(std::make_unique<ConstantOp>());
}

}  // namespace proof::ops
