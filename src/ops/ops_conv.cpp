// Convolution and pooling operator defines.
#include <algorithm>
#include <cmath>

#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

/// Shared conv/pool spatial arithmetic on NCHW tensors.
struct Conv2dGeometry {
  int64_t n, c_in, h_in, w_in;
  int64_t kh, kw, sh, sw, dh, dw;
  int64_t pad_t, pad_l, pad_b, pad_r;

  static Conv2dGeometry from(const OpContext& ctx, int64_t kh, int64_t kw) {
    const Shape& x = ctx.in_shape(0);
    PROOF_CHECK(x.rank() == 4, "expected NCHW input, got " << x.to_string());
    const auto strides = ctx.attrs().get_ints_or("strides", {1, 1});
    const auto dil = ctx.attrs().get_ints_or("dilations", {1, 1});
    const auto pads = ctx.attrs().get_ints_or("pads", {0, 0, 0, 0});
    PROOF_CHECK(strides.size() == 2 && dil.size() == 2 && pads.size() == 4,
                "bad conv attributes on '" << ctx.node().name << "'");
    return Conv2dGeometry{x.dim(0), x.dim(1), x.dim(2), x.dim(3), kh,      kw,
                          strides[0], strides[1], dil[0], dil[1],
                          pads[0],    pads[1],    pads[2], pads[3]};
  }

  [[nodiscard]] int64_t h_out() const {
    return (h_in + pad_t + pad_b - ((kh - 1) * dh + 1)) / sh + 1;
  }
  [[nodiscard]] int64_t w_out() const {
    return (w_in + pad_l + pad_r - ((kw - 1) * dw + 1)) / sw + 1;
  }

  /// Fraction of the input actually touched: when stride exceeds the
  /// receptive extent, rows/columns are skipped entirely (paper §3.2.1's
  /// special rule for large-stride, small-kernel convolutions).
  [[nodiscard]] double input_read_fraction() const {
    const double fh = std::min(1.0, static_cast<double>((kh - 1) * dh + 1) /
                                        static_cast<double>(sh));
    const double fw = std::min(1.0, static_cast<double>((kw - 1) * dw + 1) /
                                        static_cast<double>(sw));
    return fh * fw;
  }
};

class ConvOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Conv"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& w = ctx.in_shape(1);
    PROOF_CHECK(w.rank() == 4, "Conv weight must be 4-D, got " << w.to_string());
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, w.dim(2), w.dim(3));
    const int64_t groups = ctx.attrs().get_int_or("group", 1);
    PROOF_CHECK(w.dim(1) * groups == g.c_in,
                "Conv '" << ctx.node().name << "': weight " << w.to_string()
                         << " incompatible with input channels " << g.c_in
                         << " at groups=" << groups);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{g.n, w.dim(0), g.h_out(), g.w_out()};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const Shape& w = ctx.in_shape(1);
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, w.dim(2), w.dim(3));
    const double out_elems =
        static_cast<double>(g.n) * static_cast<double>(w.dim(0)) *
        static_cast<double>(g.h_out()) * static_cast<double>(g.w_out());
    // MACs per output element: (Cin/groups) * kh * kw; 1 MAC = 2 FLOP.
    double total = out_elems * 2.0 * static_cast<double>(w.dim(1)) *
                   static_cast<double>(g.kh) * static_cast<double>(g.kw);
    if (ctx.num_inputs() > 2) {
      total += out_elems;  // bias add
    }
    return total;
  }

  [[nodiscard]] MemoryEstimate memory(const OpContext& ctx) const override {
    MemoryEstimate est = OpDef::memory(ctx);
    const Shape& w = ctx.in_shape(1);
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, w.dim(2), w.dim(3));
    est.read_bytes *= g.input_read_fraction();
    return est;
  }

  [[nodiscard]] OpClass op_class(const OpContext& ctx) const override {
    const Shape& w = ctx.in_shape(1);
    const int64_t groups = ctx.attrs().get_int_or("group", 1);
    if (groups > 1 && w.dim(1) == 1) {
      return OpClass::kConvDepthwise;
    }
    if (w.dim(2) == 1 && w.dim(3) == 1) {
      return OpClass::kConvPointwise;
    }
    return OpClass::kConv;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape& wshape = ctx.in_shape(1);
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, wshape.dim(2), wshape.dim(3));
    const int64_t groups = ctx.attrs().get_int_or("group", 1);
    const int64_t c_out = wshape.dim(0);
    const int64_t cpg_in = g.c_in / groups;   // channels per group, input
    const int64_t cpg_out = c_out / groups;   // channels per group, output
    const int64_t ho = g.h_out();
    const int64_t wo = g.w_out();
    const Tensor& x = *inputs[0];
    const Tensor& w = *inputs[1];
    const Tensor* bias = inputs.size() > 2 ? inputs[2] : nullptr;
    Tensor& y = outputs[0];
    for (int64_t n = 0; n < g.n; ++n) {
      for (int64_t oc = 0; oc < c_out; ++oc) {
        const int64_t group = oc / cpg_out;
        for (int64_t oh = 0; oh < ho; ++oh) {
          for (int64_t ow = 0; ow < wo; ++ow) {
            float acc = bias != nullptr ? bias->at(oc) : 0.0f;
            for (int64_t ic = 0; ic < cpg_in; ++ic) {
              const int64_t c = group * cpg_in + ic;
              for (int64_t fh = 0; fh < g.kh; ++fh) {
                const int64_t ih = oh * g.sh - g.pad_t + fh * g.dh;
                if (ih < 0 || ih >= g.h_in) continue;
                for (int64_t fw = 0; fw < g.kw; ++fw) {
                  const int64_t iw = ow * g.sw - g.pad_l + fw * g.dw;
                  if (iw < 0 || iw >= g.w_in) continue;
                  const int64_t xi = ((n * g.c_in + c) * g.h_in + ih) * g.w_in + iw;
                  const int64_t wi = ((oc * cpg_in + ic) * g.kh + fh) * g.kw + fw;
                  acc += x.at(xi) * w.at(wi);
                }
              }
            }
            const int64_t yi = ((n * c_out + oc) * ho + oh) * wo + ow;
            y.at(yi) = acc;
          }
        }
      }
    }
  }
};

class ConvTransposeOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "ConvTranspose"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    const Shape& w = ctx.in_shape(1);  // [Cin, Cout/groups, kh, kw]
    PROOF_CHECK(x.rank() == 4 && w.rank() == 4,
                "ConvTranspose expects 4-D input and weight");
    const auto strides = ctx.attrs().get_ints_or("strides", {1, 1});
    const auto pads = ctx.attrs().get_ints_or("pads", {0, 0, 0, 0});
    const int64_t groups = ctx.attrs().get_int_or("group", 1);
    const int64_t h_out =
        (x.dim(2) - 1) * strides[0] + w.dim(2) - pads[0] - pads[2];
    const int64_t w_out =
        (x.dim(3) - 1) * strides[1] + w.dim(3) - pads[1] - pads[3];
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{x.dim(0), w.dim(1) * groups, h_out, w_out};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    const Shape& w = ctx.in_shape(1);
    // Every input element contributes a (Cout/groups * kh * kw)-MAC stencil.
    double total = static_cast<double>(x.numel()) * 2.0 *
                   static_cast<double>(w.dim(1)) * static_cast<double>(w.dim(2)) *
                   static_cast<double>(w.dim(3));
    if (ctx.num_inputs() > 2) {
      const auto outs = infer(ctx);
      total += static_cast<double>(outs[0].shape.numel());
    }
    return total;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kConv; }
};

class MaxPoolOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "MaxPool"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, kernel[0], kernel[1]);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{g.n, g.c_in, g.h_out(), g.w_out()};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, kernel[0], kernel[1]);
    const double out_elems = static_cast<double>(g.n * g.c_in) *
                             static_cast<double>(g.h_out()) *
                             static_cast<double>(g.w_out());
    return out_elems * static_cast<double>(kernel[0] * kernel[1]) * flop_cost::kCompare;
  }

  [[nodiscard]] MemoryEstimate memory(const OpContext& ctx) const override {
    MemoryEstimate est = OpDef::memory(ctx);
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    est.read_bytes *= Conv2dGeometry::from(ctx, kernel[0], kernel[1]).input_read_fraction();
    return est;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, kernel[0], kernel[1]);
    const int64_t ho = g.h_out();
    const int64_t wo = g.w_out();
    const Tensor& x = *inputs[0];
    Tensor& y = outputs[0];
    for (int64_t n = 0; n < g.n; ++n) {
      for (int64_t c = 0; c < g.c_in; ++c) {
        for (int64_t oh = 0; oh < ho; ++oh) {
          for (int64_t ow = 0; ow < wo; ++ow) {
            float best = -3.4e38f;
            for (int64_t fh = 0; fh < g.kh; ++fh) {
              const int64_t ih = oh * g.sh - g.pad_t + fh;
              if (ih < 0 || ih >= g.h_in) continue;
              for (int64_t fw = 0; fw < g.kw; ++fw) {
                const int64_t iw = ow * g.sw - g.pad_l + fw;
                if (iw < 0 || iw >= g.w_in) continue;
                best = std::max(best, x.at(((n * g.c_in + c) * g.h_in + ih) * g.w_in + iw));
              }
            }
            y.at(((n * g.c_in + c) * ho + oh) * wo + ow) = best;
          }
        }
      }
    }
  }
};

class AveragePoolOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "AveragePool"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, kernel[0], kernel[1]);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{g.n, g.c_in, g.h_out(), g.w_out()};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const auto kernel = ctx.attrs().get_ints("kernel_shape");
    const Conv2dGeometry g = Conv2dGeometry::from(ctx, kernel[0], kernel[1]);
    const double out_elems = static_cast<double>(g.n * g.c_in) *
                             static_cast<double>(g.h_out()) *
                             static_cast<double>(g.w_out());
    return out_elems * (static_cast<double>(kernel[0] * kernel[1]) * flop_cost::kAdd +
                        flop_cost::kDiv);
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }
};

class GlobalAveragePoolOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "GlobalAveragePool"; }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Shape& x = ctx.in_shape(0);
    PROOF_CHECK(x.rank() >= 3, "GlobalAveragePool expects NCHW-like input");
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
    return static_cast<double>(ctx.in_shape(0).numel()) * flop_cost::kAdd +
           static_cast<double>(ctx.in_shape(0).dim(0) * ctx.in_shape(0).dim(1)) *
               flop_cost::kDiv;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override {
    return OpClass::kReduction;
  }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Shape& x = ctx.in_shape(0);
    const int64_t n = x.dim(0);
    const int64_t c = x.dim(1);
    const int64_t spatial = x.numel() / (n * c);
    for (int64_t i = 0; i < n * c; ++i) {
      float sum = 0.0f;
      for (int64_t s = 0; s < spatial; ++s) {
        sum += inputs[0]->at(i * spatial + s);
      }
      outputs[0].at(i) = sum / static_cast<float>(spatial);
    }
  }
};

}  // namespace

void register_conv_ops(OpRegistry& r) {
  r.add(std::make_unique<ConvOp>());
  r.add(std::make_unique<ConvTransposeOp>());
  r.add(std::make_unique<MaxPoolOp>());
  r.add(std::make_unique<AveragePoolOp>());
  r.add(std::make_unique<GlobalAveragePoolOp>());
}

}  // namespace proof::ops
