// Dense matrix-multiply operator defines: Gemm and (batched) MatMul.
#include "ops/common.hpp"
#include "support/error.hpp"

namespace proof::ops {

namespace {

class GemmOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "Gemm"; }

  struct Dims {
    int64_t m, k, n;
  };

  static Dims dims(const OpContext& ctx) {
    const bool trans_a = ctx.attrs().get_int_or("transA", 0) != 0;
    const bool trans_b = ctx.attrs().get_int_or("transB", 0) != 0;
    const Shape& a = ctx.in_shape(0);
    const Shape& b = ctx.in_shape(1);
    PROOF_CHECK(a.rank() == 2 && b.rank() == 2, "Gemm expects 2-D inputs");
    const int64_t m = trans_a ? a.dim(1) : a.dim(0);
    const int64_t k = trans_a ? a.dim(0) : a.dim(1);
    const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
    const int64_t n = trans_b ? b.dim(0) : b.dim(1);
    PROOF_CHECK(k == kb, "Gemm '" << ctx.node().name << "': inner dims " << k
                                  << " vs " << kb);
    return {m, k, n};
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Dims d = dims(ctx);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = Shape{d.m, d.n};
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const Dims d = dims(ctx);
    double total = 2.0 * static_cast<double>(d.m) * static_cast<double>(d.k) *
                   static_cast<double>(d.n);
    if (ctx.num_inputs() > 2) {
      total += static_cast<double>(d.m) * static_cast<double>(d.n);
    }
    return total;
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kGemm; }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Dims d = dims(ctx);
    const bool trans_a = ctx.attrs().get_int_or("transA", 0) != 0;
    const bool trans_b = ctx.attrs().get_int_or("transB", 0) != 0;
    const Tensor& a = *inputs[0];
    const Tensor& b = *inputs[1];
    const Tensor* c = inputs.size() > 2 ? inputs[2] : nullptr;
    Tensor& y = outputs[0];
    const Shape c_shape = c != nullptr ? ctx.in_shape(2) : Shape{};
    const Shape out_shape{d.m, d.n};
    for (int64_t i = 0; i < d.m; ++i) {
      for (int64_t j = 0; j < d.n; ++j) {
        float acc = 0.0f;
        for (int64_t p = 0; p < d.k; ++p) {
          const float av = trans_a ? a.at(p * d.m + i) : a.at(i * d.k + p);
          const float bv = trans_b ? b.at(j * d.k + p) : b.at(p * d.n + j);
          acc += av * bv;
        }
        if (c != nullptr) {
          acc += c->at(broadcast_index(out_shape, i * d.n + j, c_shape));
        }
        y.at(i * d.n + j) = acc;
      }
    }
  }
};

class MatMulOp final : public OpDef {
 public:
  [[nodiscard]] std::string_view type() const override { return "MatMul"; }

  struct Dims {
    Shape batch;  ///< broadcasted leading dims
    int64_t m, k, n;
  };

  static Dims dims(const OpContext& ctx) {
    Shape a = ctx.in_shape(0);
    Shape b = ctx.in_shape(1);
    PROOF_CHECK(a.rank() >= 1 && b.rank() >= 1, "MatMul expects tensors of rank >= 1");
    // 1-D operands are promoted per NumPy rules.
    const bool a_vec = a.rank() == 1;
    const bool b_vec = b.rank() == 1;
    if (a_vec) a.insert_dim(0, 1);
    if (b_vec) b.push_back(1);
    const int64_t m = a.dim(-2);
    const int64_t k = a.dim(-1);
    const int64_t kb = b.dim(-2);
    const int64_t n = b.dim(-1);
    PROOF_CHECK(k == kb, "MatMul '" << ctx.node().name << "': inner dims " << k
                                    << " vs " << kb);
    return {Shape::broadcast(Shape(a.dims().first(a.rank() - 2)),
                             Shape(b.dims().first(b.rank() - 2))),
            m, k, n};
  }

  [[nodiscard]] std::vector<TensorDesc> infer(const OpContext& ctx) const override {
    const Dims d = dims(ctx);
    TensorDesc out;
    out.dtype = ctx.input(0).dtype;
    out.shape = d.batch;
    if (ctx.in_shape(0).rank() != 1) out.shape.push_back(d.m);
    if (ctx.in_shape(1).rank() != 1) out.shape.push_back(d.n);
    return single_output(std::move(out));
  }

  [[nodiscard]] double flops(const OpContext& ctx) const override {
    const Dims d = dims(ctx);
    return 2.0 * static_cast<double>(d.batch.numel()) * static_cast<double>(d.m) *
           static_cast<double>(d.k) * static_cast<double>(d.n);
  }

  [[nodiscard]] OpClass op_class(const OpContext&) const override { return OpClass::kGemm; }

  [[nodiscard]] bool has_reference() const override { return true; }

  void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
            std::vector<Tensor>& outputs) const override {
    const Dims d = dims(ctx);
    PROOF_CHECK(ctx.in_shape(0).rank() >= 2 && ctx.in_shape(1).rank() >= 2,
                "reference MatMul supports rank >= 2 only");
    const Tensor& a = *inputs[0];
    const Tensor& b = *inputs[1];
    Tensor& y = outputs[0];
    const int64_t batches = d.batch.numel();
    // Build per-operand batch shapes for broadcasting.
    const Shape a_batch(ctx.in_shape(0).dims().first(ctx.in_shape(0).rank() - 2));
    const Shape b_batch(ctx.in_shape(1).dims().first(ctx.in_shape(1).rank() - 2));
    for (int64_t batch = 0; batch < batches; ++batch) {
      const int64_t a_off = broadcast_index(d.batch, batch, a_batch) * d.m * d.k;
      const int64_t b_off = broadcast_index(d.batch, batch, b_batch) * d.k * d.n;
      const int64_t y_off = batch * d.m * d.n;
      for (int64_t i = 0; i < d.m; ++i) {
        for (int64_t j = 0; j < d.n; ++j) {
          float acc = 0.0f;
          for (int64_t p = 0; p < d.k; ++p) {
            acc += a.at(a_off + i * d.k + p) * b.at(b_off + p * d.n + j);
          }
          y.at(y_off + i * d.n + j) = acc;
        }
      }
    }
  }
};

}  // namespace

void register_gemm_ops(OpRegistry& r) {
  r.add(std::make_unique<GemmOp>());
  r.add(std::make_unique<MatMulOp>());
}

}  // namespace proof::ops
