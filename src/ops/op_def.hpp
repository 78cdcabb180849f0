// Operator defines (paper §3.2.1).
//
// Each ONNX-style operator type is described by an OpDef that knows how to:
//   * infer output tensor shapes/dtypes from inputs + attributes,
//   * predict the operator's FLOP (Model FLOP: MAC counts as 2 FLOP),
//   * predict its DRAM traffic (Equation 1 plus per-type special rules),
//   * classify the workload for the hardware simulator, and
//   * (for a core subset) execute a reference computation for tests.
//
// Unlike ONNX, shape-carrying operands (Reshape target, Slice ranges, ...)
// are node attributes rather than constant input tensors; this keeps shape
// inference purely structural while preserving the analysis semantics.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace proof {

/// Coarse workload classes consumed by the hardware latency model.
enum class OpClass : uint8_t {
  kGemm,            ///< dense matrix multiply (tensor-core eligible)
  kConv,            ///< regular / grouped convolution (tensor-core eligible)
  kConvDepthwise,   ///< depthwise convolution (low arithmetic intensity)
  kConvPointwise,   ///< 1x1 convolution (GEMM-like)
  kElementwise,     ///< map over elements
  kReduction,       ///< reductions / pooling
  kNormalization,   ///< batch/layer/group norm
  kSoftmax,
  kDataMovement,    ///< strided movement: transpose / gather
  kCopy,            ///< contiguous movement: concat / split / slice / reorder
  kNoOp,            ///< shape-only metadata ops (Reshape, Shape, ...)
};

/// Number of OpClass values; bound for dense per-class accumulator arrays.
inline constexpr size_t kOpClassCount = static_cast<size_t>(OpClass::kNoOp) + 1;

[[nodiscard]] std::string_view op_class_name(OpClass cls);

/// Predicted DRAM traffic of one operator, in bytes.
struct MemoryEstimate {
  double read_bytes = 0.0;    ///< activations read from DRAM
  double write_bytes = 0.0;   ///< activations written to DRAM
  double param_bytes = 0.0;   ///< weights/constants streamed in

  [[nodiscard]] double total() const { return read_bytes + write_bytes + param_bytes; }

  MemoryEstimate& operator+=(const MemoryEstimate& other) {
    read_bytes += other.read_bytes;
    write_bytes += other.write_bytes;
    param_bytes += other.param_bytes;
    return *this;
  }
};

/// Resolved view of one node inside a graph, handed to OpDef methods.
///
/// Operands resolve by interned id (graph.tensor(TensorId), one vector
/// index) when `node` is an element of graph.nodes() and the graph's edge
/// index is current; otherwise — a detached Node, or a graph mutated since
/// its last index build — by name.  Construction never builds the index, and
/// both paths return the same descriptor and throw the same errors.
class OpContext {
 public:
  OpContext(const Graph& graph, const Node& node);

  [[nodiscard]] const Node& node() const { return *node_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] const AttrMap& attrs() const { return node_->attrs; }
  [[nodiscard]] size_t num_inputs() const { return node_->inputs.size(); }
  [[nodiscard]] size_t num_outputs() const { return node_->outputs.size(); }
  /// True when operands resolve by interned id (see the class comment).
  [[nodiscard]] bool resolves_by_id() const { return in_ids_ != nullptr; }

  /// Descriptor of the i-th input; throws when the tensor is undeclared.
  [[nodiscard]] const TensorDesc& input(size_t i) const;
  /// Descriptor of the i-th output.
  [[nodiscard]] const TensorDesc& output(size_t i) const;
  [[nodiscard]] bool input_is_param(size_t i) const { return input(i).is_param; }

  /// Shape shortcut for input(i).shape.
  [[nodiscard]] const Shape& in_shape(size_t i) const { return input(i).shape; }
  [[nodiscard]] const Shape& out_shape(size_t i) const { return output(i).shape; }

 private:
  const Graph* graph_;
  const Node* node_;
  // Interned operand ids (views into the graph's edge index), or null when
  // operands resolve by name.
  const TensorId* in_ids_ = nullptr;
  const TensorId* out_ids_ = nullptr;
};

/// Base class of every operator define.
class OpDef {
 public:
  virtual ~OpDef() = default;

  [[nodiscard]] virtual std::string_view type() const = 0;

  /// Output descriptors (shape + dtype) inferred from the context.  The
  /// returned descs are unnamed; the caller assigns node output names.
  [[nodiscard]] virtual std::vector<TensorDesc> infer(const OpContext& ctx) const = 0;

  /// Predicted Model FLOP of this node.
  [[nodiscard]] virtual double flops(const OpContext& ctx) const = 0;

  /// Predicted DRAM traffic.  Default implements Equation 1 of the paper:
  /// params + all non-param inputs read + all outputs written.
  [[nodiscard]] virtual MemoryEstimate memory(const OpContext& ctx) const;

  /// Workload class for the latency model.
  [[nodiscard]] virtual OpClass op_class(const OpContext& ctx) const = 0;

  /// Reference execution support (tests only).
  [[nodiscard]] virtual bool has_reference() const { return false; }
  virtual void eval(const OpContext& ctx, const std::vector<const Tensor*>& inputs,
                    std::vector<Tensor>& outputs) const;
};

/// OpDef::infer's result for a one-output op, with `out` moved in (a braced
/// `{out}` would copy it, shape buffer included).
[[nodiscard]] inline std::vector<TensorDesc> single_output(TensorDesc out) {
  std::vector<TensorDesc> outs;
  outs.push_back(std::move(out));
  return outs;
}

/// Global operator registry.  Built-in ops self-register on first access.
class OpRegistry {
 public:
  static OpRegistry& instance();

  void add(std::unique_ptr<OpDef> def);

  /// Lookup by op_type; throws ModelError for unknown operators.
  [[nodiscard]] const OpDef& lookup(std::string_view op_type) const;
  [[nodiscard]] bool contains(std::string_view op_type) const;

  /// Every registered op type, sorted.
  [[nodiscard]] std::vector<std::string> registered_types() const;

 private:
  OpRegistry();
  /// string_view-keyed lookups without a temporary std::string.
  struct TypeHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Hashed: lookup() runs once per node in every inference, analysis and
  // lowering pass.
  std::unordered_map<std::string, std::unique_ptr<OpDef>, TypeHash, std::equal_to<>>
      defs_;
};

/// Convenience: OpDef for a node (throws for unknown op types).
[[nodiscard]] const OpDef& op_def_for(const Node& node);

/// FLOP cost charged per element for non-MAC scalar operations.  Division,
/// roots and transcendentals cost more than one FLOP on real hardware; the
/// paper accepts platform variance here because their share is small.
namespace flop_cost {
inline constexpr double kAdd = 1.0;
inline constexpr double kMul = 1.0;
inline constexpr double kCompare = 1.0;
inline constexpr double kDiv = 4.0;
inline constexpr double kSqrt = 4.0;
inline constexpr double kExp = 8.0;
inline constexpr double kLog = 8.0;
inline constexpr double kErf = 8.0;
inline constexpr double kTanh = 8.0;
}  // namespace flop_cost

}  // namespace proof
