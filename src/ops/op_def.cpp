#include "ops/op_def.hpp"

#include <algorithm>
#include <functional>

#include "ops/registry_init.hpp"
#include "support/error.hpp"

namespace proof {

std::string_view op_class_name(OpClass cls) {
  switch (cls) {
    case OpClass::kGemm:
      return "gemm";
    case OpClass::kConv:
      return "conv";
    case OpClass::kConvDepthwise:
      return "conv_dw";
    case OpClass::kConvPointwise:
      return "conv_pw";
    case OpClass::kElementwise:
      return "elementwise";
    case OpClass::kReduction:
      return "reduction";
    case OpClass::kNormalization:
      return "normalization";
    case OpClass::kSoftmax:
      return "softmax";
    case OpClass::kDataMovement:
      return "data_movement";
    case OpClass::kCopy:
      return "copy";
    case OpClass::kNoOp:
      return "no_op";
  }
  PROOF_FAIL("unknown op class");
}

OpContext::OpContext(const Graph& graph, const Node& node)
    : graph_(&graph), node_(&node) {
  if (!graph.edge_index_current()) {
    return;
  }
  const std::vector<Node>& nodes = graph.nodes();
  const std::less<const Node*> before;
  if (before(&node, nodes.data()) || !before(&node, nodes.data() + nodes.size())) {
    return;
  }
  const NodeId id = static_cast<NodeId>(&node - nodes.data());
  const std::span<const TensorId> ins = graph.node_input_ids(id);
  const std::span<const TensorId> outs = graph.node_output_ids(id);
  if (ins.size() == node.inputs.size() && outs.size() == node.outputs.size()) {
    in_ids_ = ins.data();
    out_ids_ = outs.data();
  }
}

const TensorDesc& OpContext::input(size_t i) const {
  PROOF_CHECK(i < node_->inputs.size(),
              "node '" << node_->name << "' has no input #" << i);
  if (in_ids_ != nullptr && graph_->has_tensor(in_ids_[i])) {
    return graph_->tensor(in_ids_[i]);
  }
  return graph_->tensor(node_->inputs[i]);  // also the unknown-tensor error
}

const TensorDesc& OpContext::output(size_t i) const {
  PROOF_CHECK(i < node_->outputs.size(),
              "node '" << node_->name << "' has no output #" << i);
  if (out_ids_ != nullptr && graph_->has_tensor(out_ids_[i])) {
    return graph_->tensor(out_ids_[i]);
  }
  return graph_->tensor(node_->outputs[i]);
}

MemoryEstimate OpDef::memory(const OpContext& ctx) const {
  // Equation 1: params + batch * (inputs + outputs); shapes here already
  // carry the batch dimension, so sizes are used directly.
  MemoryEstimate est;
  for (size_t i = 0; i < ctx.num_inputs(); ++i) {
    const TensorDesc& in = ctx.input(i);
    if (in.is_param) {
      est.param_bytes += static_cast<double>(in.size_bytes());
    } else {
      est.read_bytes += static_cast<double>(in.size_bytes());
    }
  }
  for (size_t i = 0; i < ctx.num_outputs(); ++i) {
    est.write_bytes += static_cast<double>(ctx.output(i).size_bytes());
  }
  return est;
}

void OpDef::eval(const OpContext& ctx, const std::vector<const Tensor*>&,
                 std::vector<Tensor>&) const {
  PROOF_FAIL("operator '" << type() << "' (node '" << ctx.node().name
                          << "') has no reference implementation");
}

OpRegistry::OpRegistry() = default;

OpRegistry& OpRegistry::instance() {
  static OpRegistry* registry = [] {
    auto* r = new OpRegistry();
    register_builtin_ops(*r);
    return r;
  }();
  return *registry;
}

void OpRegistry::add(std::unique_ptr<OpDef> def) {
  PROOF_CHECK(def != nullptr, "null OpDef");
  const std::string key{def->type()};
  PROOF_CHECK(defs_.find(key) == defs_.end(), "duplicate op type '" << key << "'");
  defs_.emplace(key, std::move(def));
}

const OpDef& OpRegistry::lookup(std::string_view op_type) const {
  const auto it = defs_.find(op_type);
  if (it == defs_.end()) {
    throw ModelError("unknown operator type '" + std::string(op_type) + "'");
  }
  return *it->second;
}

bool OpRegistry::contains(std::string_view op_type) const {
  return defs_.find(op_type) != defs_.end();
}

std::vector<std::string> OpRegistry::registered_types() const {
  std::vector<std::string> out;
  out.reserve(defs_.size());
  for (const auto& [key, def] : defs_) {
    out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const OpDef& op_def_for(const Node& node) {
  return OpRegistry::instance().lookup(node.op_type);
}

}  // namespace proof
