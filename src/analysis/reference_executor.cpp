#include "analysis/reference_executor.hpp"

#include "ops/op_def.hpp"
#include "support/error.hpp"

namespace proof {

ReferenceExecutor::ReferenceExecutor(const Graph& graph) : graph_(&graph) {}

bool ReferenceExecutor::fully_supported() const {
  for (const Node& node : graph_->nodes()) {
    if (!op_def_for(node).has_reference()) {
      return false;
    }
  }
  return true;
}

std::map<std::string, Tensor> ReferenceExecutor::run(
    const std::map<std::string, Tensor>& feeds) const {
  std::map<std::string, Tensor> values;
  for (const std::string& in : graph_->inputs()) {
    const auto it = feeds.find(in);
    PROOF_CHECK(it != feeds.end(), "missing feed for input '" << in << "'");
    PROOF_CHECK(it->second.shape() == graph_->tensor(in).shape,
                "feed shape " << it->second.shape().to_string()
                              << " != declared " << graph_->tensor(in).shape.to_string()
                              << " for '" << in << "'");
    values.emplace(in, it->second);
  }
  // Materialize params deterministically keyed by tensor name.
  for (const auto& [name, desc] : graph_->tensors()) {
    if (desc.is_param) {
      values.emplace(name, Tensor::random(desc.shape, std::string(name)));
    }
  }
  for (const NodeId id : graph_->topo_order()) {
    const Node& node = graph_->node(id);
    const OpDef& def = op_def_for(node);
    const OpContext ctx(*graph_, node);
    std::vector<const Tensor*> inputs;
    inputs.reserve(node.inputs.size());
    for (const std::string& in : node.inputs) {
      const auto it = values.find(in);
      PROOF_CHECK(it != values.end(),
                  "tensor '" << in << "' not computed before node '" << node.name
                             << "'");
      inputs.push_back(&it->second);
    }
    std::vector<Tensor> outputs;
    outputs.reserve(node.outputs.size());
    for (const std::string& out : node.outputs) {
      outputs.emplace_back(graph_->tensor(out).shape);
    }
    def.eval(ctx, inputs, outputs);
    for (size_t i = 0; i < node.outputs.size(); ++i) {
      values.insert_or_assign(node.outputs[i], std::move(outputs[i]));
    }
  }
  return values;
}

std::map<std::string, Tensor> ReferenceExecutor::run_random() const {
  std::map<std::string, Tensor> feeds;
  for (const std::string& in : graph_->inputs()) {
    feeds.emplace(in, Tensor::random(graph_->tensor(in).shape, "feed:" + in));
  }
  return run(feeds);
}

}  // namespace proof
