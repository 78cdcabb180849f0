#include "analysis/shape_inference.hpp"

#include <span>
#include <utility>

#include "ops/op_def.hpp"
#include "support/error.hpp"

namespace proof {

void infer_shapes(Graph& graph) {
  for (const std::string& in : graph.inputs()) {
    PROOF_CHECK(graph.has_tensor(in) && !graph.tensor(in).shape.empty(),
                "graph input '" << in << "' must carry a shape before inference");
  }
  for (const NodeId id : graph.topo_order()) {
    const Node& node = graph.node(id);
    const OpDef& def = op_def_for(node);
    const OpContext ctx(graph, node);
    std::vector<TensorDesc> outs;
    try {
      outs = def.infer(ctx);
    } catch (const Error& e) {
      throw ModelError("shape inference failed at node '" + node.name + "' (" +
                       node.op_type + "): " + e.what());
    }
    PROOF_CHECK(outs.size() == node.outputs.size(),
                "node '" << node.name << "' declares " << node.outputs.size()
                         << " outputs but op inferred " << outs.size());
    // topo_order() built the edge index, so the outputs resolve by id and
    // are overwritten in place (add_node gave every output a desc).
    const std::span<const TensorId> out_ids = graph.node_output_ids(id);
    for (size_t i = 0; i < outs.size(); ++i) {
      TensorDesc& desc = graph.tensor(out_ids[i]);
      desc.dtype = outs[i].dtype;
      desc.shape = std::move(outs[i].shape);
      desc.is_param = false;
    }
  }
}

void set_batch_size(Graph& graph, int64_t batch) {
  PROOF_CHECK(batch > 0, "batch must be positive, got " << batch);
  PROOF_CHECK(!graph.inputs().empty(), "graph has no inputs");
  const int64_t old_batch = graph.tensor(graph.inputs()[0]).shape.dim(0);
  for (const std::string& in : graph.inputs()) {
    graph.tensor(in).shape.set_dim(0, batch);
  }
  if (old_batch != batch) {
    // Shape-carrying attributes that bake in the old batch size (builders use
    // 0/-1 placeholders where possible; explicit batch appears in e.g.
    // Expand of broadcast tokens).  Nodes are read through the const list and
    // written only where an attr changes, so a graph whose attrs carry no
    // batch keeps sharing its node list (Graph::clone_warm).
    for (size_t i = 0; i < graph.num_nodes(); ++i) {
      for (const char* key : {"shape", "sizes"}) {
        const AttrMap& attrs = graph.nodes()[i].attrs;
        if (!attrs.has(key)) {
          continue;
        }
        const std::vector<int64_t>& dims = attrs.get_ints(key);
        if (!dims.empty() && dims[0] == old_batch) {
          std::vector<int64_t> rebatched = dims;
          rebatched[0] = batch;
          graph.mutable_nodes()[i].attrs.set(key, std::move(rebatched));
        }
      }
    }
  }
  infer_shapes(graph);
}

void convert_float_dtype(Graph& graph, DType dtype) {
  PROOF_CHECK(dtype_is_float(dtype) || dtype == DType::kI8,
              "conversion target must be a float type or int8");
  for (const std::string& name : graph.inputs()) {
    TensorDesc& desc = graph.tensor(name);
    if (dtype_is_float(desc.dtype)) {
      desc.dtype = dtype;
    }
  }
  for (TensorId id = 0; static_cast<size_t>(id) < graph.num_tensor_ids(); ++id) {
    if (graph.has_tensor(id) && dtype_is_float(graph.tensor(id).dtype)) {
      graph.tensor(id).dtype = dtype;
    }
  }
  infer_shapes(graph);
}

}  // namespace proof
