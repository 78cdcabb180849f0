// ort_sim: ONNX-Runtime-like simulated runtime (CPU execution provider).
//
// Behaviour modelled after ONNX Runtime 1.1x with oneDNN-style kernels:
//  * conservative fusion: Conv+BN+activation and bias adds only — no
//    residual-add fusion, no pointwise chains, no opaque regions;
//  * unfused layers keep their source node names (exact-name mapping);
//  * fused layers are renamed "fused_op_<n>" and expose NO name metadata —
//    exactly the Figure-2 situation, mapped via I/O subgraph search;
//  * "reorder_<n>" layers convert tensor layouts between plain and blocked
//    formats around convolution stacks, renaming the tensor with an "_r"
//    suffix (Figure 2's t2 -> t2_r).
#include "backends/builtin.hpp"
#include "backends/fusion.hpp"
#include "backends/lowering.hpp"
#include "backends/prepare.hpp"

#include <map>

namespace proof::backends {

namespace {

bool group_is_conv(const Graph& g, const std::vector<NodeId>& members) {
  for (const NodeId id : members) {
    const Node& n = g.node(id);
    if (n.is("Conv") || n.is("ConvTranspose")) {
      return true;
    }
  }
  return false;
}

class OrtSimBackend final : public Backend {
 public:
  [[nodiscard]] std::string id() const override { return "ort_sim"; }
  [[nodiscard]] std::string name() const override { return "ONNXRuntime-sim 1.15"; }

  [[nodiscard]] BuildPlan plan(const Graph& g) const override {
    FusionState state(g);
    absorb_qdq_ops(state);  // int8 QDQ models fold into int8 kernels
    EpilogueOptions epilogue;
    epilogue.fold_batchnorm = true;
    epilogue.fuse_activation = true;
    epilogue.fuse_residual_add = false;
    fuse_conv_epilogues(state, epilogue);

    BuildPlan plan;
    plan.groups = state.groups();
    plan.opaque.assign(plan.groups.size(), 0);
    return plan;
  }

  [[nodiscard]] Engine lower(Graph g, const BuildPlan& plan,
                             const BuildConfig& config,
                             const hw::PlatformDesc& platform) const override {
    LoweringOptions lowering;
    lowering.arch = platform.arch;
    lowering.split_regions_at_anchors = false;

    // First pass: which tensors cross a layout boundary (produced outside any
    // conv group, consumed by one)?  Graph inputs feeding convs also qualify.
    // Flags are indexed by TensorId: no string sets on this path.
    const std::vector<std::vector<NodeId>>& groups = plan.groups;
    const size_t num_ids = g.num_tensor_ids();
    std::vector<uint8_t> produced_by_conv(num_ids, 0);
    for (const std::vector<NodeId>& members : groups) {
      const bool conv = group_is_conv(g, members);
      for (const NodeId id : members) {
        for (const TensorId out : g.node_output_ids(id)) {
          produced_by_conv[static_cast<size_t>(out)] = conv ? 1 : 0;
        }
      }
    }
    std::vector<uint8_t> needs_reorder(num_ids, 0);
    for (const std::vector<NodeId>& members : groups) {
      if (!group_is_conv(g, members)) {
        continue;
      }
      const Graph::BoundaryIds b = g.boundary_ids(members);
      for (const TensorId in : b.inputs) {
        if (!produced_by_conv[static_cast<size_t>(in)]) {
          needs_reorder[static_cast<size_t>(in)] = 1;
        }
      }
    }

    std::vector<BackendLayer> layers;
    std::map<std::string, std::string, std::less<>> renames;
    int reorder_index = 0;
    int fused_index = 0;
    std::vector<uint8_t> reordered(num_ids, 0);

    for (const std::vector<NodeId>& members : groups) {
      const bool conv_group = group_is_conv(g, members);
      // Emit reorder layers for this group's blocked-layout inputs, once per
      // tensor, immediately before the first consumer (Figure 2 ordering).
      if (conv_group) {
        const Graph::BoundaryIds b = g.boundary_ids(members);
        for (const TensorId in : b.inputs) {
          if (!needs_reorder[static_cast<size_t>(in)] ||
              reordered[static_cast<size_t>(in)]) {
            continue;
          }
          reordered[static_cast<size_t>(in)] = 1;
          const TensorDesc& desc = g.tensor(in);
          const std::string in_name(g.tensor_name(in));
          const std::string renamed = in_name + "_r";
          layers.push_back(make_reorder_layer(
              "reorder_" + std::to_string(reorder_index++), in_name, renamed,
              2.0 * static_cast<double>(desc.size_bytes()), desc.dtype));
          renames[in_name] = renamed;
        }
      }

      std::string name;
      std::string info;
      if (members.size() == 1) {
        name = g.node(members.front()).name;
        info = name;  // exact-name mapping is available for unfused layers
      } else {
        name = "fused_op_" + std::to_string(fused_index++);
        info = "";  // fused layers expose only their I/O tensors
      }
      LayerLabels labels = group_labels(g, members);
      labels.info = std::move(info);
      for (std::string& t : labels.input_tensors) {
        const auto it = renames.find(t);
        if (it != renames.end()) {
          t = it->second;
        }
      }
      layers.push_back(
          lower_group(g, members, std::move(name), std::move(labels), false, lowering));
    }
    // ONNX Runtime's parallel executor runs independent nodes on the
    // inter-op thread pool (session_options.inter_op_num_threads = 3 here).
    return Engine(id(), std::move(g), std::move(layers), config,
                  StreamPolicy{3, "inter-op thread"});
  }
};

}  // namespace

std::unique_ptr<Backend> make_ort_sim() { return std::make_unique<OrtSimBackend>(); }

}  // namespace proof::backends
