// ov_sim: OpenVINO-like simulated runtime.
//
// Behaviour modelled after OpenVINO 2024:
//  * moderate fusion: Conv+BN+activation (+residual add), pointwise chains;
//  * no opaque regions — transformer ops stay as individual fused layers;
//  * executed layers carry `originalLayersNames`-style metadata: the `info`
//    string lists the source node names comma-separated (this is the mapping
//    information PRoof's OpenVINO support consumes);
//  * Convert/Reorder layers appear at graph inputs and outputs, renaming the
//    boundary tensors (exercises the alias machinery).
#include "backends/builtin.hpp"
#include "backends/fusion.hpp"
#include "backends/lowering.hpp"
#include "backends/prepare.hpp"

#include <map>

namespace proof::backends {

namespace {

class OvSimBackend final : public Backend {
 public:
  [[nodiscard]] std::string id() const override { return "ov_sim"; }
  [[nodiscard]] std::string name() const override { return "OpenVINO-sim 2024.0"; }

  [[nodiscard]] BuildPlan plan(const Graph& g) const override {
    FusionState state(g);
    absorb_qdq_ops(state);  // int8 QDQ models fold into int8 kernels
    EpilogueOptions epilogue;
    epilogue.fold_batchnorm = true;
    epilogue.fuse_activation = true;
    epilogue.fuse_residual_add = true;
    fuse_conv_epilogues(state, epilogue);
    fuse_pointwise_chains(state, 6);
    absorb_view_ops(state);

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

    std::vector<BackendLayer> layers;
    std::map<std::string, std::string, std::less<>> renames;  // model tensor -> backend name

    // Input Convert layers: rename "input" -> "input/convert".
    for (const std::string& in : g.inputs()) {
      const TensorDesc& desc = g.tensor(in);
      const std::string converted = in + "/convert";
      layers.push_back(make_reorder_layer("Convert_" + in, in, converted,
                                          2.0 * static_cast<double>(desc.size_bytes()),
                                          desc.dtype));
      renames[in] = converted;
    }

    int index = 0;
    for (const std::vector<NodeId>& members : plan.groups) {
      const std::string& anchor_type = g.node(members.front()).op_type;
      LayerLabels labels = group_labels(g, members);
      // originalLayersNames metadata: comma-joined source node names.
      labels.info = joined_layer_name(g, members, ",");
      // Consumers of renamed inputs observe the backend tensor names.
      for (std::string& t : labels.input_tensors) {
        const auto it = renames.find(t);
        if (it != renames.end()) {
          t = it->second;
        }
      }
      std::string name = anchor_type + "_" + std::to_string(index++);
      layers.push_back(
          lower_group(g, members, std::move(name), std::move(labels), false, lowering));
    }
    // OpenVINO's throughput hint splits the compiled model across two infer
    // streams per socket; branch-level concurrency is bounded accordingly.
    return Engine(id(), std::move(g), std::move(layers), config,
                  StreamPolicy{2, "infer stream"});
  }
};

}  // namespace

std::unique_ptr<Backend> make_ov_sim() { return std::make_unique<OvSimBackend>(); }

}  // namespace proof::backends
