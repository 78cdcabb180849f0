// trt_sim: TensorRT-like simulated runtime.
//
// Behaviour modelled after the paper's description of TensorRT 8.x:
//  * aggressive fusion: Conv+BN+Add+activation epilogues, pointwise chains;
//  * the Myelin optimizer swallows transformer blocks into opaque
//    "{ForeignNode[...]}" regions whose layer names carry NO mapping
//    information — only the region I/O tensors are observable;
//  * fused non-region layers are named "a + b + c" after their source nodes;
//  * reformat layers appear around graph inputs/outputs at reduced precision.
#include "backends/builtin.hpp"
#include "backends/fusion.hpp"
#include "backends/lowering.hpp"
#include "backends/prepare.hpp"

#include <set>

namespace proof::backends {

namespace {

class TrtSimBackend final : public Backend {
 public:
  [[nodiscard]] std::string id() const override { return "trt_sim"; }
  [[nodiscard]] std::string name() const override { return "TensorRT-sim 8.6.1"; }

  [[nodiscard]] BuildPlan plan(const Graph& g) const override {
    FusionState state(g);
    absorb_qdq_ops(state);  // int8 QDQ models fold into int8 kernels
    EpilogueOptions epilogue;
    epilogue.fold_batchnorm = true;
    epilogue.fuse_activation = true;
    epilogue.fuse_residual_add = true;
    fuse_conv_epilogues(state, epilogue);
    const std::vector<NodeId> region_reps = fuse_attention_regions(state, 2);
    fuse_pointwise_chains(state, 8);
    absorb_view_ops(state);

    std::set<int> region_roots;
    for (const NodeId rep : region_reps) {
      region_roots.insert(state.group_of(rep));
    }

    BuildPlan plan;
    plan.groups = state.groups();
    plan.opaque.reserve(plan.groups.size());
    for (const std::vector<NodeId>& members : plan.groups) {
      plan.opaque.push_back(
          region_roots.count(state.group_of(members.front())) > 0 ? 1 : 0);
    }
    return plan;
  }

  [[nodiscard]] Engine lower(Graph g, const BuildPlan& plan,
                             const BuildConfig& config,
                             const hw::PlatformDesc& platform) const override {
    LoweringOptions lowering;
    lowering.arch = platform.arch;
    lowering.split_regions_at_anchors = true;

    std::vector<BackendLayer> layers;
    // Input reformat layers (NCHW -> NHWC / precision conversion).
    for (const std::string& in : g.inputs()) {
      const TensorDesc& desc = g.tensor(in);
      if (dtype_is_float(desc.dtype) || desc.dtype == DType::kI8) {
        layers.push_back(make_reorder_layer(
            "Reformatting CopyNode for Input Tensor " + in, in, in,
            2.0 * static_cast<double>(desc.size_bytes()), desc.dtype));
      }
    }
    for (size_t gi = 0; gi < plan.groups.size(); ++gi) {
      const std::vector<NodeId>& members = plan.groups[gi];
      const bool opaque = plan.opaque[gi] != 0;
      std::string name;
      if (opaque) {
        name = "{ForeignNode[" + g.node(members.front()).name + "..." +
               g.node(members.back()).name + "]}";
      } else {
        name = joined_layer_name(g, members, " + ");
      }
      LayerLabels labels = group_labels(g, members);
      // TensorRT layer names embed the source node names for ordinary fused
      // layers; Myelin regions expose nothing beyond their I/O tensors.
      labels.info = opaque ? "" : name;
      layers.push_back(
          lower_group(g, members, std::move(name), std::move(labels), opaque, lowering));
    }
    // TensorRT dispatches independent branches on auxiliary CUDA streams
    // (builder_config.max_aux_streams defaults to the engine's heuristic; 4
    // matches what Nsight timelines show for branchy CNNs on Ampere).
    return Engine(id(), std::move(g), std::move(layers), config,
                  StreamPolicy{4, "cuda stream"});
  }
};

}  // namespace

std::unique_ptr<Backend> make_trt_sim() { return std::make_unique<TrtSimBackend>(); }

}  // namespace proof::backends
