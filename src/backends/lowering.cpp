#include "backends/lowering.hpp"

#include <array>

#include "hw/hardware_flops.hpp"
#include "support/error.hpp"

namespace proof::backends {

namespace {

bool is_matrix_anchor(std::string_view op_type) {
  return op_type == "Conv" || op_type == "ConvTranspose" || op_type == "Gemm" ||
         op_type == "MatMul";
}

/// DRAM traffic of a node set assuming on-chip forwarding of intermediates:
/// params streamed + boundary activations.  Single nodes use the per-op rule
/// (which also handles stride read fractions / zero-copy views).
double group_bytes_from_boundary(const Graph& g, const Graph::BoundaryIds& b) {
  double bytes = 0.0;
  for (const TensorId t : b.params) {
    bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  for (const TensorId t : b.inputs) {
    bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  for (const TensorId t : b.outputs) {
    bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  return bytes;
}

double group_bytes(const Graph& g, const std::vector<NodeId>& members) {
  if (members.size() == 1) {
    const Node& node = g.node(members[0]);
    const OpContext ctx(g, node);
    return op_def_for(node).memory(ctx).total();
  }
  return group_bytes_from_boundary(g, g.boundary_ids(members));
}

/// Per-node op class: the shared AnalyzeRepresentation value when available
/// (same pure function over the same graph), a fresh evaluation otherwise.
OpClass node_op_class(const Node& node, const OpContext& ctx, NodeId id,
                      const std::vector<NodeAnalysis>* analyses) {
  return analyses != nullptr ? (*analyses)[static_cast<size_t>(id)].op_class
                             : op_def_for(node).op_class(ctx);
}

/// dominant_op_class over precomputed per-node analyses — identical
/// accumulation loop and tie-breaking, with the op-def evaluations replaced
/// by the values an AnalyzeRepresentation already computed for `g`.
OpClass dominant_op_class_precomputed(const std::vector<NodeId>& members,
                                      const std::vector<NodeAnalysis>& analyses) {
  PROOF_CHECK(!members.empty(), "empty member set");
  std::array<double, kOpClassCount> flops_by_class{};
  std::array<double, kOpClassCount> bytes_by_class{};
  std::array<bool, kOpClassCount> present{};
  for (const NodeId id : members) {
    const NodeAnalysis& a = analyses[static_cast<size_t>(id)];
    const size_t cls = static_cast<size_t>(a.op_class);
    present[cls] = true;
    flops_by_class[cls] += a.flops;
    bytes_by_class[cls] += a.memory.total();
  }
  OpClass best = OpClass::kElementwise;
  double best_score = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && flops_by_class[cls] > best_score) {
      best_score = flops_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  if (best_score > 0.0) {
    return best;
  }
  best_score = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && bytes_by_class[cls] > best_score) {
      best_score = bytes_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  return best;
}

/// `precomputed_cls` / `cached_boundary` / `analyses` are recipe-replay
/// shortcuts: the dominant class of a whole-group kernel equals the
/// already-computed layer class, a cached structural boundary skips the
/// per-cell boundary walk, and shared per-node analyses skip re-evaluating
/// op defs the AR evaluated moments earlier.  Each must evaluate to exactly
/// what the full computation would return — the canonical lowering path
/// always passes nullptr.
hw::KernelWork make_kernel(const Graph& g, const std::vector<NodeId>& members,
                           const std::string& name, const LoweringOptions& options,
                           bool in_region, const OpClass* precomputed_cls = nullptr,
                           const Graph::BoundaryIds* cached_boundary = nullptr,
                           const std::vector<NodeAnalysis>* analyses = nullptr) {
  hw::KernelWork k;
  k.name = name;
  k.cls = precomputed_cls != nullptr ? *precomputed_cls
          : analyses != nullptr      ? dominant_op_class_precomputed(members, *analyses)
                                     : dominant_op_class(g, members);
  if (cached_boundary != nullptr && members.size() > 1) {
    k.bytes = group_bytes_from_boundary(g, *cached_boundary);
  } else if (analyses != nullptr && members.size() == 1) {
    // group_bytes' single-node case is the per-op memory rule — the exact
    // value the AR computed for this node.
    k.bytes = (*analyses)[static_cast<size_t>(members[0])].memory.total();
  } else {
    k.bytes = group_bytes(g, members);
  }
  for (const NodeId id : members) {
    const Node& node = g.node(id);
    const OpContext ctx(g, node);
    double hwf = hw::hardware_flops(ctx, options.arch);
    if (is_matrix_anchor(node.op_type) &&
        node_op_class(node, ctx, id, analyses) != OpClass::kConvDepthwise) {
      // Myelin-style region compilers emit specialized fused-attention
      // kernels for long sequences that skip padded epilogue passes; the
      // counter sees ~13 % fewer MMA instructions than a naive lowering.
      if (in_region && node.op_type == "MatMul" &&
          ctx.out_shape(0).dim(-2) >= 128) {
        hwf *= 0.84;
      }
      k.hw_flops += hwf;
      k.matrix_flops += hwf;
    } else {
      k.hw_flops += hwf;
    }
  }
  if (!members.empty()) {
    k.dtype = g.tensor(g.node_output_ids(members[0])[0]).dtype;
  }
  for (const NodeId id : members) {
    const Node& n = g.node(id);
    if (n.is("QuantizeLinear") || n.is("DequantizeLinear")) {
      k.dtype = DType::kI8;  // folded QDQ group executes as an int8 kernel
      break;
    }
  }
  return k;
}

}  // namespace

OpClass dominant_op_class(const Graph& graph, const std::vector<NodeId>& members) {
  PROOF_CHECK(!members.empty(), "empty member set");
  // Dense per-class accumulators (no ordered-map churn on the lowering hot
  // path); `present` keeps the tie-breaking identical to the old map-based
  // version, which only considered classes that actually occur.
  std::array<double, kOpClassCount> flops_by_class{};
  std::array<double, kOpClassCount> bytes_by_class{};
  std::array<bool, kOpClassCount> present{};
  for (const NodeId id : members) {
    const Node& node = graph.node(id);
    const OpContext ctx(graph, node);
    const OpDef& def = op_def_for(node);
    const size_t cls = static_cast<size_t>(def.op_class(ctx));
    present[cls] = true;
    flops_by_class[cls] += def.flops(ctx);
    bytes_by_class[cls] += def.memory(ctx).total();
  }
  OpClass best = OpClass::kElementwise;
  double best_score = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && flops_by_class[cls] > best_score) {
      best_score = flops_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  if (best_score > 0.0) {
    return best;
  }
  best_score = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && bytes_by_class[cls] > best_score) {
      best_score = bytes_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  return best;
}

LayerLabels group_labels(const Graph& graph, const std::vector<NodeId>& members) {
  LayerLabels labels;
  const Graph::BoundaryIds b = graph.boundary_ids(members);
  labels.input_tensors.reserve(b.inputs.size());
  for (const TensorId t : b.inputs) {
    labels.input_tensors.emplace_back(graph.tensor_name(t));
  }
  labels.output_tensors.reserve(b.outputs.size());
  for (const TensorId t : b.outputs) {
    labels.output_tensors.emplace_back(graph.tensor_name(t));
  }
  for (const NodeId id : members) {
    labels.truth_nodes.push_back(graph.node(id).name);
  }
  return labels;
}

BackendLayer lower_group(const Graph& graph, const std::vector<NodeId>& members,
                         std::string layer_name, LayerLabels labels, bool opaque,
                         const LoweringOptions& options) {
  PROOF_CHECK(!members.empty(), "cannot lower an empty group");
  BackendLayer layer;
  layer.name = std::move(layer_name);
  layer.labels = std::make_shared<const LayerLabels>(std::move(labels));
  layer.is_opaque = opaque;
  layer.cls = dominant_op_class(graph, members);

  if (!opaque || !options.split_regions_at_anchors) {
    layer.kernels.push_back(
        make_kernel(graph, members, layer.name, options, opaque));
    return layer;
  }

  // Opaque region: one kernel per matrix anchor.  Intermediates between
  // kernels round-trip through DRAM, so each segment is costed separately.
  const std::vector<std::vector<NodeId>> segments =
      region_kernel_segments(graph, members, options);
  for (size_t i = 0; i < segments.size(); ++i) {
    layer.kernels.push_back(make_kernel(graph, segments[i],
                                        layer.name + "_k" + std::to_string(i),
                                        options, /*in_region=*/true));
  }
  return layer;
}

std::vector<std::vector<NodeId>> region_kernel_segments(
    const Graph& graph, const std::vector<NodeId>& members,
    const LoweringOptions& options) {
  std::vector<std::vector<NodeId>> segments;
  std::vector<NodeId> current;
  int anchors_in_current = 0;
  for (const NodeId id : members) {
    const bool anchor = is_matrix_anchor(graph.node(id).op_type);
    if (anchor && anchors_in_current > 0 &&
        static_cast<int>(segments.size()) < options.max_kernels_per_region - 1) {
      segments.push_back(current);
      current.clear();
      anchors_in_current = 0;
    }
    current.push_back(id);
    if (anchor) {
      ++anchors_in_current;
    }
  }
  if (!current.empty()) {
    segments.push_back(current);
  }
  return segments;
}

std::vector<LayerRecipe> extract_layer_recipes(
    const Graph& built, const std::vector<BackendLayer>& layers,
    const BuildPlan& plan) {
  std::vector<LayerRecipe> recipes;
  recipes.reserve(layers.size());
  size_t gi = 0;
  for (const BackendLayer& layer : layers) {
    LayerRecipe r;
    r.is_reorder = layer.is_reorder;
    r.name = layer.name;
    r.labels = layer.labels;
    r.is_opaque = layer.is_opaque;
    if (layer.is_reorder) {
      PROOF_CHECK(layer.kernels.size() == 1 && !layer.labels->input_tensors.empty(),
                  "reorder layer '" << layer.name
                                    << "' has an unexpected kernel/IO shape");
      // Reorders always source a pre-rename model tensor that exists in the
      // prepared graph; freeze the traffic as a per-byte factor so it scales
      // exactly with the instantiated tensor size.
      r.reorder_bytes = layer.kernels[0].bytes;
      const TensorDesc& src = built.tensor(layer.labels->input_tensors[0]);
      const double src_bytes = static_cast<double>(src.size_bytes());
      r.reorder_bytes_per_byte =
          src_bytes > 0.0 ? r.reorder_bytes / src_bytes : 0.0;
    } else {
      PROOF_CHECK(gi < plan.groups.size(),
                  "layer list has more fused layers than the build plan has "
                  "groups (layer '"
                      << layer.name << "')");
      r.members = plan.groups[gi++];
      if (layer.kernels.size() == 1 && layer.kernels[0].name == layer.name) {
        // Single-kernel form (non-opaque layers, or split disabled): the
        // kernel covers the whole group; in_region mirrors lower_group's
        // `opaque` argument.
        KernelRecipe k;
        k.name = layer.name;
        k.members = r.members;
        k.in_region = layer.is_opaque;
        if (k.members.size() > 1) {
          k.boundary = built.boundary_ids(k.members);
          k.boundary_cached = true;
        }
        r.kernels.push_back(std::move(k));
      } else {
        // Segmented opaque region: re-derive the (structural) segmentation
        // and check it reproduces the canonical kernel list.
        const std::vector<std::vector<NodeId>> segments =
            region_kernel_segments(built, r.members, LoweringOptions{});
        PROOF_CHECK(segments.size() == layer.kernels.size(),
                    "kernel segmentation of '"
                        << layer.name << "' diverged from the canonical build ("
                        << segments.size() << " vs " << layer.kernels.size()
                        << " kernels)");
        for (size_t i = 0; i < segments.size(); ++i) {
          KernelRecipe k;
          k.name = layer.name + "_k" + std::to_string(i);
          PROOF_CHECK(k.name == layer.kernels[i].name,
                      "kernel name mismatch in '" << layer.name << "'");
          k.members = segments[i];
          k.in_region = true;
          if (k.members.size() > 1) {
            k.boundary = built.boundary_ids(k.members);
            k.boundary_cached = true;
          }
          r.kernels.push_back(std::move(k));
        }
      }
    }
    recipes.push_back(std::move(r));
  }
  PROOF_CHECK(gi == plan.groups.size(),
              "build plan has " << plan.groups.size()
                                << " groups but only " << gi
                                << " fused layers were lowered");
  return recipes;
}

BackendLayer replay_layer_recipe(const Graph& g, const LayerRecipe& recipe,
                                 const LoweringOptions& options,
                                 const std::vector<NodeAnalysis>* analyses) {
  BackendLayer layer;
  layer.name = recipe.name;
  layer.labels = recipe.labels;
  layer.is_reorder = recipe.is_reorder;
  layer.is_opaque = recipe.is_opaque;
  if (recipe.is_reorder) {
    layer.cls = OpClass::kCopy;
    const TensorDesc& src = g.tensor(recipe.labels->input_tensors[0]);
    const double src_bytes = static_cast<double>(src.size_bytes());
    hw::KernelWork k;
    k.name = layer.name;
    k.cls = OpClass::kCopy;
    k.dtype = src.dtype;
    k.bytes = src_bytes > 0.0 ? recipe.reorder_bytes_per_byte * src_bytes
                              : recipe.reorder_bytes;
    layer.kernels.push_back(std::move(k));
    return layer;
  }
  // Shape-dependent numbers are recomputed per cell through the same costing
  // code lower_group uses, so replayed layers match a full lower() bit-wise.
  // Structural shortcuts only: a whole-group kernel's dominant class IS the
  // layer class just computed, and cached boundaries skip the boundary walk.
  layer.cls = analyses != nullptr
                  ? dominant_op_class_precomputed(recipe.members, *analyses)
                  : dominant_op_class(g, recipe.members);
  layer.kernels.reserve(recipe.kernels.size());
  for (const KernelRecipe& k : recipe.kernels) {
    const bool whole_group = recipe.kernels.size() == 1 &&
                             k.members.size() == recipe.members.size();
    layer.kernels.push_back(make_kernel(
        g, k.members, k.name, options, k.in_region,
        whole_group ? &layer.cls : nullptr,
        k.boundary_cached ? &k.boundary : nullptr, analyses));
  }
  return layer;
}

BackendLayer make_reorder_layer(std::string name, const std::string& input_tensor,
                                const std::string& output_tensor, double bytes,
                                DType dtype) {
  LayerLabels labels;
  labels.input_tensors = {input_tensor};
  labels.output_tensors = {output_tensor};
  BackendLayer layer;
  layer.name = std::move(name);
  layer.labels = std::make_shared<const LayerLabels>(std::move(labels));
  layer.is_reorder = true;
  layer.cls = OpClass::kCopy;
  hw::KernelWork k;
  k.name = layer.name;
  k.cls = OpClass::kCopy;
  k.dtype = dtype;
  k.bytes = bytes;
  layer.kernels.push_back(std::move(k));
  return layer;
}

}  // namespace proof::backends
