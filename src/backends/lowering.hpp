// Lowering node groups to backend layers and device kernels.
#pragma once

#include <string>
#include <vector>

#include "analysis/analyze_representation.hpp"
#include "backends/backend.hpp"

namespace proof::backends {

struct LoweringOptions {
  std::string arch;                 ///< platform architecture (MMA tables)
  /// Opaque regions are emitted as one kernel per GEMM anchor; intermediate
  /// tensors between kernels round-trip through DRAM, which is the real
  /// behaviour Equation 1's fused model slightly under-predicts.
  bool split_regions_at_anchors = true;
  int max_kernels_per_region = 64;
};

/// Labels of a group of model nodes: its boundary tensors as I/O and its
/// member node names as ground truth; `info` is left to the backend.
[[nodiscard]] LayerLabels group_labels(const Graph& graph,
                                       const std::vector<NodeId>& members);

/// Builds a backend layer named `layer_name` from a group of model nodes and
/// its labels.  Computes boundary DRAM traffic, hardware FLOP,
/// matrix-pipeline FLOP and the kernel list.
[[nodiscard]] BackendLayer lower_group(const Graph& graph,
                                       const std::vector<NodeId>& members,
                                       std::string layer_name, LayerLabels labels,
                                       bool opaque, const LoweringOptions& options);

/// Builds a backend-inserted conversion layer moving `bytes` through DRAM.
[[nodiscard]] BackendLayer make_reorder_layer(std::string name,
                                              const std::string& input_tensor,
                                              const std::string& output_tensor,
                                              double bytes, DType dtype);

/// Dominant workload class of a node set (FLOP-weighted, falls back to
/// byte-weighted for FLOP-free sets).
[[nodiscard]] OpClass dominant_op_class(const Graph& graph,
                                        const std::vector<NodeId>& members);

/// Kernel segmentation of an opaque region: one segment per matrix anchor,
/// capped at `options.max_kernels_per_region`.  Purely structural (op types
/// and member order; never shapes), so the segmentation computed on one
/// instantiation of a graph is valid for every compatible instantiation —
/// lower_group and the AnalysisPlan recipe extractor share this single
/// source of truth.
[[nodiscard]] std::vector<std::vector<NodeId>> region_kernel_segments(
    const Graph& graph, const std::vector<NodeId>& members,
    const LoweringOptions& options);

// --- shape-polymorphic layer recipes (core/analysis_plan.hpp) ---------------
//
// A LayerRecipe freezes every structural decision behind one lowered backend
// layer — its name, metadata, I/O tensor names (post-rename), fused member
// nodes and kernel segmentation — while leaving the shape-dependent numbers
// (kernel bytes/FLOPs, dominant op class) to be re-evaluated per cell from
// the instantiated graph's actual tensor shapes.  Replaying a recipe runs
// the exact same kernel-costing code lowering runs, so the resulting layers
// are byte-identical to a full lower() over the same graph.

/// One kernel of a frozen layer: the cached kernel name, the member node ids
/// of its segment, and whether it executes inside an opaque region (the MMA
/// specialization discount applies there).
struct KernelRecipe {
  std::string name;
  std::vector<NodeId> members;
  bool in_region = false;
  /// Cached boundary of multi-node segments (params/inputs/outputs), in the
  /// exact order boundary_ids() returns — the boundary is purely structural,
  /// and the interned tensor ids stay valid on every clone_warm() of the
  /// graph the recipe was extracted from.  Empty for single-node kernels,
  /// whose bytes come from the per-op memory rule instead.
  Graph::BoundaryIds boundary;
  bool boundary_cached = false;
};

/// Frozen structural record of one backend layer (reorder or fused group).
/// Node ids refer to the prepared graph, whose node ordering is preserved
/// across compatible instantiations.
struct LayerRecipe {
  bool is_reorder = false;
  std::string name;
  /// The canonical layer's labels, shared (not copied) by every replay.
  std::shared_ptr<const LayerLabels> labels;
  bool is_opaque = false;
  /// Fused group layers: member node ids (empty for reorders).
  std::vector<NodeId> members;
  std::vector<KernelRecipe> kernels;
  /// Reorder layers: DRAM traffic per source-tensor byte (the backends'
  /// read-convert-write factor), plus the canonical absolute bytes as a
  /// fallback for zero-sized sources.
  double reorder_bytes_per_byte = 0.0;
  double reorder_bytes = 0.0;
};

/// Derives the recipe list from a canonical build: walks `layers` in order,
/// pairing each non-reorder layer with the next group of `plan` and
/// re-deriving multi-kernel segmentations via region_kernel_segments.
/// `built` is the graph the layers were lowered from.
[[nodiscard]] std::vector<LayerRecipe> extract_layer_recipes(
    const Graph& built, const std::vector<BackendLayer>& layers,
    const BuildPlan& plan);

/// Re-evaluates one frozen layer against a compatible instantiated graph:
/// the recipe's labels shared, kernel work sizes and op classes
/// recomputed from `g`'s shapes through the same code paths lowering uses.
/// `analyses` (optional, indexed by NodeId over `g`) shares the per-node
/// flops/memory/class evaluations the caller's AnalyzeRepresentation already
/// made — the identical pure functions over the identical graph, so replayed
/// layers stay bit-equal to a full lower() whether or not it is passed.
[[nodiscard]] BackendLayer replay_layer_recipe(
    const Graph& g, const LayerRecipe& recipe, const LoweringOptions& options,
    const std::vector<NodeAnalysis>* analyses = nullptr);

}  // namespace proof::backends
