// Layer mapping (paper §3.3, Figure 2): reconstructing which model-design
// nodes each backend layer implements, using only the information surface a
// real runtime exposes.
//
// The mapping ladder, applied per backend layer:
//   1. backend-inserted conversion layers register tensor aliases and map to
//      no model nodes;
//   2. name metadata (exact node name, or a fused-name list as exposed by
//      ONNX Runtime node names / OpenVINO originalLayersNames / TensorRT
//      "a + b" layer names) resolves directly;
//   3. I/O subgraph search (`get_subgraph_ops_by_io`) recovers fused layers
//      that expose only boundary tensors (ORT fused ops, Myelin regions);
//   4. dependency-context inference: a permissive backward walk from the
//      layer outputs over still-unclaimed nodes, for layers whose declared
//      boundary is incomplete.
// Every resolved multi-node layer is registered as a `_FusedOp` on the
// Optimized Analyze Representation, so the OAR converges to the backend's
// fused structure while retaining the model-design composition.
#pragma once

#include <string>
#include <vector>

#include "analysis/optimized_representation.hpp"
#include "backends/backend.hpp"

namespace proof::mapping {

enum class MapMethod : uint8_t {
  kExactName,            ///< layer name/info == one model node
  kNameList,             ///< fused-name list parsed from metadata
  kIoSearch,             ///< subgraph recovered from boundary tensors
  kDependencyInference,  ///< permissive dependency walk
  kBackendInserted,      ///< conversion layer added by the runtime
  kUnmapped,             ///< no mapping found
};

[[nodiscard]] std::string_view map_method_name(MapMethod method);

struct LayerMapEntry {
  std::string backend_layer;
  std::vector<std::string> model_nodes;  ///< mapped model-design node names
  MapMethod method = MapMethod::kUnmapped;
};

struct LayerMapping {
  std::vector<LayerMapEntry> entries;  ///< parallel to Engine::layers()

  /// Fraction of model nodes claimed by some backend layer.
  [[nodiscard]] double node_coverage(size_t total_nodes) const;
  /// Number of layers mapped by the given method.
  [[nodiscard]] size_t count(MapMethod method) const;
};

/// Maps every backend layer of `engine` onto `oar`'s model nodes.  Mutates
/// `oar` (aliases + fused ops).  Never consults BackendLayer::truth_nodes.
[[nodiscard]] LayerMapping map_layers(const backends::Engine& engine,
                                      OptimizedAnalyzeRepresentation& oar);

/// A mapping's entries resolved against one graph: per entry, the mapped
/// model node ids and, for entries of more than one node, the node set's
/// boundary tensors (Graph::boundary_ids).  Both are structural, so they hold
/// on every clone_warm() of that graph and on every graph instantiated from
/// the same AnalysisPlan.
struct ResolvedMapping {
  std::vector<std::vector<NodeId>> node_ids;
  std::vector<Graph::BoundaryIds> boundaries;  ///< empty for <= 1 node
};

/// Resolves every entry's model node names in `g`; throws ModelError when a
/// name is missing.
[[nodiscard]] ResolvedMapping resolve_mapping(const Graph& g, const LayerMapping& mapping);

/// Replays a previously computed mapping onto a fresh `oar`, applying the
/// same alias registrations and `_FusedOp` groups without re-running the
/// mapping search.  Valid for any engine instantiated from a frozen
/// AnalysisPlan, whose layer list is replayed from recipes and therefore
/// structurally identical by construction (core/analysis_plan.hpp).
/// `member_ids` are the entries' model node ids resolved against a graph
/// with the same node numbering (ResolvedMapping::node_ids; every
/// clone_warm of the plan skeleton qualifies), so no name is looked up.
/// Throws ModelError when the layer lists do not line up.
void apply_mapping(const backends::Engine& engine,
                   OptimizedAnalyzeRepresentation& oar,
                   const LayerMapping& mapping,
                   const std::vector<std::vector<NodeId>>& member_ids);
/// The same, with the ids passed by pointer; `member_ids` must not be null.
void apply_mapping(const backends::Engine& engine,
                   OptimizedAnalyzeRepresentation& oar,
                   const LayerMapping& mapping,
                   const std::vector<std::vector<NodeId>>* member_ids);

/// Test/diagnostic helper: compares a mapping against the engine's ground
/// truth.  Returns the number of layers whose node set differs.
[[nodiscard]] size_t verify_against_truth(const LayerMapping& mapping,
                                          const backends::Engine& engine);

}  // namespace proof::mapping
