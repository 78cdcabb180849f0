// Optimized Analyze Representation (paper §3.2.3).
//
// Represents the model *after* backend optimization as an overlay over the
// original Analyze Representation: fused groups of original nodes (the
// paper's `_FusedOp`) plus tensor aliases for backend-inserted conversion
// layers.  Keeping the original graph intact is what preserves the composite
// relationship between backend layers and model-design layers (Figure 2).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyze_representation.hpp"

namespace proof {

/// Identifier of a fused group inside an OptimizedAnalyzeRepresentation.
using FusedOpId = int32_t;

class OptimizedAnalyzeRepresentation {
 public:
  explicit OptimizedAnalyzeRepresentation(const AnalyzeRepresentation& base);

  [[nodiscard]] const AnalyzeRepresentation& base() const { return *base_; }

  // --- interfaces used by layer mapping (paper Figure 2) -------------------

  /// Registers `alias` as another name for `tensor` (backend reorder output,
  /// renamed tensor, ...).  Resolution is transitive.
  void set_tensor_alias(const std::string& tensor, const std::string& alias);

  /// Resolves a (possibly aliased) tensor name to the model tensor name.
  [[nodiscard]] std::string resolve(const std::string& name) const;
  /// Allocation-free resolve: the returned view points into the alias map or
  /// the caller's argument and stays valid until the next set_tensor_alias.
  [[nodiscard]] std::string_view resolve_view(std::string_view name) const;
  /// Resolves through aliases straight to the model graph's interned tensor
  /// id (kInvalidTensor for names the graph has never seen).
  [[nodiscard]] TensorId resolve_id(std::string_view name) const;

  /// Finds the node set whose boundary matches the given (possibly aliased)
  /// input/output tensors; members already claimed by a fused op make the
  /// lookup fail.  Mirrors `get_subgraph_ops_by_io`.
  [[nodiscard]] std::optional<std::vector<NodeId>> get_subgraph_ops_by_io(
      const std::vector<std::string>& inputs,
      const std::vector<std::string>& outputs) const;

  /// Fuses `members` into a `_FusedOp` named `name`; throws when a member is
  /// already claimed.  Mirrors `set_fused_op`.
  FusedOpId set_fused_op(const std::string& name, const std::vector<NodeId>& members);

  /// True when the node has been claimed by some fused op.
  [[nodiscard]] bool is_fused(NodeId id) const;

  // --- resulting optimized-layer view ---------------------------------------

  /// One layer of the optimized model: either a fused group or a left-over
  /// original node.
  struct OptLayer {
    std::string name;
    std::vector<NodeId> members;     ///< original node ids (singleton if unfused)
    bool is_fused = false;
    double flops = 0.0;              ///< sum over members
    MemoryEstimate memory;           ///< fusion-aware (boundary tensors only)
    OpClass op_class = OpClass::kElementwise;  ///< dominant member class
  };

  /// All optimized layers in topological order of their first member.
  [[nodiscard]] std::vector<OptLayer> layers() const;

  /// Analysis of a single fused group.
  [[nodiscard]] OptLayer layer_for_fused(FusedOpId id) const;

  /// Fusion-aware memory estimate of an arbitrary node set: params inside +
  /// boundary activations only (intermediates stay on-chip).
  [[nodiscard]] MemoryEstimate fused_memory(const std::vector<NodeId>& members) const;

  /// fused_memory of a multi-node set from its already-known boundary
  /// (Graph::boundary_ids of the set, e.g. frozen in an AnalysisPlan): the
  /// byte sums only, no boundary walk.
  [[nodiscard]] MemoryEstimate boundary_memory(const Graph::BoundaryIds& boundary) const;

  /// Sum of member FLOP.
  [[nodiscard]] double fused_flops(const std::vector<NodeId>& members) const;

  /// Dominant op class of a node set: the class contributing the most FLOP,
  /// falling back to the most memory-heavy class for FLOP-free sets.
  [[nodiscard]] OpClass dominant_class(const std::vector<NodeId>& members) const;

 private:
  struct FusedGroup {
    std::string name;
    std::vector<NodeId> members;
  };

  const AnalyzeRepresentation* base_;
  std::map<std::string, std::string, std::less<>> alias_to_canonical_;
  std::vector<FusedGroup> groups_;
  std::vector<FusedOpId> owner_;  ///< per node: group id or -1
};

}  // namespace proof
