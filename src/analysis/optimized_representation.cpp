#include "analysis/optimized_representation.hpp"

#include <algorithm>
#include <array>

#include "support/error.hpp"

namespace proof {

OptimizedAnalyzeRepresentation::OptimizedAnalyzeRepresentation(
    const AnalyzeRepresentation& base)
    : base_(&base), owner_(base.graph().num_nodes(), -1) {}

void OptimizedAnalyzeRepresentation::set_tensor_alias(const std::string& tensor,
                                                      const std::string& alias) {
  PROOF_CHECK(alias != tensor, "alias equals tensor name '" << tensor << "'");
  alias_to_canonical_[alias] = resolve(tensor);
}

std::string_view OptimizedAnalyzeRepresentation::resolve_view(
    std::string_view name) const {
  std::string_view current = name;
  // Aliases are stored pre-resolved, so a single hop suffices; loop guards
  // against direct map edits in future code.
  for (int hops = 0; hops < 8; ++hops) {
    const auto it = alias_to_canonical_.find(current);
    if (it == alias_to_canonical_.end()) {
      return current;
    }
    current = it->second;
  }
  PROOF_FAIL("alias cycle at '" << name << "'");
}

std::string OptimizedAnalyzeRepresentation::resolve(const std::string& name) const {
  return std::string(resolve_view(name));
}

TensorId OptimizedAnalyzeRepresentation::resolve_id(std::string_view name) const {
  return base_->graph().tensor_id(resolve_view(name));
}

std::optional<std::vector<NodeId>>
OptimizedAnalyzeRepresentation::get_subgraph_ops_by_io(
    const std::vector<std::string>& inputs,
    const std::vector<std::string>& outputs) const {
  std::vector<TensorId> in_ids;
  in_ids.reserve(inputs.size());
  for (const std::string& n : inputs) {
    const TensorId id = resolve_id(n);
    if (id != kInvalidTensor) {
      in_ids.push_back(id);  // unknown names can't stop any known edge
    }
  }
  std::vector<TensorId> out_ids;
  out_ids.reserve(outputs.size());
  for (const std::string& n : outputs) {
    const TensorId id = resolve_id(n);
    if (id == kInvalidTensor) {
      return std::nullopt;  // output tensor unknown to the model graph
    }
    out_ids.push_back(id);
  }
  auto result = base_->graph().subgraph_by_io_ids(in_ids, out_ids);
  if (!result.has_value()) {
    return std::nullopt;
  }
  for (const NodeId id : *result) {
    if (is_fused(id)) {
      return std::nullopt;  // member already claimed by another backend layer
    }
  }
  return result;
}

FusedOpId OptimizedAnalyzeRepresentation::set_fused_op(
    const std::string& name, const std::vector<NodeId>& members) {
  PROOF_CHECK(!members.empty(), "fused op '" << name << "' has no members");
  for (const NodeId id : members) {
    PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < owner_.size(),
                "bad node id " << id);
    PROOF_CHECK(owner_[static_cast<size_t>(id)] < 0,
                "node '" << base_->graph().node(id).name
                         << "' already fused into group "
                         << owner_[static_cast<size_t>(id)]);
  }
  const FusedOpId gid = static_cast<FusedOpId>(groups_.size());
  groups_.push_back(FusedGroup{name, members});
  for (const NodeId id : members) {
    owner_[static_cast<size_t>(id)] = gid;
  }
  return gid;
}

bool OptimizedAnalyzeRepresentation::is_fused(NodeId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < owner_.size(), "bad node id " << id);
  return owner_[static_cast<size_t>(id)] >= 0;
}

MemoryEstimate OptimizedAnalyzeRepresentation::fused_memory(
    const std::vector<NodeId>& members) const {
  if (members.size() == 1) {
    return base_->analysis(members[0]).memory;
  }
  return boundary_memory(base_->graph().boundary_ids(members));
}

MemoryEstimate OptimizedAnalyzeRepresentation::boundary_memory(
    const Graph::BoundaryIds& b) const {
  const Graph& g = base_->graph();
  MemoryEstimate est;
  for (const TensorId t : b.params) {
    est.param_bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  for (const TensorId t : b.inputs) {
    est.read_bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  for (const TensorId t : b.outputs) {
    est.write_bytes += static_cast<double>(g.tensor(t).size_bytes());
  }
  return est;
}

double OptimizedAnalyzeRepresentation::fused_flops(
    const std::vector<NodeId>& members) const {
  double total = 0.0;
  for (const NodeId id : members) {
    total += base_->analysis(id).flops;
  }
  return total;
}

OpClass OptimizedAnalyzeRepresentation::dominant_class(
    const std::vector<NodeId>& members) const {
  // Dense per-class accumulators; `present` preserves the map-based
  // tie-breaking, which only considered classes that actually occur.
  std::array<double, kOpClassCount> flops_by_class{};
  std::array<double, kOpClassCount> bytes_by_class{};
  std::array<bool, kOpClassCount> present{};
  for (const NodeId id : members) {
    const NodeAnalysis& a = base_->analysis(id);
    const size_t cls = static_cast<size_t>(a.op_class);
    present[cls] = true;
    flops_by_class[cls] += a.flops;
    bytes_by_class[cls] += a.memory.total();
  }
  OpClass best = base_->analysis(members.front()).op_class;
  double best_flops = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && flops_by_class[cls] > best_flops) {
      best_flops = flops_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  if (best_flops > 0.0) {
    return best;
  }
  double best_bytes = -1.0;
  for (size_t cls = 0; cls < kOpClassCount; ++cls) {
    if (present[cls] && bytes_by_class[cls] > best_bytes) {
      best_bytes = bytes_by_class[cls];
      best = static_cast<OpClass>(cls);
    }
  }
  return best;
}

std::vector<OptimizedAnalyzeRepresentation::OptLayer>
OptimizedAnalyzeRepresentation::layers() const {
  const std::vector<NodeId>& order = base_->graph().topo_order();
  std::vector<OptLayer> out;
  std::vector<uint8_t> emitted(groups_.size(), 0);
  for (const NodeId id : order) {
    const FusedOpId gid = owner_[static_cast<size_t>(id)];
    if (gid < 0) {
      OptLayer layer;
      layer.name = base_->graph().node(id).name;
      layer.members = {id};
      layer.is_fused = false;
      const NodeAnalysis& a = base_->analysis(id);
      layer.flops = a.flops;
      layer.memory = a.memory;
      layer.op_class = a.op_class;
      out.push_back(std::move(layer));
    } else if (!emitted[static_cast<size_t>(gid)]) {
      emitted[static_cast<size_t>(gid)] = 1;
      out.push_back(layer_for_fused(gid));
    }
  }
  return out;
}

OptimizedAnalyzeRepresentation::OptLayer
OptimizedAnalyzeRepresentation::layer_for_fused(FusedOpId id) const {
  PROOF_CHECK(id >= 0 && static_cast<size_t>(id) < groups_.size(),
              "bad fused op id " << id);
  const FusedGroup& group = groups_[static_cast<size_t>(id)];
  OptLayer layer;
  layer.name = group.name;
  layer.members = group.members;
  layer.is_fused = true;
  layer.flops = fused_flops(group.members);
  layer.memory = fused_memory(group.members);
  layer.op_class = dominant_class(group.members);
  return layer;
}

}  // namespace proof
