// Model graph IR.
//
// A Graph mirrors the information PRoof extracts from an ONNX file: a list of
// operator nodes, a tensor table (shapes/dtypes, which tensors are params),
// and the designated model inputs/outputs.  The graph also provides the
// search primitives the Optimized Analyze Representation relies on, most
// importantly subgraph extraction by boundary tensors
// (`get_subgraph_ops_by_io`, Figure 2 of the paper).
//
// Lookup layer: every tensor and node name is interned into a StringPool on
// first sight, so the analysis hot path (fusion, lowering, layer mapping,
// Equation-1 memory prediction) works on dense int32 ids instead of
// std::string map keys.  Two tiers of index exist:
//   * eager — the name pool, the dense TensorId -> TensorDesc table and the
//     graph-output flags are maintained incrementally on every mutation and
//     are always current.  Names live only in the pool: a TensorDesc carries
//     dtype, shape and the param flag, nothing else;
//   * lazy  — producer-of, the CSR consumers adjacency, node-by-name,
//     per-type node buckets, the cached topological order and the name-sorted
//     tensor order are rebuilt on first query after a mutation that changes
//     them (add_node, mutable_node(), declaring a new tensor).  Reads never
//     invalidate: node() is const-only.  Rebuilds are serialized behind a
//     mutex with double-checked atomic validity flags, so concurrent *const*
//     lookups on a shared graph are safe once no thread mutates it (call
//     warm_indices() before fanning a graph out to a thread pool to keep the
//     hot path lock-free).
//
// Copy-on-write: the node list, the name pool and the warm lazy index are
// shared between a graph and its clone_warm() copies; only the descriptor
// table (dtype + shape per tensor) is copied.  A write detaches just the part
// it changes (see clone_warm).
//
// There is one lookup path.  tests/test_graph_index.cpp checks it against a
// brute-force oracle built from linear scans over nodes()/tensors().
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/desc_table.hpp"
#include "graph/node.hpp"
#include "graph/string_pool.hpp"
#include "tensor/tensor.hpp"

namespace proof {

/// Dense id of an interned tensor (or node) name within one Graph.
using TensorId = int32_t;
inline constexpr TensorId kInvalidTensor = -1;

/// Dense id of an interned operator type within one Graph.
using OpTypeId = int32_t;
inline constexpr OpTypeId kInvalidOpType = -1;

class Graph {
 public:
  Graph();
  explicit Graph(std::string name);
  ~Graph();

  // Copying resets the lookup indexes on the copy (they hold views into the
  // source's string pool); moving transfers them intact.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  /// Adds a node; all of its output tensors get placeholder descs if unknown.
  NodeId add_node(Node node);

  /// Declares/overwrites the description of tensor `name`.
  void set_tensor(std::string_view name, TensorDesc desc);

  /// Declares a model parameter (weight) tensor.
  void add_param(std::string_view name, DType dtype, Shape shape);

  /// Marks graph-level inputs/outputs.
  void add_input(const std::string& tensor_name);
  void add_output(const std::string& tensor_name);

  // --- lookup -------------------------------------------------------------

  /// Read-only node list; never detaches a shared list (see clone_warm).
  [[nodiscard]] const std::vector<Node>& nodes() const {
    return nodes_ != nullptr ? *nodes_ : empty_nodes();
  }
  /// Mutable node list that does NOT invalidate the lazy index: for
  /// attrs-only edits (set_batch_size, instantiate_plan_graph).  A change to
  /// a node's name, op_type, inputs or outputs made through it leaves the
  /// index stale; renames and rewiring go through mutable_node().  Detaches
  /// a node list shared with a copy, so callers that only might write check
  /// through nodes() first.
  [[nodiscard]] std::vector<Node>& mutable_nodes();
  /// Read-only node access; never touches the lazy index.
  [[nodiscard]] const Node& node(NodeId id) const;
  /// Write access for renames/rewiring: invalidates the lazy index, so the
  /// next structural query rebuilds it.  Detaches a shared node list.
  [[nodiscard]] Node& mutable_node(NodeId id);
  [[nodiscard]] size_t num_nodes() const { return nodes().size(); }

  /// One declared tensor: its interned name and its descriptor.
  struct TensorEntry {
    std::string_view name;
    const TensorDesc& desc;
  };
  /// Every declared tensor in name order (deterministic iteration for
  /// serialization and fingerprints); `for (const auto& [name, desc] : ...)`.
  /// Lookups go through the interned-name index, never through this view.
  class TensorView {
   public:
    class iterator {
     public:
      using value_type = TensorEntry;
      using difference_type = std::ptrdiff_t;
      iterator() = default;
      iterator(const Graph* g, const TensorId* at) : g_(g), at_(at) {}
      TensorEntry operator*() const { return {g_->tensor_name(*at_), g_->tensor(*at_)}; }
      iterator& operator++() {
        ++at_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++at_;
        return old;
      }
      bool operator==(const iterator& other) const { return at_ == other.at_; }

     private:
      const Graph* g_ = nullptr;
      const TensorId* at_ = nullptr;
    };
    TensorView(const Graph& g, std::span<const TensorId> order) : g_(&g), order_(order) {}
    [[nodiscard]] iterator begin() const { return {g_, order_.data()}; }
    [[nodiscard]] iterator end() const { return {g_, order_.data() + order_.size()}; }
    [[nodiscard]] size_t size() const { return order_.size(); }

   private:
    const Graph* g_;
    std::span<const TensorId> order_;
  };

  [[nodiscard]] bool has_tensor(std::string_view name) const;
  [[nodiscard]] const TensorDesc& tensor(std::string_view name) const;
  [[nodiscard]] TensorDesc& tensor(std::string_view name);
  /// Valid until the next tensor declaration or structural mutation.
  [[nodiscard]] TensorView tensors() const;

  [[nodiscard]] const std::vector<std::string>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<std::string>& outputs() const { return outputs_; }

  // --- interned-id lookup (the analysis hot path) --------------------------

  /// Id of an interned tensor/node name; kInvalidTensor when never seen.
  [[nodiscard]] TensorId tensor_id(std::string_view name) const;
  /// Name behind a tensor id.
  [[nodiscard]] std::string_view tensor_name(TensorId id) const;
  /// Number of interned name ids (bound for id-indexed scratch tables).
  [[nodiscard]] size_t num_tensor_ids() const;

  [[nodiscard]] bool has_tensor(TensorId id) const;
  [[nodiscard]] const TensorDesc& tensor(TensorId id) const;
  /// Writable descriptor by id (in-place shape inference).  Descriptor
  /// references, by id or by name, stay valid for the graph's lifetime.
  [[nodiscard]] TensorDesc& tensor(TensorId id);
  /// True when the tensor exists and is a model parameter.
  [[nodiscard]] bool tensor_is_param(TensorId id) const;
  /// True when the tensor is a declared graph output.
  [[nodiscard]] bool is_graph_output(TensorId id) const;

  /// Node that produces the tensor, or kInvalidNode for inputs/params.
  [[nodiscard]] NodeId producer(TensorId id) const;
  [[nodiscard]] NodeId producer(std::string_view tensor_name) const;

  /// Nodes consuming the tensor (in node order), as a view into the CSR
  /// adjacency — no per-query allocation.  Stable until the next mutation.
  [[nodiscard]] std::span<const NodeId> consumers(TensorId id) const;
  [[nodiscard]] std::span<const NodeId> consumers(std::string_view tensor_name) const;

  /// True when the lazy edge index is built and current, i.e. the id
  /// queries below answer without a rebuild.  Never builds it.
  [[nodiscard]] bool edge_index_current() const;

  /// Interned input/output tensor ids of a node (index-cached).
  [[nodiscard]] std::span<const TensorId> node_input_ids(NodeId id) const;
  [[nodiscard]] std::span<const TensorId> node_output_ids(NodeId id) const;

  /// Interned op-type ids: per node, and by name (kInvalidOpType if absent).
  [[nodiscard]] OpTypeId op_type_id(NodeId id) const;
  [[nodiscard]] OpTypeId op_type_id(std::string_view op_type) const;

  /// Finds a node by its unique name; returns kInvalidNode when absent.
  [[nodiscard]] NodeId find_node(std::string_view node_name) const;

  /// All node ids with the given op_type, in node order (bucketed index).
  [[nodiscard]] std::span<const NodeId> nodes_of_type(std::string_view op_type) const;

  // --- analysis primitives --------------------------------------------------

  /// Topological order of node ids; throws ModelError on cycles.  Cached —
  /// the reference stays valid until the next structural mutation.
  [[nodiscard]] const std::vector<NodeId>& topo_order() const;

  /// Returns the set of nodes forming the subgraph whose external inputs are
  /// covered by `input_tensors` and which produces all `output_tensors`
  /// (paper interface `get_subgraph_ops_by_io`).  Walks backwards from the
  /// outputs over the cached adjacency, stopping at the given inputs /
  /// params / graph inputs.  Returns std::nullopt when the walk escapes the
  /// boundary (no such subgraph).
  [[nodiscard]] std::optional<std::vector<NodeId>> subgraph_by_io(
      const std::vector<std::string>& input_tensors,
      const std::vector<std::string>& output_tensors) const;
  [[nodiscard]] std::optional<std::vector<NodeId>> subgraph_by_io_ids(
      std::span<const TensorId> input_tensors,
      std::span<const TensorId> output_tensors) const;

  /// Boundary tensors of a node set: external inputs (consumed but not
  /// produced inside, excluding params unless `include_params`) and external
  /// outputs (produced inside and consumed outside or graph outputs).
  struct Boundary {
    std::vector<std::string> inputs;
    std::vector<std::string> outputs;
    std::vector<std::string> params;
  };
  [[nodiscard]] Boundary boundary(const std::vector<NodeId>& node_set) const;

  /// Same computation on interned ids — the form the lowering/mapping hot
  /// path consumes (no string copies).
  struct BoundaryIds {
    std::vector<TensorId> inputs;
    std::vector<TensorId> outputs;
    std::vector<TensorId> params;
  };
  [[nodiscard]] BoundaryIds boundary_ids(std::span<const NodeId> node_set) const;

  /// Structural validation: unique names, inputs resolvable, no orphan
  /// outputs.  Throws ModelError with a precise message on violation.
  void validate() const;

  /// Total parameter bytes (all tensors flagged is_param).
  [[nodiscard]] int64_t param_bytes() const;
  /// Total parameter element count.
  [[nodiscard]] int64_t param_count() const;

  // --- index lifecycle ------------------------------------------------------

  /// Builds every lazy index (edges, type buckets, topo order, tensor
  /// order) now, so later const lookups from concurrent threads are pure
  /// reads.
  void warm_indices() const;

  /// Copy that *keeps* the source's warm lookup state instead of resetting
  /// it, copying only the descriptor table (one dtype + shape per tensor,
  /// shapes stored inline).  Everything structural is shared copy-on-write:
  ///   * the name pool (ids preserved; the first intern of a new name
  ///     detaches it, see StringPool);
  ///   * the warm lazy index (CSR adjacency, type buckets, topo order,
  ///     tensor order) — add_node(), mutable_node() and declaring a new
  ///     tensor move the writer onto its own index;
  ///   * the node list — mutable_nodes(), mutable_node() and add_node()
  ///     detach it (the plain copy shares it too).
  /// No name is copied or hashed, which is what the plan cache's per-cell
  /// skeleton instantiation is built on.  Safe to call concurrently from
  /// readers of a warmed graph (all pure reads).
  [[nodiscard]] Graph clone_warm() const;

  /// Monotonic counter bumped on every structural invalidation; lets callers
  /// detect that cached derived state (spans, topo references) went stale.
  [[nodiscard]] uint64_t index_generation() const;

 private:
  struct Index;

  void init_index();
  /// Interns `name` and keeps the eager id-indexed tables sized.  Const
  /// because lazy rebuilds may intern names edited through mutable_node().
  TensorId intern_name(std::string_view name) const;
  /// Declares tensor `id` with `desc`, or overwrites its descriptor.
  void store_desc(TensorId id, TensorDesc desc);
  void invalidate_structure();
  /// A tensor was declared: the name-sorted order is stale.
  void invalidate_tensor_order();
  /// Double-checked lazy build of the structural (edge) index.
  const Index& ensure_edges() const;
  /// As above plus the cached topological order.
  const Index& ensure_topo() const;
  /// Double-checked lazy build of the name-sorted tensor order.
  const Index& ensure_tensor_order() const;
  void rebuild_edges(Index& ix) const;
  void rebuild_topo(Index& ix) const;

  /// The shared empty list nodes() returns for a node-less graph.
  static const std::vector<Node>& empty_nodes();
  /// Makes nodes_ non-null and uniquely owned (deep copy if shared).
  void detach_nodes();

  std::string name_;
  // Copy-on-write node list: null for an empty graph, shared between a graph
  // and its copies until one of them writes (detach_nodes).
  std::shared_ptr<std::vector<Node>> nodes_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;

  // Eager name table: the interner (copy-on-write) and the dense
  // per-TensorId tables.  Node names take ids too; their slots hold no desc.
  mutable StringPool names_;
  mutable DescTable descs_;                 ///< by TensorId
  mutable std::vector<uint8_t> is_output_;  ///< by TensorId

  // Lazy index; see graph.cpp.  Shared by clone_warm() copies until one of
  // them writes (shared_ptr also keeps the atomics and mutex inside out of
  // Graph's move operations).
  mutable std::shared_ptr<Index> index_;
};

}  // namespace proof
