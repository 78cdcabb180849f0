// Unit tests: interned-name graph index — string pool round-trips, lazy index
// invalidation + generation protocol, a graph-mutation fuzz asserting the
// id-based and string-based lookups agree with a brute-force oracle, and a
// counter-pinned bound on index builds per cold profile over the zoo.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/shape_inference.hpp"
#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "graph/graph.hpp"
#include "graph/string_pool.hpp"
#include "models/zoo.hpp"
#include "obs/metrics.hpp"
#include "ops/op_def.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

// Reads must never reach an invalidating accessor: node() on a mutable Graph
// is const-only, and writes are spelled mutable_node().
static_assert(std::is_same_v<decltype(std::declval<Graph&>().node(NodeId{})),
                             const Node&>);

Node make_node(const std::string& name, const std::string& type,
               std::vector<std::string> in, std::vector<std::string> out) {
  Node n;
  n.name = name;
  n.op_type = type;
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  return n;
}

Graph chain3() {
  // in -> a -> b -> c -> out
  Graph g("chain3");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{4}});
  g.add_input("in");
  g.add_node(make_node("a", "Relu", {"in"}, {"ta"}));
  g.add_node(make_node("b", "Relu", {"ta"}, {"tb"}));
  g.add_node(make_node("c", "Relu", {"tb"}, {"tc"}));
  g.add_output("tc");
  return g;
}

// --- StringPool --------------------------------------------------------------

TEST(StringPool, RoundTripAndDenseIds) {
  StringPool pool;
  EXPECT_EQ(pool.find("x"), StringPool::kInvalidId);
  const int32_t a = pool.intern("alpha");
  const int32_t b = pool.intern("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(pool.intern("alpha"), a);  // re-intern is idempotent
  EXPECT_EQ(pool.find("beta"), b);
  EXPECT_EQ(pool.view(a), "alpha");
  EXPECT_EQ(pool.str(b), "beta");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.contains("alpha"));
  EXPECT_FALSE(pool.contains("gamma"));
}

TEST(StringPool, ManySimilarNamesStayDistinct) {
  // Near-identical names (shared prefixes, same length) stress the hash
  // table: every name must keep its own id and round-trip exactly.
  StringPool pool;
  std::vector<int32_t> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(pool.intern("tensor_" + std::to_string(i)));
  }
  EXPECT_EQ(pool.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "tensor_" + std::to_string(i);
    EXPECT_EQ(pool.find(name), ids[static_cast<size_t>(i)]);
    EXPECT_EQ(pool.view(ids[static_cast<size_t>(i)]), name);
  }
  // Ids stay stable across later growth (append-only contract).
  const int32_t early = pool.find("tensor_0");
  pool.intern("late_arrival");
  EXPECT_EQ(pool.find("tensor_0"), early);
}

TEST(StringPool, OutOfRangeIdThrows) {
  StringPool pool;
  pool.intern("only");
  EXPECT_THROW((void)pool.view(1), Error);
  EXPECT_THROW((void)pool.view(-1), Error);
}

// --- invalidation / generation protocol --------------------------------------

TEST(GraphIndex, ConstQueriesDoNotBumpGeneration) {
  const Graph g = chain3();
  const uint64_t gen = g.index_generation();
  (void)g.topo_order();
  (void)g.consumers("ta");
  (void)g.find_node("b");
  (void)g.nodes_of_type("Relu");
  EXPECT_EQ(g.index_generation(), gen);
}

TEST(GraphIndex, AddNodeBumpsGenerationAndRefreshesResults) {
  Graph g = chain3();
  EXPECT_EQ(g.topo_order().size(), 3u);
  EXPECT_TRUE(g.consumers("tc").empty());
  const uint64_t gen = g.index_generation();

  g.add_node(make_node("d", "Sigmoid", {"tc"}, {"td"}));
  EXPECT_GT(g.index_generation(), gen);

  // Every lazy index serves fresh results after the mutation.
  EXPECT_EQ(g.topo_order().size(), 4u);
  ASSERT_EQ(g.consumers("tc").size(), 1u);
  EXPECT_EQ(g.node(g.consumers("tc").front()).name, "d");
  EXPECT_EQ(g.find_node("d"), g.topo_order().back());
  EXPECT_EQ(g.nodes_of_type("Sigmoid").size(), 1u);
  EXPECT_EQ(g.producer("td"), g.find_node("d"));
}

TEST(GraphIndex, MutableNodeAccessInvalidates) {
  Graph g = chain3();
  EXPECT_EQ(g.find_node("b"), 1);
  const uint64_t gen = g.index_generation();

  g.mutable_node(1).name = "b_renamed";  // write access invalidates
  EXPECT_GT(g.index_generation(), gen);
  EXPECT_EQ(g.find_node("b"), kInvalidNode);
  EXPECT_EQ(g.find_node("b_renamed"), 1);

  // Rewiring is picked up too: route c's input straight to ta.
  g.mutable_node(2).inputs = {"ta"};
  ASSERT_EQ(g.consumers("ta").size(), 2u);
  EXPECT_TRUE(g.consumers("tb").empty());
}

TEST(GraphIndex, CachedTopoReferenceStableUntilMutation) {
  const Graph g = chain3();
  const std::vector<NodeId>* first = &g.topo_order();
  const std::vector<NodeId>* second = &g.topo_order();
  EXPECT_EQ(first, second);  // cached: same object, no recompute
  EXPECT_EQ(g.index_generation(), g.index_generation());
}

TEST(GraphIndex, SetTensorDoesNotInvalidateStructure) {
  Graph g = chain3();
  (void)g.topo_order();
  const uint64_t gen = g.index_generation();
  g.set_tensor("ta", {.dtype = DType::kF16, .shape = Shape{4}});
  EXPECT_EQ(g.index_generation(), gen);  // desc-only change, structure intact
  EXPECT_EQ(g.tensor("ta").dtype, DType::kF16);
}

TEST(GraphIndex, CopyResetsInternerButPreservesLookups) {
  const Graph g = chain3();
  (void)g.topo_order();
  const Graph copy = g;  // must re-intern into its own pool
  EXPECT_EQ(copy.find_node("b"), g.find_node("b"));
  EXPECT_EQ(copy.topo_order(), g.topo_order());
  EXPECT_EQ(copy.producer("tb"), g.producer("tb"));
  EXPECT_EQ(copy.tensor_name(copy.tensor_id("ta")), "ta");
}

TEST(GraphIndex, DuplicateNodeNameSurfacesOnQuery) {
  Graph g("dup");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{1}});
  g.add_input("in");
  g.add_node(make_node("same", "Relu", {"in"}, {"t0"}));
  g.add_node(make_node("same", "Relu", {"t0"}, {"t1"}));
  EXPECT_THROW((void)g.find_node("same"), ModelError);
}

// --- brute-force oracle -------------------------------------------------------
//
// The reference the indexed lookups are checked against: every answer is a
// linear scan over g.nodes() / g.tensors() / g.outputs(), with no interning
// and no cached state.

NodeId oracle_producer(const Graph& g, std::string_view tensor) {
  NodeId producer = kInvalidNode;  // last node listing it as an output wins
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const auto& outs = g.nodes()[i].outputs;
    if (std::find(outs.begin(), outs.end(), tensor) != outs.end()) {
      producer = static_cast<NodeId>(i);
    }
  }
  return producer;
}

std::vector<NodeId> oracle_consumers(const Graph& g, std::string_view tensor) {
  std::vector<NodeId> consumers;  // node order, one entry per use
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    for (const std::string& in : g.nodes()[i].inputs) {
      if (in == tensor) {
        consumers.push_back(static_cast<NodeId>(i));
      }
    }
  }
  return consumers;
}

NodeId oracle_find_node(const Graph& g, const std::string& name) {
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    if (g.nodes()[i].name == name) {
      return static_cast<NodeId>(i);
    }
  }
  return kInvalidNode;
}

bool oracle_is_param(const Graph& g, std::string_view tensor) {
  for (const auto& [name, desc] : g.tensors()) {
    if (name == tensor) {
      return desc.is_param;
    }
  }
  return false;
}

/// FIFO Kahn order, ready queue seeded in node-index order.
std::vector<NodeId> oracle_topo(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<int> in_degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& in : g.nodes()[i].inputs) {
      if (oracle_producer(g, in) != kInvalidNode) {
        ++in_degree[i];
      }
    }
  }
  std::vector<NodeId> order;
  for (size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) {
      order.push_back(static_cast<NodeId>(i));
    }
  }
  for (size_t head = 0; head < order.size(); ++head) {
    for (const std::string& out : g.nodes()[static_cast<size_t>(order[head])].outputs) {
      for (const NodeId c : oracle_consumers(g, out)) {
        if (--in_degree[static_cast<size_t>(c)] == 0) {
          order.push_back(c);
        }
      }
    }
  }
  return order;
}

/// Boundary inputs/params in first-seen order; outputs that leave the set.
Graph::Boundary oracle_boundary(const Graph& g, const std::vector<NodeId>& node_set) {
  const auto member = [&](NodeId id) {
    return std::find(node_set.begin(), node_set.end(), id) != node_set.end();
  };
  const auto produced_inside = [&](const std::string& t) {
    return std::any_of(node_set.begin(), node_set.end(), [&](NodeId id) {
      const auto& outs = g.nodes()[static_cast<size_t>(id)].outputs;
      return std::find(outs.begin(), outs.end(), t) != outs.end();
    });
  };
  const auto contains = [](const std::vector<std::string>& v, const std::string& t) {
    return std::find(v.begin(), v.end(), t) != v.end();
  };
  Graph::Boundary b;
  for (const NodeId id : node_set) {
    for (const std::string& in : g.nodes()[static_cast<size_t>(id)].inputs) {
      if (produced_inside(in)) {
        continue;
      }
      std::vector<std::string>& dst = oracle_is_param(g, in) ? b.params : b.inputs;
      if (!contains(dst, in)) {
        dst.push_back(in);
      }
    }
  }
  for (const NodeId id : node_set) {
    for (const std::string& out : g.nodes()[static_cast<size_t>(id)].outputs) {
      const std::vector<NodeId> consumers = oracle_consumers(g, out);
      if (contains(g.outputs(), out) ||
          std::any_of(consumers.begin(), consumers.end(),
                      [&](NodeId c) { return !member(c); })) {
        b.outputs.push_back(out);
      }
    }
  }
  return b;
}

/// Backward walk from the outputs' producers, stopping at the given inputs
/// and at params; nullopt when the walk reaches an unlisted external tensor.
std::optional<std::vector<NodeId>> oracle_subgraph(
    const Graph& g, const std::vector<std::string>& inputs,
    const std::vector<std::string>& outputs) {
  std::vector<NodeId> visited;
  const auto visit = [&](NodeId p) {
    if (std::find(visited.begin(), visited.end(), p) == visited.end()) {
      visited.push_back(p);
    }
  };
  for (const std::string& out : outputs) {
    const NodeId p = oracle_producer(g, out);
    if (p == kInvalidNode) {
      return std::nullopt;
    }
    visit(p);
  }
  for (size_t head = 0; head < visited.size(); ++head) {
    for (const std::string& in : g.nodes()[static_cast<size_t>(visited[head])].inputs) {
      if (std::find(inputs.begin(), inputs.end(), in) != inputs.end() ||
          oracle_is_param(g, in)) {
        continue;
      }
      const NodeId p = oracle_producer(g, in);
      if (p == kInvalidNode) {
        return std::nullopt;
      }
      visit(p);
    }
  }
  std::sort(visited.begin(), visited.end());
  return visited;
}

// --- graph-mutation fuzz ------------------------------------------------------

/// Checks boundary() and subgraph_by_io() on one node set against the oracle.
void expect_region_agreement(const Graph& g, const std::vector<NodeId>& node_set) {
  const Graph::Boundary b = g.boundary(node_set);
  const Graph::Boundary want = oracle_boundary(g, node_set);
  EXPECT_EQ(b.inputs, want.inputs);
  EXPECT_EQ(b.outputs, want.outputs);
  EXPECT_EQ(b.params, want.params);
  EXPECT_EQ(g.subgraph_by_io(want.inputs, want.outputs),
            oracle_subgraph(g, want.inputs, want.outputs));
}

/// On a graph whose edge index is current, every OpContext resolves its
/// operands by id, to the very descriptors the name lookup returns.
void expect_op_context_agreement(const Graph& g) {
  g.warm_indices();
  for (const Node& n : g.nodes()) {
    const OpContext ctx(g, n);
    ASSERT_TRUE(ctx.resolves_by_id()) << n.name;
    for (size_t k = 0; k < n.inputs.size(); ++k) {
      EXPECT_EQ(&ctx.input(k), &g.tensor(n.inputs[k])) << n.name;
    }
    for (size_t k = 0; k < n.outputs.size(); ++k) {
      EXPECT_EQ(&ctx.output(k), &g.tensor(n.outputs[k])) << n.name;
    }
  }
}

/// Asserts that the string-keyed and id-keyed lookup APIs agree on `g`, and
/// that both match the brute-force oracle.
void expect_lookup_agreement(const Graph& g, std::mt19937& rng) {
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    const Node& n = g.node(static_cast<NodeId>(i));
    ASSERT_EQ(g.find_node(n.name), static_cast<NodeId>(i));
    ASSERT_EQ(oracle_find_node(g, n.name), static_cast<NodeId>(i));
    const auto in_ids = g.node_input_ids(static_cast<NodeId>(i));
    ASSERT_EQ(in_ids.size(), n.inputs.size());
    for (size_t k = 0; k < n.inputs.size(); ++k) {
      EXPECT_EQ(in_ids[k], g.tensor_id(n.inputs[k]));
      EXPECT_EQ(g.tensor_name(in_ids[k]), n.inputs[k]);
    }
    const auto out_ids = g.node_output_ids(static_cast<NodeId>(i));
    ASSERT_EQ(out_ids.size(), n.outputs.size());
    for (size_t k = 0; k < n.outputs.size(); ++k) {
      EXPECT_EQ(out_ids[k], g.tensor_id(n.outputs[k]));
    }
  }
  for (const auto& [name, desc] : g.tensors()) {
    const TensorId id = g.tensor_id(name);
    ASSERT_NE(id, kInvalidTensor) << name;
    EXPECT_EQ(g.has_tensor(name), g.has_tensor(id));
    EXPECT_EQ(&g.tensor(name), &g.tensor(id));
    EXPECT_EQ(g.producer(name), g.producer(id));
    EXPECT_EQ(g.producer(name), oracle_producer(g, name)) << name;
    const auto by_name = g.consumers(name);
    const auto by_id = g.consumers(id);
    ASSERT_TRUE(std::equal(by_name.begin(), by_name.end(), by_id.begin(),
                           by_id.end()));
    EXPECT_EQ(std::vector<NodeId>(by_name.begin(), by_name.end()),
              oracle_consumers(g, name))
        << name;
  }
  EXPECT_EQ(g.topo_order(), oracle_topo(g));

  std::vector<NodeId> all_nodes(g.num_nodes());
  for (size_t i = 0; i < all_nodes.size(); ++i) {
    all_nodes[i] = static_cast<NodeId>(i);
  }
  expect_region_agreement(g, all_nodes);
  // A random sub-region: boundaries that cut internal edges.
  std::vector<NodeId> subset;
  for (const NodeId id : all_nodes) {
    if (rng() % 2 == 0) {
      subset.push_back(id);
    }
  }
  expect_region_agreement(g, subset);
  expect_op_context_agreement(g);
}

TEST(GraphIndexFuzz, RandomMutationsKeepAllLookupPathsInAgreement) {
  std::mt19937 rng(20260806);
  for (int round = 0; round < 8; ++round) {
    Graph g("fuzz_" + std::to_string(round));
    g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{8}});
    g.add_input("in");
    g.add_param("w", DType::kF32, Shape{8});
    std::vector<std::string> tensors = {"in", "w"};
    int fresh = 0;

    const int mutations = 20 + round * 10;
    for (int m = 0; m < mutations; ++m) {
      const int action = static_cast<int>(rng() % 10);
      if (action < 6 || g.num_nodes() == 0) {
        // Add a node consuming 1-3 random existing tensors (duplicates
        // allowed — consumer multiplicity must survive the CSR build).
        std::vector<std::string> ins;
        const int arity = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < arity; ++k) {
          ins.push_back(tensors[rng() % tensors.size()]);
        }
        const std::string out = "t" + std::to_string(fresh);
        const std::string name = "n" + std::to_string(fresh);
        ++fresh;
        const char* type = (rng() % 2 == 0) ? "Relu" : "Add";
        g.add_node(make_node(name, type, std::move(ins), {out}));
        tensors.push_back(out);
        if (rng() % 4 == 0) {
          g.add_output(out);  // graph outputs count as boundary outputs
        }
      } else if (action < 8) {
        // Update a tensor desc in place (no structural change).
        g.set_tensor(tensors[rng() % tensors.size()], {.dtype = DType::kF16,
                      .shape = Shape{8}});
      } else {
        // Rename a random node through the mutable accessor.
        const NodeId victim = static_cast<NodeId>(rng() % g.num_nodes());
        g.mutable_node(victim).name = "renamed_" + std::to_string(fresh++);
      }
      if (m % 7 == 0) {
        expect_lookup_agreement(g, rng);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
    expect_lookup_agreement(g, rng);
  }
}

// --- id-resolved op contexts ----------------------------------------------------

using testing::zoo_and_extra_models;

TEST(OpContextIds, EveryZooModelResolvesByIdToTheNamedDescriptor) {
  for (const std::string& id : zoo_and_extra_models()) {
    SCOPED_TRACE(id);
    expect_op_context_agreement(models::build_model(id));
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(OpContextIds, StaleIndexFallsBackToNamesWithoutBuilding) {
  Graph g = chain3();
  g.warm_indices();
  g.add_node(make_node("d", "Relu", {"tc"}, {"td"}));
  ASSERT_FALSE(g.edge_index_current());
#ifndef PROOF_OBS_DISABLED
  obs::Counter& builds = obs::MetricsRegistry::instance().counter("graph.index.builds");
  const uint64_t builds_before = builds.value();
#endif
  for (const Node& n : g.nodes()) {
    const OpContext ctx(g, n);
    EXPECT_FALSE(ctx.resolves_by_id()) << n.name;
    EXPECT_EQ(&ctx.input(0), &g.tensor(n.inputs[0])) << n.name;
    EXPECT_EQ(&ctx.output(0), &g.tensor(n.outputs[0])) << n.name;
  }
  EXPECT_FALSE(g.edge_index_current());
#ifndef PROOF_OBS_DISABLED
  EXPECT_EQ(builds.value(), builds_before);
#endif
}

TEST(OpContextIds, BothPathsThrowTheSameErrors) {
  // "ghost" is interned (a node consumes it) but has no descriptor.
  Graph g = chain3();
  g.add_node(make_node("d", "Add", {"tc", "ghost"}, {"td"}));
  const Node& d = g.node(3);
  const auto message = [](const OpContext& ctx, size_t input) {
    try {
      (void)ctx.input(input);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const OpContext stale(g, d);
  ASSERT_FALSE(stale.resolves_by_id());
  const std::string unknown = message(stale, 1);
  const std::string out_of_range = message(stale, 2);
  EXPECT_NE(unknown.find("unknown tensor 'ghost'"), std::string::npos) << unknown;
  EXPECT_NE(out_of_range.find("has no input #2"), std::string::npos) << out_of_range;

  g.warm_indices();
  const OpContext by_id(g, g.node(3));
  ASSERT_TRUE(by_id.resolves_by_id());
  EXPECT_EQ(message(by_id, 1), unknown);
  EXPECT_EQ(message(by_id, 2), out_of_range);
  // A node that is not an element of the graph's list resolves by name.
  const Node detached = d;
  EXPECT_FALSE(OpContext(g, detached).resolves_by_id());
  EXPECT_EQ(message(OpContext(g, detached), 1), unknown);
}

// --- copy-on-write node list ---------------------------------------------------

TEST(GraphCow, CloneSharesNodesUntilFirstWrite) {
  Graph skeleton = models::build_model("resnet50");
  skeleton.warm_indices();
  const Node first = skeleton.node(0);
  Graph clone = skeleton.clone_warm();
  EXPECT_EQ(clone.nodes().data(), skeleton.nodes().data());
  // Reads of every kind leave the list shared.
  (void)clone.node(0);
  (void)clone.find_node(first.name);
  (void)clone.topo_order();
  (void)OpContext(clone, clone.node(0)).input(0);
  infer_shapes(clone);
  EXPECT_EQ(clone.nodes().data(), skeleton.nodes().data());

  clone.mutable_nodes()[0].attrs.set("marker", int64_t{1});
  EXPECT_NE(clone.nodes().data(), skeleton.nodes().data());
  EXPECT_TRUE(clone.node(0).attrs.has("marker"));
  EXPECT_FALSE(skeleton.node(0).attrs.has("marker"));
  // A detached clone still resolves by id: detaching copies, not rewires.
  EXPECT_TRUE(clone.edge_index_current());
  EXPECT_TRUE(OpContext(clone, clone.node(0)).resolves_by_id());

  // mutable_node() and add_node() detach too, and a write to the source
  // after the clone leaves the clone unchanged.
  Graph renamed = skeleton.clone_warm();
  renamed.mutable_node(0).name = "renamed";
  EXPECT_EQ(skeleton.node(0).name, first.name);
  EXPECT_EQ(renamed.find_node("renamed"), 0);
  Graph grown = skeleton.clone_warm();
  grown.add_node(make_node("extra", "Relu", {first.outputs[0]}, {"extra_out"}));
  EXPECT_EQ(skeleton.num_nodes() + 1, grown.num_nodes());
  Graph copy = skeleton;
  EXPECT_EQ(copy.nodes().data(), skeleton.nodes().data());
  skeleton.mutable_node(0).op_type = "Identity";
  EXPECT_EQ(copy.node(0).op_type, first.op_type);
  EXPECT_EQ(grown.node(0).op_type, first.op_type);
}

TEST(GraphCow, CloneSharesIndexAndNamesUntilAStructuralWrite) {
  Graph skeleton = models::build_model("gpt2_decode");
  skeleton.warm_indices();
  const TensorId in0 = skeleton.tensor_id(skeleton.inputs()[0]);
  const std::vector<NodeId> topo = skeleton.topo_order();
  const uint64_t generation = skeleton.index_generation();

  Graph clone = skeleton.clone_warm();
  // One index (the cached topo order and CSR adjacency are the same
  // objects) and one name table (a name is the same string).
  EXPECT_EQ(&clone.topo_order(), &skeleton.topo_order());
  EXPECT_EQ(clone.consumers(in0).data(), skeleton.consumers(in0).data());
  EXPECT_EQ(clone.tensor_name(in0).data(), skeleton.tensor_name(in0).data());
  // Shape inference and attr writes keep both shared.
  set_batch_size(clone, 8);
  clone.mutable_nodes()[0].attrs.set("marker", int64_t{1});
  EXPECT_EQ(&clone.topo_order(), &skeleton.topo_order());
  EXPECT_EQ(clone.tensor_name(in0).data(), skeleton.tensor_name(in0).data());

  // A structural write moves the writer onto its own index and, for a new
  // name, its own name table; the other graph sees none of it.
  const std::string first_out = skeleton.node(0).outputs[0];
  clone.add_node(make_node("extra", "Relu", {first_out}, {"extra_out"}));
  EXPECT_NE(&clone.topo_order(), &skeleton.topo_order());
  EXPECT_NE(clone.tensor_name(in0).data(), skeleton.tensor_name(in0).data());
  EXPECT_EQ(clone.tensor_name(in0), skeleton.tensor_name(in0));
  EXPECT_EQ(clone.find_node("extra"), static_cast<NodeId>(clone.num_nodes() - 1));
  EXPECT_TRUE(clone.has_tensor("extra_out"));
  EXPECT_EQ(skeleton.topo_order(), topo);
  EXPECT_EQ(skeleton.index_generation(), generation);
  EXPECT_EQ(skeleton.find_node("extra"), kInvalidNode);
  EXPECT_EQ(skeleton.tensor_id("extra_out"), kInvalidTensor);
  EXPECT_EQ(skeleton.tensors().size() + 1, clone.tensors().size());

  // mutable_node() renames on a private index too.
  Graph renamed = skeleton.clone_warm();
  renamed.mutable_node(0).name = "renamed";
  EXPECT_EQ(renamed.find_node("renamed"), 0);
  EXPECT_EQ(skeleton.find_node("renamed"), kInvalidNode);
  EXPECT_EQ(skeleton.find_node(skeleton.node(0).name), 0);

  // Declaring a tensor is not structural: the writer keeps a valid edge
  // index (no rebuild) and only its tensor order changes.
  Graph declared = skeleton.clone_warm();
  declared.set_tensor("fresh", {.dtype = DType::kF32, .shape = Shape{2}});
  EXPECT_TRUE(declared.edge_index_current());
  EXPECT_EQ(declared.topo_order(), topo);
  EXPECT_EQ(declared.tensors().size(), skeleton.tensors().size() + 1);
  EXPECT_FALSE(skeleton.has_tensor("fresh"));
}

TEST(GraphCow, CloneDescriptorsAreItsOwnByIdAndByName) {
  Graph skeleton = models::build_model("gpt2_decode");
  skeleton.warm_indices();
  Graph clone = skeleton.clone_warm();
  size_t n = 0;
  for (const auto& [name, desc] : clone.tensors()) {
    const TensorId id = clone.tensor_id(name);
    ASSERT_EQ(id, skeleton.tensor_id(name)) << name;
    EXPECT_EQ(&clone.tensor(name), &clone.tensor(id)) << name;
    EXPECT_EQ(&desc, &clone.tensor(id)) << name;
    EXPECT_NE(&clone.tensor(id), &skeleton.tensor(id)) << name;
    ++n;
  }
  EXPECT_EQ(n, skeleton.tensors().size());
  const std::string& input = skeleton.inputs()[0];
  const Shape before = skeleton.tensor(input).shape;
  clone.tensor(input).shape.set_dim(0, before.dim(0) + 7);
  EXPECT_EQ(skeleton.tensor(input).shape, before);
}

TEST(GraphIndex, MovedFromGraphIsAValidEmptyGraph) {
  Graph a = chain3();
  const Graph b = std::move(a);
  EXPECT_TRUE(b.has_tensor("in"));
  EXPECT_EQ(a.num_nodes(), 0u);
  EXPECT_EQ(a.tensors().size(), 0u);
  EXPECT_FALSE(a.has_tensor("in"));
  a.set_tensor("x", {.dtype = DType::kF32, .shape = Shape{2}});
  a.add_node(make_node("r", "Relu", {"x"}, {"y"}));
  EXPECT_EQ(a.tensors().size(), 2u);
  EXPECT_EQ(a.tensor("x").shape, Shape{2});
  EXPECT_EQ(a.producer("y"), 0);
}

TEST(GraphIndex, DescriptorReferencesSurviveTableGrowth) {
  Graph g = chain3();
  const TensorDesc& in = g.tensor("in");
  const TensorDesc* by_id = &g.tensor(g.tensor_id("in"));
  for (int i = 0; i < 1000; ++i) {
    std::string name = "p";
    name += std::to_string(i);
    g.add_param(name, DType::kF16, Shape{i + 1});
  }
  EXPECT_EQ(&g.tensor("in"), &in);
  EXPECT_EQ(by_id, &in);
  EXPECT_EQ(in.shape, Shape{4});
  EXPECT_EQ(g.tensor("p999").shape, Shape{1000});
}

TEST(GraphCow, SetBatchSizeWritesAttrsOnlyWhereTheyChange) {
  // gpt2's reshape targets use -1 for the batch: a new batch changes no attr.
  Graph llm = models::build_model("gpt2_decode");
  llm.warm_indices();
  Graph llm_clone = llm.clone_warm();
  set_batch_size(llm_clone, 4);
  EXPECT_EQ(llm_clone.nodes().data(), llm.nodes().data());

  // ViT's class-token Expand bakes the batch into its "shape" attr.
  Graph vit = models::build_model("vit_tiny");
  vit.warm_indices();
  Graph vit_clone = vit.clone_warm();
  set_batch_size(vit_clone, 4);
  EXPECT_NE(vit_clone.nodes().data(), vit.nodes().data());
  const std::span<const NodeId> expands = vit.nodes_of_type("Expand");
  ASSERT_FALSE(expands.empty());
  EXPECT_EQ(vit.node(expands[0]).attrs.get_ints("shape")[0], 1);
  EXPECT_EQ(vit_clone.node(expands[0]).attrs.get_ints("shape")[0], 4);
}

// Pool threads each clone one shared skeleton; some only read their clone,
// some write attrs (detaching it), while the skeleton is read throughout.
// Run under TSan by scripts/check_tsan.sh.
TEST(GraphCowConcurrency, ClonesDetachAndWriteWhileOthersRead) {
  Graph skeleton = models::build_model("gpt2_decode");
  skeleton.warm_indices();
  const std::string first_name = skeleton.node(0).name;
  constexpr size_t kTasks = 32;
  std::vector<size_t> shared_after(kTasks, 0);
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](size_t i) {
    Graph clone = skeleton.clone_warm();
    if (i % 2 == 0) {
      clone.mutable_nodes()[i % clone.num_nodes()].attrs.set(
          "task", static_cast<int64_t>(i));
      set_batch_size(clone, static_cast<int64_t>(i + 1));
    } else {
      infer_shapes(clone);
      for (const Node& n : clone.nodes()) {
        (void)OpContext(clone, n).output(0);
      }
    }
    shared_after[i] = clone.nodes().data() == skeleton.nodes().data() ? 1 : 0;
    (void)skeleton.find_node(first_name);
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(shared_after[i], i % 2 == 0 ? 0u : 1u) << i;
  }
  for (const Node& n : skeleton.nodes()) {
    EXPECT_FALSE(n.attrs.has("task")) << n.name;
  }
}

// --- index builds per cold profile -------------------------------------------

using ColdCell = std::tuple<std::string, std::string>;  // (model, backend)

class ColdProfileIndexBuilds : public ::testing::TestWithParam<ColdCell> {};

// A cold profile builds the index once for the prepared graph the backend
// lowers and once for the AnalyzeRepresentation's copy of it.  Lowering only
// reads its graph, so it must not force a rebuild per fusion group.
TEST_P(ColdProfileIndexBuilds, AtMostTwoBuildsAndNoRebuilds) {
#ifdef PROOF_OBS_DISABLED
  GTEST_SKIP() << "instrumentation compiled out (PROOF_OBS=OFF)";
#else
  if (!obs::enabled()) {
    GTEST_SKIP() << "observability disabled in this environment";
  }
  const auto& [model_id, backend] = GetParam();
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = backend;
  opt.dtype = DType::kF16;
  opt.batch = model_id == "sd_unet" ? 2 : 4;
  const Graph model = models::build_model(model_id);

  PrepCache::instance().clear();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::instance();
  metrics.reset();
  (void)Profiler(opt).run(model);

  EXPECT_LE(metrics.counter("graph.index.builds").value(), 2u);
  EXPECT_EQ(metrics.counter("graph.index.rebuilds").value(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ColdProfileIndexBuilds,
    ::testing::Combine(::testing::ValuesIn(zoo_and_extra_models()),
                       ::testing::Values("trt_sim", "ov_sim", "ort_sim")),
    [](const ::testing::TestParamInfo<ColdCell>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace proof
