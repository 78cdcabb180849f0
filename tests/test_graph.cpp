// Unit tests: graph IR — construction, indices, topo order, subgraph search,
// boundary computation, validation.
#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

Node make_node(const std::string& name, const std::string& type,
               std::vector<std::string> in, std::vector<std::string> out) {
  Node n;
  n.name = name;
  n.op_type = type;
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  return n;
}

Graph diamond() {
  // in -> a -> {b, c} -> d -> out
  Graph g("diamond");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{4}, .is_param = false});
  g.add_input("in");
  g.add_node(make_node("a", "Relu", {"in"}, {"ta"}));
  g.add_node(make_node("b", "Relu", {"ta"}, {"tb"}));
  g.add_node(make_node("c", "Relu", {"ta"}, {"tc"}));
  g.add_node(make_node("d", "Add", {"tb", "tc"}, {"td"}));
  g.add_output("td");
  return g;
}

TEST(Graph, ProducerConsumerIndices) {
  const Graph g = diamond();
  EXPECT_EQ(g.producer("ta"), g.find_node("a"));
  EXPECT_EQ(g.producer("in"), kInvalidNode);
  const auto consumers = g.consumers("ta");
  ASSERT_EQ(consumers.size(), 2u);
  EXPECT_EQ(g.node(consumers[0]).name, "b");
  EXPECT_EQ(g.node(consumers[1]).name, "c");
  EXPECT_EQ(g.find_node("nope"), kInvalidNode);
}

TEST(Graph, NodesOfType) {
  const Graph g = diamond();
  EXPECT_EQ(g.nodes_of_type("Relu").size(), 3u);
  EXPECT_EQ(g.nodes_of_type("Add").size(), 1u);
  EXPECT_TRUE(g.nodes_of_type("Conv").empty());
}

TEST(Graph, TopoOrderRespectsDependencies) {
  const Graph g = diamond();
  const auto order = g.topo_order();
  ASSERT_EQ(order.size(), 4u);
  std::map<std::string, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) {
    pos[g.node(order[i]).name] = i;
  }
  EXPECT_LT(pos["a"], pos["b"]);
  EXPECT_LT(pos["a"], pos["c"]);
  EXPECT_LT(pos["b"], pos["d"]);
  EXPECT_LT(pos["c"], pos["d"]);
}

TEST(Graph, CycleDetection) {
  Graph g("cyclic");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{1}, .is_param = false});
  g.add_input("in");
  g.add_node(make_node("a", "Add", {"in", "tb"}, {"ta"}));
  g.add_node(make_node("b", "Relu", {"ta"}, {"tb"}));
  g.add_output("tb");
  EXPECT_THROW((void)g.topo_order(), ModelError);
}

TEST(Graph, DuplicateNodeNameRejected) {
  Graph g("dup");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{1}, .is_param = false});
  g.add_input("in");
  g.add_node(make_node("a", "Relu", {"in"}, {"t1"}));
  g.add_node(make_node("a", "Relu", {"t1"}, {"t2"}));
  g.add_output("t2");
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Graph, ValidateCatchesUndeclaredInput) {
  Graph g("bad");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{1}, .is_param = false});
  g.add_input("in");
  g.add_node(make_node("a", "Add", {"in", "ghost"}, {"t"}));
  g.add_output("t");
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Graph, ValidateCatchesOrphanOutput) {
  Graph g("bad");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{1}, .is_param = false});
  g.add_input("in");
  g.add_node(make_node("a", "Relu", {"in"}, {"t"}));
  g.add_output("nonexistent");
  EXPECT_THROW(g.validate(), ModelError);
}

TEST(Graph, SubgraphByIoFindsExactSet) {
  const Graph g = diamond();
  const auto sub = g.subgraph_by_io({"ta"}, {"td"});
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->size(), 3u);  // b, c, d
  std::set<std::string> names;
  for (const NodeId id : *sub) {
    names.insert(g.node(id).name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"b", "c", "d"}));
}

TEST(Graph, SubgraphByIoWholeGraph) {
  const Graph g = diamond();
  const auto sub = g.subgraph_by_io({"in"}, {"td"});
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->size(), 4u);
}

TEST(Graph, SubgraphByIoFailsWhenBoundaryIncomplete) {
  const Graph g = diamond();
  // td depends on tb AND tc; declaring only tb as boundary escapes to "in".
  EXPECT_FALSE(g.subgraph_by_io({"tb"}, {"td"}).has_value());
  // Unknown output tensor.
  EXPECT_FALSE(g.subgraph_by_io({"in"}, {"ghost"}).has_value());
}

TEST(Graph, SubgraphByIoStopsAtParams) {
  Graph g("with_params");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{4}, .is_param = false});
  g.add_input("in");
  g.add_param("w", DType::kF32, Shape{4});
  g.add_node(make_node("m", "Mul", {"in", "w"}, {"t"}));
  g.add_output("t");
  const auto sub = g.subgraph_by_io({"in"}, {"t"});
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->size(), 1u);
}

TEST(Graph, BoundaryComputesInsOutsParams) {
  Graph g("b");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{4}, .is_param = false});
  g.add_input("in");
  g.add_param("w", DType::kF32, Shape{4});
  const NodeId n1 = g.add_node(make_node("m", "Mul", {"in", "w"}, {"t1"}));
  const NodeId n2 = g.add_node(make_node("r", "Relu", {"t1"}, {"t2"}));
  g.add_node(make_node("s", "Relu", {"t2"}, {"t3"}));
  g.add_output("t3");
  const Graph::Boundary b = g.boundary({n1, n2});
  EXPECT_EQ(b.inputs, std::vector<std::string>{"in"});
  EXPECT_EQ(b.outputs, std::vector<std::string>{"t2"});
  EXPECT_EQ(b.params, std::vector<std::string>{"w"});
}

TEST(Graph, BoundaryMarksGraphOutputsExternal) {
  const Graph g = diamond();
  const Graph::Boundary b =
      g.boundary({g.find_node("a"), g.find_node("b"), g.find_node("c"),
                  g.find_node("d")});
  EXPECT_EQ(b.inputs, std::vector<std::string>{"in"});
  EXPECT_EQ(b.outputs, std::vector<std::string>{"td"});
}

TEST(Graph, ParamAccounting) {
  Graph g("params");
  g.add_param("w1", DType::kF32, Shape{10, 10});
  g.add_param("w2", DType::kF16, Shape{5});
  EXPECT_EQ(g.param_count(), 105);
  EXPECT_EQ(g.param_bytes(), 400 + 10);
}

TEST(Graph, SmallCnnValidates) {
  const Graph g = proof::testing::small_cnn();
  EXPECT_NO_THROW(g.validate());
  EXPECT_GT(g.num_nodes(), 5u);
}

}  // namespace
}  // namespace proof
