// Unit + property tests: text serialization round-trips.
#include <gtest/gtest.h>

#include "graph/serialize.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

void expect_graph_equal(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.outputs(), b.outputs());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    const Node& na = a.nodes()[i];
    const Node& nb = b.nodes()[i];
    EXPECT_EQ(na.name, nb.name);
    EXPECT_EQ(na.op_type, nb.op_type);
    EXPECT_EQ(na.inputs, nb.inputs);
    EXPECT_EQ(na.outputs, nb.outputs);
    EXPECT_EQ(na.attrs.raw().size(), nb.attrs.raw().size());
  }
  ASSERT_EQ(a.tensors().size(), b.tensors().size());
  for (const auto& [name, desc] : a.tensors()) {
    ASSERT_TRUE(b.has_tensor(name));
    EXPECT_EQ(b.tensor(name).dtype, desc.dtype);
    EXPECT_EQ(b.tensor(name).shape, desc.shape);
    EXPECT_EQ(b.tensor(name).is_param, desc.is_param);
  }
}

TEST(Serialize, SmallCnnRoundTrips) {
  const Graph g = proof::testing::small_cnn();
  const Graph back = graph_from_text(graph_to_text(g));
  expect_graph_equal(g, back);
  EXPECT_NO_THROW(back.validate());
}

TEST(Serialize, AttributeTypesRoundTrip) {
  Graph g("attrs");
  g.set_tensor("in", {.dtype = DType::kF32, .shape = Shape{4}, .is_param = false});
  g.add_input("in");
  Node n;
  n.name = "n0";
  n.op_type = "Relu";
  n.inputs = {"in"};
  n.outputs = {"out"};
  n.attrs.set("i", static_cast<int64_t>(-42));
  n.attrs.set("f", 0.125);
  n.attrs.set("s", std::string("hello"));
  n.attrs.set("is", std::vector<int64_t>{1, -2, 3});
  n.attrs.set("fs", std::vector<double>{1.5, 2.0, 2.0});
  g.add_node(std::move(n));
  g.add_output("out");

  const Graph back = graph_from_text(graph_to_text(g));
  const Node& nb = back.nodes()[0];
  EXPECT_EQ(nb.attrs.get_int("i"), -42);
  EXPECT_DOUBLE_EQ(nb.attrs.get_float("f"), 0.125);
  EXPECT_EQ(nb.attrs.get_string("s"), "hello");
  EXPECT_EQ(nb.attrs.get_ints("is"), (std::vector<int64_t>{1, -2, 3}));
}

TEST(Serialize, MalformedInputsThrow) {
  EXPECT_THROW((void)graph_from_text("bogus record"), ModelError);
  EXPECT_THROW((void)graph_from_text("tensor t fp32 [2,) var"), ModelError);
  EXPECT_THROW((void)graph_from_text("node n Relu in=x out=y attr=q:1"), ModelError);
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const Graph g = graph_from_text("# comment\n\ngraph g\n");
  EXPECT_EQ(g.name(), "g");
  EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = proof::testing::small_transformer();
  const std::string path = ::testing::TempDir() + "/proof_roundtrip.pg";
  save_graph(g, path);
  const Graph back = load_graph(path);
  expect_graph_equal(g, back);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW((void)load_graph("/nonexistent/path.pg"), ModelError);
}

// Property: every zoo model round-trips bit-exactly through the text format.
class ZooRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooRoundTrip, RoundTripsExactly) {
  const Graph g = models::build_model(GetParam());
  const std::string text = graph_to_text(g);
  const Graph back = graph_from_text(text);
  expect_graph_equal(g, back);
  // Idempotence: serializing the parsed graph reproduces the same text.
  EXPECT_EQ(graph_to_text(back), text);
}

INSTANTIATE_TEST_SUITE_P(Models, ZooRoundTrip,
                         ::testing::Values("resnet34", "mobilenetv2_10",
                                           "shufflenetv2_10", "vit_tiny",
                                           "efficientnet_b0", "distilbert"));

}  // namespace
}  // namespace proof
