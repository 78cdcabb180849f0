// Unit + integration tests: QDQ quantization — transform, runtime folding,
// int8 execution and mapping robustness with runtime-relevant inserted nodes.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/quantize.hpp"
#include "analysis/reference_executor.hpp"
#include "core/profiler.hpp"
#include "mapping/layer_mapping.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

TEST(Quantize, InsertsQdqAroundMatrixOps) {
  Graph g = models::build_model("resnet50");
  const size_t convs = g.nodes_of_type("Conv").size();
  const QuantizeStats stats = quantize_to_qdq(g);
  EXPECT_TRUE(is_qdq_model(g));
  EXPECT_EQ(stats.quantized_anchors, convs + 1);  // + the classifier Gemm
  // Every anchor got a weight DQ; activations share pairs per tensor.
  EXPECT_EQ(stats.int8_params, convs + 1);
  EXPECT_GT(stats.q_nodes, 0u);
  EXPECT_EQ(g.nodes_of_type("QuantizeLinear").size(), stats.q_nodes);
  EXPECT_EQ(g.nodes_of_type("DequantizeLinear").size(), stats.dq_nodes);
  EXPECT_NO_THROW(g.validate());
}

TEST(Quantize, WeightsBecomeInt8) {
  Graph g = proof::testing::small_cnn();
  (void)quantize_to_qdq(g);
  size_t int8_weights = 0;
  for (const auto& [name, desc] : g.tensors()) {
    if (desc.is_param && desc.dtype == DType::kI8) {
      ++int8_weights;
    }
  }
  EXPECT_GT(int8_weights, 0u);
  // Model shrinks: int8 weights are 4x smaller than fp32.
  const Graph fp32 = proof::testing::small_cnn();
  EXPECT_LT(g.param_bytes(), fp32.param_bytes());
}

TEST(Quantize, DoubleQuantizationRejected) {
  Graph g = proof::testing::small_cnn();
  (void)quantize_to_qdq(g);
  EXPECT_THROW((void)quantize_to_qdq(g), Error);
}

TEST(Quantize, SharedActivationGetsOnePair) {
  // Two convs consuming the same tensor share one Q/DQ pair.
  models::GraphBuilder b("shared");
  const std::string x = b.input("x", Shape{1, 4, 8, 8});
  const std::string a = b.conv(x, 8, 3, 1);
  const std::string c = b.conv(x, 8, 3, 1);
  Graph g = b.finish({a, c});
  const QuantizeStats stats = quantize_to_qdq(g);
  EXPECT_EQ(stats.quantized_anchors, 2u);
  EXPECT_EQ(stats.q_nodes, 1u);          // one shared activation pair
  EXPECT_EQ(stats.dq_nodes, 1u + 2u);    // + one per weight
}

TEST(Quantize, BackendsFoldAllQdqNodes) {
  Graph model = models::build_model("resnet50");
  (void)quantize_to_qdq(model);
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  for (const char* backend_id : {"trt_sim", "ov_sim", "ort_sim"}) {
    backends::BuildConfig config;
    config.dtype = DType::kF16;
    config.batch = 4;
    const backends::Engine engine =
        backends::BackendRegistry::instance().get(backend_id).build(model, config,
                                                                    a100);
    for (const backends::BackendLayer& layer : engine.layers()) {
      // No standalone Q/DQ layers survive folding.
      if (layer.labels->truth_nodes.size() == 1) {
        const std::string& only = layer.labels->truth_nodes.front();
        EXPECT_EQ(only.find("_q"), std::string::npos)
            << backend_id << " left standalone QDQ layer " << layer.name;
      }
    }
  }
}

TEST(Quantize, FoldedConvKernelsRunInt8) {
  Graph model = proof::testing::small_cnn();
  (void)quantize_to_qdq(model);
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  backends::BuildConfig config;
  config.dtype = DType::kF16;
  const backends::Engine engine =
      backends::BackendRegistry::instance().get("trt_sim").build(model, config, a100);
  size_t int8_kernels = 0;
  for (const hw::KernelWork& k : engine.all_kernels()) {
    if (k.dtype == DType::kI8) {
      ++int8_kernels;
    }
  }
  EXPECT_GT(int8_kernels, 0u);
}

TEST(Quantize, Int8FasterThanFp16OnTensorCores) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = 128;
  opt.mode = MetricMode::kPredicted;
  const ProfileReport fp16 = Profiler(opt).run_zoo("resnet50");
  Graph quantized = models::build_model("resnet50");
  (void)quantize_to_qdq(quantized);
  const ProfileReport int8 = Profiler(opt).run(quantized);
  EXPECT_LT(int8.total_latency_s, fp16.total_latency_s);
}

TEST(Quantize, MappingSurvivesQdqInsertion) {
  Graph model = models::build_model("shufflenetv2_10");
  (void)quantize_to_qdq(model);
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  for (const char* backend_id : {"trt_sim", "ov_sim", "ort_sim"}) {
    backends::BuildConfig config;
    config.dtype = DType::kF16;
    config.batch = 4;
    const backends::Engine engine =
        backends::BackendRegistry::instance().get(backend_id).build(model, config,
                                                                    a100);
    const AnalyzeRepresentation ar(engine.analysis_graph());
    OptimizedAnalyzeRepresentation oar(ar);
    const mapping::LayerMapping map = mapping::map_layers(engine, oar);
    EXPECT_EQ(mapping::verify_against_truth(map, engine), 0u) << backend_id;
    EXPECT_DOUBLE_EQ(map.node_coverage(ar.num_nodes()), 1.0) << backend_id;
  }
}

TEST(Quantize, ReferenceRoundTripApproximatesIdentity) {
  // Q then DQ at scale s reproduces values on the int8 grid.
  models::GraphBuilder b("qdq");
  const std::string x = b.input("x", Shape{4});
  const std::string scale = b.param("s", Shape{1});
  const std::string q = b.node("QuantizeLinear", {x, scale});
  const std::string dq = b.node("DequantizeLinear", {q, scale});
  const Graph g = b.finish({dq});
  const ReferenceExecutor exec(g);
  std::map<std::string, Tensor> feeds;
  feeds.emplace("x", Tensor(Shape{4}, {0.1f, -0.25f, 0.5f, 1.0f}));
  auto values = exec.run(feeds);
  const float s = values.at(scale).at(0);
  for (int i = 0; i < 4; ++i) {
    const float original = feeds.at("x").at(i);
    const float expected =
        std::min(127.0f, std::max(-128.0f, std::round(original / s))) * s;
    EXPECT_NEAR(values.at(dq).at(i), expected, 1e-6);
  }
}

}  // namespace
}  // namespace proof
