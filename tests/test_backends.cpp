// Unit + integration tests: the simulated inference runtimes.
#include <gtest/gtest.h>

#include <set>

#include "backends/backend.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace proof::backends {
namespace {

const hw::PlatformDesc& a100() {
  return hw::PlatformRegistry::instance().get("a100");
}
const hw::PlatformDesc& xeon() {
  return hw::PlatformRegistry::instance().get("xeon6330");
}

TEST(BackendRegistry, ListsAllThreeRuntimes) {
  auto& reg = BackendRegistry::instance();
  for (const char* id : {"trt_sim", "ov_sim", "ort_sim"}) {
    EXPECT_TRUE(reg.contains(id)) << id;
  }
  EXPECT_THROW((void)reg.get("tensorrt"), ConfigError);
}

TEST(Backend, UnsupportedDtypeRejected) {
  const Graph model = proof::testing::small_cnn();
  BuildConfig config;
  config.dtype = DType::kBF16;  // Orin's table lacks bf16
  const auto& orin = hw::PlatformRegistry::instance().get("orin_nx16");
  EXPECT_THROW((void)BackendRegistry::instance().get("trt_sim").build(model, config, orin),
               ConfigError);
}

TEST(Backend, EngineAppliesBatchAndDtype) {
  const Graph model = proof::testing::small_cnn();
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 32;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  const Graph& g = engine.analysis_graph();
  EXPECT_EQ(g.tensor(g.inputs()[0]).shape.dim(0), 32);
  EXPECT_EQ(g.tensor(g.inputs()[0]).dtype, DType::kF16);
}

// Shared structural invariants for every (backend, model) combination.
struct BuildCase {
  std::string backend;
  std::string model;
};

class EngineInvariants : public ::testing::TestWithParam<BuildCase> {};

TEST_P(EngineInvariants, LayersPartitionModelNodes) {
  const auto& [backend_id, model_id] = GetParam();
  const Graph model = models::build_model(model_id);
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 4;
  const Engine engine =
      BackendRegistry::instance().get(backend_id).build(model, config, a100());

  EXPECT_FALSE(engine.layers().empty());
  std::set<std::string> claimed;
  size_t reorders = 0;
  for (const BackendLayer& layer : engine.layers()) {
    if (layer.is_reorder) {
      ++reorders;
      EXPECT_TRUE(layer.labels->truth_nodes.empty());
      continue;
    }
    EXPECT_FALSE(layer.kernels.empty()) << layer.name;
    for (const std::string& node : layer.labels->truth_nodes) {
      EXPECT_TRUE(claimed.insert(node).second)
          << "node '" << node << "' in two layers";
    }
  }
  // Every model node is implemented by exactly one layer.
  EXPECT_EQ(claimed.size(), model.num_nodes());
  // Kernel workloads are sane.
  for (const hw::KernelWork& k : engine.all_kernels()) {
    EXPECT_GE(k.hw_flops, 0.0);
    EXPECT_GE(k.bytes, 0.0);
    EXPECT_GE(k.matrix_flops, 0.0);
    EXPECT_LE(k.matrix_flops, k.hw_flops * (1.0 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EngineInvariants,
    ::testing::Values(BuildCase{"trt_sim", "resnet50"},
                      BuildCase{"trt_sim", "vit_tiny"},
                      BuildCase{"trt_sim", "shufflenetv2_10"},
                      BuildCase{"trt_sim", "efficientnet_b0"},
                      BuildCase{"ov_sim", "resnet50"},
                      BuildCase{"ov_sim", "mobilenetv2_10"},
                      BuildCase{"ov_sim", "vit_tiny"},
                      BuildCase{"ort_sim", "resnet50"},
                      BuildCase{"ort_sim", "shufflenetv2_10"},
                      BuildCase{"ort_sim", "distilbert"}));

TEST(TrtSim, TransformerProducesOpaqueRegions) {
  const Graph model = models::build_model("vit_tiny");
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 1;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  size_t opaque = 0;
  for (const BackendLayer& layer : engine.layers()) {
    if (layer.is_opaque) {
      ++opaque;
      EXPECT_TRUE(layer.labels->info.empty());  // Myelin exposes no mapping info
      EXPECT_NE(layer.name.find("ForeignNode"), std::string::npos);
      EXPECT_GE(layer.kernels.size(), 2u);  // split at GEMM anchors
    }
  }
  // ViT: ~2 regions per block.
  EXPECT_GE(opaque, 12u);
}

TEST(TrtSim, CnnLayersCarryNameInfo) {
  const Graph model = models::build_model("resnet50");
  BuildConfig config;
  config.dtype = DType::kF16;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  for (const BackendLayer& layer : engine.layers()) {
    if (!layer.is_reorder && !layer.is_opaque && layer.labels->truth_nodes.size() > 1) {
      EXPECT_NE(layer.labels->info.find(" + "), std::string::npos) << layer.name;
    }
  }
}

TEST(OvSim, ExposesOriginalLayersNames) {
  const Graph model = models::build_model("resnet50");
  BuildConfig config;
  config.dtype = DType::kF16;
  const Engine engine =
      BackendRegistry::instance().get("ov_sim").build(model, config, a100());
  for (const BackendLayer& layer : engine.layers()) {
    if (!layer.is_reorder) {
      EXPECT_FALSE(layer.labels->info.empty()) << layer.name;
    }
  }
}

TEST(OrtSim, InsertsRenamingReorders) {
  const Graph model = proof::testing::small_cnn();
  BuildConfig config;
  config.dtype = DType::kF32;
  const Engine engine =
      BackendRegistry::instance().get("ort_sim").build(model, config, xeon());
  bool found_reorder = false;
  for (const BackendLayer& layer : engine.layers()) {
    if (layer.is_reorder) {
      found_reorder = true;
      ASSERT_EQ(layer.labels->input_tensors.size(), 1u);
      ASSERT_EQ(layer.labels->output_tensors.size(), 1u);
      EXPECT_NE(layer.labels->input_tensors[0], layer.labels->output_tensors[0]);
    }
  }
  EXPECT_TRUE(found_reorder);
  // Fused conv layers expose no name info (Figure 2's fused_op_N situation).
  for (const BackendLayer& layer : engine.layers()) {
    if (!layer.is_reorder && layer.labels->truth_nodes.size() > 1) {
      EXPECT_TRUE(layer.labels->info.empty());
      EXPECT_NE(layer.name.find("fused_op_"), std::string::npos);
    }
  }
}

TEST(Engine, ProfileIsDeterministic) {
  const Graph model = proof::testing::small_cnn();
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 8;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  const hw::PlatformState state(a100());
  const EngineProfile p1 = engine.profile(state, 50);
  const EngineProfile p2 = engine.profile(state, 50);
  ASSERT_EQ(p1.layer_latency_s.size(), p2.layer_latency_s.size());
  for (size_t i = 0; i < p1.layer_latency_s.size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.layer_latency_s[i], p2.layer_latency_s[i]);
  }
}

TEST(Engine, MoreIterationsLessJitter) {
  const Graph model = proof::testing::small_cnn();
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 8;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  const hw::PlatformState state(a100());
  // Noise-free expectation: layer latencies from the latency model directly.
  const hw::LatencyModel lm(state);
  double ideal = 0.0;
  for (const hw::KernelWork& k : engine.all_kernels()) {
    ideal += lm.time_kernel(k).latency_s;
  }
  const double e10 = std::abs(engine.profile(state, 10).total_latency_s - ideal);
  const double e1000 = std::abs(engine.profile(state, 1000).total_latency_s - ideal);
  EXPECT_LE(e1000, e10 + 1e-12);
}

TEST(Backend, NpuOpSupportMatrix) {
  // Paper §4.3: only part of the zoo converts on the NPU.  SiLU-based
  // EfficientNets are rejected; plain CNNs convert fine.
  const auto& npu = hw::PlatformRegistry::instance().get("npu3720");
  const Backend& ov = BackendRegistry::instance().get("ov_sim");
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 1;
  EXPECT_THROW((void)ov.build(models::build_model("efficientnet_b0"), config, npu),
               ConfigError);
  EXPECT_NO_THROW((void)ov.build(models::build_model("resnet50"), config, npu));
  EXPECT_NO_THROW(
      (void)ov.build(models::build_model("mobilenetv2_10"), config, npu));
  // The error names the offending operator.
  try {
    (void)ov.build(models::build_model("efficientnetv2_t"), config, npu);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("Silu"), std::string::npos);
  }
}

TEST(Engine, UtilizationBounded) {
  const Graph model = models::build_model("resnet50");
  BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = 64;
  const Engine engine =
      BackendRegistry::instance().get("trt_sim").build(model, config, a100());
  const EngineProfile p = engine.profile(hw::PlatformState(a100()), 50);
  EXPECT_GT(p.utilization.gpu, 0.0);
  EXPECT_LE(p.utilization.gpu, 1.0);
  EXPECT_GT(p.utilization.mem, 0.0);
  EXPECT_LE(p.utilization.mem, 1.0);
}

}  // namespace
}  // namespace proof::backends
