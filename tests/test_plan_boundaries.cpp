// Plan-frozen mapping boundaries: an AnalysisPlan resolves each mapping
// entry's node ids and boundary tensors once, against its skeleton, and
// every instantiated cell sums bytes over those ids.  That is only sound if
// the boundary is structural — equal to Graph::boundary_ids on any graph the
// plan instantiates — and if the per-layer work frozen that way equals what
// a full, uncached prepare computes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "backends/prepare.hpp"
#include "core/analysis_plan.hpp"
#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "test_util.hpp"

namespace proof {
namespace {

using testing::zoo_and_extra_models;

backends::BuildConfig config_at(int64_t batch) {
  backends::BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = batch;
  return config;
}

using Cell = std::tuple<std::string, std::string>;  // (model, backend)

class PlanBoundaries : public ::testing::TestWithParam<Cell> {};

TEST_P(PlanBoundaries, FrozenBoundariesAndWorkMatchAFullPrepare) {
  const auto& [model_id, backend_id] = GetParam();
  const Graph model = models::build_model(model_id);
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get(backend_id);
  // The structure phase at batch 1, frozen the way PrepCache freezes it on
  // a structural miss, then instantiated at two more batches.
  const backends::BuildConfig canonical = config_at(1);
  Graph prepared = backends::prepare_model(model, canonical, platform);
  const backends::BuildPlan build_plan = backend.plan(prepared);
  PreparedEngine built(
      backend.lower(std::move(prepared), build_plan, canonical, platform),
      mapping::LayerMapping{});
  built.mapping = mapping::map_layers(built.engine, built.oar);
  const AnalysisPlan plan = build_analysis_plan(built.engine, build_plan, built.mapping);
  ASSERT_EQ(plan.mapping_boundaries.size(), plan.mapping_node_ids.size());

  PrepCache cache;  // private, so the plan-hit path runs regardless of env
  cache.set_enabled(true);
  (void)cache.get_or_prepare(model, backend, platform, canonical);
  const std::vector<int64_t> batches =
      model_id == "sd_unet" ? std::vector<int64_t>{2} : std::vector<int64_t>{2, 4};
  for (const int64_t batch : batches) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    const backends::BuildConfig cell = config_at(batch);
    const Graph g = instantiate_plan_graph(plan, model, cell);
    size_t multi_node = 0;
    for (size_t i = 0; i < plan.mapping_node_ids.size(); ++i) {
      const std::vector<NodeId>& ids = plan.mapping_node_ids[i];
      const Graph::BoundaryIds& frozen = plan.mapping_boundaries[i];
      if (ids.size() <= 1) {
        EXPECT_TRUE(frozen.inputs.empty() && frozen.outputs.empty() &&
                    frozen.params.empty())
            << "entry " << i;
        continue;
      }
      ++multi_node;
      const Graph::BoundaryIds live = g.boundary_ids(ids);
      EXPECT_EQ(frozen.inputs, live.inputs) << "entry " << i;
      EXPECT_EQ(frozen.outputs, live.outputs) << "entry " << i;
      EXPECT_EQ(frozen.params, live.params) << "entry " << i;
    }
    if (backend_id == "trt_sim") {
      EXPECT_GT(multi_node, 0u) << "no fused entry exercised the frozen boundaries";
    }

    // The plan-hit path (through the cache) against the uncached pipeline.
    const size_t hits_before = cache.stats().plan_cache_hits;
    const auto hit = cache.get_or_prepare(model, backend, platform, cell);
    ASSERT_EQ(cache.stats().plan_cache_hits, hits_before + 1);
    const auto full = prepare_engine(model, backend, platform, cell);
    ASSERT_EQ(hit->layer_work.size(), full->layer_work.size());
    for (size_t i = 0; i < full->layer_work.size(); ++i) {
      EXPECT_EQ(hit->layer_work[i].flops, full->layer_work[i].flops) << "layer " << i;
      EXPECT_EQ(hit->layer_work[i].bytes, full->layer_work[i].bytes) << "layer " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PlanBoundaries,
    ::testing::Combine(::testing::ValuesIn(zoo_and_extra_models()),
                       ::testing::Values("trt_sim", "ov_sim", "ort_sim")),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace proof
