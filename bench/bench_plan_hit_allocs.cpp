// Heap allocations of one AnalysisPlan-hit cell, split by stage.
//
// A sweep grid runs one structure-phase miss and then, for every other cell,
// the plan-hit path: warm-clone the plan's skeleton graph, re-infer shapes,
// re-run the per-node analysis, replay the frozen layer recipes, replay the
// frozen mapping, freeze the per-layer predicted work and assemble the
// report.  That path should cost O(layers), and heap allocations are its
// most direct size measure.  This bench counts every global operator new
// while gpt2 decode cells on a100 (fp16, predicted metrics) take it:
//
//   * total   — Profiler::run on a cell whose engine is not cached but whose
//               structure is (the real PrepCache path);
//   * stages  — the same instantiation replayed stage by stage through the
//               public calls PrepCache uses, on a second fresh cell:
//                 clone     Graph::clone_warm of the skeleton
//                 infer     instantiate_plan_graph minus the clone (input
//                           restore + one shape-inference pass)
//                 analysis  AnalyzeRepresentation over the instantiated graph
//                 replay    replay_plan_layers + Engine
//                 mapping   PreparedEngine + apply_mapping
//                 freeze    PreparedEngine::freeze_layer_work
//                 report    Profiler::run on the now-cached engine (report
//                           assembly only)
//     "cache" is total minus the stage sum: PrepCache bookkeeping.
//
// Runtime observability is switched off while counting so the tracer's own
// buffers do not enter the numbers.  Exits nonzero when a cell's total
// exceeds kBudget.  `--smoke` runs 4 cells instead of 16.
//
// Usage: bench_plan_hit_allocs [--smoke]
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <proof/proof.hpp>

#include "backends/prepare.hpp"
#include "core/analysis_plan.hpp"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace proof;

namespace {

/// Per-cell allocation ceiling of the plan-hit path (Profiler::run total).
constexpr uint64_t kBudget = 2500;

/// Allocations made by `body`.
template <typename F>
uint64_t allocs_of(F&& body) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  body();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

struct Stages {
  uint64_t clone = 0;
  uint64_t infer = 0;
  uint64_t analysis = 0;
  uint64_t replay = 0;
  uint64_t mapping = 0;
  uint64_t freeze = 0;
  uint64_t report = 0;

  [[nodiscard]] uint64_t sum() const {
    return clone + infer + analysis + replay + mapping + freeze + report;
  }
};

ProfileOptions cell_options(int64_t batch) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;
  return opt;
}

backends::BuildConfig build_config(int64_t batch) {
  backends::BuildConfig config;
  config.dtype = DType::kF16;
  config.batch = batch;
  return config;
}

/// The structure phase of `model` at `batch`, frozen the way PrepCache
/// freezes it on a structural miss.
AnalysisPlan freeze_structure(const Graph& model, int64_t batch) {
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::Backend& backend =
      backends::BackendRegistry::instance().get(platform.runtime);
  const backends::BuildConfig config = build_config(batch);
  Graph prepared = backends::prepare_model(model, config, platform);
  const backends::BuildPlan plan = backend.plan(prepared);
  PreparedEngine prep(backend.lower(std::move(prepared), plan, config, platform),
                      mapping::LayerMapping{});
  prep.mapping = mapping::map_layers(prep.engine, prep.oar);
  return build_analysis_plan(prep.engine, plan, prep.mapping);
}

/// Replays PrepCache's plan-hit instantiation stage by stage for `model` at
/// `batch`, then assembles the report from the engine cache.
Stages stage_split(const AnalysisPlan& plan, const Graph& model, int64_t batch) {
  const hw::PlatformDesc& platform = hw::PlatformRegistry::instance().get("a100");
  const backends::BuildConfig config = build_config(batch);
  Stages s;
  s.clone = allocs_of([&] { (void)plan.skeleton.clone_warm(); });
  std::shared_ptr<const Graph> g;
  const uint64_t instantiate = allocs_of([&] {
    g = std::make_shared<const Graph>(instantiate_plan_graph(plan, model, config));
  });
  s.infer = instantiate > s.clone ? instantiate - s.clone : 0;
  std::unique_ptr<AnalyzeRepresentation> ar;
  s.analysis = allocs_of([&] {
    ar = std::make_unique<AnalyzeRepresentation>(
        g, AnalyzeRepresentation::TrustedGraphTag{});
  });
  std::unique_ptr<backends::Engine> engine;
  s.replay = allocs_of([&] {
    engine = std::make_unique<backends::Engine>(
        plan.backend_id, g, replay_plan_layers(plan, *g, platform, &ar->analyses()),
        config, plan.stream_policy);
  });
  std::unique_ptr<PreparedEngine> prep;
  s.mapping = allocs_of([&] {
    prep = std::make_unique<PreparedEngine>(std::move(*engine), plan.mapping,
                                            std::move(*ar),
                                            PreparedEngine::PreInferredTag{});
    mapping::apply_mapping(prep->engine, prep->oar, prep->mapping,
                           plan.mapping_node_ids);
  });
  s.freeze = allocs_of([&] {
    prep->freeze_layer_work(plan.mapping_node_ids, plan.mapping_boundaries);
  });
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::cout << "\n=== Heap allocations per gpt2 decode plan-hit cell "
               "(a100, fp16) ===\n\n";

  const models::LlmConfig& cfg = models::llm_config("gpt2");
  const std::vector<int64_t> batches =
      smoke ? std::vector<int64_t>{2, 8} : std::vector<int64_t>{2, 4, 8, 16};
  const std::vector<int64_t> positions =
      smoke ? std::vector<int64_t>{128, 1024}
            : std::vector<int64_t>{128, 512, 1024, 4096};

  obs::set_enabled(false);
  PrepCache& cache = PrepCache::instance();
  cache.set_enabled(true);
  cache.clear();

  // The structural miss: batch 1, position 64 builds and caches the plan.
  const Graph first = models::build_llm_decode_step(cfg, 64);
  (void)Profiler(cell_options(1)).run(first);
  const AnalysisPlan plan = freeze_structure(first, 1);

  std::cout << "  batch  pos   total  clone  infer  analysis  replay  mapping  "
               "freeze  report  cache\n";
  uint64_t worst = 0;
  uint64_t total_sum = 0;
  Stages stage_sum;
  size_t cells = 0;
  bool ok = true;
  for (const int64_t pos : positions) {
    const Graph model = models::build_llm_decode_step(cfg, pos);
    const GraphKeys keys = compute_graph_keys(model);
    for (const int64_t batch : batches) {
      const PrepCacheStats before = cache.stats();
      const Profiler profiler(cell_options(batch));
      const uint64_t total = allocs_of([&] { (void)profiler.run(model, &keys); });
      const PrepCacheStats after = cache.stats();
      if (after.plan_cache_hits != before.plan_cache_hits + 1) {
        std::cout << "  cell batch " << batch << " pos " << pos
                  << " did not take the plan-hit path\n";
        ok = false;
      }
      Stages s = stage_split(plan, model, batch);
      s.report = allocs_of([&] { (void)profiler.run(model, &keys); });
      const int64_t other =
          static_cast<int64_t>(total) - static_cast<int64_t>(s.sum());
      std::printf("  %5lld %5lld %7llu %6llu %6llu %9llu %7llu %8llu %7llu %7llu %6lld\n",
                  static_cast<long long>(batch), static_cast<long long>(pos),
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(s.clone),
                  static_cast<unsigned long long>(s.infer),
                  static_cast<unsigned long long>(s.analysis),
                  static_cast<unsigned long long>(s.replay),
                  static_cast<unsigned long long>(s.mapping),
                  static_cast<unsigned long long>(s.freeze),
                  static_cast<unsigned long long>(s.report),
                  static_cast<long long>(other));
      worst = std::max(worst, total);
      total_sum += total;
      stage_sum.clone += s.clone;
      stage_sum.infer += s.infer;
      stage_sum.analysis += s.analysis;
      stage_sum.replay += s.replay;
      stage_sum.mapping += s.mapping;
      stage_sum.freeze += s.freeze;
      stage_sum.report += s.report;
      ++cells;
    }
  }
  obs::set_enabled(true);

  const auto mean = [&](uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(cells);
  };
  std::printf("\n  mean over %zu cells: total %.0f = clone %.0f + infer %.0f + "
              "analysis %.0f + replay %.0f + mapping %.0f + freeze %.0f + "
              "report %.0f + cache %.0f\n",
              cells, mean(total_sum), mean(stage_sum.clone), mean(stage_sum.infer),
              mean(stage_sum.analysis), mean(stage_sum.replay),
              mean(stage_sum.mapping), mean(stage_sum.freeze),
              mean(stage_sum.report),
              mean(total_sum) - mean(stage_sum.sum()));
  std::printf("  worst cell: %llu allocations (budget %llu)\n",
              static_cast<unsigned long long>(worst),
              static_cast<unsigned long long>(kBudget));
  if (worst > kBudget) {
    std::cout << "FAIL: a plan-hit cell exceeds the allocation budget\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
