#include "replay.hpp"

#include <optional>
#include <sstream>

#include "backends/prepare.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace proof;

namespace {

backends::BuildConfig build_config(const ProfileOptions& options) {
  backends::BuildConfig config;
  config.dtype = options.dtype;
  config.batch = options.batch;
  return config;
}

const hw::PlatformDesc& platform_of(const ProfileOptions& options) {
  return hw::PlatformRegistry::instance().get(options.platform_id);
}

const backends::Backend& backend_of(const ProfileOptions& options) {
  const std::string id = options.backend_id.empty()
                             ? platform_of(options).runtime
                             : options.backend_id;
  return backends::BackendRegistry::instance().get(id);
}

double since_ms(uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

/// Predicted FLOPs and bytes of one mapped layer, computed the way
/// Profiler::run does for the analytical metric mode.
std::pair<double, double> predicted_layer_work(const PreparedEngine& prep,
                                               size_t layer) {
  const mapping::LayerMapEntry& entry = prep.mapping.entries[layer];
  const backends::BackendLayer& bl = prep.engine.layers()[layer];
  if (!entry.model_nodes.empty()) {
    std::vector<NodeId> ids;
    ids.reserve(entry.model_nodes.size());
    for (const std::string& name : entry.model_nodes) {
      ids.push_back(prep.ar.graph().find_node(name));
    }
    return {prep.oar.fused_flops(ids), prep.oar.fused_memory(ids).total()};
  }
  if (bl.is_reorder) {
    double bytes = 0.0;
    for (const hw::KernelWork& k : bl.kernels) {
      bytes += k.bytes;
    }
    return {0.0, bytes};
  }
  return {0.0, 0.0};
}

}  // namespace

MissReplay replay_miss(const Graph& model, const ProfileOptions& options,
                       uint64_t op) {
  const hw::PlatformDesc& platform = platform_of(options);
  const backends::Backend& backend = backend_of(options);
  const backends::BuildConfig config = build_config(options);

  MissReplay out;
  uint64_t t0 = now_ns();
  std::optional<Graph> prepared;
  {
    Span span("backends.prepare", op);
    prepared.emplace(backends::prepare_model(model, config, platform));
  }
  {
    Span span("backends.plan", op);
    out.plan = backend.plan(*prepared);
  }
  std::optional<backends::Engine> engine;
  {
    Span span("backends.lower", op);
    engine.emplace(
        backend.lower(std::move(*prepared), out.plan, config, platform));
  }
  {
    Span span("analysis.ar_oar", op);
    out.prep = std::make_unique<PreparedEngine>(std::move(*engine),
                                                mapping::LayerMapping{});
  }
  {
    Span span("mapping.map", op);
    out.prep->mapping = mapping::map_layers(out.prep->engine, out.prep->oar);
  }
  {
    Span span("hw.engine_profile", op);
    out.profile = out.prep->engine.profile(
        hw::PlatformState(platform, options.clocks), options.iterations);
  }
  out.stages_ms = since_ms(t0);
  return out;
}

std::string compare_replay(const MissReplay& replay,
                           const ProfileReport& report) {
  const PreparedEngine& prep = *replay.prep;
  const auto& layers = prep.engine.layers();
  std::ostringstream why;
  if (layers.size() != report.layers.size()) {
    why << "layer count " << layers.size() << " vs " << report.layers.size();
    return why.str();
  }
  for (size_t i = 0; i < layers.size(); ++i) {
    const LayerReport& want = report.layers[i];
    const mapping::LayerMapEntry& entry = prep.mapping.entries[i];
    const auto [flops, bytes] = predicted_layer_work(prep, i);
    if (layers[i].name != want.backend_layer) {
      why << "layer " << i << " name '" << layers[i].name << "' vs '"
          << want.backend_layer << "'";
    } else if (entry.model_nodes != want.model_nodes ||
               entry.method != want.method) {
      why << "layer " << i << " mapping differs";
    } else if (replay.profile.layer_latency_s[i] != want.latency_s) {
      why << "layer " << i << " latency differs";
    } else if (flops != want.flops || bytes != want.bytes) {
      why << "layer " << i << " FLOPs/bytes differ";
    } else {
      continue;
    }
    return report.model_name + ": " + why.str();
  }
  return "";
}

AnalysisPlan freeze_plan(const MissReplay& replay) {
  return build_analysis_plan(replay.prep->engine, replay.plan,
                             replay.prep->mapping);
}

backends::EngineProfile replay_instantiate(const AnalysisPlan& plan,
                                           const Graph& model,
                                           const ProfileOptions& options,
                                           uint64_t op) {
  const hw::PlatformDesc& platform = platform_of(options);
  const backends::BuildConfig config = build_config(options);
  std::unique_ptr<PreparedEngine> prep;
  {
    Span span("core.instantiate", op);
    auto g = std::make_shared<const Graph>(
        instantiate_plan_graph(plan, model, config));
    AnalyzeRepresentation ar(g, AnalyzeRepresentation::TrustedGraphTag{});
    std::vector<backends::BackendLayer> layers =
        replay_plan_layers(plan, *g, platform, &ar.analyses());
    backends::Engine engine(plan.backend_id, g, std::move(layers), config,
                            plan.stream_policy);
    prep = std::make_unique<PreparedEngine>(std::move(engine), plan.mapping,
                                            std::move(ar),
                                            PreparedEngine::PreInferredTag{});
    mapping::apply_mapping(prep->engine, prep->oar, prep->mapping,
                           &plan.mapping_node_ids);
  }
  Span span("hw.engine_profile", op);
  return prep->engine.profile(hw::PlatformState(platform, options.clocks),
                              options.iterations);
}

}  // namespace perfbench
