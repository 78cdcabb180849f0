// Ablation — what operator fusion buys (paper §1: runtimes "significantly
// improve performance (e.g., operator fusion)").
//
// Builds each model twice on the A100: once through the normal trt_sim
// optimizer and once with every node lowered as its own backend layer
// (fusion disabled), and compares layer counts, DRAM traffic and latency.
#include "backends/fusion.hpp"
#include "backends/lowering.hpp"
#include "backends/prepare.hpp"

#include "bench_util.hpp"

using namespace proof;

namespace {

/// Unfused engine: one backend layer per model node (no optimizer).
backends::Engine build_unfused(const Graph& model, const backends::BuildConfig& config,
                               const hw::PlatformDesc& platform) {
  Graph g = backends::prepare_model(model, config, platform);
  backends::LoweringOptions lowering;
  lowering.arch = platform.arch;
  lowering.split_regions_at_anchors = false;
  std::vector<backends::BackendLayer> layers;
  for (const NodeId id : g.topo_order()) {
    backends::LayerLabels labels = backends::group_labels(g, {id});
    labels.info = g.node(id).name;
    layers.push_back(backends::lower_group(g, {id}, g.node(id).name, std::move(labels),
                                           false, lowering));
  }
  return backends::Engine("unfused", std::move(g), std::move(layers), config);
}

double engine_bytes(const backends::Engine& engine) {
  double bytes = 0.0;
  for (const hw::KernelWork& k : engine.all_kernels()) {
    bytes += k.bytes;
  }
  return bytes;
}

}  // namespace

int main() {
  bench::banner("Ablation: operator fusion on/off (trt_sim vs per-node lowering)");
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  const hw::PlatformState state(a100);

  report::TextTable table({"model", "layers fused/unfused", "traffic fused/unfused",
                           "latency fused", "latency unfused", "fusion speedup"});
  for (const char* id : {"resnet50", "mobilenetv2_10", "efficientnet_b0",
                         "vit_tiny", "shufflenetv2_10", "mlp_mixer_b16"}) {
    const Graph model = models::build_model(id);
    backends::BuildConfig config;
    config.dtype = DType::kF16;
    config.batch = 64;
    const backends::Engine fused =
        backends::BackendRegistry::instance().get("trt_sim").build(model, config,
                                                                   a100);
    const backends::Engine unfused = build_unfused(model, config, a100);
    const double t_fused = fused.profile(state).total_latency_s;
    const double t_unfused = unfused.profile(state).total_latency_s;
    table.add_row(
        {models::model_spec(id).display,
         std::to_string(fused.layers().size()) + " / " +
             std::to_string(unfused.layers().size()),
         units::fixed(engine_bytes(fused) / 1e9, 2) + " / " +
             units::fixed(engine_bytes(unfused) / 1e9, 2) + " GB",
         units::ms(t_fused), units::ms(t_unfused),
         units::fixed(t_unfused / t_fused, 2) + "x"});
  }
  std::cout << table.to_string();
  std::cout << "\nFusion removes both the per-kernel launch overhead and the\n"
               "DRAM round-trips of fused intermediates — the gap PRoof's\n"
               "fusion-aware analysis has to model to stay accurate.\n";
  return 0;
}
