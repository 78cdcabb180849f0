// Ablation — the layer-mapping strategy ladder (paper §3.3).
//
// Reports, per backend x model, how many backend layers each rung of the
// ladder resolves and the node coverage when higher rungs are disabled.
// The I/O-search rung is what makes opaque Myelin-style regions mappable.
#include <set>

#include "bench_util.hpp"

using namespace proof;

namespace {

/// Mapping with only name-based rungs (no I/O search / dependency walk):
/// what a tool relying purely on runtime-reported names could recover.
double name_only_coverage(const backends::Engine& engine) {
  const Graph& g = engine.analysis_graph();
  std::set<std::string> covered;
  for (const backends::BackendLayer& layer : engine.layers()) {
    if (layer.is_reorder || layer.labels->info.empty()) {
      continue;
    }
    if (g.find_node(layer.labels->info) != kInvalidNode) {
      covered.insert(layer.labels->info);
      continue;
    }
    for (const char sep : {'+', ','}) {
      bool all = true;
      std::set<std::string> names;
      for (const auto& part : strings::split(layer.labels->info, sep)) {
        const std::string name{strings::trim(part)};
        if (name.empty()) {
          continue;
        }
        if (g.find_node(name) == kInvalidNode) {
          all = false;
          break;
        }
        names.insert(name);
      }
      if (all && !names.empty()) {
        covered.insert(names.begin(), names.end());
        break;
      }
    }
  }
  return static_cast<double>(covered.size()) / static_cast<double>(g.num_nodes());
}

}  // namespace

int main() {
  bench::banner("Ablation: layer-mapping strategy ladder");
  report::TextTable table({"Backend", "Model", "Layers", "exact", "name list",
                           "io search", "dep. walk", "inserted", "names-only cov.",
                           "full cov."});
  const auto& a100 = hw::PlatformRegistry::instance().get("a100");
  for (const char* backend_id : {"trt_sim", "ov_sim", "ort_sim"}) {
    for (const char* model_id :
         {"resnet50", "vit_tiny", "shufflenetv2_10", "swin_tiny"}) {
      backends::BuildConfig config;
      config.dtype = DType::kF16;
      config.batch = 8;
      const backends::Engine engine =
          backends::BackendRegistry::instance().get(backend_id).build(
              models::build_model(model_id), config, a100);
      const AnalyzeRepresentation ar(engine.analysis_graph());
      OptimizedAnalyzeRepresentation oar(ar);
      const mapping::LayerMapping map = mapping::map_layers(engine, oar);
      table.add_row(
          {backend_id, model_id, std::to_string(engine.layers().size()),
           std::to_string(map.count(mapping::MapMethod::kExactName)),
           std::to_string(map.count(mapping::MapMethod::kNameList)),
           std::to_string(map.count(mapping::MapMethod::kIoSearch)),
           std::to_string(map.count(mapping::MapMethod::kDependencyInference)),
           std::to_string(map.count(mapping::MapMethod::kBackendInserted)),
           units::fixed(100.0 * name_only_coverage(engine), 1) + "%",
           units::fixed(100.0 * map.node_coverage(ar.num_nodes()), 1) + "%"});
    }
  }
  std::cout << table.to_string();
  std::cout << "\nNames alone cannot map TensorRT's opaque regions or ONNX\n"
               "Runtime's fused ops; the I/O-search rung closes the gap to 100%.\n";
  return 0;
}
