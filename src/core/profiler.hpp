// PRoof core orchestrator: model + backend + platform -> profile report.
//
// Mirrors the paper's CLI pipeline (Figure 1): build the Analyze
// Representation, build/optimize the model on the chosen runtime backend,
// run layer mapping to obtain the Optimized Analyze Representation, collect
// per-backend-layer latency from the runtime's built-in profiler, attach
// FLOP / memory metrics either from the analytical model ("predicted") or
// from the hardware-counter profiler ("measured"), and assemble end-to-end +
// layer-wise roofline analyses.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/analyze_representation.hpp"
#include "analysis/critical_path/critical_path.hpp"
#include "analysis/critical_path/timeline.hpp"
#include "backends/backend.hpp"
#include "hw/power.hpp"
#include "mapping/layer_mapping.hpp"
#include "roofline/roofline.hpp"

namespace proof {

struct GraphKeys;  // core/prep_cache.hpp

/// How FLOP / memory metrics are obtained (paper Table 1's last row).
enum class MetricMode : uint8_t {
  kPredicted,  ///< analytical model (works on every platform, negligible cost)
  kMeasured,   ///< hardware-counter profiler (NCU-like; where available)
  kAuto,       ///< measured when the platform has a counter tool, else predicted
};

struct ProfileOptions {
  std::string platform_id;          ///< required (see hw::PlatformRegistry)
  std::string backend_id;           ///< empty = platform's default runtime
  DType dtype = DType::kF16;
  int64_t batch = 1;
  MetricMode mode = MetricMode::kPredicted;
  hw::ClockSetting clocks;          ///< DVFS overrides (§4.6)
  int iterations = 50;              ///< built-in profiler averaging length
  /// Execution streams to simulate.  1 (default) is the seed-faithful serial
  /// mode: no timeline, no critical_path report section, byte-identical
  /// output.  0 = the backend's StreamPolicy maximum; N > 1 is clamped to
  /// it.  Multi-stream runs attach an ExecutionTimeline plus a critical-path
  /// analysis to the report (see analysis/critical_path/).
  int streams = 1;
};

/// Per-backend-layer profiling result.
struct LayerReport {
  std::string backend_layer;
  std::vector<std::string> model_nodes;   ///< mapped model-design nodes
  mapping::MapMethod method = mapping::MapMethod::kUnmapped;
  OpClass cls = OpClass::kElementwise;
  bool is_reorder = false;
  double latency_s = 0.0;
  double flops = 0.0;   ///< per the selected metric mode
  double bytes = 0.0;
  /// Device kernels this layer lowered to (Figure-3 drill-down).
  std::vector<std::string> kernels;

  [[nodiscard]] roofline::Point to_point() const;
};

struct ProfileReport {
  std::string model_name;
  std::string backend_name;
  std::string platform_name;
  ProfileOptions options;

  std::vector<LayerReport> layers;
  roofline::Analysis roofline;      ///< ceilings + layer points + end-to-end

  /// Multi-stream mode only (options.streams != 1): the emitted execution
  /// timeline and its critical-path analysis.  Absent in serial mode so
  /// serial reports stay byte-identical to the seed.
  std::optional<ExecutionTimeline> timeline;
  std::optional<critpath::Report> critical_path;

  // Mapping quality.
  double mapping_coverage = 0.0;    ///< fraction of model nodes claimed
  size_t unmapped_layers = 0;

  // Overheads (paper §4.2): the analytical path costs microseconds; counter
  // profiling costs minutes.
  double analysis_time_s = 0.0;     ///< wall time of analysis + mapping
  double counter_profiling_time_s = 0.0;  ///< simulated NCU replay time

  // Whole-run aggregates.
  double total_latency_s = 0.0;
  double power_w = 0.0;             ///< board power under this workload
  hw::Utilization utilization;

  [[nodiscard]] double throughput_per_s() const {
    return total_latency_s > 0.0
               ? static_cast<double>(options.batch) / total_latency_s
               : 0.0;
  }
};

class Profiler {
 public:
  explicit Profiler(ProfileOptions options);

  /// Full pipeline on an arbitrary model graph.  `keys`, when non-null,
  /// supplies the model's precomputed cache fingerprints (see
  /// compute_graph_keys); sweeps hoist the hashing out of their inner loops
  /// and the serve daemon's ModelPool hashes each pooled model once, so
  /// cache lookups skip re-walking a shared model graph.
  [[nodiscard]] ProfileReport run(const Graph& model,
                                  const GraphKeys* keys = nullptr) const;

  /// Convenience: profile a model-zoo entry by id.
  [[nodiscard]] ProfileReport run_zoo(const std::string& model_id) const;

  [[nodiscard]] const ProfileOptions& options() const { return options_; }

 private:
  ProfileOptions options_;
};

}  // namespace proof
