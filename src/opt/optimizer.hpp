// The production optimizer: the guarded loop wired to the real Profiler.
//
// `optimize()` rediscovers the paper's case studies end-to-end:
//   * §4.5 — shufflenetv2_10 on the A100 classifies bandwidth-bound with a
//     dominant reorder share; the generator proposes the `_mod` redesign;
//     the guard accepts it on measured improvement;
//   * §4.6 — efficientnetv2_t on the Orin NX under a 15 W budget starts
//     infeasible at nominal clocks; the clock axis proposes every DVFS
//     operating point and the guard lands on GPU 612 / EMC 2133 (Table 7's
//     "ours") because feasibility dominates the objective order.
//
// Every variant is measured through the normal Profiler path, so the
// process-wide PrepCache memoizes engine builds across variants and the
// global ThreadPool fans measurements out under `--jobs` — with results
// recorded in proposal order, byte-identical at any job count.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/prep_cache.hpp"
#include "core/profiler.hpp"
#include "opt/guard.hpp"

namespace proof::opt {

struct OptimizeOptions {
  ProfileOptions base;            ///< starting configuration (platform required)
  Objective objective = Objective::kLatency;
  double power_budget_w = 0.0;    ///< 0 = unconstrained
  double noise_threshold = 0.02;  ///< fractional improvement the guard requires
  int max_rounds = 4;
  AxisConfig axes;
  /// Called at the top of every round (serve deadline checks).
  std::function<void(int round)> round_hook;
};

struct OptimizeResult {
  OptimizationLog log;
  ProfileReport baseline_report;  ///< full profile of the starting config
  ProfileReport final_report;     ///< full profile of the accepted config
  /// The accepted configuration, for reproducing the final report.
  ProfileOptions final_options;
  std::string final_model_id;     ///< zoo id ("" when optimizing a raw graph)
  bool final_quantized = false;
};

/// Optimizes a zoo model end to end.  All proposal axes are available.
[[nodiscard]] OptimizeResult optimize(const std::string& model_id,
                                      const OptimizeOptions& options);

/// Same as above for a zoo model that is already built and hashed (the serve
/// daemon's pooled models): `graph` must be models::build_model(model_id) and
/// `keys` its compute_graph_keys.  The graph is shared read-only, never
/// copied, rebuilt or re-hashed; accepted rewrites profile private copies.
[[nodiscard]] OptimizeResult optimize(const std::string& model_id,
                                      std::shared_ptr<const Graph> graph,
                                      const GraphKeys& keys,
                                      const OptimizeOptions& options);

/// Optimizes an arbitrary graph.  The model-rewrite axis is unavailable
/// (there is no zoo sibling to look up); everything else applies.
[[nodiscard]] OptimizeResult optimize_graph(const Graph& model,
                                            const OptimizeOptions& options);

/// The "optimization" report section (spliced into report JSON by
/// report_to_json's optimization_section parameter).  Deterministic: no
/// wall-clock values, doubles at the report serializer's precision.
[[nodiscard]] std::string optimization_section_json(const OptimizationLog& log);

/// Human-readable rendering: classification, per-round variant tables with
/// deltas and verdicts, the accepted chain and the final configuration.
[[nodiscard]] std::string optimization_text(const OptimizeResult& result);

}  // namespace proof::opt
