// Stage-by-stage replays of the two PrepCache paths, each stage a public
// library call inside a benchmark span.  Traced runs use them to attribute a
// profile's time to the modules that spend it:
//   * the miss path:  prepare_model -> Backend::plan -> Backend::lower ->
//     PreparedEngine (AR + OAR) -> map_layers -> Engine::profile;
//   * the AnalysisPlan-hit path:  instantiate_plan_graph + AR +
//     replay_plan_layers + apply_mapping -> Engine::profile.
#pragma once

#include <memory>
#include <string>

#include <proof/proof.hpp>

#include "core/analysis_plan.hpp"

namespace perfbench {

struct MissReplay {
  std::unique_ptr<proof::PreparedEngine> prep;
  proof::backends::BuildPlan plan;
  proof::backends::EngineProfile profile;
  double stages_ms = 0.0;  ///< sum of the six stage durations
};

/// Runs the uncached miss path for `model` under `options`, one span per
/// stage, tagged with operation id `op`.
MissReplay replay_miss(const proof::Graph& model,
                       const proof::ProfileOptions& options, uint64_t op);

/// Checks that a replay reproduces `report` (the same cell through
/// Profiler::run): backend layers, mapping entries, per-layer latency and
/// predicted FLOPs/bytes.  Returns "" when they agree, else what differs.
std::string compare_replay(const MissReplay& replay,
                           const proof::ProfileReport& report);

/// Freezes a replayed miss into an AnalysisPlan (the structure phase the
/// plan cache keeps).
proof::AnalysisPlan freeze_plan(const MissReplay& replay);

/// Instantiates `plan` for `model` at `options` (span core.instantiate), then
/// simulates its latency (span hw.engine_profile).
proof::backends::EngineProfile replay_instantiate(
    const proof::AnalysisPlan& plan, const proof::Graph& model,
    const proof::ProfileOptions& options, uint64_t op);

}  // namespace perfbench
