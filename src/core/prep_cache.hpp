// Preparation cache: memoized backend preparation for sweep workloads.
//
// A profile run decomposes into
//   (a) backend graph optimization (fusion planning)      — batch-independent
//   (b) lowering to an Engine with sized kernels           — batch-dependent
//   (c) AnalyzeRepresentation / OAR construction           — batch-dependent
//   (d) layer mapping (name / I/O-search / dependency)     — batch-independent
//   (e) latency simulation + roofline assembly             — clock-dependent
// and only (e) depends on the DVFS clock state.  Sweep matrices
// (model x batch x precision x clock) therefore redo enormous amounts of
// identical work when run naively; the paper's "negligible cost" claim for
// the analytical path (§4.2) only survives at production sweep sizes with
// memoization.
//
// Two cache levels:
//  * engine level (model, backend, platform, dtype, batch), keyed on the exact
//    fingerprint: the fully built PreparedEngine from (a)-(d) — reused across
//    clock settings, metric modes and repeated runs (clock/power searches,
//    distributed partition searches, report regeneration).
//  * AnalysisPlan level (model structure, backend, platform, dtype), keyed on
//    a *shape-erased* structural fingerprint (FingerprintMode::kStructural)
//    that hashes op types / attributes / connectivity but symbolizes batch
//    and sequence dims.  Every cell of a sweep grid that differs only in
//    batch or KV position — and every decode-step graph of the same LLM
//    config at a different position — shares one frozen structure phase
//    (fusion partition, lowering recipes, layer mapping, stream policy; see
//    core/analysis_plan.hpp).
// Cached artifacts are immutable after construction and shared across
// threads.
//
// There are two prepare paths.  An engine miss whose structure is new runs
// the full pipeline (build_prepared) and freezes its AnalysisPlan; an engine
// miss whose structure is cached instantiates the plan instead — a warm
// clone of the skeleton graph (descriptor table copied; names, index and
// node list shared copy-on-write), one in-place shape inference pass,
// closed-form kernel re-evaluation and a mapping replay over the plan's
// frozen node ids and boundaries.  The structural plan_compatible check
// runs once per (plan, model): each plan remembers the exact keys it has
// accepted.  prepare_engine() is the same full pipeline without the
// cache; PROOF_PREP_CACHE=0 (or set_enabled(false)) routes every call there.
// Reports are byte-identical either way, which the golden and plan-cache
// tests check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analyze_representation.hpp"
#include "analysis/optimized_representation.hpp"
#include "backends/backend.hpp"
#include "mapping/layer_mapping.hpp"

namespace proof {

/// Everything a profile run needs that does not depend on clocks: the built
/// engine plus analysis representations and the layer mapping.  Immutable
/// and address-stable once published (oar holds a pointer to ar).
class PreparedEngine {
 public:
  PreparedEngine(backends::Engine engine_in, mapping::LayerMapping mapping_in);

  /// Tag for the plan-cache instantiation path: the engine's analysis graph
  /// was produced by instantiating a frozen AnalysisPlan and is already
  /// validated + shape-inferred, and the instantiation already built the AR
  /// over it (the engine's shared analysis graph), so it is adopted as is.
  struct PreInferredTag {};
  PreparedEngine(backends::Engine engine_in, mapping::LayerMapping mapping_in,
                 AnalyzeRepresentation ar_in, PreInferredTag tag);

  PreparedEngine(const PreparedEngine&) = delete;
  PreparedEngine& operator=(const PreparedEngine&) = delete;

  backends::Engine engine;
  AnalyzeRepresentation ar;
  OptimizedAnalyzeRepresentation oar;
  mapping::LayerMapping mapping;
  double mapping_coverage = 0.0;
  size_t unmapped_layers = 0;
  /// Wall time of AR/OAR construction + mapping when this entry was built
  /// (reported verbatim on cache hits, mirroring the paper's §4.2 overhead
  /// accounting for the work actually performed once).
  double analysis_time_s = 0.0;

  /// Predicted (analytical) work of one backend layer.
  struct LayerWork {
    double flops = 0.0;
    double bytes = 0.0;
  };
  /// Per engine layer, frozen by the cache's prepare paths once the mapping
  /// is applied: Profiler::run's predicted metric mode copies these, so a
  /// hit does no node-name lookups and no fused-memory walks.  Left empty by
  /// the two constructors (callers that assemble an entry by hand fill it
  /// themselves or do not use Profiler::run).
  std::vector<LayerWork> layer_work;

  /// Fills layer_work once the mapping is applied: fusion-aware Equation 1
  /// over each layer's mapped node set; an unmapped conversion layer carries
  /// its kernels' traffic; anything else is zero.  `member_ids` and
  /// `boundaries` are the mapping resolved against the AR's graph numbering
  /// (mapping::ResolvedMapping, or an AnalysisPlan's frozen copy), so only
  /// per-node values and descriptor bytes are read.
  void freeze_layer_work(const std::vector<std::vector<NodeId>>& member_ids,
                         const std::vector<Graph::BoundaryIds>& boundaries);
};

struct PrepCacheStats {
  size_t engine_hits = 0;    ///< full (a)-(d) skipped
  size_t engine_misses = 0;
  size_t evictions = 0;      ///< entries dropped by the FIFO memory backstop

  // Shape-polymorphic AnalysisPlan level (structural-fingerprint keyed);
  // every engine miss is exactly one plan-cache hit or miss.
  size_t plan_cache_hits = 0;        ///< frozen plan instantiated per cell
  size_t plan_cache_misses = 0;      ///< full structure phase built + frozen
  size_t plan_cache_evictions = 0;   ///< plans dropped by the FIFO backstop
  size_t plan_cache_collisions = 0;  ///< fingerprint hit, verification failed
  /// plan_compatible walks run on hits; a plan remembers the exact keys it
  /// accepted, so a repeat hit by the same model skips the walk.
  size_t plan_cache_verifications = 0;
  uint64_t plan_cache_build_ns = 0;  ///< cumulative structure-phase build time

  [[nodiscard]] double engine_hit_rate() const {
    const size_t total = engine_hits + engine_misses;
    return total == 0 ? 0.0 : static_cast<double>(engine_hits) / static_cast<double>(total);
  }
};

/// How much of a graph a fingerprint keys on.
enum class FingerprintMode : uint8_t {
  /// Name, I/O, nodes (names, op types, attributes) and the full tensor
  /// table (dtype, every dim, param flag).  Keys engine-level entries.
  kExact,
  /// Shape-erased: same structure (op types, attributes, connectivity, param
  /// shapes) but the graph name is dropped and non-param tensors contribute
  /// only their rank — batch and sequence/position dims are symbolized.
  /// Every batch size of a model, and every KV position of an LLM decode
  /// step, map to the same structural fingerprint.  Keys AnalysisPlans.
  kStructural,
};

/// Structural fingerprint of a model graph.  Weights do not enter profiling
/// and are excluded in both modes.
[[nodiscard]] uint64_t graph_fingerprint(
    const Graph& model, FingerprintMode mode = FingerprintMode::kExact);

/// Both fingerprints of a model, computed in one traversal.  Sweeps hoist
/// this out of their inner loops and hand it to Profiler::run / the cache so
/// per-cell lookups skip re-hashing the (shared, read-only) model graph.
struct GraphKeys {
  uint64_t exact = 0;
  uint64_t structural = 0;
};
[[nodiscard]] GraphKeys compute_graph_keys(const Graph& model);

class PrepCache {
 public:
  /// Process-wide instance shared by every Profiler.
  static PrepCache& instance();

  PrepCache();
  ~PrepCache();
  PrepCache(const PrepCache&) = delete;
  PrepCache& operator=(const PrepCache&) = delete;

  /// Returns the prepared engine for (model, backend, platform, config),
  /// building at most once per key even under concurrent callers (other
  /// threads wait on the winner's in-flight build).  When the cache is
  /// disabled every call builds privately and records no stats.  `keys`, when
  /// non-null, supplies precomputed fingerprints (sweeps hoist the hashing
  /// out of their inner loops); it must describe `model` exactly.
  [[nodiscard]] std::shared_ptr<const PreparedEngine> get_or_prepare(
      const Graph& model, const backends::Backend& backend,
      const hw::PlatformDesc& platform, const backends::BuildConfig& config,
      const GraphKeys* keys = nullptr);

  /// Drops every cached entry (stats are kept; use reset_stats()).
  void clear();

  [[nodiscard]] PrepCacheStats stats() const;
  void reset_stats();

  /// Runtime switch; initial value comes from PROOF_PREP_CACHE ("0"/"false"
  /// disables).  Disabling does not clear existing entries.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const;

  /// Ready engine-level entries cached right now.
  [[nodiscard]] size_t size() const;

  /// FIFO eviction bound on engine-level entries (0 = unbounded).  Initial
  /// value comes from PROOF_PREP_CACHE_CAP (default 512).  Long-running
  /// daemons tune this to bound resident memory; shrinking evicts the oldest
  /// entries immediately.
  [[nodiscard]] size_t capacity() const;
  void set_capacity(size_t capacity);

  /// Ready AnalysisPlans cached right now.
  [[nodiscard]] size_t plan_cache_size() const;

  /// FIFO eviction bound on AnalysisPlans (0 = unbounded).  Initial value
  /// comes from PROOF_PLAN_CACHE_CAP (default 128).
  [[nodiscard]] size_t plan_cache_capacity() const;
  void set_plan_cache_capacity(size_t capacity);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Uncached preparation: the full (a)-(d) pipeline the cache memoizes, and
/// the reference the cached paths are checked against.
[[nodiscard]] std::shared_ptr<const PreparedEngine> prepare_engine(
    const Graph& model, const backends::Backend& backend,
    const hw::PlatformDesc& platform, const backends::BuildConfig& config);

}  // namespace proof
