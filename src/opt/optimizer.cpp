#include "opt/optimizer.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/quantize.hpp"
#include "backends/backend.hpp"
#include "core/prep_cache.hpp"
#include "hw/platform.hpp"
#include "models/zoo.hpp"
#include "report/table.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/units.hpp"

namespace proof::opt {

namespace {

/// Objective scalar of a profile.  Per-sample so batch variants compare:
/// latency -> s/sample; perf-per-watt -> J/sample (energy per inference).
double objective_score(const ProfileReport& report, Objective objective) {
  const double per_sample =
      report.total_latency_s / static_cast<double>(report.options.batch);
  return objective == Objective::kPerfPerWatt ? per_sample * report.power_w
                                              : per_sample;
}

Measurement measurement_from(const ProfileReport& report, Objective objective,
                             double power_budget_w) {
  Measurement m;
  m.feasible = power_budget_w <= 0.0 || report.power_w <= power_budget_w;
  m.score = objective_score(report, objective);
  m.latency_s = report.total_latency_s;
  m.power_w = report.power_w;
  m.throughput_per_s = report.throughput_per_s();
  if (!m.feasible) {
    m.note = "power budget exceeded";
  }
  return m;
}

/// The guarded loop's production VariantSource: profiles every variant
/// through the normal Profiler path (PrepCache + ThreadPool reuse) and folds
/// accepted variants into the incumbent (model, quantization, options).
class ProfilingVariantSource final : public VariantSource {
 public:
  ProfilingVariantSource(std::string model_id,
                         std::shared_ptr<const Graph> graph,
                         std::optional<GraphKeys> keys,
                         const OptimizeOptions& options)
      : model_id_(std::move(model_id)),
        graph_(std::move(graph)),
        opt_(options),
        platform_(hw::PlatformRegistry::instance().get(
            options.base.platform_id)) {
    options_ = options.base;
    keys_ = keys;
  }

  /// Profiles the incumbent configuration (memoized until an acceptance).
  const ProfileReport& incumbent_report() {
    if (!report_) {
      report_ = Profiler(options_).run(*graph_, incumbent_keys());
    }
    return *report_;
  }

  Measurement measure_incumbent() {
    return measurement_from(incumbent_report(), opt_.objective,
                            opt_.power_budget_w);
  }

  [[nodiscard]] BottleneckReport classify_incumbent() override {
    return classify(incumbent_report(), platform_);
  }

  [[nodiscard]] std::vector<Variant> propose(
      int /*round*/, const Measurement& /*incumbent*/) override {
    ProposalContext ctx;
    ctx.model_id = model_id_;
    ctx.quantized = quantized_;
    ctx.platform_id = platform_.id;
    ctx.backend_id =
        options_.backend_id.empty() ? platform_.runtime : options_.backend_id;
    ctx.batch = options_.batch;
    ctx.gpu_mhz = options_.clocks.gpu_mhz.value_or(platform_.gpu_clock.nominal_mhz);
    ctx.mem_mhz = options_.clocks.mem_mhz.value_or(platform_.mem_clock.nominal_mhz);
    ctx.supports_int8 = platform_.supports(DType::kI8);
    ctx.objective = opt_.objective;
    ctx.power_budget_w = opt_.power_budget_w;
    ctx.axes = opt_.axes;

    std::vector<Variant> fresh;
    for (Variant& v : propose_variants(ctx, classify_incumbent())) {
      if (tried_.insert(v.id).second) {
        fresh.push_back(std::move(v));
      }
    }
    // The round measures concurrently against the shared incumbent graph;
    // materialize its lazy indices and cache fingerprints while still
    // single-threaded (batch/clock/backend-knob variants all profile this
    // same graph, so one hash serves the whole round).
    graph_->warm_indices();
    (void)incumbent_keys();
    return fresh;
  }

  [[nodiscard]] Measurement measure(const Variant& variant) override {
    try {
      ProfileOptions opt = options_;
      if (variant.batch) {
        opt.batch = *variant.batch;
      }
      if (variant.gpu_mhz) {
        opt.clocks.gpu_mhz = *variant.gpu_mhz;
      }
      if (variant.mem_mhz) {
        opt.clocks.mem_mhz = *variant.mem_mhz;
      }
      if (!variant.backend_id.empty()) {
        opt.backend_id = variant.backend_id;
      }
      const ProfileReport report = [&] {
        if (!variant.model_substitute.empty()) {
          Graph substitute = models::build_model(variant.model_substitute);
          if (quantized_) {
            (void)quantize_to_qdq(substitute);
          }
          return Profiler(opt).run(substitute);
        }
        if (variant.quantize) {
          Graph quantized = *graph_;
          (void)quantize_to_qdq(quantized);
          return Profiler(opt).run(quantized);
        }
        // `_mod`-substitute and quantize variants above profile rewritten
        // graphs whose structural fingerprints correctly diverge from the
        // incumbent's; only the unmodified-graph knob variants reuse its keys.
        return Profiler(opt).run(*graph_, keys_ ? &*keys_ : nullptr);
      }();
      return measurement_from(report, opt_.objective, opt_.power_budget_w);
    } catch (const Error& e) {
      // A variant the platform/backend cannot build is a rejected data
      // point, not a failed optimization.
      Measurement m;
      m.feasible = false;
      m.score = 0.0;
      m.note = e.what();
      return m;
    }
  }

  void on_accept(const Variant& variant) override {
    if (!variant.model_substitute.empty()) {
      model_id_ = variant.model_substitute;
      Graph substitute = models::build_model(model_id_);
      if (quantized_) {
        (void)quantize_to_qdq(substitute);
      }
      graph_ = std::make_shared<const Graph>(std::move(substitute));
      keys_.reset();  // the incumbent graph's structure changed
    }
    if (variant.quantize) {
      quantized_ = true;
      Graph quantized = *graph_;  // the incumbent may be shared (serve pool)
      (void)quantize_to_qdq(quantized);
      graph_ = std::make_shared<const Graph>(std::move(quantized));
      keys_.reset();
    }
    if (variant.batch) {
      options_.batch = *variant.batch;
    }
    if (variant.gpu_mhz) {
      options_.clocks.gpu_mhz = *variant.gpu_mhz;
    }
    if (variant.mem_mhz) {
      options_.clocks.mem_mhz = *variant.mem_mhz;
    }
    if (!variant.backend_id.empty()) {
      options_.backend_id = variant.backend_id;
    }
    report_.reset();  // the incumbent changed
  }

  [[nodiscard]] const std::string& model_id() const { return model_id_; }
  [[nodiscard]] bool quantized() const { return quantized_; }
  [[nodiscard]] const ProfileOptions& options() const { return options_; }

 private:
  std::string model_id_;  ///< empty when optimizing a raw graph
  /// Incumbent graph: read-only (possibly a serve-pool graph other requests
  /// share); accepted rewrites replace it.
  std::shared_ptr<const Graph> graph_;
  OptimizeOptions opt_;
  const hw::PlatformDesc& platform_;
  ProfileOptions options_;
  bool quantized_ = false;
  std::set<std::string> tried_;  ///< every id ever proposed (no re-proposal)
  std::optional<ProfileReport> report_;
  /// Memoized cache fingerprints of graph_ (reset whenever graph_ is
  /// rebuilt or rewritten).  NOT thread-safe to fill lazily from measure();
  /// propose() materializes it while the loop is still single-threaded.
  std::optional<GraphKeys> keys_;

  const GraphKeys* incumbent_keys() {
    if (!keys_) {
      keys_ = compute_graph_keys(*graph_);
    }
    return &*keys_;
  }
};

OptimizeResult run_optimize(std::string model_id,
                            std::shared_ptr<const Graph> graph,
                            std::optional<GraphKeys> keys,
                            const OptimizeOptions& options) {
  PROOF_CHECK(!options.base.platform_id.empty(), "platform_id is required");
  PROOF_CHECK(options.power_budget_w >= 0.0,
              "power budget must be non-negative");
  ProfilingVariantSource source(std::move(model_id), std::move(graph), keys,
                                options);

  OptimizeResult result;
  result.baseline_report = source.incumbent_report();

  GuardConfig guard;
  guard.noise_threshold = options.noise_threshold;
  guard.max_rounds = options.max_rounds;
  guard.objective = options.objective;
  guard.power_budget_w = options.power_budget_w;
  guard.round_hook = options.round_hook;
  result.log = run_guarded_loop(source, source.measure_incumbent(), guard);

  // Re-profiling the final configuration is a PrepCache hit — it was
  // measured when its variant was accepted.
  result.final_report = source.incumbent_report();
  result.final_options = source.options();
  result.final_model_id = source.model_id();
  result.final_quantized = source.quantized();
  return result;
}

void measurement_json(std::ostringstream& out, const Measurement& m) {
  out << "{\"feasible\":" << (m.feasible ? "true" : "false")
      << ",\"score\":" << m.score << ",\"latency_s\":" << m.latency_s
      << ",\"power_w\":" << m.power_w
      << ",\"throughput_per_s\":" << m.throughput_per_s
      << ",\"note\":" << json::quote(m.note) << "}";
}

void classification_json(std::ostringstream& out, const BottleneckReport& c) {
  out << "{\"kind\":" << json::quote(std::string(bottleneck_name(c.kind)))
      << ",\"compute_share\":" << c.compute_share
      << ",\"bandwidth_share\":" << c.bandwidth_share
      << ",\"reorder_share\":" << c.reorder_share
      << ",\"overhead_share\":" << c.overhead_share
      << ",\"dominant_layers\":[";
  for (size_t i = 0; i < c.dominant_layers.size(); ++i) {
    out << (i > 0 ? "," : "") << json::quote(c.dominant_layers[i]);
  }
  out << "]}";
}

}  // namespace

OptimizeResult optimize(const std::string& model_id,
                        const OptimizeOptions& options) {
  return run_optimize(
      model_id, std::make_shared<const Graph>(models::build_model(model_id)),
      std::nullopt, options);
}

OptimizeResult optimize(const std::string& model_id,
                        std::shared_ptr<const Graph> graph, const GraphKeys& keys,
                        const OptimizeOptions& options) {
  PROOF_CHECK(graph != nullptr, "optimize: null graph");
  return run_optimize(model_id, std::move(graph), keys, options);
}

OptimizeResult optimize_graph(const Graph& model,
                              const OptimizeOptions& options) {
  return run_optimize("", std::make_shared<const Graph>(model), std::nullopt,
                      options);
}

std::string optimization_section_json(const OptimizationLog& log) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"objective\":"
      << json::quote(std::string(objective_name(log.objective)))
      << ",\"noise_threshold\":" << log.noise_threshold
      << ",\"power_budget_w\":" << log.power_budget_w << ",\"baseline\":";
  measurement_json(out, log.baseline);
  out << ",\"rounds\":[";
  for (size_t r = 0; r < log.rounds.size(); ++r) {
    const RoundLog& round = log.rounds[r];
    out << (r > 0 ? "," : "") << "{\"classification\":";
    classification_json(out, round.classification);
    out << ",\"variants\":[";
    for (size_t i = 0; i < round.variants.size(); ++i) {
      const VariantResult& v = round.variants[i];
      out << (i > 0 ? "," : "") << "{\"id\":" << json::quote(v.variant.id)
          << ",\"axis\":" << json::quote(v.variant.axis)
          << ",\"description\":" << json::quote(v.variant.description)
          << ",\"accepted\":" << (v.accepted ? "true" : "false")
          << ",\"delta_pct\":" << v.delta_pct << ",\"measurement\":";
      measurement_json(out, v.measurement);
      out << "}";
    }
    out << "],\"accepted\":" << json::quote(round.accepted_id) << "}";
  }
  out << "],\"accepted_chain\":[";
  for (size_t i = 0; i < log.accepted_chain.size(); ++i) {
    out << (i > 0 ? "," : "") << json::quote(log.accepted_chain[i]);
  }
  out << "],\"final\":";
  measurement_json(out, log.final_best);
  out << ",\"rounds_run\":" << log.rounds.size()
      << ",\"variants_evaluated\":" << log.variants_evaluated
      << ",\"variants_accepted\":" << log.variants_accepted << "}";
  return out.str();
}

std::string optimization_text(const OptimizeResult& result) {
  const OptimizationLog& log = result.log;
  std::ostringstream out;
  out << "objective: " << objective_name(log.objective)
      << "  (noise threshold " << log.noise_threshold * 100.0 << "%";
  if (log.power_budget_w > 0.0) {
    out << ", power budget " << units::fixed(log.power_budget_w, 1) << " W";
  }
  out << ")\n";
  out << "baseline: score " << log.baseline.score << "  latency "
      << units::ms(log.baseline.latency_s) << "  power "
      << units::fixed(log.baseline.power_w, 1) << " W"
      << (log.baseline.feasible ? "" : "  [infeasible]") << "\n";

  for (size_t r = 0; r < log.rounds.size(); ++r) {
    const RoundLog& round = log.rounds[r];
    const BottleneckReport& c = round.classification;
    out << "\nround " << r + 1 << ": classified "
        << bottleneck_name(c.kind) << "-bound  (compute "
        << units::fixed(c.compute_share * 100.0, 1) << "%, bandwidth "
        << units::fixed(c.bandwidth_share * 100.0, 1) << "%, reorder "
        << units::fixed(c.reorder_share * 100.0, 1) << "%, launch overhead "
        << units::fixed(c.overhead_share * 100.0, 1) << "%)\n";
    report::TextTable table(
        {"axis", "variant", "delta", "latency", "power", "verdict"});
    for (const VariantResult& v : round.variants) {
      std::string verdict;
      if (v.accepted) {
        verdict = "ACCEPTED";
      } else if (!v.measurement.note.empty()) {
        verdict = "rejected: " + v.measurement.note;
      } else {
        verdict = "rejected";
      }
      table.add_row({v.variant.axis, v.variant.id,
                     units::fixed(v.delta_pct, 2) + "%",
                     units::ms(v.measurement.latency_s),
                     units::fixed(v.measurement.power_w, 1) + " W", verdict});
    }
    out << table.to_string();
  }

  out << "\naccepted chain:";
  if (log.accepted_chain.empty()) {
    out << " (none — baseline kept)";
  } else {
    for (const std::string& id : log.accepted_chain) {
      out << " -> " << id;
    }
  }
  out << "\nfinal: score " << log.final_best.score << "  latency "
      << units::ms(log.final_best.latency_s) << "  power "
      << units::fixed(log.final_best.power_w, 1) << " W";
  if (log.baseline.feasible && log.baseline.score > 0.0) {
    out << "  (" << units::fixed(log.baseline.score / log.final_best.score, 2)
        << "x objective improvement)";
  }
  out << "\n";
  return out.str();
}

}  // namespace proof::opt
