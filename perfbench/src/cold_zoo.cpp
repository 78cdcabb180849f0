// cold-zoo: a fresh `proof profile --json` per model, over the whole zoo.
//
// One operation is models::build_model + Profiler::run + report_to_json on a
// cleared PrepCache (the clear is not timed), so every cache level misses
// and the time goes to model build, graph indexing, fusion/lowering,
// analysis and the mapping search.  The zoo is the 20 Table-3 models plus
// bert_base, gpt2_decode and llama7b_prefill, each under the three simulated
// runtimes on a100 fp16 (batch 4; 2 for sd_unet, as the goldens use).  Each
// pass over the 69 cells runs in an order drawn from the seed.
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace proof;

namespace {

struct Cell {
  std::string model;
  std::string backend;
  int64_t batch = 4;
};

std::vector<Cell> zoo_cells() {
  std::vector<std::string> models;
  for (const models::ModelSpec& spec : models::model_zoo()) {
    models.push_back(spec.id);
  }
  for (const char* extra : {"bert_base", "gpt2_decode", "llama7b_prefill"}) {
    models.emplace_back(extra);
  }
  std::vector<Cell> cells;
  for (const std::string& model : models) {
    for (const char* backend : {"trt_sim", "ov_sim", "ort_sim"}) {
      cells.push_back({model, backend, model == "sd_unet" ? 2 : 4});
    }
  }
  return cells;
}

ProfileOptions options_for(const Cell& cell) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.backend_id = cell.backend;
  opt.dtype = DType::kF16;
  opt.batch = cell.batch;
  opt.mode = MetricMode::kPredicted;
  return opt;
}

std::string cell_key(const Cell& cell) {
  return cell.model + "/" + cell.backend;
}

/// Exact per-cell counters of one cold profile.
struct CellCounts {
  uint64_t index_builds = 0;
  uint64_t layers = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_collisions = 0;
  std::array<uint64_t, 6> methods{};  ///< per mapping::MapMethod

  bool operator==(const CellCounts&) const = default;
};

/// Samples of one window.  Only whole passes count, so every cell weighs
/// the same whatever the window length; a window too short for one pass
/// keeps its partial pass.
struct Window {
  std::vector<Timed> ops;
  std::vector<Timed> pass;  ///< the pass in progress

  void commit_pass() {
    ops.insert(ops.end(), pass.begin(), pass.end());
    pass.clear();
  }
};

}  // namespace

WorkloadResult run_cold_zoo(const RunConfig& config) {
  WorkloadResult result;
  Tracer& tracer = Tracer::instance();
  PrepCache& cache = PrepCache::instance();
  const std::vector<Cell> cells = zoo_cells();

  // Goldens the trt_sim reports of four models must equal byte for byte.
  std::map<std::string, std::string> goldens;
  for (const char* model : {"resnet50", "bert_base", "sd_unet",
                            "shufflenetv2_10"}) {
    goldens[std::string(model) + "/trt_sim"] =
        read_file(config.root + "/tests/golden/" + model + ".json");
  }

  // Set-up: registry initialisation, then a warm-up cold profile per
  // runtime; repeated, and the median reported.
  ReferenceClock clock;
  clock.sample();
  Setup setup;
  for (int rep = 0; rep < 9; ++rep) {
    setup.samples.push_back(timed([&] {
      for (const char* backend : {"trt_sim", "ov_sim", "ort_sim"}) {
        cache.clear();
        const Cell cell{"resnet50", backend, 4};
        const ProfileReport r =
            Profiler(options_for(cell)).run(models::build_model(cell.model));
        (void)report_to_json(r);
      }
    }));
    clock.sample();
  }

  std::map<std::string, CellCounts> counts;     // first pass of each cell
  std::map<std::string, uint64_t> output_hash;  // first output of each cell
  Rng rng(config.seed);
  std::vector<size_t> order;
  size_t next = 0;
  uint64_t op = 0;

  // Per-layer accumulators (traced runs).
  double layers_sum = 0.0;
  double coverage_sum = 0.0;
  double io_search_layers = 0.0;
  double report_kb_sum = 0.0;
  double unattributed_ms = 0.0;
  uint64_t index_builds = 0;
  uint64_t profiled = 0;
  PrepCacheStats traced_stats;  // summed over traced cold profiles

  // One window: cold profiles until `seconds` have passed.  With `traced`,
  // every profile is followed by an engine-hit rerun and a stage-by-stage
  // replay of the miss path (neither is part of the timed operation).
  auto run_window = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Window window;
    const double end = now_s() + seconds;
    while (now_s() < end) {
      clock.maybe_sample();
      if (next == order.size()) {
        window.commit_pass();
        order.resize(cells.size());
        for (size_t i = 0; i < order.size(); ++i) {
          order[i] = i;
        }
        shuffle(order, rng);
        if (op == 0) {  // the hash covers the first pass's order
          for (const size_t i : order) {
            result.inputs_hash = fnv1a(cell_key(cells[i]), result.inputs_hash);
          }
        }
        next = 0;
      }
      const Cell& cell = cells[order[next++]];
      const std::string key = cell_key(cell);
      const ProfileOptions opt = options_for(cell);
      ++op;
      ++result.attempted;
      cache.clear();

      const PrepCacheStats before = cache.stats();
      const uint64_t builds0 = obs_counter("graph.index.builds");
      std::string json;
      std::optional<Graph> model;
      std::optional<ProfileReport> report;
      uint64_t run_start = 0;
      uint64_t run_end = 0;
      const uint64_t t0 = now_ns();
      try {
        Span op_span("op.cold_profile", op);
        {
          Span span("models.build", op);
          model.emplace(models::build_model(cell.model));
        }
        run_start = now_ns();
        {
          Span span("core.profiler_run", op);
          report.emplace(Profiler(opt).run(*model));
        }
        run_end = now_ns();
        {
          Span span("core.render", op);
          json = report_to_json(*report);
        }
      } catch (const std::exception& e) {
        result.fail(key + ": " + e.what());
        continue;
      }
      const uint64_t t1 = now_ns();
      window.pass.push_back(
          {t0 + (t1 - t0) / 2, static_cast<double>(t1 - t0) / 1e6});

      // Counters of this profile alone (nothing else runs in the process).
      const PrepCacheStats after = cache.stats();
      CellCounts c;
      c.index_builds = obs_counter("graph.index.builds") - builds0;
      c.layers = report->layers.size();
      c.plan_cache_misses = after.plan_cache_misses - before.plan_cache_misses;
      c.plan_cache_collisions =
          after.plan_cache_collisions - before.plan_cache_collisions;
      for (const LayerReport& layer : report->layers) {
        ++c.methods[static_cast<size_t>(layer.method)];
      }
      const auto [it, first] = counts.emplace(key, c);
      if (!first && !(it->second == c)) {
        result.fail(key + ": exact counters differ between passes");
        continue;
      }

      // Output checks: goldens, and every repeat equal to the first output.
      const std::string normalized = zero_wall_clock(json);
      if (const auto golden = goldens.find(key); golden != goldens.end() &&
                                                 normalized != golden->second) {
        result.fail(key + ": report differs from tests/golden");
        continue;
      }
      const uint64_t h = fnv1a(normalized);
      if (const auto [hit, fresh] = output_hash.emplace(key, h);
          !fresh && hit->second != h) {
        result.fail(key + ": report differs from its first run");
        continue;
      }
      if (report->layers.empty() || !(report->total_latency_s > 0.0) ||
          !std::isfinite(report->total_latency_s)) {
        result.fail(key + ": empty or non-positive report");
        continue;
      }

      if (traced) {
        ++profiled;
        traced_stats.engine_hits += after.engine_hits - before.engine_hits;
        traced_stats.engine_misses += after.engine_misses - before.engine_misses;
        traced_stats.plan_cache_hits +=
            after.plan_cache_hits - before.plan_cache_hits;
        traced_stats.plan_cache_misses +=
            after.plan_cache_misses - before.plan_cache_misses;
        traced_stats.evictions += after.evictions - before.evictions;
        index_builds += c.index_builds;
        layers_sum += static_cast<double>(c.layers);
        coverage_sum += report->mapping_coverage;
        io_search_layers += static_cast<double>(
            c.methods[static_cast<size_t>(mapping::MapMethod::kIoSearch)]);
        report_kb_sum += static_cast<double>(json.size()) / 1024.0;
        {
          Span span("core.profiler_run_hit", op);
          (void)Profiler(opt).run(*model);
        }
        const MissReplay replay = replay_miss(*model, opt, op);
        const std::string diff = compare_replay(replay, *report);
        if (!diff.empty()) {
          result.fail("decomposition: " + diff);
          continue;
        }
        unattributed_ms +=
            static_cast<double>(run_end - run_start) / 1e6 - replay.stages_ms;
      }
    }
    tracer.set_enabled(false);
    clock.sample();
    if (next == order.size() || window.ops.empty()) {
      window.commit_pass();
    }
    return window;
  };

  if (!config.trace) {
    const Window window = run_window(config.seconds, false);
    add_end_to_end(result,
                   {"cold profile", window.ops,
                    static_cast<double>(window.ops.size()), window.ops},
                   setup, clock);
  } else {
    // A third of the window untraced, the rest traced: the difference in
    // median operation time is the tracing overhead.
    const Window plain = run_window(config.seconds / 3.0, false);
    const Window traced = run_window(config.seconds * 2.0 / 3.0, true);
    const double n = static_cast<double>(std::max<uint64_t>(profiled, 1));
    add_per_layer(
        result,
        {{"graph.index_builds", static_cast<double>(index_builds) / n},
         {"backends.layers", layers_sum / n},
         {"mapping.coverage", coverage_sum / n},
         {"mapping.io_search_share", io_search_layers / std::max(layers_sum, 1.0)},
         {"core.plan_cache.hit_ratio",
          hit_ratio(traced_stats.plan_cache_hits, traced_stats.plan_cache_misses)},
         {"core.prep_cache.engine_hit_ratio",
          hit_ratio(traced_stats.engine_hits, traced_stats.engine_misses)},
         {"core.prep_cache.evictions",
          static_cast<double>(traced_stats.evictions)},
         {"core.assemble_ms",
          tracer.mean_ms("core.profiler_run_hit") -
              tracer.mean_ms("hw.engine_profile")},
         {"core.report_kb", report_kb_sum / n},
         {"core.unattributed_ms", unattributed_ms / n},
         {"obs.trace_overhead_ratio",
          median(wall_ms(traced.ops)) /
                  std::max(median(wall_ms(plain.ops)), 1e-9) -
              1.0}});
  }

  for (const auto& [key, c] : counts) {
    result.counters.emplace_back(key + ".index_builds", c.index_builds);
    result.counters.emplace_back(key + ".layers", c.layers);
    result.counters.emplace_back(key + ".plan_cache_misses",
                                 c.plan_cache_misses);
    result.counters.emplace_back(key + ".plan_cache_collisions",
                                 c.plan_cache_collisions);
    for (size_t m = 0; m < c.methods.size(); ++m) {
      if (c.methods[m] != 0) {
        result.counters.emplace_back(
            key + ".map." +
                std::string(mapping::map_method_name(
                    static_cast<mapping::MapMethod>(m))),
            c.methods[m]);
      }
    }
  }
  std::ostringstream detail;
  detail << "\"cells\":" << cells.size() << ",\"cells_seen\":" << counts.size()
         << ",\"passes_started\":"
         << (op + cells.size() - 1) / std::max<size_t>(cells.size(), 1);
  result.detail += "," + detail.str();
  return result;
}

}  // namespace perfbench
