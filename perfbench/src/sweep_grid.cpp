// sweep-grid: alternating `proof sweep-decode` and `proof sweep` runs.
//
// One operation (a round) is one gpt2 decode grid on a100 — batches 1..128 x
// KV positions 64..8192 (64 cells plus 8 prefill points) — then one 12-point
// bert_base batch sweep (1..2048).  The seed draws the cells checked.  Each
// sweep starts from a cleared PrepCache, as a fresh CLI invocation would,
// and runs on the global thread pool (serial in perfbench).  Per sweep the
// structure phase misses once per distinct structure and every other cell
// takes the AnalysisPlan-hit path, so fusion, lowering and the mapping search
// are almost bypassed.
#include <algorithm>
#include <array>
#include <optional>
#include <tuple>
#include <sstream>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace proof;

namespace {

const std::vector<int64_t> kDecodeBatches = {1, 2, 4, 8, 16, 32, 64, 128};
const std::vector<int64_t> kPositions = {64,  128,  256,  512,
                                         1024, 2048, 4096, 8192};

DecodeSweepOptions decode_options() {
  DecodeSweepOptions opt;
  opt.config_id = "gpt2";
  opt.platform_id = "a100";
  opt.batches = kDecodeBatches;
  opt.positions = kPositions;
  return opt;
}

std::vector<int64_t> batch_candidates() {
  std::vector<int64_t> out;
  for (int64_t b = 1; b <= 2048; b *= 2) {
    out.push_back(b);
  }
  return out;
}

ProfileOptions cell_options(int64_t batch) {
  ProfileOptions opt;
  opt.platform_id = "a100";
  opt.dtype = DType::kF16;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;
  return opt;
}

/// Exact counters of one sweep, as deltas.
struct SweepCounts {
  uint64_t index_builds = 0;
  uint64_t engine_hits = 0;
  uint64_t engine_misses = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_collisions = 0;
  uint64_t evictions = 0;

  bool operator==(const SweepCounts&) const = default;
};

/// Runs `body` and returns the counters it moved.
template <typename F>
SweepCounts counted(F&& body) {
  PrepCache& cache = PrepCache::instance();
  const PrepCacheStats a = cache.stats();
  const uint64_t builds = obs_counter("graph.index.builds");
  body();
  const PrepCacheStats b = cache.stats();
  SweepCounts c;
  c.index_builds = obs_counter("graph.index.builds") - builds;
  c.engine_hits = b.engine_hits - a.engine_hits;
  c.engine_misses = b.engine_misses - a.engine_misses;
  c.plan_cache_hits = b.plan_cache_hits - a.plan_cache_hits;
  c.plan_cache_misses = b.plan_cache_misses - a.plan_cache_misses;
  c.plan_cache_collisions = b.plan_cache_collisions - a.plan_cache_collisions;
  c.evictions = b.evictions - a.evictions;
  return c;
}

void add_counts(WorkloadResult& result, const std::string& prefix,
                const SweepCounts& c) {
  result.counters.emplace_back(prefix + ".index_builds", c.index_builds);
  result.counters.emplace_back(prefix + ".engine_hits", c.engine_hits);
  result.counters.emplace_back(prefix + ".engine_misses", c.engine_misses);
  result.counters.emplace_back(prefix + ".plan_cache_hits", c.plan_cache_hits);
  result.counters.emplace_back(prefix + ".plan_cache_misses",
                               c.plan_cache_misses);
  result.counters.emplace_back(prefix + ".plan_cache_collisions",
                               c.plan_cache_collisions);
  result.counters.emplace_back(prefix + ".evictions", c.evictions);
}

std::string batch_sweep_dump(const BatchSweep& sweep) {
  std::ostringstream out;
  out.precision(17);
  for (const BatchPoint& p : sweep.points) {
    out << p.batch << " " << p.latency_s << " " << p.throughput_per_s << " "
        << p.attained_flops << "\n";
  }
  out << "optimal " << sweep.optimal_batch << "\n";
  return out.str();
}

struct Window {
  std::vector<Timed> rounds;  ///< both sweeps' time, at the decode sweep
  std::vector<double> decode_ms;
  std::vector<double> batch_ms;
  uint64_t points = 0;
};

}  // namespace

WorkloadResult run_sweep_grid(const RunConfig& config) {
  WorkloadResult result;
  Tracer& tracer = Tracer::instance();
  PrepCache& cache = PrepCache::instance();
  const models::LlmConfig& gpt2 = models::llm_config("gpt2");
  const std::vector<int64_t> candidates = batch_candidates();
  const size_t decode_points = kDecodeBatches.size() * kPositions.size() +
                               kDecodeBatches.size();

  // Set-up: registry initialisation and a small sweep of each kind, repeated
  // from a cleared cache; the median is reported.
  ReferenceClock clock;
  clock.sample();
  Setup setup;
  for (int rep = 0; rep < 9; ++rep) {
    cache.clear();
    setup.samples.push_back(timed([&] {
      DecodeSweepOptions small = decode_options();
      small.batches = {1, 2};
      small.positions = {64, 128};
      (void)sweep_decode(small);
      (void)sweep_batches(cell_options(1), models::build_model("bert_base"),
                          {1, 2});
    }));
    clock.sample();
  }

  // The decode golden, at its own grid (gpt2, a100/trt_sim, 2x2).
  {
    ++result.attempted;
    cache.clear();
    DecodeSweepOptions golden = decode_options();
    golden.backend_id = "trt_sim";
    golden.batches = {1, 4};
    golden.positions = {64, 256};
    const std::string want =
        read_file(config.root + "/tests/golden/decode_sweep_gpt2.json");
    if (want.empty() || decode_sweep_json(sweep_decode(golden)) != want) {
      result.fail("decode_sweep_json differs from tests/golden");
    }
  }

  // Seeded inputs: per round, the cells checked against a single
  // Profiler::run.  The hash covers the first 64 rounds' draws.
  Rng rng(config.seed);
  auto draw = [&](Rng& r) {
    const int64_t batch = kDecodeBatches[r.below(kDecodeBatches.size())];
    const int64_t position = kPositions[r.below(kPositions.size())];
    return std::tuple{batch, position, candidates[r.below(candidates.size())]};
  };
  {
    Rng preview = rng;
    for (int i = 0; i < 64; ++i) {
      const auto [b, p, bb] = draw(preview);
      result.inputs_hash =
          fnv1a(std::to_string(b) + "/" + std::to_string(p) + "/" +
                    std::to_string(bb),
                result.inputs_hash);
    }
  }
  std::optional<SweepCounts> decode_counts;
  std::optional<SweepCounts> batch_counts;
  std::string decode_output;
  std::string batch_output;
  uint64_t op = 0;

  // Per-layer accumulators (traced runs).
  SweepCounts traced_counts;
  uint64_t traced_rounds = 0;
  double layers_sum = 0.0;
  double coverage_sum = 0.0;
  double io_search_layers = 0.0;
  uint64_t checked_cells = 0;

  auto run_window = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Window window;
    const double end = now_s() + seconds;
    while (now_s() < end) {
      clock.maybe_sample();
      ++op;
      ++result.attempted;
      const auto [check_batch, check_position, check_bert] = draw(rng);

      std::optional<DecodeSweep> decode;
      std::optional<BatchSweep> batch;
      std::optional<Graph> bert;
      Timed decode_t;
      Timed batch_t;
      SweepCounts dc;
      SweepCounts bc;
      try {
        Span op_span("op.sweep_round", op);
        cache.clear();
        decode_t = timed([&] {
          dc = counted([&] {
            Span span("sweep.decode_grid", op);
            decode.emplace(sweep_decode(decode_options()));
          });
        });
        cache.clear();
        batch_t = timed([&] {
          bc = counted([&] {
            Span span("sweep.batch_sweep", op);
            {
              Span build("models.build", op);
              bert.emplace(models::build_model("bert_base"));
            }
            batch.emplace(sweep_batches(cell_options(1), *bert, candidates));
          });
        });
      } catch (const std::exception& e) {
        result.fail(std::string("sweep: ") + e.what());
        continue;
      }
      window.decode_ms.push_back(decode_t.wall_ms);
      window.batch_ms.push_back(batch_t.wall_ms);
      window.rounds.push_back(
          {decode_t.at_ns, decode_t.wall_ms + batch_t.wall_ms});
      window.points += decode_points + candidates.size();

      // Exact counters and outputs must repeat from round to round.
      if (!decode_counts) {
        decode_counts = dc;
        batch_counts = bc;
      } else if (!(*decode_counts == dc) || !(*batch_counts == bc)) {
        result.fail("sweep exact counters differ between rounds");
        continue;
      }
      const std::string decode_json = decode_sweep_json(*decode);
      const std::string batch_dump = batch_sweep_dump(*batch);
      if (decode_output.empty()) {
        decode_output = decode_json;
        batch_output = batch_dump;
      } else if (decode_json != decode_output || batch_dump != batch_output) {
        result.fail("sweep output differs between rounds");
        continue;
      }

      // Sampled cells against a single Profiler::run at that cell.
      try {
        const Graph step = models::build_llm_decode_step(gpt2, check_position);
        const ProfileOptions dopt = cell_options(check_batch);
        std::optional<ProfileReport> r;
        {
          Span span("core.profiler_run_hit", op);
          r.emplace(Profiler(dopt).run(step));
        }
        const size_t idx =
            static_cast<size_t>(std::find(kDecodeBatches.begin(),
                                          kDecodeBatches.end(), check_batch) -
                                kDecodeBatches.begin()) *
                kPositions.size() +
            static_cast<size_t>(std::find(kPositions.begin(), kPositions.end(),
                                          check_position) -
                                kPositions.begin());
        const DecodePoint& point = decode->points[idx];
        if (point.latency_s != r->total_latency_s ||
            point.flops != r->roofline.end_to_end.flops ||
            point.bytes != r->roofline.end_to_end.bytes) {
          result.fail("decode cell b" + std::to_string(check_batch) + " p" +
                      std::to_string(check_position) +
                      " differs from Profiler::run");
          continue;
        }
        const ProfileOptions bopt = cell_options(check_bert);
        const ProfileReport br = Profiler(bopt).run(*bert);
        const BatchPoint& bp = batch->points[static_cast<size_t>(
            std::find(candidates.begin(), candidates.end(), check_bert) -
            candidates.begin())];
        if (bp.latency_s != br.total_latency_s ||
            bp.throughput_per_s != br.throughput_per_s() ||
            bp.attained_flops != br.roofline.end_to_end.attained_flops()) {
          result.fail("bert_base batch " + std::to_string(check_bert) +
                      " differs from Profiler::run");
          continue;
        }

        if (traced) {
          ++traced_rounds;
          for (const ProfileReport* rep : {static_cast<const ProfileReport*>(&*r), &br}) {
            ++checked_cells;
            layers_sum += static_cast<double>(rep->layers.size());
            coverage_sum += rep->mapping_coverage;
            for (const LayerReport& layer : rep->layers) {
              io_search_layers +=
                  layer.method == mapping::MapMethod::kIoSearch ? 1.0 : 0.0;
            }
          }
          for (const SweepCounts* c : {&dc, &bc}) {
            traced_counts.index_builds += c->index_builds;
            traced_counts.engine_hits += c->engine_hits;
            traced_counts.engine_misses += c->engine_misses;
            traced_counts.plan_cache_hits += c->plan_cache_hits;
            traced_counts.plan_cache_misses += c->plan_cache_misses;
            traced_counts.evictions += c->evictions;
          }
          // Decompose the batch sweep's one structure miss, then the
          // plan-hit path of the two sampled cells.
          const MissReplay miss = replay_miss(*bert, cell_options(1), op);
          const std::string diff =
              compare_replay(miss, Profiler(cell_options(1)).run(*bert));
          if (!diff.empty()) {
            result.fail("decomposition: " + diff);
            continue;
          }
          const AnalysisPlan bert_plan = freeze_plan(miss);
          if (replay_instantiate(bert_plan, *bert, bopt, op).total_latency_s !=
              br.total_latency_s) {
            result.fail("instantiated bert_base cell differs from Profiler::run");
            continue;
          }
          const Graph first_step =
              models::build_llm_decode_step(gpt2, kPositions.front());
          const AnalysisPlan step_plan =
              freeze_plan(replay_miss(first_step, cell_options(1), op));
          if (replay_instantiate(step_plan, step, dopt, op).total_latency_s !=
              r->total_latency_s) {
            result.fail("instantiated decode cell differs from Profiler::run");
            continue;
          }
        }
      } catch (const std::exception& e) {
        result.fail(std::string("cell check: ") + e.what());
        continue;
      }
    }
    tracer.set_enabled(false);
    clock.sample();
    return window;
  };

  std::ostringstream detail;
  if (!config.trace) {
    const Window window = run_window(config.seconds, false);
    add_end_to_end(result,
                   {"sweep round (decode grid + batch sweep)", window.rounds,
                    static_cast<double>(window.points), window.rounds},
                   setup, clock);
    detail << ",\"decode_grid_p50_ms\":" << median(window.decode_ms)
           << ",\"batch_sweep_p50_ms\":" << median(window.batch_ms)
           << ",\"sweep_points\":" << window.points;
  } else {
    const Window plain = run_window(config.seconds / 3.0, false);
    const Window traced = run_window(config.seconds * 2.0 / 3.0, true);
    const double rounds = static_cast<double>(std::max<uint64_t>(traced_rounds, 1));
    const double cells = static_cast<double>(std::max<uint64_t>(checked_cells, 1));
    add_per_layer(
        result,
        {{"graph.index_builds",
          static_cast<double>(traced_counts.index_builds) / rounds},
         {"backends.layers", layers_sum / cells},
         {"mapping.coverage", coverage_sum / cells},
         {"mapping.io_search_share", io_search_layers / std::max(layers_sum, 1.0)},
         {"core.plan_cache.hit_ratio",
          hit_ratio(traced_counts.plan_cache_hits, traced_counts.plan_cache_misses)},
         {"core.prep_cache.engine_hit_ratio",
          hit_ratio(traced_counts.engine_hits, traced_counts.engine_misses)},
         {"core.prep_cache.evictions",
          static_cast<double>(traced_counts.evictions)},
         {"core.assemble_ms",
          tracer.mean_ms("core.profiler_run_hit") -
              tracer.mean_ms("hw.engine_profile")},
         // Sweeps render no full reports.
         {"core.render_ms", 0.0},
         {"obs.trace_overhead_ratio",
          median(wall_ms(traced.rounds)) /
                  std::max(median(wall_ms(plain.rounds)), 1e-9) -
              1.0}});
    detail << ",\"decode_grid_p50_ms\":" << median(traced.decode_ms)
           << ",\"batch_sweep_p50_ms\":" << median(traced.batch_ms);
  }
  if (decode_counts) {
    add_counts(result, "decode_grid", *decode_counts);
    add_counts(result, "batch_sweep", *batch_counts);
  }
  result.detail += detail.str();
  return result;
}

}  // namespace perfbench
