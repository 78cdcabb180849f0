// serve-mix: an in-process `proof serve` daemon under a seeded request mix.
//
// A serve::Server listens on a unix socket with resnet50, shufflenetv2_10,
// bert_base, vit_base and gpt2_decode preloaded.  Two closed-loop clients
// (callers that wait for each reply, like `proof client` or an optimizer
// loop) each hold one connection and send, in an order drawn from the seed:
//   ~60% profile of a key warmed at set-up     (engine hit),
//   ~25% analyze of such a key                 (full report, large frame),
//   ~15% profile at a batch not used yet       (engine miss, plan hit; the
//        PrepCache fills and reaches FIFO eviction past its 512 cap).
// Keys are (model, platform, batch) over a100, orin_nx16 and xeon6330.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "replay.hpp"

namespace perfbench {

using namespace proof;

namespace {

const std::vector<std::string> kModels = {"resnet50", "shufflenetv2_10",
                                          "bert_base", "vit_base",
                                          "gpt2_decode"};
const std::vector<std::string> kPlatforms = {"a100", "orin_nx16", "xeon6330"};
const std::vector<int64_t> kWarmBatches = {1, 8};
constexpr int kClients = 2;
/// Requests generated per client; more than any window can send.
constexpr size_t kSequenceLength = 200'000;

enum class Kind : uint8_t { kProfileHit, kAnalyze, kProfileFresh };

struct Request {
  Kind kind = Kind::kProfileHit;
  uint16_t pair = 0;  ///< index into (model, platform) pairs
  int64_t batch = 1;
};

struct Pair {
  std::string model;
  std::string platform;
};

std::vector<Pair> pairs() {
  std::vector<Pair> out;
  for (const std::string& model : kModels) {
    for (const std::string& platform : kPlatforms) {
      out.push_back({model, platform});
    }
  }
  return out;
}

/// Mirrors the daemon's option defaults: fp16 where supported, predicted.
ProfileOptions request_options(const Pair& pair, int64_t batch) {
  ProfileOptions opt;
  opt.platform_id = pair.platform;
  const hw::PlatformDesc& desc = hw::PlatformRegistry::instance().get(pair.platform);
  opt.dtype = desc.supports(DType::kF16) ? DType::kF16 : DType::kF32;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;
  return opt;
}

std::string request_json(int64_t id, const Request& r, const Pair& pair) {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"method\":\""
      << (r.kind == Kind::kAnalyze ? "analyze" : "profile")
      << "\",\"params\":{\"model\":\"" << pair.model << "\",\"platform\":\""
      << pair.platform << "\",\"batch\":" << r.batch << "}}";
  return out.str();
}

/// The seeded request sequence of one client.  Fresh batches start above
/// every warm batch and are disjoint between clients (parity), so each is
/// new to the run.
std::vector<Request> client_sequence(uint64_t seed, int client,
                                     size_t n_pairs) {
  Rng rng(seed * 0x100000001b3ULL + static_cast<uint64_t>(client) + 1);
  std::vector<int64_t> next_fresh(n_pairs, 16 + client);
  std::vector<Request> out(kSequenceLength);
  for (Request& r : out) {
    const uint64_t roll = rng.below(100);
    r.pair = static_cast<uint16_t>(rng.below(n_pairs));
    if (roll < 60) {
      r.kind = Kind::kProfileHit;
      r.batch = kWarmBatches[rng.below(kWarmBatches.size())];
    } else if (roll < 85) {
      r.kind = Kind::kAnalyze;
      r.batch = kWarmBatches[rng.below(kWarmBatches.size())];
    } else {
      r.kind = Kind::kProfileFresh;
      r.batch = next_fresh[r.pair];
      next_fresh[r.pair] += kClients;
    }
  }
  return out;
}

/// What a warm key must answer: the zeroed analyze document and the
/// profile reply's latency and layer count.
struct Expected {
  std::string analyze;
  double total_latency_s = 0.0;
  size_t layers = 0;
};

struct ClientStats {
  std::vector<Timed> latency;  ///< client round trips
  uint64_t attempted = 0;
  uint64_t exhausted = 0;
  std::vector<std::string> failures;
  uint64_t failed = 0;
  // Traced runs.
  double overhead_ms = 0.0;
  uint64_t overhead_samples = 0;
  double report_kb = 0.0;
  uint64_t reports = 0;
  double layers = 0.0;
  double coverage = 0.0;
  double io_search = 0.0;
  uint64_t profiled = 0;

  void fail(const std::string& message) {
    ++failed;
    if (failures.size() < 4) {
      failures.push_back(message);
    }
  }
};

struct SetupCounts {
  uint64_t index_builds = 0;
  uint64_t engine_misses = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t plan_cache_hits = 0;
};

/// Lets the main thread park the clients between requests, to sample the
/// reference kernel on the CPU they share, and to end the window.
class Gate {
 public:
  explicit Gate(int clients) : active_(clients) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Client side, before each request: waits while the gate is paused.
  /// Returns false once the window has ended.
  bool pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (paused_) {
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !paused_; });
      --parked_;
    }
    return !ended_;
  }
  /// Client side, when it stops sending.
  void leave() {
    const std::lock_guard<std::mutex> lock(mu_);
    --active_;
    cv_.notify_all();
  }
  /// Returns once every active client is parked between requests.
  void pause() {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    cv_.wait(lock, [this] { return parked_ == active_; });
  }
  /// Lets the clients go on, or, with `end`, stop.
  void resume(bool end) {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    ended_ = end;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int active_ = 0;
  int parked_ = 0;
  bool paused_ = false;
  bool ended_ = false;
};

struct Shared {
  const std::vector<Pair>* pairs = nullptr;
  const std::map<std::pair<uint16_t, int64_t>, Expected>* expected = nullptr;
  const std::vector<AnalysisPlan>* plans = nullptr;  ///< per pair, traced only
  serve::Server* server = nullptr;
};

/// One closed-loop client: sends its sequence from `*cursor` until the gate
/// ends the window.
void client_loop(const Shared& shared, const std::vector<Request>& sequence,
                 size_t* cursor, Gate* gate, bool traced, int client,
                 ClientStats* stats) {
  struct Leave {
    Gate* gate;
    ~Leave() { gate->leave(); }
  } leave{gate};
  try {
    net::Socket socket = net::connect(shared.server->endpoint());
    while (gate->pass()) {
      if (*cursor == sequence.size()) {
        ++stats->exhausted;
        break;
      }
      const Request& r = sequence[(*cursor)++];
      const Pair& pair = (*shared.pairs)[r.pair];
      const auto id = static_cast<int64_t>(*cursor);
      const uint64_t op = (static_cast<uint64_t>(client) << 32) | *cursor;
      ++stats->attempted;

      serve::Response response;
      const uint64_t t0 = now_ns();
      {
        Span span("serve.round_trip", op);
        serve::write_frame(socket, request_json(id, r, pair));
        std::optional<std::string> frame = serve::read_frame(socket);
        if (!frame) {
          throw net::IoError("server closed the connection");
        }
        Span parse(r.kind == Kind::kAnalyze ? "support.json_parse"
                                            : "support.json_parse_small",
                   op);
        response = serve::parse_response(*frame);
      }
      const uint64_t t1 = now_ns();
      const double rt_ms = static_cast<double>(t1 - t0) / 1e6;
      stats->latency.push_back({t0 + (t1 - t0) / 2, rt_ms});
      if (!response.is_result() || response.id != id) {
        stats->fail(pair.model + ": error " + std::to_string(response.error_code) +
                    " " + response.error_message);
        continue;
      }

      // Output checks.
      const ProfileOptions opt = request_options(pair, r.batch);
      if (r.kind == Kind::kAnalyze) {
        const Expected& want = shared.expected->at({r.pair, r.batch});
        if (zero_wall_clock(response.payload) != want.analyze) {
          stats->fail(pair.model + "/" + pair.platform +
                      ": analyze reply differs from report_to_json");
          continue;
        }
      } else {
        const json::Value reply = json::parse(response.payload);
        if (reply.get_int("batch") != r.batch || reply.get_int("layers") <= 0 ||
            !(reply.get_double("total_latency_s") > 0.0)) {
          stats->fail(pair.model + ": malformed profile reply");
          continue;
        }
        if (r.kind == Kind::kProfileHit) {
          const Expected& want = shared.expected->at({r.pair, r.batch});
          // The reply prints 12 significant digits.
          if (std::abs(reply.get_double("total_latency_s") -
                       want.total_latency_s) > 1e-10 * want.total_latency_s ||
              static_cast<size_t>(reply.get_int("layers")) != want.layers) {
            stats->fail(pair.model + "/" + pair.platform +
                        ": profile reply differs from Profiler::run");
            continue;
          }
        }
      }

      if (!traced) {
        continue;
      }
      // In-process execution of the same request through the public API;
      // the round trip minus it is the daemon's overhead.
      const std::shared_ptr<const Graph> model =
          shared.server->models().get(pair.model);
      const uint64_t e0 = now_ns();
      std::optional<ProfileReport> report;
      {
        Span span("core.profiler_run_hit", op);
        report.emplace(Profiler(opt).run(*model));
      }
      if (r.kind == Kind::kAnalyze) {
        Span span("core.render", op);
        const std::string doc = report_to_json(*report);
        stats->report_kb += static_cast<double>(doc.size()) / 1024.0;
        ++stats->reports;
      }
      // A fresh batch cost the daemon an instantiation that the in-process
      // rerun (an engine hit by now) does not repeat; only warm keys count.
      if (r.kind != Kind::kProfileFresh) {
        stats->overhead_ms += rt_ms - static_cast<double>(now_ns() - e0) / 1e6;
        ++stats->overhead_samples;
      }
      ++stats->profiled;
      stats->layers += static_cast<double>(report->layers.size());
      stats->coverage += report->mapping_coverage;
      for (const LayerReport& layer : report->layers) {
        stats->io_search +=
            layer.method == mapping::MapMethod::kIoSearch ? 1.0 : 0.0;
      }
      // The latency simulation alone, on the engine the daemon prepared;
      // and for fresh batches the plan-hit instantiation, stage by stage.
      if (r.kind == Kind::kProfileFresh) {
        if (replay_instantiate((*shared.plans)[r.pair], *model, opt, op)
                .total_latency_s != report->total_latency_s) {
          stats->fail(pair.model + ": instantiated cell differs from Profiler::run");
        }
      } else {
        const hw::PlatformDesc& platform =
            hw::PlatformRegistry::instance().get(pair.platform);
        const std::string backend_id = platform.runtime;
        backends::BuildConfig config;
        config.dtype = opt.dtype;
        config.batch = opt.batch;
        const auto prep = PrepCache::instance().get_or_prepare(
            *model,
            backends::BackendRegistry::instance().get(backend_id), platform,
            config);
        Span span("hw.engine_profile", op);
        (void)prep->engine.profile(hw::PlatformState(platform, opt.clocks),
                                   opt.iterations);
      }
    }
  } catch (const std::exception& e) {
    stats->fail(std::string("client: ") + e.what());
  }
}

}  // namespace

WorkloadResult run_serve_mix(const RunConfig& config) {
  WorkloadResult result;
  Tracer& tracer = Tracer::instance();
  PrepCache& cache = PrepCache::instance();
  const std::vector<Pair> all_pairs = pairs();

  // Set-up: server construction + start() with preload, then one profile of
  // every warm key (engine misses).  Repeated from a cleared cache; the
  // median is reported and the last server serves the run.
  ReferenceClock clock;
  clock.sample();
  Setup setup;
  std::unique_ptr<serve::Server> server;
  SetupCounts setup_counts;
  // Relative to the working directory: unix socket paths are short.
  const std::string socket_path =
      "unix:" +
      std::filesystem::relative(config.out_dir).string() + "/serve-" +
      std::to_string(getpid()) + ".sock";
  for (int rep = 0; rep < 9; ++rep) {
    if (server) {
      server->stop();
      server.reset();
    }
    cache.clear();
    const PrepCacheStats a = cache.stats();
    const uint64_t builds = obs_counter("graph.index.builds");
    const uint64_t t0 = now_ns();
    serve::ServerOptions options;
    options.listen = socket_path;
    options.preload = kModels;
    server = std::make_unique<serve::Server>(options);
    server->start();
    net::Socket socket = net::connect(server->endpoint());
    int64_t id = 0;
    for (size_t p = 0; p < all_pairs.size(); ++p) {
      for (const int64_t batch : kWarmBatches) {
        Request r;
        r.pair = static_cast<uint16_t>(p);
        r.batch = batch;
        serve::write_frame(socket, request_json(++id, r, all_pairs[p]));
        const std::optional<std::string> frame = serve::read_frame(socket);
        if (!frame || !serve::parse_response(*frame).is_result()) {
          throw Error("warm-up request failed for " + all_pairs[p].model);
        }
      }
    }
    const uint64_t t1 = now_ns();
    setup.samples.push_back(
        {t0 + (t1 - t0) / 2, static_cast<double>(t1 - t0) / 1e6});
    clock.sample();
    const PrepCacheStats b = cache.stats();
    setup_counts = {obs_counter("graph.index.builds") - builds,
                    b.engine_misses - a.engine_misses,
                    b.plan_cache_misses - a.plan_cache_misses,
                    b.plan_cache_hits - a.plan_cache_hits};
  }

  // Expected answers of the warm keys, in process (engine hits).
  std::map<std::pair<uint16_t, int64_t>, Expected> expected;
  for (size_t p = 0; p < all_pairs.size(); ++p) {
    for (const int64_t batch : kWarmBatches) {
      const ProfileReport report =
          Profiler(request_options(all_pairs[p], batch))
              .run(*server->models().get(all_pairs[p].model));
      expected[{static_cast<uint16_t>(p), batch}] = {
          zero_wall_clock(report_to_json(report)), report.total_latency_s,
          report.layers.size()};
    }
  }

  // Seeded request sequences.
  std::vector<std::vector<Request>> sequences;
  for (int c = 0; c < kClients; ++c) {
    sequences.push_back(client_sequence(config.seed, c, all_pairs.size()));
    for (const Request& r : sequences.back()) {
      result.inputs_hash =
          fnv1a(std::to_string(static_cast<int>(r.kind)) + "/" +
                    std::to_string(r.pair) + "/" + std::to_string(r.batch),
                result.inputs_hash);
    }
  }
  std::vector<size_t> cursors(kClients, 0);

  // Frozen plans per pair for the traced instantiation replay (built with
  // tracing off: the daemon's structure phase ran at set-up).
  std::vector<AnalysisPlan> plans;
  if (config.trace) {
    for (const Pair& pair : all_pairs) {
      plans.push_back(freeze_plan(replay_miss(
          *server->models().get(pair.model), request_options(pair, 1), 0)));
    }
  }

  Shared shared;
  shared.pairs = &all_pairs;
  shared.expected = &expected;
  shared.plans = &plans;
  shared.server = server.get();

  // The window runs in slices of about 250 ms.  Between slices the clients
  // park between requests while the reference kernel runs.
  constexpr auto kSlice = std::chrono::milliseconds(250);
  struct Window {
    std::vector<ClientStats> clients;
    std::vector<Timed> slices;
    PrepCacheStats cache_delta;
    uint64_t index_builds = 0;
  };
  auto run_window = [&](double seconds, bool traced) {
    tracer.set_enabled(traced);
    Window window;
    window.clients.resize(kClients);
    const PrepCacheStats a = cache.stats();
    const uint64_t builds = obs_counter("graph.index.builds");
    const uint64_t end =
        now_ns() + static_cast<uint64_t>(std::max(seconds, 0.0) * 1e9);
    Gate gate(kClients);
    std::vector<std::thread> threads;
    uint64_t slice_start = now_ns();
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, std::cref(shared),
                           std::cref(sequences[static_cast<size_t>(c)]),
                           &cursors[static_cast<size_t>(c)], &gate, traced, c,
                           &window.clients[static_cast<size_t>(c)]);
    }
    for (;;) {
      std::this_thread::sleep_for(kSlice);
      gate.pause();
      const uint64_t slice_end = now_ns();
      window.slices.push_back(
          {slice_start + (slice_end - slice_start) / 2,
           static_cast<double>(slice_end - slice_start) / 1e6});
      const bool last = slice_end >= end;
      if (!last) {
        clock.sample();
      }
      gate.resume(last);
      if (last) {
        break;
      }
      slice_start = now_ns();
    }
    for (std::thread& t : threads) {
      t.join();
    }
    clock.sample();
    const PrepCacheStats b = cache.stats();
    window.index_builds = obs_counter("graph.index.builds") - builds;
    window.cache_delta.engine_hits = b.engine_hits - a.engine_hits;
    window.cache_delta.engine_misses = b.engine_misses - a.engine_misses;
    window.cache_delta.plan_cache_hits = b.plan_cache_hits - a.plan_cache_hits;
    window.cache_delta.plan_cache_misses =
        b.plan_cache_misses - a.plan_cache_misses;
    window.cache_delta.evictions = b.evictions - a.evictions;
    tracer.set_enabled(false);
    for (const ClientStats& c : window.clients) {
      result.attempted += c.attempted;
      result.failed += c.failed;
      for (const std::string& f : c.failures) {
        if (result.failures.size() < 8) {
          result.failures.push_back(f);
        }
      }
    }
    return window;
  };
  auto timed_latencies = [](const Window& w) {
    std::vector<Timed> all;
    for (const ClientStats& c : w.clients) {
      all.insert(all.end(), c.latency.begin(), c.latency.end());
    }
    return all;
  };
  auto latencies = [&](const Window& w) {
    return wall_ms(timed_latencies(w));
  };
  auto requests = [](const Window& w) {
    uint64_t n = 0;
    for (const ClientStats& c : w.clients) {
      n += c.latency.size();
    }
    return n;
  };

  std::ostringstream detail;
  uint64_t exhausted = 0;
  if (!config.trace) {
    const Window window = run_window(config.seconds, false);
    add_end_to_end(result,
                   {"serve request (client round trip)", timed_latencies(window),
                    static_cast<double>(requests(window)), window.slices},
                   setup, clock);
    detail << ",\"prep_cache_evictions\":" << window.cache_delta.evictions
           << ",\"prep_cache_engine_misses\":"
           << window.cache_delta.engine_misses;
    for (const ClientStats& c : window.clients) {
      exhausted += c.exhausted;
    }
  } else {
    // A third untraced: its request latencies are the tracing-overhead
    // baseline, and its cache and index counters are the pure workload's
    // (traced requests add in-process engine hits).
    const Window plain = run_window(config.seconds / 3.0, false);
    const Window traced = run_window(config.seconds * 2.0 / 3.0, true);
    ClientStats sum;
    for (const ClientStats& c : traced.clients) {
      sum.overhead_ms += c.overhead_ms;
      sum.overhead_samples += c.overhead_samples;
      sum.report_kb += c.report_kb;
      sum.reports += c.reports;
      sum.layers += c.layers;
      sum.coverage += c.coverage;
      sum.io_search += c.io_search;
      sum.profiled += c.profiled;
      exhausted += c.exhausted;
    }
    const auto per = [](double total, uint64_t n) {
      return total / static_cast<double>(std::max<uint64_t>(n, 1));
    };
    const serve::ServerStats server_stats = server->stats();
    const json::Value stats = json::parse(server->stats_json());
    double endpoint_p50_s = 0.0;
    if (const json::Value* endpoints = stats.find("endpoints")) {
      if (const json::Value* profile = endpoints->find("profile")) {
        endpoint_p50_s = profile->get_double("p50_s");
      }
    }
    const PrepCacheStats& c = plain.cache_delta;
    add_per_layer(
        result,
        {{"graph.index_builds",
          per(static_cast<double>(plain.index_builds), requests(plain))},
         {"backends.layers", per(sum.layers, sum.profiled)},
         {"mapping.coverage", per(sum.coverage, sum.profiled)},
         {"mapping.io_search_share", sum.io_search / std::max(sum.layers, 1.0)},
         {"core.plan_cache.hit_ratio",
          hit_ratio(c.plan_cache_hits, c.plan_cache_misses)},
         {"core.prep_cache.engine_hit_ratio",
          hit_ratio(c.engine_hits, c.engine_misses)},
         {"core.prep_cache.evictions", static_cast<double>(c.evictions)},
         {"core.assemble_ms", tracer.mean_ms("core.profiler_run_hit") -
                                  tracer.mean_ms("hw.engine_profile")},
         {"core.report_kb", per(sum.report_kb, sum.reports)},
         {"serve.overhead_ms", per(sum.overhead_ms, sum.overhead_samples)},
         {"serve.endpoint_p50_ms", endpoint_p50_s * 1e3},
         {"serve.rejected",
          static_cast<double>(server_stats.rejected_overloaded +
                              server_stats.rejected_shutdown +
                              server_stats.deadline_exceeded)},
         {"obs.trace_overhead_ratio",
          median(latencies(traced)) / std::max(median(latencies(plain)), 1e-9) -
              1.0}});
  }
  server->stop();
  if (exhausted != 0) {
    result.fail("a client ran out of generated requests");
  }

  result.counters = {{"setup.index_builds", setup_counts.index_builds},
                     {"setup.engine_misses", setup_counts.engine_misses},
                     {"setup.plan_cache_misses", setup_counts.plan_cache_misses},
                     {"setup.plan_cache_hits", setup_counts.plan_cache_hits}};
  for (const auto& [key, want] : expected) {
    result.counters.emplace_back(
        all_pairs[key.first].model + "/" + all_pairs[key.first].platform +
            "/b" + std::to_string(key.second) + ".layers",
        want.layers);
  }
  result.detail += detail.str();
  return result;
}

}  // namespace perfbench
