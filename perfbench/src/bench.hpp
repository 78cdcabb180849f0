// Shared pieces of the perfbench harness: run configuration, timing,
// percentiles, the benchmark's own in-memory span recorder, seeded input
// generation and the result a workload hands back to main().
//
// perfbench drives PRoof from outside, through the public API
// (include/proof/proof.hpp), and measures the tool itself: one process runs
// one workload for a fixed window and prints its metrics as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  ///< checkout root (holds tests/golden and .bench_build)
  std::string out_dir;  ///< where traces and counter records go
};

// --- time --------------------------------------------------------------------

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double now_s() { return static_cast<double>(now_ns()) / 1e9; }


// --- reference speed ---------------------------------------------------------

/// A shared host's speed drifts.  Other tenants' cache and memory traffic
/// makes the same work take up to ~1.8x longer, for seconds to minutes at a
/// time, and thread CPU time moves with wall time, so neither longer runs
/// nor CPU clocks remove it.  The benchmark therefore runs a fixed reference
/// kernel, independent of PRoof, about every 250 ms on the workload's CPU,
/// and divides each timing by the kernel's time around it.  One kernel run
/// is one reference millisecond ("ref_ms"), roughly a wall millisecond on an
/// idle core.  A change to PRoof moves ref_ms timings as it moves wall time;
/// host drift moves both the timing and the kernel and cancels.
class ReferenceClock {
 public:
  /// Samples the kernel when the last sample is at least 250 ms old.
  void maybe_sample();
  /// Samples the kernel now: untimed runs, then the median of three.
  void sample();

  /// The kernel's time in ms around `at_ns`: the median of the samples
  /// within 0.5 s of it, or of the five nearest when there are fewer.
  [[nodiscard]] double kernel_ms_at(uint64_t at_ns) const;
  /// A duration of `wall_ms` measured around `at_ns`, in ref ms.
  [[nodiscard]] double ref_ms(double wall_ms, uint64_t at_ns) const {
    return wall_ms / kernel_ms_at(at_ns);
  }
  /// Median kernel time over the run, in ms, and the sample count.
  [[nodiscard]] double median_kernel_ms() const;
  [[nodiscard]] size_t samples() const { return samples_.size(); }

 private:
  struct Sample {
    uint64_t at_ns = 0;
    double kernel_ms = 0.0;
  };
  std::vector<Sample> samples_;  ///< in time order
};

/// One timed operation: its wall duration and when it ran (its midpoint).
struct Timed {
  uint64_t at_ns = 0;
  double wall_ms = 0.0;
};

/// The wall durations of `timings`, in ms.
inline std::vector<double> wall_ms(const std::vector<Timed>& timings) {
  std::vector<double> out;
  out.reserve(timings.size());
  for (const Timed& t : timings) {
    out.push_back(t.wall_ms);
  }
  return out;
}

/// Times `body` on the steady clock.
template <typename F>
Timed timed(F&& body) {
  const uint64_t t0 = now_ns();
  body();
  const uint64_t t1 = now_ns();
  return {t0 + (t1 - t0) / 2, static_cast<double>(t1 - t0) / 1e6};
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> values, double q);

/// Median of unsorted samples (0 for none).
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Samples strictly above the q-quantile position: the count a percentile
/// rests on.  A percentile is reported only with at least ten beyond it.
inline size_t samples_beyond(size_t n, double q) {
  return n - static_cast<size_t>(static_cast<double>(n) * q);
}

// --- seeded inputs -----------------------------------------------------------

/// splitmix64: a fixed, portable generator, so one seed gives the same
/// inputs with every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// FNV-1a over bytes, chained through `h` (hashes generated inputs).
inline uint64_t fnv1a(const std::string& bytes,
                      uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- spans -------------------------------------------------------------------

/// The benchmark's own trace: one span per public call it makes in a traced
/// run (name, start, end, parent, operation id).  Spans stay in memory and
/// are written out once, when the run ends.  Disabled recorders cost one
/// branch per span.
class Tracer {
 public:
  struct Record {
    const char* name = nullptr;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  ///< index into records, -1 for a root span
    uint64_t op = 0;
    uint32_t thread = 0;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its id (-1 when disabled).
  int64_t open(const char* name, uint64_t op);
  void close(int64_t id);

  /// Per-name totals of self time (span minus the part its children cover)
  /// and call counts.
  struct Totals {
    double self_ms = 0.0;
    double total_ms = 0.0;
    uint64_t calls = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Mean duration of one call of `name` in ms (0 when never called).
  [[nodiscard]] double mean_ms(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON.
  void write(const std::string& path) const;

  [[nodiscard]] size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span around one call into the library.
class Span {
 public:
  Span(const char* name, uint64_t op = 0)
      : id_(Tracer::instance().enabled() ? Tracer::instance().open(name, op)
                                         : -1) {}
  ~Span() {
    if (id_ >= 0) {
      Tracer::instance().close(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors, refusals and outputs failing a check
  std::vector<std::string> failures;  ///< first few messages
  std::vector<Metric> metrics;        ///< end-to-end or per-layer set
  /// Exact counters of the run's deterministic segment; compared across
  /// runs of the same seed.
  std::vector<std::pair<std::string, uint64_t>> counters;
  uint64_t inputs_hash = 0;
  /// Extra JSON members (sample counts, sub-timings), each with a leading
  /// comma: `,"name":value`.
  std::string detail;

  void fail(const std::string& message) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(message);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Repeated set-ups, each followed by a reference sample.
struct Setup {
  std::vector<Timed> samples;
};

/// What a workload measured in its untraced window.
struct Measured {
  std::string op_label;   ///< what one operation is
  std::vector<Timed> ops;  ///< one per operation
  /// Work units done (operations, or sweep points) and the busy time they
  /// took: the parts of the window, each timed on its own.
  double work = 0.0;
  std::vector<Timed> busy;
};

/// The end-to-end metric set every workload reports, in reference time:
/// work per reference second, the median operation, the median set-up, and
/// peak RSS.  The detail line also gets the 90th and 99th percentiles, the
/// wall-clock figures and the kernel's median time.
void add_end_to_end(WorkloadResult& result, const Measured& measured,
                    const Setup& setup, const ReferenceClock& clock);

/// hits / (hits + misses), 0 when there were no lookups.
inline double hit_ratio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Replaces the value of every wall-clock field of a report JSON document
/// with 0, as the golden tests do.
std::string zero_wall_clock(std::string json);

/// Reads a whole file ("" when missing).
std::string read_file(const std::string& path);

/// Current value of an obs counter, e.g. `graph.index.builds`.
uint64_t obs_counter(const std::string& name);

// --- workloads ---------------------------------------------------------------

WorkloadResult run_cold_zoo(const RunConfig& config);
WorkloadResult run_sweep_grid(const RunConfig& config);
WorkloadResult run_serve_mix(const RunConfig& config);

/// Fills every per-layer metric, in a fixed order: from `values` where given,
/// else the mean call time of the layer's span (0 where the workload
/// bypasses the layer).
void add_per_layer(WorkloadResult& result,
                   const std::map<std::string, double>& values);

}  // namespace perfbench
