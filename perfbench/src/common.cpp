#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <proof/proof.hpp>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- reference speed ---------------------------------------------------------

namespace {

/// The reference kernel: string-keyed std::map inserts and lookups
/// (allocation, pointer chasing, string compares) and random
/// read-modify-writes over a 4 MiB table, which overflows a core's private
/// cache into the shared one.  That is the kind of work PRoof spends its
/// time on, and the kind a neighbour's cache traffic slows.
uint64_t reference_kernel() {
  static std::vector<uint32_t> table(1u << 20, 1);
  static uint32_t state = 12345;
  uint64_t acc = 0;
  {
    std::map<std::string, uint64_t> map;
    for (uint32_t i = 0; i < 1500; ++i) {
      map[std::to_string((i * 7919u + state) % 100'003u)] += i;
    }
    for (uint32_t i = 0; i < 1500; ++i) {
      const auto it = map.find(std::to_string((i * 104'729u) % 100'003u));
      acc += it == map.end() ? 0 : it->second;
    }
  }
  for (int i = 0; i < 50'000; ++i) {
    state = state * 1'664'525u + 1'013'904'223u;
    acc += table[state >> 12]++;
  }
  return acc;
}

/// Untimed runs before the timed ones of a sample.  Right after an
/// operation the table has been evicted from the private cache, and the
/// kernel's first runs take up to ~30% longer while it refills; they would
/// measure the operation's cache footprint, not the host.  From the tenth
/// run on the time is flat.
constexpr int kWarmRuns = 10;
constexpr int kTimedRuns = 3;
constexpr uint64_t kSampleEveryNs = 250'000'000;
constexpr uint64_t kNeighbourhoodNs = 500'000'000;
constexpr size_t kMinNeighbours = 5;

}  // namespace

void ReferenceClock::maybe_sample() {
  if (samples_.empty() || now_ns() - samples_.back().at_ns >= kSampleEveryNs) {
    sample();
  }
}

void ReferenceClock::sample() {
  static volatile uint64_t sink = 0;
  for (int i = 0; i < kWarmRuns; ++i) {
    sink = sink + reference_kernel();
  }
  std::vector<Timed> runs;
  for (int i = 0; i < kTimedRuns; ++i) {
    runs.push_back(timed([] { sink = sink + reference_kernel(); }));
  }
  samples_.push_back({runs.front().at_ns, median(wall_ms(runs))});
}

double ReferenceClock::kernel_ms_at(uint64_t at_ns) const {
  if (samples_.empty()) {
    return 1.0;
  }
  // The samples nearest to at_ns, widening outwards: every one within the
  // neighbourhood, and at least kMinNeighbours.
  const auto mid = std::lower_bound(
      samples_.begin(), samples_.end(), at_ns,
      [](const Sample& s, uint64_t t) { return s.at_ns < t; });
  auto lo = mid;
  auto hi = mid;
  auto distance = [at_ns](const Sample& s) {
    return s.at_ns > at_ns ? s.at_ns - at_ns : at_ns - s.at_ns;
  };
  std::vector<double> near;
  while (lo != samples_.begin() || hi != samples_.end()) {
    const bool take_lo =
        hi == samples_.end() ||
        (lo != samples_.begin() && distance(*(lo - 1)) <= distance(*hi));
    const Sample& s = take_lo ? *--lo : *hi++;
    if (near.size() >= kMinNeighbours && distance(s) > kNeighbourhoodNs) {
      break;
    }
    near.push_back(s.kernel_ms);
  }
  return median(near);
}

double ReferenceClock::median_kernel_ms() const {
  std::vector<double> ms;
  for (const Sample& s : samples_) {
    ms.push_back(s.kernel_ms);
  }
  return median(ms);
}

// --- tracer ------------------------------------------------------------------

namespace {

/// Spans kept per run; a traced run past this keeps timing but stops
/// recording (the count is reported).
constexpr size_t kMaxSpans = 1u << 20;

thread_local std::vector<int64_t> t_open_spans;

uint32_t thread_track() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t track = next.fetch_add(1);
  return track;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::open(const char* name, uint64_t op) {
  Record record;
  record.name = name;
  record.op = op;
  record.thread = thread_track();
  record.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  record.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= kMaxSpans) {
    return -1;
  }
  records_.push_back(record);
  const auto id = static_cast<int64_t>(records_.size() - 1);
  t_open_spans.push_back(id);
  return id;
}

void Tracer::close(int64_t id) {
  const uint64_t end = now_ns();
  if (!t_open_spans.empty() && t_open_spans.back() == id) {
    t_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<size_t>(id)].end_ns = end;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children covered time, per parent.  Children of one parent run on the
  // parent's thread one after another, so their durations never overlap.
  std::vector<uint64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0 && r.end_ns >= r.start_ns) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < r.start_ns) {
      continue;  // still open
    }
    const uint64_t dur = r.end_ns - r.start_ns;
    Totals& t = out[r.name];
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms +=
        static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e6;
    ++t.calls;
  }
  return out;
}

double Tracer::mean_ms(const std::string& name) const {
  const std::map<std::string, Totals> all = totals();
  const auto it = all.find(name);
  if (it == all.end() || it->second.calls == 0) {
    return 0.0;
  }
  return it->second.total_ms / static_cast<double>(it->second.calls);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const uint64_t end = std::max(r.end_ns, r.start_ns);
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << proof::json::quote(r.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
        << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(end - r.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
        << ",\"op\":" << r.op << "}}";
  }
  out << "]}\n";
}

// --- results -----------------------------------------------------------------

void add_end_to_end(WorkloadResult& result, const Measured& measured,
                    const Setup& setup, const ReferenceClock& clock) {
  const std::vector<double> op_ms = wall_ms(measured.ops);
  std::vector<double> op_ref_ms;
  for (const Timed& t : measured.ops) {
    op_ref_ms.push_back(clock.ref_ms(t.wall_ms, t.at_ns));
  }
  double busy_ref_ms = 0.0;
  double busy_ms = 0.0;
  for (const Timed& t : measured.busy) {
    busy_ref_ms += clock.ref_ms(t.wall_ms, t.at_ns);
    busy_ms += t.wall_ms;
  }
  std::vector<double> setup_ref_s;
  std::vector<double> setup_s;
  for (const Timed& t : setup.samples) {
    setup_ref_s.push_back(clock.ref_ms(t.wall_ms, t.at_ns) / 1e3);
    setup_s.push_back(t.wall_ms / 1e3);
  }
  result.add("ops_per_ref_s", measured.work / std::max(busy_ref_ms / 1e3, 1e-9),
             "1/ref_s");
  result.add("op_p50_ref_ms", quantile(op_ref_ms, 0.50), "ref_ms");
  result.add("setup_s", median(setup_ref_s), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::ostringstream detail;
  detail << ",\"operation\":" << proof::json::quote(measured.op_label)
         << ",\"op_samples\":" << op_ms.size()
         << ",\"op_p90_ref_ms\":" << quantile(op_ref_ms, 0.90)
         << ",\"op_samples_beyond_p90\":" << samples_beyond(op_ms.size(), 0.9)
         << ",\"op_p99_ref_ms\":" << quantile(op_ref_ms, 0.99)
         << ",\"op_samples_beyond_p99\":" << samples_beyond(op_ms.size(), 0.99)
         << ",\"setup_samples\":" << setup.samples.size()
         << ",\"reference_kernel_ms\":" << clock.median_kernel_ms()
         << ",\"reference_samples\":" << clock.samples()
         << ",\"wall_clock\":{\"ops_per_s\":"
         << measured.work / std::max(busy_ms / 1e3, 1e-9)
         << ",\"op_p50_ms\":" << quantile(op_ms, 0.50)
         << ",\"op_p90_ms\":" << quantile(op_ms, 0.90)
         << ",\"op_p99_ms\":" << quantile(op_ms, 0.99)
         << ",\"setup_s\":" << median(setup_s) << "}";
  result.detail += detail.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string zero_wall_clock(std::string json) {
  for (const char* key :
       {"\"analysis_time_s\":", "\"counter_profiling_time_s\":"}) {
    const size_t key_len = std::strlen(key);
    size_t pos = json.find(key);
    while (pos != std::string::npos) {
      const size_t start = pos + key_len;
      const size_t end = json.find_first_of(",}", start);
      if (end == std::string::npos) {
        break;  // truncated document; the comparison fails on its own
      }
      json.replace(start, end - start, "0");
      pos = json.find(key, start);
    }
  }
  return json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return {};
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

namespace {

/// The per-layer metric names and units, in output order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"models.build_ms", "ms"},
      {"graph.index_builds", "count"},
      {"backends.prepare_ms", "ms"},
      {"backends.plan_ms", "ms"},
      {"backends.lower_ms", "ms"},
      {"backends.layers", "count"},
      {"analysis.ar_oar_ms", "ms"},
      {"mapping.map_ms", "ms"},
      {"mapping.coverage", "ratio"},
      {"mapping.io_search_share", "ratio"},
      {"core.instantiate_ms", "ms"},
      {"core.plan_cache.hit_ratio", "ratio"},
      {"core.prep_cache.engine_hit_ratio", "ratio"},
      {"core.prep_cache.evictions", "count"},
      {"hw.engine_profile_ms", "ms"},
      {"core.assemble_ms", "ms"},
      {"core.render_ms", "ms"},
      {"core.report_kb", "KB"},
      {"core.unattributed_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.endpoint_p50_ms", "ms"},
      {"serve.rejected", "count"},
      {"support.json_parse_ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace

uint64_t obs_counter(const std::string& name) {
  return proof::obs::MetricsRegistry::instance().counter(name).value();
}

void add_per_layer(WorkloadResult& result,
                   const std::map<std::string, double>& values) {
  const Tracer& tracer = Tracer::instance();
  // Layer timings measured by the benchmark's own spans: mean ms per call.
  static const std::map<std::string, std::string> kSpanOf = {
      {"models.build_ms", "models.build"},
      {"backends.prepare_ms", "backends.prepare"},
      {"backends.plan_ms", "backends.plan"},
      {"backends.lower_ms", "backends.lower"},
      {"analysis.ar_oar_ms", "analysis.ar_oar"},
      {"mapping.map_ms", "mapping.map"},
      {"core.instantiate_ms", "core.instantiate"},
      {"hw.engine_profile_ms", "hw.engine_profile"},
      {"core.render_ms", "core.render"},
      {"support.json_parse_ms", "support.json_parse"},
  };
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0.0;
    if (const auto it = values.find(name); it != values.end()) {
      value = it->second;
    } else if (const auto span = kSpanOf.find(name); span != kSpanOf.end()) {
      value = tracer.mean_ms(span->second);
    }
    result.add(name, value, unit);
  }
}

}  // namespace perfbench
