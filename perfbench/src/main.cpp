// perfbench: the benchmark of the PRoof tool itself.
//
//   perfbench --workload cold-zoo|sweep-grid|serve-mix --seed N --seconds S
//             --trace 0|1 [--root DIR] [--out DIR]
//
// Runs one workload for S seconds and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0
// prints the end-to-end metrics; --trace 1 is a separate run that records
// the benchmark's own spans and prints the per-layer metrics.  The line
// before it, "perfbench-detail {...}", carries the seed, a hash of the
// generated inputs, the host description, sample counts and the exact
// counters.  Exits 1 when any output fails a check.  See perfbench/README.md.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <proof/proof.hpp>

#include "bench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cold-zoo|sweep-grid|serve-mix "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]\n";
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig config;
  config.root = ".";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace must be 0 or 1");
      }
      config.trace = value == "1";
    } else if (flag == "--root") {
      config.root = value;
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (config.workload.empty() || !have_seed) {
    usage("--workload and --seed are required");
  }
  if (config.out_dir.empty()) {
    config.out_dir = config.root + "/.bench_build/perfbench";
  }
  return config;
}

/// Fixed integer work; the calibration burn times it.
uint64_t burn(uint64_t n) {
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Host description, with a short calibration burn: the same work on one
/// thread and on hardware_concurrency() threads at once.  Effective
/// parallelism = threads * t(1) / t(threads); a single-core host reads ~1.
std::string host_json() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kWork = 20'000'000;
  volatile uint64_t sink = 0;
  const double t0 = now_s();
  sink = sink + burn(kWork);
  const double single = now_s() - t0;
  std::vector<std::thread> threads;
  std::vector<uint64_t> out(hw, 0);
  const double t1 = now_s();
  for (unsigned i = 0; i < hw; ++i) {
    threads.emplace_back([&out, i] { out[i] = burn(kWork); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double multi = now_s() - t1;
  const double effective = static_cast<double>(hw) * single / std::max(multi, 1e-9);

#ifdef PROOF_OBS_DISABLED
  const bool obs_compiled = false;
#else
  const bool obs_compiled = true;
#endif
  std::ostringstream json;
  json << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"hardware_concurrency\":" << hw
       << ",\"thread_pool_jobs\":" << proof::ThreadPool::global().jobs()
       << ",\"default_pool_jobs\":" << proof::ThreadPool::default_jobs()
       << ",\"build_type\":" << proof::json::quote(PERFBENCH_BUILD_TYPE)
       << ",\"obs_compiled\":" << (obs_compiled ? "true" : "false")
       << ",\"obs_enabled\":" << (proof::obs::enabled() ? "true" : "false")
       << ",\"calibration_single_s\":" << single
       << ",\"effective_parallelism\":" << effective
       << ",\"single_core_host\":" << (effective < 1.5 ? "true" : "false")
       << "}";
  return json.str();
}

/// Restricts the process to the first CPU it may run on; threads started
/// later inherit the mask.  Returns that CPU, or -1 when it cannot.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

/// Compares this run's exact counters with the record of an earlier run of
/// the same workload, seed and binary; the first such run writes it.  The
/// binary is identified by its size and modification time, so a rebuild
/// starts a new record.
/// Returns the names whose values differ; `*path_out` names the record.
std::vector<std::string> check_counter_record(const RunConfig& config,
                                              const WorkloadResult& result,
                                              std::string* path_out) {
  struct stat st{};
  stat("/proc/self/exe", &st);
  const std::string dir = config.out_dir + "/counters";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + config.workload + "-seed" + std::to_string(config.seed) +
      "-bin" + std::to_string(st.st_size) + "-" +
      std::to_string(st.st_mtime) + ".txt";
  *path_out = path;
  std::ostringstream now;
  for (const auto& [name, value] : result.counters) {
    now << name << " " << value << "\n";
  }
  std::vector<std::string> differ;
  const std::string before = read_file(path);
  if (before.empty()) {
    std::ofstream(path) << now.str();
    return differ;
  }
  std::map<std::string, std::string> old_values;
  std::istringstream in(before);
  std::string name;
  std::string value;
  while (in >> name >> value) {
    old_values[name] = value;
  }
  // A short run may not reach every cell; only counters both runs have are
  // compared.
  for (const auto& [counter, v] : result.counters) {
    const auto it = old_values.find(counter);
    if (it != old_values.end() && it->second != std::to_string(v)) {
      differ.push_back(counter);
    }
  }
  return differ;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig config = parse_args(argc, argv);
  WorkloadResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "cold-zoo") {
    run = run_cold_zoo;
  } else if (config.workload == "sweep-grid") {
    run = run_sweep_grid;
  } else if (config.workload == "serve-mix") {
    run = run_serve_mix;
  } else {
    usage("unknown workload '" + config.workload + "'");
  }
  // One core: on a shared host, how many cores a run gets and how fast
  // threads on other cores wake drift from minute to minute, and parallel
  // sweeps and cross-core hand-offs turn that drift into run-to-run spread.
  // The global pool runs serially and, after the host calibration, the
  // process (and every thread it starts later) stays on one CPU.
  proof::ThreadPool::set_global_jobs(1);
  std::filesystem::create_directories(config.out_dir);
  std::string host = host_json();
  host.insert(host.size() - 1,
              ",\"pinned_cpu\":" + std::to_string(pin_to_one_cpu()));

  WorkloadResult result;
  try {
    result = run(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (result.attempted == 0) {
    result.fail("no operation was attempted");
  }
  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail("metric " + m.name + " is not finite");
      m.value = 0.0;  // keeps the result line valid JSON
    }
  }
  std::string record_path;
  for (const std::string& name :
       check_counter_record(config, result, &record_path)) {
    result.fail("exact counter '" + name +
                "' differs from an earlier run with this seed");
  }
  std::string trace_path;
  if (config.trace) {
    trace_path = config.out_dir + "/trace-" + config.workload + "-seed" +
                 std::to_string(config.seed) + ".json";
    Tracer::instance().write(trace_path);
  }

  std::cout << "perfbench " << config.workload << " seed " << config.seed
            << (config.trace ? " (traced)" : "") << ": " << result.attempted
            << " operations, " << result.failed << " failed\n";
  for (const Metric& m : result.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& failure : result.failures) {
    std::cout << "  FAILED: " << failure << "\n";
  }

  std::ostringstream detail;
  detail.precision(17);
  detail << "{\"workload\":" << proof::json::quote(config.workload)
         << ",\"seed\":" << config.seed << ",\"inputs_hash\":\"" << std::hex
         << result.inputs_hash << std::dec << "\",\"seconds\":"
         << config.seconds << ",\"trace\":" << (config.trace ? 1 : 0)
         << ",\"trace_file\":" << proof::json::quote(trace_path)
         << ",\"spans\":" << Tracer::instance().size() << ",\"host\":" << host
         << ",\"fail_ratio\":"
         << static_cast<double>(result.failed) /
                static_cast<double>(std::max<uint64_t>(result.attempted, 1));
  detail << result.detail;
  if (config.trace) {
    // Per span name: calls, mean duration and mean self time (the span minus
    // the part of it its child spans cover), in ms.
    detail << ",\"spans_by_name\":{";
    bool first = true;
    for (const auto& [name, t] : Tracer::instance().totals()) {
      const double calls = static_cast<double>(std::max<uint64_t>(t.calls, 1));
      detail << (first ? "" : ",") << proof::json::quote(name)
             << ":{\"calls\":" << t.calls << ",\"mean_ms\":" << t.total_ms / calls
             << ",\"self_ms\":" << t.self_ms / calls << "}";
      first = false;
    }
    detail << "}";
  }
  detail << ",\"failures\":[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    detail << (i == 0 ? "" : ",") << proof::json::quote(result.failures[i]);
  }
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& [name, value] : result.counters) {
    digest = fnv1a(name + "=" + std::to_string(value) + "\n", digest);
  }
  detail << "],\"exact_counters\":" << result.counters.size()
         << ",\"exact_counters_digest\":\"" << std::hex << digest << std::dec
         << "\",\"exact_counters_file\":" << proof::json::quote(record_path)
         << "}";
  std::cout << "perfbench-detail " << detail.str() << "\n";

  std::ostringstream line;
  line.precision(17);
  line << "{\"correct\":" << (result.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << std::max<uint64_t>(result.attempted, 1)
       << ",\"failed\":" << result.failed << ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line << (i == 0 ? "" : ",") << proof::json::quote(m.name)
         << ":{\"value\":" << m.value << ",\"unit\":"
         << proof::json::quote(m.unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}
