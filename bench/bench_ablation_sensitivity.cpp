// Ablation — robustness of the paper's conclusions to the simulator's
// calibration constants.
//
// The substitution argument (DESIGN.md §2) rests on the case-study outcomes
// being properties of the workload structure, not of our specific efficiency
// constants.  This bench perturbs the platform calibration (compute/memory
// efficiency ceilings, conv efficiency scale, kernel overhead) by +/-15 % in
// a deterministic sweep and re-evaluates:
//   * §4.5 — does the modified ShuffleNetV2 still win at bs 2048?
//   * §4.6 — does EMC 2133 remain cheap and EMC 665 remain ruinous, and does
//             GPU 612 / EMC 2133 stay inside the 15 W budget?
#include "bench_util.hpp"

#include "support/rng.hpp"

using namespace proof;

namespace {

hw::PlatformDesc perturbed(const hw::PlatformDesc& base, const std::string& id,
                           Rng& rng) {
  hw::PlatformDesc p = base;
  p.id = id;
  const auto jitter = [&](double value) {
    return value * rng.uniform(0.85, 1.15);
  };
  p.max_compute_eff = std::min(0.98, jitter(p.max_compute_eff));
  p.max_mem_eff = std::min(0.98, jitter(p.max_mem_eff));
  p.conv_eff_scale = jitter(p.conv_eff_scale);
  p.kernel_overhead_s = jitter(p.kernel_overhead_s);
  p.saturation_flops = jitter(p.saturation_flops);
  return p;
}

ProfileReport run(const std::string& model, const std::string& platform,
                  int64_t batch, hw::ClockSetting clocks = {}) {
  ProfileOptions opt;
  opt.platform_id = platform;
  opt.dtype = DType::kF16;
  opt.batch = batch;
  opt.mode = MetricMode::kPredicted;
  opt.clocks = std::move(clocks);
  return Profiler(opt).run_zoo(model);
}

hw::ClockSetting orin_clocks(double gpu, double mem) {
  hw::ClockSetting c;
  c.gpu_mhz = gpu;
  c.mem_mhz = mem;
  c.cpu_cluster_mhz = {729.0, 0.0};
  return c;
}

/// "+12.3%" for a latency ratio of 1.123.
std::string slowdown_percent(double ratio) {
  std::string out = "+";
  out += units::fixed((ratio - 1.0) * 100, 1);
  out += '%';
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation: conclusion robustness under calibration perturbation");
  constexpr int kTrials = 10;
  auto& registry = hw::PlatformRegistry::instance();

  report::TextTable table({"trial", "§4.5 speedup (bs2048)", "§4.6 EMC 2133 cost",
                           "§4.6 EMC 665 cost", "612/2133 power",
                           "conclusions hold"});
  int held = 0;
  Rng rng(20240812);  // ICPP'24 conference date as the sweep seed
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string a100_id = "a100_pert" + std::to_string(trial);
    const std::string orin_id = "orin_pert" + std::to_string(trial);
    registry.add(perturbed(registry.get("a100"), a100_id, rng));
    registry.add(perturbed(registry.get("orin_nx16"), orin_id, rng));

    const double speedup = run("shufflenetv2_10", a100_id, 2048).total_latency_s /
                           run("shufflenetv2_10_mod", a100_id, 2048).total_latency_s;
    const double full =
        run("efficientnetv2_t", orin_id, 128, orin_clocks(918, 3199)).total_latency_s;
    const double mid =
        run("efficientnetv2_t", orin_id, 128, orin_clocks(918, 2133)).total_latency_s;
    const double low =
        run("efficientnetv2_t", orin_id, 128, orin_clocks(918, 665)).total_latency_s;
    const ProfileReport tuned =
        run("efficientnetv2_t", orin_id, 128, orin_clocks(612, 2133));

    const bool ok = speedup > 1.2 && mid / full < 1.35 && low / full > 1.6 &&
                    tuned.power_w < 15.5;
    held += ok ? 1 : 0;
    table.add_row({std::to_string(trial), units::fixed(speedup, 2) + "x",
                   slowdown_percent(mid / full), slowdown_percent(low / full),
                   units::fixed(tuned.power_w, 1) + " W", ok ? "yes" : "NO"});
  }
  std::cout << table.to_string();
  std::cout << "\n" << held << "/" << kTrials
            << " perturbed calibrations preserve all four qualitative\n"
               "conclusions — the case-study outcomes are workload-structure\n"
               "properties, not artifacts of the chosen constants.\n";
  return held == kTrials ? 0 : 1;
}
