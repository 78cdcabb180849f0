// Unit tests: simulated hardware-counter profiler, hardware-FLOP model and
// the NCU tensor-core counting quirk + correction (paper §4.2).
#include <gtest/gtest.h>

#include "hw/counters.hpp"
#include "hw/hardware_flops.hpp"
#include "models/builder.hpp"
#include "support/error.hpp"

namespace proof::hw {
namespace {

TEST(MmaShapes, VoltaIsTheOnlyCorrectCaseForNcu) {
  // NCU multiplies HMMA instruction counts by a fixed 512 — correct only for
  // Volta's HMMA.884 (8x8x4 * 2 = 512 FLOP).
  EXPECT_DOUBLE_EQ(mma_shape("volta", DType::kF16).flop_per_instruction(), 512.0);
  EXPECT_DOUBLE_EQ(mma_shape("ampere", DType::kF16).flop_per_instruction(), 4096.0);
  EXPECT_DOUBLE_EQ(mma_shape("ampere", DType::kI8).flop_per_instruction(), 8192.0);
  EXPECT_DOUBLE_EQ(mma_shape("ada", DType::kF16).flop_per_instruction(), 4096.0);
}

TEST(PaddedGemm, RoundsUpToTiles) {
  const BlockTile tile{64, 32, 32};
  // Aligned dims: exact.
  EXPECT_DOUBLE_EQ(padded_gemm_flops(128, 64, 64, tile), 2.0 * 128 * 64 * 64);
  // Misaligned dims round up.
  EXPECT_DOUBLE_EQ(padded_gemm_flops(100, 24, 24, tile), 2.0 * 128 * 32 * 32);
  EXPECT_GE(padded_gemm_flops(1, 1, 1, tile), 2.0 * 64 * 32 * 32);
}

TEST(HardwareFlops, AlignedConvHasNoPadding) {
  models::GraphBuilder b("g");
  const std::string x = b.input("x", Shape{1, 64, 56, 56});
  const std::string y = b.conv(x, 64, 1, 1, 0, 1, false);
  const Graph g = b.finish({y});
  const Node& conv = g.nodes()[0];
  const OpContext ctx(g, conv);
  const double model = op_def_for(conv).flops(ctx);
  const double hw = hardware_flops(ctx, "ampere");
  // M = 3136 -> 3136 (multiple of 64? 3136 = 49*64 yes), N=64, K=64: exact.
  EXPECT_NEAR(hw, model, model * 1e-9);
}

TEST(HardwareFlops, MisalignedChannelsPad) {
  models::GraphBuilder b("g");
  const std::string x = b.input("x", Shape{1, 24, 56, 56});
  const std::string y = b.conv(x, 24, 1, 1, 0, 1, false);  // 24 -> pad to 32
  const Graph g = b.finish({y});
  const Node& conv = g.nodes()[0];
  const OpContext ctx(g, conv);
  const double model = op_def_for(conv).flops(ctx);
  const double hw = hardware_flops(ctx, "ampere");
  EXPECT_GT(hw, 1.5 * model);  // (32/24)^2 = 1.78x
}

TEST(HardwareFlops, TranscendentalsCountBelowModel) {
  models::GraphBuilder b("g");
  const std::string x = b.input("x", Shape{1024});
  const std::string y = b.act(x, "Erf");
  const Graph g = b.finish({y});
  const Node& erf = g.nodes()[0];
  const OpContext ctx(g, erf);
  EXPECT_LT(hardware_flops(ctx, "ampere"), op_def_for(erf).flops(ctx));
}

KernelWork tc_kernel(const std::string& name, double matrix, double scalar,
                     double bytes) {
  KernelWork k;
  k.name = name;
  k.cls = OpClass::kGemm;
  k.dtype = DType::kF16;
  k.hw_flops = matrix + scalar;
  k.matrix_flops = matrix;
  k.bytes = bytes;
  return k;
}

TEST(CounterProfiler, NcuBugRawVsCorrected) {
  const PlatformDesc& a100 = PlatformRegistry::instance().get("a100");
  const CounterProfiler prof(a100);
  const LatencyModel model{PlatformState(a100)};
  const auto report = prof.profile({tc_kernel("k0", 4096e6, 0.0, 1e6)}, model);
  ASSERT_EQ(report.samples.size(), 1u);
  const CounterSample& s = report.samples[0];
  EXPECT_DOUBLE_EQ(s.hmma_instructions, 1e6);
  EXPECT_DOUBLE_EQ(s.corrected_flops, 4096e6);
  // Raw NCU reading: 1e6 instructions x 512 — an integer-factor (8x)
  // undercount on Ampere, as §4.2 reports.
  EXPECT_DOUBLE_EQ(s.ncu_raw_flops, 512e6);
  EXPECT_DOUBLE_EQ(s.corrected_flops / s.ncu_raw_flops, 8.0);
}

TEST(CounterProfiler, VoltaRawEqualsCorrected) {
  const PlatformDesc& xavier = PlatformRegistry::instance().get("xavier_nx");
  PlatformDesc volta = xavier;
  volta.has_counter_profiler = true;  // pretend NCU exists on this Volta
  const CounterProfiler prof(volta);
  const LatencyModel model{PlatformState(volta)};
  const auto report = prof.profile({tc_kernel("k0", 512e6, 100.0, 1e6)}, model);
  EXPECT_DOUBLE_EQ(report.samples[0].ncu_raw_flops,
                   report.samples[0].corrected_flops);
}

TEST(CounterProfiler, ScalarFlopsPassThrough) {
  const PlatformDesc& a100 = PlatformRegistry::instance().get("a100");
  const CounterProfiler prof(a100);
  const LatencyModel model{PlatformState(a100)};
  const auto report = prof.profile({tc_kernel("k0", 0.0, 12345.0, 1e6)}, model);
  EXPECT_DOUBLE_EQ(report.samples[0].corrected_flops, 12345.0);
  EXPECT_DOUBLE_EQ(report.samples[0].hmma_instructions, 0.0);
}

TEST(CounterProfiler, MeasuredBytesCarryWorkspaceFactor) {
  const PlatformDesc& a100 = PlatformRegistry::instance().get("a100");
  const CounterProfiler prof(a100);
  const LatencyModel model{PlatformState(a100)};
  const auto report = prof.profile({tc_kernel("k0", 1e9, 0.0, 1e8)}, model);
  // GEMM factor 1.04 +/- small jitter.
  EXPECT_NEAR(report.samples[0].dram_bytes, 1.04e8, 0.02e8);
  // Deterministic across runs.
  const auto again = prof.profile({tc_kernel("k0", 1e9, 0.0, 1e8)}, model);
  EXPECT_DOUBLE_EQ(report.samples[0].dram_bytes, again.samples[0].dram_bytes);
}

TEST(CounterProfiler, ReplayOverheadScalesWithKernelCount) {
  const PlatformDesc& a100 = PlatformRegistry::instance().get("a100");
  const CounterProfiler prof(a100);
  const LatencyModel model{PlatformState(a100)};
  std::vector<KernelWork> one = {tc_kernel("k0", 1e9, 0.0, 1e6)};
  std::vector<KernelWork> ten;
  for (int i = 0; i < 10; ++i) {
    std::string name = "k";
    name += std::to_string(i);
    ten.push_back(tc_kernel(name, 1e9, 0.0, 1e6));
  }
  const double t1 = prof.profile(one, model).profiling_time_s;
  const double t10 = prof.profile(ten, model).profiling_time_s;
  EXPECT_NEAR(t10, 10.0 * t1, 1e-9);
  EXPECT_GT(t1, 1.0);  // seconds per kernel, not microseconds
}

TEST(CounterProfiler, UnavailablePlatformThrows) {
  const PlatformDesc& rpi = PlatformRegistry::instance().get("rpi4b");
  const CounterProfiler prof(rpi);
  EXPECT_FALSE(prof.available());
  const LatencyModel model{PlatformState(rpi)};
  EXPECT_THROW((void)prof.profile({}, model), Error);
}

TEST(CounterProfiler, MatrixExceedingTotalRejected) {
  const PlatformDesc& a100 = PlatformRegistry::instance().get("a100");
  const CounterProfiler prof(a100);
  const LatencyModel model{PlatformState(a100)};
  KernelWork bad = tc_kernel("k0", 1e9, 0.0, 1e6);
  bad.hw_flops = 1e6;  // matrix_flops (1e9) > hw_flops
  EXPECT_THROW((void)prof.profile({bad}, model), Error);
}

TEST(TrafficFactors, NormalizationRereadsMost) {
  EXPECT_GT(measured_traffic_factor(OpClass::kNormalization),
            measured_traffic_factor(OpClass::kConv));
  EXPECT_GE(measured_traffic_factor(OpClass::kElementwise), 1.0);
}

}  // namespace
}  // namespace proof::hw
