// Property tests for the implicit-GEMM convolution path: interior output
// columns stream NHWC activations in place through a cached offset table
// instead of a materialized im2col panel (GatherPolicy::kImplicit). The
// contract checked here, swept across every runtime SIMD rung the host
// supports (SetSimdTierCap walk, same idiom as nn_dispatch_test):
//   * float: implicit agrees with the naive oracle AND the materialized
//     gather within 1e-4, including the always-compiled scalar implicit
//     kernel (SetGemmForceScalar);
//   * int8: implicit logits and requantized u8 codes are BIT-IDENTICAL to
//     the materialized gather and to the scalar implicit oracle;
//   * the planner picks implicit exactly for multi-tap kh-kw-c plans with a
//     non-degenerate interior, and the force modes pin it for A/Bs;
//   * gather traffic: an interior-dominant 3x3 drops conv im2col bytes and
//     arena high-water by >= 8x vs materialized, and a pad-0 shape (no edge
//     columns at all) drops them to exactly zero.
// Shapes deliberately include odd/narrow channel counts (int8 falls back to
// materialized when kernel*channels is not kInt8KUnit-aligned — parity must
// hold regardless), stride 2, and tiny inputs where edges dominate or the
// interior is empty (per-forward fallback).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/nn/conv.h"
#include "src/nn/gemm.h"
#include "src/nn/simd.h"

namespace percival {
namespace {

constexpr float kParityTolerance = 1e-4f;

// Restores the uncapped ladder (and force-scalar off) however a test exits.
struct TierCapGuard {
  ~TierCapGuard() {
    SetSimdTierCap(SimdTier::kVnni);
    SetGemmForceScalar(false);
  }
};

// Restores the default gather heuristic however a test exits.
struct GatherPolicyGuard {
  ~GatherPolicyGuard() { SetPlannerGatherPolicy(GatherPolicyMode::kAuto); }
};

Tensor RandomTensor(const TensorShape& shape, uint64_t seed) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(-1.0f, 1.0f);
  }
  return tensor;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.shape() == b.shape());
  float worst = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

std::vector<SimdTier> SupportedTiers() {
  std::vector<SimdTier> tiers;
  for (int t = static_cast<int>(DetectedSimdTier()); t >= 0; --t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

struct ImplicitCase {
  int in_channels;
  int out_channels;
  int kernel;
  int stride;
  int pad;
  int h;
  int w;
};

std::string CaseLabel(const ImplicitCase& c, SimdTier tier) {
  std::ostringstream out;
  out << SimdTierName(tier) << " c" << c.in_channels << "->" << c.out_channels << " k"
      << c.kernel << " s" << c.stride << " p" << c.pad << " " << c.h << "x" << c.w;
  return out.str();
}

// The randomized shape sweep: odd/narrow channels (3, 5 break the int8
// kInt8KUnit segment alignment -> materialized fallback must stay correct),
// stride 2, pad 0/1, tiny inputs where the padded edges dominate, one shape
// whose interior is empty (3x3 input, 3x3 kernel, pad 1 -> per-forward
// fallback), and a 1x1 kernel (never implicit, heuristic must not regress it).
const ImplicitCase kCases[] = {
    {3, 20, 3, 1, 1, 5, 5},    // odd channels, edges on every border
    {5, 20, 3, 1, 0, 7, 6},    // odd channels, no pad: all-interior rows
    {6, 20, 3, 2, 1, 7, 7},    // stride 2 with pad
    {8, 20, 3, 2, 0, 9, 7},    // stride 2, int8-aligned K segment
    {16, 20, 3, 1, 1, 4, 4},   // tiny input, edges dominate
    {1, 20, 3, 1, 1, 5, 5},    // single channel
    {4, 20, 1, 1, 0, 6, 5},    // 1x1: implicit ineligible by construction
    {3, 20, 3, 1, 1, 3, 3},    // single interior column per row
    {4, 20, 3, 1, 1, 3, 2},    // no interior columns: per-forward fallback
    {4, 12, 3, 2, 1, 6, 6},    // stride 2, aligned, non-square remainder
    {16, 40, 3, 1, 1, 8, 7},   // panel-remainder output channels
};

// Builds an eval-mode conv with its plan pinned to the given gather policy;
// identical seeds give identical He-initialized weights across builds.
Conv2D MakeConv(const ImplicitCase& c, uint64_t seed, GatherPolicy gather) {
  Rng rng(seed);
  Conv2D conv(c.in_channels, c.out_channels, c.kernel, c.stride, c.pad, rng);
  conv.SetTrainingMode(false);
  KernelPlan plan = conv.plan();
  plan.gather = gather;
  conv.SetKernelPlan(plan);
  return conv;
}

// Float parity: implicit vs naive oracle, vs materialized gather, and vs
// the scalar implicit kernel, every supported rung.
TEST(ImplicitGatherTest, FloatParityAcrossLadder) {
  TierCapGuard guard;
  for (SimdTier tier : SupportedTiers()) {
    SetSimdTierCap(tier);
    uint64_t seed = 100 + static_cast<uint64_t>(tier);
    for (const ImplicitCase& c : kCases) {
      ++seed;
      const std::string label = CaseLabel(c, tier);
      Tensor input = RandomTensor(TensorShape{2, c.h, c.w, c.in_channels}, seed);

      Conv2D naive = MakeConv(c, seed, GatherPolicy::kMaterialize);
      naive.set_use_gemm(false);
      Tensor ref = naive.Forward(input);

      Conv2D materialized = MakeConv(c, seed, GatherPolicy::kMaterialize);
      Tensor mat = materialized.Forward(input);

      Conv2D implicit = MakeConv(c, seed, GatherPolicy::kImplicit);
      Tensor impl = implicit.Forward(input);

      EXPECT_LE(MaxAbsDiff(ref, impl), kParityTolerance) << "vs naive: " << label;
      EXPECT_LE(MaxAbsDiff(mat, impl), kParityTolerance) << "vs materialized: " << label;

      // The always-compiled scalar implicit kernel is the portable oracle.
      SetGemmForceScalar(true);
      Tensor impl_scalar = implicit.Forward(input);
      SetGemmForceScalar(false);
      EXPECT_LE(MaxAbsDiff(impl_scalar, impl), kParityTolerance)
          << "vs scalar implicit: " << label;
      EXPECT_LE(MaxAbsDiff(ref, impl_scalar), kParityTolerance)
          << "scalar implicit vs naive: " << label;
    }
  }
}

// Int8 dequantized logits: implicit must be BIT-IDENTICAL to the
// materialized gather and to the scalar implicit oracle on every rung. Both
// builds quantize the same input from the same observed range and run the
// same packed weights, so any difference is a kernel bug.
TEST(ImplicitGatherTest, Int8BitExactAcrossLadder) {
  TierCapGuard guard;
  for (SimdTier tier : SupportedTiers()) {
    SetSimdTierCap(tier);
    uint64_t seed = 300 + static_cast<uint64_t>(tier);
    for (const ImplicitCase& c : kCases) {
      ++seed;
      const std::string label = CaseLabel(c, tier);
      Tensor input = RandomTensor(TensorShape{2, c.h, c.w, c.in_channels}, seed);

      Conv2D materialized = MakeConv(c, seed, GatherPolicy::kMaterialize);
      materialized.SetPrecision(Precision::kInt8);
      Tensor mat = materialized.Forward(input);

      Conv2D implicit = MakeConv(c, seed, GatherPolicy::kImplicit);
      implicit.SetPrecision(Precision::kInt8);
      Tensor impl = implicit.Forward(input);

      EXPECT_EQ(MaxAbsDiff(mat, impl), 0.0f) << "vs materialized: " << label;

      SetGemmForceScalar(true);
      Tensor impl_scalar = implicit.Forward(input);
      SetGemmForceScalar(false);
      EXPECT_EQ(MaxAbsDiff(impl_scalar, impl), 0.0f) << "vs scalar implicit: " << label;
    }
  }
}

// Requantize-in-epilogue (float input -> u8 codes): the implicit u8 sink
// must produce code-identical output to the materialized gather on every
// rung — the zero-float chain depends on it.
TEST(ImplicitGatherTest, Int8RequantCodesBitExactAcrossLadder) {
  TierCapGuard guard;
  const ActivationQuant out_quant{0.05f, 12};
  for (SimdTier tier : SupportedTiers()) {
    SetSimdTierCap(tier);
    uint64_t seed = 500 + static_cast<uint64_t>(tier);
    for (const ImplicitCase& c : kCases) {
      ++seed;
      const std::string label = CaseLabel(c, tier);
      Tensor input = RandomTensor(TensorShape{1, c.h, c.w, c.in_channels}, seed);

      Conv2D materialized = MakeConv(c, seed, GatherPolicy::kMaterialize);
      materialized.SetPrecision(Precision::kInt8);
      Conv2D implicit = MakeConv(c, seed, GatherPolicy::kImplicit);
      implicit.SetPrecision(Precision::kInt8);

      const TensorShape out_shape = implicit.OutputShape(input.shape());
      const int64_t out_elems = out_shape.Elements();
      std::vector<uint8_t> mat_codes(static_cast<size_t>(out_elems), 0);
      std::vector<uint8_t> impl_codes(static_cast<size_t>(out_elems), 0xcd);
      const int64_t sample = out_elems / out_shape.n;
      materialized.Infer(input, OutputSpec::Codes(mat_codes.data(), out_quant.scale,
                                                  out_quant.zero_point, out_shape.c, sample)
                                    .WithRelu());
      implicit.Infer(input, OutputSpec::Codes(impl_codes.data(), out_quant.scale,
                                              out_quant.zero_point, out_shape.c, sample)
                                .WithRelu());
      EXPECT_EQ(mat_codes, impl_codes) << label;
    }
  }
}

// The planner's gather heuristic: implicit exactly for multi-tap kh-kw-c
// plans with a non-degenerate interior; 1x1 and interior-free shapes stay
// materialized; the force modes pin either answer for A/B runs.
TEST(ImplicitGatherTest, PlannerGatherHeuristicAndPins) {
  GatherPolicyGuard guard;
  SetPlannerGatherPolicy(GatherPolicyMode::kAuto);
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 1, 1, 32).gather, GatherPolicy::kImplicit);
  // Stride 2, width 19: interior run (19-3+1)/2+1 - 1 = 8 columns — exactly
  // the kImplicitMinInteriorRun floor.
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 2, 1, 19).gather, GatherPolicy::kImplicit);
  // Stride 2, width 17: a 7-column interior run is below the floor; the
  // materialized whole-image GEMM wins short rows.
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 2, 1, 17).gather, GatherPolicy::kMaterialize);
  // Unknown width (PlanKernels before any input): assume a wide interior.
  EXPECT_EQ(ChooseConvKernelPlan(32, 3).gather, GatherPolicy::kImplicit);
  // 1x1 already skips im2col entirely; nothing for implicit to win.
  EXPECT_EQ(ChooseConvKernelPlan(32, 1, 1, 0, 32).gather, GatherPolicy::kMaterialize);
  // 3-wide input keeps one interior column (the center sees all kw taps),
  // but one column is far below the interior-run floor.
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 1, 1, 3).gather, GatherPolicy::kMaterialize);
  // 2-wide input under a 3x3/pad-1 kernel: every output column touches pad.
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 1, 1, 2).gather, GatherPolicy::kMaterialize);

  SetPlannerGatherPolicy(GatherPolicyMode::kForceMaterialize);
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 1, 1, 32).gather, GatherPolicy::kMaterialize);
  SetPlannerGatherPolicy(GatherPolicyMode::kForceImplicit);
  EXPECT_EQ(ChooseConvKernelPlan(32, 3, 1, 1, 2).gather, GatherPolicy::kImplicit);
}

// Satellite: the gather-traffic counters. An interior-dominant 3x3 under the
// implicit plan only im2cols the pad-edge columns, so both the bytes moved
// through the gathers and the scratch-arena high-water must collapse vs the
// materialized run; with pad 0 there are no edge columns and conv gather
// scratch drops to exactly zero.
TEST(ImplicitGatherTest, ImplicitDropsGatherTrafficAndArenaHighWater) {
  TierCapGuard guard;
  const ImplicitCase big{16, 32, 3, 1, 1, 32, 32};
  Tensor input = RandomTensor(TensorShape{1, big.h, big.w, big.in_channels}, 7);

  Conv2D materialized = MakeConv(big, 7, GatherPolicy::kMaterialize);
  ResetGemmGatherStats();
  (void)materialized.Forward(input);
  const GemmGatherStats mat = GetGemmGatherStats();
  EXPECT_GT(mat.bytes_gathered, 0u);
  EXPECT_GT(mat.arena_high_water_bytes, 0u);

  Conv2D implicit = MakeConv(big, 7, GatherPolicy::kImplicit);
  ResetGemmGatherStats();
  (void)implicit.Forward(input);
  const GemmGatherStats impl = GetGemmGatherStats();
  // 2 edge columns of 32 vs a full 32x32 materialization: >= 8x on both axes
  // (the exact ratio is 16x; 8x keeps the assertion robust to chunking).
  EXPECT_LE(impl.bytes_gathered * 8, mat.bytes_gathered);
  EXPECT_LE(impl.arena_high_water_bytes * 8, mat.arena_high_water_bytes);

  // Pad 0: every output column is interior, so the implicit forward never
  // touches the im2col gathers or the scratch arena at all.
  const ImplicitCase pad0{16, 32, 3, 1, 0, 32, 32};
  Tensor input0 = RandomTensor(TensorShape{1, pad0.h, pad0.w, pad0.in_channels}, 8);
  Conv2D implicit0 = MakeConv(pad0, 8, GatherPolicy::kImplicit);
  ResetGemmGatherStats();
  (void)implicit0.Forward(input0);
  const GemmGatherStats impl0 = GetGemmGatherStats();
  EXPECT_EQ(impl0.bytes_gathered, 0u);
  EXPECT_EQ(impl0.arena_high_water_bytes, 0u);

  // Same collapse on the int8 path (u8 gathers count bytes, not floats).
  Conv2D materialized_i8 = MakeConv(big, 7, GatherPolicy::kMaterialize);
  materialized_i8.SetPrecision(Precision::kInt8);
  ResetGemmGatherStats();
  (void)materialized_i8.Forward(input);
  const GemmGatherStats mat_i8 = GetGemmGatherStats();
  EXPECT_GT(mat_i8.bytes_gathered, 0u);

  Conv2D implicit_i8 = MakeConv(big, 7, GatherPolicy::kImplicit);
  implicit_i8.SetPrecision(Precision::kInt8);
  ResetGemmGatherStats();
  (void)implicit_i8.Forward(input);
  const GemmGatherStats impl_i8 = GetGemmGatherStats();
  EXPECT_LE(impl_i8.bytes_gathered * 8, mat_i8.bytes_gathered);
}

}  // namespace
}  // namespace percival
