// One-process walk of the runtime SIMD ladder. The fat binary compiles
// every kernel tier; SetSimdTierCap lets one test process impersonate every
// weaker host the binary could land on, so this suite checks — without any
// per-ISA build flavors — that each rung (a) reports the right kernel
// names, panel width, and weight clamp, (b) agrees with the always-compiled
// scalar oracle at both panel widths and at row counts around every tile
// boundary, never storing outside C (bit-exactly for int8, to 1e-4 for
// float), (c) produces bit-identical int8 results to every other rung on
// shared saturation-safe packed data, and (d) degrades a wider-clamp PCVW
// v2 artifact to float requantization instead of feeding ±127 codes to a
// saturating kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/nn/conv.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/serialize.h"
#include "src/nn/simd.h"

namespace percival {
namespace {

// Restores the uncapped ladder (and force-scalar off) however a test exits.
struct TierCapGuard {
  ~TierCapGuard() {
    SetSimdTierCap(SimdTier::kVnni);
    SetGemmForceScalar(false);
  }
};

Tensor RandomTensor(const TensorShape& shape, uint64_t seed) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(-1.0f, 1.0f);
  }
  return tensor;
}

struct TierContract {
  const char* float_name;
  const char* int8_name;
  int panel_width;
  int weight_max;
};

// The ladder's per-rung data contracts (simd.h doc table). Indexed by
// SimdTier; holds as long as every rung at or below the detected tier was
// compiled in, which CheckCXXCompilerFlag guarantees on the CI toolchains.
const TierContract kContracts[kSimdTierCount] = {
    {"scalar", "scalar", 16, 64},            // kScalar
    {"sse2", "scalar", 16, 64},              // kSse2 (no int8 rung below ssse3)
    {"sse2", "ssse3-maddubs", 16, 64},       // kSsse3 (float resolves down)
    {"avx2+fma", "avx2-maddubs", 16, 64},    // kAvx2
    {"avx512", "avx512bw-maddubs", 32, 64},  // kAvx512
    {"avx512", "avx512vnni-vpdpbusd", 32, 127},  // kVnni (float resolves down)
};

// Every tier the host supports, highest first — the sweep order all the
// tests below use.
std::vector<SimdTier> SupportedTiers() {
  std::vector<SimdTier> tiers;
  for (int t = static_cast<int>(DetectedSimdTier()); t >= 0; --t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

TEST(DispatchTest, EveryRungReportsItsContract) {
  TierCapGuard guard;
  for (SimdTier tier : SupportedTiers()) {
    SetSimdTierCap(tier);
    ASSERT_EQ(ActiveSimdTier(), tier);
    const TierContract& want = kContracts[static_cast<int>(tier)];
    EXPECT_STREQ(ActiveGemmKernelName(), want.float_name) << SimdTierName(tier);
    EXPECT_STREQ(ActiveInt8KernelName(), want.int8_name) << SimdTierName(tier);
    EXPECT_EQ(GemmNativePanelWidth(), want.panel_width) << SimdTierName(tier);
    EXPECT_EQ(Int8WeightMax(), want.weight_max) << SimdTierName(tier);
  }
}

TEST(DispatchTest, CapBumpsGenerationAndForceScalarDoesNot) {
  TierCapGuard guard;
  const uint64_t before = SimdDispatchGeneration();
  SetSimdTierCap(SimdTier::kScalar);
  EXPECT_GT(SimdDispatchGeneration(), before);
  // force-scalar swaps the kernel, not the data contract — cached packs and
  // plans stay valid, so it must NOT invalidate them.
  const uint64_t after_cap = SimdDispatchGeneration();
  SetGemmForceScalar(true);
  SetGemmForceScalar(false);
  EXPECT_EQ(SimdDispatchGeneration(), after_cap);
}

// Row counts on and around every tile height the kernels use (4-row tiles,
// 8-row sub-tiles): runs shorter than one tile, exact multiples, and runs
// that end in an overlapped final tile.
constexpr int kParityRowCounts[] = {1, 3, 4, 5, 7, 8, 9, 16, 17, 33};

// C buffers for the parity tests: m rows at ldc = n + kGapColumns plus one
// trailing row, all pre-filled with a sentinel, so a kernel store outside
// [0, m) x [0, n) — an overlapped tile spilling past the last row or a
// panel store past n — shows up as a clobbered sentinel.
constexpr int kGapColumns = 5;

template <typename T>
std::vector<T> SentinelBuffer(int m, int n, T sentinel) {
  return std::vector<T>(static_cast<size_t>(m + 1) * (n + kGapColumns), sentinel);
}

template <typename T>
void ExpectSentinelsSurvive(const std::vector<T>& c, int m, int n, T sentinel,
                            const std::string& where) {
  const int ldc = n + kGapColumns;
  for (int row = 0; row <= m; ++row) {
    for (int col = row < m ? n : 0; col < ldc; ++col) {
      ASSERT_EQ(c[static_cast<size_t>(row) * ldc + col], sentinel)
          << where << ": store outside the output at row " << row << " col " << col;
    }
  }
}

// Float kernels vs the scalar oracle, every rung, both packable widths,
// every row count in kParityRowCounts, into a strided C.
TEST(DispatchTest, FloatParityAcrossLadderAtBothWidths) {
  TierCapGuard guard;
  const int n = 37;
  const int k = 29;
  const int ldc = n + kGapColumns;
  const float sentinel = -12345.0f;  // kBiasRelu outputs are >= 0
  Tensor b = RandomTensor(TensorShape{1, 1, n, k}, 2);
  Tensor bias = RandomTensor(TensorShape{1, 1, 1, n}, 3);
  for (const int m : kParityRowCounts) {
    Tensor a = RandomTensor(TensorShape{1, 1, m, k}, 1);
    for (SimdTier tier : SupportedTiers()) {
      SetSimdTierCap(tier);
      for (const int width : {kGemmTileNMin, kGemmTileNMax}) {
        const std::string where = std::string(SimdTierName(tier)) + " width " +
                                  std::to_string(width) + " m " + std::to_string(m);
        std::vector<float> packed(PackedPanelFloats(n, k, width));
        PackFilterPanels(b.data(), n, k, packed.data(), width);
        std::vector<float> c_tier = SentinelBuffer(m, n, sentinel);
        std::vector<float> c_oracle = SentinelBuffer(m, n, sentinel);
        GemmPackedEx(m, n, k, a.data(), packed.data(), bias.data(),
                     GemmEpilogue::kBiasRelu, c_tier.data(), ldc, width);
        SetGemmForceScalar(true);
        GemmPackedEx(m, n, k, a.data(), packed.data(), bias.data(),
                     GemmEpilogue::kBiasRelu, c_oracle.data(), ldc, width);
        SetGemmForceScalar(false);
        ExpectSentinelsSurvive(c_tier, m, n, sentinel, where);
        for (size_t i = 0; i < c_tier.size(); ++i) {
          ASSERT_NEAR(c_tier[i], c_oracle[i], 1e-4f) << where << " at " << i;
        }
      }
    }
  }
}

// int8 kernels vs the scalar oracle: the accumulation is exact int32 and
// the dequantize epilogue pins its one float contraction with std::fma in
// the oracle (matching the tiers' hardware FMA), so parity is BIT-exact at
// every rung, both widths, every row count, and both sinks (float store and
// requantize-to-u8 store).
TEST(DispatchTest, Int8BitExactParityAcrossLadderAtBothWidths) {
  TierCapGuard guard;
  const int n = 37;
  const int k = 30;
  const int ldc = n + kGapColumns;
  const float sentinel = -12345.0f;
  // kBiasRelu outputs requantize to codes >= the zero point 180, so the u8
  // sentinel is unreachable by any in-bounds store.
  const uint8_t sentinel_u8 = 17;
  Tensor b = RandomTensor(TensorShape{1, 1, n, k}, 4);
  Tensor bias = RandomTensor(TensorShape{1, 1, 1, n}, 5);
  ActivationQuant quant;
  quant.scale = 0.03f;
  quant.zero_point = 131;
  ActivationQuant out_quant;
  out_quant.scale = 0.1f;
  out_quant.zero_point = 180;
  for (const int m : kParityRowCounts) {
    for (SimdTier tier : SupportedTiers()) {
      SetSimdTierCap(tier);
      for (const int width : {kGemmTileNMin, kGemmTileNMax}) {
        const std::string where = std::string(SimdTierName(tier)) + " width " +
                                  std::to_string(width) + " m " + std::to_string(m);
        Int8PackedFilters packed;
        PackFilterPanelsInt8(b.data(), n, k, &packed, width);
        std::vector<uint8_t> a(static_cast<size_t>(m) * packed.k_padded, 0);
        Rng fill_rng(7);  // same codes at every tier
        for (auto& v : a) {
          v = static_cast<uint8_t>(fill_rng.NextBelow(256));
        }
        std::vector<float> c_tier = SentinelBuffer(m, n, sentinel);
        std::vector<float> c_oracle = SentinelBuffer(m, n, sentinel);
        std::vector<uint8_t> u8_tier = SentinelBuffer(m, n, sentinel_u8);
        std::vector<uint8_t> u8_oracle = SentinelBuffer(m, n, sentinel_u8);
        GemmInt8PackedEx(m, a.data(), packed, quant, bias.data(), GemmEpilogue::kBias,
                         c_tier.data(), ldc);
        GemmInt8PackedExU8(m, a.data(), packed, quant, bias.data(), GemmEpilogue::kBiasRelu,
                           out_quant, u8_tier.data(), ldc);
        SetGemmForceScalar(true);
        GemmInt8PackedEx(m, a.data(), packed, quant, bias.data(), GemmEpilogue::kBias,
                         c_oracle.data(), ldc);
        GemmInt8PackedExU8(m, a.data(), packed, quant, bias.data(), GemmEpilogue::kBiasRelu,
                           out_quant, u8_oracle.data(), ldc);
        SetGemmForceScalar(false);
        ExpectSentinelsSurvive(c_tier, m, n, sentinel, where);
        ExpectSentinelsSurvive(u8_tier, m, n, sentinel_u8, where + " u8");
        for (size_t i = 0; i < c_tier.size(); ++i) {
          ASSERT_EQ(c_tier[i], c_oracle[i]) << where << " at " << i;
        }
        for (size_t i = 0; i < u8_tier.size(); ++i) {
          ASSERT_EQ(u8_tier[i], u8_oracle[i]) << where << " u8 at " << i;
        }
      }
    }
  }
}

// Every rung must produce the SAME bits on shared packed data. The data is
// packed once under the ±64 clamp (safe on every tier: maddubs cannot
// saturate at ±64, vpdpbusd is exact at any clamp), then fed unchanged to
// each rung's kernel — including widths the rung has no intrinsic tile for,
// which exercises the graceful scalar fallback.
TEST(DispatchTest, Int8CrossTierBitIdentityOnSharedPack) {
  TierCapGuard guard;
  const int m = 9;
  const int n = 41;
  const int k = 26;
  Tensor b = RandomTensor(TensorShape{1, 1, n, k}, 8);
  Tensor bias = RandomTensor(TensorShape{1, 1, 1, n}, 9);
  ActivationQuant quant;
  quant.scale = 0.02f;
  quant.zero_point = 117;
  SetSimdTierCap(SimdTier::kScalar);  // clamp 64: saturation-safe everywhere
  ASSERT_EQ(Int8WeightMax(), 64);
  for (const int width : {kGemmTileNMin, kGemmTileNMax}) {
    Int8PackedFilters packed;
    PackFilterPanelsInt8(b.data(), n, k, &packed, width);
    std::vector<uint8_t> a(static_cast<size_t>(m) * packed.k_padded, 0);
    Rng fill_rng(10);
    for (auto& v : a) {
      v = static_cast<uint8_t>(fill_rng.NextBelow(256));
    }
    std::vector<float> reference;
    for (SimdTier tier : SupportedTiers()) {
      SetSimdTierCap(tier);
      std::vector<float> c(static_cast<size_t>(m) * n, -1.0f);
      GemmInt8PackedEx(m, a.data(), packed, quant, bias.data(), GemmEpilogue::kBiasRelu,
                       c.data(), n);
      if (reference.empty()) {
        reference = c;
        continue;
      }
      for (size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], reference[i]) << SimdTierName(tier) << " width " << width
                                      << " diverges from the top rung at " << i;
      }
    }
    SetSimdTierCap(SimdTier::kScalar);  // repack the next width under ±64
  }
}

// A conv running int8 forwards across a cap change must repack under the
// new contract (the pack caches key on width AND clamp) and keep producing
// finite, plan-consistent output — this is the vnni <-> avx512 flip where
// the width stays 32 and only the clamp moves.
TEST(DispatchTest, NetworkSurvivesCapFlipBetweenForwards) {
  TierCapGuard guard;
  Rng rng(11);
  Network net;
  net.Add<Conv2D>(3, 20, 3, 1, 1, rng, "c1");
  net.SetTrainingMode(false);
  net.SetPrecision(Precision::kInt8);
  Tensor input = RandomTensor(TensorShape{1, 8, 8, 3}, 12);
  for (SimdTier tier : SupportedTiers()) {
    SetSimdTierCap(tier);
    Tensor out = net.Forward(input);  // re-plans: the dispatch generation moved
    for (int64_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(std::isfinite(out[i])) << SimdTierName(tier);
    }
  }
}

// PCVW v2 artifacts record the clamp their codes were quantized under. When
// that clamp is wider than the ACTIVE tier allows, the loader must drop the
// quantized payload (falling back to float requantization at pack time)
// rather than hand ±127 codes to a saturating maddubs kernel.
TEST(DispatchSerializeTest, WiderClampArtifactDropsPayloadUnderCap) {
  TierCapGuard guard;
  const size_t kWeightMaxOffset = 8;  // magic(4) version(4) weight_max(4) ...
  SetSimdTierCap(SimdTier::kScalar);  // write under the ±64 contract
  Rng rng(13);
  Network donor;
  donor.Add<Conv2D>(2, 4, 1, 1, 0, rng, "c1");
  const std::vector<uint8_t> narrow = SerializeWeightsInt8(donor);
  uint32_t file_max = 0;
  std::memcpy(&file_max, narrow.data() + kWeightMaxOffset, sizeof(file_max));
  ASSERT_EQ(file_max, 64u);

  // In-contract artifact: the payload must survive the load.
  Rng rng2(14);
  Network victim;
  victim.Add<Conv2D>(2, 4, 1, 1, 0, rng2, "c1");
  ASSERT_TRUE(DeserializeWeights(victim, narrow));
  std::vector<Parameter*> params = victim.Parameters();
  ASSERT_FALSE(params.empty());
  EXPECT_NE(params[0]->quantized, nullptr) << "in-contract payload was dropped";

  // The same bytes claiming the ±127 VNNI contract: wider than this capped
  // tier allows, so the loader keeps the floats and drops the codes.
  std::vector<uint8_t> wide = narrow;
  const uint32_t vnni_max = 127;
  std::memcpy(wide.data() + kWeightMaxOffset, &vnni_max, sizeof(vnni_max));
  Rng rng3(14);
  Network victim2;
  victim2.Add<Conv2D>(2, 4, 1, 1, 0, rng3, "c1");
  ASSERT_TRUE(DeserializeWeights(victim2, wide));
  std::vector<Parameter*> params2 = victim2.Parameters();
  ASSERT_FALSE(params2.empty());
  EXPECT_EQ(params2[0]->quantized, nullptr) << "out-of-contract payload was kept";
  // The float views are identical either way — only the codes were dropped.
  for (int64_t i = 0; i < params[0]->value.size(); ++i) {
    ASSERT_EQ(params[0]->value[i], params2[0]->value[i]);
  }
}

}  // namespace
}  // namespace percival
