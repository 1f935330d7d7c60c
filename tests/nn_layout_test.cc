// Tests for the kernel planner: 16- vs native-panel-width parity on every
// kernel tier including the force-scalar oracle, plan-keyed pack-cache
// invalidation, the planner heuristic's narrow-shape pick,
// u8-direct preprocessing vs float-then-quantize bit-identity (kernel level
// and end-to-end classifier decisions), and the 64-image accuracy guard
// rerun under the planner's narrow-panel choice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/rng.h"
#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/img/resize.h"
#include "src/nn/conv.h"
#include "src/nn/fire.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/ops.h"
#include "src/webgen/adgen.h"
#include "src/webgen/contentgen.h"

namespace percival {
namespace {

Tensor RandomTensor(const TensorShape& shape, uint64_t seed, float lo = -1.0f,
                    float hi = 1.0f) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(lo, hi);
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

// Restores the planner's global pinning knobs on scope exit so a failing
// assertion cannot leak an override into later tests.
struct ScopedPlannerOverrides {
  ~ScopedPlannerOverrides() {
    SetPlannerPanelOverride(0);
    SetPlannerGatherPolicy(GatherPolicyMode::kAuto);
  }
};

// ------------------------------------------------------ panel-width parity --

// Kernel-level: the same B packed at the native width and at 16 must
// produce the same C across randomized shapes (partial panels, remainder
// rows), intrinsic and force-scalar.
TEST(PanelTest, KernelLevelPanelParityFloat) {
  Rng shape_rng(81);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 1 + static_cast<int>(shape_rng.NextBelow(21));
    const int n = 1 + static_cast<int>(shape_rng.NextBelow(2 * GemmNativePanelWidth() + 9));
    const int k = 1 + static_cast<int>(shape_rng.NextBelow(60));
    Tensor a = RandomTensor(TensorShape{1, 1, m, k}, 400 + trial);
    Tensor b = RandomTensor(TensorShape{1, 1, n, k}, 500 + trial);
    Tensor bias = RandomTensor(TensorShape{1, 1, 1, n}, 600 + trial);

    std::vector<float> packed_native(PackedPanelFloats(n, k, GemmNativePanelWidth()));
    std::vector<float> packed_narrow(PackedPanelFloats(n, k, kGemmTileNMin));
    PackFilterPanels(b.data(), n, k, packed_native.data(), GemmNativePanelWidth());
    PackFilterPanels(b.data(), n, k, packed_narrow.data(), kGemmTileNMin);

    for (const bool force_scalar : {false, true}) {
      std::vector<float> c_native(static_cast<size_t>(m) * n, -1.0f);
      std::vector<float> c_narrow(static_cast<size_t>(m) * n, 1.0f);
      SetGemmForceScalar(force_scalar);
      GemmPackedEx(m, n, k, a.data(), packed_native.data(), bias.data(),
                   GemmEpilogue::kBiasRelu, c_native.data(), n, GemmNativePanelWidth());
      GemmPackedEx(m, n, k, a.data(), packed_narrow.data(), bias.data(),
                   GemmEpilogue::kBiasRelu, c_narrow.data(), n, kGemmTileNMin);
      SetGemmForceScalar(false);
      for (size_t i = 0; i < c_native.size(); ++i) {
        ASSERT_NEAR(c_native[i], c_narrow[i], 1e-5f)
            << "m=" << m << " n=" << n << " k=" << k << " scalar=" << force_scalar;
      }
    }
  }
}

// Int8 panel parity is exact: both widths sum the same integer products and
// run the identical dequantizing store per element.
TEST(PanelTest, KernelLevelPanelParityInt8) {
  Rng shape_rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 1 + static_cast<int>(shape_rng.NextBelow(19));
    const int n = 1 + static_cast<int>(shape_rng.NextBelow(2 * GemmNativePanelWidth() + 9));
    const int k = 1 + static_cast<int>(shape_rng.NextBelow(50));
    Tensor b = RandomTensor(TensorShape{1, 1, n, k}, 700 + trial);
    Int8PackedFilters native;
    Int8PackedFilters narrow;
    PackFilterPanelsInt8(b.data(), n, k, &native, GemmNativePanelWidth());
    PackFilterPanelsInt8(b.data(), n, k, &narrow, kGemmTileNMin);
    ASSERT_EQ(native.panel_width, GemmNativePanelWidth());
    ASSERT_EQ(narrow.panel_width, kGemmTileNMin);

    Rng code_rng(800 + static_cast<uint64_t>(trial));
    std::vector<uint8_t> a(static_cast<size_t>(m) * native.k_padded, 0);
    for (auto& v : a) {
      v = static_cast<uint8_t>(code_rng.NextBelow(256));
    }
    ActivationQuant quant;
    quant.scale = 0.02f;
    quant.zero_point = static_cast<int32_t>(code_rng.NextBelow(256));
    Tensor bias = RandomTensor(TensorShape{1, 1, 1, n}, 900 + trial);

    for (const bool force_scalar : {false, true}) {
      std::vector<float> c_native(static_cast<size_t>(m) * n, -3.0f);
      std::vector<float> c_narrow(static_cast<size_t>(m) * n, 3.0f);
      SetGemmForceScalar(force_scalar);
      GemmInt8PackedEx(m, a.data(), native, quant, bias.data(), GemmEpilogue::kBias,
                       c_native.data(), n);
      GemmInt8PackedEx(m, a.data(), narrow, quant, bias.data(), GemmEpilogue::kBias,
                       c_narrow.data(), n);
      SetGemmForceScalar(false);
      for (size_t i = 0; i < c_native.size(); ++i) {
        ASSERT_EQ(c_native[i], c_narrow[i])
            << "m=" << m << " n=" << n << " k=" << k << " scalar=" << force_scalar;
      }
    }
  }
}

// Conv-level parity across panel widths, float and int8, fused fire module
// included — the shapes the planner actually flips.
TEST(PanelTest, ConvAndFireMatchAcrossPanelWidths) {
  for (const int width : {kGemmTileNMin, GemmNativePanelWidth()}) {
    SCOPED_TRACE(width);
    Rng rng_a(17);
    Rng rng_b(17);
    FireModule base(32, 8, 16, rng_a);
    FireModule pinned(32, 8, 16, rng_b);
    KernelPlan plan;
    plan.panel_width = width;
    pinned.squeeze().SetKernelPlan(plan);
    pinned.expand1x1().SetKernelPlan(plan);
    pinned.expand3x3().SetKernelPlan(plan);

    Tensor input = RandomTensor(TensorShape{1, 12, 12, 32}, 18);
    Tensor expected = base.Forward(input);
    Tensor actual = pinned.Forward(input);
    EXPECT_LE(MaxAbsDiff(expected, actual), 1e-5f) << "float fire, panel " << width;

    base.SetPrecision(Precision::kInt8);
    pinned.SetPrecision(Precision::kInt8);
    Tensor expected_i8 = base.Forward(input);
    Tensor actual_i8 = pinned.Forward(input);
    ASSERT_TRUE(expected_i8.shape() == actual_i8.shape());
    for (int64_t i = 0; i < expected_i8.size(); ++i) {
      ASSERT_EQ(expected_i8[i], actual_i8[i]) << "int8 fire, panel " << width;
    }
  }
}

// --------------------------------------------------------- planner choices --

TEST(PlannerTest, NarrowShapesPickThe16WideTile) {
  ScopedPlannerOverrides restore;
  Rng rng(21);
  Conv2D narrow(32, 8, 1, 1, 0, rng);
  Conv2D edge(32, 16, 3, 1, 1, rng);
  Conv2D wide(32, 64, 3, 1, 1, rng);
  const TensorShape shape{1, 8, 8, 32};
  narrow.PlanKernels(shape);
  edge.PlanKernels(shape);
  wide.PlanKernels(shape);
  if (GemmNativePanelWidth() > kGemmTileNMin) {
    // AVX-512 build: narrow output channels take the 16-wide sub-tile.
    EXPECT_EQ(narrow.plan().panel_width, kGemmTileNMin);
    EXPECT_EQ(edge.plan().panel_width, kGemmTileNMin);
  } else {
    EXPECT_EQ(narrow.plan().panel_width, GemmNativePanelWidth());
  }
  EXPECT_EQ(wide.plan().panel_width, GemmNativePanelWidth());
  EXPECT_EQ(narrow.plan().gather, GatherPolicy::kMaterialize);

  // Fire planning hands each inner conv its true input shape.
  Rng fire_rng(22);
  FireModule fire(64, 16, 64, fire_rng);
  fire.PlanKernels(TensorShape{1, 8, 8, 64});
  if (GemmNativePanelWidth() > kGemmTileNMin) {
    EXPECT_EQ(fire.squeeze().plan().panel_width, kGemmTileNMin);
    EXPECT_EQ(fire.expand1x1().plan().panel_width, GemmNativePanelWidth());
    EXPECT_EQ(fire.expand3x3().plan().panel_width, GemmNativePanelWidth());
  }

  // Global pinning overrides the heuristic (the A/B knob benches use).
  SetPlannerPanelOverride(kGemmTileNMin);
  wide.PlanKernels(shape);
  EXPECT_EQ(wide.plan().panel_width, kGemmTileNMin);
  SetPlannerPanelOverride(0);
  SetPlannerGatherPolicy(GatherPolicyMode::kForceImplicit);
  wide.PlanKernels(shape);
  EXPECT_EQ(wide.plan().gather, GatherPolicy::kImplicit);
  SetPlannerGatherPolicy(GatherPolicyMode::kAuto);

  // Plan rows surface the decisions for logging / bench JSON.
  std::vector<KernelPlanRow> rows;
  fire.AppendKernelPlanRows(&rows);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].panel_width, fire.squeeze().plan().panel_width);
}

// A plan pinned via SetKernelPlan must survive later PlanKernels calls —
// Network::PlanForward re-plans on every input-shape change, and a pin the
// replan silently reverted would make an A/B measure the heuristic's
// kernel while reporting the pinned one.
TEST(PlannerTest, PinnedPlanSurvivesReplanning) {
  Rng rng(25);
  Conv2D conv(32, 64, 3, 1, 1, rng);
  const TensorShape shape{1, 8, 8, 32};
  KernelPlan pinned;
  pinned.panel_width = kGemmTileNMin;
  pinned.gather = GatherPolicy::kImplicit;
  conv.SetKernelPlan(pinned);
  conv.PlanKernels(shape);
  EXPECT_EQ(conv.plan().panel_width, kGemmTileNMin);
  EXPECT_EQ(conv.plan().gather, GatherPolicy::kImplicit);
  conv.ClearKernelPlanPin();
  conv.PlanKernels(shape);
  EXPECT_EQ(conv.plan().panel_width, GemmNativePanelWidth());  // 64 channels -> native width
  // A 6-column interior is narrower than kImplicitMinInteriorRun.
  EXPECT_EQ(conv.plan().gather, GatherPolicy::kMaterialize);
}

// Flipping the plan must invalidate the pack caches (stale panels packed at
// another width would produce garbage, not parity), while weight
// invalidation keeps working under a constant plan.
TEST(PlannerTest, PlanKeyedPackCacheInvalidation) {
  Rng rng(31);
  Conv2D conv(8, 24, 3, 1, 1, rng);
  Tensor input = RandomTensor(TensorShape{1, 9, 9, 8}, 32, 0.0f, 1.0f);

  // Float: warm the cache at the native width, then flip width and gather.
  Tensor base = conv.Forward(input);
  KernelPlan plan;
  plan.panel_width = kGemmTileNMin;
  conv.SetKernelPlan(plan);
  EXPECT_LE(MaxAbsDiff(base, conv.Forward(input)), 1e-5f) << "narrow-panel repack";
  plan.gather = GatherPolicy::kImplicit;
  conv.SetKernelPlan(plan);
  EXPECT_LE(MaxAbsDiff(base, conv.Forward(input)), 1e-5f) << "implicit-gather repack";

  // Int8: same dance, bit-exact expectations.
  conv.SetKernelPlan(KernelPlan{});
  conv.SetPrecision(Precision::kInt8);
  Tensor base_i8 = conv.Forward(input);
  conv.SetKernelPlan(plan);  // narrow + implicit at once
  Tensor flipped_i8 = conv.Forward(input);
  for (int64_t i = 0; i < base_i8.size(); ++i) {
    ASSERT_EQ(base_i8[i], flipped_i8[i]);
  }

  // Weight mutation still invalidates under an unchanged plan.
  Tensor new_weights = RandomTensor(conv.weights().value.shape(), 33);
  Tensor new_bias = RandomTensor(conv.bias().value.shape(), 34);
  conv.SetWeights(new_weights, new_bias);
  EXPECT_GT(MaxAbsDiff(flipped_i8, conv.Forward(input)), 1e-3f)
      << "stale pack survived SetWeights under a pinned plan";
}

// ------------------------------------------------------- u8-direct parity --

// The fused resize->quantize preprocessing must produce byte-identical
// codes to the float staging pipeline under the same quantization.
TEST(U8DirectTest, PreprocessingBitIdenticalToFloatThenQuantize) {
  Rng rng(41);
  AdImageOptions options;
  Bitmap ad = GenerateAdImage(rng, options);
  for (const float max_value : {1.0f, 0.75f, 2.5f}) {
    const ActivationQuant quant = ComputeActivationQuant(0.0f, max_value);
    for (const int channels : {3, 4}) {
      const int size = 48;
      Tensor staged(1, size, size, channels);
      BitmapToTensorInto(ad, size, channels, staged.data());
      std::vector<uint8_t> via_float(static_cast<size_t>(staged.size()));
      QuantizeActivations(staged.data(), staged.size(), quant, via_float.data());

      std::vector<uint8_t> direct(static_cast<size_t>(staged.size()), 0);
      BitmapToTensorU8Into(ad, size, channels, quant.scale, quant.zero_point,
                           direct.data());
      ASSERT_EQ(via_float, direct) << "max=" << max_value << " channels=" << channels;
    }
  }
}

// End-to-end: a u8-direct classifier and a float-then-quantize classifier
// over the same weights must make bit-identical decisions (and probabilities)
// — the first conv's pinned input calibration gives both pipelines one
// shared quantization, and the LUT preprocessing reproduces it exactly.
TEST(U8DirectTest, ClassifierDecisionsBitIdentical) {
  const PercivalNetConfig config = TestProfile();
  AdClassifier direct(BuildPercivalNet(config), config);
  AdClassifier staged(BuildPercivalNet(config), config);
  staged.set_use_u8_direct(false);
  direct.SetPrecision(Precision::kInt8);
  staged.SetPrecision(Precision::kInt8);
  EXPECT_TRUE(direct.u8_direct_active());
  EXPECT_FALSE(staged.u8_direct_active());
  // Match the calibration the u8-direct classifier pinned on its first conv
  // so the staged float path quantizes identically.
  const ActivationCalibration unit_range{0.0f, 1.0f, true};
  staged.network().layer(0).ConsumeCalibration(&unit_range, 1);

  Rng rng(51);
  std::vector<Bitmap> images;
  for (int i = 0; i < 12; ++i) {
    if (i % 2 == 0) {
      AdImageOptions options;
      images.push_back(GenerateAdImage(rng, options));
    } else {
      ContentImageOptions options;
      images.push_back(GenerateContentImage(rng, options));
    }
  }
  for (const Bitmap& image : images) {
    const ClassifyResult a = direct.Classify(image);
    const ClassifyResult b = staged.Classify(image);
    ASSERT_EQ(a.ad_probability, b.ad_probability) << "u8-direct drifted from float staging";
    ASSERT_EQ(a.is_ad, b.is_ad);
  }

  // Batch path parity too.
  std::vector<const Bitmap*> batch;
  for (const Bitmap& image : images) {
    batch.push_back(&image);
  }
  const std::vector<ClassifyResult> a_batch = direct.ClassifyBatch(batch);
  const std::vector<ClassifyResult> b_batch = staged.ClassifyBatch(batch);
  ASSERT_EQ(a_batch.size(), b_batch.size());
  for (size_t i = 0; i < a_batch.size(); ++i) {
    ASSERT_EQ(a_batch[i].ad_probability, b_batch[i].ad_probability);
  }

  // Every direct classification ran without the float staging tensor; every
  // staged one kept it.
  EXPECT_EQ(direct.stats().u8_direct, direct.stats().classified);
  EXPECT_EQ(staged.stats().u8_direct, 0);
}

// The u8-direct classify path is allocation-free at steady state: after the
// first classification warms the thread's buffers, the scratch arena stops
// growing (the float staging tensor never existed — asserted above via the
// u8_direct stat — and the code buffer is reused).
TEST(U8DirectTest, SteadyStateArenaStable) {
  const PercivalNetConfig config = TestProfile();
  AdClassifier classifier(BuildPercivalNet(config), config);
  classifier.SetPrecision(Precision::kInt8);
  ASSERT_TRUE(classifier.u8_direct_active());

  Rng rng(55);
  AdImageOptions options;
  Bitmap ad = GenerateAdImage(rng, options);
  classifier.Classify(ad);  // warmup: sizes the code buffer + arena
  const size_t warm_capacity = LocalArena().CapacityFloats();
  for (int i = 0; i < 5; ++i) {
    classifier.Classify(ad);
    ASSERT_EQ(LocalArena().CapacityFloats(), warm_capacity)
        << "arena grew on steady-state u8-direct classification " << i;
  }
  EXPECT_EQ(classifier.stats().u8_direct, classifier.stats().classified);
}

// -------------------------------------------- accuracy guard under planner --

// The 64-image float-vs-int8 accuracy guard, rerun with the planner pinned
// to the narrow panel on every conv (the plan the heuristic picks for the
// narrow profiles): quantized decisions must not drift under the planner's
// kernel choices.
TEST(PlannerGuardTest, AccuracyGuardUnderNarrowPanelPlan) {
  ScopedPlannerOverrides restore;
  SetPlannerPanelOverride(kGemmTileNMin);

  const PercivalNetConfig config = TestProfile();
  Network float_net = BuildPercivalNet(config);
  Network int8_net = BuildPercivalNet(config);  // same init_seed -> same weights
  int8_net.SetPrecision(Precision::kInt8);
  float_net.SetTrainingMode(false);
  int8_net.SetTrainingMode(false);

  const int kBatch = 64;
  Rng rng(123);
  std::vector<Bitmap> images;
  images.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    if (i % 2 == 0) {
      AdImageOptions options;
      images.push_back(GenerateAdImage(rng, options));
    } else {
      ContentImageOptions options;
      images.push_back(GenerateContentImage(rng, options));
    }
  }
  Tensor batch(kBatch, config.input_size, config.input_size, config.input_channels);
  for (int i = 0; i < kBatch; ++i) {
    BitmapToTensorInto(images[static_cast<size_t>(i)], config.input_size,
                       config.input_channels, batch.SampleData(i));
  }

  Tensor float_logits = float_net.Forward(batch);
  Tensor int8_logits = int8_net.Forward(batch);
  // The forward planned under the override: every conv runs the 16-wide tile.
  for (const KernelPlanRow& row : int8_net.CollectKernelPlanRows()) {
    ASSERT_EQ(row.panel_width, kGemmTileNMin) << row.layer;
  }

  int agree = 0;
  float worst_logit_diff = 0.0f;
  for (int i = 0; i < kBatch; ++i) {
    if (float_logits.ArgMaxInSample(i) == int8_logits.ArgMaxInSample(i)) {
      ++agree;
    }
    for (int c = 0; c < config.classes; ++c) {
      worst_logit_diff = std::max(
          worst_logit_diff, std::abs(float_logits.at(i, 0, 0, c) - int8_logits.at(i, 0, 0, c)));
    }
  }
  EXPECT_GE(static_cast<double>(agree) / kBatch, 0.99)
      << "int8 under the narrow-panel plan flipped " << (kBatch - agree) << " decisions";
  EXPECT_LE(worst_logit_diff, 0.05f);
}

}  // namespace
}  // namespace percival
