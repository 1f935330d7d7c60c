// Tests for the fused-operator inference engine: Conv+bias+ReLU folded into
// the GEMM epilogue, FireModule writing expand branches directly into its
// concat output, the persistent packed-weight cache and its invalidation
// paths (optimizer step, SetWeights, deserialize), and the forward-plan
// workspace that makes even the first inference arena-allocation-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/rng.h"
#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/fire.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/optimizer.h"
#include "src/nn/serialize.h"

namespace percival {
namespace {

constexpr float kTolerance = 1e-4f;

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

// ------------------------------------------------- fused epilogue parity --

// relu(conv(x) + bias) via the fused epilogue must match the naive-oracle
// conv followed by a separate ReLU, across randomized shapes that cover
// identity-patch 1x1s, strided odd kernels, and panel-edge channel counts.
TEST(FusedEpilogueTest, ConvBiasReluMatchesUnfusedOracle) {
  Rng shape_rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const int in_channels = 1 + static_cast<int>(shape_rng.NextBelow(8));
    const int out_channels = 1 + static_cast<int>(shape_rng.NextBelow(36));
    const int kernels[] = {1, 3, 5};
    const int kernel = kernels[shape_rng.NextBelow(3)];
    const int stride = 1 + static_cast<int>(shape_rng.NextBelow(2));
    const int pad = static_cast<int>(shape_rng.NextBelow(static_cast<uint64_t>(kernel / 2 + 1)));
    const int min_side = std::max(1, kernel - 2 * pad);
    const int h = min_side + static_cast<int>(shape_rng.NextBelow(12));
    const int w = min_side + static_cast<int>(shape_rng.NextBelow(12));
    const int n = 1 + static_cast<int>(shape_rng.NextBelow(2));

    Rng rng(100 + static_cast<uint64_t>(trial));
    Conv2D conv(in_channels, out_channels, kernel, stride, pad, rng);
    Tensor input = RandomTensor(TensorShape{n, h, w, in_channels},
                                200 + static_cast<uint64_t>(trial));

    conv.set_use_gemm(false);
    Tensor expected = conv.Forward(input);
    Relu relu;
    expected = relu.Forward(expected);

    conv.set_use_gemm(true);
    Tensor fused = conv.Infer(input, OutputSpec{}, GemmEpilogue::kBiasRelu);

    EXPECT_LE(MaxAbsDiff(expected, fused), kTolerance)
        << conv.Name() << " on " << input.shape().ToString();
    for (int64_t i = 0; i < fused.size(); ++i) {
      ASSERT_GE(fused[i], 0.0f) << "fused ReLU let a negative through at " << i;
    }
  }
}

// ------------------------------------------------ fire direct-concat parity --

TEST(FusedFireTest, DirectConcatMatchesLayerByLayerReference) {
  Rng shape_rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const int in_channels = 2 + static_cast<int>(shape_rng.NextBelow(14));
    const int squeeze = 1 + static_cast<int>(shape_rng.NextBelow(6));
    const int expand = 2 + static_cast<int>(shape_rng.NextBelow(20));
    const int side = 3 + static_cast<int>(shape_rng.NextBelow(12));
    const int n = 1 + static_cast<int>(shape_rng.NextBelow(2));

    Rng rng(300 + static_cast<uint64_t>(trial));
    FireModule fire(in_channels, squeeze, expand, rng);
    Tensor input = RandomTensor(TensorShape{n, side, side, in_channels},
                                400 + static_cast<uint64_t>(trial));

    fire.set_use_fused(false);
    Tensor reference = fire.Forward(input);
    fire.set_use_fused(true);
    Tensor fused = fire.Forward(input);

    EXPECT_LE(MaxAbsDiff(reference, fused), kTolerance)
        << fire.Name() << " on " << input.shape().ToString();
  }
}

// Backward after a fused forward must produce the same gradients as after
// the reference forward: the masks reconstructed from fused outputs and the
// conv state cached by Infer feed the exact same backward math.
TEST(FusedFireTest, BackwardAfterFusedForwardMatchesReference) {
  Rng rng(23);
  FireModule fire(5, 3, 7, rng);
  Tensor input = RandomTensor(TensorShape{2, 6, 6, 5}, 24);
  Tensor grad = RandomTensor(fire.OutputShape(input.shape()), 25);

  auto run = [&](bool fused) {
    fire.set_use_fused(fused);
    fire.Forward(input);
    for (Parameter* p : fire.Parameters()) {
      p->grad.Zero();
    }
    return fire.Backward(grad);
  };
  Tensor ref_dx = run(false);
  std::vector<Tensor> ref_grads;
  for (Parameter* p : fire.Parameters()) {
    ref_grads.push_back(p->grad);
  }

  Tensor fused_dx = run(true);
  EXPECT_LE(MaxAbsDiff(ref_dx, fused_dx), kTolerance);
  size_t i = 0;
  for (Parameter* p : fire.Parameters()) {
    EXPECT_LE(MaxAbsDiff(ref_grads[i], p->grad), kTolerance) << p->name;
    ++i;
  }
}

// --------------------------------------------- packed-weight cache behavior --

// The packed panels persist across forwards; an optimizer step must
// invalidate them so the next forward sees the updated weights.
TEST(PackedCacheTest, OptimizerStepInvalidatesPackedWeights) {
  Rng rng(31);
  Conv2D conv(3, 8, 3, 1, 1, rng);
  Tensor input = RandomTensor(TensorShape{1, 8, 8, 3}, 32);
  Tensor before = conv.Forward(input);

  // A non-trivial gradient and one SGD step.
  conv.weights().grad.Fill(0.5f);
  conv.bias().grad.Fill(0.25f);
  SgdConfig config;
  config.learning_rate = 0.1f;
  config.momentum = 0.0f;
  config.max_grad_norm = 0.0f;
  SgdOptimizer optimizer(conv.Parameters(), config);
  optimizer.Step();

  Tensor after = conv.Forward(input);
  EXPECT_GT(MaxAbsDiff(before, after), 1e-3f)
      << "forward unchanged after optimizer step: stale packed weights";

  // And the refreshed pack must agree with the naive oracle on the new
  // weights, not merely differ from the old output.
  conv.set_use_gemm(false);
  Tensor oracle = conv.Forward(input);
  EXPECT_LE(MaxAbsDiff(oracle, after), kTolerance);
}

TEST(PackedCacheTest, SetWeightsInvalidatesPackedWeights) {
  Rng rng(41);
  Conv2D conv(2, 6, 1, 1, 0, rng);
  Tensor input = RandomTensor(TensorShape{1, 5, 5, 2}, 42);
  Tensor before = conv.Forward(input);

  Tensor new_weights = RandomTensor(conv.weights().value.shape(), 43);
  Tensor new_bias = RandomTensor(conv.bias().value.shape(), 44);
  conv.SetWeights(new_weights, new_bias);

  Tensor after = conv.Forward(input);
  EXPECT_GT(MaxAbsDiff(before, after), 1e-3f);

  conv.set_use_gemm(false);
  Tensor oracle = conv.Forward(input);
  EXPECT_LE(MaxAbsDiff(oracle, after), kTolerance);
}

// In-place mutation of weights().value without MarkDirty() is intentionally
// not detected — the version counter is the invalidation contract. This
// pins that contract: stale until marked, fresh after.
TEST(PackedCacheTest, ManualMutationRequiresMarkDirty) {
  Rng rng(51);
  Conv2D conv(2, 4, 1, 1, 0, rng);
  Tensor input = RandomTensor(TensorShape{1, 4, 4, 2}, 52);
  Tensor before = conv.Forward(input);

  for (int64_t i = 0; i < conv.weights().value.size(); ++i) {
    conv.weights().value[i] += 1.0f;
  }
  Tensor stale = conv.Forward(input);
  EXPECT_LE(MaxAbsDiff(before, stale), 1e-6f) << "unmarked mutation should hit the cache";

  conv.weights().MarkDirty();
  Tensor fresh = conv.Forward(input);
  EXPECT_GT(MaxAbsDiff(before, fresh), 1e-3f);
}

TEST(PackedCacheTest, DeserializeInvalidatesPackedWeights) {
  Rng rng_a(61);
  Rng rng_b(62);
  Network net;
  net.Add<Conv2D>(2, 5, 3, 1, 1, rng_a, "conv");
  Network donor;
  donor.Add<Conv2D>(2, 5, 3, 1, 1, rng_b, "conv");

  Tensor input = RandomTensor(TensorShape{1, 7, 7, 2}, 63);
  Tensor before = net.Forward(input);
  Tensor donor_out = donor.Forward(input);

  ASSERT_TRUE(DeserializeWeights(net, SerializeWeights(donor)));
  Tensor after = net.Forward(input);
  EXPECT_GT(MaxAbsDiff(before, after), 1e-3f) << "stale pack survived deserialize";
  EXPECT_LE(MaxAbsDiff(donor_out, after), kTolerance);
}

// ------------------------------------------------- forward-plan workspace --

TEST(ForwardPlanTest, FirstForwardAfterPlanIsArenaAllocationFree) {
  Rng rng(71);
  Network net;
  net.Add<Conv2D>(3, 12, 3, 1, 1, rng, "conv1");
  net.Add<Relu>();
  net.Add<FireModule>(12, 4, 8, rng, "fire1");

  const TensorShape input_shape{1, 20, 20, 3};
  net.PlanForward(input_shape);
  const size_t reserved = LocalArena().CapacityFloats();

  Tensor input = RandomTensor(input_shape, 72);
  net.Forward(input);
  EXPECT_EQ(LocalArena().CapacityFloats(), reserved)
      << "first planned forward still grew the arena";

  // Steady state holds too.
  for (int i = 0; i < 3; ++i) {
    net.Forward(input);
  }
  EXPECT_EQ(LocalArena().CapacityFloats(), reserved);
}

TEST(ForwardPlanTest, ShapeChangeReplansAutomatically) {
  Rng rng(81);
  Network net;
  net.Add<Conv2D>(2, 6, 3, 1, 1, rng, "conv1");

  Tensor small = RandomTensor(TensorShape{1, 8, 8, 2}, 82);
  net.Forward(small);
  Tensor big = RandomTensor(TensorShape{2, 30, 30, 2}, 83);
  net.Forward(big);  // must replan, not crash or under-allocate
  const size_t grown = LocalArena().CapacityFloats();
  net.Forward(big);
  EXPECT_EQ(LocalArena().CapacityFloats(), grown);
}

}  // namespace
}  // namespace percival
