// Parity tests for the GEMM inference engine: the register-blocked path in
// src/nn/gemm.cc must agree with the naive dot-product oracle (ForwardNaive)
// within 1e-4 on every shape the networks use — odd kernels, stride 2,
// padding, 1-channel squeeze layers, panel-edge channel counts — plus a
// finite-difference gradient check so training on top of the GEMM forward
// is not silently broken, and allocation/arena behavior checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/nn/conv.h"
#include "src/nn/gemm.h"
#include "src/nn/ops.h"

namespace percival {
namespace {

constexpr float kParityTolerance = 1e-4f;

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

struct ConvCase {
  int in_channels;
  int out_channels;
  int kernel;
  int stride;
  int pad;
  int n;
  int h;
  int w;
};

void ExpectGemmMatchesNaive(const ConvCase& c, uint64_t seed) {
  Rng rng(seed);
  Conv2D conv(c.in_channels, c.out_channels, c.kernel, c.stride, c.pad, rng);
  Tensor input = RandomTensor(TensorShape{c.n, c.h, c.w, c.in_channels}, seed + 1);

  conv.set_use_gemm(false);
  Tensor naive = conv.Forward(input);
  conv.set_use_gemm(true);
  Tensor gemm = conv.Forward(input);

  EXPECT_LE(MaxAbsDiff(naive, gemm), kParityTolerance)
      << conv.Name() << " on input " << input.shape().ToString();
}

TEST(GemmConvParityTest, OneChannelSqueeze1x1) {
  ExpectGemmMatchesNaive(ConvCase{1, 4, 1, 1, 0, 1, 9, 7}, 11);
}

TEST(GemmConvParityTest, Odd3x3Padded) {
  ExpectGemmMatchesNaive(ConvCase{3, 8, 3, 1, 1, 1, 16, 16}, 12);
}

TEST(GemmConvParityTest, Odd5x5Stride2) {
  ExpectGemmMatchesNaive(ConvCase{4, 12, 5, 2, 2, 1, 17, 19}, 13);
}

TEST(GemmConvParityTest, Odd7x7Stride2NoPad) {
  ExpectGemmMatchesNaive(ConvCase{2, 6, 7, 2, 0, 1, 21, 15}, 14);
}

TEST(GemmConvParityTest, PanelEdgeChannelCounts) {
  // Out-channel counts straddling the GemmNativePanelWidth() panel width exercise the
  // zero-padded panel edge and the partial StoreTileRow.
  for (int oc : {1, 3, GemmNativePanelWidth() - 1, GemmNativePanelWidth(), GemmNativePanelWidth() + 1, 2 * GemmNativePanelWidth() + 5}) {
    ExpectGemmMatchesNaive(ConvCase{3, oc, 3, 1, 1, 1, 10, 10},
                           100 + static_cast<uint64_t>(oc));
  }
}

TEST(GemmConvParityTest, RowRemainderTiles) {
  // 5x5 output = 25 rows: 6 full 4-row tiles plus one remainder row.
  ExpectGemmMatchesNaive(ConvCase{3, 9, 3, 1, 1, 1, 5, 5}, 15);
}

TEST(GemmConvParityTest, BatchedSamples) {
  ExpectGemmMatchesNaive(ConvCase{3, 10, 3, 2, 1, 4, 13, 11}, 16);
}

TEST(GemmConvParityTest, RandomizedShapes) {
  Rng shape_rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    ConvCase c;
    c.in_channels = 1 + static_cast<int>(shape_rng.NextBelow(8));
    c.out_channels = 1 + static_cast<int>(shape_rng.NextBelow(34));
    const int kernels[] = {1, 3, 5, 7};
    c.kernel = kernels[shape_rng.NextBelow(4)];
    c.stride = 1 + static_cast<int>(shape_rng.NextBelow(2));
    c.pad = static_cast<int>(shape_rng.NextBelow(static_cast<uint64_t>(c.kernel / 2 + 1)));
    c.n = 1 + static_cast<int>(shape_rng.NextBelow(3));
    // Keep the padded window valid: h + 2*pad >= kernel.
    const int min_side = std::max(1, c.kernel - 2 * c.pad);
    c.h = min_side + static_cast<int>(shape_rng.NextBelow(14));
    c.w = min_side + static_cast<int>(shape_rng.NextBelow(14));
    ExpectGemmMatchesNaive(c, 1000 + static_cast<uint64_t>(trial));
  }
}

TEST(GemmConvParityTest, ThreadedMatchesSerial) {
  Rng rng(21);
  Conv2D conv(6, 24, 3, 1, 1, rng);
  Tensor input = RandomTensor(TensorShape{2, 40, 40, 6}, 22);
  Tensor serial = conv.Forward(input);

  ThreadPool pool(4);
  SetInferenceThreadPool(&pool);
  ResetGemmGatherStats();
  Tensor threaded = conv.Forward(input);
  EXPECT_GT(GetGemmGatherStats().fan_outs, 0u) << "the threaded forward ran serially";
  SetInferenceThreadPool(nullptr);

  // Chunk boundaries regroup rows across micro-kernel tiles, which may
  // reassociate the K loop; anything beyond rounding noise is a real bug.
  EXPECT_LE(MaxAbsDiff(serial, threaded), 1e-5f);
}

// Training on top of the GEMM forward: analytic input gradients must match
// central finite differences of the GEMM-path loss.
TEST(GemmConvGradientTest, InputGradientMatchesFiniteDifference) {
  Rng rng(31);
  Conv2D conv(2, 5, 3, 2, 1, rng);
  conv.set_use_gemm(true);

  Rng data_rng(32);
  Tensor input(TensorShape{2, 8, 8, 2});
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = data_rng.NextFloat(-1.0f, 1.0f);
  }
  Tensor output = conv.Forward(input);
  Tensor g(output.shape());
  for (int64_t i = 0; i < g.size(); ++i) {
    g[i] = data_rng.NextFloat(-1.0f, 1.0f);
  }
  Tensor analytic = conv.Backward(g);

  auto loss = [&](const Tensor& x) {
    Tensor y = conv.Forward(x);
    double total = 0.0;
    for (int64_t i = 0; i < y.size(); ++i) {
      total += static_cast<double>(y[i]) * g[i];
    }
    return total;
  };
  const float epsilon = 2e-3f;
  for (int check = 0; check < 16; ++check) {
    const int64_t i =
        static_cast<int64_t>(data_rng.NextBelow(static_cast<uint64_t>(input.size())));
    Tensor plus = input;
    Tensor minus = input;
    plus[i] += epsilon;
    minus[i] -= epsilon;
    const double numeric = (loss(plus) - loss(minus)) / (2.0 * epsilon);
    EXPECT_NEAR(analytic[i], numeric, 0.02 + 0.05 * std::abs(numeric))
        << "input grad at flat index " << i;
  }
}

// The backward pass consumes state cached by Forward; parameter gradients
// accumulated after a GEMM forward must match those after a naive forward.
TEST(GemmConvGradientTest, ParameterGradientsMatchNaivePath) {
  Rng rng(41);
  Conv2D conv(3, 7, 3, 1, 1, rng);
  Tensor input = RandomTensor(TensorShape{2, 9, 9, 3}, 42);
  Tensor g = RandomTensor(conv.OutputShape(input.shape()), 43);

  conv.set_use_gemm(false);
  conv.Forward(input);
  conv.weights().grad.Zero();
  conv.bias().grad.Zero();
  conv.Backward(g);
  Tensor naive_dw = conv.weights().grad;
  Tensor naive_db = conv.bias().grad;

  conv.set_use_gemm(true);
  conv.Forward(input);
  conv.weights().grad.Zero();
  conv.bias().grad.Zero();
  conv.Backward(g);

  EXPECT_LE(MaxAbsDiff(naive_dw, conv.weights().grad), kParityTolerance);
  EXPECT_LE(MaxAbsDiff(naive_db, conv.bias().grad), kParityTolerance);
}

// --------------------------------------------------------- raw GEMM kernel --

void ReferenceGemmNT(int m, int n, int k, const float* a, const float* b, const float* bias,
                     float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = bias != nullptr ? bias[j] : 0.0;
      for (int kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[j * k + kk];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

TEST(GemmKernelTest, MatchesReferenceAcrossShapes) {
  Rng rng(51);
  for (const auto& [m, n, k] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {4, 16, 8}, {5, 17, 9}, {3, 1, 27}, {33, 47, 19}, {64, 16, 144}}) {
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(n) * k);
    std::vector<float> bias(static_cast<size_t>(n));
    for (auto& v : a) v = rng.NextFloat(-1.0f, 1.0f);
    for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);
    for (auto& v : bias) v = rng.NextFloat(-1.0f, 1.0f);
    std::vector<float> expected(static_cast<size_t>(m) * n);
    std::vector<float> actual(static_cast<size_t>(m) * n, -100.0f);
    ReferenceGemmNT(m, n, k, a.data(), b.data(), bias.data(), expected.data());
    GemmNT(m, n, k, a.data(), b.data(), bias.data(), actual.data());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(expected[i], actual[i], kParityTolerance) << "m=" << m << " n=" << n
                                                            << " k=" << k << " at " << i;
    }
  }
}

TEST(GemmKernelTest, NullBiasMeansZero) {
  const int m = 6, n = 5, k = 7;
  Rng rng(52);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(n) * k);
  for (auto& v : a) v = rng.NextFloat(-1.0f, 1.0f);
  for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);
  std::vector<float> expected(static_cast<size_t>(m) * n);
  std::vector<float> actual(static_cast<size_t>(m) * n);
  ReferenceGemmNT(m, n, k, a.data(), b.data(), nullptr, expected.data());
  GemmNT(m, n, k, a.data(), b.data(), nullptr, actual.data());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i], actual[i], kParityTolerance);
  }
}

// Every compiled kernel must agree: the intrinsic path (AVX2 or SSE2,
// whatever this binary was built with) against the always-compiled scalar
// fallback, over shapes covering full tiles, remainder rows, and partial
// panels. On a scalar-only build both runs take the same path and the test
// degenerates to determinism.
TEST(GemmKernelTest, IntrinsicAndScalarKernelsAgree) {
  Rng rng(71);
  for (const auto& [m, n, k] : std::vector<std::array<int, 3>>{
           {4, 16, 9}, {7, 16, 33}, {64, 48, 144}, {13, 21, 27}, {3, 5, 8}}) {
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(n) * k);
    std::vector<float> bias(static_cast<size_t>(n));
    for (auto& v : a) v = rng.NextFloat(-1.0f, 1.0f);
    for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);
    for (auto& v : bias) v = rng.NextFloat(-1.0f, 1.0f);
    std::vector<float> packed(PackedPanelFloats(n, k));
    PackFilterPanels(b.data(), n, k, packed.data());

    std::vector<float> simd(static_cast<size_t>(m) * n);
    std::vector<float> scalar(static_cast<size_t>(m) * n);
    GemmPackedEx(m, n, k, a.data(), packed.data(), bias.data(), GemmEpilogue::kBiasRelu,
                 simd.data(), n);
    SetGemmForceScalar(true);
    GemmPackedEx(m, n, k, a.data(), packed.data(), bias.data(), GemmEpilogue::kBiasRelu,
                 scalar.data(), n);
    SetGemmForceScalar(false);
    for (size_t i = 0; i < simd.size(); ++i) {
      EXPECT_NEAR(simd[i], scalar[i], kParityTolerance)
          << "m=" << m << " n=" << n << " k=" << k << " at " << i;
    }
  }
}

// Strided output: writing a GEMM result into a channel slice of a wider
// buffer (FireModule's concat halves) must leave the other columns alone.
TEST(GemmKernelTest, StridedOutputWritesOnlyItsSlice) {
  const int m = 9, n = 5, k = 12;
  const int64_t ldc = 13;
  Rng rng(72);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(n) * k);
  for (auto& v : a) v = rng.NextFloat(-1.0f, 1.0f);
  for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);
  std::vector<float> packed(PackedPanelFloats(n, k));
  PackFilterPanels(b.data(), n, k, packed.data());

  std::vector<float> dense(static_cast<size_t>(m) * n);
  GemmPackedEx(m, n, k, a.data(), packed.data(), nullptr, GemmEpilogue::kNone, dense.data(),
               n);
  const int64_t offset = 6;
  std::vector<float> wide(static_cast<size_t>(m) * ldc, -3.0f);
  GemmPackedEx(m, n, k, a.data(), packed.data(), nullptr, GemmEpilogue::kNone,
               wide.data() + offset, ldc);
  for (int i = 0; i < m; ++i) {
    for (int64_t j = 0; j < ldc; ++j) {
      const float got = wide[static_cast<size_t>(i) * ldc + j];
      if (j >= offset && j < offset + n) {
        EXPECT_NEAR(got, dense[static_cast<size_t>(i) * n + (j - offset)], kParityTolerance);
      } else {
        EXPECT_EQ(got, -3.0f) << "row " << i << " col " << j << " clobbered";
      }
    }
  }
}

TEST(GemmKernelTest, PooledMatchesSerial) {
  // 2.3 M MACs: enough for a 3-way fan-out under kMinMacsPerThread.
  const int m = 2000, n = 23, k = 50;
  Rng rng(53);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(n) * k);
  for (auto& v : a) v = rng.NextFloat(-1.0f, 1.0f);
  for (auto& v : b) v = rng.NextFloat(-1.0f, 1.0f);
  std::vector<float> serial(static_cast<size_t>(m) * n);
  std::vector<float> pooled(static_cast<size_t>(m) * n);
  GemmNT(m, n, k, a.data(), b.data(), nullptr, serial.data());
  ThreadPool pool(3);
  ResetGemmGatherStats();
  GemmNT(m, n, k, a.data(), b.data(), nullptr, pooled.data(), &pool);
  EXPECT_GT(GetGemmGatherStats().fan_outs, 0u) << "the pooled GEMM ran serially";
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], pooled[i], 1e-5f);
  }
}

// ------------------------------------------------------------ ScratchArena --

TEST(ScratchArenaTest, PointersSurviveGrowthUntilReset) {
  ScratchArena arena;
  float* first = arena.Alloc(16);
  first[0] = 42.0f;
  // Force growth; the first block must remain readable.
  float* second = arena.Alloc(1 << 16);
  second[0] = 7.0f;
  EXPECT_EQ(first[0], 42.0f);
  arena.Reset();
  // After one warm-up round the arena coalesces into a single slab and the
  // same requests no longer grow capacity.
  const size_t warmed = arena.CapacityFloats();
  arena.Alloc(16);
  arena.Alloc(1 << 16);
  EXPECT_EQ(arena.CapacityFloats(), warmed);
}

// Regression for Reset() coalescing under growth-while-retired: a round
// that retires multiple blocks must (a) keep every outstanding pointer
// readable until the Reset, and (b) coalesce into a slab large enough that
// the same allocation pattern never retires again — the steady state is a
// single reused slab with stable capacity.
TEST(ScratchArenaTest, GrowthWhileRetiredCoalescesToSingleSlab) {
  ScratchArena arena;
  const size_t sizes[] = {24, 300, 5000, 70000};
  std::vector<float*> ptrs;
  for (size_t i = 0; i < 4; ++i) {
    float* p = arena.Alloc(sizes[i]);  // each Alloc outgrows and retires the last block
    p[0] = static_cast<float>(i + 1);
    p[sizes[i] - 1] = static_cast<float>(100 + i);
    ptrs.push_back(p);
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ptrs[i][0], static_cast<float>(i + 1)) << "block " << i << " lost after growth";
    EXPECT_EQ(ptrs[i][sizes[i] - 1], static_cast<float>(100 + i));
  }
  arena.Reset();
  const size_t warmed = arena.CapacityFloats();
  for (int round = 0; round < 3; ++round) {
    for (size_t size : sizes) {
      arena.Alloc(size);
    }
    EXPECT_EQ(arena.CapacityFloats(), warmed) << "round " << round << " grew the arena";
    arena.Reset();
    EXPECT_EQ(arena.CapacityFloats(), warmed) << "round " << round << " reset changed capacity";
  }
}

TEST(ScratchArenaTest, ReserveMakesFirstRoundAllocationFree) {
  ScratchArena arena;
  arena.Reserve(4096);
  const size_t reserved = arena.CapacityFloats();
  EXPECT_GE(reserved, 4096u);
  arena.Alloc(1000);
  arena.Alloc(3000);
  EXPECT_EQ(arena.CapacityFloats(), reserved) << "reserved arena grew on first use";
  arena.Reserve(16);  // smaller reservation must not shrink the slab
  EXPECT_EQ(arena.CapacityFloats(), reserved);
}

TEST(ScratchArenaTest, SteadyStateForwardDoesNotGrowArena) {
  Rng rng(61);
  Conv2D conv(4, 12, 3, 1, 1, rng);
  Tensor input = RandomTensor(TensorShape{1, 24, 24, 4}, 62);
  conv.Forward(input);
  const size_t warmed = LocalArena().CapacityFloats();
  for (int i = 0; i < 5; ++i) {
    conv.Forward(input);
  }
  EXPECT_EQ(LocalArena().CapacityFloats(), warmed);
}

}  // namespace
}  // namespace percival
