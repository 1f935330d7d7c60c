// Tests for the requantize-in-epilogue engine and the zero-float dataflow
// plan: bit-exactness of GemmInt8PackedExU8 against the templated scalar
// oracle on every compiled SIMD tier at both panel widths, the defining
// identity (requant store == float store + QuantizeActivations, to the
// byte), the code transforms (MaxPoolCodes against the byte-loop oracle it
// replaced, ReluCodes against max with the clamped zero point), the layer
// inference entry over every input/output spec against the staged oracle,
// plan engagement/inertness across calibration states, bit-identical logits
// between the zero-float plan and the float-staged int8 path, a
// steady-state counter proof that a planned frame allocates no float
// activation tensor and no heap between codes-in and logits-out, and the
// 64-image float-vs-int8 accuracy guard re-run with the plan active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/model.h"
#include "src/img/resize.h"
#include "src/nn/conv.h"
#include "src/nn/fire.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/ops.h"
#include "src/nn/pool.h"
#include "src/nn/tensor.h"
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

struct RequantCase {
  int m = 0;
  int n = 0;
  int k = 0;
  int panel_width = GemmNativePanelWidth();
  GemmEpilogue epilogue = GemmEpilogue::kBias;
  ActivationQuant quant;
  ActivationQuant out_quant;
  std::vector<uint8_t> a;
  Int8PackedFilters packed;
  Tensor b;
  Tensor bias;
};

RequantCase MakeCase(Rng& shape_rng, int trial, int panel_width) {
  RequantCase c;
  c.m = 1 + static_cast<int>(shape_rng.NextBelow(23));
  c.n = 1 + static_cast<int>(shape_rng.NextBelow(2 * GemmNativePanelWidth() + 7));
  c.k = 1 + static_cast<int>(shape_rng.NextBelow(70));
  c.panel_width = panel_width;

  c.b = RandomTensor(TensorShape{1, 1, c.n, c.k}, 900 + static_cast<uint64_t>(trial));
  PackFilterPanelsInt8(c.b.data(), c.n, c.k, &c.packed, panel_width);

  Rng code_rng(4000 + static_cast<uint64_t>(trial));
  c.a.assign(static_cast<size_t>(c.m) * c.packed.k_padded, 0);
  for (auto& v : c.a) {
    v = static_cast<uint8_t>(code_rng.NextBelow(256));
  }
  c.quant.scale = 0.01f + 0.05f * static_cast<float>(code_rng.NextBelow(10));
  c.quant.zero_point = static_cast<int32_t>(code_rng.NextBelow(256));
  // Output quantization under which the epilogue requantizes — including
  // tight scales that exercise the [0, 255] saturation paths.
  c.out_quant.scale = 0.002f + 0.03f * static_cast<float>(code_rng.NextBelow(8));
  c.out_quant.zero_point = static_cast<int32_t>(code_rng.NextBelow(256));
  c.bias = RandomTensor(TensorShape{1, 1, 1, c.n}, 1100 + static_cast<uint64_t>(trial));

  const GemmEpilogue eps[] = {GemmEpilogue::kNone, GemmEpilogue::kBias,
                              GemmEpilogue::kBiasRelu};
  c.epilogue = eps[shape_rng.NextBelow(3)];
  return c;
}

// ------------------------------------------- kernel-level exact parity ----

// The requantizing epilogue must be BIT-exact (not merely close) between the
// compiled intrinsic tier and the templated scalar oracle: codes are the
// network's dataflow currency, and a single off-by-one code would propagate
// through every downstream layer. Runs both panel widths.
TEST(RequantKernelTest, IntrinsicMatchesScalarOracleExactly) {
  Rng shape_rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    for (const int pw : {kGemmTileNMin, GemmNativePanelWidth()}) {
      RequantCase c = MakeCase(shape_rng, trial * 2 + (pw == GemmNativePanelWidth() ? 1 : 0), pw);

      std::vector<uint8_t> u8_simd(static_cast<size_t>(c.m) * c.n, 0xAA);
      std::vector<uint8_t> u8_scalar(static_cast<size_t>(c.m) * c.n, 0x55);
      GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         c.out_quant, u8_simd.data(), c.n);
      SetGemmForceScalar(true);
      GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         c.out_quant, u8_scalar.data(), c.n);
      SetGemmForceScalar(false);

      for (size_t i = 0; i < u8_simd.size(); ++i) {
        ASSERT_EQ(u8_simd[i], u8_scalar[i])
            << "m=" << c.m << " n=" << c.n << " k=" << c.k << " pw=" << pw << " at " << i;
      }
    }
  }
}

// The defining identity of the requant sink: requantize-in-epilogue is a
// fused float-store + QuantizeActivations, byte-for-byte — on the intrinsic
// tier AND the scalar oracle, at both panel widths. This is what lets the
// zero-float network plan claim bit-identical logits to the staged path.
TEST(RequantKernelTest, RequantEqualsFloatStorePlusQuantize) {
  Rng shape_rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    for (const int pw : {kGemmTileNMin, GemmNativePanelWidth()}) {
      for (const bool force_scalar : {false, true}) {
        RequantCase c = MakeCase(shape_rng, 100 + trial * 4 + (pw == GemmNativePanelWidth() ? 2 : 0) +
                                                (force_scalar ? 1 : 0),
                                 pw);

        SetGemmForceScalar(force_scalar);
        std::vector<uint8_t> fused(static_cast<size_t>(c.m) * c.n, 0);
        GemmInt8PackedExU8(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                           c.out_quant, fused.data(), c.n);
        std::vector<float> floats(static_cast<size_t>(c.m) * c.n, 0.0f);
        GemmInt8PackedEx(c.m, c.a.data(), c.packed, c.quant, c.bias.data(), c.epilogue,
                         floats.data(), c.n);
        SetGemmForceScalar(false);
        std::vector<uint8_t> staged(static_cast<size_t>(c.m) * c.n, 0);
        QuantizeActivations(floats.data(), static_cast<int64_t>(floats.size()), c.out_quant,
                            staged.data());

        for (size_t i = 0; i < fused.size(); ++i) {
          ASSERT_EQ(fused[i], staged[i])
              << "m=" << c.m << " n=" << c.n << " k=" << c.k << " pw=" << pw
              << " scalar=" << force_scalar << " at " << i;
        }
      }
    }
  }
}

// ------------------------------------------------------ code transforms ---

// The byte-at-a-time MaxPoolCodes the 16-channel pmaxub pass replaced, kept
// verbatim as the oracle.
void MaxPoolCodesOracle(const uint8_t* in, int height, int width, int channels, int kernel,
                        int stride, uint8_t* out) {
  const int out_h = ConvOutputSize(height, kernel, stride, 0);
  const int out_w = ConvOutputSize(width, kernel, stride, 0);
  for (int oh = 0; oh < out_h; ++oh) {
    for (int ow = 0; ow < out_w; ++ow) {
      uint8_t* dst = out + (static_cast<int64_t>(oh) * out_w + ow) * channels;
      bool first = true;
      for (int kh = 0; kh < kernel; ++kh) {
        const int ih = oh * stride + kh;
        if (ih >= height) {
          continue;
        }
        for (int kw = 0; kw < kernel; ++kw) {
          const int iw = ow * stride + kw;
          if (iw >= width) {
            continue;
          }
          const uint8_t* src = in + (static_cast<int64_t>(ih) * width + iw) * channels;
          if (first) {
            std::memcpy(dst, src, static_cast<size_t>(channels));
            first = false;
          } else {
            for (int c = 0; c < channels; ++c) {
              if (src[c] > dst[c]) {
                dst[c] = src[c];
              }
            }
          }
        }
      }
    }
  }
}

// Uniform random codes over all 256 values, not clustered at a zero point.
std::vector<uint8_t> RandomCodes(int64_t count, Rng& rng) {
  std::vector<uint8_t> codes(static_cast<size_t>(count));
  for (auto& v : codes) {
    v = static_cast<uint8_t>(rng.NextU64() >> 56);
  }
  return codes;
}

struct PoolGeometry {
  int kernel;
  int stride;
};
constexpr PoolGeometry kPoolGeometries[] = {{1, 1}, {2, 2}, {2, 1}, {3, 2}, {3, 3}};

// MaxPoolCodes must equal the byte loop on every channel count around the
// 16-byte block (vector body only, tail only, both) and on odd and even
// sizes, including every size where the floor in ConvOutputSize drops
// trailing input rows or columns.
TEST(CodeTransformTest, MaxPoolCodesMatchesByteLoopOracle) {
  const int kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 31, 32, 55, 56, 111, 112};
  Rng rng(1313);
  int floor_dropped_cases = 0;
  for (const int channels : {1, 3, 8, 15, 16, 17, 31, 64, 65, 256}) {
    for (const PoolGeometry g : kPoolGeometries) {
      for (const int height : kSizes) {
        // Every height meets a random width, so odd/even pairs mix.
        const int width = kSizes[rng.NextBelow(std::size(kSizes))];
        if (height < g.kernel || width < g.kernel) {
          continue;
        }
        if ((height - g.kernel) % g.stride != 0 || (width - g.kernel) % g.stride != 0) {
          ++floor_dropped_cases;
        }
        const std::vector<uint8_t> in =
            RandomCodes(static_cast<int64_t>(height) * width * channels, rng);
        const int64_t out_size = static_cast<int64_t>(ConvOutputSize(height, g.kernel, g.stride, 0)) *
                                 ConvOutputSize(width, g.kernel, g.stride, 0) * channels;
        std::vector<uint8_t> got(static_cast<size_t>(out_size), 0xAA);
        std::vector<uint8_t> want(static_cast<size_t>(out_size), 0x55);
        MaxPoolCodes(in.data(), height, width, channels, g.kernel, g.stride, got.data());
        MaxPoolCodesOracle(in.data(), height, width, channels, g.kernel, g.stride, want.data());
        ASSERT_EQ(got, want) << height << "x" << width << "x" << channels << " k=" << g.kernel
                             << " s=" << g.stride;
      }
    }
  }
  EXPECT_GT(floor_dropped_cases, 100) << "too few sizes where the floor drops input";
}

// The layer entry on a batch of 2: a codes->codes Infer equals quantizing the float
// Forward of the dequantized input — max commutes with the monotone
// quantization map, so the code path is exact, sample offsets included.
TEST(CodeTransformTest, MaxPoolForwardCodesEqualsQuantizedFloatForward) {
  const ActivationQuant quant{0.0371f, 37};
  Rng rng(1314);
  for (const int channels : {3, 16, 17, 64}) {
    for (const PoolGeometry g : kPoolGeometries) {
      MaxPool2D pool(g.kernel, g.stride);
      pool.SetTrainingMode(false);
      const TensorShape shape{2, 13, 10, channels};
      const std::vector<uint8_t> codes = RandomCodes(shape.Elements(), rng);
      Tensor dequantized(shape);
      for (int64_t i = 0; i < dequantized.size(); ++i) {
        dequantized[i] = quant.scale * static_cast<float>(codes[static_cast<size_t>(i)] -
                                                          quant.zero_point);
      }
      const Tensor pooled = pool.Forward(dequantized);
      std::vector<uint8_t> want(static_cast<size_t>(pooled.size()));
      QuantizeActivations(pooled.data(), pooled.size(), quant, want.data());

      std::vector<uint8_t> got(want.size(), 0xAA);
      pool.Infer(QuantizedTensorView{codes.data(), shape, quant.scale, quant.zero_point},
                 OutputSpec::Codes(got.data(), quant.scale, quant.zero_point));
      ASSERT_EQ(got, want) << "c=" << channels << " k=" << g.kernel << " s=" << g.stride;
    }
  }
}

// ReluCodes is max(in, zp) with the zero point clamped to a code, in place
// and out of place, for zero points outside [0, 255] too.
TEST(CodeTransformTest, ReluCodesIsMaxWithClampedZeroPoint) {
  Rng rng(1315);
  for (const int32_t zero_point : {-3, 0, 1, 128, 254, 255, 300}) {
    const uint8_t zp = static_cast<uint8_t>(std::clamp(zero_point, 0, 255));
    for (const int64_t count : {0, 1, 15, 16, 17, 63, 1000}) {
      const std::vector<uint8_t> in = RandomCodes(count, rng);
      std::vector<uint8_t> want(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        want[i] = std::max(in[i], zp);
      }
      std::vector<uint8_t> out(in.size(), 0xAA);
      ReluCodes(in.data(), count, zero_point, out.data());
      EXPECT_EQ(out, want) << "out of place, zp=" << zero_point << " count=" << count;
      std::vector<uint8_t> in_place = in;
      ReluCodes(in_place.data(), count, zero_point, in_place.data());
      EXPECT_EQ(in_place, want) << "in place, zp=" << zero_point << " count=" << count;
    }
  }
}

// ------------------------------------------------ layer inference entry ---

// One row of the entry table: which layer runs, what it reads, what it
// writes, and (fire only) whether the squeeze->expand hop is quantized
// (equal expand calibrations) or float (expands uncalibrated).
enum class Io { kFloat, kCodes };
struct EntryCase {
  const char* layer;  // "conv1x1", "conv3x3", "fire"
  Io in;
  Io out;
  bool quantized_hop;
};

const char* IoName(Io io) { return io == Io::kFloat ? "float" : "codes"; }

// Destination slice: channel offset kSliceOffset into rows of ldc =
// out_c + kSlicePad elements, samples sample_stride apart with
// kSampleGap elements of slack; everything outside the slice is a canary.
constexpr int64_t kSliceOffset = 3;
constexpr int64_t kSlicePad = 7;
constexpr int64_t kSampleGap = 5;
constexpr uint8_t kCanaryCode = 0xAB;
constexpr float kCanaryFloat = -12345.5f;

// Every {float, codes} input x {float, codes} output combination of the
// conv (1x1 and 3x3/pad 1) and fire inference entries, fire under both hop
// kinds, on a batch of 2 written into a channel slice of a wider buffer:
// the slice equals the staged oracle BIT-exactly — the int8 Forward's
// floats, or QuantizeActivations of them for codes output — and no byte
// outside the slice moves.
TEST(LayerEntryTest, EveryInputOutputCombinationMatchesStagedOracle) {
  std::vector<EntryCase> cases;
  for (const char* layer : {"conv1x1", "conv3x3", "fire"}) {
    for (const Io in : {Io::kFloat, Io::kCodes}) {
      for (const Io out : {Io::kFloat, Io::kCodes}) {
        cases.push_back({layer, in, out, false});
        if (std::strcmp(layer, "fire") == 0) {
          cases.push_back({layer, in, out, true});
        }
      }
    }
  }
  ASSERT_EQ(cases.size(), 16u);

  uint64_t seed = 2100;
  for (const EntryCase& ec : cases) {
    ++seed;
    const std::string label = std::string(ec.layer) + " " + IoName(ec.in) + "->" +
                              IoName(ec.out) + (ec.quantized_hop ? " quantized-hop" : "");
    const TensorShape in_shape{2, 9, 12, 12};
    Rng rng(seed);
    Conv2D conv1x1(in_shape.c, 10, 1, 1, 0, rng, "entry1x1");
    Conv2D conv3x3(in_shape.c, 10, 3, 1, 1, rng, "entry3x3");
    FireModule fire(in_shape.c, 8, 9, rng, "entryfire");
    const bool is_fire = std::strcmp(ec.layer, "fire") == 0;
    Layer* layer = &fire;
    if (std::strcmp(ec.layer, "conv1x1") == 0) {
      layer = &conv1x1;
    } else if (std::strcmp(ec.layer, "conv3x3") == 0) {
      layer = &conv3x3;
    }

    // Deployment state: eval, planned, calibrated by a float capture pass,
    // then int8. The float hop clears the expand calibrations.
    const Tensor x = RandomTensor(in_shape, seed * 7, -1.0f, 1.0f);
    layer->SetTrainingMode(false);
    layer->PlanKernels(in_shape);
    layer->SetCalibrationCapture(true);
    layer->Forward(x);
    layer->SetCalibrationCapture(false);
    if (is_fire && !ec.quantized_hop) {
      fire.expand1x1().ClearInputCalibration();
      fire.expand3x3().ClearInputCalibration();
    }
    layer->SetPrecision(Precision::kInt8);

    float lo = 0.0f;
    float hi = 0.0f;
    ASSERT_TRUE(layer->InputCalibration(&lo, &hi)) << label;
    const ActivationQuant in_quant = ComputeActivationQuant(lo, hi);
    std::vector<uint8_t> in_codes(static_cast<size_t>(x.size()));
    QuantizeActivations(x.data(), x.size(), in_quant, in_codes.data());
    const QuantizedTensorView view{in_codes.data(), in_shape, in_quant.scale,
                                   in_quant.zero_point};

    // The staged oracle.
    const Tensor want = layer->Forward(x);
    const ActivationQuant out_quant = ComputeActivationQuant(want.Min(), want.Max());
    std::vector<uint8_t> want_codes(static_cast<size_t>(want.size()));
    QuantizeActivations(want.data(), want.size(), out_quant, want_codes.data());

    const TensorShape out_shape = want.shape();
    const int64_t rows = static_cast<int64_t>(out_shape.h) * out_shape.w;
    const int64_t ldc = out_shape.c + kSlicePad;
    const int64_t sample_stride = rows * ldc + kSampleGap;
    const size_t buffer = static_cast<size_t>(out_shape.n * sample_stride);
    std::vector<float> floats(buffer, kCanaryFloat);
    std::vector<uint8_t> codes(buffer, kCanaryCode);
    const InputRef input = ec.in == Io::kCodes ? InputRef(view) : InputRef(x);
    const OutputSpec output =
        ec.out == Io::kCodes
            ? OutputSpec::Codes(codes.data() + kSliceOffset, out_quant.scale,
                                out_quant.zero_point, ldc, sample_stride)
            : OutputSpec::Floats(floats.data() + kSliceOffset, ldc, sample_stride);
    EXPECT_TRUE(layer->Infer(input, output).empty()) << label;

    size_t checked = 0;
    for (size_t i = 0; i < buffer; ++i) {
      const int64_t n = static_cast<int64_t>(i) / sample_stride;
      const int64_t within = static_cast<int64_t>(i) % sample_stride - kSliceOffset;
      const int64_t r = within >= 0 ? within / ldc : -1;
      const int64_t c = within >= 0 ? within % ldc : -1;
      const bool in_slice = r >= 0 && r < rows && c < out_shape.c;
      const size_t oracle = static_cast<size_t>((n * rows + r) * out_shape.c + c);
      if (ec.out == Io::kFloat) {
        ASSERT_EQ(codes[i], kCanaryCode) << label;
        if (in_slice) {
          ASSERT_EQ(floats[i], want[static_cast<int64_t>(oracle)])
              << label << " n=" << n << " row=" << r << " c=" << c;
          ++checked;
        } else {
          ASSERT_EQ(floats[i], kCanaryFloat) << label << " wrote outside its slice at " << i;
        }
      } else {
        ASSERT_EQ(floats[i], kCanaryFloat) << label;
        if (in_slice) {
          ASSERT_EQ(codes[i], want_codes[oracle])
              << label << " n=" << n << " row=" << r << " c=" << c;
          ++checked;
        } else {
          ASSERT_EQ(codes[i], kCanaryCode) << label << " wrote outside its slice at " << i;
        }
      }
    }
    EXPECT_EQ(checked, static_cast<size_t>(want.size())) << label;
  }
}

// ------------------------------------------------- network dataflow plan --

// Captures interior activation calibrations with a couple of float
// forwards, the precondition for any requant link.
void Calibrate(Network& net, const TensorShape& shape) {
  net.SetCalibrationCapture(true);
  net.Forward(RandomTensor(shape, 71, 0.0f, 1.0f));
  net.Forward(RandomTensor(shape, 72, 0.0f, 1.0f));
  net.SetCalibrationCapture(false);
}

// Without interior calibration no consumer qualifies, so the plan must stay
// inert and the staged int8 path runs exactly as before.
TEST(DataflowPlanTest, PlanInertWithoutCalibration) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  net.SetPrecision(Precision::kInt8);
  net.Forward(RandomTensor(config.InputShape(), 81, 0.0f, 1.0f));
  EXPECT_EQ(net.RequantLinkCount(), 0u);
}

// With calibration the plan must engage (conv1 plus every fire module feeds
// a calibrated int8 consumer) — and disengage again when the global knob is
// off or capture mode resumes, both of which re-plan on the next forward.
TEST(DataflowPlanTest, PlanEngagesWithCalibrationAndHonorsKnob) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);
  Tensor input = RandomTensor(config.InputShape(), 82, 0.0f, 1.0f);

  net.Forward(input);
  EXPECT_GE(net.RequantLinkCount(), 2u) << "calibrated net did not form requant links";

  SetDataflowRequantEnabled(false);
  net.Forward(input);
  EXPECT_EQ(net.RequantLinkCount(), 0u) << "knob off must fall back to the staged path";
  SetDataflowRequantEnabled(true);

  net.SetCalibrationCapture(true);
  net.Forward(input);
  EXPECT_EQ(net.RequantLinkCount(), 0u) << "capture mode must run float forwards";
  net.SetCalibrationCapture(false);
}

// The headline contract: the zero-float plan produces BIT-identical logits
// to the float-staged int8 forward. Every link in the chain is exact — the
// requant store equals float store + QuantizeActivations, ReLU/MaxPool
// commute with the monotone quantization map, and the fire module's
// quantized squeeze hop reproduces the staged expand-side quantization.
TEST(DataflowPlanTest, ZeroFloatPlanBitIdenticalToStagedInt8) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  for (int trial = 0; trial < 4; ++trial) {
    Tensor input = RandomTensor(config.InputShape(), 90 + static_cast<uint64_t>(trial),
                                0.0f, 1.0f);
    SetDataflowRequantEnabled(false);
    Tensor staged = net.Forward(input);
    ASSERT_EQ(net.RequantLinkCount(), 0u);
    SetDataflowRequantEnabled(true);
    Tensor zero_float = net.Forward(input);
    ASSERT_GE(net.RequantLinkCount(), 2u);

    ASSERT_TRUE(staged.shape() == zero_float.shape());
    for (int64_t i = 0; i < staged.size(); ++i) {
      ASSERT_EQ(staged[i], zero_float[i]) << "logit " << i << " diverged on trial " << trial;
    }
  }
}

// Same identity through the u8-direct entry (codes in from preprocessing):
// ForwardQuantized under the plan matches ForwardQuantized with the plan
// disabled, bitwise.
TEST(DataflowPlanTest, QuantizedEntryBitIdenticalToStagedInt8) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  Tensor input = RandomTensor(config.InputShape(), 95, 0.0f, 1.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};

  SetDataflowRequantEnabled(false);
  Tensor staged = net.ForwardQuantized(view);
  SetDataflowRequantEnabled(true);
  Tensor zero_float = net.ForwardQuantized(view);
  ASSERT_GE(net.RequantLinkCount(), 2u);

  ASSERT_TRUE(staged.shape() == zero_float.shape());
  for (int64_t i = 0; i < staged.size(); ++i) {
    ASSERT_EQ(staged[i], zero_float[i]) << "logit " << i;
  }
}

// Counter proof of the zero-float claim: in steady state a planned
// ForwardQuantized constructs only the two tail tensors past the last code
// consumer (conv_final's output and the global-average-pool logits — a few
// dozen floats), grows no arena, and grows no code buffer. No feature-map
// float tensor and no heap allocation exist between codes-in and
// logits-out.
TEST(DataflowPlanTest, SteadyStateAllocatesNoFloatActivationTensor) {
  const PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  net.SetTrainingMode(false);
  Calibrate(net, config.InputShape());
  net.SetPrecision(Precision::kInt8);

  float lo = 0.0f;
  float hi = 1.0f;
  ASSERT_TRUE(net.layer(0).InputCalibration(&lo, &hi));
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  Tensor input = RandomTensor(config.InputShape(), 97, 0.0f, 1.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
  QuantizeActivations(input.data(), input.size(), quant, codes.data());
  QuantizedTensorView view{codes.data(), input.shape(), quant.scale, quant.zero_point};

  // Warm up: plan, size the code buffers, pack the weights, grow the arena.
  net.ForwardQuantized(view);
  net.ForwardQuantized(view);
  ASSERT_GE(net.RequantLinkCount(), 2u);

  const size_t arena_before = LocalArena().CapacityFloats();
  const size_t code_capacity_before = net.CodeBufferCapacity();
  const TensorAllocStats before = GetTensorAllocStats();
  Tensor logits = net.ForwardQuantized(view);
  const TensorAllocStats after = GetTensorAllocStats();

  EXPECT_EQ(LocalArena().CapacityFloats(), arena_before) << "steady-state forward grew the arena";
  EXPECT_EQ(net.CodeBufferCapacity(), code_capacity_before)
      << "steady-state forward grew the code buffers";
  // conv_final's output + the GAP logits; anything more means a float
  // activation tensor existed on the code path.
  EXPECT_LE(after.constructions - before.constructions, 2u);
  const uint64_t tail_elements =
      static_cast<uint64_t>(net.OutputShape(input.shape()).Elements()) +
      static_cast<uint64_t>(logits.size()) * 16;  // conv_final map is tiny vs any feature map
  EXPECT_LE(after.elements - before.elements, tail_elements + 64)
      << "a float activation tensor was allocated between codes and logits";
}

// -------------------------------------------------------- accuracy guard --

// The 64-image float-vs-int8 accuracy guard, re-run with the zero-float
// plan active: quantized decisions must still agree with float >= 99% and
// every logit stays inside the tolerance — i.e. the dataflow plan changes
// WHERE quantization happens (in the epilogue), never WHAT it computes.
TEST(RequantAccuracyGuardTest, TopOneAgreementWithZeroFloatPlanActive) {
  const PercivalNetConfig config = TestProfile();
  Network float_net = BuildPercivalNet(config);
  Network int8_net = BuildPercivalNet(config);  // same init_seed -> same weights
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

  // Calibrate on the real batch, then flip to int8 with the plan engaged.
  int8_net.SetCalibrationCapture(true);
  int8_net.Forward(batch);
  int8_net.SetCalibrationCapture(false);
  int8_net.SetPrecision(Precision::kInt8);

  Tensor float_logits = float_net.Forward(batch);
  Tensor int8_logits = int8_net.Forward(batch);
  ASSERT_GE(int8_net.RequantLinkCount(), 2u) << "guard must run with the plan active";
  ASSERT_TRUE(float_logits.shape() == int8_logits.shape());

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
  const double agreement = static_cast<double>(agree) / kBatch;
  EXPECT_GE(agreement, 0.99) << "zero-float plan flipped " << (kBatch - agree) << " of "
                             << kBatch << " top-1 decisions";
  EXPECT_LE(worst_logit_diff, 0.05f) << "zero-float logits drifted past the guard tolerance";
  (void)MaxAbsDiff;
}

// GAP-on-codes guard: when the link is enabled the final conv's requantized
// store feeds GlobalAvgPool directly as codes — one more requant link, no
// float activation tensor before pooling. The average moves into code
// space, so logits are NOT bit-identical to the staged path; this 64-image
// >= 99% top-1 agreement guard is the CI gate the default rides on.
// GapCodesMode::kAuto (the shipping default) links only trailer-supplied
// GAP ranges: live-captured ranges stay staged, a LoadCalibration round
// trip arms the link, and kForceOff remains the opt-out.
TEST(RequantAccuracyGuardTest, TopOneAgreementWithGapOnCodes) {
  ASSERT_TRUE(GetGapCodesMode() == GapCodesMode::kAuto)
      << "GAP-on-codes must ship in kAuto (trailer-armed) mode";
  const PercivalNetConfig config = TestProfile();
  Network float_net = BuildPercivalNet(config);
  Network int8_net = BuildPercivalNet(config);  // same init_seed -> same weights
  float_net.SetTrainingMode(false);
  int8_net.SetTrainingMode(false);

  const int kBatch = 64;
  Rng rng(321);
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

  // Calibration also captures GAP's input range — the slot the GAP link
  // needs to derive conv_final's emit quantization.
  int8_net.SetCalibrationCapture(true);
  int8_net.Forward(batch);
  int8_net.SetCalibrationCapture(false);
  int8_net.SetPrecision(Precision::kInt8);

  int8_net.Forward(batch);
  const size_t links_without_gap = int8_net.RequantLinkCount();

  SetGapCodesMode(GapCodesMode::kForceOn);  // links even this live-captured range
  Tensor float_logits = float_net.Forward(batch);
  Tensor int8_logits = int8_net.Forward(batch);  // mode change forces a re-plan
  const size_t links_with_gap = int8_net.RequantLinkCount();
  SetGapCodesMode(GapCodesMode::kAuto);  // restore the shipping default

  ASSERT_GT(links_with_gap, links_without_gap)
      << "GAP-on-codes did not add the conv_final -> global_avgpool link";
  ASSERT_TRUE(float_logits.shape() == int8_logits.shape());

  int agree = 0;
  for (int i = 0; i < kBatch; ++i) {
    if (float_logits.ArgMaxInSample(i) == int8_logits.ArgMaxInSample(i)) {
      ++agree;
    }
  }
  const double agreement = static_cast<double>(agree) / kBatch;
  EXPECT_GE(agreement, 0.99) << "GAP-on-codes flipped " << (kBatch - agree) << " of "
                             << kBatch << " top-1 decisions";

  // kAuto links exactly the trailer-supplied population: round-tripping the
  // captured entries through LoadCalibration (what a PCVW v2 trailer load
  // does) arms the link with no force mode in play...
  ASSERT_TRUE(int8_net.LoadCalibration(int8_net.CollectCalibration()));
  int8_net.Forward(batch);
  EXPECT_EQ(int8_net.RequantLinkCount(), links_with_gap)
      << "kAuto did not link GAP for a trailer-supplied range";
  // ...and kForceOff is the documented opt-out back to the old default.
  SetGapCodesMode(GapCodesMode::kForceOff);
  int8_net.Forward(batch);
  EXPECT_EQ(int8_net.RequantLinkCount(), links_without_gap)
      << "kForceOff did not unlink GAP";
  SetGapCodesMode(GapCodesMode::kAuto);
}

}  // namespace
}  // namespace percival
