// Image substrate tests: bitmap, codec round-trips (property-tested across
// formats and sizes), resize, drawing, perceptual hashing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/img/bitmap.h"
#include "src/img/codec.h"
#include "src/img/draw.h"
#include "src/img/phash.h"
#include "src/img/resize.h"
#include "src/nn/gemm.h"

namespace percival {
namespace {

Bitmap RandomBitmap(Rng& rng, int width, int height) {
  Bitmap bitmap(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      bitmap.SetPixel(x, y, Color{static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256)),
                                  static_cast<uint8_t>(rng.NextBelow(256))});
    }
  }
  return bitmap;
}

// Structured bitmap with runs (exercises RLE/PIF run opcodes).
Bitmap StructuredBitmap(Rng& rng, int width, int height) {
  Bitmap bitmap(width, height, Color{200, 210, 220, 255});
  FillRect(bitmap, Rect{1, 1, width / 2, height / 2}, Color{255, 0, 0, 255});
  FillVerticalGradient(bitmap, Rect{0, height / 2, width, height / 2}, Color{0, 0, 0, 255},
                       Color{250, 250, 250, 255});
  AddSpeckleNoise(bitmap, Rect{0, 0, width / 3, height / 3}, 10.0f, rng);
  return bitmap;
}

TEST(BitmapTest, ConstructAndFill) {
  Bitmap bitmap(4, 3, Color{1, 2, 3, 4});
  EXPECT_EQ(bitmap.width(), 4);
  EXPECT_EQ(bitmap.height(), 3);
  EXPECT_EQ(bitmap.byte_size(), 4u * 3u * 4u);
  EXPECT_EQ(bitmap.GetPixel(3, 2), (Color{1, 2, 3, 4}));
}

TEST(BitmapTest, SetGetRoundTrip) {
  Bitmap bitmap(2, 2);
  bitmap.SetPixel(1, 0, Color{9, 8, 7, 6});
  EXPECT_EQ(bitmap.GetPixel(1, 0), (Color{9, 8, 7, 6}));
}

TEST(BitmapTest, ClearBlocksContent) {
  Bitmap bitmap(3, 3, Color{10, 20, 30, 255});
  bitmap.Clear();
  EXPECT_EQ(bitmap.GetPixel(1, 1), (Color{255, 255, 255, 0}));
}

TEST(BitmapTest, OutOfBoundsAccessDies) {
  Bitmap bitmap(2, 2);
  EXPECT_DEATH(bitmap.GetPixel(2, 0), "outside");
  EXPECT_DEATH(bitmap.SetPixel(0, -1, Color{}), "outside");
}

// --- Codec round-trip property tests over (format, size) grid -------------

using RoundTripParam = std::tuple<ImageFormat, int, int>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripParam> {};

TEST_P(CodecRoundTripTest, RandomPixelsRoundTrip) {
  const auto [format, width, height] = GetParam();
  Rng rng(static_cast<uint64_t>(width) * 1000 + height);
  Bitmap original = RandomBitmap(rng, width, height);
  if (format == ImageFormat::kPpm) {
    // PPM drops alpha; force it opaque so equality holds.
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        Color c = original.GetPixel(x, y);
        c.a = 255;
        original.SetPixel(x, y, c);
      }
    }
  }
  EncodedImage encoded = Encode(original, format);
  EXPECT_EQ(SniffFormat(encoded.bytes), format);
  std::optional<Bitmap> decoded = DecodeFirstFrame(encoded.bytes);
  ASSERT_TRUE(decoded.has_value()) << ImageFormatName(format);
  EXPECT_EQ(*decoded, original) << ImageFormatName(format) << " " << width << "x" << height;
}

TEST_P(CodecRoundTripTest, StructuredPixelsRoundTrip) {
  const auto [format, width, height] = GetParam();
  if (format == ImageFormat::kPpm) {
    GTEST_SKIP() << "alpha-free format covered by the random-pixel case";
  }
  Rng rng(99);
  Bitmap original = StructuredBitmap(rng, width, height);
  EncodedImage encoded = Encode(original, format);
  std::optional<Bitmap> decoded = DecodeFirstFrame(encoded.bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormatsAndSizes, CodecRoundTripTest,
    ::testing::Combine(::testing::Values(ImageFormat::kBmp, ImageFormat::kPpm,
                                         ImageFormat::kPif, ImageFormat::kRle,
                                         ImageFormat::kAnim),
                       ::testing::Values(1, 3, 17, 64), ::testing::Values(1, 5, 33)),
    [](const ::testing::TestParamInfo<RoundTripParam>& info) {
      return std::string(ImageFormatName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

TEST(CodecTest, AnimPreservesFrameSequence) {
  Rng rng(3);
  std::vector<Bitmap> frames;
  for (int i = 0; i < 4; ++i) {
    frames.push_back(RandomBitmap(rng, 9, 7));
  }
  std::vector<uint8_t> bytes = EncodeAnim(frames);
  std::optional<std::vector<Bitmap>> decoded = DecodeAnim(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*decoded)[static_cast<size_t>(i)], frames[static_cast<size_t>(i)]);
  }
}

TEST(CodecTest, SniffRejectsGarbage) {
  EXPECT_EQ(SniffFormat({0x12, 0x34, 0x56, 0x78}), ImageFormat::kUnknown);
  EXPECT_EQ(SniffFormat({}), ImageFormat::kUnknown);
}

TEST(CodecTest, DecodersRejectTruncatedInput) {
  Rng rng(4);
  Bitmap bitmap = RandomBitmap(rng, 16, 16);
  for (ImageFormat format : {ImageFormat::kBmp, ImageFormat::kPif, ImageFormat::kRle}) {
    EncodedImage encoded = Encode(bitmap, format);
    encoded.bytes.resize(encoded.bytes.size() / 3);
    EXPECT_FALSE(DecodeFirstFrame(encoded.bytes).has_value()) << ImageFormatName(format);
  }
}

TEST(CodecTest, DecodersRejectAbsurdDimensions) {
  // Hand-craft a PIF header claiming a 2^30-pixel-wide image.
  std::vector<uint8_t> bytes = {'P', 'I', 'F', '1', 0, 0, 0, 64, 1, 0, 0, 0};
  EXPECT_FALSE(DecodePif(bytes).has_value());
}

TEST(CodecTest, PifCompressesRuns) {
  Bitmap flat(64, 64, Color{100, 100, 100, 255});
  std::vector<uint8_t> bytes = EncodePif(flat);
  EXPECT_LT(bytes.size(), flat.byte_size() / 20);
}

// --- Separable resize parity against the per-pixel oracle ----------------
//
// The library's per-pixel bilinear resample and the two tensor conversions
// built on it, kept verbatim from before the separable core replaced them.
// This file is compiled with -ffp-contract=off (as is src/img/resize.cc), so
// neither side may fuse a lerp's multiply and add.

Bitmap OracleResizeBilinear(const Bitmap& source, int out_width, int out_height) {
  Bitmap out(out_width, out_height);
  const float x_scale = static_cast<float>(source.width()) / static_cast<float>(out_width);
  const float y_scale = static_cast<float>(source.height()) / static_cast<float>(out_height);
  for (int y = 0; y < out_height; ++y) {
    const float sy = (static_cast<float>(y) + 0.5f) * y_scale - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(sy)), 0, source.height() - 1);
    const int y1 = std::min(y0 + 1, source.height() - 1);
    const float fy = std::clamp(sy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < out_width; ++x) {
      const float sx = (static_cast<float>(x) + 0.5f) * x_scale - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(sx)), 0, source.width() - 1);
      const int x1 = std::min(x0 + 1, source.width() - 1);
      const float fx = std::clamp(sx - static_cast<float>(x0), 0.0f, 1.0f);

      const Color c00 = source.GetPixel(x0, y0);
      const Color c10 = source.GetPixel(x1, y0);
      const Color c01 = source.GetPixel(x0, y1);
      const Color c11 = source.GetPixel(x1, y1);
      auto lerp = [&](uint8_t a, uint8_t b, uint8_t c, uint8_t d) -> uint8_t {
        const float top = static_cast<float>(a) + fx * (static_cast<float>(b) - a);
        const float bottom = static_cast<float>(c) + fx * (static_cast<float>(d) - c);
        return static_cast<uint8_t>(std::lround(top + fy * (bottom - top)));
      };
      out.SetPixel(x, y, Color{lerp(c00.r, c10.r, c01.r, c11.r), lerp(c00.g, c10.g, c01.g, c11.g),
                               lerp(c00.b, c10.b, c01.b, c11.b),
                               lerp(c00.a, c10.a, c01.a, c11.a)});
    }
  }
  return out;
}

std::vector<float> OracleTensor(const Bitmap& source, int size, int channels) {
  Bitmap scaled = (source.width() == size && source.height() == size)
                      ? source
                      : OracleResizeBilinear(source, size, size);
  const uint8_t* src = scaled.data();
  const int64_t pixels = static_cast<int64_t>(size) * size;
  std::vector<float> out(static_cast<size_t>(pixels * channels));
  for (int64_t p = 0; p < pixels; ++p) {
    for (int c = 0; c < channels; ++c) {
      out[p * channels + c] = static_cast<float>(src[p * 4 + c]) / 255.0f;
    }
  }
  return out;
}

std::vector<uint8_t> OracleCodes(const Bitmap& source, int size, int channels, float scale,
                                 int32_t zero_point) {
  uint8_t lut[256];
  const float inv_scale = 1.0f / scale;
  for (int p = 0; p < 256; ++p) {
    const float v = static_cast<float>(p) / 255.0f;
    const int32_t q = zero_point + static_cast<int32_t>(std::nearbyint(v * inv_scale));
    lut[p] = static_cast<uint8_t>(std::min(255, std::max(0, q)));
  }
  Bitmap scaled = (source.width() == size && source.height() == size)
                      ? source
                      : OracleResizeBilinear(source, size, size);
  const uint8_t* src = scaled.data();
  const int64_t pixels = static_cast<int64_t>(size) * size;
  std::vector<uint8_t> out(static_cast<size_t>(pixels * channels));
  for (int64_t p = 0; p < pixels; ++p) {
    for (int c = 0; c < channels; ++c) {
      out[p * channels + c] = lut[src[p * 4 + c]];
    }
  }
  return out;
}

// Source shapes for one target: degenerate strips, the identity, a
// leaderboard banner, a tall skyscraper, and seeded random up- and
// down-scales.
std::vector<std::pair<int, int>> ParitySources(int target, Rng& rng) {
  std::vector<std::pair<int, int>> shapes = {{1, 1},   {1, 37},     {37, 1},
                                             {target, target}, {728, 90}, {17, 400}};
  for (int i = 0; i < 3; ++i) {
    shapes.emplace_back(1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(target))),
                        1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(target))));
    shapes.emplace_back(target + 1 + static_cast<int>(rng.NextBelow(2 * target)),
                        target + 1 + static_cast<int>(rng.NextBelow(2 * target)));
  }
  return shapes;
}

TEST(ResizeParityTest, SeparableCoreMatchesPerPixelOracle) {
  Rng rng(2024);
  const std::vector<ActivationQuant> quants = {
      ComputeActivationQuant(0.0f, 1.0f), ComputeActivationQuant(0.0f, 0.75f),
      ComputeActivationQuant(-0.5f, 2.5f), ComputeActivationQuant(-1.0f, 1.0f)};
  int cases = 0;
  for (const int target : {8, 32, 64, 224}) {
    for (const auto& [w, h] : ParitySources(target, rng)) {
      const Bitmap source = RandomBitmap(rng, w, h);
      const std::string where = std::to_string(w) + "x" + std::to_string(h) + " -> " +
                                std::to_string(target);

      // A reused output bitmap holding stale pixels must be fully rewritten.
      Bitmap resized(target, target, Color{7, 7, 7, 7});
      ResizeBilinearInto(source, target, target, &resized);
      ASSERT_EQ(resized, OracleResizeBilinear(source, target, target)) << where;
      // Non-square, and a width whose rows end in a partial vector.
      ASSERT_EQ(ResizeBilinear(source, target - 1, 5), OracleResizeBilinear(source, target - 1, 5))
          << where << " (" << target - 1 << "x5)";

      for (const int channels : {3, 4}) {
        std::vector<float> floats(static_cast<size_t>(target) * target * channels);
        BitmapToTensorInto(source, target, channels, floats.data());
        ASSERT_EQ(floats, OracleTensor(source, target, channels)) << where << " c" << channels;

        for (const ActivationQuant& quant : quants) {
          std::vector<uint8_t> codes(floats.size());
          BitmapToTensorU8Into(source, target, channels, quant.scale, quant.zero_point,
                               codes.data());
          ASSERT_EQ(codes,
                    OracleCodes(source, target, channels, quant.scale, quant.zero_point))
              << where << " c" << channels << " scale " << quant.scale << " zp "
              << quant.zero_point;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 12 * 2 * 4);
}

// --- Banded resize --------------------------------------------------------
//
// BitmapToTensorInto and BitmapToTensorU8Into split their output rows over
// the inference pool, and every band recomputes its own column taps and
// first horizontal rows. Whatever the pool, the bytes must equal a serial
// run's (no pool installed): output sizes 1 to 224, 3 and 4 channels, from
// identity, upscaled and downscaled sources, on pools of 0-3 threads.
TEST(ResizeBandTest, BandedConversionsMatchSerialOnEveryPool) {
  Rng rng(2025);
  const ActivationQuant quant = ComputeActivationQuant(0.0f, 1.0f);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int threads = 1; threads <= 3; ++threads) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  uint64_t fan_outs = 0;
  for (const int target : {1, 7, 64, 224}) {
    const std::pair<int, int> shapes[] = {{target, target},
                                          {std::max(1, target / 3), std::max(1, target / 2)},
                                          {2 * target + 5, 3 * target + 1}};
    for (const auto& [w, h] : shapes) {
      const Bitmap source = RandomBitmap(rng, w, h);
      for (const int channels : {3, 4}) {
        const size_t elements = static_cast<size_t>(target) * target * channels;
        SetInferenceThreadPool(nullptr);
        std::vector<float> want_floats(elements);
        BitmapToTensorInto(source, target, channels, want_floats.data());
        std::vector<uint8_t> want_codes(elements);
        BitmapToTensorU8Into(source, target, channels, quant.scale, quant.zero_point,
                             want_codes.data());
        for (const auto& pool : pools) {
          const std::string where = std::to_string(w) + "x" + std::to_string(h) + " -> " +
                                    std::to_string(target) + " c" + std::to_string(channels) +
                                    " pool " + std::to_string(pool->num_threads());
          SetInferenceThreadPool(pool.get());
          ResetGemmGatherStats();
          std::vector<float> floats(elements, -1.0f);
          BitmapToTensorInto(source, target, channels, floats.data());
          std::vector<uint8_t> codes(elements, 0xAB);
          BitmapToTensorU8Into(source, target, channels, quant.scale, quant.zero_point,
                               codes.data());
          fan_outs += GetGemmGatherStats().fan_outs;
          SetInferenceThreadPool(nullptr);
          ASSERT_EQ(floats, want_floats) << where;
          ASSERT_EQ(codes, want_codes) << where;
        }
      }
    }
  }
  EXPECT_GT(fan_outs, 0u) << "no resize ever split its rows";
}

// ClassifyBatch's shape: an outer fan-out over images, each image resized
// inside it. The nested banded calls run inline (on a pool worker, or on
// the caller while the outer fan-out owns the pool) and still produce a
// serial run's bytes.
TEST(ResizeBandTest, NestedInsideAnImageFanOutMatchesSerial) {
  Rng rng(2026);
  const ActivationQuant quant = ComputeActivationQuant(0.0f, 1.0f);
  const int size = 64;
  const int channels = 4;
  const int64_t sample = static_cast<int64_t>(size) * size * channels;
  std::vector<Bitmap> images;
  for (int i = 0; i < 6; ++i) {
    images.push_back(RandomBitmap(rng, 20 + 37 * i, 150 - 19 * i));
  }
  const int64_t batch = static_cast<int64_t>(images.size());
  std::vector<uint8_t> want(static_cast<size_t>(batch * sample));
  for (int64_t i = 0; i < batch; ++i) {
    BitmapToTensorU8Into(images[static_cast<size_t>(i)], size, channels, quant.scale,
                         quant.zero_point, want.data() + i * sample);
  }
  ThreadPool pool(3);
  SetInferenceThreadPool(&pool);
  std::vector<uint8_t> got(want.size(), 0xAB);
  InferenceParallelFor(batch, sample * kResizeMacsPerElement, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      BitmapToTensorU8Into(images[static_cast<size_t>(i)], size, channels, quant.scale,
                           quant.zero_point, got.data() + i * sample);
    }
  });
  SetInferenceThreadPool(nullptr);
  EXPECT_EQ(got, want);
}

// A half-way value must round away from zero, as lround does: resampling a
// 2-pixel row to 3 puts output column 1 exactly midway (fx = 0.5).
TEST(ResizeParityTest, HalfwayValuesRoundUp) {
  Bitmap source(2, 1, Color{0, 0, 0, 0});
  source.SetPixel(1, 0, Color{1, 3, 255, 254});
  EXPECT_EQ(ResizeBilinear(source, 3, 1).GetPixel(1, 0), (Color{1, 2, 128, 127}));
  for (const int width : {3, 4, 5, 7, 8, 9, 16}) {
    EXPECT_EQ(ResizeBilinear(source, width, 3), OracleResizeBilinear(source, width, 3))
        << width;
  }
}

TEST(BitmapTest, FillAndClearMatchPerPixelWrites) {
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {0, 0}, {0, 4}, {1, 1}, {3, 5}, {17, 13}, {64, 1}, {33, 33}}) {
    for (const Color color : {Color{1, 2, 3, 4}, Color{0, 0, 0, 255}, Color{9, 9, 9, 9}}) {
      Bitmap per_pixel(w, h, Color{200, 100, 50, 25});
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          per_pixel.SetPixel(x, y, color);
        }
      }
      EXPECT_EQ(Bitmap(w, h, color), per_pixel) << w << "x" << h;

      Bitmap cleared(w, h, Color{200, 100, 50, 25});
      cleared.Clear(color);
      EXPECT_EQ(cleared, per_pixel) << w << "x" << h;
    }
  }
}

TEST(ResizeTest, IdentityWhenSameSize) {
  Rng rng(5);
  Bitmap bitmap = RandomBitmap(rng, 10, 10);
  Bitmap resized = ResizeBilinear(bitmap, 10, 10);
  EXPECT_EQ(resized, bitmap);
}

TEST(ResizeTest, UniformStaysUniform) {
  Bitmap bitmap(7, 5, Color{42, 42, 42, 255});
  Bitmap resized = ResizeBilinear(bitmap, 13, 11);
  for (int y = 0; y < resized.height(); ++y) {
    for (int x = 0; x < resized.width(); ++x) {
      EXPECT_EQ(resized.GetPixel(x, y), (Color{42, 42, 42, 255}));
    }
  }
}

TEST(ResizeTest, DownscaleDimensions) {
  Rng rng(6);
  Bitmap bitmap = RandomBitmap(rng, 100, 60);
  Bitmap resized = ResizeBilinear(bitmap, 32, 32);
  EXPECT_EQ(resized.width(), 32);
  EXPECT_EQ(resized.height(), 32);
}

TEST(ResizeTest, BitmapToTensorNormalizes) {
  Bitmap bitmap(4, 4, Color{255, 0, 128, 255});
  Tensor tensor = BitmapToTensor(bitmap, 4, 3);
  EXPECT_EQ(tensor.shape(), (TensorShape{1, 4, 4, 3}));
  EXPECT_FLOAT_EQ(tensor.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(tensor.at(0, 0, 0, 1), 0.0f);
  EXPECT_NEAR(tensor.at(0, 0, 0, 2), 128.0f / 255.0f, 1e-5f);
}

TEST(ResizeTest, BitmapToTensorFourChannelsKeepsAlpha) {
  Bitmap bitmap(2, 2, Color{0, 0, 0, 128});
  Tensor tensor = BitmapToTensor(bitmap, 2, 4);
  EXPECT_NEAR(tensor.at(0, 0, 0, 3), 128.0f / 255.0f, 1e-5f);
}

TEST(DrawTest, FillRectClips) {
  Bitmap bitmap(4, 4, Color{0, 0, 0, 255});
  FillRect(bitmap, Rect{-2, -2, 100, 3}, Color{255, 255, 255, 255});
  EXPECT_EQ(bitmap.GetPixel(0, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(3, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(0, 3).r, 0);
}

TEST(DrawTest, RectIntersects) {
  Rect a{0, 0, 10, 10};
  EXPECT_TRUE(a.Intersects(Rect{5, 5, 10, 10}));
  EXPECT_FALSE(a.Intersects(Rect{10, 0, 5, 5}));  // touching edges don't overlap
  EXPECT_TRUE(a.Contains(9, 9));
  EXPECT_FALSE(a.Contains(10, 10));
}

TEST(DrawTest, OutlineLeavesInteriorUntouched) {
  Bitmap bitmap(10, 10, Color{0, 0, 0, 255});
  DrawRectOutline(bitmap, Rect{0, 0, 10, 10}, Color{255, 0, 0, 255}, 1);
  EXPECT_EQ(bitmap.GetPixel(0, 0).r, 255);
  EXPECT_EQ(bitmap.GetPixel(5, 5).r, 0);
}

TEST(DrawTest, TextLineLeavesInk) {
  Bitmap bitmap(80, 12, Color{255, 255, 255, 255});
  Rng rng(7);
  DrawTextLine(bitmap, Rect{0, 0, 80, 12}, Color{0, 0, 0, 255}, GlyphStyle::kLatin, rng);
  EXPECT_GT(NonBackgroundFraction(bitmap, Color{255, 255, 255, 255}), 0.02);
}

class GlyphStyleTest : public ::testing::TestWithParam<GlyphStyle> {};

TEST_P(GlyphStyleTest, EveryStyleProducesInk) {
  Bitmap bitmap(100, 16, Color{255, 255, 255, 255});
  Rng rng(8);
  DrawTextLine(bitmap, Rect{2, 2, 96, 12}, Color{0, 0, 0, 255}, GetParam(), rng);
  EXPECT_GT(NonBackgroundFraction(bitmap, Color{255, 255, 255, 255}), 0.01);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, GlyphStyleTest,
                         ::testing::Values(GlyphStyle::kLatin, GlyphStyle::kArabic,
                                           GlyphStyle::kCjk, GlyphStyle::kHangul,
                                           GlyphStyle::kAccented));

TEST(PhashTest, IdenticalImagesSameHash) {
  Rng rng(9);
  Bitmap bitmap = RandomBitmap(rng, 32, 32);
  EXPECT_EQ(AverageHash(bitmap), AverageHash(bitmap));
}

TEST(PhashTest, SmallPerturbationSmallDistance) {
  Rng rng(10);
  Bitmap bitmap = StructuredBitmap(rng, 64, 64);
  Bitmap perturbed = bitmap;
  AddSpeckleNoise(perturbed, Rect{0, 0, 8, 8}, 3.0f, rng);
  EXPECT_LE(HammingDistance(AverageHash(bitmap), AverageHash(perturbed)), 6);
}

TEST(PhashTest, DifferentStructuresFarApart) {
  Bitmap dark(32, 32, Color{10, 10, 10, 255});
  FillRect(dark, Rect{0, 0, 16, 32}, Color{240, 240, 240, 255});
  Bitmap other(32, 32, Color{10, 10, 10, 255});
  FillRect(other, Rect{0, 0, 32, 16}, Color{240, 240, 240, 255});
  EXPECT_GT(HammingDistance(AverageHash(dark), AverageHash(other)), 16);
}

}  // namespace
}  // namespace percival
