#include "src/img/resize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {
namespace {

// One separable bilinear core behind every entry point in this file.
//
// Bilinear interpolation of output pixel (x, y) is, per channel,
//   h(row) = a + fx * (b - a)          a, b = source (x0, row), (x1, row)
//   v      = h(y0) + fy * (h(y1) - h(y0))
//   out    = lround(v)
// where (x0, x1, fx) depend only on x and (y0, y1, fy) only on y. So the
// column taps are computed once per call, each needed source row is
// interpolated horizontally once into a cached float row, and each output
// row is one vertical pass over two cached rows. Every element still sees
// exactly the float operations, in the order, of the per-pixel expression
// above, so the output is bit-identical to evaluating it pixel by pixel
// (tests/img_test.cc keeps that evaluation as the oracle). The file is built
// with -ffp-contract=off: a fused multiply-add would round once instead of
// twice and break that identity.
//
// A call covers a band of output rows [y_begin, y_end): it recomputes the
// column taps and its band's first horizontal rows, so bands resampled on
// different threads produce exactly the bytes of one whole-image call.
//
// The scratch is per thread and only grows: at 224 px out it is ~10 KB.
struct ResampleScratch {
  std::vector<int32_t> x0_bytes;  // x0 * 4
  std::vector<int32_t> x1_bytes;  // x1 * 4
  std::vector<float> fx;
  std::vector<float> rows[2];  // horizontal pass of source row row_y[i]
  int row_y[2] = {-1, -1};
  std::vector<uint8_t> out_row;  // one RGBA8 output row
};

// One per thread, shared by every sink the core is instantiated with.
ResampleScratch& ThreadScratch() {
  thread_local ResampleScratch scratch;
  return scratch;
}

template <typename T>
void GrowTo(std::vector<T>& v, size_t n) {
  if (v.size() < n) {
    v.resize(n);
  }
}

// h[4x + c] = a + fx[x] * (b - a) over one RGBA8 source row.
void HorizontalPass(const uint8_t* src_row, const ResampleScratch& s, int out_width, float* h) {
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  auto load_pixel = [&](const uint8_t* p) {
    int32_t bytes = 0;
    std::memcpy(&bytes, p, 4);
    const __m128i u8 = _mm_cvtsi32_si128(bytes);
    return _mm_cvtepi32_ps(_mm_unpacklo_epi16(_mm_unpacklo_epi8(u8, zero), zero));
  };
  for (int x = 0; x < out_width; ++x) {
    const __m128 a = load_pixel(src_row + s.x0_bytes[x]);
    const __m128 b = load_pixel(src_row + s.x1_bytes[x]);
    const __m128 fx = _mm_set1_ps(s.fx[x]);
    _mm_storeu_ps(h + 4 * x, _mm_add_ps(a, _mm_mul_ps(fx, _mm_sub_ps(b, a))));
  }
#else
  for (int x = 0; x < out_width; ++x) {
    for (int c = 0; c < 4; ++c) {
      const float a = static_cast<float>(src_row[s.x0_bytes[x] + c]);
      const float b = static_cast<float>(src_row[s.x1_bytes[x] + c]);
      h[4 * x + c] = a + s.fx[x] * (b - a);
    }
  }
#endif
}

// out[i] = lround(top[i] + fy * (bottom[i] - top[i])). Every v lies in
// [0, 255] (a convex combination of bytes), where lround is exactly
// trunc(v) + (v - trunc(v) >= 0.5): the difference is exact in float.
void VerticalPass(const float* top, const float* bottom, float fy, int n, uint8_t* out) {
  int i = 0;
#if defined(__SSE2__)
  const __m128 f = _mm_set1_ps(fy);
  const __m128 half = _mm_set1_ps(0.5f);
  auto lerp_round = [&](int at) {
    const __m128 t = _mm_loadu_ps(top + at);
    const __m128 v = _mm_add_ps(t, _mm_mul_ps(f, _mm_sub_ps(_mm_loadu_ps(bottom + at), t)));
    const __m128i trunc = _mm_cvttps_epi32(v);
    const __m128 frac = _mm_sub_ps(v, _mm_cvtepi32_ps(trunc));
    // The compare mask is -1 where the fraction rounds up.
    return _mm_sub_epi32(trunc, _mm_castps_si128(_mm_cmpge_ps(frac, half)));
  };
  for (; i + 16 <= n; i += 16) {
    const __m128i lo = _mm_packs_epi32(lerp_round(i), lerp_round(i + 4));
    const __m128i hi = _mm_packs_epi32(lerp_round(i + 8), lerp_round(i + 12));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_packus_epi16(lo, hi));
  }
#endif
  for (; i < n; ++i) {
    const float v = top[i] + fy * (bottom[i] - top[i]);
    const int t = static_cast<int>(v);
    out[i] = static_cast<uint8_t>(t + (v - static_cast<float>(t) >= 0.5f ? 1 : 0));
  }
}

// Resamples `source` to out_width x out_height and hands each RGBA8 output
// row y in [y_begin, y_end) to sink(y, row) in order. A source already at
// the target size is passed through row by row: the resample is the
// identity there (every tap lands on a pixel with fx = fy = 0).
template <typename RowSink>
void ResampleRows(const Bitmap& source, int out_width, int out_height, int y_begin, int y_end,
                  RowSink&& sink) {
  PCHECK_GE(out_width, 1);
  PCHECK_GE(out_height, 1);
  PCHECK(!source.empty());
  PCHECK(0 <= y_begin && y_begin <= y_end && y_end <= out_height);
  const int src_w = source.width();
  const int src_h = source.height();
  const size_t src_stride = static_cast<size_t>(src_w) * 4;
  if (src_w == out_width && src_h == out_height) {
    for (int y = y_begin; y < y_end; ++y) {
      sink(y, source.data() + y * src_stride);
    }
    return;
  }

  ResampleScratch& s = ThreadScratch();
  const size_t row_floats = static_cast<size_t>(out_width) * 4;
  GrowTo(s.x0_bytes, out_width);
  GrowTo(s.x1_bytes, out_width);
  GrowTo(s.fx, out_width);
  GrowTo(s.rows[0], row_floats);
  GrowTo(s.rows[1], row_floats);
  GrowTo(s.out_row, row_floats);
  s.row_y[0] = s.row_y[1] = -1;

  const float x_scale = static_cast<float>(src_w) / static_cast<float>(out_width);
  const float y_scale = static_cast<float>(src_h) / static_cast<float>(out_height);
  for (int x = 0; x < out_width; ++x) {
    const float sx = (static_cast<float>(x) + 0.5f) * x_scale - 0.5f;
    const int x0 = std::clamp(static_cast<int>(std::floor(sx)), 0, src_w - 1);
    s.x0_bytes[x] = x0 * 4;
    s.x1_bytes[x] = std::min(x0 + 1, src_w - 1) * 4;
    s.fx[x] = std::clamp(sx - static_cast<float>(x0), 0.0f, 1.0f);
  }
  // Horizontal row of source row `sy`, computed at most once while it stays
  // cached; a miss evicts the slot that does not hold `keep`.
  auto fetch = [&](int sy, int keep) -> const float* {
    for (int i = 0; i < 2; ++i) {
      if (s.row_y[i] == sy) {
        return s.rows[i].data();
      }
    }
    const int slot = s.row_y[0] == keep ? 1 : 0;
    s.row_y[slot] = sy;
    HorizontalPass(source.data() + sy * src_stride, s, out_width, s.rows[slot].data());
    return s.rows[slot].data();
  };
  for (int y = y_begin; y < y_end; ++y) {
    const float sy = (static_cast<float>(y) + 0.5f) * y_scale - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(sy)), 0, src_h - 1);
    const int y1 = std::min(y0 + 1, src_h - 1);
    const float fy = std::clamp(sy - static_cast<float>(y0), 0.0f, 1.0f);
    const float* top = fetch(y0, y1);
    const float* bottom = fetch(y1, y0);
    VerticalPass(top, bottom, fy, static_cast<int>(row_floats), s.out_row.data());
    sink(y, s.out_row.data());
  }
}

// Writes one RGBA8 row as `channels` (3 or 4) mapped values per pixel.
template <typename T, typename Map>
void ConvertRow(const uint8_t* rgba, int width, int channels, T* out, Map map) {
  if (channels == 4) {
    for (int i = 0; i < width * 4; ++i) {
      out[i] = map(rgba[i]);
    }
    return;
  }
  for (int x = 0; x < width; ++x) {
    out[3 * x] = map(rgba[4 * x]);
    out[3 * x + 1] = map(rgba[4 * x + 1]);
    out[3 * x + 2] = map(rgba[4 * x + 2]);
  }
}

// Resamples `source` to size x size in bands of output rows split over
// the inference pool, handing every band's rows to `sink`. Each row is
// charged kResizeMacsPerElement per element under the cold fan-out rule
// (kMinMacsPerColdThread: the resize opens a classification, so its
// helpers may be parked). From a pool worker, or while another fan-out
// owns the pool, it runs inline.
template <typename RowSink>
void ResampleRowsBanded(const Bitmap& source, int size, int channels, RowSink&& sink) {
  InferenceParallelFor(
      size, kResizeMacsPerElement * size * channels,
      [&](int64_t begin, int64_t end) {
        ResampleRows(source, size, size, static_cast<int>(begin), static_cast<int>(end), sink);
      },
      kMinMacsPerColdThread);
}

}  // namespace

Bitmap ResizeBilinear(const Bitmap& source, int out_width, int out_height) {
  Bitmap out;
  ResizeBilinearInto(source, out_width, out_height, &out);
  return out;
}

void ResizeBilinearInto(const Bitmap& source, int out_width, int out_height, Bitmap* out_ptr) {
  PCHECK(out_ptr != nullptr && out_ptr != &source);
  if (out_ptr->width() != out_width || out_ptr->height() != out_height) {
    *out_ptr = Bitmap(out_width, out_height);
  }
  uint8_t* dst = out_ptr->data();
  const size_t row_bytes = static_cast<size_t>(out_width) * 4;
  ResampleRows(source, out_width, out_height, 0, out_height, [&](int y, const uint8_t* rgba) {
    std::memcpy(dst + y * row_bytes, rgba, row_bytes);
  });
}

Tensor BitmapToTensor(const Bitmap& source, int size, int channels) {
  Tensor tensor(1, size, size, channels);
  BitmapToTensorInto(source, size, channels, tensor.data());
  return tensor;
}

void BitmapToTensorInto(const Bitmap& source, int size, int channels, float* out) {
  PCHECK(channels == 3 || channels == 4);
  const size_t row_elems = static_cast<size_t>(size) * channels;
  ResampleRowsBanded(source, size, channels, [&](int y, const uint8_t* rgba) {
    ConvertRow(rgba, size, channels, out + y * row_elems,
               [](uint8_t p) { return static_cast<float>(p) / 255.0f; });
  });
}

void BitmapToTensorU8Into(const Bitmap& source, int size, int channels, float scale,
                          int32_t zero_point, uint8_t* out) {
  PCHECK(channels == 3 || channels == 4);
  PCHECK_GT(scale, 0.0f);
  // 256 source bytes -> 256 possible normalized floats -> 256 codes. The
  // LUT body must stay the exact expression QuantizeActivations applies to
  // BitmapToTensorInto's output (p / 255, scaled, nearbyint, clamp): that
  // identity is what makes u8-direct preprocessing bit-identical to the
  // float staging pipeline, and it is test-asserted.
  uint8_t lut[256];
  const float inv_scale = 1.0f / scale;
  for (int p = 0; p < 256; ++p) {
    const float v = static_cast<float>(p) / 255.0f;
    const int32_t q = zero_point + static_cast<int32_t>(std::nearbyint(v * inv_scale));
    lut[p] = static_cast<uint8_t>(std::min(255, std::max(0, q)));
  }
  const size_t row_elems = static_cast<size_t>(size) * channels;
  ResampleRowsBanded(source, size, channels, [&](int y, const uint8_t* rgba) {
    ConvertRow(rgba, size, channels, out + y * row_elems, [&](uint8_t p) { return lut[p]; });
  });
}

Bitmap TensorPlaneToBitmap(const Tensor& tensor, int n, int channel) {
  const TensorShape& s = tensor.shape();
  PCHECK_LT(n, s.n);
  PCHECK_LT(channel, s.c);
  float lo = 1e30f;
  float hi = -1e30f;
  for (int y = 0; y < s.h; ++y) {
    for (int x = 0; x < s.w; ++x) {
      const float v = tensor.at(n, y, x, channel);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  const float range = (hi - lo) > 1e-12f ? (hi - lo) : 1.0f;
  Bitmap out(s.w, s.h);
  for (int y = 0; y < s.h; ++y) {
    for (int x = 0; x < s.w; ++x) {
      const float v = (tensor.at(n, y, x, channel) - lo) / range;
      const auto g = static_cast<uint8_t>(std::lround(v * 255.0f));
      out.SetPixel(x, y, Color{g, g, g, 255});
    }
  }
  return out;
}

}  // namespace percival
