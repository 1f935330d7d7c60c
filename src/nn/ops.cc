#include "src/nn/ops.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

int ConvOutputSize(int size, int kernel, int stride, int pad) {
  int padded = size + 2 * pad - kernel;
  PCHECK_GE(padded, 0) << "window " << kernel << " larger than padded input " << size;
  return padded / stride + 1;
}

void Im2Col(const float* input, int height, int width, int channels, int kernel, int stride,
            int pad, float* columns) {
  const int out_h = ConvOutputSize(height, kernel, stride, pad);
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  Im2ColRows(input, height, width, channels, kernel, stride, pad, 0,
             static_cast<int64_t>(out_h) * out_w, columns);
}

void Im2ColRows(const float* input, int height, int width, int channels, int kernel, int stride,
                int pad, int64_t row_begin, int64_t row_end, float* columns) {
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  NoteBytesGathered(static_cast<uint64_t>(row_end - row_begin) * row_len * sizeof(float));
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int oh = static_cast<int>(r / out_w);
    const int ow = static_cast<int>(r % out_w);
    // Consecutive kw taps read consecutive input pixels, so a kh-row whose
    // kw span is fully in bounds is ONE contiguous kernel*channels copy —
    // the common case everywhere but the image border.
    const int iw0 = ow * stride - pad;
    const bool kw_span_in_bounds = iw0 >= 0 && iw0 + kernel <= width;
    float* row = columns + (r - row_begin) * row_len;
    for (int kh = 0; kh < kernel; ++kh) {
      const int ih = oh * stride + kh - pad;
      float* dst = row + kh * kernel * channels;
      if (ih < 0 || ih >= height) {
        std::memset(dst, 0, sizeof(float) * static_cast<size_t>(kernel) * channels);
        continue;
      }
      if (kw_span_in_bounds) {
        std::memcpy(dst, input + (static_cast<int64_t>(ih) * width + iw0) * channels,
                    sizeof(float) * static_cast<size_t>(kernel) * channels);
        continue;
      }
      for (int kw = 0; kw < kernel; ++kw) {
        const int iw = iw0 + kw;
        if (iw < 0 || iw >= width) {
          std::memset(dst + kw * channels, 0, sizeof(float) * static_cast<size_t>(channels));
        } else {
          const float* src = input + (static_cast<int64_t>(ih) * width + iw) * channels;
          std::memcpy(dst + kw * channels, src, sizeof(float) * static_cast<size_t>(channels));
        }
      }
    }
  }
}

void Im2ColRowsU8(const uint8_t* input, int height, int width, int channels, int kernel,
                  int stride, int pad, int64_t row_begin, int64_t row_end, uint8_t pad_value,
                  int row_stride, uint8_t* columns) {
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  PCHECK_GE(row_stride, row_len);
  NoteBytesGathered(static_cast<uint64_t>(row_end - row_begin) * row_len);
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int oh = static_cast<int>(r / out_w);
    const int ow = static_cast<int>(r % out_w);
    // See Im2ColRows: an in-bounds kw span is one contiguous copy.
    const int iw0 = ow * stride - pad;
    const bool kw_span_in_bounds = iw0 >= 0 && iw0 + kernel <= width;
    uint8_t* row = columns + (r - row_begin) * row_stride;
    for (int kh = 0; kh < kernel; ++kh) {
      const int ih = oh * stride + kh - pad;
      uint8_t* dst = row + kh * kernel * channels;
      if (ih < 0 || ih >= height) {
        std::memset(dst, pad_value, static_cast<size_t>(kernel) * channels);
        continue;
      }
      if (kw_span_in_bounds) {
        std::memcpy(dst, input + (static_cast<int64_t>(ih) * width + iw0) * channels,
                    static_cast<size_t>(kernel) * channels);
        continue;
      }
      for (int kw = 0; kw < kernel; ++kw) {
        const int iw = iw0 + kw;
        if (iw < 0 || iw >= width) {
          std::memset(dst + kw * channels, pad_value, static_cast<size_t>(channels));
        } else {
          const uint8_t* src = input + (static_cast<int64_t>(ih) * width + iw) * channels;
          std::memcpy(dst + kw * channels, src, static_cast<size_t>(channels));
        }
      }
    }
    std::memset(row + row_len, pad_value, static_cast<size_t>(row_stride - row_len));
  }
}

void Col2Im(const float* columns, int height, int width, int channels, int kernel, int stride,
            int pad, float* input_grad) {
  const int out_h = ConvOutputSize(height, kernel, stride, pad);
  const int out_w = ConvOutputSize(width, kernel, stride, pad);
  const int row_len = kernel * kernel * channels;
  for (int oh = 0; oh < out_h; ++oh) {
    for (int ow = 0; ow < out_w; ++ow) {
      const float* row = columns + (static_cast<int64_t>(oh) * out_w + ow) * row_len;
      for (int kh = 0; kh < kernel; ++kh) {
        const int ih = oh * stride + kh - pad;
        if (ih < 0 || ih >= height) {
          continue;
        }
        for (int kw = 0; kw < kernel; ++kw) {
          const int iw = ow * stride + kw - pad;
          if (iw < 0 || iw >= width) {
            continue;
          }
          float* dst = input_grad + (static_cast<int64_t>(ih) * width + iw) * channels;
          const float* src = row + (kh * kernel + kw) * channels;
          for (int c = 0; c < channels; ++c) {
            dst[c] += src[c];
          }
        }
      }
    }
  }
}

void MaxPoolCodes(const uint8_t* in, int height, int width, int channels, int kernel,
                  int stride, uint8_t* out) {
  const int out_h = ConvOutputSize(height, kernel, stride, 0);
  const int out_w = ConvOutputSize(width, kernel, stride, 0);
  const int64_t row_bytes = static_cast<int64_t>(width) * channels;
  for (int oh = 0; oh < out_h; ++oh) {
    for (int ow = 0; ow < out_w; ++ow) {
      // Pad 0 and the floor in ConvOutputSize put the last tap at
      // ((size - k) / s) * s + k - 1 <= size - 1: every window is in bounds.
      const uint8_t* window = in + static_cast<int64_t>(oh) * stride * row_bytes +
                              static_cast<int64_t>(ow) * stride * channels;
      uint8_t* dst = out + (static_cast<int64_t>(oh) * out_w + ow) * channels;
      int c = 0;
#if defined(__SSE2__)
      // One 16-channel block at a time: load the first tap, pmaxub the rest
      // into it, store once.
      for (; c + 16 <= channels; c += 16) {
        __m128i best = _mm_loadu_si128(reinterpret_cast<const __m128i*>(window + c));
        for (int kh = 0; kh < kernel; ++kh) {
          const uint8_t* tap_row = window + kh * row_bytes + c;
          for (int kw = kh == 0 ? 1 : 0; kw < kernel; ++kw) {
            best = _mm_max_epu8(
                best, _mm_loadu_si128(reinterpret_cast<const __m128i*>(tap_row + kw * channels)));
          }
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + c), best);
      }
#endif
      for (; c < channels; ++c) {
        uint8_t best = window[c];
        for (int kh = 0; kh < kernel; ++kh) {
          const uint8_t* tap_row = window + kh * row_bytes + c;
          for (int kw = kh == 0 ? 1 : 0; kw < kernel; ++kw) {
            best = std::max(best, tap_row[kw * channels]);
          }
        }
        dst[c] = best;
      }
    }
  }
}

void Axpy(int64_t n, float a, const float* src, float* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] += a * src[i];
  }
}

float Dot(int64_t n, const float* a, const float* b) {
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) {
    acc0 += a[i] * b[i];
  }
  return acc0 + acc1 + acc2 + acc3;
}

}  // namespace percival
