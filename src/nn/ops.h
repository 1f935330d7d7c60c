// Low-level numeric kernels: im2col / col2im and small dot-product helpers.
//
// Convolutions are lowered to matrix products over im2col buffers. Weight
// rows and column rows are both contiguous, so the inner loops are plain
// dot-products / axpy over contiguous memory.
#ifndef PERCIVAL_SRC_NN_OPS_H_
#define PERCIVAL_SRC_NN_OPS_H_

#include <cstdint>

namespace percival {

// Computes the output spatial size of a convolution/pool window.
// Requires (size + 2*pad - kernel) to be non-negative.
int ConvOutputSize(int size, int kernel, int stride, int pad);

// Expands one NHWC sample (h, w, c) into a column matrix of shape
// [out_h*out_w, kernel*kernel*c]; out-of-bounds taps are zero.
void Im2Col(const float* input, int height, int width, int channels, int kernel, int stride,
            int pad, float* columns);

// Row-ranged Im2Col: writes only output rows [row_begin, row_end) — row r
// is output pixel (r / out_w, r % out_w) — starting at columns[0]. Lets the
// GEMM engine expand each parallel chunk into a small thread-local buffer
// instead of materializing the whole patch matrix.
void Im2ColRows(const float* input, int height, int width, int channels, int kernel, int stride,
                int pad, int64_t row_begin, int64_t row_end, float* columns);

// Uint8 variant for the quantized inference path: expands rows of an
// already-quantized NHWC sample. Rows are written at `row_stride` bytes
// (>= kernel*kernel*channels); out-of-bounds taps and the [row_len,
// row_stride) tail are filled with `pad_value` (the quantization zero
// point, i.e. the exact code for real 0).
void Im2ColRowsU8(const uint8_t* input, int height, int width, int channels, int kernel,
                  int stride, int pad, int64_t row_begin, int64_t row_end, uint8_t pad_value,
                  int row_stride, uint8_t* columns);

// Scatter-adds a column matrix back into an NHWC sample (inverse of Im2Col).
// `input_grad` must be pre-zeroed by the caller.
void Col2Im(const float* columns, int height, int width, int channels, int kernel, int stride,
            int pad, float* input_grad);

// Quantized-code max-pool for the zero-float dataflow plan. It operates on
// uint8 activation codes (value ~= scale * (code - zero_point)) and is the
// EXACT image of its float counterpart: quantization is monotone, so a
// max-pool window's max code is the code of the window's max value.

// Max-pools one NHWC uint8 sample (pad 0, output size
// ConvOutputSize(dim, kernel, stride, 0), so every window is in bounds),
// matching MaxPool2D::Forward. `out` must not alias `in`.
void MaxPoolCodes(const uint8_t* in, int height, int width, int channels, int kernel,
                  int stride, uint8_t* out);

// dst[i] += a * src[i] for i < n.
void Axpy(int64_t n, float a, const float* src, float* dst);

// Returns the dot product of two length-n contiguous vectors.
float Dot(int64_t n, const float* a, const float* b);

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_OPS_H_
