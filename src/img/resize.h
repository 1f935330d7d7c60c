// Bilinear resize and bitmap->tensor conversion.
//
// PERCIVAL "reads the image, scales it to the network's input size, creates a
// tensor, and passes it through the CNN" (§3.3); this file is that step.
#ifndef PERCIVAL_SRC_IMG_RESIZE_H_
#define PERCIVAL_SRC_IMG_RESIZE_H_

#include <cstdint>

#include "src/img/bitmap.h"
#include "src/nn/tensor.h"

namespace percival {

// Bilinear resample to the requested size (both dimensions >= 1).
Bitmap ResizeBilinear(const Bitmap& source, int out_width, int out_height);

// Same resample written into a caller-provided bitmap, which is only
// (re)allocated when its dimensions differ from the target — a caller that
// keeps `out` across calls (AverageHash's thread-local 8x8 scratch) pays
// the allocation exactly once.
void ResizeBilinearInto(const Bitmap& source, int out_width, int out_height, Bitmap* out);

// Cost of one output element of BitmapToTensorInto / BitmapToTensorU8Into
// in the int8 MACs the inference fan-out rule counts (kMinMacsPerThread in
// nn/gemm.h): a 224x224x4 resize measured ~0.37 ms serial, ~55 M MACs of
// ~150 GMAC/s kernel time, so ~275 per element; 256 rounds that down.
// Those two entries split their output rows over the inference pool under
// this weight (and the cold fan-out rule, kMinMacsPerColdThread), and
// ClassifyBatch charges it per image.
inline constexpr int64_t kResizeMacsPerElement = 256;

// Converts to a {1, size, size, channels} float tensor in [0, 1], resizing
// bilinearly. `channels` is 3 (RGB) or 4 (RGBA; the paper feeds 224x224x4).
Tensor BitmapToTensor(const Bitmap& source, int size, int channels);

// Same conversion written into a caller-provided buffer of size*size*channels
// floats — lets batched classification fill one sample slot of a stacked
// NHWC tensor without an intermediate allocation and copy. Bands of output
// rows run on the inference pool; the bytes equal a serial run's.
void BitmapToTensorInto(const Bitmap& source, int size, int channels, float* out);

// Fused resize -> quantize for the int8 deployment path: converts straight
// to uint8 activation codes under value ~= scale * (code - zero_point),
// never materializing the float tensor. Each source byte maps through a
// 256-entry LUT computed with the exact float expression the
// BitmapToTensorInto + QuantizeActivations pair evaluates, so the produced
// codes are bit-identical to the float-then-quantize pipeline under the
// same quantization parameters. Banded over the inference pool like
// BitmapToTensorInto.
void BitmapToTensorU8Into(const Bitmap& source, int size, int channels, float scale,
                          int32_t zero_point, uint8_t* out);

// Writes a tensor sample's channel-0 plane as an 8-bit grayscale bitmap
// (used to dump Grad-CAM salience maps).
Bitmap TensorPlaneToBitmap(const Tensor& tensor, int n, int channel);

}  // namespace percival

#endif  // PERCIVAL_SRC_IMG_RESIZE_H_
