#include "src/img/bitmap.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"

namespace percival {
namespace {

// Writes the 4-byte pattern of `color` over all of `bytes` (a multiple of
// 4): one pixel, then doubling copies of what is already written.
void FillPixels(std::vector<uint8_t>& bytes, Color color) {
  if (bytes.empty()) {
    return;
  }
  const uint8_t pixel[4] = {color.r, color.g, color.b, color.a};
  uint8_t* p = bytes.data();
  std::memcpy(p, pixel, 4);
  for (size_t filled = 4; filled < bytes.size(); filled *= 2) {
    std::memcpy(p + filled, p, std::min(filled, bytes.size() - filled));
  }
}

}  // namespace

Bitmap::Bitmap(int width, int height, Color fill) : width_(width), height_(height) {
  PCHECK_GE(width, 0);
  PCHECK_GE(height, 0);
  pixels_.resize(static_cast<size_t>(width) * height * 4);
  FillPixels(pixels_, fill);
}

Color Bitmap::GetPixel(int x, int y) const {
  PCHECK(x >= 0 && x < width_ && y >= 0 && y < height_)
      << "pixel (" << x << "," << y << ") outside " << width_ << "x" << height_;
  const size_t i = (static_cast<size_t>(y) * width_ + x) * 4;
  return Color{pixels_[i], pixels_[i + 1], pixels_[i + 2], pixels_[i + 3]};
}

void Bitmap::SetPixel(int x, int y, Color color) {
  PCHECK(x >= 0 && x < width_ && y >= 0 && y < height_)
      << "pixel (" << x << "," << y << ") outside " << width_ << "x" << height_;
  const size_t i = (static_cast<size_t>(y) * width_ + x) * 4;
  pixels_[i] = color.r;
  pixels_[i + 1] = color.g;
  pixels_[i + 2] = color.b;
  pixels_[i + 3] = color.a;
}

void Bitmap::Clear(Color color) { FillPixels(pixels_, color); }

}  // namespace percival
