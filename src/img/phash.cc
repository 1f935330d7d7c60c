#include "src/img/phash.h"

#include <bit>

#include "src/img/resize.h"

namespace percival {

uint64_t AverageHash(const Bitmap& bitmap) {
  if (bitmap.empty()) {
    return 0;
  }
  // Thread-local 8x8 scratch (the classifier's u8 preprocessing buffer uses
  // the same pattern): dataset dedup sweeps and the serving engine's L2
  // probe hash every incoming image, and a fresh 256-byte Bitmap per call
  // was the only allocation on that path.
  thread_local Bitmap small;
  ResizeBilinearInto(bitmap, 8, 8, &small);
  const uint8_t* rgba = small.data();
  int gray[64];
  int total = 0;
  for (int i = 0; i < 64; ++i) {
    const uint8_t* c = rgba + 4 * i;
    gray[i] = (static_cast<int>(c[0]) * 299 + c[1] * 587 + c[2] * 114) / 1000;
    total += gray[i];
  }
  const int mean = total / 64;
  uint64_t hash = 0;
  for (int i = 0; i < 64; ++i) {
    if (gray[i] > mean) {
      hash |= (1ULL << i);
    }
  }
  return hash;
}

int HammingDistance(uint64_t a, uint64_t b) { return std::popcount(a ^ b); }

}  // namespace percival
