// Seeded inputs of the frame_path workloads: page visits, their decoded
// frames, a content-deduplicated creative table, and ad re-encodes.
#ifndef PERCIVAL_FRAME_PATH_INPUTS_H_
#define PERCIVAL_FRAME_PATH_INPUTS_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "frame_path/measure.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/img/bitmap.h"
#include "src/img/codec.h"
#include "src/renderer/web_page.h"

namespace percival::frame_path {

// A page visit drawn from the seed: sites far from the 24 the shared model
// was trained on.
inline std::pair<int, int> PickPage(Rng& rng) {
  const int site = 100 + static_cast<int>(rng.NextBelow(100000));
  const int page = static_cast<int>(rng.NextBelow(8));
  return {site, page};
}

struct DecodedImage {
  std::string url;
  std::vector<Bitmap> frames;
  bool is_ad = false;
};

// Decodes every image resource of `page` in URL order, timing each decode
// into `decode_ms` (the img layer's decode cost).
inline std::vector<DecodedImage> DecodePage(const WebPage& page, Samples* decode_ms) {
  std::vector<DecodedImage> images;
  for (const auto& [url, resource] : page.resources) {
    if (resource.type != ResourceType::kImage) {
      continue;
    }
    const int64_t start = NowNs();
    std::optional<std::vector<Bitmap>> frames = DecodeAllFrames(resource.bytes);
    decode_ms->Add(NsToMs(NowNs() - start));
    if (frames) {
      images.push_back(DecodedImage{url, std::move(*frames), resource.is_ad});
    }
  }
  return images;
}

struct Creative {
  Bitmap pixels;
  bool is_ad = false;
};

// Distinct frames by pixel content, so one id is one memo key.
class CreativeTable {
 public:
  // Returns the id of `pixels`, adding it when unseen.
  int Intern(Bitmap pixels, bool is_ad) {
    const uint64_t key = HashBytes(pixels.data(), pixels.byte_size());
    auto range = index_.equal_range(key);
    for (auto it = range.first; it != range.second; ++it) {
      if (creatives_[static_cast<size_t>(it->second)].pixels == pixels) {
        return it->second;
      }
    }
    const int id = static_cast<int>(creatives_.size());
    creatives_.push_back(Creative{std::move(pixels), is_ad});
    index_.emplace(key, id);
    return id;
  }
  const Creative& at(int id) const { return creatives_[static_cast<size_t>(id)]; }
  size_t size() const { return creatives_.size(); }
  std::vector<const Bitmap*> Pixels() const {
    std::vector<const Bitmap*> out;
    out.reserve(creatives_.size());
    for (const Creative& c : creatives_) {
      out.push_back(&c.pixels);
    }
    return out;
  }

 private:
  std::vector<Creative> creatives_;
  std::unordered_multimap<uint64_t, int> index_;
};

// A re-encode of `source` by another ad network: each colour channel moves
// by at most 3 levels in a pattern fixed by `variant` — pixel-distinct (an
// L1 miss) while the AverageHash moves only a few bits.
inline Bitmap Reencode(const Bitmap& source, uint64_t variant) {
  Bitmap out = source;
  uint8_t* px = out.data();
  const int width = out.width();
  for (int y = 0; y < out.height(); ++y) {
    for (int x = 0; x < width; ++x) {
      uint8_t* p = px + (static_cast<size_t>(y) * static_cast<size_t>(width) +
                         static_cast<size_t>(x)) * 4;
      for (int k = 0; k < 3; ++k) {
        const int d = static_cast<int>((static_cast<uint64_t>(x) * 7 + static_cast<uint64_t>(y) * 13 +
                                        variant * 31 + static_cast<uint64_t>(k)) % 7) - 3;
        p[k] = static_cast<uint8_t>(std::clamp(static_cast<int>(p[k]) + d, 0, 255));
      }
    }
  }
  return out;
}

}  // namespace percival::frame_path

#endif  // PERCIVAL_FRAME_PATH_INPUTS_H_
