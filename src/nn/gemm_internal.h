// Internal glue between gemm.cc's runtime dispatch and the per-tier kernel
// translation units (gemm_tier_*.cc). Not part of the public API.
//
// Each tier TU compiles gemm_tier_impl.inc under its own -m flags and
// exports one GemmKernelTable of plain function pointers; gemm.cc resolves
// the active tier (simd.h) to a table at call time, falling down the ladder
// for entries a tier leaves null (e.g. the ssse3 tier carries only int8
// kernels — its float work resolves to the sse2 tier's table).
//
// The scalar tile templates live here, inline, because BOTH sides need
// them: gemm.cc instantiates them as the force-scalar oracle / no-SIMD
// fallback (baseline flags), and every tier TU instantiates its own copies
// of the implicit ones for runs shorter than one tile and for panel widths
// it has no intrinsic tile for. That per-TU duplication is deliberate — a
// tier kernel must never call into baseline-compiled code mid-loop, and the
// int8 epilogue stays bit-exact across copies because its accumulation is
// exact int32 and its only compiler-discretion float step is pinned to a
// single rounding by the explicit std::fma (see StoreInt8TileRow).
#ifndef PERCIVAL_SRC_NN_GEMM_INTERNAL_H_
#define PERCIVAL_SRC_NN_GEMM_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/nn/gemm.h"

namespace percival {

// One tier's exported kernels. Null entries mean "this tier does not carry
// that kernel" and resolution walks down the ladder (scalar at the bottom).
// `weight_max` / `native_panel_width` describe the int8 / float contracts
// of the tier's kernels and feed Int8WeightMax() / GemmNativePanelWidth().
struct GemmKernelTable {
  const char* float_name = nullptr;
  const char* int8_name = nullptr;
  int native_panel_width = kGemmTileNMin;
  int weight_max = 64;
  // The GEMM kernels, one float and two int8 (float / requantized-u8
  // store). They read A through an ImplicitConvView; gemm.cc hands dense
  // A matrices over as one-segment views (see DenseView there).
  void (*gemm_packed_implicit)(const ImplicitConvViewF& view, int n, const float* packed_b,
                               const float* bias, GemmEpilogue ep, float* c, int64_t ldc,
                               int panel_width) = nullptr;
  void (*gemm_int8_implicit)(const ImplicitConvViewU8& view, const Int8PackedFilters& packed,
                             const ActivationQuant& quant, const float* bias, GemmEpilogue ep,
                             float* c, int64_t ldc) = nullptr;
  void (*gemm_int8_implicit_u8)(const ImplicitConvViewU8& view,
                                const Int8PackedFilters& packed, const ActivationQuant& quant,
                                const float* bias, GemmEpilogue ep,
                                const ActivationQuant& out_quant, uint8_t* c,
                                int64_t ldc) = nullptr;
  void (*quantize_activations)(const float* src, int64_t count, const ActivationQuant& quant,
                               uint8_t* dst) = nullptr;
  void (*min_max_range)(const float* data, int64_t count, float* min_out,
                        float* max_out) = nullptr;
};

// Per-tier table accessors, defined by the gemm_tier_*.cc TUs. A TU whose
// required instruction-set flags were unavailable at build time exports an
// all-null table, which resolution treats as "tier not compiled".
namespace gemm_tier_sse2 {
const GemmKernelTable& Table();
}
namespace gemm_tier_ssse3 {
const GemmKernelTable& Table();
}
namespace gemm_tier_avx2 {
const GemmKernelTable& Table();
}
namespace gemm_tier_avx512 {
const GemmKernelTable& Table();
}
namespace gemm_tier_vnni {
const GemmKernelTable& Table();
}

namespace gemm_internal {

// Scalar 4xPW tile kernel, templated on the panel width the packer used.
// Shared by the dense oracle (TileRowsScalar) and the implicit scalar
// tiles below. The accumulator array is small and fully unrolled, so the
// compiler keeps it in vector registers through the K loop.
template <int PW>
inline void MicroKernel4xN(int k, const float* const a[kGemmTileM], const float* panel,
                           float acc[kGemmTileM][PW]) {
  const float* a0 = a[0];
  const float* a1 = a[1];
  const float* a2 = a[2];
  const float* a3 = a[3];
  int kk = 0;
  for (; kk + 2 <= k; kk += 2) {
    const float* bp = panel + static_cast<size_t>(kk) * PW;
    const float* bq = bp + PW;
    const float v0 = a0[kk], w0 = a0[kk + 1];
    const float v1 = a1[kk], w1 = a1[kk + 1];
    const float v2 = a2[kk], w2 = a2[kk + 1];
    const float v3 = a3[kk], w3 = a3[kk + 1];
    for (int j = 0; j < PW; ++j) {
      acc[0][j] += v0 * bp[j] + w0 * bq[j];
      acc[1][j] += v1 * bp[j] + w1 * bq[j];
      acc[2][j] += v2 * bp[j] + w2 * bq[j];
      acc[3][j] += v3 * bp[j] + w3 * bq[j];
    }
  }
  for (; kk < k; ++kk) {
    const float* bp = panel + static_cast<size_t>(kk) * PW;
    const float v0 = a0[kk];
    const float v1 = a1[kk];
    const float v2 = a2[kk];
    const float v3 = a3[kk];
    for (int j = 0; j < PW; ++j) {
      acc[0][j] += v0 * bp[j];
      acc[1][j] += v1 * bp[j];
      acc[2][j] += v2 * bp[j];
      acc[3][j] += v3 * bp[j];
    }
  }
}

// Remainder kernel: one A row against one packed panel.
template <int PW>
inline void MicroKernel1xN(int k, const float* a, const float* panel, float acc[PW]) {
  for (int kk = 0; kk < k; ++kk) {
    const float* bp = panel + static_cast<size_t>(kk) * PW;
    const float v = a[kk];
    for (int j = 0; j < PW; ++j) {
      acc[j] += v * bp[j];
    }
  }
}

// Epilogue-aware store of one tile row from an accumulator buffer (any
// width >= `width`). `ep` and `bias` are loop-invariant, so the compiler
// hoists the branches.
inline void StoreTileRow(const float* acc, const float* bias, GemmEpilogue ep, int n0,
                         int width, float* c_row) {
  for (int j = 0; j < width; ++j) {
    float v = acc[j];
    if (ep != GemmEpilogue::kNone && bias != nullptr) {
      v += bias[n0 + j];
    }
    if (ep == GemmEpilogue::kBiasRelu && v < 0.0f) {
      v = 0.0f;
    }
    c_row[n0 + j] = v;
  }
}

// Dense scalar GEMM over all m rows: the independent oracle
// SetGemmForceScalar runs for dense calls (and the no-SIMD fallback). No
// tier kernel reaches it — their dense calls go through the implicit view.
template <int PW>
inline void TileRowsScalar(int64_t m, int n, int k, const float* a, const float* packed_b,
                           const float* bias, GemmEpilogue ep, float* c, int64_t ldc) {
  const int panels = (n + PW - 1) / PW;
  int64_t row = 0;
  for (; row + kGemmTileM <= m; row += kGemmTileM) {
    const float* rows[kGemmTileM];
    for (int i = 0; i < kGemmTileM; ++i) {
      rows[i] = a + (row + i) * k;
    }
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const float* pb = packed_b + static_cast<size_t>(panel) * k * PW;
      float acc[kGemmTileM][PW] = {};
      MicroKernel4xN<PW>(k, rows, pb, acc);
      for (int i = 0; i < kGemmTileM; ++i) {
        StoreTileRow(acc[i], bias, ep, n0, width, c + (row + i) * ldc);
      }
    }
  }
  for (; row < m; ++row) {
    const float* ar = a + row * k;
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const float* pb = packed_b + static_cast<size_t>(panel) * k * PW;
      float acc[PW] = {};
      MicroKernel1xN<PW>(k, ar, pb, acc);
      StoreTileRow(acc, bias, ep, n0, width, c + row * ldc);
    }
  }
}

// Scalar float entry handling both packable widths.
inline void GemmPackedScalarEntry(int64_t m, int n, int k, const float* a,
                                  const float* packed_b, const float* bias, GemmEpilogue ep,
                                  float* c, int64_t ldc, int panel_width) {
  if (panel_width == kGemmTileNMin) {
    TileRowsScalar<kGemmTileNMin>(m, n, k, a, packed_b, bias, ep, c, ldc);
  } else {
    TileRowsScalar<kGemmTileNMax>(m, n, k, a, packed_b, bias, ep, c, ldc);
  }
}

// Dequantizing store of one tile row of int32 accumulators:
// c[j] = sink(epilogue(fma(a_scale * w_scale[j], acc[j] - zp * row_sum[j],
// bias))). `scales` / `row_sums` are the panel-padded arrays indexed from
// n0.
//
// The bias addition is an EXPLICIT single-rounding fused multiply-add, here
// and in the vectorized AVX-512 / AVX2 / SSE epilogues in the tier TUs.
// With a plain `mul` + `add` the compiler's default fp-contraction is free
// to fuse some inlined copies and not others, and the cross-width /
// cross-tier bit-exactness contract would then hinge on compiler whim per
// call site (observed: the 4x32 kernel's epilogue contracted while the 4x16
// one's did not, a last-ulp split the parity tests caught). Spelling the
// fma out pins one rounding everywhere — including across the per-TU
// template copies this header now produces, where contraction behavior
// additionally differs with each TU's -m flags.
template <typename Sink>
inline void StoreInt8TileRow(const int32_t* acc, const Int8PackedFilters& packed,
                             const ActivationQuant& quant, const float* bias,
                             GemmEpilogue ep, int n0, int width, typename Sink::Out* c_row,
                             const Sink& sink) {
  const float* scales = packed.scales.data();
  const int32_t* row_sums = packed.row_sums.data();
  const bool add_bias = ep != GemmEpilogue::kNone && bias != nullptr;
  for (int j = 0; j < width; ++j) {
    const int32_t corrected = acc[j] - quant.zero_point * row_sums[n0 + j];
    const float combined = quant.scale * scales[n0 + j];
    float v = add_bias ? std::fma(combined, static_cast<float>(corrected), bias[n0 + j])
                       : combined * static_cast<float>(corrected);
    if (ep == GemmEpilogue::kBiasRelu && v < 0.0f) {
      v = 0.0f;
    }
    sink.Put(c_row, n0 + j, v);
  }
}

// Scalar int8 tile kernel over the interleaved panel layout, templated on
// the width the panels were packed at. Accumulation is wide int32
// throughout, which makes it bit-exact against BOTH intrinsic families for
// their respective weight contracts: the maddubs tiers never saturate under
// ±64 codes, and the VNNI tier's vpdpbusd is itself an exact int32 sum
// under the full ±127 codes — so SetGemmForceScalar parity holds to the
// last epilogue ulp on every tier and at either panel width.
template <int PW, typename Sink>
inline void Int8TileRowsScalar(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                               const ActivationQuant& quant, const float* bias,
                               GemmEpilogue ep, typename Sink::Out* c, int64_t ldc,
                               const Sink& sink) {
  const int n = packed.n;
  const int k_padded = packed.k_padded;
  const int groups = k_padded / kInt8KUnit;
  const int panels = (n + PW - 1) / PW;
  int64_t row = 0;
  for (; row + kGemmTileM <= m; row += kGemmTileM) {
    const uint8_t* rows[kGemmTileM];
    for (int i = 0; i < kGemmTileM; ++i) {
      rows[i] = a + (row + i) * k_padded;
    }
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const int8_t* pb = packed.data.data() +
                         static_cast<size_t>(panel) * groups * PW * kInt8KUnit;
      int32_t acc[kGemmTileM][PW] = {};
      for (int g = 0; g < groups; ++g) {
        const int8_t* group = pb + static_cast<size_t>(g) * PW * kInt8KUnit;
        for (int i = 0; i < kGemmTileM; ++i) {
          const uint8_t* ar = rows[i] + g * kInt8KUnit;
          for (int j = 0; j < PW; ++j) {
            const int8_t* bj = group + j * kInt8KUnit;
            acc[i][j] += static_cast<int32_t>(ar[0]) * bj[0] +
                         static_cast<int32_t>(ar[1]) * bj[1] +
                         static_cast<int32_t>(ar[2]) * bj[2] +
                         static_cast<int32_t>(ar[3]) * bj[3];
          }
        }
      }
      for (int i = 0; i < kGemmTileM; ++i) {
        StoreInt8TileRow(acc[i], packed, quant, bias, ep, n0, width, c + (row + i) * ldc,
                         sink);
      }
    }
  }
  for (; row < m; ++row) {
    const uint8_t* ar = a + row * k_padded;
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const int8_t* pb = packed.data.data() +
                         static_cast<size_t>(panel) * groups * PW * kInt8KUnit;
      int32_t acc[PW] = {};
      for (int g = 0; g < groups; ++g) {
        const int8_t* group = pb + static_cast<size_t>(g) * PW * kInt8KUnit;
        const uint8_t* ag = ar + g * kInt8KUnit;
        for (int j = 0; j < PW; ++j) {
          const int8_t* bj = group + j * kInt8KUnit;
          acc[j] += static_cast<int32_t>(ag[0]) * bj[0] +
                    static_cast<int32_t>(ag[1]) * bj[1] +
                    static_cast<int32_t>(ag[2]) * bj[2] +
                    static_cast<int32_t>(ag[3]) * bj[3];
        }
      }
      StoreInt8TileRow(acc, packed, quant, bias, ep, n0, width, c + row * ldc, sink);
    }
  }
}

template <typename Sink>
inline void GemmInt8Scalar(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                           const ActivationQuant& quant, const float* bias, GemmEpilogue ep,
                           typename Sink::Out* c, int64_t ldc, const Sink& sink) {
  if (packed.panel_width == kGemmTileNMin) {
    Int8TileRowsScalar<kGemmTileNMin>(m, a, packed, quant, bias, ep, c, ldc, sink);
  } else {
    Int8TileRowsScalar<kGemmTileNMax>(m, a, packed, quant, bias, ep, c, ldc, sink);
  }
}

// Broadcast of 4 consecutive uint8 activation codes as one 32-bit lane
// pattern; rows of the quantized A matrix are k_padded (multiple of 4)
// bytes, so the load is always 4-byte aligned and in bounds.
inline int32_t LoadKGroup(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// ------------------------------------------- implicit-gather scalar tiles --
//
// Scalar implicit-GEMM kernels over the streaming conv view (see
// ImplicitConvView in gemm.h): the K loop runs per vertical tap segment
// with the accumulators carried across segments, which reproduces the
// materialized path's per-row accumulation order exactly (the packed panel
// and the patch row walk K in the same (kh, kw, c) order). Float pad taps
// are skipped — a materialized gather would multiply explicit zeros there —
// and u8 pad taps read the view's zero row, byte-identical to the pad
// codes Im2ColRowsU8 writes. These are the force-scalar oracle of the
// implicit entry points, and every tier's fallback for runs shorter than
// one tile and for (tier, width) pairs with no intrinsic tile.

// Columns [col_begin, col_end) of output row `oh`, float path.
template <int PW>
inline void ImplicitFloatColsScalar(const ImplicitConvViewF& v, int64_t oh,
                                    int64_t col_begin, int64_t col_end, int n,
                                    const float* packed_b, const float* bias,
                                    GemmEpilogue ep, float* c_oh, int64_t ldc) {
  const int panels = (n + PW - 1) / PW;
  const int k_seg = v.seg_len;
  const size_t panel_stride = static_cast<size_t>(v.segments) * k_seg * PW;
  const int64_t* off = v.offsets + oh * v.segments;
  int64_t col = col_begin;
  for (; col + kGemmTileM <= col_end; col += kGemmTileM) {
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const float* pb = packed_b + static_cast<size_t>(panel) * panel_stride;
      float acc[kGemmTileM][PW] = {};
      for (int s = 0; s < v.segments; ++s) {
        if (off[s] < 0) {
          continue;
        }
        const float* s0 = v.base + off[s] + col * v.col_stride;
        const float* rows[kGemmTileM] = {s0, s0 + v.col_stride, s0 + 2 * v.col_stride,
                                         s0 + 3 * v.col_stride};
        MicroKernel4xN<PW>(k_seg, rows, pb + static_cast<size_t>(s) * k_seg * PW, acc);
      }
      for (int i = 0; i < kGemmTileM; ++i) {
        StoreTileRow(acc[i], bias, ep, n0, width, c_oh + (col + i) * ldc);
      }
    }
  }
  for (; col < col_end; ++col) {
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const float* pb = packed_b + static_cast<size_t>(panel) * panel_stride;
      float acc[PW] = {};
      for (int s = 0; s < v.segments; ++s) {
        if (off[s] < 0) {
          continue;
        }
        MicroKernel1xN<PW>(k_seg, v.base + off[s] + col * v.col_stride,
                           pb + static_cast<size_t>(s) * k_seg * PW, acc);
      }
      StoreTileRow(acc, bias, ep, n0, width, c_oh + col * ldc);
    }
  }
}

inline void GemmPackedImplicitScalarEntry(const ImplicitConvViewF& v, int n,
                                          const float* packed_b, const float* bias,
                                          GemmEpilogue ep, float* c, int64_t ldc,
                                          int panel_width) {
  for (int64_t oh = v.oh_begin; oh < v.oh_end; ++oh) {
    float* c_oh = c + (oh - v.oh_begin) * v.c_row_stride;
    if (panel_width == kGemmTileNMin) {
      ImplicitFloatColsScalar<kGemmTileNMin>(v, oh, 0, v.run_w, n, packed_b, bias, ep, c_oh,
                                             ldc);
    } else {
      ImplicitFloatColsScalar<kGemmTileNMax>(v, oh, 0, v.run_w, n, packed_b, bias, ep, c_oh,
                                             ldc);
    }
  }
}

// Columns [col_begin, col_end) of output row `oh`, int8 path. seg_len is a
// multiple of kInt8KUnit (the caller's eligibility gate), so the 4-byte K
// groups of one segment never read past its end.
template <int PW, typename Sink>
inline void ImplicitInt8ColsScalar(const ImplicitConvViewU8& v, int64_t oh,
                                   int64_t col_begin, int64_t col_end,
                                   const Int8PackedFilters& packed,
                                   const ActivationQuant& quant, const float* bias,
                                   GemmEpilogue ep, typename Sink::Out* c_oh, int64_t ldc,
                                   const Sink& sink) {
  const int n = packed.n;
  const int panels = (n + PW - 1) / PW;
  const int gps = v.seg_len / kInt8KUnit;  // K groups per tap segment
  const size_t panel_stride =
      static_cast<size_t>(v.segments) * gps * PW * kInt8KUnit;
  const int64_t* off = v.offsets + oh * v.segments;
  int64_t col = col_begin;
  for (; col + kGemmTileM <= col_end; col += kGemmTileM) {
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const int8_t* pb = packed.data.data() + static_cast<size_t>(panel) * panel_stride;
      int32_t acc[kGemmTileM][PW] = {};
      for (int s = 0; s < v.segments; ++s) {
        const uint8_t* rows[kGemmTileM];
        if (off[s] < 0) {
          for (int i = 0; i < kGemmTileM; ++i) {
            rows[i] = v.zero_row;
          }
        } else {
          const uint8_t* s0 = v.base + off[s] + col * v.col_stride;
          for (int i = 0; i < kGemmTileM; ++i) {
            rows[i] = s0 + i * v.col_stride;
          }
        }
        const int8_t* pbs = pb + static_cast<size_t>(s) * gps * PW * kInt8KUnit;
        for (int g = 0; g < gps; ++g) {
          const int8_t* group = pbs + static_cast<size_t>(g) * PW * kInt8KUnit;
          for (int i = 0; i < kGemmTileM; ++i) {
            const uint8_t* ar = rows[i] + g * kInt8KUnit;
            for (int j = 0; j < PW; ++j) {
              const int8_t* bj = group + j * kInt8KUnit;
              acc[i][j] += static_cast<int32_t>(ar[0]) * bj[0] +
                           static_cast<int32_t>(ar[1]) * bj[1] +
                           static_cast<int32_t>(ar[2]) * bj[2] +
                           static_cast<int32_t>(ar[3]) * bj[3];
            }
          }
        }
      }
      for (int i = 0; i < kGemmTileM; ++i) {
        StoreInt8TileRow(acc[i], packed, quant, bias, ep, n0, width, c_oh + (col + i) * ldc,
                         sink);
      }
    }
  }
  for (; col < col_end; ++col) {
    for (int panel = 0; panel < panels; ++panel) {
      const int n0 = panel * PW;
      const int width = std::min(PW, n - n0);
      const int8_t* pb = packed.data.data() + static_cast<size_t>(panel) * panel_stride;
      int32_t acc[PW] = {};
      for (int s = 0; s < v.segments; ++s) {
        const uint8_t* ar0 =
            off[s] < 0 ? v.zero_row : v.base + off[s] + col * v.col_stride;
        const int8_t* pbs = pb + static_cast<size_t>(s) * gps * PW * kInt8KUnit;
        for (int g = 0; g < gps; ++g) {
          const int8_t* group = pbs + static_cast<size_t>(g) * PW * kInt8KUnit;
          const uint8_t* ag = ar0 + g * kInt8KUnit;
          for (int j = 0; j < PW; ++j) {
            const int8_t* bj = group + j * kInt8KUnit;
            acc[j] += static_cast<int32_t>(ag[0]) * bj[0] +
                      static_cast<int32_t>(ag[1]) * bj[1] +
                      static_cast<int32_t>(ag[2]) * bj[2] +
                      static_cast<int32_t>(ag[3]) * bj[3];
          }
        }
      }
      StoreInt8TileRow(acc, packed, quant, bias, ep, n0, width, c_oh + col * ldc, sink);
    }
  }
}

template <typename Sink>
inline void GemmInt8ImplicitScalar(const ImplicitConvViewU8& v,
                                   const Int8PackedFilters& packed,
                                   const ActivationQuant& quant, const float* bias,
                                   GemmEpilogue ep, typename Sink::Out* c, int64_t ldc,
                                   const Sink& sink) {
  for (int64_t oh = v.oh_begin; oh < v.oh_end; ++oh) {
    typename Sink::Out* c_oh = c + (oh - v.oh_begin) * v.c_row_stride;
    if (packed.panel_width == kGemmTileNMin) {
      ImplicitInt8ColsScalar<kGemmTileNMin>(v, oh, 0, v.run_w, packed, quant, bias, ep, c_oh,
                                            ldc, sink);
    } else {
      ImplicitInt8ColsScalar<kGemmTileNMax>(v, oh, 0, v.run_w, packed, quant, bias, ep, c_oh,
                                            ldc, sink);
    }
  }
}

}  // namespace gemm_internal

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_GEMM_INTERNAL_H_
