// Register-blocked GEMM engine for the inference hot path.
//
// Convolutions lower to C[M x N] = A[M x K] * B[N x K]^T + bias, where a
// row of A is one output pixel's (kh, kw, c) patch (M = output pixels,
// K = kernel*kernel*in_channels) and B holds one flattened filter per row
// (N = out_channels). The engine packs B into column-panel form, then walks
// A in 4x16 (or 4x32) register tiles whose inner loop is an explicitly
// vectorized multiply-accumulate. Each SIMD tier carries ONE kernel family,
// which reads A through an ImplicitConvView (below): an implicit conv
// streams patch rows straight from the NHWC tensor, and a dense row-major
// A — an im2col gather in scratch, or a 1x1 conv's input — is the
// one-segment view of itself.
// Every SIMD tier is compiled into the binary and the kernel is picked at
// runtime by cpuid detection (see simd.h); large problems split their M
// rows across the shared inference ThreadPool.
//
// The epilogue (bias add, optional ReLU) is folded into the tile store, so
// a fused Conv->ReLU never materializes the pre-activation tensor, and the
// output row stride is a parameter, so a caller can aim the kernel directly
// at a channel slice of a larger tensor (FireModule's concat halves).
//
// A thread-local ScratchArena backs every transient buffer (im2col chunks,
// plus the packed panels of one-shot GemmNT calls), so steady-state
// inference performs zero heap allocation once the arena has warmed up.
// Conv2D's inference packing does NOT live here: its panels persist in a
// per-layer cache across forwards, invalidated by the weight Parameter's
// version counter (see conv.h).
#ifndef PERCIVAL_SRC_NN_GEMM_H_
#define PERCIVAL_SRC_NN_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/nn/simd.h"

namespace percival {

class ThreadPool;

// GEMM register-tile geometry. kTileM x kTileN accumulators stay hot
// through the K loop; 4x16 measured fastest of the shapes tried on the
// baseline x86-64 target (4x8, 8x8, 8x16, 4x32 all trailed it in the conv
// micro-bench). The AVX-512 tiers widen the panel to 4x32 — two zmm
// accumulators per row, the same register budget as the AVX2 4x16 tile.
//
// Because every tier is compiled into one binary, the panel width of the
// ACTIVE tier is a runtime value: GemmNativePanelWidth() below returns 32
// when the runtime dispatch resolves to an AVX-512 tier and 16 otherwise.
// kGemmTileNMin / kGemmTileNMax bound it at compile time for buffer sizing.
// The pack and kernel entry points accept either packable width: on the
// AVX-512 tiers a 16-wide pack selects a 4x16 sub-tile (one zmm per row)
// whose K loop does half the panel loads and half the FMA work of the 4x32
// tile — the right shape for layers with <= 16 output channels, where the
// wide panel spends most of its lanes on zero padding. On the 16-native
// tiers a 32-wide pack has no intrinsic tile and runs the scalar fallback
// (correct, slow — it only arises when a tier cap drops the active tier
// below the width an artifact was packed at; planners repack on the next
// plan). The per-layer choice is made by the kernel planner below.
inline constexpr int kGemmTileM = 4;
inline constexpr int kGemmTileNMin = 16;
inline constexpr int kGemmTileNMax = 32;

// Native panel width of the active tier: 32 on the AVX-512 rungs, else 16.
// Follows SetSimdTierCap — capping below avx512 narrows the native width at
// the next plan/pack.
int GemmNativePanelWidth();

// True for the panel widths the kernel ladder can consume (16 and 32).
bool ValidPanelWidth(int width);

// Bump allocator for transient kernel buffers. Alloc() never invalidates
// previously returned pointers (full blocks are retired, not reallocated);
// Reset() recycles all space and coalesces retired blocks so the steady
// state is a single reused slab.
class ScratchArena {
 public:
  float* Alloc(size_t count);
  void Reset();

  // Resets the arena and grows it to at least `count` floats in one slab.
  // Invalidates previously returned pointers (like Reset); used by
  // Network::PlanForward so even the first inference never grows the arena.
  void Reserve(size_t count);

  // Total floats currently reserved (diagnostics / allocation tests).
  size_t CapacityFloats() const;

 private:
  std::vector<float> block_;
  size_t used_ = 0;
  std::vector<std::vector<float>> retired_;
};

// The calling thread's arena. Worker threads in the inference pool each get
// their own, which is what makes concurrent forward passes allocation-free
// without locking.
ScratchArena& LocalArena();

// Process-wide gather/scratch traffic counters (the GetTensorAllocStats of
// the kernel layer). `bytes_gathered` is the total payload the Im2ColRows*
// family copied into scratch since the last reset — the traffic the
// implicit gather policy exists to eliminate; `arena_high_water_bytes` is
// the largest per-arena in-use size any ScratchArena::Alloc reached since
// the last reset. Both are relaxed atomics: exact single-threaded, and
// every copy is counted (never torn) under concurrency.
struct GemmGatherStats {
  uint64_t bytes_gathered = 0;
  uint64_t arena_high_water_bytes = 0;
};
GemmGatherStats GetGemmGatherStats();
void ResetGemmGatherStats();

// Accounting hook for the gather family (ops.cc): adds one gather's payload
// to `bytes_gathered`.
void NoteBytesGathered(uint64_t bytes);

// Process-wide inference execution knobs. The pool is borrowed, not owned:
// callers must clear it (set nullptr) before destroying the pool. A null
// pool (the default) runs every kernel on the calling thread.
void SetInferenceThreadPool(ThreadPool* pool);
ThreadPool* InferenceThreadPool();

// RAII deployment helper: owns a ThreadPool (default: one worker per
// hardware thread) and installs it as the inference pool for its lifetime,
// restoring whatever pool was installed before on destruction.
class ScopedInferencePool {
 public:
  explicit ScopedInferencePool(int num_threads = 0);  // 0 = hardware threads
  ~ScopedInferencePool();
  ScopedInferencePool(const ScopedInferencePool&) = delete;
  ScopedInferencePool& operator=(const ScopedInferencePool&) = delete;

  ThreadPool& pool() { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  ThreadPool* previous_ = nullptr;
};

// When true, the kernel entry points route to the always-compiled scalar
// micro-kernel instead of the active tier's intrinsic one, so a single
// binary can exercise (and benchmark) both paths. The scalar oracle runs at
// the CURRENT tier's panel width and weight clamp — it changes the kernel,
// not the data contract — which is what makes force-scalar parity exact
// under any SetSimdTierCap. Defaults to false.
void SetGemmForceScalar(bool force);
bool GemmForceScalar();

// Name of the float kernel GemmPackedEx dispatches to right now ("avx512",
// "avx2+fma", "sse2", or "scalar"; force-scalar reports "scalar"). Follows
// SetSimdTierCap.
const char* ActiveGemmKernelName();

// Same for the int8 kernel GemmInt8PackedEx dispatches to
// ("avx512vnni-vpdpbusd", "avx512bw-maddubs", "avx2-maddubs",
// "ssse3-maddubs", or "scalar").
const char* ActiveInt8KernelName();

// Logs the detected CPU feature set and the runtime-selected float/int8
// kernels + tile geometry exactly once per process (thread-safe, first
// kernel use; also called by ScopedInferencePool). If a tier cap or
// force-scalar pin overrode detection at log time, the line says so.
void LogSimdPathOnce();

// ------------------------------------------------------- kernel planner --
//
// Per-layer kernel decisions. Every hot-path component consumes a
// KernelPlan instead of a hard-coded choice: the GEMM pack + micro-kernels
// honor the panel width, the conv forward honors the gather policy, and
// Conv2D keys its pack caches on (weight version, plan) so a plan flip
// repacks exactly once. Plans are chosen at Network::PlanForward time from
// layer shape + the runtime-active SIMD tier (see ChooseConvKernelPlan),
// and can be pinned globally for A/B measurement. A SetSimdTierCap bumps
// the dispatch generation, which makes Network re-plan (and layers repack)
// under the new tier's width and clamp.

// How a conv feeds its patch matrix to the GEMM.
//   * kMaterialize — Im2ColRows gathers every patch row into scratch before
//     the kernel runs (the classic lowering; ~K*K x the activation bytes).
//   * kImplicit — the kernel streams the NHWC activation tensor in place
//     through a per-(output row, kernel tap) offset table; only the padded
//     edge columns are still gathered (see GemmPackedImplicit below).
enum class GatherPolicy : uint8_t {
  kMaterialize = 0,
  kImplicit = 1,
};

const char* GatherPolicyName(GatherPolicy policy);

// Minimum interior-run width (output columns seeing all kw taps in bounds)
// for the kAuto planner to pick kImplicit when the input width is known.
// Equals the widest implicit column tile across tiers (the 16-wide
// sub-panel kernels tile 8 columns); narrower runs spend most of their
// time in per-row edge/remainder paths and lose to the materialized
// whole-image GEMM.
inline constexpr int kImplicitMinInteriorRun = 8;

struct KernelPlan {
  int panel_width = GemmNativePanelWidth();
  GatherPolicy gather = GatherPolicy::kMaterialize;
};

inline bool operator==(const KernelPlan& a, const KernelPlan& b) {
  return a.panel_width == b.panel_width && a.gather == b.gather;
}
inline bool operator!=(const KernelPlan& a, const KernelPlan& b) { return !(a == b); }

// Global pinning knobs for panel/gather A/B experiments (benches, tests,
// README "how to pin"). 0 / kAuto restore the heuristic. They affect plans
// chosen AFTER the call — re-run PlanKernels (or Network::PlanForward) to
// apply them to existing layers.
void SetPlannerPanelOverride(int width);  // 0 = auto; else 16 or 32
int PlannerPanelOverride();

// Gather-policy pin for materialized-vs-implicit A/B experiments. kAuto is
// the heuristic in ChooseConvKernelPlan (implicit for a multi-tap conv
// whose interior run is at least kImplicitMinInteriorRun columns, or of
// unknown width); the force modes pin the plan field, though a forward still
// falls back to the materialized gather when implicit preconditions fail (no
// interior columns, unaligned int8 K segments).
enum class GatherPolicyMode : uint8_t { kAuto = 0, kForceMaterialize = 1, kForceImplicit = 2 };
void SetPlannerGatherPolicy(GatherPolicyMode mode);
GatherPolicyMode PlannerGatherPolicy();

// The planner heuristic: narrow layers (out_channels <= 16) take the
// 16-wide sub-tile on builds whose native panel is wider — the wide panel
// would spend >= half its lanes on zero padding — and everything else keeps
// the native width.
//
// The gather policy defaults to kImplicit for every multi-tap conv
// whose interior (the output columns where all kw taps are in bounds, given
// stride/pad/in_width) is non-empty: those columns stream straight from the
// NHWC tensor and only the <= pad edge columns per side still gather. 1x1
// kernels keep kMaterialize — they already run gather-free via the identity
// shortcut. `in_width` 0 means "unknown", which assumes a non-degenerate
// interior (the forward re-checks and falls back per shape).
KernelPlan ChooseConvKernelPlan(int out_channels, int kernel, int stride = 1, int pad = 0,
                                int in_width = 0);

// Packs row-major B[N x K] into column panels of `panel_width` filters:
// packed[panel][k][j] = B[(panel*panel_width + j) * K + k], zero-padded
// past N. `packed` must hold PackedPanelFloats(N, K, panel_width) floats.
size_t PackedPanelFloats(int n, int k, int panel_width = GemmNativePanelWidth());
void PackFilterPanels(const float* b, int n, int k, float* packed,
                      int panel_width = GemmNativePanelWidth());

// Post-accumulation transform applied inside the micro-kernel's store, so
// fused layers never materialize a pre-activation intermediate.
enum class GemmEpilogue {
  kNone,      // C = A * B^T             (bias ignored)
  kBias,      // C = A * B^T + bias      (null bias treated as zeros)
  kBiasRelu,  // C = max(0, A * B^T + bias)
};

// Computes C = epilogue(A * B^T + bias) over pre-packed panels. A is
// row-major [M x K] with contiguous rows; output row i starts at c + i*ldc
// (ldc >= n), which lets a caller write into a channel slice of a wider
// tensor. `panel_width` must match the width `packed_b` was packed at.
// Runs on the calling thread, through the tier's implicit kernel over the
// one-segment view of A (M must fit an int); force-scalar runs the dense
// scalar oracle instead.
void GemmPackedEx(int64_t m, int n, int k, const float* a, const float* packed_b,
                  const float* bias, GemmEpilogue epilogue, float* c, int64_t ldc,
                  int panel_width = GemmNativePanelWidth());

// ------------------------------------------------ implicit-GEMM conv view --
//
// The implicit path replaces the materialized im2col A matrix with a
// streaming view of one NHWC sample: a (kh, kw, c)-ordered patch row for
// output pixel (oh, ow) is `segments` chunks of `seg_len` contiguous
// elements — one per vertical kernel tap — and chunk s of the INTERIOR
// columns (the ones where every horizontal tap is in bounds) lives at
//   base + offsets[oh * segments + s] + (ow - ow_lo) * col_stride.
// A negative offset marks a vertical pad tap (ih out of bounds): the float
// kernels skip it (zero contribution), the u8 kernels read `zero_row`
// (seg_len bytes of the activation zero point, the exact codes a
// materialized gather would have written). The K the packed panels were
// built for must equal segments * seg_len; on the int8 path seg_len must
// additionally be a multiple of kInt8KUnit so K groups never straddle a
// tap boundary (callers fall back to the materialized gather otherwise).
//
// One call covers output rows [oh_begin, oh_end) x the run_w interior
// columns; output for (oh, col) lands at
//   c + (oh - oh_begin) * c_row_stride + col * ldc.
// Edge columns are the caller's job (conv.cc gathers just those through
// the classic Im2ColRows path). A dense row-major A[M x K] is the special
// case segments = 1, seg_len = col_stride = K, offsets = {0}, run_w = M,
// oh in [0, 1) — which is how the Gemm*PackedEx entry points reach the
// same kernels.
template <typename T>
struct ImplicitConvView {
  const T* base = nullptr;          // one sample's NHWC activation base
  const int64_t* offsets = nullptr; // [out_h * segments], element offsets; < 0 = pad tap
  const T* zero_row = nullptr;      // seg_len pad elements (u8 path only)
  int segments = 0;                 // vertical kernel taps (kernel height)
  int seg_len = 0;                  // kernel_w * channels elements per tap
  int col_stride = 0;               // stride * channels, step between interior columns
  int run_w = 0;                    // interior columns per output row
  int64_t oh_begin = 0;
  int64_t oh_end = 0;
  int64_t c_row_stride = 0;         // output elements between successive oh starts
};
using ImplicitConvViewF = ImplicitConvView<float>;
using ImplicitConvViewU8 = ImplicitConvView<uint8_t>;

// Implicit-GEMM float kernel: same contract as GemmPackedEx (panels,
// epilogue, ldc slicing) with the A matrix replaced by the streaming view.
// Results match GemmPackedEx over the materialized gather to the last ulp
// for finite weights — identical per-row accumulation order, identical
// epilogue.
void GemmPackedImplicit(const ImplicitConvViewF& view, int n, const float* packed_b,
                        const float* bias, GemmEpilogue epilogue, float* c, int64_t ldc,
                        int panel_width = GemmNativePanelWidth());

// ------------------------------------------------- int8 quantized engine --
//
// The quantized path computes C = epilogue(s_a * s_w[j] * (Q_A * Q_B^T -
// zp * rowsum[j]) + bias), where Q_A holds per-tensor asymmetric uint8
// activations (a ~= s_a * (q - zp)) and Q_B per-output-channel symmetric
// int8 weights (w ~= s_w[j] * q). Accumulation is exact int32; dequantize +
// bias + ReLU fold into the store, so the int8 path reuses the same
// GemmEpilogue contract as the float engine.
//
// Weight codes are clamped to [-Int8WeightMax(), Int8WeightMax()], a
// per-tier value baked into the quantization contract:
//   * maddubs tiers (avx512bw / avx2 / ssse3 / their scalar oracle runs)
//     accumulate via pmaddubsw, whose 16-bit pairwise add saturates; 64 is
//     the largest magnitude that provably cannot saturate
//     (2 * 255 * 64 = 32640 <= 32767; 65 would admit 33150).
//   * the VNNI tier (vpdpbusd) sums the four u8*s8 products straight into
//     int32 with no 16-bit intermediate, so it quantizes to the full ±127
//     int8 range — one extra bit of weight precision for free.
// The always-compiled scalar oracle accumulates in wide int32 for ANY code
// magnitude, so SetGemmForceScalar parity stays bit-exact on both tiers:
// against maddubs kernels because ±64 codes make their saturating adds
// exact, against vpdpbusd because both are exact int32 sums. The clamp in
// force at quantization time is recorded in serialized v2 weight files, so
// an artifact quantized under the wider VNNI contract is never fed to a
// saturating kernel — when the ACTIVE tier's clamp is narrower than the
// file's (a ±127 artifact on a maddubs-only host, or under a tier cap), the
// loader drops the quantized payload and requantizes from the dequantized
// floats instead (see serialize.cc).

// Weight-code clamp of the active tier: 127 on the VNNI rung, else 64.
// Follows SetSimdTierCap like GemmNativePanelWidth().
int Int8WeightMax();

// K-dimension packing unit of the int8 panels: pmaddubsw + pmaddwd reduce
// four u8*s8 products into one int32 lane, so K is zero-padded to a
// multiple of 4 and the panel interleaves 4 consecutive K bytes per
// channel: packed[panel][k_group][j][0..3].
inline constexpr int kInt8KUnit = 4;

inline int Int8PaddedK(int k) { return (k + kInt8KUnit - 1) / kInt8KUnit * kInt8KUnit; }

// Per-tensor asymmetric uint8 activation quantization parameters. The
// representable range always includes 0 (zero padding from im2col must be
// exactly encodable), so zero_point lands in [0, 255].
struct ActivationQuant {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

// Derives quantization parameters from an observed activation range.
ActivationQuant ComputeActivationQuant(float min_value, float max_value);

// Vectorized single-pass min/max over `count` floats (the per-forward
// activation range scan). Results are exact — min/max reductions are
// order-independent — and *min_out/*max_out start from 0, matching the
// quantization contract that the range covers 0.
void MinMaxRange(const float* data, int64_t count, float* min_out, float* max_out);

// dst[i] = clamp(round(src[i] / scale) + zero_point, 0, 255).
void QuantizeActivations(const float* src, int64_t count, const ActivationQuant& quant,
                         uint8_t* dst);

// Panel-packed int8 filters plus the per-channel dequantization metadata
// the epilogue needs. `scales` and `row_sums` are padded to the full panel
// width (panels * panel_width) so the vector epilogue loads never run past
// the end; entries beyond `n` are zero. The width the panels were packed at
// travels with the data, so the kernel dispatch needs no extra plumbing.
struct Int8PackedFilters {
  std::vector<int8_t> data;
  std::vector<float> scales;     // w ~= scales[j] * q_w[j][k]
  std::vector<int32_t> row_sums; // sum_k q_w[j][k], for the zero-point term
  int n = 0;
  int k = 0;
  int k_padded = 0;
  int panel_width = kGemmTileNMin;  // set by the packers
};

size_t PackedPanelBytesInt8(int n, int k, int panel_width = GemmNativePanelWidth());

// Quantizes one length-k float filter row to symmetric int8 codes in
// [-Int8WeightMax(), Int8WeightMax()] and returns the scale (w ~= scale * q).
// This is THE weight quantizer: the pack-time path and the v2 serializer
// both call it, which is what makes a serialized-then-reloaded model's int8
// forward bit-identical to the pack-time-quantized one.
float QuantizeWeightRow(const float* row, int k, int8_t* codes);

// Quantizes row-major float B[N x K] per output channel and packs it into
// the interleaved int8 panel layout described above.
void PackFilterPanelsInt8(const float* b, int n, int k, Int8PackedFilters* packed,
                          int panel_width = GemmNativePanelWidth());

// Packs pre-quantized codes (row-major [N x K], e.g. loaded from a PCVW v2
// file) with their per-channel scales into the same panel layout, skipping
// requantization entirely. Codes must already respect the ACTIVE tier's
// Int8WeightMax() clamp — the caller (the v2 deserializer) checks the
// file's recorded clamp against the active tier before taking this path.
void PackQuantizedFilterPanelsInt8(const int8_t* codes, const float* scales, int n, int k,
                                   Int8PackedFilters* packed,
                                   int panel_width = GemmNativePanelWidth());

// Computes C = epilogue(dequant(Q_A * packed) + bias) over pre-quantized A
// rows. Each A row holds `packed.k_padded` uint8 codes (zero-padded K tail;
// the pad value is irrelevant because the packed B tail is zero). Output
// row i starts at c + i*ldc. Runs on the calling thread; honors
// SetGemmForceScalar like the float engine.
void GemmInt8PackedEx(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                      const ActivationQuant& quant, const float* bias, GemmEpilogue epilogue,
                      float* c, int64_t ldc);

// Requantize-in-epilogue variant: identical accumulation and dequantize
// math to GemmInt8PackedEx, but instead of storing the float result, the
// epilogue requantizes it to the CONSUMER's uint8 codes with `out_quant` —
// the same clamp(round(v / scale) + zero_point, 0, 255) map as
// QuantizeActivations — so an int8 conv whose consumer is another int8 conv
// never materializes a float activation tensor. The float value being
// requantized is bit-identical to what GemmInt8PackedEx would have stored
// (same std::fma / hardware-FMA epilogue per tier), so a requantized store
// followed by the consumer equals the float-staged store + a separate
// QuantizeActivations sweep, code for code. Output row i starts at
// c + i*ldc (ldc in uint8 elements).
void GemmInt8PackedExU8(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                        const ActivationQuant& quant, const float* bias,
                        GemmEpilogue epilogue, const ActivationQuant& out_quant, uint8_t* c,
                        int64_t ldc);

// Implicit-GEMM int8 kernels: GemmInt8PackedEx / GemmInt8PackedExU8 with
// the quantized A rows replaced by the streaming u8 view (zero_row must
// hold quant.zero_point bytes). Accumulation is the same exact int32 sums
// over the same codes as the materialized gather, so results are
// BIT-IDENTICAL to it on every tier, both sinks.
void GemmInt8PackedImplicit(const ImplicitConvViewU8& view, const Int8PackedFilters& packed,
                            const ActivationQuant& quant, const float* bias,
                            GemmEpilogue epilogue, float* c, int64_t ldc);
void GemmInt8PackedImplicitU8(const ImplicitConvViewU8& view, const Int8PackedFilters& packed,
                              const ActivationQuant& quant, const float* bias,
                              GemmEpilogue epilogue, const ActivationQuant& out_quant,
                              uint8_t* c, int64_t ldc);

// Master switch for the zero-float dataflow plan. When true (the default),
// Network::PlanForward links adjacent calibrated int8 convs with the
// requantize-in-epilogue store above; false restores the float-staged
// dataflow everywhere (A/B benches, fallback). Takes effect at the next
// PlanForward.
void SetDataflowRequantEnabled(bool enabled);
bool DataflowRequantEnabled();

// Extension of the code domain one layer further: GlobalAvgPool accepts
// quantized input from a calibrated int8 producer and averages the uint8
// codes with int32 accumulation, dequantizing only the per-channel sums —
// so the final conv's requantized store feeds pooling without a float
// activation tensor in between. Logits are no longer bit-identical to the
// staged path (the average is computed in code space), so the link is
// guarded by its own 64-image >= 99% top-1 agreement test
// (tests/nn_requant_test.cc).
//
// kAuto (the default) enables the link exactly when a PCVW v2 calibration
// trailer supplied the GAP slot — i.e. for deployment artifacts whose
// ranges were measured offline, the population the accuracy guard vets —
// and leaves it off for ranges captured live in this process. kForceOff is
// the old default-off behavior (the opt-out); kForceOn links any calibrated
// GAP regardless of where the range came from. Takes effect at the next
// PlanForward.
enum class GapCodesMode : uint8_t { kAuto = 0, kForceOn = 1, kForceOff = 2 };
void SetGapCodesMode(GapCodesMode mode);
GapCodesMode GetGapCodesMode();

// Convenience one-shot GEMM: packs `b` (row-major [N x K]) into the local
// arena and multiplies. When `pool` is non-null and the problem is large
// enough, M rows are split across the pool. Resets the calling thread's
// arena — callers must not hold LocalArena() pointers across this call.
void GemmNT(int64_t m, int n, int k, const float* a, const float* b, const float* bias,
            float* c, ThreadPool* pool = nullptr);

// Minimum multiply-accumulate count before a kernel bothers fanning out to
// the thread pool; below this the submit/wake latency dominates.
inline constexpr int64_t kMinMacsPerParallelKernel = 1 << 16;

// Runs fn(begin, end) over [0, total) in contiguous chunks, using the
// inference pool when it is set, the range is large enough, and the caller
// is not already a pool worker (nested fan-out would deadlock the pool's
// fixed workers). `macs_per_item` scales the profitability test.
void InferenceParallelFor(int64_t total, int64_t macs_per_item,
                          const std::function<void(int64_t, int64_t)>& fn);

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_GEMM_H_
