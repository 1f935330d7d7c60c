#include "src/nn/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <thread>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/base/thread_pool.h"
#include "src/nn/gemm_internal.h"
#include "src/nn/simd.h"

namespace percival {

namespace {

std::atomic<ThreadPool*> g_inference_pool{nullptr};
std::atomic<bool> g_force_scalar{false};
std::atomic<int> g_planner_panel_override{0};
std::atomic<GatherPolicyMode> g_planner_gather_policy{GatherPolicyMode::kAuto};
std::atomic<bool> g_dataflow_requant{true};
std::atomic<GapCodesMode> g_gap_codes_mode{GapCodesMode::kAuto};

// Gather/scratch traffic counters (see GemmGatherStats). Relaxed: these are
// statistics, not synchronization.
std::atomic<uint64_t> g_bytes_gathered{0};
std::atomic<uint64_t> g_arena_high_water{0};
std::atomic<uint64_t> g_fan_outs{0};

void MaxArenaHighWater(uint64_t bytes) {
  uint64_t seen = g_arena_high_water.load(std::memory_order_relaxed);
  while (bytes > seen && !g_arena_high_water.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

}  // namespace

GemmGatherStats GetGemmGatherStats() {
  GemmGatherStats stats;
  stats.bytes_gathered = g_bytes_gathered.load(std::memory_order_relaxed);
  stats.arena_high_water_bytes = g_arena_high_water.load(std::memory_order_relaxed);
  stats.fan_outs = g_fan_outs.load(std::memory_order_relaxed);
  return stats;
}

void ResetGemmGatherStats() {
  g_bytes_gathered.store(0, std::memory_order_relaxed);
  g_arena_high_water.store(0, std::memory_order_relaxed);
  g_fan_outs.store(0, std::memory_order_relaxed);
}

void NoteBytesGathered(uint64_t bytes) {
  g_bytes_gathered.fetch_add(bytes, std::memory_order_relaxed);
}

// ----------------------------------------------------------- ScratchArena --

float* ScratchArena::Alloc(size_t count) {
  if (count == 0) {
    count = 1;  // keep returned pointers distinct and dereferenceable
  }
  if (used_ + count > block_.size()) {
    // The growth path is where a real out-of-memory would surface (as
    // vector's bad_alloc); the fault point forces that outcome so the
    // classifier's fail-open catch is testable. Arena state is untouched:
    // the next Alloc/Reset sees a consistent arena.
    if (faultpoint::ShouldFire(faultpoint::kArenaAllocFail)) {
      throw std::bad_alloc();
    }
    const size_t grown = std::max(count, CapacityFloats() * 2);
    if (!block_.empty()) {
      retired_.push_back(std::move(block_));
    }
    block_.assign(grown, 0.0f);
    used_ = 0;
  }
  float* ptr = block_.data() + used_;
  used_ += count;
  size_t in_use = used_;
  for (const auto& old : retired_) {
    in_use += old.size();  // retired blocks still hold live pointers
  }
  MaxArenaHighWater(static_cast<uint64_t>(in_use) * sizeof(float));
  return ptr;
}

void ScratchArena::Reset() {
  if (!retired_.empty()) {
    // Coalesce: one slab big enough for everything handed out last round.
    size_t total = block_.size();
    for (const auto& old : retired_) {
      total += old.size();
    }
    retired_.clear();
    block_.assign(total, 0.0f);
  }
  used_ = 0;
}

void ScratchArena::Reserve(size_t count) {
  Reset();
  if (block_.size() < count) {
    block_.assign(count, 0.0f);
  }
  used_ = 0;
}

size_t ScratchArena::CapacityFloats() const {
  size_t total = block_.size();
  for (const auto& old : retired_) {
    total += old.size();
  }
  return total;
}

ScratchArena& LocalArena() {
  thread_local ScratchArena arena;
  return arena;
}

// ---------------------------------------------------- runtime dispatch --
//
// Every tier TU (gemm_tier_*.cc) exports one GemmKernelTable; resolution
// starts at the active tier (cpuid detection capped by SetSimdTierCap) and
// walks DOWN the ladder to the first table carrying the needed kernel — the
// ssse3 rung carries only int8 kernels, so its float work resolves to the
// sse2 table; the vnni rung carries only the vpdpbusd int8 kernels, so its
// float work resolves to the avx512 table; the bottom of every walk is the
// always-compiled scalar tile in gemm_internal.h. A tier whose -m flags
// were unavailable at build time exported an all-null table and the walk
// skips it, so one source tree still builds (slower) on a toolchain missing
// the upper rungs.

namespace {

const GemmKernelTable* TierTable(SimdTier tier) {
  switch (tier) {
    case SimdTier::kSse2:
      return &gemm_tier_sse2::Table();
    case SimdTier::kSsse3:
      return &gemm_tier_ssse3::Table();
    case SimdTier::kAvx2:
      return &gemm_tier_avx2::Table();
    case SimdTier::kAvx512:
      return &gemm_tier_avx512::Table();
    case SimdTier::kVnni:
      return &gemm_tier_vnni::Table();
    case SimdTier::kScalar:
      return nullptr;
  }
  return nullptr;
}

// Whether a rung's defining kernels made it into this binary. The data
// contracts (panel width, weight clamp) follow the highest COMPILED rung at
// or below the active tier, not the detected one — claiming the VNNI ±127
// clamp without the vpdpbusd kernel would saturate the maddubs fallback.
bool TierCompiled(SimdTier tier) {
  const GemmKernelTable* table = TierTable(tier);
  switch (tier) {
    case SimdTier::kScalar:
      return true;
    case SimdTier::kSse2:
      return table->gemm_packed_implicit != nullptr;
    case SimdTier::kSsse3:
    case SimdTier::kVnni:
      return table->gemm_int8_implicit != nullptr;
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:
      return table->gemm_packed_implicit != nullptr && table->gemm_int8_implicit != nullptr;
  }
  return false;
}

// Highest compiled rung at or below min(detected, cap). This is the tier
// that owns the data contracts right now.
SimdTier ResolvedTier() {
  int tier = static_cast<int>(ActiveSimdTier());
  while (tier > 0 && !TierCompiled(static_cast<SimdTier>(tier))) {
    --tier;
  }
  return static_cast<SimdTier>(tier);
}

const GemmKernelTable* ResolveFloat() {
  for (int tier = static_cast<int>(ResolvedTier()); tier > 0; --tier) {
    const GemmKernelTable* table = TierTable(static_cast<SimdTier>(tier));
    if (table != nullptr && table->gemm_packed_implicit != nullptr) {
      return table;
    }
  }
  return nullptr;
}

const GemmKernelTable* ResolveInt8() {
  for (int tier = static_cast<int>(ResolvedTier()); tier > 0; --tier) {
    const GemmKernelTable* table = TierTable(static_cast<SimdTier>(tier));
    if (table != nullptr && table->gemm_int8_implicit != nullptr) {
      return table;
    }
  }
  return nullptr;
}

const GemmKernelTable* ResolveQuant() {
  for (int tier = static_cast<int>(ResolvedTier()); tier > 0; --tier) {
    const GemmKernelTable* table = TierTable(static_cast<SimdTier>(tier));
    if (table != nullptr && table->quantize_activations != nullptr) {
      return table;
    }
  }
  return nullptr;
}

// Sinks for the baseline-compiled scalar fallback (force-scalar oracle /
// no-SIMD host). The tier TUs carry their own copies with vector members;
// these have only the scalar Put, which mirrors QuantizeActivations' tail.
struct ScalarFloatSink {
  using Out = float;
  void Put(float* c_row, int idx, float v) const { c_row[idx] = v; }
};

struct ScalarRequantSink {
  using Out = uint8_t;
  float inv_scale = 1.0f;
  int32_t zero_point = 0;
  void Put(uint8_t* c_row, int idx, float v) const {
    const int32_t q = zero_point + static_cast<int32_t>(std::nearbyint(v * inv_scale));
    c_row[idx] = static_cast<uint8_t>(std::min(255, std::max(0, q)));
  }
};

}  // namespace

int GemmNativePanelWidth() {
  return static_cast<int>(ResolvedTier()) >= static_cast<int>(SimdTier::kAvx512)
             ? kGemmTileNMax
             : kGemmTileNMin;
}

int Int8WeightMax() { return ResolvedTier() == SimdTier::kVnni ? 127 : 64; }

bool ValidPanelWidth(int width) {
  return width == kGemmTileNMin || width == kGemmTileNMax;
}

// ------------------------------------------------------- execution config --

void SetInferenceThreadPool(ThreadPool* pool) { g_inference_pool.store(pool); }
ThreadPool* InferenceThreadPool() { return g_inference_pool.load(); }

void SetGemmForceScalar(bool force) { g_force_scalar.store(force); }
bool GemmForceScalar() { return g_force_scalar.load(); }

const char* ActiveGemmKernelName() {
  if (GemmForceScalar()) {
    return "scalar";
  }
  const GemmKernelTable* table = ResolveFloat();
  return table != nullptr ? table->float_name : "scalar";
}

const char* ActiveInt8KernelName() {
  if (GemmForceScalar()) {
    return "scalar";
  }
  const GemmKernelTable* table = ResolveInt8();
  return table != nullptr ? table->int8_name : "scalar";
}

void LogSimdPathOnce() {
  static std::once_flag logged;
  std::call_once(logged, [] {
    std::string line = std::string("gemm: cpu features ") + CpuFeatureString() +
                       "; float path " + ActiveGemmKernelName() + " (tile " +
                       std::to_string(kGemmTileM) + "x" +
                       std::to_string(GemmNativePanelWidth()) + "), int8 path " +
                       ActiveInt8KernelName();
    if (static_cast<int>(SimdTierCap()) < static_cast<int>(DetectedSimdTier())) {
      line += std::string(" [tier capped at ") + SimdTierName(ActiveSimdTier()) + "]";
    }
    if (GemmForceScalar()) {
      line += " [force-scalar]";
    }
    LogLine(line);
  });
}

ScopedInferencePool::ScopedInferencePool(int num_threads)
    : pool_(std::make_unique<ThreadPool>(
          num_threads > 0 ? num_threads
                          : std::max(1, static_cast<int>(std::thread::hardware_concurrency())))),
      previous_(InferenceThreadPool()) {
  LogSimdPathOnce();
  SetInferenceThreadPool(pool_.get());
}

ScopedInferencePool::~ScopedInferencePool() { SetInferenceThreadPool(previous_); }

// ------------------------------------------------------------- planner --

const char* GatherPolicyName(GatherPolicy policy) {
  return policy == GatherPolicy::kImplicit ? "implicit" : "materialize";
}

void SetPlannerPanelOverride(int width) {
  PCHECK(width == 0 || ValidPanelWidth(width))
      << "panel override " << width << " is not a width this build's kernels implement";
  g_planner_panel_override.store(width);
}

int PlannerPanelOverride() { return g_planner_panel_override.load(); }

void SetPlannerGatherPolicy(GatherPolicyMode mode) { g_planner_gather_policy.store(mode); }

GatherPolicyMode PlannerGatherPolicy() { return g_planner_gather_policy.load(); }

void SetDataflowRequantEnabled(bool enabled) { g_dataflow_requant.store(enabled); }

bool DataflowRequantEnabled() { return g_dataflow_requant.load(); }

void SetGapCodesMode(GapCodesMode mode) { g_gap_codes_mode.store(mode); }

GapCodesMode GetGapCodesMode() { return g_gap_codes_mode.load(); }

KernelPlan ChooseConvKernelPlan(int out_channels, int kernel, int stride, int pad,
                                int in_width) {
  KernelPlan plan;  // panel_width defaults to the active tier's native width
  const int override_width = PlannerPanelOverride();
  if (override_width != 0) {
    plan.panel_width = override_width;
  } else if (plan.panel_width > kGemmTileNMin && out_channels <= kGemmTileNMin) {
    // A <=16-channel layer fills at most half the native 32-wide panel;
    // the 16-wide sub-tile halves the per-K-step panel loads and FMAs.
    plan.panel_width = kGemmTileNMin;
  }
  if (kernel > 1) {
    const GatherPolicyMode gather_mode = PlannerGatherPolicy();
    if (gather_mode == GatherPolicyMode::kForceImplicit) {
      plan.gather = GatherPolicy::kImplicit;
    } else if (gather_mode == GatherPolicyMode::kAuto) {
      // Implicit pays off when the interior run — the output columns that
      // see all kw taps in bounds — is at least one full column tile wide
      // on every tier (the 16-wide sub-panel kernels tile 8 columns).
      // Shorter runs stream mostly through the per-row edge/remainder
      // paths, where the materialized m = out_h*out_w GEMM wins (measured:
      // the experiment profile's 8x8 and 4x4 fire stages). in_width 0 =
      // unknown shape: assume a wide interior (the forward re-checks the
      // interior per input and falls back when it is empty).
      bool wide_interior = true;
      if (in_width > 0) {
        const int out_w = (in_width - kernel + 2 * pad) / stride + 1;
        const int ow_lo = (pad + stride - 1) / stride;
        const int ow_hi = std::min(out_w, (in_width - kernel + pad) / stride + 1);
        wide_interior = out_w > 0 && ow_hi - ow_lo >= kImplicitMinInteriorRun;
      }
      if (wide_interior) {
        plan.gather = GatherPolicy::kImplicit;
      }
    }
  }
  return plan;
}

// ----------------------------------------------------------------- packing --

size_t PackedPanelFloats(int n, int k, int panel_width) {
  const int panels = (n + panel_width - 1) / panel_width;
  return static_cast<size_t>(panels) * static_cast<size_t>(k) * panel_width;
}

void PackFilterPanels(const float* b, int n, int k, float* packed, int panel_width) {
  PCHECK(ValidPanelWidth(panel_width));
  const int panels = (n + panel_width - 1) / panel_width;
  for (int panel = 0; panel < panels; ++panel) {
    const int n0 = panel * panel_width;
    const int width = std::min(panel_width, n - n0);
    float* dst = packed + static_cast<size_t>(panel) * k * panel_width;
    for (int kk = 0; kk < k; ++kk) {
      float* row = dst + static_cast<size_t>(kk) * panel_width;
      for (int j = 0; j < width; ++j) {
        row[j] = b[static_cast<int64_t>(n0 + j) * k + kk];
      }
      for (int j = width; j < panel_width; ++j) {
        row[j] = 0.0f;
      }
    }
  }
}

// ------------------------------------------------------- int8 quantization --

ActivationQuant ComputeActivationQuant(float min_value, float max_value) {
  // The range always covers 0 so im2col zero padding is exactly encodable.
  min_value = std::min(min_value, 0.0f);
  max_value = std::max(max_value, 0.0f);
  ActivationQuant quant;
  quant.scale = (max_value - min_value) / 255.0f;
  if (quant.scale <= 0.0f) {
    quant.scale = 1.0f;  // all-zero tensor: any scale maps 0 -> zero_point
  }
  const float zp = std::nearbyint(-min_value / quant.scale);
  quant.zero_point = static_cast<int32_t>(std::min(255.0f, std::max(0.0f, zp)));
  return quant;
}

void QuantizeActivations(const float* src, int64_t count, const ActivationQuant& quant,
                         uint8_t* dst) {
  // The tier entries produce codes identical to this scalar fallback
  // (cvtps_epi32 rounds half-to-even exactly like nearbyint), so the
  // dispatch is invisible in the output at any tier or cap.
  const GemmKernelTable* table = ResolveQuant();
  if (table != nullptr) {
    table->quantize_activations(src, count, quant, dst);
    return;
  }
  const float inv_scale = 1.0f / quant.scale;
  for (int64_t i = 0; i < count; ++i) {
    const int32_t q =
        quant.zero_point + static_cast<int32_t>(std::nearbyint(src[i] * inv_scale));
    dst[i] = static_cast<uint8_t>(std::min(255, std::max(0, q)));
  }
}

void MinMaxRange(const float* data, int64_t count, float* min_out, float* max_out) {
  const GemmKernelTable* table = ResolveQuant();
  if (table != nullptr) {
    table->min_max_range(data, count, min_out, max_out);
    return;
  }
  float min_v = 0.0f;
  float max_v = 0.0f;
  for (int64_t i = 0; i < count; ++i) {
    min_v = std::min(min_v, data[i]);
    max_v = std::max(max_v, data[i]);
  }
  *min_out = min_v;
  *max_out = max_v;
}

size_t PackedPanelBytesInt8(int n, int k, int panel_width) {
  const int panels = (n + panel_width - 1) / panel_width;
  return static_cast<size_t>(panels) * static_cast<size_t>(Int8PaddedK(k)) * panel_width;
}

float QuantizeWeightRow(const float* row, int k, int8_t* codes) {
  const int weight_max = Int8WeightMax();
  float amax = 0.0f;
  for (int kk = 0; kk < k; ++kk) {
    amax = std::max(amax, std::abs(row[kk]));
  }
  const float scale = amax > 0.0f ? amax / static_cast<float>(weight_max) : 1.0f;
  const float inv_scale = 1.0f / scale;
  for (int kk = 0; kk < k; ++kk) {
    const int32_t q = static_cast<int32_t>(std::nearbyint(row[kk] * inv_scale));
    codes[kk] = static_cast<int8_t>(std::min(weight_max, std::max(-weight_max, q)));
  }
  return scale;
}

namespace {

// Shared tail of the two int8 packers: sizes `packed`, then interleaves one
// channel's zero-padded code row at a time (panel-major, K-group, channel,
// 4 consecutive K bytes) while recording scales and row sums.
void SizeInt8Panels(int n, int k, int panel_width, Int8PackedFilters* packed) {
  PCHECK_GT(n, 0);
  PCHECK_GT(k, 0);
  PCHECK(ValidPanelWidth(panel_width));
  packed->n = n;
  packed->k = k;
  packed->k_padded = Int8PaddedK(k);
  packed->panel_width = panel_width;
  const int panels = (n + panel_width - 1) / panel_width;
  packed->data.assign(PackedPanelBytesInt8(n, k, panel_width), 0);
  packed->scales.assign(static_cast<size_t>(panels) * panel_width, 0.0f);
  packed->row_sums.assign(static_cast<size_t>(panels) * panel_width, 0);
}

void InterleaveInt8CodeRow(const int8_t* q_row_padded, int oc, Int8PackedFilters* packed) {
  const int pw = packed->panel_width;
  const int groups = packed->k_padded / kInt8KUnit;
  const int panel = oc / pw;
  const int j = oc % pw;
  int8_t* panel_base = packed->data.data() +
                       static_cast<size_t>(panel) * groups * pw * kInt8KUnit;
  for (int g = 0; g < groups; ++g) {
    int8_t* dst = panel_base + (static_cast<size_t>(g) * pw + j) * kInt8KUnit;
    for (int t = 0; t < kInt8KUnit; ++t) {
      dst[t] = q_row_padded[static_cast<size_t>(g) * kInt8KUnit + t];
    }
  }
}

}  // namespace

void PackFilterPanelsInt8(const float* b, int n, int k, Int8PackedFilters* packed,
                          int panel_width) {
  SizeInt8Panels(n, k, panel_width, packed);
  std::vector<int8_t> q_row(static_cast<size_t>(packed->k_padded), 0);
  for (int oc = 0; oc < n; ++oc) {
    std::fill(q_row.begin(), q_row.end(), static_cast<int8_t>(0));
    packed->scales[static_cast<size_t>(oc)] =
        QuantizeWeightRow(b + static_cast<int64_t>(oc) * k, k, q_row.data());
    int32_t row_sum = 0;
    for (int kk = 0; kk < k; ++kk) {
      row_sum += q_row[static_cast<size_t>(kk)];
    }
    packed->row_sums[static_cast<size_t>(oc)] = row_sum;
    InterleaveInt8CodeRow(q_row.data(), oc, packed);
  }
}

void PackQuantizedFilterPanelsInt8(const int8_t* codes, const float* scales, int n, int k,
                                   Int8PackedFilters* packed, int panel_width) {
  SizeInt8Panels(n, k, panel_width, packed);
  const int weight_max = Int8WeightMax();
  std::vector<int8_t> q_row(static_cast<size_t>(packed->k_padded), 0);
  for (int oc = 0; oc < n; ++oc) {
    const int8_t* row = codes + static_cast<int64_t>(oc) * k;
    std::fill(q_row.begin() + k, q_row.end(), static_cast<int8_t>(0));
    int32_t row_sum = 0;
    for (int kk = 0; kk < k; ++kk) {
      PCHECK_LE(std::abs(static_cast<int>(row[kk])), weight_max)
          << "pre-quantized code outside the active tier's saturation-safe range";
      q_row[static_cast<size_t>(kk)] = row[kk];
      row_sum += row[kk];
    }
    packed->scales[static_cast<size_t>(oc)] = scales[oc];
    packed->row_sums[static_cast<size_t>(oc)] = row_sum;
    InterleaveInt8CodeRow(q_row.data(), oc, packed);
  }
}

// ----------------------------------------------------- kernel entry points --

static_assert(kGemmTileM == 4, "the tile kernels are written for 4-row tiles");
static_assert(kGemmTileNMin == 16 && kGemmTileNMax == 32,
              "the tile kernels implement panel widths 16 and 32");

namespace {

constexpr int64_t kDenseViewOffsets[1] = {0};

// A dense row-major A[m x row_len] as the one-segment implicit view: one
// output row (oh = 0) whose m interior columns are the A rows, row_len
// elements apart, so output column i lands at c + i*ldc like a dense row.
template <typename T>
ImplicitConvView<T> DenseView(const T* a, int64_t m, int row_len) {
  PCHECK_LE(m, std::numeric_limits<int>::max()) << "GEMM rows exceed the view's int run";
  ImplicitConvView<T> view;
  view.base = a;
  view.offsets = kDenseViewOffsets;
  view.zero_row = a;  // never read: the one segment is never a pad tap
  view.segments = 1;
  view.seg_len = row_len;
  view.col_stride = row_len;
  view.run_w = static_cast<int>(m);
  view.oh_end = 1;
  return view;
}

}  // namespace

void GemmPackedEx(int64_t m, int n, int k, const float* a, const float* packed_b,
                  const float* bias, GemmEpilogue epilogue, float* c, int64_t ldc,
                  int panel_width) {
  PCHECK_GE(ldc, n);
  PCHECK(ValidPanelWidth(panel_width));
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveFloat();
    if (table != nullptr) {
      table->gemm_packed_implicit(DenseView(a, m, k), n, packed_b, bias, epilogue, c, ldc,
                                  panel_width);
      return;
    }
  }
  gemm_internal::GemmPackedScalarEntry(m, n, k, a, packed_b, bias, epilogue, c, ldc,
                                       panel_width);
}

void GemmInt8PackedEx(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                      const ActivationQuant& quant, const float* bias, GemmEpilogue epilogue,
                      float* c, int64_t ldc) {
  PCHECK_GE(ldc, packed.n);
  PCHECK_EQ(packed.k_padded % kInt8KUnit, 0);
  PCHECK(ValidPanelWidth(packed.panel_width));
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveInt8();
    if (table != nullptr) {
      table->gemm_int8_implicit(DenseView(a, m, packed.k_padded), packed, quant, bias,
                                epilogue, c, ldc);
      return;
    }
  }
  gemm_internal::GemmInt8Scalar(m, a, packed, quant, bias, epilogue, c, ldc,
                                ScalarFloatSink{});
}

void GemmInt8PackedExU8(int64_t m, const uint8_t* a, const Int8PackedFilters& packed,
                        const ActivationQuant& quant, const float* bias,
                        GemmEpilogue epilogue, const ActivationQuant& out_quant, uint8_t* c,
                        int64_t ldc) {
  PCHECK_GE(ldc, packed.n);
  PCHECK_EQ(packed.k_padded % kInt8KUnit, 0);
  PCHECK(ValidPanelWidth(packed.panel_width));
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveInt8();
    if (table != nullptr) {
      table->gemm_int8_implicit_u8(DenseView(a, m, packed.k_padded), packed, quant, bias,
                                   epilogue, out_quant, c, ldc);
      return;
    }
  }
  ScalarRequantSink sink;
  sink.inv_scale = 1.0f / out_quant.scale;
  sink.zero_point = out_quant.zero_point;
  gemm_internal::GemmInt8Scalar(m, a, packed, quant, bias, epilogue, c, ldc, sink);
}

// ------------------------------------------- implicit-GEMM entry points --

namespace {

template <typename T>
void CheckImplicitView(const ImplicitConvView<T>& view) {
  PCHECK(view.base != nullptr);
  PCHECK(view.offsets != nullptr);
  PCHECK_GT(view.segments, 0);
  PCHECK_GT(view.seg_len, 0);
  PCHECK_GT(view.col_stride, 0);
}

}  // namespace

void GemmPackedImplicit(const ImplicitConvViewF& view, int n, const float* packed_b,
                        const float* bias, GemmEpilogue epilogue, float* c, int64_t ldc,
                        int panel_width) {
  PCHECK_GE(ldc, n);
  PCHECK(ValidPanelWidth(panel_width));
  CheckImplicitView(view);
  if (view.run_w <= 0 || view.oh_end <= view.oh_begin) {
    return;
  }
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveFloat();
    if (table != nullptr) {
      table->gemm_packed_implicit(view, n, packed_b, bias, epilogue, c, ldc, panel_width);
      return;
    }
  }
  gemm_internal::GemmPackedImplicitScalarEntry(view, n, packed_b, bias, epilogue, c, ldc,
                                               panel_width);
}

void GemmInt8PackedImplicit(const ImplicitConvViewU8& view, const Int8PackedFilters& packed,
                            const ActivationQuant& quant, const float* bias,
                            GemmEpilogue epilogue, float* c, int64_t ldc) {
  PCHECK_GE(ldc, packed.n);
  PCHECK(ValidPanelWidth(packed.panel_width));
  CheckImplicitView(view);
  PCHECK(view.zero_row != nullptr);
  PCHECK_EQ(view.seg_len % kInt8KUnit, 0);
  PCHECK_EQ(view.segments * view.seg_len, packed.k_padded);
  if (view.run_w <= 0 || view.oh_end <= view.oh_begin) {
    return;
  }
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveInt8();
    if (table != nullptr) {
      table->gemm_int8_implicit(view, packed, quant, bias, epilogue, c, ldc);
      return;
    }
  }
  gemm_internal::GemmInt8ImplicitScalar(view, packed, quant, bias, epilogue, c, ldc,
                                        ScalarFloatSink{});
}

void GemmInt8PackedImplicitU8(const ImplicitConvViewU8& view, const Int8PackedFilters& packed,
                              const ActivationQuant& quant, const float* bias,
                              GemmEpilogue epilogue, const ActivationQuant& out_quant,
                              uint8_t* c, int64_t ldc) {
  PCHECK_GE(ldc, packed.n);
  PCHECK(ValidPanelWidth(packed.panel_width));
  CheckImplicitView(view);
  PCHECK(view.zero_row != nullptr);
  PCHECK_EQ(view.seg_len % kInt8KUnit, 0);
  PCHECK_EQ(view.segments * view.seg_len, packed.k_padded);
  if (view.run_w <= 0 || view.oh_end <= view.oh_begin) {
    return;
  }
  LogSimdPathOnce();
  if (!GemmForceScalar()) {
    const GemmKernelTable* table = ResolveInt8();
    if (table != nullptr) {
      table->gemm_int8_implicit_u8(view, packed, quant, bias, epilogue, out_quant, c, ldc);
      return;
    }
  }
  ScalarRequantSink sink;
  sink.inv_scale = 1.0f / out_quant.scale;
  sink.zero_point = out_quant.zero_point;
  gemm_internal::GemmInt8ImplicitScalar(view, packed, quant, bias, epilogue, c, ldc, sink);
}

namespace {

// The one fan-out decision (see kMinMacsPerThread): InferenceParallelFor
// over the inference pool, GemmNT over its caller's pool. Chunk boundaries
// are multiples of `align`.
void PoolParallelFor(ThreadPool* pool, int64_t total, int64_t macs_per_item, int64_t align,
                     int64_t min_macs_per_thread, FunctionRef<void(int64_t, int64_t)> fn) {
  int64_t threads = 1;
  if (pool != nullptr && !pool->IsWorkerThread()) {
    threads = std::min({static_cast<int64_t>(pool->num_threads()),
                        total * std::max<int64_t>(macs_per_item, 1) / min_macs_per_thread,
                        (total + align - 1) / align});
  }
  if (threads <= 1) {
    fn(0, total);
    return;
  }
  g_fan_outs.fetch_add(1, std::memory_order_relaxed);
  // Four chunks per thread, so the caller and polling helpers absorb the
  // share of a helper that wakes late.
  const int64_t target_chunks = threads * 4;
  int64_t chunk = (total + target_chunks - 1) / target_chunks;
  chunk = (chunk + align - 1) / align * align;
  const int chunks = static_cast<int>((total + chunk - 1) / chunk);
  pool->ParallelFor(
      chunks,
      [&](int index) {
        const int64_t begin = static_cast<int64_t>(index) * chunk;
        fn(begin, std::min(total, begin + chunk));
      },
      static_cast<int>(threads));
}

}  // namespace

void InferenceParallelFor(int64_t total, int64_t macs_per_item,
                          FunctionRef<void(int64_t, int64_t)> fn, int64_t min_macs_per_thread) {
  PoolParallelFor(InferenceThreadPool(), total, macs_per_item, 1, min_macs_per_thread, fn);
}

void GemmNT(int64_t m, int n, int k, const float* a, const float* b, const float* bias,
            float* c, ThreadPool* pool) {
  PCHECK_GE(m, 0);
  PCHECK_GT(n, 0);
  PCHECK_GT(k, 0);
  const int panel_width = GemmNativePanelWidth();
  ScratchArena& arena = LocalArena();
  arena.Reset();
  float* packed = arena.Alloc(PackedPanelFloats(n, k, panel_width));
  PackFilterPanels(b, n, k, packed, panel_width);
  // Tile-aligned chunks: only the final chunk ends in an overlapped
  // (recomputed) tile.
  PoolParallelFor(pool, m, static_cast<int64_t>(n) * k, kGemmTileM, kMinMacsPerThread,
                  [&](int64_t begin, int64_t end) {
                    GemmPackedEx(end - begin, n, k, a + begin * k, packed, bias,
                                 GemmEpilogue::kBias, c + begin * n, n, panel_width);
                  });
}

}  // namespace percival
