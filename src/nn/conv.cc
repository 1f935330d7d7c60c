#include "src/nn/conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "src/base/logging.h"
#include "src/nn/gemm.h"
#include "src/nn/ops.h"

namespace percival {

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad, Rng& rng,
               std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      label_(std::move(name)),
      use_gemm_(true) {
  PCHECK_GT(in_channels, 0);
  PCHECK_GT(out_channels, 0);
  PCHECK_GT(kernel, 0);
  PCHECK_GT(stride, 0);
  PCHECK_GE(pad, 0);
  const int fan_in = kernel * kernel * in_channels;
  weights_.name = label_ + ".weight";
  weights_.value = Tensor(out_channels, 1, 1, fan_in);
  weights_.grad = Tensor(out_channels, 1, 1, fan_in);
  const float he_std = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < weights_.value.size(); ++i) {
    weights_.value[i] = static_cast<float>(rng.NextGaussian()) * he_std;
  }
  bias_.name = label_ + ".bias";
  bias_.value = Tensor(1, 1, 1, out_channels);
  bias_.grad = Tensor(1, 1, 1, out_channels);
  // Small positive bias keeps ReLU units alive at initialization; narrow
  // squeeze layers (2-4 channels) otherwise die with measurable probability
  // and take the whole network's gradient with them.
  bias_.value.Fill(0.05f);
}

std::string Conv2D::Name() const {
  std::ostringstream out;
  out << label_ << " " << kernel_ << "x" << kernel_ << "/" << stride_ << " " << in_channels_
      << "->" << out_channels_;
  return out.str();
}

TensorShape Conv2D::OutputShape(const TensorShape& input) const {
  return TensorShape{input.n, ConvOutputSize(input.h, kernel_, stride_, pad_),
                     ConvOutputSize(input.w, kernel_, stride_, pad_), out_channels_};
}

int64_t Conv2D::ForwardMacs(const TensorShape& input) const {
  TensorShape out = OutputShape(input);
  return out.Elements() * kernel_ * kernel_ * in_channels_;
}

size_t Conv2D::ForwardScratchFloats(const TensorShape& input) const {
  const bool identity_patches = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  const TensorShape out = OutputShape(input);
  const size_t rows = static_cast<size_t>(out.h) * out.w;
  const size_t row_len = static_cast<size_t>(kernel_) * kernel_ * in_channels_;
  // Under an implicit-gather plan only the edge columns of one output row
  // are ever materialized; edge_cols stays < 0 when the plan (or this
  // input's degenerate interior) keeps the full materialized gather.
  int edge_cols = -1;
  if (!identity_patches && ImplicitEligible()) {
    const int ow_lo = (pad_ + stride_ - 1) / stride_;
    const int ow_hi = std::min(out.w, (input.w - kernel_ + pad_) / stride_ + 1);
    if (ow_hi > ow_lo) {
      edge_cols = ow_lo + (out.w - ow_hi);
    }
  }
  if (precision_ != Precision::kInt8) {
    if (edge_cols >= 0) {
      // Worst chunk spans the whole sample: every edge row's im2col gather
      // plus the compact staging block the batched edge GEMM writes into.
      const size_t edge_rows = static_cast<size_t>(out.h) * edge_cols;
      return edge_rows * (row_len + out_channels_);
    }
    return identity_patches ? 0 : rows * row_len;
  }
  // The quantized path gathers uint8 patch rows (padded to the int8 K
  // unit) instead of float im2col rows; a K-aligned 1x1 conv reads the
  // quantized input directly and stages nothing.
  const int k_padded = Int8PaddedK(static_cast<int>(row_len));
  if (identity_patches && static_cast<size_t>(k_padded) == row_len) {
    return 0;
  }
  if (edge_cols >= 0 && ImplicitEligibleInt8()) {
    // Worst chunk spans the whole sample: the u8 edge gather plus a staging
    // block wide enough for the float-logit variant (the u8-codes variant
    // needs a quarter of it).
    const size_t edge_rows = static_cast<size_t>(out.h) * edge_cols;
    const size_t code_bytes = edge_rows * static_cast<size_t>(k_padded);
    return (code_bytes + sizeof(float) - 1) / sizeof(float) + edge_rows * out_channels_;
  }
  const size_t code_bytes = rows * static_cast<size_t>(k_padded);
  return (code_bytes + sizeof(float) - 1) / sizeof(float);
}

Tensor Conv2D::Forward(const Tensor& input) {
  if (use_gemm_) {
    return Infer(input, OutputSpec{}, GemmEpilogue::kBias);
  }
  PCHECK_EQ(input.shape().c, in_channels_) << Name();
  PCHECK(precision_ == Precision::kFloat32)
      << Name() << " int8 precision requires the GEMM path";
  if (training_) {
    last_input_ = input;
  } else {
    // Eval must drop previously captured state, not merely stop refreshing
    // it: a stale same-shaped copy would let a later train-mode Backward
    // silently compute gradients against the wrong input.
    last_input_ = Tensor();
  }
  return ForwardNaive(input);
}

Tensor Conv2D::Infer(const InputRef& input, const OutputSpec& output) {
  return Infer(input, output, GemmEpilogue::kBias);
}

void Conv2D::SetWeights(const Tensor& weights, const Tensor& bias) {
  PCHECK(weights.shape() == weights_.value.shape()) << Name();
  PCHECK(bias.shape() == bias_.value.shape()) << Name();
  weights_.value = weights;
  bias_.value = bias;
  weights_.MarkDirty();
  bias_.MarkDirty();
}

void Conv2D::PlanKernels(const TensorShape& input) {
  if (plan_pinned_) {
    return;  // an explicit SetKernelPlan pin outranks the heuristic
  }
  plan_ = ChooseConvKernelPlan(out_channels_, kernel_, stride_, pad_, input.w);
}

bool Conv2D::ImplicitEligible() const {
  return plan_.gather == GatherPolicy::kImplicit && kernel_ > 1;
}

bool Conv2D::ImplicitEligibleInt8() const {
  // K groups (4 bytes) must never straddle a vertical-tap segment boundary,
  // so each kernel_w * channels segment must be kInt8KUnit-aligned (which
  // also makes k_padded == row_len: no K tail to pad).
  return ImplicitEligible() && (kernel_ * in_channels_) % kInt8KUnit == 0;
}

bool Conv2D::PrepareImplicitGather(int height, int width) {
  const int out_w = ConvOutputSize(width, kernel_, stride_, pad_);
  const int ow_lo = (pad_ + stride_ - 1) / stride_;
  const int ow_hi = std::min(out_w, (width - kernel_ + pad_) / stride_ + 1);
  if (ow_hi <= ow_lo) {
    return false;  // every output column touches horizontal padding
  }
  if (implicit_h_ == height && implicit_w_ == width && !implicit_offsets_.empty()) {
    return true;
  }
  const int out_h = ConvOutputSize(height, kernel_, stride_, pad_);
  implicit_offsets_.assign(static_cast<size_t>(out_h) * kernel_, -1);
  // Offset of tap segment s for output (oh, ow_lo): the leftmost input
  // pixel every horizontal tap of that segment reads is iw0 = ow_lo*stride
  // - pad (>= 0 by the ow_lo definition). Vertical pad taps stay -1.
  const int iw0 = ow_lo * stride_ - pad_;
  for (int oh = 0; oh < out_h; ++oh) {
    for (int s = 0; s < kernel_; ++s) {
      const int ih = oh * stride_ - pad_ + s;
      if (ih < 0 || ih >= height) {
        continue;
      }
      implicit_offsets_[static_cast<size_t>(oh) * kernel_ + s] =
          (static_cast<int64_t>(ih) * width + iw0) * in_channels_;
    }
  }
  implicit_h_ = height;
  implicit_w_ = width;
  implicit_ow_lo_ = ow_lo;
  implicit_ow_hi_ = ow_hi;
  return true;
}

void Conv2D::SetKernelPlan(const KernelPlan& plan) {
  PCHECK(ValidPanelWidth(plan.panel_width))
      << Name() << " panel width " << plan.panel_width << " not implemented by this build";
  plan_ = plan;
  plan_pinned_ = true;
}

void Conv2D::AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const {
  KernelPlanRow row;
  row.layer = label_;
  row.panel_width = plan_.panel_width;
  row.int8 = precision_ == Precision::kInt8;
  // The gather that actually runs: an int8 conv with unaligned tap segments
  // keeps the materialized gather even under an implicit plan.
  row.implicit = row.int8 ? ImplicitEligibleInt8() : ImplicitEligible();
  row.u8_direct = AcceptsQuantizedInput();
  out->push_back(std::move(row));
}

void Conv2D::SetInputCalibration(float min_value, float max_value) {
  PCHECK_LE(min_value, max_value) << Name();
  has_input_calibration_ = true;
  calib_min_ = min_value;
  calib_max_ = max_value;
}

void Conv2D::ClearInputCalibration() {
  has_input_calibration_ = false;
  calib_min_ = 0.0f;
  calib_max_ = 0.0f;
}

bool Conv2D::InputCalibration(float* min_value, float* max_value) const {
  if (!has_input_calibration_) {
    return false;
  }
  *min_value = calib_min_;
  *max_value = calib_max_;
  return true;
}

void Conv2D::SetCalibrationCapture(bool capture) {
  if (capture && !calibration_capture_) {
    ClearInputCalibration();  // a new calibration batch starts fresh
  }
  calibration_capture_ = capture;
}

void Conv2D::AppendCalibration(std::vector<ActivationCalibration>* out) const {
  ActivationCalibration entry;
  entry.min_value = calib_min_;
  entry.max_value = calib_max_;
  entry.valid = has_input_calibration_;
  out->push_back(entry);
}

size_t Conv2D::ConsumeCalibration(const ActivationCalibration* entries, size_t count) {
  if (count < 1) {
    return 0;
  }
  if (entries[0].valid) {
    SetInputCalibration(entries[0].min_value, entries[0].max_value);
  } else {
    ClearInputCalibration();
  }
  return 1;
}

const float* Conv2D::PackedFilters() {
  if (packed_version_ != weights_.version || !(packed_plan_ == plan_)) {
    const int row_len = kernel_ * kernel_ * in_channels_;
    packed_filters_.resize(PackedPanelFloats(out_channels_, row_len, plan_.panel_width));
    PackFilterPanels(weights_.value.data(), out_channels_, row_len, packed_filters_.data(),
                     plan_.panel_width);
    packed_version_ = weights_.version;
    packed_plan_ = plan_;
  }
  return packed_filters_.data();
}

const Int8PackedFilters& Conv2D::PackedFiltersInt8() {
  // Keyed additionally on the runtime weight clamp: a tier cap that flips
  // the clamp without moving the panel width (vnni <-> avx512, both
  // 32-wide) must still repack, or ±127 codes would reach a saturating
  // maddubs kernel.
  const int weight_max = Int8WeightMax();
  if (packed_int8_version_ != weights_.version || !(packed_int8_plan_ == plan_) ||
      packed_int8_weight_max_ != weight_max) {
    const int row_len = kernel_ * kernel_ * in_channels_;
    const QuantizedWeights* pre = weights_.quantized.get();
    if (pre != nullptr && pre->version == weights_.version &&
        pre->weight_max <= weight_max &&
        pre->codes.size() == static_cast<size_t>(weights_.value.size()) &&
        pre->scales.size() == static_cast<size_t>(out_channels_)) {
      // Pre-quantized weights (PCVW v2 load): pack the exact serialized
      // codes — no requantization, and bit-identical int8 inference to the
      // build that wrote them.
      PackQuantizedFilterPanelsInt8(pre->codes.data(), pre->scales.data(), out_channels_,
                                    row_len, &packed_filters_int8_, plan_.panel_width);
    } else {
      PackFilterPanelsInt8(weights_.value.data(), out_channels_, row_len,
                           &packed_filters_int8_, plan_.panel_width);
    }
    packed_int8_version_ = weights_.version;
    packed_int8_plan_ = plan_;
    packed_int8_weight_max_ = weight_max;
  }
  return packed_filters_int8_;
}

Tensor Conv2D::ForwardNaive(const Tensor& input) {
  const TensorShape out_shape = OutputShape(input.shape());
  Tensor output(out_shape);

  const int row_len = kernel_ * kernel_ * in_channels_;
  const int64_t rows = static_cast<int64_t>(out_shape.h) * out_shape.w;
  columns_.assign(static_cast<size_t>(rows * row_len), 0.0f);

  const float* w = weights_.value.data();
  const float* b = bias_.value.data();
  for (int n = 0; n < input.shape().n; ++n) {
    Im2Col(input.SampleData(n), input.shape().h, input.shape().w, in_channels_, kernel_, stride_,
           pad_, columns_.data());
    float* out = output.SampleData(n);
    for (int64_t m = 0; m < rows; ++m) {
      const float* col_row = columns_.data() + m * row_len;
      float* out_row = out + m * out_channels_;
      for (int oc = 0; oc < out_channels_; ++oc) {
        out_row[oc] = Dot(row_len, col_row, w + static_cast<int64_t>(oc) * row_len) + b[oc];
      }
    }
  }
  return output;
}

Tensor Conv2D::Infer(const InputRef& input, const OutputSpec& output, GemmEpilogue epilogue) {
  if (!use_gemm_) {
    // The naive oracle serves Forward's contract and nothing else.
    PCHECK(!input.is_codes() && output.returns_tensor() && epilogue == GemmEpilogue::kBias)
        << Name() << " the naive path runs only float in, fresh float tensor out";
    return Forward(*input.floats);
  }
  const TensorShape& in_shape = input.shape();
  PCHECK_EQ(in_shape.c, in_channels_) << Name();
  PCHECK((!input.is_codes() && output.codes == nullptr) || AcceptsQuantizedInput())
      << Name() << " code input or output requires int8 precision and eval mode";
  PCHECK(!input.is_codes() || input.codes.data != nullptr) << Name();
  if (training_) {
    last_input_ = *input.floats;  // training implies float input (checked above)
  } else {
    // See Forward(): eval clears the copy so a stale one can never feed a
    // later Backward.
    last_input_ = Tensor();
  }
  const TensorShape out_shape = OutputShape(in_shape);
  Tensor fresh;
  float* floats = output.floats;
  if (output.returns_tensor()) {
    fresh = Tensor(out_shape);
    floats = fresh.data();
  }
  const int64_t ldc = output.ldc > 0 ? output.ldc : out_shape.c;
  const int64_t sample_stride = output.sample_stride > 0
                                    ? output.sample_stride
                                    : static_cast<int64_t>(out_shape.h) * out_shape.w * ldc;
  if (!input.is_codes() && calibration_capture_) {
    // Accumulate the observed input range across the calibration batch.
    float lo = 0.0f;
    float hi = 0.0f;
    MinMaxRange(input.floats->data(), input.floats->size(), &lo, &hi);
    if (has_input_calibration_) {
      calib_min_ = std::min(calib_min_, lo);
      calib_max_ = std::max(calib_max_, hi);
    } else {
      SetInputCalibration(lo, hi);
    }
  }
  if (precision_ == Precision::kFloat32) {
    ForwardIntoFloat(*input.floats, epilogue, floats, ldc, sample_stride);
    return fresh;
  }
  // u8-direct input skips the float staging tensor, the per-forward
  // MinMaxRange pass, and the whole-tensor QuantizeActivations sweep.
  const uint8_t* codes = input.codes.data;
  ActivationQuant quant{input.codes.scale, input.codes.zero_point};
  if (!input.is_codes()) {
    quant = QuantizeInputActivations(*input.floats);
    codes = quantized_input_.data();
  }
  if (output.codes != nullptr) {
    Int8ForwardOverCodes(codes, in_shape, quant, epilogue,
                         ActivationQuant{output.scale, output.zero_point}, output.codes, ldc,
                         sample_stride);
  } else {
    Int8ForwardOverCodes(codes, in_shape, quant, epilogue, ActivationQuant{}, floats, ldc,
                         sample_stride);
  }
  return fresh;
}

void Conv2D::ForwardIntoFloat(const Tensor& input, GemmEpilogue epilogue, float* out,
                              int64_t ldc, int64_t sample_stride) {
  const TensorShape out_shape = OutputShape(input.shape());
  const int row_len = kernel_ * kernel_ * in_channels_;
  const int64_t rows_per_sample = static_cast<int64_t>(out_shape.h) * out_shape.w;
  const int64_t total_rows = static_cast<int64_t>(out_shape.n) * rows_per_sample;
  if (total_rows == 0) {
    return;
  }

  const float* packed = PackedFilters();

  // A 1x1 stride-1 unpadded convolution's patch matrix IS the input sample:
  // every (h, w) pixel's channel vector is one contiguous A row. SqueezeNet
  // is dominated by these (squeeze + expand1x1), so skipping the expansion
  // matters as much as the kernel itself.
  const bool identity_patches = kernel_ == 1 && stride_ == 1 && pad_ == 0;

  if (!identity_patches && ImplicitEligible() &&
      PrepareImplicitGather(input.shape().h, input.shape().w)) {
    ForwardIntoFloatImplicit(input, epilogue, out, ldc, sample_stride);
    return;
  }

  const float* bias = bias_.value.data();
  InferenceParallelFor(
      total_rows, static_cast<int64_t>(row_len) * out_channels_,
      [&](int64_t begin, int64_t end) {
        ScratchArena& arena = LocalArena();
        while (begin < end) {
          const int n = static_cast<int>(begin / rows_per_sample);
          const int64_t r0 = begin % rows_per_sample;
          const int64_t r1 = std::min(rows_per_sample, r0 + (end - begin));
          float* c = out + n * sample_stride + r0 * ldc;
          const float* a;
          if (identity_patches) {
            a = input.SampleData(n) + r0 * row_len;
          } else {
            arena.Reset();
            float* cols = arena.Alloc(static_cast<size_t>((r1 - r0) * row_len));
            Im2ColRows(input.SampleData(n), input.shape().h, input.shape().w, in_channels_,
                       kernel_, stride_, pad_, r0, r1, cols);
            a = cols;
          }
          GemmPackedEx(r1 - r0, out_channels_, row_len, a, packed, bias, epilogue, c, ldc,
                       plan_.panel_width);
          begin += r1 - r0;
        }
      });
}

void Conv2D::ForwardIntoFloatImplicit(const Tensor& input, GemmEpilogue epilogue, float* out,
                                      int64_t ldc, int64_t sample_stride) {
  const TensorShape out_shape = OutputShape(input.shape());
  const int row_len = kernel_ * kernel_ * in_channels_;
  const int out_w = out_shape.w;
  const int64_t out_h = out_shape.h;
  const int64_t total_oh = static_cast<int64_t>(out_shape.n) * out_h;
  const int ow_lo = implicit_ow_lo_;
  const int ow_hi = implicit_ow_hi_;
  const int edge_cols = ow_lo + (out_w - ow_hi);
  const float* packed = PackedFilters();
  const float* bias = bias_.value.data();
  // Parallelize over whole output rows: each interior tile streams the
  // input in place, so the only scratch is the per-chunk edge-column rows.
  InferenceParallelFor(
      total_oh, static_cast<int64_t>(out_w) * row_len * out_channels_,
      [&](int64_t begin, int64_t end) {
        ScratchArena& arena = LocalArena();
        while (begin < end) {
          const int n = static_cast<int>(begin / out_h);
          const int64_t oh0 = begin % out_h;
          const int64_t oh1 = std::min(out_h, oh0 + (end - begin));
          const float* sample = input.SampleData(n);
          float* c_sample = out + n * sample_stride;
          ImplicitConvViewF view;
          view.base = sample;
          view.offsets = implicit_offsets_.data();
          view.segments = kernel_;
          view.seg_len = kernel_ * in_channels_;
          view.col_stride = stride_ * in_channels_;
          view.run_w = ow_hi - ow_lo;
          view.oh_begin = oh0;
          view.oh_end = oh1;
          view.c_row_stride = static_cast<int64_t>(out_w) * ldc;
          GemmPackedImplicit(view, out_channels_, packed, bias, epilogue,
                             c_sample + (oh0 * out_w + ow_lo) * ldc, ldc, plan_.panel_width);
          if (edge_cols > 0) {
            // Batch the chunk's edge columns into ONE GEMM: per-row calls
            // leave m below the row tile and fall to the scalar remainder.
            // The packed kernels write contiguous rows and edge outputs are
            // not contiguous (ow_lo left + out_w - ow_hi right per row), so
            // the GEMM lands in compact staging scratch and each row then
            // scatters to its output slot. One Alloc covers gather + stage:
            // a second Alloc could retire (and move) the first block.
            const int64_t edge_rows = (oh1 - oh0) * edge_cols;
            arena.Reset();
            float* cols = arena.Alloc(static_cast<size_t>(edge_rows) *
                                      (row_len + out_channels_));
            float* stage = cols + edge_rows * row_len;
            float* dst = cols;
            for (int64_t oh = oh0; oh < oh1; ++oh) {
              const int64_t r = oh * out_w;
              if (ow_lo > 0) {
                Im2ColRows(sample, input.shape().h, input.shape().w, in_channels_, kernel_,
                           stride_, pad_, r, r + ow_lo, dst);
                dst += static_cast<int64_t>(ow_lo) * row_len;
              }
              if (ow_hi < out_w) {
                Im2ColRows(sample, input.shape().h, input.shape().w, in_channels_, kernel_,
                           stride_, pad_, r + ow_hi, r + out_w, dst);
                dst += static_cast<int64_t>(out_w - ow_hi) * row_len;
              }
            }
            GemmPackedEx(edge_rows, out_channels_, row_len, cols, packed, bias, epilogue,
                         stage, out_channels_, plan_.panel_width);
            const float* src = stage;
            for (int64_t oh = oh0; oh < oh1; ++oh) {
              float* c_row = c_sample + oh * out_w * ldc;
              for (int e = 0; e < ow_lo; ++e, src += out_channels_) {
                std::memcpy(c_row + e * ldc, src, sizeof(float) * out_channels_);
              }
              for (int e = ow_hi; e < out_w; ++e, src += out_channels_) {
                std::memcpy(c_row + e * ldc, src, sizeof(float) * out_channels_);
              }
            }
          }
          begin += oh1 - oh0;
        }
      });
}

ActivationQuant Conv2D::QuantizeInputActivations(const Tensor& input) {
  // Per-tensor activation parameters, computed once up front so every
  // parallel chunk sees identical codes — the forward is deterministic
  // regardless of pool size. A calibrated layer reuses the range recorded
  // from its calibration batch (deployment skips the per-forward MinMaxRange
  // pass entirely; out-of-range values saturate); otherwise one fused
  // min/max pass observes the range. Either way the range covers 0, so the
  // zero point encodes both real zeros and the im2col padding taps exactly.
  float min_v = 0.0f;
  float max_v = 0.0f;
  const float* in_data = input.data();
  if (has_input_calibration_ && !calibration_capture_) {
    min_v = calib_min_;
    max_v = calib_max_;
  } else {
    MinMaxRange(in_data, input.size(), &min_v, &max_v);
  }
  const ActivationQuant quant = ComputeActivationQuant(min_v, max_v);

  // Quantize the input tensor once — NOT the im2col expansion, which holds
  // kernel^2 copies of every element. The patch rows are then gathered
  // directly in uint8 (4x less traffic than a float im2col + quantize).
  quantized_input_.resize(static_cast<size_t>(input.size()));
  QuantizeActivations(in_data, input.size(), quant, quantized_input_.data());
  return quant;
}

bool Conv2D::AcceptsQuantizedInput() const {
  return use_gemm_ && precision_ == Precision::kInt8 && !training_;
}

template <typename OutT>
void Conv2D::Int8ForwardOverCodes(const uint8_t* codes, const TensorShape& in_shape,
                                  const ActivationQuant& quant, GemmEpilogue epilogue,
                                  const ActivationQuant& out_quant, OutT* out, int64_t ldc,
                                  int64_t sample_stride) {
  const TensorShape out_shape = OutputShape(in_shape);
  const int row_len = kernel_ * kernel_ * in_channels_;
  const int k_padded = Int8PaddedK(row_len);
  const int64_t rows_per_sample = static_cast<int64_t>(out_shape.h) * out_shape.w;
  const int64_t total_rows = static_cast<int64_t>(out_shape.n) * rows_per_sample;
  if (total_rows == 0) {
    return;
  }

  const Int8PackedFilters& packed = PackedFiltersInt8();
  const uint8_t pad_code = static_cast<uint8_t>(quant.zero_point);
  const int64_t sample_codes =
      static_cast<int64_t>(in_shape.h) * in_shape.w * in_shape.c;
  const bool identity_patches = kernel_ == 1 && stride_ == 1 && pad_ == 0;

  if (ImplicitEligibleInt8() && PrepareImplicitGather(in_shape.h, in_shape.w)) {
    Int8ImplicitOverCodes(codes, in_shape, quant, epilogue, out_quant, out, ldc,
                          sample_stride);
    return;
  }
  // A 1x1 conv whose channel count is already a multiple of the int8 K
  // unit needs no gather at all: the quantized input rows ARE the A rows.
  const bool direct_rows = identity_patches && k_padded == row_len;
  const float* bias = bias_.value.data();
  InferenceParallelFor(
      total_rows, static_cast<int64_t>(row_len) * out_channels_,
      [&](int64_t begin, int64_t end) {
        ScratchArena& arena = LocalArena();
        while (begin < end) {
          const int n = static_cast<int>(begin / rows_per_sample);
          const int64_t r0 = begin % rows_per_sample;
          const int64_t r1 = std::min(rows_per_sample, r0 + (end - begin));
          const int64_t chunk_rows = r1 - r0;
          OutT* c = out + n * sample_stride + r0 * ldc;
          const uint8_t* sample = codes + n * sample_codes;
          const uint8_t* a;
          if (direct_rows) {
            a = sample + r0 * row_len;
          } else {
            arena.Reset();
            uint8_t* chunk = reinterpret_cast<uint8_t*>(arena.Alloc(
                (static_cast<size_t>(chunk_rows) * k_padded + sizeof(float) - 1) /
                sizeof(float)));
            if (identity_patches) {
              // Only the per-row K tail needs padding.
              for (int64_t r = 0; r < chunk_rows; ++r) {
                uint8_t* dst = chunk + r * k_padded;
                std::memcpy(dst, sample + (r0 + r) * row_len,
                            static_cast<size_t>(row_len));
                std::memset(dst + row_len, pad_code,
                            static_cast<size_t>(k_padded - row_len));
              }
            } else {
              Im2ColRowsU8(sample, in_shape.h, in_shape.w, in_channels_, kernel_,
                           stride_, pad_, r0, r1, pad_code, k_padded, chunk);
            }
            a = chunk;
          }
          if constexpr (std::is_same_v<OutT, uint8_t>) {
            GemmInt8PackedExU8(chunk_rows, a, packed, quant, bias, epilogue, out_quant, c,
                               ldc);
          } else {
            GemmInt8PackedEx(chunk_rows, a, packed, quant, bias, epilogue, c, ldc);
          }
          begin += chunk_rows;
        }
      });
}

template <typename OutT>
void Conv2D::Int8ImplicitOverCodes(const uint8_t* codes, const TensorShape& in_shape,
                                   const ActivationQuant& quant, GemmEpilogue epilogue,
                                   const ActivationQuant& out_quant, OutT* out, int64_t ldc,
                                   int64_t sample_stride) {
  const TensorShape out_shape = OutputShape(in_shape);
  const int row_len = kernel_ * kernel_ * in_channels_;
  const int k_padded = Int8PaddedK(row_len);  // == row_len by the eligibility gate
  const int out_w = out_shape.w;
  const int64_t out_h = out_shape.h;
  const int64_t total_oh = static_cast<int64_t>(out_shape.n) * out_h;
  const int ow_lo = implicit_ow_lo_;
  const int ow_hi = implicit_ow_hi_;
  const int edge_cols = ow_lo + (out_w - ow_hi);
  const int64_t sample_codes = static_cast<int64_t>(in_shape.h) * in_shape.w * in_shape.c;
  const Int8PackedFilters& packed = PackedFiltersInt8();
  const uint8_t pad_code = static_cast<uint8_t>(quant.zero_point);
  // The u8 kernels read vertical pad taps from this segment of zero-point
  // codes — the exact bytes Im2ColRowsU8 would have written. Refilled every
  // forward: the zero point follows the input's quantization.
  zero_row_u8_.assign(static_cast<size_t>(kernel_) * in_channels_, pad_code);
  const float* bias = bias_.value.data();
  InferenceParallelFor(
      total_oh, static_cast<int64_t>(out_w) * row_len * out_channels_,
      [&](int64_t begin, int64_t end) {
        ScratchArena& arena = LocalArena();
        while (begin < end) {
          const int n = static_cast<int>(begin / out_h);
          const int64_t oh0 = begin % out_h;
          const int64_t oh1 = std::min(out_h, oh0 + (end - begin));
          const uint8_t* sample = codes + n * sample_codes;
          OutT* c_sample = out + n * sample_stride;
          ImplicitConvViewU8 view;
          view.base = sample;
          view.offsets = implicit_offsets_.data();
          view.zero_row = zero_row_u8_.data();
          view.segments = kernel_;
          view.seg_len = kernel_ * in_channels_;
          view.col_stride = stride_ * in_channels_;
          view.run_w = ow_hi - ow_lo;
          view.oh_begin = oh0;
          view.oh_end = oh1;
          view.c_row_stride = static_cast<int64_t>(out_w) * ldc;
          OutT* c_interior = c_sample + (oh0 * out_w + ow_lo) * ldc;
          if constexpr (std::is_same_v<OutT, uint8_t>) {
            GemmInt8PackedImplicitU8(view, packed, quant, bias, epilogue, out_quant,
                                     c_interior, ldc);
          } else {
            GemmInt8PackedImplicit(view, packed, quant, bias, epilogue, c_interior, ldc);
          }
          if (edge_cols > 0) {
            // Batch the chunk's edge columns into ONE GEMM: per-row calls
            // leave m below the int8 row tile, so every edge pixel would run
            // in the scalar remainder. Edge outputs are not contiguous, so
            // the GEMM lands in compact staging scratch and each row then
            // scatters to its slot. One Alloc covers gather + stage: a
            // second Alloc could retire (and move) the first block.
            const int64_t edge_rows = (oh1 - oh0) * edge_cols;
            const size_t code_floats =
                (static_cast<size_t>(edge_rows) * k_padded + sizeof(float) - 1) /
                sizeof(float);
            const size_t stage_floats =
                (static_cast<size_t>(edge_rows) * out_channels_ * sizeof(OutT) +
                 sizeof(float) - 1) /
                sizeof(float);
            arena.Reset();
            float* block = arena.Alloc(code_floats + stage_floats);
            uint8_t* chunk = reinterpret_cast<uint8_t*>(block);
            OutT* stage = reinterpret_cast<OutT*>(block + code_floats);
            uint8_t* dst = chunk;
            for (int64_t oh = oh0; oh < oh1; ++oh) {
              const int64_t r = oh * out_w;
              if (ow_lo > 0) {
                Im2ColRowsU8(sample, in_shape.h, in_shape.w, in_channels_, kernel_, stride_,
                             pad_, r, r + ow_lo, pad_code, k_padded, dst);
                dst += static_cast<int64_t>(ow_lo) * k_padded;
              }
              if (ow_hi < out_w) {
                Im2ColRowsU8(sample, in_shape.h, in_shape.w, in_channels_, kernel_, stride_,
                             pad_, r + ow_hi, r + out_w, pad_code, k_padded, dst);
                dst += static_cast<int64_t>(out_w - ow_hi) * k_padded;
              }
            }
            if constexpr (std::is_same_v<OutT, uint8_t>) {
              GemmInt8PackedExU8(edge_rows, chunk, packed, quant, bias, epilogue, out_quant,
                                 stage, out_channels_);
            } else {
              GemmInt8PackedEx(edge_rows, chunk, packed, quant, bias, epilogue, stage,
                               out_channels_);
            }
            const OutT* src = stage;
            for (int64_t oh = oh0; oh < oh1; ++oh) {
              OutT* c_row = c_sample + oh * out_w * ldc;
              for (int e = 0; e < ow_lo; ++e, src += out_channels_) {
                std::memcpy(c_row + e * ldc, src, sizeof(OutT) * out_channels_);
              }
              for (int e = ow_hi; e < out_w; ++e, src += out_channels_) {
                std::memcpy(c_row + e * ldc, src, sizeof(OutT) * out_channels_);
              }
            }
          }
          begin += oh1 - oh0;
        }
      });
}

Tensor Conv2D::Backward(const Tensor& grad_output) {
  PCHECK(training_) << Name() << " Backward called in eval mode";
  PCHECK(precision_ == Precision::kFloat32)
      << Name() << " int8 is an inference-only path; train in float32";
  const TensorShape& in_shape = last_input_.shape();
  const TensorShape out_shape = OutputShape(in_shape);
  PCHECK(grad_output.shape() == out_shape) << Name();

  Tensor grad_input(in_shape);
  const int row_len = kernel_ * kernel_ * in_channels_;
  const int64_t rows = static_cast<int64_t>(out_shape.h) * out_shape.w;
  std::vector<float> grad_columns(static_cast<size_t>(rows * row_len));
  // The GEMM forward path does not populate columns_; size it here before
  // the per-sample Im2Col below writes into it.
  columns_.resize(static_cast<size_t>(rows * row_len));

  const float* w = weights_.value.data();
  float* dw = weights_.grad.data();
  float* db = bias_.grad.data();

  for (int n = 0; n < in_shape.n; ++n) {
    // Recompute the im2col expansion of this sample (cheaper than caching all
    // samples' columns across the batch).
    Im2Col(last_input_.SampleData(n), in_shape.h, in_shape.w, in_channels_, kernel_, stride_,
           pad_, columns_.data());
    std::fill(grad_columns.begin(), grad_columns.end(), 0.0f);
    const float* dout = grad_output.SampleData(n);
    for (int64_t m = 0; m < rows; ++m) {
      const float* col_row = columns_.data() + m * row_len;
      float* dcol_row = grad_columns.data() + m * row_len;
      const float* dout_row = dout + m * out_channels_;
      for (int oc = 0; oc < out_channels_; ++oc) {
        const float g = dout_row[oc];
        if (g == 0.0f) {
          continue;
        }
        db[oc] += g;
        Axpy(row_len, g, col_row, dw + static_cast<int64_t>(oc) * row_len);
        Axpy(row_len, g, w + static_cast<int64_t>(oc) * row_len, dcol_row);
      }
    }
    Col2Im(grad_columns.data(), in_shape.h, in_shape.w, in_channels_, kernel_, stride_, pad_,
           grad_input.SampleData(n));
  }
  return grad_input;
}

}  // namespace percival
