// 2-D convolution layer (NHWC, im2col + gemm lowering) with full backprop.
//
// Forward runs on one of two paths:
//   * GEMM (default) — the SIMD engine in gemm.h: output pixels are expanded
//     chunk-at-a-time into thread-local scratch and multiplied in 4x16
//     register tiles, with the chunks fanned out across the shared inference
//     ThreadPool. 1x1/stride-1 convolutions skip im2col entirely (the input
//     already is the patch matrix). Panel-packed filters are cached across
//     forward calls and invalidated by the weight Parameter's version
//     counter, so a frozen net packs exactly once — the classifier runs the
//     same weights on every decoded frame.
//   * naive — the original per-output-channel dot-product loop, kept as the
//     bit-for-bit oracle the parity tests compare against.
//
// Inference runs through ONE entry, Infer(input, output, epilogue): the
// input is a float tensor or uint8 codes (InputRef), the output a fresh
// float tensor, a caller float buffer, or uint8 codes requantized in the
// GEMM store under a caller-chosen quantization (OutputSpec). Caller
// buffers take a row stride (ldc) and a sample stride, which is how
// FireModule writes its expand branches straight into channel slices of
// the concat output. The epilogue fuses bias + activation into the store,
// which is how Conv->ReLU avoids a pre-activation tensor. Forward() is
// Infer with a fresh tensor and the kBias epilogue.
//
// SetPrecision(Precision::kInt8) switches the GEMM forward to the quantized
// engine: per-output-channel int8 weights are quantized at pack time and
// cached alongside the float panels (both invalidated by the weight
// Parameter's version counter), float input is quantized per tensor from
// its calibrated or observed range, code input is consumed as is, and the
// dequantize (or requantize) + bias + ReLU epilogue lands in the same
// store. Every input/output combination shares one quantized tail, so
// codes out are bit-identical to float out + QuantizeActivations (see
// RequantEpilogueSink in gemm.cc). Code input or output is int8/eval-only.
// The float path stays the training/backward engine and the parity oracle;
// Backward in int8 mode fails loudly.
//
// In eval mode (SetTrainingMode(false)) the forward skips the deep
// last_input_ copy — the only backward state this layer retains — and
// Backward fails loudly.
#ifndef PERCIVAL_SRC_NN_CONV_H_
#define PERCIVAL_SRC_NN_CONV_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/nn/gemm.h"
#include "src/nn/layer.h"

namespace percival {

class Conv2D : public Layer {
 public:
  // Creates a kernel x kernel convolution mapping in_channels -> out_channels.
  // Weights are He-initialized from `rng`; biases start at zero.
  Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad, Rng& rng,
         std::string name = "conv");

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;
  std::vector<Parameter*> Parameters() override { return {&weights_, &bias_}; }
  TensorShape OutputShape(const TensorShape& input) const override;
  int64_t ForwardMacs(const TensorShape& input) const override;
  size_t ForwardScratchFloats(const TensorShape& input) const override;

  // The inference entry (see the header comment): Infer(input, output)
  // runs the kBias epilogue, the three-argument form any GemmEpilogue.
  Tensor Infer(const InputRef& input, const OutputSpec& output) override;
  Tensor Infer(const InputRef& input, const OutputSpec& output, GemmEpilogue epilogue);

  // Replaces the weight/bias values (shape-checked) and invalidates the
  // packed-panel cache. Prefer this over mutating weights().value in place,
  // which requires a manual weights().MarkDirty() to keep the cache honest.
  void SetWeights(const Tensor& weights, const Tensor& bias);

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

  // Weight tensor layout: [out_channels, 1, 1, kernel*kernel*in_channels],
  // with each filter flattened in (kh, kw, c) order to match Im2Col rows.
  Parameter& weights() { return weights_; }
  Parameter& bias() { return bias_; }

  // Selects the forward implementation. Layers start on the GEMM path;
  // tests flip individual layers to the naive oracle to pit the two
  // against each other.
  void set_use_gemm(bool use_gemm) { use_gemm_ = use_gemm; }
  bool use_gemm() const { return use_gemm_; }

  // Runtime precision mode. kInt8 requires the GEMM path (checked on
  // Forward) and is inference-only: Backward PCHECKs against it.
  void SetPrecision(Precision precision) override { precision_ = precision; }
  Precision precision() const { return precision_; }

  // Kernel plan: panel width + gather policy the GEMM forward runs
  // under. PlanKernels (called by Network::PlanForward) picks it from the
  // layer shape + compiled SIMD tier; SetKernelPlan pins it explicitly for
  // A/B measurement — a pinned plan survives later PlanKernels calls
  // (which PlanForward issues on every input-shape change), so the A/B
  // really measures the pinned kernel; ClearKernelPlanPin restores the
  // heuristic. Both pack caches are keyed on (weight version, plan), so a
  // plan change repacks exactly once per cache.
  void PlanKernels(const TensorShape& input) override;
  void SetKernelPlan(const KernelPlan& plan);
  void ClearKernelPlanPin() { plan_pinned_ = false; }
  const KernelPlan& plan() const { return plan_; }
  void AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const override;

  // Code input and code output (the zero-float dataflow roles, see Layer)
  // need the GEMM path, int8 precision, and eval mode.
  bool AcceptsQuantizedInput() const override;
  bool CanEmitQuantizedCodes() const override { return AcceptsQuantizedInput(); }

  // Input-range calibration: when set, the int8 forward derives its
  // activation quantization from this range instead of scanning the input
  // (deployment skips one full pass over the tensor per conv). Capture mode
  // accumulates the range across float forwards; see Layer for the
  // protocol. Values outside a calibrated range saturate to the range edge,
  // the standard calibration trade.
  void SetInputCalibration(float min_value, float max_value);
  void ClearInputCalibration();
  bool InputCalibration(float* min_value, float* max_value) const override;
  void SetCalibrationCapture(bool capture) override;
  size_t CalibrationSlots() const override { return 1; }
  void AppendCalibration(std::vector<ActivationCalibration>* out) const override;
  size_t ConsumeCalibration(const ActivationCalibration* entries, size_t count) override;

 private:
  Tensor ForwardNaive(const Tensor& input);
  void ForwardIntoFloat(const Tensor& input, GemmEpilogue epilogue, float* out, int64_t ldc,
                        int64_t sample_stride);
  // Implicit-gather float forward: interior output columns stream from the
  // NHWC tensor through the cached offset table; only the <= pad edge
  // columns per side still run the classic Im2ColRows + GemmPackedEx.
  void ForwardIntoFloatImplicit(const Tensor& input, GemmEpilogue epilogue, float* out,
                                int64_t ldc, int64_t sample_stride);
  // Same split for the quantized engine (interior via GemmInt8PackedImplicit
  // / ...U8, edges via Im2ColRowsU8). Only called when ImplicitEligible.
  template <typename OutT>
  void Int8ImplicitOverCodes(const uint8_t* codes, const TensorShape& in_shape,
                             const ActivationQuant& quant, GemmEpilogue epilogue,
                             const ActivationQuant& out_quant, OutT* out, int64_t ldc,
                             int64_t sample_stride);
  // True when the current plan + layer geometry support the implicit gather
  // at all (multi-tap kernel). The int8 path additionally requires the
  // per-tap K segment to be kInt8KUnit-aligned so packed K groups never
  // straddle a tap boundary.
  bool ImplicitEligible() const;
  bool ImplicitEligibleInt8() const;
  // Builds (or reuses) the per-output-row offset table for an input of this
  // height/width; returns false when the shape has no interior columns (the
  // caller falls back to the materialized gather).
  bool PrepareImplicitGather(int height, int width);
  // Shared tail of every int8 Infer: patch-gathers `codes` (whole-sample
  // uint8 NHWC codes) into (kh, kw, c) rows and runs the quantized GEMM,
  // storing either dequantized floats (OutT = float; out_quant ignored) or
  // requantized consumer codes (OutT = uint8_t).
  template <typename OutT>
  void Int8ForwardOverCodes(const uint8_t* codes, const TensorShape& in_shape,
                            const ActivationQuant& quant, GemmEpilogue epilogue,
                            const ActivationQuant& out_quant, OutT* out, int64_t ldc,
                            int64_t sample_stride);
  // Front half of a float-input int8 Infer: applies calibration (or
  // observes the range), quantizes the input into quantized_input_, and
  // returns the chosen activation quant.
  ActivationQuant QuantizeInputActivations(const Tensor& input);

  // Repacks filter panels iff (weights_.version, plan_) moved since the
  // last pack.
  const float* PackedFilters();
  // Same contract for the quantized panels + per-channel scale metadata.
  // When the weight Parameter carries a fresh pre-quantized payload (PCVW
  // v2 load), its codes are packed directly — no pack-time requantization,
  // and the int8 forward reproduces the serializing build bit-for-bit.
  const Int8PackedFilters& PackedFiltersInt8();

  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int pad_;
  std::string label_;
  bool use_gemm_;
  Precision precision_ = Precision::kFloat32;
  Parameter weights_;
  Parameter bias_;

  // Cached forward state for backward (training mode only).
  Tensor last_input_;
  std::vector<float> columns_;  // im2col buffer for one sample (naive/backward)

  // Per-layer kernel plan (panel width + gather policy) the GEMM forwards
  // and the pack caches run under. Defaults to the native panel width and
  // the materialized gather, i.e. the pre-planner behavior. `plan_pinned_`
  // marks an explicit SetKernelPlan choice that PlanKernels must not
  // overwrite.
  KernelPlan plan_;
  bool plan_pinned_ = false;

  // Input activation calibration (see SetInputCalibration).
  bool calibration_capture_ = false;
  bool has_input_calibration_ = false;
  float calib_min_ = 0.0f;
  float calib_max_ = 0.0f;

  // Persistent panel-packed weights for the GEMM path, valid while the
  // matching (version, plan) pair equals the current one (version 0 =
  // never packed). The float and int8 caches key independently, so flipping
  // precision back and forth never repacks frozen weights; a plan change
  // repacks each cache once.
  std::vector<float> packed_filters_;
  uint64_t packed_version_ = 0;
  KernelPlan packed_plan_;
  Int8PackedFilters packed_filters_int8_;
  uint64_t packed_int8_version_ = 0;
  KernelPlan packed_int8_plan_;
  int packed_int8_weight_max_ = 0;  // Int8WeightMax() the cache was packed under

  // Whole-input uint8 codes for the quantized forward (quantized once per
  // forward; the per-chunk patch gather then moves bytes, not floats).
  // Plain scratch, not backward state — sized on first int8 forward, steady
  // thereafter. Code input bypasses it entirely.
  std::vector<uint8_t> quantized_input_;

  // Implicit-gather offset table: per (output row, vertical tap) element
  // offsets into one NHWC sample, at interior column implicit_ow_lo_
  // (< 0 = vertical pad tap). Built lazily by PrepareImplicitGather and
  // cached per input (height, width) — the layer's own geometry is fixed,
  // so shape is the whole key. zero_row_u8_ holds one tap segment of
  // activation zero-point codes for the u8 kernels' pad reads (refilled per
  // int8 forward: the zero point follows the input's quantization).
  std::vector<int64_t> implicit_offsets_;
  std::vector<uint8_t> zero_row_u8_;
  int implicit_h_ = 0;
  int implicit_w_ = 0;
  int implicit_ow_lo_ = 0;  // first interior output column
  int implicit_ow_hi_ = 0;  // one past the last interior output column
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_CONV_H_
