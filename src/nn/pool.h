// Pooling layers: max pooling and global average pooling.
#ifndef PERCIVAL_SRC_NN_POOL_H_
#define PERCIVAL_SRC_NN_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace percival {

class MaxPool2D : public Layer {
 public:
  MaxPool2D(int kernel, int stride);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;
  TensorShape OutputShape(const TensorShape& input) const override;

  // Code transform: max over codes is exact (quantization is monotone),
  // but it skips the argmax capture Backward needs — eval mode only. Infer
  // takes codes only under the input's own quantization, and splits the
  // output rows over the inference pool. A 2x2/2 pool right behind a conv
  // emitter is folded into the conv's store instead (EmitFold).
  bool SupportsCodeTransform() const override { return !training_; }
  EmitFold FoldIntoEmitter() const override {
    return !training_ && kernel_ == 2 && stride_ == 2 ? EmitFold::kMaxPool2x2 : EmitFold::kNone;
  }
  Tensor Infer(const InputRef& input, const OutputSpec& output) override;

 private:
  int kernel_;
  int stride_;
  TensorShape input_shape_;
  std::vector<int64_t> argmax_;  // flat input index of each output element
};

// Collapses each (h, w) plane to a single value: the paper's final
// global-average-pool before SoftMax (Fig. 3).
//
// GAP-on-codes (SetGapCodesMode): averaging commutes with the
// affine dequantization map, so with a calibrated input range eval-mode GAP
// can terminate the zero-float code chain itself — int32 sums over the
// uint8 codes, one dequantize per channel — instead of forcing the emitting
// conv back through a float store. The average is computed in code space,
// so logits differ from the staged path by up to half a code step; the
// link is therefore guarded by a 64-image >= 99% top-1 agreement test
// (tests/nn_requant_test.cc). GapCodesMode::kAuto (the default) enables it
// exactly when a serialized calibration trailer supplied the GAP range —
// the deployment population the guard vets — with kForceOff as the opt-out
// (the old default) and kForceOn covering live-captured ranges too.
class GlobalAvgPool : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "global_avgpool"; }
  TensorShape OutputShape(const TensorShape& input) const override {
    return TensorShape{input.n, 1, 1, input.c};
  }

  // True only when the GAP-on-codes mode allows the link (see GapCodesMode
  // in gemm.h), the layer is in eval mode, and a calibrated input range
  // exists (the planner also requires the range to derive the producer's
  // emit quantization). Infer then takes codes into a fresh float tensor.
  bool AcceptsQuantizedInput() const override;
  Tensor Infer(const InputRef& input, const OutputSpec& output) override;

  // One calibration slot (the pooled tensor's range), captured during float
  // forwards like Conv2D's input slots and shipped in the PCVW v2 trailer.
  void SetCalibrationCapture(bool capture) override;
  size_t CalibrationSlots() const override { return 1; }
  void AppendCalibration(std::vector<ActivationCalibration>* out) const override;
  size_t ConsumeCalibration(const ActivationCalibration* entries, size_t count) override;
  bool InputCalibration(float* min_value, float* max_value) const override;

 private:
  TensorShape input_shape_;
  bool calibration_capture_ = false;
  bool has_input_calibration_ = false;
  // True when the current range arrived via ConsumeCalibration (a PCVW v2
  // trailer / Network::LoadCalibration), false once live capture replaces
  // it — the discriminator GapCodesMode::kAuto keys on.
  bool calibration_from_trailer_ = false;
  float calib_min_ = 0.0f;
  float calib_max_ = 0.0f;
  std::vector<int32_t> sum_buffer_;  // per-channel code sums, reused across forwards
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_POOL_H_
