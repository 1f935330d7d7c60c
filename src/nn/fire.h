// SqueezeNet fire module (Iandola et al., reproduced per the paper's Fig. 3).
//
// A fire module squeezes the channel count with a 1x1 convolution, then
// expands it with parallel 1x1 and 3x3 convolutions whose outputs are
// concatenated along the channel axis.
//
// On the GEMM path the whole module runs fused: the squeeze conv folds its
// ReLU into the GEMM epilogue, and each expand conv writes epilogue(conv)
// directly into its channel-half of the concat output tensor (relu(concat)
// == concat(relu), elementwise), deleting both the interleave copy and the
// two expand intermediates. Backward is unchanged — the ReLU masks are
// reconstructed from the fused outputs, which is exact.
//
// That fused sequence is ONE body shared by Forward and Infer. Infer
// takes any input ref and output spec: the expands write their channel
// halves through the caller's spec (floats or codes, at the caller's ldc
// and sample stride), and the only thing left to decide is the squeeze's
// own output spec — uint8 codes in a persistent buffer when both expand
// convs carry an equal calibrated input range (the quantized hop, no float
// activation tensor inside the module), a float map otherwise. Forward,
// the training path and the staged oracle, always takes the float hop.
#ifndef PERCIVAL_SRC_NN_FIRE_H_
#define PERCIVAL_SRC_NN_FIRE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/nn/activation.h"
#include "src/nn/conv.h"
#include "src/nn/layer.h"

namespace percival {

class FireModule : public Layer {
 public:
  // `squeeze_channels` is the 1x1 bottleneck width; each expand branch
  // produces `expand_channels` channels, so the module output has
  // 2 * expand_channels channels.
  FireModule(int in_channels, int squeeze_channels, int expand_channels, Rng& rng,
             std::string name = "fire");

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;
  std::vector<Parameter*> Parameters() override;
  TensorShape OutputShape(const TensorShape& input) const override;
  int64_t ForwardMacs(const TensorShape& input) const override;
  size_t ForwardScratchFloats(const TensorShape& input) const override;

  int out_channels() const { return 2 * expand_channels_; }

  // Flips all three inner convolutions between the GEMM engine and the
  // naive oracle (the fused path requires GEMM on every conv).
  void set_use_gemm(bool use_gemm);

  // Propagates to the inner convs and ReLUs. Eval mode additionally skips
  // the module's two ReLU mask sweeps (the masks are the only backward
  // state the fused path materializes).
  void SetTrainingMode(bool training) override;

  // Runs all three inner convolutions at the given precision; with kInt8
  // the fused path (squeeze ReLU epilogue + direct concat writes) runs
  // unchanged on the quantized kernels.
  void SetPrecision(Precision precision) override;

  // Kernel planning / plan reporting / calibration: each inner conv plans
  // against its real input shape (squeeze sees the module input, both
  // expands see the squeezed map), so an 8-16ch squeeze picks the narrow
  // panel while a wide expand keeps the full one.
  void PlanKernels(const TensorShape& input) override;
  void AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const override;
  void SetCalibrationCapture(bool capture) override;
  size_t CalibrationSlots() const override { return 3; }
  void AppendCalibration(std::vector<ActivationCalibration>* out) const override;
  size_t ConsumeCalibration(const ActivationCalibration* entries, size_t count) override;

  // The module's input calibration is the squeeze conv's.
  bool InputCalibration(float* min_value, float* max_value) const override {
    return squeeze_.InputCalibration(min_value, max_value);
  }

  // The inference entry. Float in with a fresh float tensor out is exactly
  // Forward; code input, code output, or a caller buffer need the fused
  // path with every conv in int8 eval mode (AcceptsQuantizedInput).
  Tensor Infer(const InputRef& input, const OutputSpec& output) override;
  bool AcceptsQuantizedInput() const override;
  bool CanEmitQuantizedCodes() const override { return AcceptsQuantizedInput(); }

  // Inner-conv access for tests and benches (plan inspection, pinning).
  Conv2D& squeeze() { return squeeze_; }
  Conv2D& expand1x1() { return expand1x1_; }
  Conv2D& expand3x3() { return expand3x3_; }

  // Disables operator fusion while keeping the GEMM convs: the module runs
  // the layer-by-layer reference path (conv, relu, conv x2, interleave
  // copy, relu). The parity tests pit the fused path against this.
  void set_use_fused(bool use_fused) { use_fused_ = use_fused; }
  bool use_fused() const { return use_fused_; }

 private:
  Tensor ForwardReference(const Tensor& input);
  // The fused body: squeeze -> expands, written through `output`. A non-null
  // `hop` runs the squeeze->expand hop as codes under that quantization.
  Tensor RunFused(const InputRef& input, const OutputSpec& output, const ActivationQuant* hop);
  // True (filling *hop_quant) when the squeeze->expand hop can run
  // quantized: both expand calibrations valid and equal (they observe the
  // same squeezed tensor, so capture and the trailer always agree).
  bool QuantizedSqueezeHop(ActivationQuant* hop_quant) const;

  int squeeze_channels_;
  int expand_channels_;
  std::string label_;
  bool use_fused_ = true;
  Conv2D squeeze_;
  Relu squeeze_relu_;
  Conv2D expand1x1_;
  Conv2D expand3x3_;
  Relu expand_relu_;

  // Persistent uint8 buffer for the quantized squeeze->expand hop. Grows to
  // the largest squeezed map seen and stays — steady-state forwards touch
  // no allocator.
  std::vector<uint8_t> squeezed_codes_;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_FIRE_H_
