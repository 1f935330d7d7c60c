// Layer interface for the CNN stack.
//
// Layers own their parameters (value + gradient pair) and cache whatever
// forward-pass state their backward pass needs. The contract is:
//   output = Forward(input)   — caches input-derived state
//   dinput = Backward(doutput) — accumulates into parameter grads
// Backward may only be called after Forward with matching shapes.
#ifndef PERCIVAL_SRC_NN_LAYER_H_
#define PERCIVAL_SRC_NN_LAYER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/nn/tensor.h"

namespace percival {

// Numeric precision of a layer's inference forward pass. kInt8 runs the
// quantized GEMM engine (per-channel int8 weights, per-tensor uint8
// activations, float dequantized outputs); training and backward always use
// float32, which also serves as the parity oracle for the quantized path.
enum class Precision {
  kFloat32,
  kInt8,
};

// Pre-quantized int8 weight codes riding alongside a Parameter's float
// value. Attached by the PCVW v2 deserializer: `value` then holds the
// dequantized floats (scale * code — the training/backward/oracle view)
// while layers with an int8 pack cache (Conv2D) pack these exact codes
// instead of requantizing, so a reloaded model's int8 forward is
// bit-identical to the writer's. Valid only while `version` equals the
// owning Parameter's version: any later mutation (optimizer step, SetWeights,
// another load) strands the payload and the pack cache falls back to
// quantizing the current floats.
struct QuantizedWeights {
  std::vector<int8_t> codes;  // row-major [channels][k] symmetric int8
  std::vector<float> scales;  // per output channel, w ~= scale * code
  uint64_t version = 0;
  // Clamp the codes were quantized under (the writing tier's
  // Int8WeightMax()). The pack cache only consumes the payload while the
  // ACTIVE tier's clamp covers it — a tier cap can narrow the clamp after
  // load, at which point packing falls back to requantizing the floats.
  int weight_max = 64;
};

// A calibrated activation range for one quantized tensor (a conv layer's
// input), observed over a calibration batch. `valid` distinguishes "never
// calibrated" from a genuine [0, 0] range. Serialized as the optional PCVW
// v2 trailer so deployment forwards skip the per-forward MinMaxRange pass.
struct ActivationCalibration {
  float min_value = 0.0f;
  float max_value = 0.0f;
  bool valid = false;
};

// One layer's kernel-plan decision, flattened for logging / bench JSON
// (plain strings + ints so this header stays independent of the GEMM
// engine's types; Conv2D translates its KernelPlan into this shape).
struct KernelPlanRow {
  std::string layer;
  int panel_width = 0;
  bool implicit = false;  // forward streams activations in place (no im2col)
  bool int8 = false;
  bool u8_direct = false;  // layer would accept a pre-quantized u8 input
};

// A borrowed view of an already-quantized uint8 activation tensor:
// value ~= scale * (code - zero_point), NHWC codes at `data`. The
// deployment preprocessing path hands this straight to the first conv so
// the int8 classify path never materializes a float staging tensor.
struct QuantizedTensorView {
  const uint8_t* data = nullptr;
  TensorShape shape{};
  float scale = 1.0f;
  int32_t zero_point = 0;
};

// A trainable weight with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  // Monotonic mutation counter for layers that cache derived forms of
  // `value` (e.g. Conv2D's packed GEMM panels persist across forwards and
  // repack only when this moves). Every code path that writes `value` in
  // place — optimizer step, deserialize, transfer — must call MarkDirty().
  uint64_t version = 1;
  // Optional pre-quantized codes for `value` (see QuantizedWeights).
  // shared_ptr keeps Parameter copyable; consumers must check `version`.
  std::shared_ptr<QuantizedWeights> quantized;

  void MarkDirty() { ++version; }
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor Forward(const Tensor& input) = 0;
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  // Train/eval switch. In eval mode (training == false) Forward must not
  // retain backward state — no input copies, no activation masks, no argmax
  // indices — and Backward fails loudly. Outputs are identical in both
  // modes; eval only elides the bookkeeping a frozen deployment never uses.
  // Layers with children must override and propagate.
  virtual void SetTrainingMode(bool training) { training_ = training; }
  bool training() const { return training_; }

  // Selects the inference precision. Layers without a quantized path ignore
  // this; Conv2D (and containers holding convs) honor it on Forward.
  virtual void SetPrecision(Precision precision) { (void)precision; }

  // Kernel planning hook, called by Network::PlanForward with the layer's
  // input shape: layers with shape-sensitive kernel choices (Conv2D's panel
  // width / gather policy) pick their plan here; containers propagate
  // to children with the correct child shapes. Layers without plannable
  // kernels ignore it.
  virtual void PlanKernels(const TensorShape& input) { (void)input; }

  // Appends one row per plannable kernel this layer owns (containers
  // recurse) so benches and logs can record the planner's decisions.
  virtual void AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const { (void)out; }

  // True when this layer can consume a pre-quantized uint8 input tensor
  // directly (Conv2D in int8 eval mode). The deployment wrapper checks the
  // network's FIRST layer and, when eligible, preprocesses bitmaps straight
  // to uint8 codes — no float staging tensor on the int8 classify path.
  virtual bool AcceptsQuantizedInput() const { return false; }

  // Runs the layer over caller-quantized input codes. Only meaningful when
  // AcceptsQuantizedInput(); the default fails loudly.
  virtual Tensor ForwardQuantized(const QuantizedTensorView& input) {
    (void)input;
    PCHECK(false) << Name() << " does not accept quantized input";
    return Tensor();
  }

  // Zero-float dataflow protocol (the requantize-in-epilogue plan chosen by
  // Network::PlanForward). Three roles:
  //   * EMITTERS (int8 convs, fire modules in eval mode) can write their
  //     output directly as uint8 codes under a caller-chosen quantization —
  //     the consumer layer's calibrated input quant — via ForwardToCodes
  //     (float input) / ForwardQuantizedToCodes (code input). `out` receives
  //     OutputShape(input).Elements() dense NHWC codes.
  //   * TRANSFORMS (eval ReLU, MaxPool) are quantization-preserving maps on
  //     codes: quantization is monotone, so max-based ops commute with it
  //     exactly (relu(code) = max(code, zp) because quantize(0) == zp).
  //     ForwardCodes rewrites input codes to output codes under the SAME
  //     (scale, zero_point).
  //   * everything else breaks the code chain and the network falls back to
  //     the float path at that point.
  // Scale/zero-point travel as plain scalars so this header stays
  // independent of the GEMM engine's ActivationQuant. Defaults fail loudly;
  // the planner only routes codes at layers that advertise support.
  virtual bool CanEmitQuantizedCodes() const { return false; }
  virtual void ForwardToCodes(const Tensor& input, float out_scale, int32_t out_zero_point,
                              uint8_t* out) {
    (void)input;
    (void)out_scale;
    (void)out_zero_point;
    (void)out;
    PCHECK(false) << Name() << " cannot emit quantized codes";
  }
  virtual void ForwardQuantizedToCodes(const QuantizedTensorView& input, float out_scale,
                                       int32_t out_zero_point, uint8_t* out) {
    (void)input;
    (void)out_scale;
    (void)out_zero_point;
    (void)out;
    PCHECK(false) << Name() << " cannot emit quantized codes";
  }
  virtual bool SupportsCodeTransform() const { return false; }
  virtual void ForwardCodes(const QuantizedTensorView& input, uint8_t* out) {
    (void)input;
    (void)out;
    PCHECK(false) << Name() << " cannot transform quantized codes";
  }

  // Calibration protocol. Capture mode (SetCalibrationCapture(true) resets
  // any previous range and starts accumulating; false stops and keeps the
  // accumulated range) records each quantized tensor's observed activation
  // range during float forwards. CalibrationSlots / AppendCalibration /
  // ConsumeCalibration walk the ranges in a deterministic layer order so
  // the PCVW v2 trailer can ship them; ConsumeCalibration returns how many
  // entries the layer (and its children) consumed.
  virtual void SetCalibrationCapture(bool capture) { (void)capture; }
  virtual size_t CalibrationSlots() const { return 0; }
  virtual void AppendCalibration(std::vector<ActivationCalibration>* out) const {
    (void)out;
  }
  virtual size_t ConsumeCalibration(const ActivationCalibration* entries, size_t count) {
    (void)entries;
    (void)count;
    return 0;
  }

  // Reports the layer's calibrated input range, when it has one.
  virtual bool InputCalibration(float* min_value, float* max_value) const {
    (void)min_value;
    (void)max_value;
    return false;
  }

  // Human-readable layer description, e.g. "conv3x3/2 3->64".
  virtual std::string Name() const = 0;

  // Mutable views of all trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  // Output shape for a given input shape, without running the layer.
  virtual TensorShape OutputShape(const TensorShape& input) const = 0;

  // Multiply-accumulate count of one forward pass for the given input shape.
  // Used for the Fig. 3 architecture accounting.
  virtual int64_t ForwardMacs(const TensorShape& input) const { return 0; }

  // Upper bound on the thread-local ScratchArena floats one Forward() call
  // may request for the given input shape. Network::PlanForward() reserves
  // the running maximum across layers up front, so even the first inference
  // after model load never grows the arena.
  virtual size_t ForwardScratchFloats(const TensorShape& input) const { return 0; }

  int64_t ParameterCount() {
    int64_t total = 0;
    for (Parameter* p : Parameters()) {
      total += p->value.size();
    }
    return total;
  }

 protected:
  bool training_ = true;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_LAYER_H_
