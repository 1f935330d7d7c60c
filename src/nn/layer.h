// Layer interface for the CNN stack.
//
// Layers own their parameters (value + gradient pair) and cache whatever
// forward-pass state their backward pass needs. The contract is:
//   output = Forward(input)   — caches input-derived state
//   dinput = Backward(doutput) — accumulates into parameter grads
// Backward may only be called after Forward with matching shapes.
// Inference has one more entry, Infer(input ref, output spec), which
// generalizes Forward to code input, code output, and caller buffers.
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
  std::string folds;       // layers the dataflow plan folded into this emitter,
                           // e.g. "+relu +pool2x2"; empty when none
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

// What a layer's inference entry reads: a borrowed float tensor or a
// borrowed code view. Converts implicitly from either, so call sites pass
// the tensor or view directly; the referent must outlive the Infer call.
struct InputRef {
  const Tensor* floats = nullptr;  // null: the input is `codes`
  QuantizedTensorView codes{};

  InputRef(const Tensor& tensor) : floats(&tensor) {}
  InputRef(const QuantizedTensorView& view) : codes(view) {}
  bool is_codes() const { return floats == nullptr; }
  const TensorShape& shape() const { return is_codes() ? codes.shape : floats->shape(); }
};

// Where and how a layer's inference entry writes. Exactly one of three:
//   * default-constructed: a fresh dense float tensor, returned by Infer;
//   * `floats`: float output into the caller's buffer;
//   * `codes`: uint8 output, requantized under (scale, zero_point).
// Caller buffers are addressed row-major: output pixel `row` of sample n
// lands at out + n * sample_stride + row * ldc, so ldc >= the layer's
// output channels targets a channel slice of a wider tensor. 0 means dense
// for either stride.
//
// Two folds ride on the spec, applied in the store of a layer that takes
// them (a conv; see the FUSED EMITTER role below): `relu` clamps at zero
// (the kBiasRelu epilogue), and `max_pool_2x2` max-pools the stored map 2x2
// with stride 2 (floor sizing, as MaxPool2D), so the unpooled map is never
// written whole. A pooled spec writes codes into dense rows; ldc, the
// sample stride and the shape all describe the pooled map.
struct OutputSpec {
  float* floats = nullptr;
  uint8_t* codes = nullptr;
  float scale = 1.0f;
  int32_t zero_point = 0;
  int64_t ldc = 0;
  int64_t sample_stride = 0;
  bool relu = false;
  bool max_pool_2x2 = false;

  static OutputSpec Floats(float* out, int64_t ldc = 0, int64_t sample_stride = 0) {
    OutputSpec spec;
    spec.floats = out;
    spec.ldc = ldc;
    spec.sample_stride = sample_stride;
    return spec;
  }
  static OutputSpec Codes(uint8_t* out, float scale, int32_t zero_point, int64_t ldc = 0,
                          int64_t sample_stride = 0) {
    OutputSpec spec;
    spec.codes = out;
    spec.scale = scale;
    spec.zero_point = zero_point;
    spec.ldc = ldc;
    spec.sample_stride = sample_stride;
    return spec;
  }
  OutputSpec WithRelu() const {
    OutputSpec spec = *this;
    spec.relu = true;
    return spec;
  }
  bool returns_tensor() const { return floats == nullptr && codes == nullptr; }
  // A transform's spec: dense codes under the input's own quantization.
  bool IsCodeTransformOf(const InputRef& input) const {
    return input.is_codes() && codes != nullptr && scale == input.codes.scale &&
           zero_point == input.codes.zero_point && ldc == 0 && sample_stride == 0 && !relu &&
           !max_pool_2x2;
  }
};

// What a layer is to the emitter in front of it: an eval ReLU is a `relu`
// fold, an eval 2x2/2 max-pool a `max_pool_2x2` fold (see OutputSpec).
enum class EmitFold : uint8_t { kNone, kRelu, kMaxPool2x2 };

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

  // The inference entry: runs the layer over `input` (a float tensor or
  // uint8 codes) and delivers through `output` (see OutputSpec). A float
  // output with no destination returns a fresh dense tensor; every other
  // spec writes through its pointer and returns an empty Tensor. The
  // default serves exactly Forward(): float in, fresh float tensor out.
  virtual Tensor Infer(const InputRef& input, const OutputSpec& output);

  // Zero-float dataflow protocol (the requantize-in-epilogue plan chosen by
  // Network::PlanForward). Every role is an Infer call with a particular
  // input ref and output spec; the predicates tell the planner which a
  // layer accepts:
  //   * CONSUMER (AcceptsQuantizedInput): codes in. Int8-eval convs and
  //     fire modules, and GlobalAvgPool under GapCodesMode.
  //   * EMITTER (CanEmitQuantizedCodes): a codes output spec under a
  //     caller-chosen quantization — the downstream consumer's calibrated
  //     input quant. Int8-eval convs and fire modules.
  //   * FUSED EMITTER (AbsorbsEmitFold): an emitter that also takes some
  //     of the spec's folds for a given input shape. The planner folds an
  //     eval ReLU that directly follows it, then an eval 2x2/2 max-pool
  //     (EmitFold), into its store; the folded layers leave the plan.
  //     Int8-eval convs take the ReLU always and the pool on the implicit
  //     gather: the paper stem writes its rows in pairs to a per-thread band
  //     and pools the band straight into the destination, so the unpooled
  //     map is never written whole. Exact, because ReLU and max commute
  //     with the monotone requant (relu(code) = max(code, zp) because
  //     quantize(0) == zp).
  //   * TRANSFORM (SupportsCodeTransform): codes in, dense codes out under
  //     the input's own quantization. Eval MaxPool, by the same
  //     commutation; it splits its output rows over the inference pool.
  //   * everything else breaks the code chain and runs float -> float.
  virtual bool AcceptsQuantizedInput() const { return false; }
  virtual bool CanEmitQuantizedCodes() const { return false; }
  virtual bool SupportsCodeTransform() const { return false; }
  virtual bool AbsorbsEmitFold(EmitFold fold, const TensorShape& input) const {
    (void)fold;
    (void)input;
    return false;
  }
  virtual EmitFold FoldIntoEmitter() const { return EmitFold::kNone; }

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
