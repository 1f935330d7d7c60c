// Sequential network container.
#ifndef PERCIVAL_SRC_NN_NETWORK_H_
#define PERCIVAL_SRC_NN_NETWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/gemm.h"
#include "src/nn/layer.h"

namespace percival {

class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  // Appends a layer; returns a reference to it for further configuration.
  template <typename LayerType, typename... Args>
  LayerType& Add(Args&&... args) {
    auto layer = std::make_unique<LayerType>(std::forward<Args>(args)...);
    LayerType& ref = *layer;
    AddLayer(std::move(layer));
    return ref;
  }

  void AddLayer(std::unique_ptr<Layer> layer) {
    // Late-added layers inherit the network's current mode and precision.
    layer->SetTrainingMode(training_);
    layer->SetPrecision(precision_);
    layers_.push_back(std::move(layer));
    planned_ = false;  // the forward plan no longer covers this layer
  }

  // Runs all layers in order. Re-plans the scratch workspace automatically
  // when the input shape differs from the last planned one.
  Tensor Forward(const Tensor& input);

  // Runs all layers over a pre-quantized uint8 input: the FIRST layer must
  // accept quantized input (AcceptsQuantizedInput(), i.e. a conv in int8
  // eval mode); the rest of the network runs the same plan as Forward.
  // This is the deployment path that keeps the int8 classify pipeline free
  // of the float staging tensor.
  Tensor ForwardQuantized(const QuantizedTensorView& input);
  bool AcceptsQuantizedInput() const;

  // Walks the layers once: each layer picks its kernel plan (panel width /
  // gather policy — see Conv2D::PlanKernels) for its actual input
  // shape, then the worst-case per-layer scratch requirement is computed
  // and the *calling thread's* arena reserved up front — so the next
  // Forward() on this thread performs zero arena growth, including the very
  // first inference after model load. Threads that never plan (e.g. pool
  // workers, which see smaller per-chunk buffers) warm their arenas
  // organically as before.
  void PlanForward(const TensorShape& input);

  // The planner's decisions, one row per plannable kernel (for bench JSON)
  // and as a condensed one-line summary (for deployment logs).
  std::vector<KernelPlanRow> CollectKernelPlanRows() const;
  std::string KernelPlanSummary() const;

  // Zero-float dataflow plan, chosen by PlanForward alongside the kernel
  // plans. In int8 eval mode (outside calibration capture, and with the
  // global SetDataflowRequantEnabled knob on) the planner links each
  // code-emitting layer to its downstream consumer: when the layers between
  // them are all code transforms (eval ReLU / MaxPool) and the consumer
  // both accepts quantized input and carries a calibrated input range, the
  // emitter's GEMM epilogue requantizes straight to the consumer's uint8
  // codes and the chain runs through network-owned ping-pong code buffers —
  // no float activation tensor and no per-forward heap allocation between
  // the linked layers. Layers outside a link run the float path unchanged,
  // so uncalibrated models behave exactly as before.
  // RequantLinkCount() reports how many emit links the current plan holds
  // (0 = plan inert, pure float-staged behavior).
  size_t RequantLinkCount() const;
  // Capacity of the ping-pong code buffers in bytes (steady-state assertion
  // hook for tests).
  size_t CodeBufferCapacity() const {
    return code_buffers_[0].capacity() + code_buffers_[1].capacity();
  }

  // Calibration plumbing (see Layer): capture toggling, the deterministic
  // per-layer range walk the PCVW v2 trailer serializes, and its inverse.
  void SetCalibrationCapture(bool capture);
  size_t CalibrationSlots() const;
  std::vector<ActivationCalibration> CollectCalibration() const;
  bool LoadCalibration(const std::vector<ActivationCalibration>& entries);

  // Runs a forward pass but stops after `layer_count` layers; used by
  // Grad-CAM to obtain intermediate feature maps.
  Tensor ForwardUpTo(const Tensor& input, size_t layer_count);

  // Train/eval switch for every layer. In eval mode forwards retain no
  // backward state (no input copies, ReLU masks, or pool argmax capture)
  // and Backward/BackwardFrom fail loudly. Networks start in training mode;
  // deployment wrappers (AdClassifier) switch to eval on construction.
  void SetTrainingMode(bool training);
  bool training() const { return training_; }

  // Sets every layer's inference precision (Precision::kInt8 routes convs
  // through the quantized GEMM engine) and invalidates the forward plan —
  // the quantized path stages activation codes in the arena, so the scratch
  // requirement differs from float.
  void SetPrecision(Precision precision);

  // Propagates `grad_output` back through all layers, accumulating parameter
  // gradients; returns the gradient w.r.t. the network input.
  Tensor Backward(const Tensor& grad_output);

  // Backward through the tail of the network only, starting after layer
  // `layer_index` (i.e. the complement of ForwardUpTo). Grad-CAM support.
  Tensor BackwardFrom(const Tensor& grad_output, size_t layer_index);

  std::vector<Parameter*> Parameters();
  void ZeroGrads();

  int64_t ParameterCount();
  // Model size in bytes assuming float32 storage.
  int64_t ModelBytes() { return ParameterCount() * static_cast<int64_t>(sizeof(float)); }

  // Total forward multiply-accumulates for the given input shape.
  int64_t ForwardMacs(const TensorShape& input) const;

  // Final output shape for the given input shape.
  TensorShape OutputShape(const TensorShape& input) const;

  size_t LayerCount() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  // Multi-line human-readable summary (layer name, output shape, params).
  std::string Summary(const TensorShape& input) const;

 private:
  // One dataflow decision per layer (see RequantLinkCount above): the
  // layer's output spec. kEmit and kTransform both write codes under the
  // consumer's quantization (a transform preserves what the emitter
  // wrote); kFloat returns a fresh float tensor. A consumer needs no
  // marker: it is simply a kFloat layer reached while codes are live, and
  // the runtime hands it the code view.
  struct DataflowStep {
    enum class Mode { kFloat, kEmit, kTransform };
    Mode mode = Mode::kFloat;
    float scale = 1.0f;
    int32_t zero_point = 0;
    TensorShape out_shape{};
  };

  void PlanDataflow(const std::vector<TensorShape>& input_shapes);
  // Re-plans when the input shape, a dataflow knob, or the SIMD dispatch
  // moved since the last plan.
  void PlanIfStale(const TensorShape& input);
  // Runs the planned layer walk, one Infer per layer: float input from
  // Forward, codes live from layer 0 under ForwardQuantized. An all-kFloat
  // plan is the plain float-staged forward.
  Tensor RunDataflow(InputRef input);

  std::vector<std::unique_ptr<Layer>> layers_;
  TensorShape planned_shape_{};
  bool planned_ = false;
  bool training_ = true;
  Precision precision_ = Precision::kFloat32;
  bool calibration_capture_ = false;

  std::vector<DataflowStep> dataflow_;
  bool dataflow_enabled_at_plan_ = false;
  GapCodesMode gap_codes_at_plan_ = GapCodesMode::kForceOff;
  // SimdDispatchGeneration() at plan time: a SetSimdTierCap between forwards
  // bumps it, forcing a re-plan (and repack) under the new tier's panel
  // width and weight clamp.
  uint64_t dispatch_generation_at_plan_ = 0;
  // Ping-pong uint8 buffers the code chain alternates through (emitters and
  // transforms never write the buffer they read). Sized once at plan time.
  std::vector<uint8_t> code_buffers_[2];
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_NETWORK_H_
