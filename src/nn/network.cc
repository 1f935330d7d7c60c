#include "src/nn/network.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "src/base/faultpoint.h"
#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

Tensor Network::Forward(const Tensor& input) {
  // Deadline hook: the serving layer's forced-slow fault fires here, inside
  // the planned forward, so a stalled inference is indistinguishable from a
  // genuinely slow one to everything above (deadline accounting, the
  // degrade ladder) — the sleep is in the spec, armed by tests/benches.
  faultpoint::ShouldFire(faultpoint::kSlowForward);
  PlanIfStale(input.shape());
  return RunDataflow(input);
}

Tensor Network::ForwardQuantized(const QuantizedTensorView& input) {
  // Same deadline hook as Forward: the u8-direct deployment entry must be
  // just as stall-able, or the robustness suite would only cover the float
  // path.
  faultpoint::ShouldFire(faultpoint::kSlowForward);
  PCHECK(!layers_.empty());
  PCHECK(layers_[0]->AcceptsQuantizedInput())
      << "first layer (" << layers_[0]->Name() << ") cannot consume quantized input";
  PlanIfStale(input.shape);
  return RunDataflow(input);
}

void Network::PlanIfStale(const TensorShape& input) {
  if (!planned_ || !(planned_shape_ == input) ||
      dataflow_enabled_at_plan_ != DataflowRequantEnabled() ||
      gap_codes_at_plan_ != GetGapCodesMode() ||
      dispatch_generation_at_plan_ != SimdDispatchGeneration()) {
    PlanForward(input);
  }
}

void Network::PlanForward(const TensorShape& input) {
  size_t worst = 0;
  TensorShape shape = input;
  std::vector<TensorShape> input_shapes;
  input_shapes.reserve(layers_.size());
  for (const auto& layer : layers_) {
    // Plans first: a layer's scratch requirement may depend on its plan.
    input_shapes.push_back(shape);
    layer->PlanKernels(shape);
    worst = std::max(worst, layer->ForwardScratchFloats(shape));
    shape = layer->OutputShape(shape);
  }
  LocalArena().Reserve(worst);
  PlanDataflow(input_shapes);
  planned_shape_ = input;
  dispatch_generation_at_plan_ = SimdDispatchGeneration();
  planned_ = true;
}

void Network::PlanDataflow(const std::vector<TensorShape>& input_shapes) {
  dataflow_.assign(layers_.size(), DataflowStep{});
  dataflow_enabled_at_plan_ = DataflowRequantEnabled();
  gap_codes_at_plan_ = GetGapCodesMode();
  const bool eligible = precision_ == Precision::kInt8 && !training_ &&
                        !calibration_capture_ && dataflow_enabled_at_plan_;
  if (!eligible) {
    return;
  }
  // Walk the layer list linking emitters to consumers.
  size_t max_code_bytes = 0;
  size_t i = 0;
  while (i < layers_.size()) {
    bool linked = false;
    if (layers_[i]->CanEmitQuantizedCodes()) {
      // The link holds if every layer until the next non-transform is a
      // code transform and that consumer takes quantized input with a
      // calibrated range (the range supplies the emit quantization).
      size_t j = i + 1;
      while (j < layers_.size() && layers_[j]->SupportsCodeTransform()) {
        ++j;
      }
      float min_value = 0.0f;
      float max_value = 0.0f;
      if (j < layers_.size() && layers_[j]->AcceptsQuantizedInput() &&
          layers_[j]->InputCalibration(&min_value, &max_value)) {
        // The emitter writes the consumer's quantization and every
        // transform in between preserves it.
        const ActivationQuant quant = ComputeActivationQuant(min_value, max_value);
        for (size_t t = i; t < j; ++t) {
          dataflow_[t].mode = t == i ? DataflowStep::Mode::kEmit : DataflowStep::Mode::kTransform;
          dataflow_[t].scale = quant.scale;
          dataflow_[t].zero_point = quant.zero_point;
          dataflow_[t].out_shape = layers_[t]->OutputShape(input_shapes[t]);
          max_code_bytes = std::max(
              max_code_bytes, static_cast<size_t>(dataflow_[t].out_shape.Elements()));
        }
        linked = true;
        i = j;  // the consumer decides next: extend the chain or break it
      }
    }
    if (!linked) {
      // Layer i runs unlinked: float layer, or a consumer that terminates
      // the chain (RunDataflow hands it the codes).
      ++i;
    }
  }
  if (max_code_bytes > 0) {
    code_buffers_[0].resize(max_code_bytes);
    code_buffers_[1].resize(max_code_bytes);
  }
}

size_t Network::RequantLinkCount() const {
  size_t links = 0;
  for (const DataflowStep& step : dataflow_) {
    if (step.mode == DataflowStep::Mode::kEmit) {
      ++links;
    }
  }
  return links;
}

Tensor Network::RunDataflow(InputRef input) {
  Tensor current;
  int turn = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const DataflowStep& step = dataflow_[i];
    // A float step returns a fresh tensor — including the consumer that
    // reads live codes and ends a chain; emitters and transforms write the
    // ping-pong buffer they do not read.
    OutputSpec output;
    if (step.mode != DataflowStep::Mode::kFloat) {
      output = OutputSpec::Codes(code_buffers_[turn].data(), step.scale, step.zero_point);
      turn ^= 1;
    }
    Tensor result = layers_[i]->Infer(input, output);
    if (output.codes != nullptr) {
      input = QuantizedTensorView{output.codes, step.out_shape, step.scale, step.zero_point};
    } else {
      current = std::move(result);
      input = current;
    }
  }
  PCHECK(!input.is_codes()) << "dataflow plan ended with live codes and no consumer";
  if (layers_.empty()) {
    return *input.floats;
  }
  return current;
}

bool Network::AcceptsQuantizedInput() const {
  return !layers_.empty() && layers_[0]->AcceptsQuantizedInput();
}

std::vector<KernelPlanRow> Network::CollectKernelPlanRows() const {
  std::vector<KernelPlanRow> rows;
  for (const auto& layer : layers_) {
    layer->AppendKernelPlanRows(&rows);
  }
  return rows;
}

std::string Network::KernelPlanSummary() const {
  const std::vector<KernelPlanRow> rows = CollectKernelPlanRows();
  int narrow = 0;
  int implicit = 0;
  for (const KernelPlanRow& row : rows) {
    if (row.panel_width < GemmNativePanelWidth()) {
      ++narrow;
    }
    if (row.implicit) {
      ++implicit;
    }
  }
  std::ostringstream out;
  out << "planner: " << rows.size() << " convs, " << narrow << " narrow-panel(16), "
      << implicit << " implicit-gather"
      << (AcceptsQuantizedInput() ? ", u8-direct input" : "");
  return out.str();
}

void Network::SetCalibrationCapture(bool capture) {
  calibration_capture_ = capture;
  for (auto& layer : layers_) {
    layer->SetCalibrationCapture(capture);
  }
  // Capture needs float forwards to observe ranges (and stopping capture
  // may have produced the calibrations a dataflow plan feeds on).
  planned_ = false;
}

size_t Network::CalibrationSlots() const {
  size_t slots = 0;
  for (const auto& layer : layers_) {
    slots += layer->CalibrationSlots();
  }
  return slots;
}

std::vector<ActivationCalibration> Network::CollectCalibration() const {
  std::vector<ActivationCalibration> entries;
  for (const auto& layer : layers_) {
    layer->AppendCalibration(&entries);
  }
  return entries;
}

bool Network::LoadCalibration(const std::vector<ActivationCalibration>& entries) {
  // A short vector would leave later layers' (possibly stale) calibrations
  // untouched while this function reported success — reject it before any
  // layer consumes an entry.
  if (entries.size() != CalibrationSlots()) {
    return false;
  }
  size_t consumed = 0;
  for (auto& layer : layers_) {
    consumed += layer->ConsumeCalibration(entries.data() + consumed,
                                          entries.size() - consumed);
  }
  // Fresh calibrations can enable (or change) requant links.
  planned_ = false;
  return consumed == entries.size();
}

Tensor Network::ForwardUpTo(const Tensor& input, size_t layer_count) {
  PCHECK_LE(layer_count, layers_.size());
  Tensor current = input;
  for (size_t i = 0; i < layer_count; ++i) {
    current = layers_[i]->Forward(current);
  }
  return current;
}

void Network::SetTrainingMode(bool training) {
  training_ = training;
  for (auto& layer : layers_) {
    layer->SetTrainingMode(training);
  }
  planned_ = false;  // the dataflow plan is eval-only
}

void Network::SetPrecision(Precision precision) {
  precision_ = precision;
  for (auto& layer : layers_) {
    layer->SetPrecision(precision);
  }
  planned_ = false;  // int8 forwards stage activation codes in the arena
}

Tensor Network::Backward(const Tensor& grad_output) {
  return BackwardFrom(grad_output, 0);
}

Tensor Network::BackwardFrom(const Tensor& grad_output, size_t layer_index) {
  PCHECK(training_) << "Network::Backward called in eval mode; call "
                       "SetTrainingMode(true) before training";
  Tensor current = grad_output;
  for (size_t i = layers_.size(); i > layer_index; --i) {
    current = layers_[i - 1]->Backward(current);
  }
  return current;
}

std::vector<Parameter*> Network::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

void Network::ZeroGrads() {
  for (Parameter* p : Parameters()) {
    p->grad.Zero();
  }
}

int64_t Network::ParameterCount() {
  int64_t total = 0;
  for (auto& layer : layers_) {
    total += layer->ParameterCount();
  }
  return total;
}

int64_t Network::ForwardMacs(const TensorShape& input) const {
  int64_t total = 0;
  TensorShape shape = input;
  for (const auto& layer : layers_) {
    total += layer->ForwardMacs(shape);
    shape = layer->OutputShape(shape);
  }
  return total;
}

TensorShape Network::OutputShape(const TensorShape& input) const {
  TensorShape shape = input;
  for (const auto& layer : layers_) {
    shape = layer->OutputShape(shape);
  }
  return shape;
}

std::string Network::Summary(const TensorShape& input) const {
  std::ostringstream out;
  TensorShape shape = input;
  out << "input " << shape.ToString() << "\n";
  for (const auto& layer : layers_) {
    shape = layer->OutputShape(shape);
    out << std::left << std::setw(36) << layer->Name() << " -> " << shape.ToString() << "\n";
  }
  return out.str();
}

}  // namespace percival
