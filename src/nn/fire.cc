#include "src/nn/fire.h"

#include <algorithm>
#include <sstream>

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

FireModule::FireModule(int in_channels, int squeeze_channels, int expand_channels, Rng& rng,
                       std::string name)
    : squeeze_channels_(squeeze_channels),
      expand_channels_(expand_channels),
      label_(std::move(name)),
      squeeze_(in_channels, squeeze_channels, 1, 1, 0, rng, label_ + ".squeeze"),
      expand1x1_(squeeze_channels, expand_channels, 1, 1, 0, rng, label_ + ".expand1x1"),
      expand3x3_(squeeze_channels, expand_channels, 3, 1, 1, rng, label_ + ".expand3x3") {}

std::string FireModule::Name() const {
  std::ostringstream out;
  out << label_ << " s" << squeeze_channels_ << " e" << expand_channels_ << "+"
      << expand_channels_;
  return out.str();
}

std::vector<Parameter*> FireModule::Parameters() {
  std::vector<Parameter*> params;
  for (Parameter* p : squeeze_.Parameters()) {
    params.push_back(p);
  }
  for (Parameter* p : expand1x1_.Parameters()) {
    params.push_back(p);
  }
  for (Parameter* p : expand3x3_.Parameters()) {
    params.push_back(p);
  }
  return params;
}

TensorShape FireModule::OutputShape(const TensorShape& input) const {
  // 1x1 stride-1 and padded-3x3 stride-1 convolutions preserve spatial size.
  return TensorShape{input.n, input.h, input.w, out_channels()};
}

int64_t FireModule::ForwardMacs(const TensorShape& input) const {
  TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  return squeeze_.ForwardMacs(input) + expand1x1_.ForwardMacs(squeezed) +
         expand3x3_.ForwardMacs(squeezed);
}

size_t FireModule::ForwardScratchFloats(const TensorShape& input) const {
  // The three convs run sequentially and each resets the arena first, so
  // the requirement is the maximum, not the sum.
  const TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  return std::max({squeeze_.ForwardScratchFloats(input),
                   expand1x1_.ForwardScratchFloats(squeezed),
                   expand3x3_.ForwardScratchFloats(squeezed)});
}

void FireModule::set_use_gemm(bool use_gemm) {
  squeeze_.set_use_gemm(use_gemm);
  expand1x1_.set_use_gemm(use_gemm);
  expand3x3_.set_use_gemm(use_gemm);
}

void FireModule::SetTrainingMode(bool training) {
  training_ = training;
  squeeze_.SetTrainingMode(training);
  expand1x1_.SetTrainingMode(training);
  expand3x3_.SetTrainingMode(training);
  squeeze_relu_.SetTrainingMode(training);
  expand_relu_.SetTrainingMode(training);
}

void FireModule::SetPrecision(Precision precision) {
  squeeze_.SetPrecision(precision);
  expand1x1_.SetPrecision(precision);
  expand3x3_.SetPrecision(precision);
}

void FireModule::PlanKernels(const TensorShape& input) {
  const TensorShape squeezed{input.n, input.h, input.w, squeeze_channels_};
  squeeze_.PlanKernels(input);
  expand1x1_.PlanKernels(squeezed);
  expand3x3_.PlanKernels(squeezed);
}

void FireModule::AppendKernelPlanRows(std::vector<KernelPlanRow>* out) const {
  squeeze_.AppendKernelPlanRows(out);
  expand1x1_.AppendKernelPlanRows(out);
  expand3x3_.AppendKernelPlanRows(out);
}

void FireModule::SetCalibrationCapture(bool capture) {
  squeeze_.SetCalibrationCapture(capture);
  expand1x1_.SetCalibrationCapture(capture);
  expand3x3_.SetCalibrationCapture(capture);
}

void FireModule::AppendCalibration(std::vector<ActivationCalibration>* out) const {
  squeeze_.AppendCalibration(out);
  expand1x1_.AppendCalibration(out);
  expand3x3_.AppendCalibration(out);
}

size_t FireModule::ConsumeCalibration(const ActivationCalibration* entries, size_t count) {
  // Clamp after every child: `count - consumed` is size_t arithmetic, so a
  // child overreporting its take (or any future drift between slot counts)
  // would wrap the remaining count to ~2^64 and hand the next child a wild
  // pointer range. A truncated trailer (count < 3) stops cleanly instead.
  size_t consumed = std::min(squeeze_.ConsumeCalibration(entries, count), count);
  consumed += std::min(expand1x1_.ConsumeCalibration(entries + consumed, count - consumed),
                       count - consumed);
  consumed += std::min(expand3x3_.ConsumeCalibration(entries + consumed, count - consumed),
                       count - consumed);
  return consumed;
}

bool FireModule::AcceptsQuantizedInput() const {
  return use_fused_ && squeeze_.AcceptsQuantizedInput() && expand1x1_.AcceptsQuantizedInput() &&
         expand3x3_.AcceptsQuantizedInput();
}

bool FireModule::QuantizedSqueezeHop(ActivationQuant* hop_quant) const {
  float min1 = 0.0f, max1 = 0.0f, min2 = 0.0f, max2 = 0.0f;
  if (!expand1x1_.InputCalibration(&min1, &max1) ||
      !expand3x3_.InputCalibration(&min2, &max2)) {
    return false;
  }
  if (min1 != min2 || max1 != max2) {
    return false;
  }
  *hop_quant = ComputeActivationQuant(min1, max1);
  return true;
}

Tensor FireModule::Forward(const Tensor& input) {
  if (use_fused_ && squeeze_.use_gemm() && expand1x1_.use_gemm() && expand3x3_.use_gemm()) {
    // Always the float hop: Forward is the staged oracle the quantized hop
    // is checked against.
    return RunFused(input, OutputSpec{}, nullptr);
  }
  return ForwardReference(input);
}

Tensor FireModule::Infer(const InputRef& input, const OutputSpec& output) {
  if (!input.is_codes() && output.returns_tensor()) {
    return Forward(*input.floats);
  }
  PCHECK(AcceptsQuantizedInput())
      << Name() << " code input, code output, and caller buffers need int8 eval convs";
  ActivationQuant hop;
  return RunFused(input, output, QuantizedSqueezeHop(&hop) ? &hop : nullptr);
}

Tensor FireModule::RunFused(const InputRef& input, const OutputSpec& output,
                            const ActivationQuant* hop) {
  const TensorShape& in_shape = input.shape();
  const TensorShape squeezed_shape{in_shape.n, in_shape.h, in_shape.w, squeeze_channels_};
  // Squeeze + ReLU in one GEMM pass, into codes for the expands to read
  // directly, or into a float map whose Backward mask is recovered from
  // the post-activation output (exactly equal to the pre-activation sign
  // mask).
  Tensor squeezed;
  QuantizedTensorView squeezed_codes{};
  if (hop != nullptr) {
    squeezed_codes_.resize(static_cast<size_t>(squeezed_shape.Elements()));
    squeeze_.Infer(input, OutputSpec::Codes(squeezed_codes_.data(), hop->scale, hop->zero_point),
                   GemmEpilogue::kBiasRelu);
    squeezed_codes = QuantizedTensorView{squeezed_codes_.data(), squeezed_shape, hop->scale,
                                         hop->zero_point};
  } else {
    squeezed = squeeze_.Infer(input, OutputSpec{}, GemmEpilogue::kBiasRelu);
    squeeze_relu_.SetMaskFromOutput(squeezed);
  }
  const InputRef expand_input = hop != nullptr ? InputRef(squeezed_codes) : InputRef(squeezed);

  // Each expand branch writes relu(conv + bias) straight into its
  // channel-half of the output: no expand intermediates, no interleave
  // copy, no separate ReLU sweep.
  Tensor joined;
  OutputSpec half = output;
  if (output.returns_tensor()) {
    joined = Tensor(OutputShape(in_shape));
    half = OutputSpec::Floats(joined.data());
  }
  if (half.ldc == 0) {
    half.ldc = out_channels();  // a half is never dense
  }
  expand1x1_.Infer(expand_input, half, GemmEpilogue::kBiasRelu);
  if (half.floats != nullptr) {
    half.floats += expand_channels_;
  } else {
    half.codes += expand_channels_;
  }
  expand3x3_.Infer(expand_input, half, GemmEpilogue::kBiasRelu);
  if (output.returns_tensor()) {
    expand_relu_.SetMaskFromOutput(joined);
  }
  return joined;
}

Tensor FireModule::ForwardReference(const Tensor& input) {
  Tensor squeezed = squeeze_relu_.Forward(squeeze_.Forward(input));
  Tensor left = expand1x1_.Forward(squeezed);
  Tensor right = expand3x3_.Forward(squeezed);
  PCHECK(left.shape() == right.shape());

  // Concatenate along channels, then apply ReLU over the joined tensor.
  TensorShape out_shape = OutputShape(input.shape());
  Tensor joined(out_shape);
  const int e = expand_channels_;
  const int64_t pixels = static_cast<int64_t>(out_shape.n) * out_shape.h * out_shape.w;
  for (int64_t p = 0; p < pixels; ++p) {
    float* dst = joined.data() + p * 2 * e;
    const float* l = left.data() + p * e;
    const float* r = right.data() + p * e;
    for (int c = 0; c < e; ++c) {
      dst[c] = l[c];
      dst[e + c] = r[c];
    }
  }
  return expand_relu_.Forward(joined);
}

Tensor FireModule::Backward(const Tensor& grad_output) {
  PCHECK(training_) << Name() << " Backward called in eval mode";
  Tensor grad_joined = expand_relu_.Backward(grad_output);

  const int e = expand_channels_;
  const TensorShape& shape = grad_joined.shape();
  Tensor grad_left(shape.n, shape.h, shape.w, e);
  Tensor grad_right(shape.n, shape.h, shape.w, e);
  const int64_t pixels = static_cast<int64_t>(shape.n) * shape.h * shape.w;
  for (int64_t p = 0; p < pixels; ++p) {
    const float* src = grad_joined.data() + p * 2 * e;
    float* l = grad_left.data() + p * e;
    float* r = grad_right.data() + p * e;
    for (int c = 0; c < e; ++c) {
      l[c] = src[c];
      r[c] = src[e + c];
    }
  }

  Tensor grad_squeezed = expand1x1_.Backward(grad_left);
  grad_squeezed.Add(expand3x3_.Backward(grad_right));
  return squeeze_.Backward(squeeze_relu_.Backward(grad_squeezed));
}

}  // namespace percival
