#include "src/nn/activation.h"

#include <algorithm>
#include <cmath>

#include "src/base/logging.h"
#include "src/nn/gemm.h"

namespace percival {

Tensor Relu::Forward(const Tensor& input) {
  input_shape_ = input.shape();
  Tensor output(input_shape_);
  if (!training_) {
    // Eval mode: same outputs, no mask sweep or retention.
    mask_.clear();
    InferenceParallelFor(input.size(), 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        output[i] = input[i] > 0.0f ? input[i] : 0.0f;
      }
    });
    return output;
  }
  mask_.assign(static_cast<size_t>(input.size()), 0);
  // Memory-bound, so only large feature maps are worth fanning out.
  InferenceParallelFor(input.size(), 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (input[i] > 0.0f) {
        output[i] = input[i];
        mask_[static_cast<size_t>(i)] = 1;
      }
    }
  });
  return output;
}

void Relu::SetMaskFromOutput(const Tensor& output) {
  input_shape_ = output.shape();
  if (!training_) {
    mask_.clear();
    return;
  }
  mask_.assign(static_cast<size_t>(output.size()), 0);
  for (int64_t i = 0; i < output.size(); ++i) {
    if (output[i] > 0.0f) {
      mask_[static_cast<size_t>(i)] = 1;
    }
  }
}

Tensor Relu::Backward(const Tensor& grad_output) {
  PCHECK(training_) << "relu Backward called in eval mode";
  PCHECK_EQ(grad_output.size(), static_cast<int64_t>(mask_.size()));
  Tensor grad_input(input_shape_);
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    if (mask_[static_cast<size_t>(i)]) {
      grad_input[i] = grad_output[i];
    }
  }
  return grad_input;
}

Tensor Softmax::Forward(const Tensor& input) {
  Tensor output(input.shape());
  const int channels = input.shape().c;
  const int64_t rows = input.size() / channels;
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = input.data() + r * channels;
    float* out = output.data() + r * channels;
    float max_value = *std::max_element(in, in + channels);
    float total = 0.0f;
    for (int c = 0; c < channels; ++c) {
      out[c] = std::exp(in[c] - max_value);
      total += out[c];
    }
    for (int c = 0; c < channels; ++c) {
      out[c] /= total;
    }
  }
  if (training_) {
    last_output_ = output;
  } else {
    // Eval drops the retained output (like Relu's mask / MaxPool's argmax)
    // so a later train-mode Backward can never run against stale state.
    last_output_ = Tensor();
  }
  return output;
}

Tensor Softmax::Backward(const Tensor& grad_output) {
  PCHECK(training_) << "softmax Backward called in eval mode";
  PCHECK_EQ(grad_output.size(), last_output_.size());
  Tensor grad_input(last_output_.shape());
  const int channels = last_output_.shape().c;
  const int64_t rows = last_output_.size() / channels;
  for (int64_t r = 0; r < rows; ++r) {
    const float* y = last_output_.data() + r * channels;
    const float* dy = grad_output.data() + r * channels;
    float* dx = grad_input.data() + r * channels;
    float dot = 0.0f;
    for (int c = 0; c < channels; ++c) {
      dot += y[c] * dy[c];
    }
    for (int c = 0; c < channels; ++c) {
      dx[c] = y[c] * (dy[c] - dot);
    }
  }
  return grad_input;
}

}  // namespace percival
