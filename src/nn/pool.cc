#include "src/nn/pool.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/base/logging.h"
#include "src/nn/gemm.h"
#include "src/nn/ops.h"

namespace percival {

MaxPool2D::MaxPool2D(int kernel, int stride) : kernel_(kernel), stride_(stride) {
  PCHECK_GT(kernel, 0);
  PCHECK_GT(stride, 0);
}

std::string MaxPool2D::Name() const {
  std::ostringstream out;
  out << "maxpool" << kernel_ << "x" << kernel_ << "/" << stride_;
  return out.str();
}

TensorShape MaxPool2D::OutputShape(const TensorShape& input) const {
  return TensorShape{input.n, ConvOutputSize(input.h, kernel_, stride_, 0),
                     ConvOutputSize(input.w, kernel_, stride_, 0), input.c};
}

Tensor MaxPool2D::Forward(const Tensor& input) {
  input_shape_ = input.shape();
  const TensorShape out_shape = OutputShape(input_shape_);
  Tensor output(out_shape);
  // Eval mode skips the argmax capture — backward routing state a frozen
  // deployment never reads.
  const bool capture_argmax = training_;
  if (capture_argmax) {
    argmax_.assign(static_cast<size_t>(out_shape.Elements()), 0);
  } else {
    argmax_.clear();
  }

  const int channels = input_shape_.c;
  // One work item per output pixel row (n, oh, ow): indices derive from the
  // flat row id, so disjoint ranges write disjoint output/argmax slices and
  // the whole loop fans out over the inference pool.
  const int64_t pixels_per_sample = static_cast<int64_t>(out_shape.h) * out_shape.w;
  const int64_t total_pixels = static_cast<int64_t>(out_shape.n) * pixels_per_sample;
  InferenceParallelFor(
      total_pixels, static_cast<int64_t>(kernel_) * kernel_ * channels,
      [&](int64_t begin, int64_t end) {
        for (int64_t p = begin; p < end; ++p) {
          const int n = static_cast<int>(p / pixels_per_sample);
          const int64_t within = p % pixels_per_sample;
          const int oh = static_cast<int>(within / out_shape.w);
          const int ow = static_cast<int>(within % out_shape.w);
          const float* in = input.SampleData(n);
          const int64_t sample_base = static_cast<int64_t>(n) * input.SampleElements();
          int64_t out_index = p * channels;
          // Pad 0 and the floor in ConvOutputSize: every window is in bounds.
          for (int c = 0; c < channels; ++c) {
            float best = -std::numeric_limits<float>::infinity();
            int64_t best_index = 0;
            for (int kh = 0; kh < kernel_; ++kh) {
              const int ih = oh * stride_ + kh;
              for (int kw = 0; kw < kernel_; ++kw) {
                const int iw = ow * stride_ + kw;
                const int64_t idx =
                    (static_cast<int64_t>(ih) * input_shape_.w + iw) * channels + c;
                if (in[idx] > best) {
                  best = in[idx];
                  best_index = idx;
                }
              }
            }
            output[out_index] = best;
            if (capture_argmax) {
              argmax_[static_cast<size_t>(out_index)] = sample_base + best_index;
            }
            ++out_index;
          }
        }
      });
  return output;
}

Tensor MaxPool2D::Infer(const InputRef& input, const OutputSpec& output) {
  if (!input.is_codes()) {
    return Layer::Infer(input, output);
  }
  PCHECK(!training_ && output.IsCodeTransformOf(input))
      << Name() << " runs codes only as an eval-mode transform";
  input_shape_ = input.codes.shape;
  argmax_.clear();
  const TensorShape out_shape = OutputShape(input_shape_);
  const int64_t in_sample = static_cast<int64_t>(input_shape_.h) * input_shape_.w * input_shape_.c;
  const int64_t out_sample = static_cast<int64_t>(out_shape.h) * out_shape.w * out_shape.c;
  for (int n = 0; n < input_shape_.n; ++n) {
    MaxPoolCodes(input.codes.data + n * in_sample, input_shape_.h, input_shape_.w,
                 input_shape_.c, kernel_, stride_, output.codes + n * out_sample);
  }
  return Tensor();
}

Tensor MaxPool2D::Backward(const Tensor& grad_output) {
  PCHECK(training_) << Name() << " Backward called in eval mode";
  PCHECK_EQ(grad_output.size(), static_cast<int64_t>(argmax_.size()))
      << Name() << " Backward without a matching training-mode Forward";
  Tensor grad_input(input_shape_);
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::Forward(const Tensor& input) {
  input_shape_ = input.shape();
  if (calibration_capture_) {
    float lo = 0.0f;
    float hi = 0.0f;
    MinMaxRange(input.data(), input.size(), &lo, &hi);
    if (has_input_calibration_) {
      lo = std::min(lo, calib_min_);
      hi = std::max(hi, calib_max_);
    }
    has_input_calibration_ = true;
    calib_min_ = lo;
    calib_max_ = hi;
  }
  Tensor output(input_shape_.n, 1, 1, input_shape_.c);
  const int64_t plane = static_cast<int64_t>(input_shape_.h) * input_shape_.w;
  PCHECK_GT(plane, 0);
  for (int n = 0; n < input_shape_.n; ++n) {
    const float* in = input.SampleData(n);
    float* out = output.SampleData(n);
    for (int64_t p = 0; p < plane; ++p) {
      const float* row = in + p * input_shape_.c;
      for (int c = 0; c < input_shape_.c; ++c) {
        out[c] += row[c];
      }
    }
    for (int c = 0; c < input_shape_.c; ++c) {
      out[c] /= static_cast<float>(plane);
    }
  }
  return output;
}

bool GlobalAvgPool::AcceptsQuantizedInput() const {
  const bool calibrated = !training_ && has_input_calibration_;
  switch (GetGapCodesMode()) {
    case GapCodesMode::kForceOff:
      return false;
    case GapCodesMode::kForceOn:
      return calibrated;
    case GapCodesMode::kAuto:
      // Default-on exactly for deployment artifacts: ranges supplied by a
      // serialized calibration trailer (the population the 64-image top-1
      // accuracy guard vets), never ranges captured live in this process.
      return calibrated && calibration_from_trailer_;
  }
  return false;
}

Tensor GlobalAvgPool::Infer(const InputRef& input, const OutputSpec& output) {
  if (!input.is_codes()) {
    return Layer::Infer(input, output);
  }
  PCHECK(!training_ && output.returns_tensor())
      << Name() << " takes codes only into a fresh float tensor, in eval mode";
  input_shape_ = input.codes.shape;
  const int channels = input_shape_.c;
  const int64_t plane = static_cast<int64_t>(input_shape_.h) * input_shape_.w;
  PCHECK_GT(plane, 0);
  // Codes max out at 255, so int32 sums are exact for any plane the
  // classifier sees (saturation would need > 8.4M pixels per plane).
  PCHECK_LT(plane, static_cast<int64_t>(1) << 23);
  Tensor pooled(input_shape_.n, 1, 1, channels);
  const int64_t sample = plane * channels;
  sum_buffer_.assign(static_cast<size_t>(channels), 0);
  for (int n = 0; n < input_shape_.n; ++n) {
    const uint8_t* in = input.codes.data + static_cast<int64_t>(n) * sample;
    float* out = pooled.SampleData(n);
    std::fill(sum_buffer_.begin(), sum_buffer_.end(), 0);
    for (int64_t p = 0; p < plane; ++p) {
      const uint8_t* row = in + p * channels;
      for (int c = 0; c < channels; ++c) {
        sum_buffer_[static_cast<size_t>(c)] += row[c];
      }
    }
    // avg value = scale * (avg code - zp) = scale * (sum - plane*zp) / plane:
    // one dequantize per channel instead of one per input element.
    const float inv_plane = 1.0f / static_cast<float>(plane);
    const int64_t zp_term = plane * static_cast<int64_t>(input.codes.zero_point);
    for (int c = 0; c < channels; ++c) {
      const int64_t centered = static_cast<int64_t>(sum_buffer_[static_cast<size_t>(c)]) - zp_term;
      out[c] = input.codes.scale * (static_cast<float>(centered) * inv_plane);
    }
  }
  return pooled;
}

void GlobalAvgPool::SetCalibrationCapture(bool capture) {
  if (capture && !calibration_capture_) {
    has_input_calibration_ = false;  // a new calibration batch starts fresh
    calib_min_ = 0.0f;
    calib_max_ = 0.0f;
    calibration_from_trailer_ = false;  // the range is now live-captured
  }
  calibration_capture_ = capture;
}

void GlobalAvgPool::AppendCalibration(std::vector<ActivationCalibration>* out) const {
  ActivationCalibration entry;
  entry.min_value = calib_min_;
  entry.max_value = calib_max_;
  entry.valid = has_input_calibration_;
  out->push_back(entry);
}

size_t GlobalAvgPool::ConsumeCalibration(const ActivationCalibration* entries, size_t count) {
  if (count < 1) {
    return 0;
  }
  has_input_calibration_ = entries[0].valid;
  calib_min_ = entries[0].min_value;
  calib_max_ = entries[0].max_value;
  // ConsumeCalibration is how a serialized trailer's ranges arrive (see
  // Network::LoadCalibration); this is what arms GapCodesMode::kAuto.
  calibration_from_trailer_ = entries[0].valid;
  return 1;
}

bool GlobalAvgPool::InputCalibration(float* min_value, float* max_value) const {
  if (!has_input_calibration_) {
    return false;
  }
  *min_value = calib_min_;
  *max_value = calib_max_;
  return true;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const int64_t plane = static_cast<int64_t>(input_shape_.h) * input_shape_.w;
  const float inv = 1.0f / static_cast<float>(plane);
  for (int n = 0; n < input_shape_.n; ++n) {
    const float* dout = grad_output.SampleData(n);
    float* din = grad_input.SampleData(n);
    for (int64_t p = 0; p < plane; ++p) {
      float* row = din + p * input_shape_.c;
      for (int c = 0; c < input_shape_.c; ++c) {
        row[c] = dout[c] * inv;
      }
    }
  }
  return grad_input;
}

}  // namespace percival
