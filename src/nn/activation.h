// Activation layers: ReLU and SoftMax.
#ifndef PERCIVAL_SRC_NN_ACTIVATION_H_
#define PERCIVAL_SRC_NN_ACTIVATION_H_

#include <string>
#include <vector>

#include "src/nn/layer.h"

namespace percival {

class Relu : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "relu"; }
  TensorShape OutputShape(const TensorShape& input) const override { return input; }

  // Rebuilds the backward mask from an already-computed ReLU *output*
  // (output > 0 iff input > 0, so the masks are identical). Lets fused
  // Conv+ReLU paths skip materializing the pre-activation tensor while
  // keeping Backward() exact. In eval mode this is a no-op — the mask sweep
  // is exactly the backward state an inference deployment never reads.
  void SetMaskFromOutput(const Tensor& output);

  // Code transform: relu(code) = max(code, zero_point) exactly
  // (quantize(0) == zp), but it skips the backward mask — eval mode only.
  // Infer takes codes only under the input's own quantization.
  bool SupportsCodeTransform() const override { return !training_; }
  Tensor Infer(const InputRef& input, const OutputSpec& output) override;

 private:
  std::vector<uint8_t> mask_;  // 1 where input > 0
  TensorShape input_shape_;
};

// Channel-wise SoftMax over the last dimension of each sample. Numerically
// stabilized with the max-subtraction trick. Backward implements the full
// Jacobian-vector product (needed by Grad-CAM; training uses the fused
// SoftmaxCrossEntropy loss instead).
class Softmax : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "softmax"; }
  TensorShape OutputShape(const TensorShape& input) const override { return input; }

 private:
  Tensor last_output_;
};

}  // namespace percival

#endif  // PERCIVAL_SRC_NN_ACTIVATION_H_
