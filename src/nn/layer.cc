#include "src/nn/layer.h"

namespace percival {

Tensor Layer::Infer(const InputRef& input, const OutputSpec& output) {
  PCHECK(!input.is_codes() && output.returns_tensor())
      << Name() << " has no quantized inference path";
  return Forward(*input.floats);
}

}  // namespace percival
