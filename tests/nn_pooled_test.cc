// Pooled int8 inference: fanning the zero-float forward out over the
// inference pool must not change a single bit of its logits, and the
// per-thread rule (kMinMacsPerThread) decides where it fans out — a
// batch-8 experiment-profile forward fans out on pools of 2 and 3, a
// single-image one never does, and the paper profile keeps every conv
// fan-out except conv_final's, plus its two fire-stage code max-pools.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/core/model.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"

namespace percival {
namespace {

Tensor RandomTensor(const TensorShape& shape, uint64_t seed) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(0.0f, 1.0f);
  }
  return tensor;
}

// A calibrated int8 eval network fed pre-quantized input codes: the
// deployed zero-float configuration.
class QuantizedNet {
 public:
  QuantizedNet(const PercivalNetConfig& config, int batch)
      : net_(BuildPercivalNet(config)) {
    net_.SetTrainingMode(false);
    net_.SetCalibrationCapture(true);
    net_.Forward(RandomTensor(config.InputShape(), 71));
    net_.SetCalibrationCapture(false);
    net_.SetPrecision(Precision::kInt8);

    TensorShape shape = config.InputShape();
    shape.n = batch;
    const Tensor input = RandomTensor(shape, 72);
    float lo = 0.0f;
    float hi = 1.0f;
    EXPECT_TRUE(net_.layer(0).InputCalibration(&lo, &hi));
    const ActivationQuant quant = ComputeActivationQuant(lo, hi);
    codes_.resize(static_cast<size_t>(input.size()));
    QuantizeActivations(input.data(), input.size(), quant, codes_.data());
    view_ = QuantizedTensorView{codes_.data(), input.shape(), quant.scale, quant.zero_point};
  }

  // Runs one forward on `pool_threads` workers (0 = no pool) and returns
  // the logits; *fan_outs receives the fan-outs that forward made.
  Tensor Forward(int pool_threads, uint64_t* fan_outs) {
    std::unique_ptr<ThreadPool> pool;
    if (pool_threads > 0) {
      pool = std::make_unique<ThreadPool>(pool_threads);
    }
    SetInferenceThreadPool(pool.get());
    net_.ForwardQuantized(view_);  // plan and pack outside the count
    ResetGemmGatherStats();
    Tensor logits = net_.ForwardQuantized(view_);
    *fan_outs = GetGemmGatherStats().fan_outs;
    SetInferenceThreadPool(nullptr);
    return logits;
  }

 private:
  Network net_;
  std::vector<uint8_t> codes_;
  QuantizedTensorView view_{};
};

TEST(PooledForwardTest, BatchEightBitIdenticalOnEveryPool) {
  QuantizedNet net(ExperimentProfile(), 8);
  uint64_t serial_fan_outs = 0;
  const Tensor serial = net.Forward(0, &serial_fan_outs);
  EXPECT_EQ(serial_fan_outs, 0u);
  for (int threads : {1, 2, 3}) {
    uint64_t fan_outs = 0;
    const Tensor pooled = net.Forward(threads, &fan_outs);
    if (threads == 1) {
      EXPECT_EQ(fan_outs, 0u) << "a pool of 1 is the caller alone";
    } else {
      EXPECT_GT(fan_outs, 0u) << "pool of " << threads << " never fanned out";
    }
    ASSERT_TRUE(serial.shape() == pooled.shape());
    for (int64_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], pooled[i]) << "logit " << i << " on a pool of " << threads;
    }
  }
}

TEST(PooledForwardTest, SingleImageExperimentForwardMakesNoFanOut) {
  QuantizedNet net(ExperimentProfile(), 1);
  for (int threads : {2, 3}) {
    uint64_t fan_outs = 0;
    net.Forward(threads, &fan_outs);
    EXPECT_EQ(fan_outs, 0u) << "pool of " << threads;
  }
}

// 19 conv fan-outs (conv1's pooled emission among them; conv_final's 0.2 M
// MACs stay serial) and the row-split max-pools after fire2 and fire4.
TEST(PooledForwardTest, PaperProfileKeepsAllConvFanOutsButConvFinal) {
  QuantizedNet net(PaperProfile(), 1);
  for (int threads : {2, 3}) {
    uint64_t fan_outs = 0;
    net.Forward(threads, &fan_outs);
    EXPECT_EQ(fan_outs, 21u) << "pool of " << threads;
  }
}

}  // namespace
}  // namespace percival
