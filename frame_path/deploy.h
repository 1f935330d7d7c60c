// The deployed configuration the frame_path benchmark measures, and the
// reference every timed decision is checked against.
//
// Deployed = the v2 int8 artifact with its calibration trailer, loaded
// through AdClassifier::LoadWeights, u8-direct input, zero-float plan.
#ifndef PERCIVAL_FRAME_PATH_DEPLOY_H_
#define PERCIVAL_FRAME_PATH_DEPLOY_H_

#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "frame_path/measure.h"
#include "src/core/classifier.h"
#include "src/img/resize.h"
#include "src/nn/activation.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/nn/serialize.h"

namespace percival::frame_path {

// Set-up is repeated before the run and again after it, each time for at
// least kSetupBudgetS and kSetupMinRepeats times (at most kSetupMaxRepeats),
// and reported as the median of all repeats. Eleven repeats of the ~1.5 ms
// experiment-profile set-up left a run-to-run spread above 0.3; 500 repeats
// within one second still left 0.24, because a noisy second on a shared
// host moved them all. Two windows a run apart move together less often.
inline constexpr double kSetupBudgetS = 1.0;
inline constexpr int kSetupMinRepeats = 21;
inline constexpr int kSetupMaxRepeats = 500;

inline std::string ArtifactPath(const PercivalNetConfig& config) {
  return ModelZoo().directory() + "/frame_path_" + config.name + ".int8.pcvw";
}

// Calibrates `net` on a fixed sampled set — every run deploys the same
// artifact for the same weights — and writes the v2 int8 artifact with its
// calibration trailer.
inline bool WriteArtifact(Network& net, const PercivalNetConfig& config) {
  SampledDatasetOptions options;
  options.per_class = 16;
  options.seed = 29;
  const Dataset calibration = SampleDataset(options);
  Tensor batch(calibration.size(), config.input_size, config.input_size, config.input_channels);
  for (int i = 0; i < calibration.size(); ++i) {
    BitmapToTensorInto(calibration.example(i).image, config.input_size, config.input_channels,
                       batch.SampleData(i));
  }
  net.SetTrainingMode(false);
  net.SetCalibrationCapture(true);
  net.Forward(batch);
  net.SetCalibrationCapture(false);
  const std::string path = ArtifactPath(config);
  if (!SaveWeightsToFileInt8(net, path)) {
    std::fprintf(stderr, "frame_path: could not write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "frame_path: wrote %s\n", path.c_str());
  return true;
}

// Trains (first call only) or loads the shared experiment-profile model,
// builds the seeded paper-profile weights, and writes both deployment
// artifacts. Runs in its own process, so neither training time nor its
// memory lands in a workload's metrics.
inline int Prepare() {
  ModelZoo zoo;
  Network experiment = SharedTrainedModel(zoo);
  Network paper = BuildPercivalNet(PaperProfile());
  const bool ok =
      WriteArtifact(experiment, ExperimentProfile()) && WriteArtifact(paper, PaperProfile());
  return ok ? 0 : 1;
}

// Brings the deployed configuration up as a browser would — build the
// network, LoadWeights the artifact, classify the first frame — timed
// repeatedly (see kSetupBudgetS) into `setup_s`. Returns the last
// classifier, or nullptr when the artifact does not load.
inline std::unique_ptr<AdClassifier> RepeatSetUp(const PercivalNetConfig& config,
                                                 const Bitmap& first_frame, Samples* setup_s,
                                                 RunResult* result) {
  const std::string path = ArtifactPath(config);
  std::unique_ptr<AdClassifier> last;
  const int64_t budget_end = NowNs() + static_cast<int64_t>(kSetupBudgetS * 1e9);
  for (int r = 0; r < kSetupMaxRepeats && (r < kSetupMinRepeats || NowNs() < budget_end);
       ++r) {
    last.reset();
    const int64_t start = NowNs();
    auto classifier = std::make_unique<AdClassifier>(BuildPercivalNet(config), config);
    if (!classifier->LoadWeights(path)) {
      result->Error("cannot load " + path + "; run `frame_path --prepare` first");
      return nullptr;
    }
    classifier->Classify(first_frame);
    setup_s->Add(static_cast<double>(NowNs() - start) / 1e9);
    last = std::move(classifier);
  }
  return last;
}

struct Deployment {
  PercivalNetConfig config;
  const Bitmap* first_frame = nullptr;  // owned by the workload's inputs
  std::unique_ptr<AdClassifier> classifier;
  Samples setup_s;
};

// The deployed classifier the workload uses, after the first set-up window.
inline std::optional<Deployment> Deploy(const PercivalNetConfig& config,
                                        const Bitmap& first_frame, RunResult* result) {
  Deployment deployment;
  deployment.config = config;
  deployment.first_frame = &first_frame;
  deployment.classifier = RepeatSetUp(config, first_frame, &deployment.setup_s, result);
  if (deployment.classifier == nullptr) {
    return std::nullopt;
  }
  AdClassifier& c = *deployment.classifier;
  if (c.precision() != Precision::kInt8) {
    result->Error("the artifact did not switch the classifier to int8");
  }
  if (!c.u8_direct_active()) {
    result->Error("u8-direct preprocessing is not active");
  }
  if (c.network().RequantLinkCount() == 0) {
    result->Error("the zero-float plan formed no requant links");
  }
  return deployment;
}

// The end-to-end metrics every workload reports the same way, once its
// untraced run has ended: peak_rss_growth_mb, read first so the second
// set-up window stays out of it, then setup_s over both set-up windows.
inline void AddSetupAndMemory(Deployment& deployment, RunResult* result) {
  result->e2e.Add("peak_rss_growth_mb", StatusMb("VmHWM") - result->rss_baseline_mb);
  RepeatSetUp(deployment.config, *deployment.first_frame, &deployment.setup_s, result);
  result->e2e.Add("setup_s", deployment.setup_s.Median(), deployment.setup_s.n());
}

// The reference pass: each distinct frame classified once, sequentially,
// before timing starts.
inline std::vector<float> ReferenceProbabilities(AdClassifier& classifier,
                                                 const std::vector<const Bitmap*>& frames) {
  std::vector<float> probabilities;
  probabilities.reserve(frames.size());
  for (const Bitmap* frame : frames) {
    probabilities.push_back(classifier.Classify(*frame).ad_probability);
  }
  return probabilities;
}

// Re-classifies the first `count` frames on the always-compiled scalar
// oracle kernels. The int8 contract makes them bit-identical to the
// dispatched tier, so any difference is a kernel bug.
inline void CheckOracle(AdClassifier& classifier, const std::vector<const Bitmap*>& frames,
                        const std::vector<float>& reference, size_t count, RunResult* result) {
  SetGemmForceScalar(true);
  for (size_t i = 0; i < std::min(count, frames.size()); ++i) {
    const float p = classifier.Classify(*frames[i]).ad_probability;
    if (p != reference[i]) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    "frame %zu: scalar-oracle probability %.9g differs from the dispatched %.9g",
                    i, static_cast<double>(p), static_cast<double>(reference[i]));
      result->Error(message);
    }
  }
  SetGemmForceScalar(false);
}

// The traced run's stand-in for AdClassifier::Classify / ClassifyBatch: the
// same two steps — BitmapToTensorU8Into, then Network::ForwardQuantized
// under a bench mutex — called from here so each gets a span. Callers check
// that it reproduces the reference decision on every frame.
class SplitClassifier {
 public:
  explicit SplitClassifier(AdClassifier& classifier)
      : classifier_(classifier), config_(classifier.config()) {
    float lo = 0.0f;
    float hi = 1.0f;
    classifier.network().layer(0).InputCalibration(&lo, &hi);
    quant_ = ComputeActivationQuant(lo, hi);
  }

  // Returns each image's ad probability. `resize_ms` gets one sample per
  // image, `forward_ms` one per image (the batch forward split evenly).
  std::vector<float> Classify(const std::vector<const Bitmap*>& images, Tracer* tracer,
                              int32_t parent, int64_t frame, Samples* resize_ms,
                              Samples* forward_ms) {
    const int batch = static_cast<int>(images.size());
    const int64_t sample = config_.InputShape().Elements();
    thread_local std::vector<uint8_t> codes;
    codes.resize(static_cast<size_t>(batch * sample));
    for (int i = 0; i < batch; ++i) {
      const int64_t start = NowNs();
      BitmapToTensorU8Into(*images[static_cast<size_t>(i)], config_.input_size,
                           config_.input_channels, quant_.scale, quant_.zero_point,
                           codes.data() + i * sample);
      const int64_t end = NowNs();
      resize_ms->Add(NsToMs(end - start));
      if (tracer != nullptr) {
        tracer->Add("resize", start, end, parent, frame);
      }
    }
    const QuantizedTensorView view{codes.data(), config_.InputShape(batch), quant_.scale,
                                   quant_.zero_point};
    Tensor probs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const int64_t start = NowNs();
      const Tensor logits = classifier_.network().ForwardQuantized(view);
      const int64_t end = NowNs();
      for (int i = 0; i < batch; ++i) {
        forward_ms->Add(NsToMs(end - start) / batch);
      }
      if (tracer != nullptr) {
        tracer->Add("forward", start, end, parent, frame);
      }
      Softmax softmax;
      probs = softmax.Forward(logits);
    }
    std::vector<float> out(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      out[static_cast<size_t>(i)] = probs.at(i, 0, 0, 1);  // class 1 == ad
    }
    return out;
  }

 private:
  AdClassifier& classifier_;
  PercivalNetConfig config_;
  ActivationQuant quant_;
  std::mutex mutex_;
};

// nn.forward_* from the split classifier's live per-image forward samples.
inline void AddForwardMetrics(AdClassifier& classifier, const Samples& forward_ms,
                              RunResult* result) {
  const int64_t macs = classifier.network().ForwardMacs(classifier.config().InputShape());
  result->layer.AddPercentile("nn.forward_ms_p50", forward_ms, 0.5);
  result->layer.AddPercentile("nn.forward_ms_p99", forward_ms, 0.99);
  const double p50 = forward_ms.Percentile(0.5);
  result->layer.Add("nn.forward_gmacs", static_cast<double>(macs) / (p50 * 1e6), forward_ms.n());
}

// The nn layer's counters over `frames` (a sample of the workload's own):
// bytes moved through the im2col gathers and the scratch-arena high water
// per forward, and the zero-float plan's requant link count.
inline void AddGatherMetrics(AdClassifier& classifier, const std::vector<const Bitmap*>& frames,
                             RunResult* result) {
  const PercivalNetConfig& config = classifier.config();
  Network& net = classifier.network();
  float lo = 0.0f;
  float hi = 1.0f;
  net.layer(0).InputCalibration(&lo, &hi);
  const ActivationQuant quant = ComputeActivationQuant(lo, hi);
  std::vector<uint8_t> codes(static_cast<size_t>(config.InputShape().Elements()));
  ResetGemmGatherStats();
  for (const Bitmap* frame : frames) {
    BitmapToTensorU8Into(*frame, config.input_size, config.input_channels, quant.scale,
                         quant.zero_point, codes.data());
    net.ForwardQuantized(
        QuantizedTensorView{codes.data(), config.InputShape(), quant.scale, quant.zero_point});
  }
  const GemmGatherStats gather = GetGemmGatherStats();
  result->layer.Add("nn.gather_bytes_per_forward",
                    static_cast<double>(gather.bytes_gathered) /
                        static_cast<double>(std::max<size_t>(1, frames.size())),
                    frames.size());
  result->layer.Add("nn.arena_high_water_kb",
                    static_cast<double>(gather.arena_high_water_bytes) / 1024.0);
  result->layer.Add("nn.requant_links", static_cast<double>(net.RequantLinkCount()));
}

}  // namespace percival::frame_path

#endif  // PERCIVAL_FRAME_PATH_DEPLOY_H_
