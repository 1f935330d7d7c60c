// Core library tests: model architectures (Fig. 3 accounting), the
// classifier (sync + async/memoized), Grad-CAM, and the model zoo cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/classifier.h"
#include "src/core/gradcam.h"
#include "src/core/model.h"
#include "src/core/model_zoo.h"
#include "src/img/draw.h"
#include "src/nn/gemm.h"

namespace percival {
namespace {

TEST(ModelTest, PaperProfileUnderTwoMegabytes) {
  PercivalNetConfig config = PaperProfile();
  Network net = BuildPercivalNet(config);
  const double megabytes = static_cast<double>(net.ModelBytes()) / (1024.0 * 1024.0);
  EXPECT_LT(megabytes, 2.0) << "Fig. 3: the fork is < 2 MB";
  EXPECT_GT(megabytes, 1.5);  // and close to the reported 1.9 MB
}

TEST(ModelTest, OriginalSqueezeNetNearPaperSize) {
  Network net = BuildOriginalSqueezeNet(4, 2, 1);
  const double megabytes = static_cast<double>(net.ModelBytes()) / (1024.0 * 1024.0);
  // The paper quotes ~4.8 MB for SqueezeNet (1000-class head); our 2-class
  // head drops conv10, so accept a band around it.
  EXPECT_GT(megabytes, 2.5);
  EXPECT_LT(megabytes, 6.0);
}

TEST(ModelTest, ForkIsSmallerAndCheaperThanOriginal) {
  PercivalNetConfig config = PaperProfile();
  Network fork = BuildPercivalNet(config);
  Network original = BuildOriginalSqueezeNet(config.input_channels, 2, 1);
  EXPECT_LT(fork.ModelBytes(), original.ModelBytes());
  const TensorShape input = config.InputShape();
  EXPECT_LT(fork.ForwardMacs(input), original.ForwardMacs(input));
}

TEST(ModelTest, ForwardShapeIsTwoLogits) {
  PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  Tensor input(1, config.input_size, config.input_size, config.input_channels);
  Tensor out = net.Forward(input);
  EXPECT_EQ(out.shape(), (TensorShape{1, 1, 1, 2}));
}

TEST(ModelTest, ExperimentProfileForwardShape) {
  PercivalNetConfig config = ExperimentProfile();
  Network net = BuildPercivalNet(config);
  EXPECT_EQ(net.OutputShape(config.InputShape()), (TensorShape{1, 1, 1, 2}));
}

TEST(ModelTest, SixFireModulesInSummary) {
  PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  const std::string summary = net.Summary(config.InputShape());
  for (int i = 1; i <= 6; ++i) {
    EXPECT_NE(summary.find("fire" + std::to_string(i)), std::string::npos) << summary;
  }
}

TEST(ClassifierTest, ProbabilityInUnitRange) {
  PercivalNetConfig config = TestProfile();
  AdClassifier classifier(BuildPercivalNet(config), config);
  Bitmap image(20, 20, Color{128, 64, 32, 255});
  ClassifyResult result = classifier.Classify(image);
  EXPECT_GE(result.ad_probability, 0.0f);
  EXPECT_LE(result.ad_probability, 1.0f);
  EXPECT_GT(result.latency_ms, 0.0);
}

TEST(ClassifierTest, StatsAccumulate) {
  PercivalNetConfig config = TestProfile();
  AdClassifier classifier(BuildPercivalNet(config), config);
  Bitmap image(10, 10, Color{1, 2, 3, 255});
  classifier.Classify(image);
  classifier.Classify(image);
  EXPECT_EQ(classifier.stats().classified, 2);
  classifier.ResetStats();
  EXPECT_EQ(classifier.stats().classified, 0);
}

TEST(ClassifierTest, MinDimensionSkipsTinyImages) {
  PercivalNetConfig config = TestProfile();
  AdClassifier classifier(BuildPercivalNet(config), config, /*threshold=*/0.0f);
  classifier.set_min_dimension(32);
  Bitmap tiny(8, 8, Color{1, 1, 1, 255});
  // threshold 0 would block everything, but tiny images bypass the model.
  EXPECT_FALSE(classifier.OnDecodedFrame(tiny.info(), tiny, "u"));
  EXPECT_EQ(classifier.stats().classified, 0);
}

TEST(ClassifierTest, ThresholdControlsBlocking) {
  PercivalNetConfig config = TestProfile();
  Bitmap image(20, 20, Color{90, 10, 10, 255});
  AdClassifier always(BuildPercivalNet(config), config, 0.0f);
  AdClassifier never(BuildPercivalNet(config), config, 1.1f);
  EXPECT_TRUE(always.OnDecodedFrame(image.info(), image, "u"));
  EXPECT_FALSE(never.OnDecodedFrame(image.info(), image, "u"));
}

// A deployed int8 classifier on the paper network at 96 px: u8-direct
// input, the zero-float plan with the fused stem, and every stage big
// enough to fan out (banded resize, conv1's pooled emission, the fire
// convs and code max-pools).
std::unique_ptr<AdClassifier> DeployedPaperClassifier(const PercivalNetConfig& config) {
  auto classifier = std::make_unique<AdClassifier>(BuildPercivalNet(config), config);
  Network& net = classifier->network();
  Tensor calibration(config.InputShape());
  for (int64_t i = 0; i < calibration.size(); ++i) {
    calibration[i] = static_cast<float>(i % 251) / 250.0f;
  }
  net.SetCalibrationCapture(true);
  net.Forward(calibration);
  net.SetCalibrationCapture(false);
  classifier->SetPrecision(Precision::kInt8);
  return classifier;
}

// The page_sync shape: two paint threads, each classifying on its own
// classifier, share one inference pool. Each fan-out either owns the
// pool's job slot or runs inline on its caller, and every decision equals
// the one a serial run made.
TEST(ClassifierTest, TwoThreadsShareOneInferencePool) {
  PercivalNetConfig config = PaperProfile();
  config.input_size = 96;
  std::unique_ptr<AdClassifier> classifiers[2] = {DeployedPaperClassifier(config),
                                                  DeployedPaperClassifier(config)};
  ASSERT_TRUE(classifiers[0]->u8_direct_active());
  ASSERT_NE(classifiers[0]->network().KernelPlanSummary().find("fused conv1 +relu +pool2x2"),
            std::string::npos);
  std::vector<Bitmap> images;
  for (int i = 0; i < 3; ++i) {
    Bitmap image(60 + 50 * i, 140 - 30 * i, Color{static_cast<uint8_t>(40 * i), 90, 200, 255});
    FillRect(image, Rect{5 * i, 10, 30, 20 + 10 * i},
             Color{250, 20, static_cast<uint8_t>(60 * i), 255});
    images.push_back(image);
  }
  float serial[2][3];
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 3; ++i) {
      serial[c][i] = classifiers[c]->Classify(images[static_cast<size_t>(i)]).ad_probability;
    }
  }
  ScopedInferencePool pool(2);
  float pooled[2][2][3];
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 3; ++i) {
          pooled[c][round][i] =
              classifiers[c]->Classify(images[static_cast<size_t>(i)]).ad_probability;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int c = 0; c < 2; ++c) {
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(pooled[c][round][i], serial[c][i])
            << "classifier " << c << " round " << round << " image " << i;
      }
    }
  }
}

TEST(AsyncClassifierTest, FirstSightRendersSecondSightBlocks) {
  PercivalNetConfig config = TestProfile();
  AdClassifier inner(BuildPercivalNet(config), config, /*threshold=*/0.0f);  // block all
  AsyncAdClassifier async(inner);
  Bitmap image(16, 16, Color{120, 30, 30, 255});
  // First visit: unknown, must not delay rendering.
  EXPECT_FALSE(async.OnDecodedFrame(image.info(), image, "u"));
  EXPECT_EQ(async.stats().cache_misses, 1);
  async.DrainPending();
  EXPECT_EQ(async.cache_size(), 1);
  // Second visit: memoized decision applies.
  EXPECT_TRUE(async.OnDecodedFrame(image.info(), image, "u"));
  EXPECT_EQ(async.stats().cache_hits, 1);
}

TEST(AsyncClassifierTest, KeyedByPixelsNotUrl) {
  PercivalNetConfig config = TestProfile();
  AdClassifier inner(BuildPercivalNet(config), config, 0.0f);
  AsyncAdClassifier async(inner);
  Bitmap image(16, 16, Color{9, 9, 9, 255});
  async.OnDecodedFrame(image.info(), image, "https://a.example/1");
  async.DrainPending();
  // Same creative served under a rotated URL still hits the cache.
  EXPECT_TRUE(async.OnDecodedFrame(image.info(), image, "https://b.example/other"));
}

TEST(GradCamTest, HeatmapShapeAndNonNegativity) {
  PercivalNetConfig config = TestProfile();
  Network net = BuildPercivalNet(config);
  Tensor input(1, config.input_size, config.input_size, config.input_channels);
  Rng rng(4);
  for (int64_t i = 0; i < input.size(); ++i) {
    input[i] = rng.NextFloat(0.0f, 1.0f);
  }
  // Layer 3 is the first fire module (conv1, relu, maxpool, fire1).
  Tensor heatmap = GradCam(net, input, 3, 1);
  EXPECT_EQ(heatmap.shape().c, 1);
  EXPECT_GT(heatmap.shape().h, 0);
  EXPECT_GE(heatmap.Min(), 0.0f);
}

TEST(GradCamTest, AsciiRenderingNonEmpty) {
  Tensor heatmap(1, 4, 4, 1);
  heatmap.at(0, 1, 1, 0) = 1.0f;
  const std::string ascii = RenderHeatmapAscii(heatmap);
  EXPECT_FALSE(ascii.empty());
  EXPECT_NE(ascii.find('@'), std::string::npos);  // the hot cell
}

TEST(GradCamTest, OverlayTintsHotRegions) {
  Bitmap source(8, 8, Color{100, 100, 100, 255});
  Tensor heatmap(1, 2, 2, 1);
  heatmap.at(0, 0, 0, 0) = 1.0f;  // top-left quadrant hot
  Bitmap overlay = OverlayHeatmap(source, heatmap);
  EXPECT_GT(overlay.GetPixel(1, 1).r, source.GetPixel(1, 1).r);
  EXPECT_EQ(overlay.GetPixel(7, 7).r, source.GetPixel(7, 7).r);  // cold untouched
}

TEST(ModelZooTest, TrainsOnceThenLoads) {
  const std::string dir = ::testing::TempDir() + "/zoo_test";
  ModelZoo zoo(dir);
  zoo.Evict("m");
  int train_calls = 0;
  PercivalNetConfig config = TestProfile();
  auto train = [&train_calls](Network& net) {
    ++train_calls;
    net.Parameters()[0]->value[0] = 7.5f;
  };
  Network first = zoo.GetOrTrain("m", config, train);
  Network second = zoo.GetOrTrain("m", config, train);
  EXPECT_EQ(train_calls, 1);
  EXPECT_EQ(second.Parameters()[0]->value[0], 7.5f);
  zoo.Evict("m");
}

TEST(ModelZooTest, EvictForcesRetrain) {
  const std::string dir = ::testing::TempDir() + "/zoo_test2";
  ModelZoo zoo(dir);
  int train_calls = 0;
  PercivalNetConfig config = TestProfile();
  auto train = [&train_calls](Network&) { ++train_calls; };
  zoo.GetOrTrain("m2", config, train);
  zoo.Evict("m2");
  zoo.GetOrTrain("m2", config, train);
  EXPECT_EQ(train_calls, 2);
  zoo.Evict("m2");
}

}  // namespace
}  // namespace percival
