// Micro-benchmarks for the hot kernels: the conv GEMM engine (naive oracle
// vs scalar tile kernel vs the compiled SIMD kernel, fused, threaded, and
// int8-quantized variants), fire modules, the zero-float plan's code-domain
// max-pool and ReLU, full-network inference at both profiles (train mode,
// eval mode, and int8), codec decode,
// bitmap-to-tensor preprocessing, and filter-rule matching. The float and
// int8 entries run on identical layers and inputs so BENCH_*.json tracks
// the quantization multiplier across PRs.
//
// Self-timed via bench_common's BenchReport: every kernel runs a warmup
// plus N repetitions and reports median + min; all results are written to
// BENCH_micro_kernels.json for cross-PR perf tracking.
//
// Usage: micro_kernels [--filter=substring] [--reps-scale=X]
//   --filter      only run benches whose name contains the substring
//   --reps-scale  multiply every rep count (0.1 for a quick CI smoke)
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/filter/engine.h"
#include "src/img/codec.h"
#include "src/img/phash.h"
#include "src/img/resize.h"
#include "src/nn/conv.h"
#include "src/nn/fire.h"
#include "src/nn/gemm.h"
#include "src/nn/ops.h"
#include "src/nn/serialize.h"
#include "src/webgen/ad_network.h"
#include "src/webgen/adgen.h"

namespace percival {
namespace {

// Results are funneled here so the optimizer cannot delete a kernel body.
volatile float g_sink = 0.0f;

Tensor RandomTensor(const TensorShape& shape, uint64_t seed) {
  Tensor tensor(shape);
  Rng rng(seed);
  for (int64_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = rng.NextFloat(-1.0f, 1.0f);
  }
  return tensor;
}

struct Options {
  std::string filter;
  double reps_scale = 1.0;
};

void RunSuite(const Options& options) {
  BenchReport report("micro_kernels");
  auto bench = [&](const std::string& name, int reps, int64_t macs_per_rep,
                   const std::function<void()>& fn) {
    if (!options.filter.empty() && name.find(options.filter) == std::string::npos) {
      return;
    }
    reps = std::max(1, static_cast<int>(reps * options.reps_scale));
    report.Run(name, reps, macs_per_rep, fn);
  };

  // The conv A/B/C quartet behind the acceptance line: identical layer and
  // input, forward flipped between the naive oracle, the scalar tile kernel
  // (the PR 1 compiler-vectorized engine), the compiled SIMD kernel, and
  // SIMD + fused ReLU epilogue.
  for (int size : {16, 32, 64}) {
    Rng rng(1);
    Conv2D conv(16, 16, 3, 1, 1, rng);
    Tensor input = RandomTensor(TensorShape{1, size, size, 16}, 2);
    const int64_t macs = conv.ForwardMacs(input.shape());
    const std::string suffix = "_" + std::to_string(size);
    const int reps = size >= 64 ? 20 : 40;

    conv.set_use_gemm(false);
    bench("conv3x3_naive" + suffix, reps, macs, [&] { g_sink += conv.Forward(input)[0]; });
    conv.set_use_gemm(true);
    bench("conv3x3_gemm_scalar" + suffix, reps, macs, [&] {
      SetGemmForceScalar(true);
      g_sink += conv.Forward(input)[0];
      SetGemmForceScalar(false);
    });
    bench("conv3x3_gemm_simd" + suffix, reps, macs,
          [&] { g_sink += conv.Forward(input)[0]; });
    bench("conv3x3_gemm_simd_fused_relu" + suffix, reps, macs,
          [&] { g_sink += conv.Infer(input, OutputSpec{}, GemmEpilogue::kBiasRelu)[0]; });

    // Float-vs-int8 on the identical layer and input: the quantized path
    // includes per-forward activation range + quantization, so the GMAC/s
    // delta is the honest end-to-end win, not just the kernel speedup.
    conv.SetPrecision(Precision::kInt8);
    bench("conv3x3_gemm_int8_scalar" + suffix, reps, macs, [&] {
      SetGemmForceScalar(true);
      g_sink += conv.Forward(input)[0];
      SetGemmForceScalar(false);
    });
    bench("conv3x3_gemm_int8_simd" + suffix, reps, macs,
          [&] { g_sink += conv.Forward(input)[0]; });
    bench("conv3x3_gemm_int8_fused_relu" + suffix, reps, macs,
          [&] { g_sink += conv.Infer(input, OutputSpec{}, GemmEpilogue::kBiasRelu)[0]; });
    conv.SetPrecision(Precision::kFloat32);
  }

  {
    ScopedInferencePool pool;
    Rng rng(1);
    Conv2D conv(16, 16, 3, 1, 1, rng);
    Tensor input = RandomTensor(TensorShape{1, 64, 64, 16}, 2);
    bench("conv3x3_gemm_simd_threaded_64", 20, conv.ForwardMacs(input.shape()),
          [&] { g_sink += conv.Forward(input)[0]; });
  }

  {
    // SqueezeNet's dominant shape: 1x1 identity-patch conv.
    Rng rng(1);
    Conv2D conv(64, 16, 1, 1, 0, rng);
    Tensor input = RandomTensor(TensorShape{1, 32, 32, 64}, 2);
    const int64_t macs = conv.ForwardMacs(input.shape());
    bench("conv1x1_gemm_scalar_32", 40, macs, [&] {
      SetGemmForceScalar(true);
      g_sink += conv.Forward(input)[0];
      SetGemmForceScalar(false);
    });
    bench("conv1x1_gemm_simd_32", 40, macs, [&] { g_sink += conv.Forward(input)[0]; });
    conv.SetPrecision(Precision::kInt8);
    bench("conv1x1_gemm_int8_32", 40, macs, [&] { g_sink += conv.Forward(input)[0]; });
    conv.SetPrecision(Precision::kFloat32);
  }

  for (int size : {8, 16, 32}) {
    Rng rng(1);
    FireModule fire(32, 8, 32, rng);
    Tensor input = RandomTensor(TensorShape{1, size, size, 32}, 2);
    const int64_t macs = fire.ForwardMacs(input.shape());
    const std::string suffix = "_" + std::to_string(size);
    bench("fire_fused" + suffix, 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
    fire.SetPrecision(Precision::kInt8);
    bench("fire_fused_int8" + suffix, 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
    fire.SetPrecision(Precision::kFloat32);
    if (size == 32) {
      fire.set_use_fused(false);
      bench("fire_unfused" + suffix, 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
      fire.set_use_fused(true);
    }
  }

  // Narrow-squeeze fire modules (8/16ch — the shapes the ROADMAP flagged as
  // underutilizing the 32-wide AVX-512 panel), float vs int8, pinned to
  // each panel width this build implements on identical layers and inputs.
  // The panel<native> rows are the A/B baseline; the planner's heuristic
  // picks the 16-wide tile for every conv in these modules, and the
  // panel16-vs-panel32 int8 ratio is the acceptance number.
  {
    struct NarrowFire {
      int in;
      int squeeze;
      int expand;
      const char* tag;
    };
    const NarrowFire shapes[] = {{32, 8, 16, "s8e16"}, {64, 16, 16, "s16e16"}};
    std::vector<int> widths{GemmNativePanelWidth()};
    if (kGemmTileNMin != widths[0]) {
      widths.push_back(kGemmTileNMin);  // narrow == native on 16-wide tiers
    }
    for (const NarrowFire& cfg : shapes) {
      for (const int width : widths) {
        SetPlannerPanelOverride(width);
        Rng rng(1);
        FireModule fire(cfg.in, cfg.squeeze, cfg.expand, rng);
        // Deployment configuration: eval mode, like the classifier runs it
        // (training-mode input copies and mask sweeps would bury the kernel
        // delta under width-independent bookkeeping).
        fire.SetTrainingMode(false);
        const TensorShape shape{1, 32, 32, cfg.in};
        fire.PlanKernels(shape);
        SetPlannerPanelOverride(0);
        Tensor input = RandomTensor(shape, 2);
        const int64_t macs = fire.ForwardMacs(shape);
        const std::string name =
            std::string("fire_") + cfg.tag + "_panel" + std::to_string(width);
        bench(name + "_float_32", 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
        fire.SetPrecision(Precision::kInt8);
        bench(name + "_int8_32", 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
        fire.SetPrecision(Precision::kFloat32);
      }
    }
  }

  // Gather experiment (ROADMAP item 1): the identical 3x3 conv pinned to
  // the materialized im2col panel vs the implicit in-place stream, float
  // and int8, across the deployment channel counts. Interior columns
  // dominate at 32x32, so these rows measure exactly what the planner's
  // implicit default buys; CI asserts implicit >= materialized on the
  // int8 rows (tools/check_bench.py).
  for (const int ch : {16, 32, 64}) {
    for (const bool implicit : {false, true}) {
      Rng rng(1);
      Conv2D conv(ch, ch, 3, 1, 1, rng);
      conv.SetTrainingMode(false);
      KernelPlan plan = conv.plan();
      plan.gather = implicit ? GatherPolicy::kImplicit : GatherPolicy::kMaterialize;
      conv.SetKernelPlan(plan);
      Tensor input = RandomTensor(TensorShape{1, 32, 32, ch}, 2);
      const int64_t macs = conv.ForwardMacs(input.shape());
      const std::string name = std::string("conv3x3_gather_") +
                               (implicit ? "implicit" : "materialized") + "_c" +
                               std::to_string(ch);
      bench(name + "_simd_32", 40, macs, [&] { g_sink += conv.Forward(input)[0]; });
      conv.SetPrecision(Precision::kInt8);
      bench(name + "_int8_32", 40, macs, [&] { g_sink += conv.Forward(input)[0]; });
      conv.SetPrecision(Precision::kFloat32);
    }
  }

  // The same A/B through a narrow-squeeze fire module: the 3x3 expand
  // branch rides the gather policy, the 1x1s are unaffected — so this pair
  // shows the module-level (not kernel-level) win at the shapes the
  // classifier actually runs.
  for (const bool implicit : {false, true}) {
    SetPlannerGatherPolicy(implicit ? GatherPolicyMode::kForceImplicit
                                    : GatherPolicyMode::kForceMaterialize);
    Rng rng(1);
    FireModule fire(32, 8, 32, rng);
    fire.SetTrainingMode(false);
    const TensorShape shape{1, 32, 32, 32};
    fire.PlanKernels(shape);
    SetPlannerGatherPolicy(GatherPolicyMode::kAuto);
    Tensor input = RandomTensor(shape, 2);
    const int64_t macs = fire.ForwardMacs(shape);
    const std::string name =
        std::string("fire_gather_") + (implicit ? "implicit" : "materialized");
    bench(name + "_float_32", 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
    fire.SetPrecision(Precision::kInt8);
    bench(name + "_int8_32", 30, macs, [&] { g_sink += fire.Forward(input)[0]; });
    fire.SetPrecision(Precision::kFloat32);
  }

  // The planner's per-layer decisions for the experiment deployment profile
  // (int8 eval — the browser configuration) ride the same JSON so the
  // panel/gather choices are measured, not guessed: median_ms (and min_ms)
  // carry the chosen panel width, and 1 when the layer runs implicit.
  if (options.filter.empty()) {
    PercivalNetConfig config = ExperimentProfile();
    Network net = BuildPercivalNet(config);
    net.SetTrainingMode(false);
    net.SetPrecision(Precision::kInt8);
    net.PlanForward(config.InputShape());
    std::printf("%s\n", net.KernelPlanSummary().c_str());
    for (const KernelPlanRow& row : net.CollectKernelPlanRows()) {
      BenchTiming t;
      t.reps = 1;
      t.name = "plan_" + row.layer + "_panel_width";
      t.median_ms = row.panel_width;
      t.min_ms = t.median_ms;
      report.Record(t);
      t.name = "plan_" + row.layer + "_implicit";
      t.median_ms = row.implicit ? 1 : 0;
      t.min_ms = t.median_ms;
      report.Record(t);
    }
  }

  {
    PercivalNetConfig config = ExperimentProfile();
    Network net = BuildPercivalNet(config);
    Tensor input = RandomTensor(config.InputShape(), 3);
    const int64_t macs = net.ForwardMacs(input.shape());
    bench("percival_forward_experiment", 20, macs, [&] { g_sink += net.Forward(input)[0]; });
    // Deployment configuration ladder: eval mode drops the backward-state
    // bookkeeping, int8 swaps the GEMM engine under it.
    net.SetTrainingMode(false);
    bench("percival_forward_experiment_eval", 20, macs,
          [&] { g_sink += net.Forward(input)[0]; });
    net.SetPrecision(Precision::kInt8);
    bench("percival_forward_experiment_int8", 20, macs,
          [&] { g_sink += net.Forward(input)[0]; });
    // Whole-profile gather A/B: every multi-tap conv re-planned to each
    // gather, same int8 eval network. The _int8 row above is the planner's
    // own (implicit) choice; _int8_materialized is the pre-implicit
    // baseline CI compares it against.
    SetPlannerGatherPolicy(GatherPolicyMode::kForceMaterialize);
    net.PlanForward(input.shape());
    bench("percival_forward_experiment_int8_materialized", 20, macs,
          [&] { g_sink += net.Forward(input)[0]; });
    SetPlannerGatherPolicy(GatherPolicyMode::kForceImplicit);
    net.PlanForward(input.shape());
    bench("percival_forward_experiment_int8_implicit", 20, macs,
          [&] { g_sink += net.Forward(input)[0]; });
    SetPlannerGatherPolicy(GatherPolicyMode::kAuto);
    net.PlanForward(input.shape());
    net.SetPrecision(Precision::kFloat32);
    net.SetTrainingMode(true);
    ScopedInferencePool pool;
    bench("percival_forward_experiment_threaded", 20, macs,
          [&] { g_sink += net.Forward(input)[0]; });
  }

  {
    // Zero-float dataflow A/B: the same calibrated int8 eval network and
    // pre-quantized input codes, with the requantize-in-epilogue plan off
    // (float-staged activations + separate QuantizeActivations sweeps)
    // versus on (u8 codes flow conv-to-conv, no float activation tensor).
    // The logits are bit-identical; only the dataflow differs.
    PercivalNetConfig config = ExperimentProfile();
    Network net = BuildPercivalNet(config);
    net.SetTrainingMode(false);
    net.SetCalibrationCapture(true);
    net.Forward(RandomTensor(config.InputShape(), 5));
    net.SetCalibrationCapture(false);
    net.SetPrecision(Precision::kInt8);
    const int64_t macs = net.ForwardMacs(config.InputShape());

    Tensor input = RandomTensor(config.InputShape(), 3);
    float lo = 0.0f;
    float hi = 1.0f;
    net.layer(0).InputCalibration(&lo, &hi);
    const ActivationQuant quant = ComputeActivationQuant(lo, hi);
    std::vector<uint8_t> codes(static_cast<size_t>(input.size()));
    QuantizeActivations(input.data(), input.size(), quant, codes.data());
    const QuantizedTensorView view{codes.data(), input.shape(), quant.scale,
                                   quant.zero_point};

    SetDataflowRequantEnabled(false);
    bench("percival_forward_experiment_int8_staged", 20, macs,
          [&] { g_sink += net.ForwardQuantized(view)[0]; });
    SetDataflowRequantEnabled(true);
    bench("percival_forward_experiment_int8_zerofloat", 20, macs,
          [&] { g_sink += net.ForwardQuantized(view)[0]; });
  }

  {
    // The zero-float plan's code transforms at deployed shapes: the paper
    // profile's first 2x2/2 pool (after conv1) and its ReLU, and the
    // experiment profile's first pool. The 32x32x16 row reads a prefix.
    Rng rng(6);
    std::vector<uint8_t> codes(static_cast<size_t>(112) * 112 * 64);
    for (auto& v : codes) {
      v = static_cast<uint8_t>(rng.NextBelow(256));
    }
    std::vector<uint8_t> out(codes.size());
    bench("maxpool_codes_112x112x64", 50, 0, [&] {
      MaxPoolCodes(codes.data(), 112, 112, 64, 2, 2, out.data());
      g_sink += static_cast<float>(out[0]);
    });
    bench("maxpool_codes_32x32x16", 50, 0, [&] {
      MaxPoolCodes(codes.data(), 32, 32, 16, 2, 2, out.data());
      g_sink += static_cast<float>(out[0]);
    });
    bench("relu_codes_112x112x64", 50, 0, [&] {
      ReluCodes(codes.data(), static_cast<int64_t>(codes.size()), 128, out.data());
      g_sink += static_cast<float>(out[0]);
    });
  }

  {
    PercivalNetConfig config = PaperProfile();
    Network net = BuildPercivalNet(config);
    Tensor input = RandomTensor(config.InputShape(), 3);
    const int64_t macs = net.ForwardMacs(input.shape());
    bench("percival_forward_paper", 3, macs, [&] { g_sink += net.Forward(input)[0]; });
  }

  {
    // Batched classification: one stacked forward for 8 creatives vs 8
    // separate Classify() calls over the same bitmaps, both under the pool.
    ScopedInferencePool pool;
    PercivalNetConfig config = ExperimentProfile();
    AdClassifier classifier(BuildPercivalNet(config), config);
    Rng rng(11);
    std::vector<Bitmap> ads;
    for (int i = 0; i < 8; ++i) {
      AdImageOptions ad_options;
      ads.push_back(GenerateAdImage(rng, ad_options));
    }
    std::vector<const Bitmap*> batch;
    for (const Bitmap& ad : ads) {
      batch.push_back(&ad);
    }
    bench("classify_single_x8", 10, 0, [&] {
      for (const Bitmap& ad : ads) {
        g_sink += classifier.Classify(ad).ad_probability;
      }
    });
    bench("classify_batch_8", 10, 0,
          [&] { g_sink += classifier.ClassifyBatch(batch)[0].ad_probability; });

    // Int8 deployment pair: u8-direct preprocessing (resize straight to
    // codes, no float staging tensor) vs the float-then-quantize pipeline
    // on the same classifier and creatives.
    classifier.SetPrecision(Precision::kInt8);
    bench("classify_batch_8_int8_u8direct", 10, 0,
          [&] { g_sink += classifier.ClassifyBatch(batch)[0].ad_probability; });
    classifier.set_use_u8_direct(false);
    bench("classify_batch_8_int8_staged", 10, 0,
          [&] { g_sink += classifier.ClassifyBatch(batch)[0].ad_probability; });
    classifier.set_use_u8_direct(true);
    classifier.SetPrecision(Precision::kFloat32);
  }

  {
    Rng rng(4);
    AdImageOptions ad_options;
    Bitmap ad = GenerateAdImage(rng, ad_options);
    std::vector<uint8_t> bytes = EncodePif(ad);
    bench("decode_pif", 30, 0, [&] { g_sink += DecodePif(bytes).value_or(Bitmap()).width(); });
    bench("bitmap_to_tensor", 30, 0, [&] { g_sink += BitmapToTensor(ad, 64, 3)[0]; });
    // The fused resize->quantize preprocessing the int8 classify path uses.
    std::vector<uint8_t> codes(static_cast<size_t>(64) * 64 * 3);
    bench("bitmap_to_tensor_u8", 30, 0, [&] {
      BitmapToTensorU8Into(ad, 64, 3, 1.0f / 255.0f, 0, codes.data());
      g_sink += static_cast<float>(codes[0]);
    });
    // The same preprocessing at the paper profile's 224x224x4 input.
    std::vector<uint8_t> paper_codes(static_cast<size_t>(224) * 224 * 4);
    bench("bitmap_to_tensor_u8_224x4", 30, 0, [&] {
      BitmapToTensorU8Into(ad, 224, 4, 1.0f / 255.0f, 0, paper_codes.data());
      g_sink += static_cast<float>(paper_codes[0]);
    });
    // The perceptual hash behind dataset dedup and the serving engine's L2
    // near-duplicate probe (one AverageHash per L1 miss when enabled); it
    // reuses a thread-local 8x8 scratch instead of allocating per call.
    bench("phash_average_hash", 50, 0,
          [&] { g_sink += static_cast<float>(AverageHash(ad) & 0xff); });
  }

  {
    FilterEngine engine;
    engine.AddList(BuildSyntheticEasyList(BuildAdNetworks(AdEcosystemConfig{})));
    RequestContext request;
    request.url = Url::Parse("https://cdn.adnet3.example/banner3/1-2-3.pif");
    request.page_host = "news-site-1.example";
    request.type = ResourceType::kImage;
    bench("filter_match", 50, 0,
          [&] { g_sink += engine.ShouldBlockRequest(request).blocked ? 1.0f : 0.0f; });
  }

  const std::string path = report.WriteJson();
  if (!path.empty()) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::printf("\nWARNING: failed to write BENCH_micro_kernels.json\n");
  }

  // Serialized model sizes for the experiment profile: the v1 float
  // checkpoint vs the v2 int8 deployment artifact. Not timings — the
  // median_ms/min_ms fields carry bytes (and the ratio row v1/v2) so the
  // artifact shrink rides the same machine-readable BENCH_*.json channel
  // CI already uploads. Honors --filter like every other entry (the rows
  // share the "pcvw" prefix).
  if (options.filter.empty() ||
      std::string("pcvw_v1_experiment_bytes pcvw_v2_experiment_bytes pcvw_v1_over_v2_ratio")
              .find(options.filter) != std::string::npos) {
    BenchReport sizes("model_sizes");
    PercivalNetConfig config = ExperimentProfile();
    Network net = BuildPercivalNet(config);
    const double v1_bytes = static_cast<double>(SerializeWeights(net).size());
    const double v2_bytes = static_cast<double>(SerializeWeightsInt8(net).size());
    BenchTiming row;
    row.reps = 1;
    row.name = "pcvw_v1_experiment_bytes";
    row.median_ms = v1_bytes;
    row.min_ms = v1_bytes;
    sizes.Record(row);
    row.name = "pcvw_v2_experiment_bytes";
    row.median_ms = v2_bytes;
    row.min_ms = v2_bytes;
    sizes.Record(row);
    row.name = "pcvw_v1_over_v2_ratio";
    row.median_ms = v1_bytes / v2_bytes;
    row.min_ms = row.median_ms;
    sizes.Record(row);
    std::printf("model sizes (experiment profile): v1 %.0f bytes, v2 %.0f bytes (%.2fx)\n",
                v1_bytes, v2_bytes, v1_bytes / v2_bytes);
    const std::string sizes_path = sizes.WriteJson();
    if (!sizes_path.empty()) {
      std::printf("wrote %s\n", sizes_path.c_str());
    }
  }
}

}  // namespace
}  // namespace percival

int main(int argc, char** argv) {
  percival::Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--filter=", 9) == 0) {
      options.filter = arg + 9;
    } else if (std::strncmp(arg, "--reps-scale=", 13) == 0) {
      char* end = nullptr;
      options.reps_scale = std::strtod(arg + 13, &end);
      if (end == arg + 13 || *end != '\0' || options.reps_scale <= 0.0) {
        std::printf("invalid --reps-scale value: %s\n", arg + 13);
        return 1;
      }
    } else {
      std::printf("usage: micro_kernels [--filter=substring] [--reps-scale=X]\n");
      return 1;
    }
  }
  percival::LogSimdPathOnce();
  percival::RunSuite(options);
  return 0;
}
