// frame_path: one benchmark from decoded frame to block decision.
//
// Runs PERCIVAL's deployed configuration — the v2 int8 artifact with its
// calibration trailer, loaded through AdClassifier::LoadWeights, u8-direct
// input, the zero-float dataflow plan — on one seeded workload per process:
//
//   page_sync     Fig. 15's critical path: page visits rendered twice
//                 (without / with the sync classifier as the decode hook,
//                 arms interleaved), 2 raster threads, an inference pool of
//                 2, no filter list. renderer -> img -> nn run in series.
//   paper_sync    Closed-loop Classify on page creatives with the paper
//                 profile (224x224x4, seeded weights): nn-bound, so kernel
//                 and planner changes show here first.
//   async_browse  Open loop at a fixed rate over a Zipf session of site
//                 visits, a fifth of ad frames re-encoded, the L2 memo on:
//                 memo reads and hashing dominate the paint path.
//   async_flood   Open loop of page-sized bursts from 2 paint threads over
//                 creatives that never repeat within the memo's reach: the
//                 admit/evict write path with filled batches, decision lag
//                 bound by hashing, the drain worker and nn.
//
// Layers are measured from outside, by timing the bench's own calls into
// each module's public functions. `--trace 1` records spans in memory,
// splits classification into BitmapToTensorU8Into + ForwardQuantized, and
// reports the per-layer metrics; end-to-end metrics come only from
// `--trace 0` runs. README.md lists every metric.
//
// Usage:
//   frame_path --prepare
//       trains (first call only) or loads the shared model and writes both
//       deployment artifacts into $PERCIVAL_MODEL_DIR
//   frame_path --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero when any output was wrong.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "frame_path/async_workloads.h"
#include "frame_path/sync_workloads.h"
#include "src/nn/simd.h"

namespace percival::frame_path {
namespace {

std::string JsonNumber(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Prints the run's metrics (end-to-end or per-layer, by mode), writes
// BENCH_frame_path_<workload>[_trace].json, and returns the result line.
std::string Report(const Options& options, RunResult& result) {
  const MetricSet& set = options.trace ? result.layer : result.e2e;
  const std::vector<MetricSpec>& spec = options.trace ? PerLayerSpec() : EndToEndSpec();
  for (const auto& [name, metric] : set.all()) {
    const bool known = std::any_of(spec.begin(), spec.end(),
                                   [&](const MetricSpec& s) { return s.name == name; });
    if (!known) {
      result.Error("metric " + name + " is not in the benchmark's metric list");
    }
  }
  for (const MetricSpec& s : spec) {
    const auto it = set.all().find(s.name);
    if (!options.trace && (it == set.all().end() || it->second.refused)) {
      // End-to-end numbers must be measured, never defaulted or refused.
      result.Error("end-to-end metric " + s.name + " has no valid value");
    }
  }
  const bool correct = result.errors == 0;

  std::string metrics_json;
  std::string file_metrics;
  std::printf("%s metrics:\n", options.trace ? "per-layer" : "end-to-end");
  for (const MetricSpec& s : spec) {
    const auto it = set.all().find(s.name);
    const Metric metric = it == set.all().end() ? Metric{} : it->second;
    std::printf("  %-38s %14.6f %-7s n=%zu%s\n", s.name.c_str(), metric.value, s.unit.c_str(),
                metric.n, metric.refused ? " (refused: <10 samples beyond)" : "");
    metrics_json += (metrics_json.empty() ? "" : ", ") + JsonString(s.name) +
                    ": {\"value\": " + JsonNumber(metric.value) +
                    ", \"unit\": " + JsonString(s.unit) + "}";
    file_metrics += std::string(file_metrics.empty() ? "" : ",\n") + "    {\"name\": " +
                    JsonString(s.name) + ", \"value\": " + JsonNumber(metric.value) +
                    ", \"unit\": " + JsonString(s.unit) + ", \"n\": " +
                    std::to_string(metric.n) + ", \"kind\": \"" +
                    (options.trace ? "per_layer" : "end_to_end") +
                    "\", \"refused\": " + (metric.refused ? "true" : "false") + "}";
  }
  std::printf("attempted %lld, failed %lld, errors %lld\n",
              static_cast<long long>(result.attempted), static_cast<long long>(result.failed),
              static_cast<long long>(result.errors));
  for (const std::string& message : result.error_messages) {
    std::printf("ERROR: %s\n", message.c_str());
  }

  std::string config;
  for (const auto& [key, value] : result.config) {
    config += (config.empty() ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
  }
  std::string errors;
  for (const std::string& message : result.error_messages) {
    errors += (errors.empty() ? "" : ", ") + JsonString(message);
  }
  const std::string path = options.out_dir + "/BENCH_frame_path_" + options.workload +
                           (options.trace ? "_trace" : "") + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"bench\": \"frame_path\",\n  \"workload\": " << JsonString(options.workload)
      << ",\n  \"seed\": " << options.seed << ",\n  \"seconds\": " << JsonNumber(options.seconds)
      << ",\n  \"trace\": " << (options.trace ? 1 : 0) << ",\n  \"host\": {\"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"cpu_features\": " << JsonString(CpuFeatureString())
      << ", \"simd_tier\": " << JsonString(SimdTierName(ActiveSimdTier()))
      << ", \"simd\": " << JsonString(ActiveGemmKernelName())
      << ", \"simd_int8\": " << JsonString(ActiveInt8KernelName()) << "},\n  \"config\": {"
      << config << "},\n  \"correct\": " << (correct ? "true" : "false")
      << ",\n  \"attempted\": " << result.attempted << ",\n  \"failed\": " << result.failed
      << ",\n  \"errors\": [" << errors << "],\n  \"metrics\": [\n"
      << file_metrics << "\n  ]\n}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "frame_path: could not write %s\n", path.c_str());
  }

  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<int64_t>(1, result.attempted)) +
         ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" + metrics_json +
         "}}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: frame_path --prepare\n"
               "       frame_path --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n"
               "workloads: page_sync paper_sync async_browse async_flood\n");
  return 2;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--prepare") {
      options->prepare = true;
      continue;
    }
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      options->trace = value == "1";
    } else if (arg == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    return Usage();
  }
  if (options.prepare) {
    return Prepare();
  }
  RunResult result;
  if (options.workload == "page_sync") {
    RunPageSync(options, &result);
  } else if (options.workload == "paper_sync") {
    RunPaperSync(options, &result);
  } else if (options.workload == "async_browse") {
    RunAsync(options, /*flood=*/false, &result);
  } else if (options.workload == "async_flood") {
    RunAsync(options, /*flood=*/true, &result);
  } else {
    return Usage();
  }
  std::printf("frame_path %s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  const std::string json = Report(options, result);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace percival::frame_path

int main(int argc, char** argv) { return percival::frame_path::Main(argc, argv); }
