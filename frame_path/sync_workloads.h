// The synchronous workloads: page_sync (Fig. 15's critical path) and
// paper_sync (the paper-profile network in a closed loop).
#ifndef PERCIVAL_FRAME_PATH_SYNC_WORKLOADS_H_
#define PERCIVAL_FRAME_PATH_SYNC_WORKLOADS_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "frame_path/deploy.h"
#include "frame_path/inputs.h"
#include "frame_path/measure.h"
#include "src/renderer/renderer.h"

namespace percival::frame_path {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
  std::string out_dir = ".";
};

inline constexpr size_t kOracleFrames = 48;
inline constexpr size_t kOracleFramesPaper = 4;

// Self-time samples of one span name ("" when the trace has none).
inline Samples SelfOf(const std::map<std::string, Samples>& self, const std::string& name) {
  const auto it = self.find(name);
  return it == self.end() ? Samples() : it->second;
}

// The percentage by which `traced` exceeds `untraced`.
inline double ExcessPct(double traced, double untraced) {
  return 100.0 * (traced / untraced - 1.0);
}

// The renderer's decode hook: the sync classifier (or, traced, its split),
// timing each call and recording each decision for the reference check.
class PageHook : public ImageInterceptor {
 public:
  struct Record {
    std::string url;
    float probability = 0.0f;
  };

  PageHook(AdClassifier& classifier, SplitClassifier* split, Tracer* tracer)
      : classifier_(classifier), split_(split), tracer_(tracer) {}

  bool OnDecodedFrame(const ImageInfo& info, Bitmap& pixels,
                      const std::string& source_url) override {
    (void)info;
    const int64_t frame = next_frame_.fetch_add(1);
    const int64_t start = NowNs();
    float probability = 0.0f;
    bool is_ad = false;
    Samples resize_ms;
    Samples forward_ms;
    if (split_ != nullptr) {
      ScopedSpan span(tracer_, "OnDecodedFrame", page_span_.load(), frame);
      probability = split_->Classify({&pixels}, tracer_, span.id(), frame, &resize_ms,
                                     &forward_ms)[0];
      is_ad = probability >= 0.5f;
    } else {
      const ClassifyResult r = classifier_.Classify(pixels);
      probability = r.ad_probability;
      is_ad = r.is_ad;
    }
    const double ms = NsToMs(NowNs() - start);
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(Record{source_url, probability});
    decision_ms_.Add(ms);
    resize_ms_.Append(resize_ms);
    forward_ms_.Append(forward_ms);
    return is_ad;
  }

  void set_page_span(int32_t id) { page_span_.store(id); }
  std::vector<Record> TakeRecords() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Record> out;
    out.swap(records_);
    return out;
  }
  // Read once rendering has stopped.
  const Samples& decision_ms() const { return decision_ms_; }
  const Samples& resize_ms() const { return resize_ms_; }
  const Samples& forward_ms() const { return forward_ms_; }

 private:
  AdClassifier& classifier_;
  SplitClassifier* split_;
  Tracer* tracer_;
  std::atomic<int32_t> page_span_{-1};
  std::atomic<int64_t> next_frame_{0};
  std::mutex mutex_;
  std::vector<Record> records_;
  Samples decision_ms_;
  Samples resize_ms_;
  Samples forward_ms_;
};

struct PagePhase {
  Samples overhead_ms;   // paired per-page render-time differences
  Samples overhead_pct;  // ... over the page's render time without PERCIVAL
  Samples render_ms;     // render time without PERCIVAL (virtual clock)
  Samples raster_ms;     // with PERCIVAL
  Samples decode_cpu_ms;
  Samples classify_cpu_ms;
  Samples frames;
  Samples decode_ms;
  Samples kpx;
  int64_t images = 0;
  int64_t images_agree = 0;
  double percival_wall_s = 0.0;
  int pages = 0;
};

// Renders seeded page visits for `seconds`, each twice with the arms
// interleaved (alternating which goes first). Two phases with one seed see
// the same pages in the same order.
inline void RunPagePhase(const BenchWorld& world, AdClassifier& classifier, PageHook& hook,
                         Tracer* tracer, uint64_t seed, double seconds, PagePhase* phase,
                         RunResult* result) {
  Rng rng(seed);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const auto [site, page_index] = PickPage(rng);
    const WebPage page = world.generator->GeneratePage(site, page_index);
    std::unordered_map<std::string, std::vector<float>> reference;
    for (const DecodedImage& image : DecodePage(page, &phase->decode_ms)) {
      std::vector<float>& probabilities = reference[image.url];
      for (const Bitmap& frame : image.frames) {
        probabilities.push_back(classifier.Classify(frame).ad_probability);
        phase->kpx.Add(static_cast<double>(frame.width()) * frame.height() / 1000.0);
      }
    }

    RenderOptions baseline;
    baseline.raster_threads = 2;
    RenderOptions treatment = baseline;
    treatment.interceptor = &hook;
    RenderResult without;
    RenderResult with;
    auto render_with = [&] {
      ScopedSpan span(tracer, "page", -1, phase->pages);
      hook.set_page_span(span.id());
      const int64_t start = NowNs();
      with = RenderPage(page, treatment);
      phase->percival_wall_s += static_cast<double>(NowNs() - start) / 1e9;
    };
    if (phase->pages % 2 == 0) {
      without = RenderPage(page, baseline);
      render_with();
    } else {
      render_with();
      without = RenderPage(page, baseline);
    }
    ++phase->pages;

    const double base = without.metrics.RenderTime();
    const double delta = with.metrics.RenderTime() - base;
    phase->overhead_ms.Add(delta);
    phase->overhead_pct.Add(100.0 * delta / base);
    phase->render_ms.Add(base);
    phase->raster_ms.Add(with.metrics.raster_ms);
    phase->decode_cpu_ms.Add(with.stats.decode_cpu_ms);
    phase->classify_cpu_ms.Add(with.stats.classify_cpu_ms);
    phase->frames.Add(with.stats.frames_decoded);

    // Every decoded frame went through the hook and got the reference
    // decision (frames of one URL arrive in decode order).
    const std::vector<PageHook::Record> records = hook.TakeRecords();
    result->attempted += static_cast<int64_t>(records.size());
    if (static_cast<int>(records.size()) != with.stats.frames_decoded) {
      result->Error(page.url + ": the hook saw " + std::to_string(records.size()) +
                    " frames, the renderer decoded " + std::to_string(with.stats.frames_decoded));
    }
    std::unordered_map<std::string, size_t> seen;
    for (const PageHook::Record& r : records) {
      const size_t k = seen[r.url]++;
      const auto it = reference.find(r.url);
      if (it == reference.end() || k >= it->second.size() || it->second[k] != r.probability) {
        result->Error(page.url + ": the decision for " + r.url +
                      " differs from the reference pass");
      }
    }
    for (const ImageOutcome& outcome : with.image_outcomes) {
      if (outcome.decoded) {
        ++phase->images;
        phase->images_agree += outcome.blocked_by_percival == outcome.is_ad ? 1 : 0;
      }
    }
  }
}

// The first frames of the seeded page stream, at least `count` of them.
inline std::vector<Bitmap> FirstPageFrames(const BenchWorld& world, uint64_t seed, size_t count,
                                           bool first_frame_only) {
  Rng rng(seed);
  Samples unused;
  std::vector<Bitmap> frames;
  while (frames.size() < count) {
    const auto [site, page_index] = PickPage(rng);
    for (DecodedImage& image :
         DecodePage(world.generator->GeneratePage(site, page_index), &unused)) {
      for (Bitmap& frame : image.frames) {
        frames.push_back(std::move(frame));
        if (first_frame_only) {
          break;
        }
      }
    }
  }
  return frames;
}

inline std::vector<const Bitmap*> Pointers(const std::vector<Bitmap>& bitmaps) {
  std::vector<const Bitmap*> out;
  for (const Bitmap& b : bitmaps) {
    out.push_back(&b);
  }
  return out;
}

inline void RunPageSync(const Options& options, RunResult* result) {
  const BenchWorld world = MakeBenchWorld(0.75, 7);
  ScopedInferencePool pool(2);
  result->config = {{"raster_threads", "2"}, {"inference_pool_threads", "2"},
                    {"filter_list", "none"}, {"profile", "experiment"}};

  const std::vector<Bitmap> first = FirstPageFrames(world, options.seed, kOracleFrames, false);
  result->MarkRssBaseline();
  std::optional<Deployment> deployment = Deploy(ExperimentProfile(), first[0], result);
  if (!deployment) {
    return;
  }
  AdClassifier& classifier = *deployment->classifier;
  const std::vector<const Bitmap*> oracle = Pointers(first);
  CheckOracle(classifier, oracle, ReferenceProbabilities(classifier, oracle), kOracleFrames,
              result);

  PageHook plain(classifier, nullptr, nullptr);
  PagePhase untraced;
  RunPagePhase(world, classifier, plain, nullptr, options.seed,
               options.trace ? options.seconds / 2 : options.seconds, &untraced, result);
  result->failed += classifier.stats().alloc_failovers;

  if (!options.trace) {
    MetricSet& m = result->e2e;
    AddSetupAndMemory(*deployment, result);
    m.AddPercentile("paint_overhead_ms_p50", untraced.overhead_ms, 0.5);
    m.AddPercentile("paint_overhead_ms_p90", untraced.overhead_ms, 0.9);
    m.AddPercentile("decision_ms_p50", plain.decision_ms(), 0.5);
    m.AddPercentile("decision_ms_p90", plain.decision_ms(), 0.9);
    return;
  }
  result->layer.Add("core.classified_fps",
                    static_cast<double>(plain.decision_ms().n()) / untraced.percival_wall_s,
                    plain.decision_ms().n());

  Tracer tracer;
  SplitClassifier split(classifier);
  PageHook traced_hook(classifier, &split, &tracer);
  PagePhase traced;
  RunPagePhase(world, classifier, traced_hook, &tracer, options.seed, options.seconds / 2,
               &traced, result);

  MetricSet& m = result->layer;
  m.AddPercentile("renderer.render_ms_p50", untraced.render_ms, 0.5);
  m.AddPercentile("renderer.render_overhead_pct_p50", untraced.overhead_pct, 0.5);
  m.AddPercentile("renderer.raster_ms_p50", traced.raster_ms, 0.5);
  m.Add("renderer.decode_ms_per_page", traced.decode_cpu_ms.Mean(), traced.frames.n());
  m.Add("renderer.classify_ms_per_page", traced.classify_cpu_ms.Mean(), traced.frames.n());
  m.Add("renderer.frames_per_page", traced.frames.Mean(), traced.frames.n());
  m.AddPercentile("img.decode_ms_p50", traced.decode_ms, 0.5);
  m.Add("img.frame_kpx_mean", traced.kpx.Mean(), traced.kpx.n());
  m.AddPercentile("img.resize_u8_ms_p50", traced_hook.resize_ms(), 0.5);
  m.AddPercentile("img.resize_u8_ms_p99", traced_hook.resize_ms(), 0.99);
  AddForwardMetrics(classifier, traced_hook.forward_ms(), result);
  m.AddPercentile("core.classify_ms_p50", plain.decision_ms(), 0.5);
  m.AddPercentile("core.classify_ms_p99", plain.decision_ms(), 0.99);
  m.Add("core.block_accuracy_pct",
        100.0 * static_cast<double>(untraced.images_agree) /
            static_cast<double>(std::max<int64_t>(1, untraced.images)),
        static_cast<size_t>(untraced.images));
  m.Add("core.alloc_failovers", static_cast<double>(classifier.stats().alloc_failovers));

  const std::map<std::string, Samples> self = tracer.SelfTimesMs();
  const Samples hook_self = SelfOf(self, "OnDecodedFrame");
  m.AddPercentile("core.self_ms_p50", hook_self, 0.5);
  m.AddPercentile("renderer.self_ms_p50", SelfOf(self, "page"), 0.5);
  const double untraced_p50 = plain.decision_ms().Percentile(0.5);
  m.Add("bench.trace_overhead_pct",
        ExcessPct(traced_hook.decision_ms().Percentile(0.5), untraced_p50));
  m.Add("bench.self_sum_vs_untraced_pct",
        ExcessPct(hook_self.Median() + traced_hook.resize_ms().Median() +
                      traced_hook.forward_ms().Median(),
                  untraced_p50));
  m.Add("bench.offered_fps",
        static_cast<double>(traced_hook.decision_ms().n()) / traced.percival_wall_s);
  m.Add("trace.spans", static_cast<double>(tracer.size()));
  tracer.WriteJson(options.out_dir + "/TRACE_page_sync.json", "page_sync");

  const std::vector<Bitmap> sample = FirstPageFrames(world, options.seed, 24, true);
  AddGatherMetrics(classifier, Pointers(sample), result);
}

inline void RunPaperSync(const Options& options, RunResult* result) {
  const BenchWorld world = MakeBenchWorld(0.75, 7);
  ScopedInferencePool pool(3);
  result->config = {{"caller_threads", "1"}, {"inference_pool_threads", "3"},
                    {"profile", "paper"}};

  // Page creatives of the seeded page stream, visited in a seeded order.
  CreativeTable creatives;
  Samples decode_ms;
  Samples kpx;
  {
    Rng rng(options.seed);
    while (creatives.size() < 64) {
      const auto [site, page_index] = PickPage(rng);
      for (DecodedImage& image :
           DecodePage(world.generator->GeneratePage(site, page_index), &decode_ms)) {
        for (Bitmap& frame : image.frames) {
          creatives.Intern(std::move(frame), image.is_ad);
        }
      }
    }
  }
  const std::vector<const Bitmap*> pixels = creatives.Pixels();
  std::vector<int> order(pixels.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  Rng order_rng(options.seed ^ 0x9E3779B97F4A7C15ULL);
  order_rng.Shuffle(order);
  result->MarkRssBaseline();

  std::optional<Deployment> deployment = Deploy(PaperProfile(), *pixels[0], result);
  if (!deployment) {
    return;
  }
  AdClassifier& classifier = *deployment->classifier;
  const std::vector<float> reference = ReferenceProbabilities(classifier, pixels);
  CheckOracle(classifier, pixels, reference, kOracleFramesPaper, result);
  int64_t agree = 0;
  for (size_t i = 0; i < pixels.size(); ++i) {
    agree += (reference[i] >= 0.5f) == creatives.at(static_cast<int>(i)).is_ad ? 1 : 0;
  }

  // Closed loop: the next Classify starts when the previous one returns.
  auto run = [&](double seconds, SplitClassifier* split, Tracer* tracer, Samples* decision_ms,
                 Samples* resize_ms, Samples* forward_ms) {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    for (size_t i = 0; NowNs() < deadline; ++i) {
      const int id = order[i % order.size()];
      const int64_t t0 = NowNs();
      float p = 0.0f;
      if (split != nullptr) {
        ScopedSpan span(tracer, "Classify", -1, static_cast<int64_t>(i));
        p = split->Classify({pixels[static_cast<size_t>(id)]}, tracer, span.id(),
                            static_cast<int64_t>(i), resize_ms, forward_ms)[0];
      } else {
        p = classifier.Classify(*pixels[static_cast<size_t>(id)]).ad_probability;
      }
      decision_ms->Add(NsToMs(NowNs() - t0));
      ++result->attempted;
      if (p != reference[static_cast<size_t>(id)]) {
        result->Error("creative " + std::to_string(id) + ": decision differs from the reference");
      }
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  };

  classifier.ResetStats();
  Samples decision_ms;
  Samples unused_resize;
  Samples unused_forward;
  const double wall_s = run(options.trace ? options.seconds / 2 : options.seconds, nullptr,
                            nullptr, &decision_ms, &unused_resize, &unused_forward);
  result->failed += classifier.stats().alloc_failovers;

  if (!options.trace) {
    MetricSet& m = result->e2e;
    AddSetupAndMemory(*deployment, result);
    // Sync mode holds the paint for the whole classification.
    m.AddPercentile("paint_overhead_ms_p50", decision_ms, 0.5);
    m.AddPercentile("paint_overhead_ms_p90", decision_ms, 0.9);
    m.AddPercentile("decision_ms_p50", decision_ms, 0.5);
    m.AddPercentile("decision_ms_p90", decision_ms, 0.9);
    return;
  }
  result->layer.Add("core.classified_fps", static_cast<double>(decision_ms.n()) / wall_s,
                    decision_ms.n());

  Tracer tracer;
  SplitClassifier split(classifier);
  Samples traced_ms;
  Samples resize_ms;
  Samples forward_ms;
  const double traced_wall_s =
      run(options.seconds / 2, &split, &tracer, &traced_ms, &resize_ms, &forward_ms);

  MetricSet& m = result->layer;
  m.AddPercentile("img.decode_ms_p50", decode_ms, 0.5);
  for (const Bitmap* b : pixels) {
    kpx.Add(static_cast<double>(b->width()) * b->height() / 1000.0);
  }
  m.Add("img.frame_kpx_mean", kpx.Mean(), kpx.n());
  m.AddPercentile("img.resize_u8_ms_p50", resize_ms, 0.5);
  m.AddPercentile("img.resize_u8_ms_p99", resize_ms, 0.99);
  AddForwardMetrics(classifier, forward_ms, result);
  m.AddPercentile("core.classify_ms_p50", decision_ms, 0.5);
  m.AddPercentile("core.classify_ms_p99", decision_ms, 0.99);
  m.Add("core.block_accuracy_pct",
        100.0 * static_cast<double>(agree) / static_cast<double>(pixels.size()), pixels.size());
  m.Add("core.alloc_failovers", static_cast<double>(classifier.stats().alloc_failovers));
  const std::map<std::string, Samples> self = tracer.SelfTimesMs();
  const Samples classify_self = SelfOf(self, "Classify");
  m.AddPercentile("core.self_ms_p50", classify_self, 0.5);
  const double untraced_p50 = decision_ms.Percentile(0.5);
  m.Add("bench.trace_overhead_pct", ExcessPct(traced_ms.Percentile(0.5), untraced_p50));
  m.Add("bench.self_sum_vs_untraced_pct",
        ExcessPct(classify_self.Median() + resize_ms.Median() + forward_ms.Median(),
                  untraced_p50));
  m.Add("bench.offered_fps", static_cast<double>(traced_ms.n()) / traced_wall_s);
  m.Add("trace.spans", static_cast<double>(tracer.size()));
  tracer.WriteJson(options.out_dir + "/TRACE_paper_sync.json", "paper_sync");

  const std::vector<const Bitmap*> sample(pixels.begin(), pixels.begin() + 8);
  AddGatherMetrics(classifier, sample, result);
}

}  // namespace percival::frame_path

#endif  // PERCIVAL_FRAME_PATH_SYNC_WORKLOADS_H_
