// The asynchronous workloads: async_browse and async_flood drive the
// sans-IO ServingEngine directly — Submit on the paint threads, one drain
// worker running BeginBatch -> ClassifyBatch -> CompleteBatch.
#ifndef PERCIVAL_FRAME_PATH_ASYNC_WORKLOADS_H_
#define PERCIVAL_FRAME_PATH_ASYNC_WORKLOADS_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "frame_path/sync_workloads.h"
#include "src/base/hash.h"
#include "src/img/phash.h"
#include "src/serve/engine.h"

namespace percival::frame_path {

inline constexpr int kDrainBatch = 8;
// Mean offered rates of the open loops, frozen as absolute numbers. On a
// 4-core AVX-512 host one drain worker classifies page creatives at ~3.4k
// frames/s (0.29 ms a frame in batches of 8). async_browse sends one frame
// every 1 ms (~0.3x). async_flood sends page loads: kFloodBurst frames due
// at the same instant, as the images of pages loading together decode
// together (page_sync's pages average 8.6 frames), one burst every 20 ms
// (~0.25x on average). A burst queues up behind the drain, so batches
// fill and decision lag is the time to submit and drain the burst (~9 ms at
// p90); the 20 ms spacing leaves room for a host slowed by other tenants
// without shedding or carrying a backlog into the next burst. (A steady
// flood at 0.45x did carry one, and a saturating flood would have measured
// contention for the engine's lock on the paint path, not the serve layer.)
inline constexpr double kBrowseFps = 1000.0;
inline constexpr double kFloodFps = 800.0;
inline constexpr int kFloodBurst = 16;
// async_browse: Zipf(1) over this many sites, two pages each; a fifth of ad
// frames arrive as one of four re-encodes.
inline constexpr int kBrowseSites = 60;
inline constexpr int kBrowsePagesPerSite = 2;
inline constexpr double kReencodeShare = 0.2;
inline constexpr uint64_t kReencodeVariants = 4;
// async_flood: distinct creatives cycled in seeded permutations against a
// memo that holds a sixth of them, so a creative is always evicted before
// it comes round again.
inline constexpr size_t kFloodCreatives = 768;
inline constexpr size_t kFloodMemoEntries = 128;

struct AsyncSpec {
  double rate_fps = 0.0;
  int burst = 1;  // frames due at the same instant
  int paint_threads = 1;
  ServingPolicy policy;
};

// Sleeps to just short of `due_ns`, then spins, so timer slack does not
// show up as lateness.
inline void WaitUntil(int64_t due_ns) {
  for (;;) {
    const int64_t left = due_ns - NowNs();
    if (left <= 0) {
      return;
    }
    if (left > 300000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 200000));
    }
  }
}

// One open-loop run over `sequence` (creative ids, one per frame) with a
// fresh engine. Frames come in bursts of spec.burst; frame k is due at
// start + (k - k mod burst) / rate; paint thread t submits frames
// k = t mod paint_threads. Every frame is checked: a classification
// must equal the reference probability bit for bit, and an L1 hit must
// return the decision last memoized for that creative.
class AsyncRun {
 public:
  struct Frame {
    int64_t due_ns = 0;
    int64_t submit_start_ns = 0;
    int64_t submit_end_ns = 0;
    int64_t decided_ns = -1;
    SubmitDisposition disposition = SubmitDisposition::kShed;
  };
  // Per paint thread, so the paint path takes no extra lock.
  struct PaintSamples {
    Samples submit_ms;
    Samples late_ms;
    Samples hash_ms;
    Samples average_hash_ms;
  };

  AsyncRun(AdClassifier& classifier, const CreativeTable& creatives,
           const std::vector<float>& reference, const std::vector<int>& sequence,
           const AsyncSpec& spec, SplitClassifier* split, Tracer* tracer, RunResult* result)
      : classifier_(classifier),
        creatives_(creatives),
        reference_(reference),
        sequence_(sequence),
        spec_(spec),
        split_(split),
        tracer_(tracer),
        result_(result),
        engine_(spec.policy),
        expected_(creatives.size(), -1),
        frames_(sequence.size()),
        paint_(static_cast<size_t>(spec.paint_threads)) {}

  AsyncRun(const AsyncRun&) = delete;
  AsyncRun& operator=(const AsyncRun&) = delete;

  void Run() {
    std::atomic<bool> ready{false};
    std::thread drain([&] {
      Warm();
      ready.store(true);
      DrainLoop();
    });
    while (!ready.load()) {
      std::this_thread::yield();
    }
    start_ns_ = NowNs() + 2000000;
    std::vector<std::thread> painters;
    for (int t = 0; t < spec_.paint_threads; ++t) {
      painters.emplace_back([this, t] { PaintLoop(t); });
    }
    for (std::thread& p : painters) {
      p.join();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      paint_done_ = true;
    }
    work_.notify_one();
    drain.join();
    end_ns_ = NowNs();
    for (const Frame& f : frames_) {
      if (f.disposition != SubmitDisposition::kShed && f.decided_ns < 0) {
        result_->Error("a submitted frame never got a decision");
        break;
      }
    }
  }

  double wall_s() const { return static_cast<double>(end_ns_ - start_ns_) / 1e9; }
  const std::vector<Frame>& frames() const { return frames_; }
  const ClassifierStats& stats() const { return engine_.stats(); }

  Samples PaintMs() const {
    Samples s;
    for (const Frame& f : frames_) {
      s.Add(NsToMs(f.submit_end_ns - f.due_ns));
    }
    return s;
  }
  Samples DecisionMs() const {
    Samples s;
    for (const Frame& f : frames_) {
      if (f.decided_ns >= 0) {
        s.Add(NsToMs(f.decided_ns - f.due_ns));
      }
    }
    return s;
  }
  // One of the paint threads' sample kinds, merged over threads.
  Samples Merged(Samples PaintSamples::*member) const {
    Samples s;
    for (const PaintSamples& p : paint_) {
      s.Append(p.*member);
    }
    return s;
  }

  // Written by the drain worker; read after Run() returns.
  int64_t classified = 0;
  int64_t l2_disagree = 0;
  int64_t drain_busy_ns = 0;
  Samples queue_wait_ms;
  Samples batch_size;
  Samples complete_ms;
  Samples batch_ms_per_image;
  Samples resize_ms;
  Samples forward_ms;

 private:
  struct Ticket {
    int creative = 0;
    int64_t admit_ns = 0;
  };

  // The drain thread's first batch sizes its arenas before the clock starts.
  void Warm() {
    std::vector<const Bitmap*> batch;
    for (int i = 0; i < kDrainBatch && static_cast<size_t>(i) < creatives_.size(); ++i) {
      batch.push_back(&creatives_.at(i).pixels);
    }
    classifier_.ClassifyBatch(batch);
  }

  void PaintLoop(int t) {
    PaintSamples& samples = paint_[static_cast<size_t>(t)];
    const double period_ns = 1e9 / spec_.rate_fps;
    const size_t burst = static_cast<size_t>(spec_.burst);
    for (size_t k = static_cast<size_t>(t); k < sequence_.size();
         k += static_cast<size_t>(spec_.paint_threads)) {
      Frame& frame = frames_[k];
      const size_t burst_start = k - k % burst;
      frame.due_ns =
          start_ns_ + static_cast<int64_t>(static_cast<double>(burst_start) * period_ns);
      WaitUntil(frame.due_ns);
      const int id = sequence_[k];
      const Bitmap& pixels = creatives_.at(id).pixels;
      const int64_t start = NowNs();
      bool admitted = false;
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        const SubmitOutcome out = engine_.Submit(pixels, start);
        frame.disposition = out.disposition;
        switch (out.disposition) {
          case SubmitDisposition::kAdmitted: {
            // The engine keeps no pixels: retain a copy for the ticket, as
            // a renderer recycling its decode buffer would have to.
            auto inserted = buffers_.emplace(out.ticket, pixels);
            engine_.ProvidePixels(out.ticket, &inserted.first->second);
            tickets_[out.ticket] = Ticket{id, start};
            waiting_[id].push_back(k);
            admitted = true;
            break;
          }
          case SubmitDisposition::kCoalesced:
            waiting_[id].push_back(k);
            break;
          case SubmitDisposition::kHitExact:
            hit = true;
            if (expected_[static_cast<size_t>(id)] != (out.is_ad ? 1 : 0)) {
              result_->Error("an L1 memo hit disagrees with the decision memoized for creative " +
                             std::to_string(id));
            }
            break;
          case SubmitDisposition::kHitNearDup:
            hit = true;
            // The hit promotes this creative into L1 with the reused decision.
            expected_[static_cast<size_t>(id)] = out.is_ad ? 1 : 0;
            if (out.is_ad != (reference_[static_cast<size_t>(id)] >= 0.5f)) {
              ++l2_disagree;
            }
            break;
          case SubmitDisposition::kShed:
            break;
        }
      }
      if (admitted) {
        work_.notify_one();
      }
      const int64_t end = NowNs();
      frame.submit_start_ns = start;
      frame.submit_end_ns = end;
      if (hit) {
        frame.decided_ns = end;
      }
      samples.submit_ms.Add(NsToMs(end - start));
      if (k - burst_start < static_cast<size_t>(spec_.paint_threads)) {
        // The generator's lateness: the thread's first frame of a burst.
        // Later ones also wait for this thread's earlier submits.
        samples.late_ms.Add(NsToMs(start - frame.due_ns));
      }
      if (tracer_ != nullptr) {
        // Hash costs of the same frame, timed just after its Submit span.
        tracer_->Add("submit", start, end, -1, static_cast<int64_t>(k));
        const int64_t h0 = NowNs();
        volatile uint64_t sink = HashBytes(pixels.data(), pixels.byte_size());
        const int64_t h1 = NowNs();
        sink = AverageHash(pixels);
        (void)sink;
        const int64_t h2 = NowNs();
        tracer_->Add("hash", h0, h1, -1, static_cast<int64_t>(k));
        tracer_->Add("average_hash", h1, h2, -1, static_cast<int64_t>(k));
        samples.hash_ms.Add(NsToMs(h1 - h0));
        samples.average_hash_ms.Add(NsToMs(h2 - h1));
      }
    }
  }

  void DrainLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [&] { return engine_.pending_size() > 0 || paint_done_; });
      if (engine_.pending_size() == 0) {
        return;  // paint done and nothing left
      }
      engine_.BeginDrain(NowNs(), 0.0);
      const int32_t drain_span = tracer_ != nullptr ? tracer_->Open("drain", -1, -1) : -1;
      while (engine_.Step(NowNs()) == EngineAction::kRunBatch) {
        RunBatch(lock, drain_span);
      }
      if (tracer_ != nullptr) {
        tracer_->Close(drain_span);
      }
    }
  }

  void RunBatch(std::unique_lock<std::mutex>& lock, int32_t drain_span) {
    const int64_t begin = NowNs();
    const EngineBatch batch = engine_.BeginBatch(kDrainBatch);
    const int size = static_cast<int>(batch.images.size());
    for (uint64_t ticket : batch.tickets) {
      queue_wait_ms.Add(NsToMs(begin - tickets_[ticket].admit_ns));
    }
    batch_size.Add(size);
    lock.unlock();

    const int32_t batch_span =
        tracer_ != nullptr ? tracer_->Open("batch", drain_span, -1) : -1;
    const int64_t classify_start = NowNs();
    std::vector<ClassifyResult> results;
    if (split_ != nullptr) {
      ScopedSpan span(tracer_, "classify_batch", batch_span, -1);
      const std::vector<float> probs =
          split_->Classify(batch.images, tracer_, span.id(), -1, &resize_ms, &forward_ms);
      const double per_image = NsToMs(NowNs() - classify_start) / size;
      for (float p : probs) {
        results.push_back(ClassifyResult{p >= 0.5f, p, per_image});
      }
    } else {
      results = classifier_.ClassifyBatch(batch.images);
    }
    batch_ms_per_image.Add(NsToMs(NowNs() - classify_start) / size);

    lock.lock();
    const int64_t complete = NowNs();
    engine_.CompleteBatch(batch, results, complete);
    for (size_t i = 0; i < batch.tickets.size(); ++i) {
      const auto ticket = tickets_.find(batch.tickets[i]);
      const int id = ticket->second.creative;
      if (results[i].ad_probability != reference_[static_cast<size_t>(id)]) {
        result_->Error("creative " + std::to_string(id) +
                       ": the drained decision differs from the reference pass");
      }
      expected_[static_cast<size_t>(id)] = results[i].is_ad ? 1 : 0;
      for (size_t k : waiting_[id]) {
        frames_[k].decided_ns = complete;
      }
      waiting_.erase(id);
      buffers_.erase(batch.tickets[i]);
      tickets_.erase(ticket);
    }
    classified += size;
    const int64_t done = NowNs();
    complete_ms.Add(NsToMs(done - complete));
    drain_busy_ns += done - begin;
    if (tracer_ != nullptr) {
      tracer_->Close(batch_span);
    }
  }

  AdClassifier& classifier_;
  const CreativeTable& creatives_;
  const std::vector<float>& reference_;
  const std::vector<int>& sequence_;
  const AsyncSpec spec_;
  SplitClassifier* split_;
  Tracer* tracer_;
  RunResult* result_;

  // Guards the engine (single-owner by design) and the bookkeeping below.
  std::mutex mutex_;
  std::condition_variable work_;
  ServingEngine engine_;
  bool paint_done_ = false;
  std::unordered_map<uint64_t, Bitmap> buffers_;
  std::unordered_map<uint64_t, Ticket> tickets_;
  std::unordered_map<int, std::vector<size_t>> waiting_;
  std::vector<int8_t> expected_;  // last memoized decision per creative

  std::vector<Frame> frames_;
  std::vector<PaintSamples> paint_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
};

// async_browse inputs: a Zipf(1) session over seeded sites; a fifth of ad
// frames replaced by one of four re-encodes.
inline std::vector<int> BuildBrowse(const BenchWorld& world, uint64_t seed, size_t frames,
                                    CreativeTable* table, Samples* decode_ms) {
  Rng rng(seed);
  std::vector<int> sites(kBrowseSites);
  for (int& site : sites) {
    site = 100 + static_cast<int>(rng.NextBelow(100000));
  }
  std::vector<double> cdf;
  double total = 0.0;
  for (int r = 1; r <= kBrowseSites; ++r) {
    total += 1.0 / r;
    cdf.push_back(total);
  }
  std::map<std::pair<int, int>, std::vector<std::pair<int, bool>>> pages;
  std::map<std::pair<int, uint64_t>, int> variants;
  std::vector<int> sequence;
  while (sequence.size() < frames) {
    const double u = rng.NextDouble() * total;
    const size_t rank = static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                            cdf.begin());
    const std::pair<int, int> key{sites[std::min(rank, sites.size() - 1)],
                                  static_cast<int>(rng.NextBelow(kBrowsePagesPerSite))};
    auto it = pages.find(key);
    if (it == pages.end()) {
      std::vector<std::pair<int, bool>> ids;
      for (DecodedImage& image :
           DecodePage(world.generator->GeneratePage(key.first, key.second), decode_ms)) {
        for (Bitmap& frame : image.frames) {
          ids.emplace_back(table->Intern(std::move(frame), image.is_ad), image.is_ad);
        }
      }
      it = pages.emplace(key, std::move(ids)).first;
    }
    for (const auto& [id, is_ad] : it->second) {
      int frame_id = id;
      if (is_ad && rng.NextBool(kReencodeShare)) {
        const uint64_t variant = rng.NextBelow(kReencodeVariants);
        auto v = variants.find({id, variant});
        if (v == variants.end()) {
          Bitmap reencoded = Reencode(table->at(id).pixels, variant + 1);
          v = variants.emplace(std::make_pair(id, variant),
                               table->Intern(std::move(reencoded), true))
                  .first;
        }
        frame_id = v->second;
      }
      sequence.push_back(frame_id);
    }
  }
  sequence.resize(frames);
  return sequence;
}

// async_flood inputs: kFloodCreatives distinct page creatives in
// back-to-back seeded permutations.
inline std::vector<int> BuildFlood(const BenchWorld& world, uint64_t seed, size_t frames,
                                   CreativeTable* table, Samples* decode_ms) {
  Rng rng(seed);
  while (table->size() < kFloodCreatives) {
    const auto [site, page_index] = PickPage(rng);
    for (DecodedImage& image :
         DecodePage(world.generator->GeneratePage(site, page_index), decode_ms)) {
      for (Bitmap& frame : image.frames) {
        if (table->size() < kFloodCreatives) {
          table->Intern(std::move(frame), image.is_ad);
        }
      }
    }
  }
  std::vector<int> ids(table->size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>(i);
  }
  std::vector<int> sequence;
  while (sequence.size() < frames) {
    rng.Shuffle(ids);
    sequence.insert(sequence.end(), ids.begin(), ids.end());
  }
  sequence.resize(frames);
  return sequence;
}

inline void RunAsync(const Options& options, bool flood, RunResult* result) {
  const BenchWorld world = MakeBenchWorld(0.75, 7);
  AsyncSpec spec;
  spec.rate_fps = flood ? kFloodFps : kBrowseFps;
  spec.burst = flood ? kFloodBurst : 1;
  spec.paint_threads = flood ? 2 : 1;
  const int pool_threads = flood ? 1 : 2;
  if (flood) {
    spec.policy.max_memo_entries = kFloodMemoEntries;
  } else {
    spec.policy.near_dup_enabled = true;
  }
  ScopedInferencePool pool(pool_threads);
  result->config = {{"paint_threads", std::to_string(spec.paint_threads)},
                    {"drain_threads", "1"},
                    {"inference_pool_threads", std::to_string(pool_threads)},
                    {"offered_fps", std::to_string(spec.rate_fps)},
                    {"burst", std::to_string(spec.burst)},
                    {"drain_batch", std::to_string(kDrainBatch)},
                    {"max_memo_entries", std::to_string(spec.policy.max_memo_entries)},
                    {"near_dup", spec.policy.near_dup_enabled ? "on" : "off"},
                    {"profile", "experiment"}};

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const size_t frames = static_cast<size_t>(spec.rate_fps * phase_s);
  CreativeTable creatives;
  Samples decode_ms;
  const std::vector<int> sequence =
      flood ? BuildFlood(world, options.seed, frames, &creatives, &decode_ms)
            : BuildBrowse(world, options.seed, frames, &creatives, &decode_ms);
  const std::vector<const Bitmap*> pixels = creatives.Pixels();
  result->MarkRssBaseline();

  std::optional<Deployment> deployment = Deploy(ExperimentProfile(), *pixels[0], result);
  if (!deployment) {
    return;
  }
  AdClassifier& classifier = *deployment->classifier;
  const std::vector<float> reference = ReferenceProbabilities(classifier, pixels);
  CheckOracle(classifier, pixels, reference, kOracleFrames, result);
  classifier.ResetStats();

  AsyncRun untraced(classifier, creatives, reference, sequence, spec, nullptr, nullptr, result);
  untraced.Run();
  result->attempted += static_cast<int64_t>(sequence.size());
  result->failed += untraced.stats().shed + classifier.stats().alloc_failovers;

  const Samples paint_ms = untraced.PaintMs();
  if (!options.trace) {
    const Samples decision_ms = untraced.DecisionMs();
    MetricSet& m = result->e2e;
    AddSetupAndMemory(*deployment, result);
    m.AddPercentile("paint_overhead_ms_p50", paint_ms, 0.5);
    m.AddPercentile("paint_overhead_ms_p90", paint_ms, 0.9);
    m.AddPercentile("decision_ms_p50", decision_ms, 0.5);
    m.AddPercentile("decision_ms_p90", decision_ms, 0.9);
    return;
  }
  result->layer.Add("core.classified_fps",
                    static_cast<double>(untraced.classified) / untraced.wall_s(),
                    static_cast<size_t>(untraced.classified));

  Tracer tracer;
  SplitClassifier split(classifier);
  AsyncRun traced(classifier, creatives, reference, sequence, spec, &split, &tracer, result);
  traced.Run();

  MetricSet& m = result->layer;
  const ClassifierStats& stats = traced.stats();
  const double offered = static_cast<double>(sequence.size());
  auto pct = [&](int64_t count) { return 100.0 * static_cast<double>(count) / offered; };
  int64_t admitted = 0;
  for (const AsyncRun::Frame& f : traced.frames()) {
    admitted += f.disposition == SubmitDisposition::kAdmitted ? 1 : 0;
  }
  m.AddPercentile("img.decode_ms_p50", decode_ms, 0.5);
  Samples kpx;
  for (int id : sequence) {
    const Bitmap& b = creatives.at(id).pixels;
    kpx.Add(static_cast<double>(b.width()) * b.height() / 1000.0);
  }
  m.Add("img.frame_kpx_mean", kpx.Mean(), kpx.n());
  m.AddPercentile("img.resize_u8_ms_p50", traced.resize_ms, 0.5);
  m.AddPercentile("img.resize_u8_ms_p99", traced.resize_ms, 0.99);
  m.AddPercentile("img.average_hash_ms_p50", traced.Merged(&AsyncRun::PaintSamples::average_hash_ms),
                  0.5);
  m.AddPercentile("base.hash_ms_p50", traced.Merged(&AsyncRun::PaintSamples::hash_ms), 0.5);
  AddForwardMetrics(classifier, traced.forward_ms, result);
  m.AddPercentile("core.classify_batch_ms_per_image_p50", untraced.batch_ms_per_image, 0.5);
  m.Add("core.alloc_failovers", static_cast<double>(classifier.stats().alloc_failovers));
  int64_t agree = 0;
  for (int id : sequence) {
    agree += (reference[static_cast<size_t>(id)] >= 0.5f) == creatives.at(id).is_ad ? 1 : 0;
  }
  m.Add("core.block_accuracy_pct", pct(agree), sequence.size());
  const std::map<std::string, Samples> self = tracer.SelfTimesMs();
  m.AddPercentile("core.self_ms_p50", SelfOf(self, "classify_batch"), 0.5);

  const Samples submit_ms = traced.Merged(&AsyncRun::PaintSamples::submit_ms);
  m.AddPercentile("serve.submit_ms_p50", submit_ms, 0.5);
  m.AddPercentile("serve.submit_ms_p99", submit_ms, 0.99);
  m.Add("serve.l1_hit_pct", pct(stats.cache_hits), sequence.size());
  m.Add("serve.l2_hit_pct", pct(stats.near_dup_hits), sequence.size());
  m.Add("serve.l2_disagree_pct",
        stats.near_dup_hits > 0 ? 100.0 * static_cast<double>(traced.l2_disagree) /
                                      static_cast<double>(stats.near_dup_hits)
                                : 0.0,
        static_cast<size_t>(stats.near_dup_hits));
  m.Add("serve.coalesced_pct", pct(stats.coalesced), sequence.size());
  m.Add("serve.admitted_pct", pct(admitted), sequence.size());
  m.Add("serve.shed_pct", pct(stats.shed), sequence.size());
  m.Add("serve.evicted", static_cast<double>(stats.evicted));
  m.AddPercentile("serve.queue_wait_ms_p50", traced.queue_wait_ms, 0.5);
  m.AddPercentile("serve.queue_wait_ms_p99", traced.queue_wait_ms, 0.99);
  m.Add("serve.batch_size_mean", traced.batch_size.Mean(), traced.batch_size.n());
  m.Add("serve.drain_busy_pct",
        100.0 * static_cast<double>(traced.drain_busy_ns) / (traced.wall_s() * 1e9));
  m.AddPercentile("serve.complete_batch_ms_p50", traced.complete_ms, 0.5);

  m.Add("bench.offered_fps", offered / traced.wall_s());
  m.AddPercentile("bench.gen_late_ms_p99", traced.Merged(&AsyncRun::PaintSamples::late_ms), 0.99);
  m.Add("bench.trace_overhead_pct",
        ExcessPct(traced.PaintMs().Percentile(0.5), paint_ms.Percentile(0.5)));
  m.Add("trace.spans", static_cast<double>(tracer.size()));
  tracer.WriteJson(options.out_dir + "/TRACE_" + options.workload + ".json", options.workload);

  const std::vector<const Bitmap*> sample(pixels.begin(),
                                          pixels.begin() + std::min<size_t>(24, pixels.size()));
  AddGatherMetrics(classifier, sample, result);
}

}  // namespace percival::frame_path

#endif  // PERCIVAL_FRAME_PATH_ASYNC_WORKLOADS_H_
