#include "src/core/classifier.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <new>
#include <thread>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/stopwatch.h"
#include "src/img/resize.h"
#include "src/nn/activation.h"
#include "src/nn/gemm.h"
#include "src/nn/serialize.h"

namespace percival {

namespace {

// Per-thread u8 preprocessing buffer shared by Classify and ClassifyBatch
// (one thread never interleaves the two mid-classification). Previously two
// separate thread_local vectors ratcheted up to the largest frame/batch
// ever seen and kept that capacity for the thread's lifetime; sizing now
// goes through SizeCodeBuffer, which releases the excess once the required
// size drops below half the held capacity.
std::vector<uint8_t>& ThreadCodeBuffer() {
  thread_local std::vector<uint8_t> codes;
  return codes;
}

void SizeCodeBuffer(std::vector<uint8_t>& codes, size_t needed) {
  if (codes.capacity() > 2 * needed) {
    std::vector<uint8_t>(needed).swap(codes);
  } else {
    codes.resize(needed);
  }
}

// Caller time for the sans-IO ServingEngine: the engine never reads a
// clock, so every adapter call stamps it with the steady clock here.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

size_t ClassifierCodeBufferCapacity() { return ThreadCodeBuffer().capacity(); }

AdClassifier::AdClassifier(Network network, const PercivalNetConfig& config, float threshold)
    : config_(config), network_(std::move(network)), threshold_(threshold) {
  LogSimdPathOnce();
  // Frozen deployment: eval mode stops every forward from capturing
  // backward state (ReLU masks, pool argmax, per-conv input copies).
  network_.SetTrainingMode(false);
  // Reserve the constructing thread's forward workspace now; a first
  // classification issued from another thread warms that thread's arena
  // organically (the plan is thread-local, see Network::PlanForward).
  network_.PlanForward(config_.InputShape());
  RefreshU8DirectLocked();
}

void AdClassifier::RefreshU8DirectLocked() {
  u8_direct_active_ = use_u8_direct_ && precision_ == Precision::kInt8 &&
                      network_.AcceptsQuantizedInput();
  if (!u8_direct_active_) {
    return;
  }
  // The classifier always feeds pixels / 255, so the network input lives in
  // [0, 1]. Pin that (or the artifact's calibrated range, when it shipped
  // one) as the first conv's input calibration: BOTH pipelines — u8-direct
  // and float-then-quantize — then derive one shared quantization from it,
  // which is what makes their classifications bit-identical. The
  // quantization itself is NOT cached here: snapshots re-derive it from the
  // conv's live calibration (see InputQuantLocked), so changing the
  // calibration later — e.g. a capture batch run on network() — keeps both
  // pipelines in lockstep instead of silently splitting them.
  float lo = 0.0f;
  float hi = 1.0f;
  if (!network_.layer(0).InputCalibration(&lo, &hi)) {
    const ActivationCalibration unit_range{0.0f, 1.0f, true};
    network_.layer(0).ConsumeCalibration(&unit_range, 1);
  }
  LogLine(std::string("classifier: u8-direct preprocessing on (") +
          network_.KernelPlanSummary() + ")");
}

ActivationQuant AdClassifier::InputQuantLocked() const {
  // [0, 1] matches the pin RefreshU8DirectLocked installs, so the fallback
  // only applies if someone cleared the calibration through network().
  float lo = 0.0f;
  float hi = 1.0f;
  network_.layer(0).InputCalibration(&lo, &hi);
  return ComputeActivationQuant(lo, hi);
}

void AdClassifier::SetPrecision(Precision precision) {
  std::lock_guard<std::mutex> lock(mutex_);
  precision_ = precision;
  network_.SetPrecision(precision);
  network_.PlanForward(config_.InputShape());
  RefreshU8DirectLocked();
}

Precision AdClassifier::precision() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return precision_;
}

void AdClassifier::set_use_u8_direct(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  use_u8_direct_ = enabled;
  RefreshU8DirectLocked();
}

bool AdClassifier::u8_direct_active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return u8_direct_active_;
}

void AdClassifier::SetServingPolicy(const ServingPolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
}

ServingPolicy AdClassifier::serving_policy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_;
}

bool AdClassifier::LoadWeightsWithRetry(const std::string& path) {
  // The retry/backoff SCHEDULE is sans-IO ServingEngine state driven on
  // caller time; this adapter contributes what the engine refuses to own:
  // the file reads (with their fault points), the stage-then-commit into
  // the deployed network, and real sleeps until the engine's next wake.
  ServingEngine schedule(serving_policy());
  schedule.RequestReload(path, NowNs());
  while (schedule.reload_active()) {
    if (schedule.Step(NowNs()) == EngineAction::kNeedArtifact) {
      std::vector<uint8_t> bytes;
      ReadFileBytes(schedule.ArtifactPath(), &bytes);
      // CommitWeightBytes stages and validates the whole artifact before
      // committing anything, so every failed attempt — including the last
      // — leaves the previous good network serving.
      const bool committed = !bytes.empty() && CommitWeightBytes(bytes);
      schedule.ProvideArtifact(bytes, committed, NowNs());
      continue;
    }
    const int64_t wake = schedule.next_wake_ns();
    const int64_t now = NowNs();
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
  }
  {
    // Mirror the schedule's retry count into this classifier's stats —
    // reload observability stays where operators already look for it.
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.reload_retries += schedule.stats().reload_retries;
  }
  if (!schedule.reload_succeeded()) {
    LogLine("classifier: reload of '" + path + "' failed after " +
            std::to_string(std::max(0, serving_policy().reload_max_retries) + 1) +
            " attempt(s); keeping the previous weights");
  }
  return schedule.reload_succeeded();
}

bool AdClassifier::LoadWeights(const std::string& path) {
  // One read, then peek + deserialize the SAME bytes (CommitWeightBytes):
  // re-opening the file to sniff the version would race a concurrent
  // artifact swap.
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return false;
  }
  return CommitWeightBytes(bytes);
}

bool AdClassifier::CommitWeightBytes(const std::vector<uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!DeserializeWeights(network_, bytes)) {
    return false;
  }
  // A v2 artifact runs on the int8 engine it was quantized for — keyed on
  // the file header, not on whether its payloads survived the clamp check:
  // a wider-clamp artifact on a narrower build still runs int8, just
  // requantized from the dequantized floats (the deserializer logs that).
  precision_ =
      PeekWeightsVersion(bytes) == 2 ? Precision::kInt8 : Precision::kFloat32;
  network_.SetPrecision(precision_);
  network_.PlanForward(config_.InputShape());
  RefreshU8DirectLocked();
  return true;
}

AdClassifier::U8DirectSnapshot AdClassifier::SnapshotU8Direct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  U8DirectSnapshot snapshot;
  snapshot.active = u8_direct_active_;
  if (snapshot.active) {
    const ActivationQuant quant = InputQuantLocked();
    snapshot.scale = quant.scale;
    snapshot.zero_point = quant.zero_point;
  }
  return snapshot;
}

bool AdClassifier::U8SnapshotStaleLocked(const U8DirectSnapshot& snapshot) const {
  if (!u8_direct_active_) {
    return true;
  }
  const ActivationQuant quant = InputQuantLocked();
  return quant.scale != snapshot.scale || quant.zero_point != snapshot.zero_point;
}

QuantizedTensorView AdClassifier::MakeU8View(const U8DirectSnapshot& snapshot,
                                             const uint8_t* codes, int batch) const {
  QuantizedTensorView view;
  view.data = codes;
  view.shape = config_.InputShape(batch);
  view.scale = snapshot.scale;
  view.zero_point = snapshot.zero_point;
  return view;
}

ClassifyResult AdClassifier::Classify(const Bitmap& image) {
  Stopwatch timer;
  // Snapshot the u8-direct state so preprocessing can run outside the
  // network lock (mirrors the float path, which also preprocesses first).
  U8DirectSnapshot u8 = SnapshotU8Direct();
  Tensor input;
  // Reused per thread: steady-state u8-direct classification allocates
  // neither a float staging tensor nor a fresh code buffer.
  std::vector<uint8_t>& codes = ThreadCodeBuffer();
  if (u8.active) {
    SizeCodeBuffer(codes, static_cast<size_t>(config_.InputShape().Elements()));
    BitmapToTensorU8Into(image, config_.input_size, config_.input_channels, u8.scale,
                         u8.zero_point, codes.data());
  } else {
    input = BitmapToTensor(image, config_.input_size, config_.input_channels);
  }
  ClassifyResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (u8.active && U8SnapshotStaleLocked(u8)) {
      // Precision or calibration flipped between the snapshot and the lock
      // (rare): the prepared codes are stale — fall back to the float path.
      u8.active = false;
      input = BitmapToTensor(image, config_.input_size, config_.input_channels);
    }
    try {
      Tensor logits;
      if (u8.active) {
        logits = network_.ForwardQuantized(MakeU8View(u8, codes.data(), 1));
        ++stats_.u8_direct;
      } else {
        logits = network_.Forward(input);
      }
      Softmax softmax;
      Tensor probs = softmax.Forward(logits);
      // Class 1 == ad by convention throughout the repo.
      result.ad_probability = probs.at(0, 0, 0, 1);
    } catch (const std::bad_alloc&) {
      // Forward scratch allocation failed: fail OPEN. Rendering an
      // unclassified ad is recoverable (the next visit re-classifies);
      // blocking content — or crashing the host browser — is not. The
      // tensors and arena unwind cleanly, so the next forward starts fresh.
      ++stats_.alloc_failovers;
      result.ad_probability = 0.0f;
    }
    result.is_ad = result.ad_probability >= threshold_;
    result.latency_ms = timer.ElapsedMs();
    ++stats_.classified;
    if (result.is_ad) {
      ++stats_.blocked;
    }
    if (policy_.classify_deadline_ms > 0.0 &&
        result.latency_ms > policy_.classify_deadline_ms) {
      ++stats_.deadline_misses;  // soft: the result above still stands
    }
    stats_.total_latency_ms += result.latency_ms;
  }
  return result;
}

std::vector<ClassifyResult> AdClassifier::ClassifyBatch(
    const std::vector<const Bitmap*>& images) {
  const int batch = static_cast<int>(images.size());
  if (batch == 0) {
    return {};
  }
  Stopwatch preprocess_timer;

  U8DirectSnapshot u8 = SnapshotU8Direct();

  // Stack the preprocessed samples into one NHWC tensor — or, on the
  // u8-direct path, one NHWC uint8 code buffer (no float staging tensor).
  // Resize dominates for large creatives, so the batch fans out over the
  // pool one image per item, each charged kResizeMacsPerElement per output
  // element (the measured weight, see resize.h). Each image's own row bands
  // then run inline on the thread that took it; a batch too small to fan
  // out (a single image) bands its rows over the pool instead.
  const int64_t sample_elements = static_cast<int64_t>(config_.input_size) *
                                  config_.input_size * config_.input_channels;
  const int64_t resize_macs = sample_elements * kResizeMacsPerElement;
  Tensor input;
  std::vector<uint8_t>& codes = ThreadCodeBuffer();
  auto preprocess_u8 = [&] {
    SizeCodeBuffer(codes,
                   static_cast<size_t>(batch) * static_cast<size_t>(sample_elements));
    InferenceParallelFor(batch, resize_macs, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        BitmapToTensorU8Into(*images[static_cast<size_t>(i)], config_.input_size,
                             config_.input_channels, u8.scale, u8.zero_point,
                             codes.data() + i * sample_elements);
      }
    });
  };
  auto preprocess_float = [&] {
    input = Tensor(batch, config_.input_size, config_.input_size, config_.input_channels);
    InferenceParallelFor(batch, resize_macs, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        BitmapToTensorInto(*images[static_cast<size_t>(i)], config_.input_size,
                           config_.input_channels, input.SampleData(static_cast<int>(i)));
      }
    });
  };
  if (u8.active) {
    preprocess_u8();
  } else {
    preprocess_float();
  }
  const double preprocess_ms = preprocess_timer.ElapsedMs();

  std::vector<ClassifyResult> results(static_cast<size_t>(batch));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (u8.active && U8SnapshotStaleLocked(u8)) {
      // See Classify(): the snapshot went stale — redo in float.
      u8.active = false;
      preprocess_float();
    }
    // The forward timer starts after the lock is acquired: overlapping
    // batches queueing on the network mutex must not bill their wait as
    // classification latency.
    Stopwatch forward_timer;
    Tensor probs;
    bool failed_open = false;
    try {
      Tensor logits;
      if (u8.active) {
        logits = network_.ForwardQuantized(MakeU8View(u8, codes.data(), batch));
        stats_.u8_direct += batch;
      } else {
        logits = network_.Forward(input);
      }
      Softmax softmax;
      probs = softmax.Forward(logits);
    } catch (const std::bad_alloc&) {
      // See Classify(): the whole batch fails open rather than crashing or
      // blocking — each frame renders and re-classifies on its next visit.
      stats_.alloc_failovers += batch;
      failed_open = true;
    }
    const double elapsed = preprocess_ms + forward_timer.ElapsedMs();
    const double per_image = elapsed / batch;
    const bool missed_deadline =
        policy_.classify_deadline_ms > 0.0 && per_image > policy_.classify_deadline_ms;
    for (int i = 0; i < batch; ++i) {
      ClassifyResult& r = results[static_cast<size_t>(i)];
      r.ad_probability = failed_open ? 0.0f : probs.at(i, 0, 0, 1);
      r.is_ad = r.ad_probability >= threshold_;
      r.latency_ms = per_image;
      ++stats_.classified;
      if (r.is_ad) {
        ++stats_.blocked;
      }
      if (missed_deadline) {
        ++stats_.deadline_misses;
      }
    }
    stats_.total_latency_ms += elapsed;
  }
  return results;
}

bool AdClassifier::OnDecodedFrame(const ImageInfo& info, Bitmap& pixels,
                                  const std::string& source_url) {
  (void)source_url;
  if (min_dimension_ > 0 &&
      (info.width < min_dimension_ || info.height < min_dimension_)) {
    return false;
  }
  return Classify(pixels).is_ad;
}

ClassifierStats AdClassifier::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void AdClassifier::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = ClassifierStats{};
}

void AsyncAdClassifier::SetPrimaryHashForTest(HashFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  engine_.SetPrimaryHash(fn);
}

void AsyncAdClassifier::SetServingPolicy(const ServingPolicy& policy) {
  std::lock_guard<std::mutex> lock(mutex_);
  engine_.SetPolicy(policy);
}

ServingPolicy AsyncAdClassifier::serving_policy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.policy();
}

void AsyncAdClassifier::LogDegradeTransitionLocked(bool was_degraded) {
  // The sans-IO engine cannot log (LogLine timestamps would be a hidden
  // wall-clock read), so the adapter narrates its transitions. At trip
  // time the engine's consecutive-miss count equals the policy trip wire
  // and the countdown was just armed, so the message matches what the
  // pre-refactor monolith printed.
  if (was_degraded == engine_.degraded()) {
    return;
  }
  if (engine_.degraded()) {
    LogLine("async classifier: DEGRADED (fail-open) after " +
            std::to_string(engine_.policy().degrade_after_misses) +
            " consecutive over-deadline batches; self-heal in " +
            std::to_string(std::max(1, engine_.policy().recover_after_frames)) +
            " frames");
  } else {
    LogLine("async classifier: degrade state cleared; resuming admission");
  }
}

bool AsyncAdClassifier::OnDecodedFrame(const ImageInfo& info, Bitmap& pixels,
                                       const std::string& source_url) {
  (void)info;
  (void)source_url;
  std::lock_guard<std::mutex> lock(mutex_);
  const bool was_degraded = engine_.degraded();
  const SubmitOutcome outcome = engine_.Submit(pixels, NowNs());
  if (outcome.disposition == SubmitDisposition::kAdmitted) {
    // The engine stored no pixels (caller-owned buffers): retain a copy for
    // the ticket — the renderer recycles the decoded buffer the moment this
    // hook returns — and back the ticket with the copy's stable address.
    auto inserted = buffers_.emplace(outcome.ticket, pixels);
    engine_.ProvidePixels(outcome.ticket, &inserted.first->second);
  }
  LogDegradeTransitionLocked(was_degraded);
  return outcome.is_ad;
}

void AsyncAdClassifier::RunBatch(const EngineBatch& batch) {
  // The forward pass runs unlocked (the inner classifier has its own
  // network mutex): frame intake and other pooled batches proceed
  // meanwhile. Only the report-back touches engine state.
  const std::vector<ClassifyResult> results = inner_.ClassifyBatch(batch.images);
  std::lock_guard<std::mutex> lock(mutex_);
  const bool was_degraded = engine_.degraded();
  engine_.CompleteBatch(batch, results, NowNs());
  for (const uint64_t ticket : batch.tickets) {
    buffers_.erase(ticket);  // the buffer obligation ends with the batch
  }
  LogDegradeTransitionLocked(was_degraded);
}

void AsyncAdClassifier::DrainPending(ThreadPool* pool, int batch_size, double budget_ms) {
  batch_size = std::max(batch_size, 1);
  // The engine runs one drain at a time, so whole drains serialize here
  // (hammer tests drain from many threads at once); a queued drain then
  // picks up whatever the previous one left pending.
  std::lock_guard<std::mutex> drain_guard(drain_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!engine_.BeginDrain(NowNs(), budget_ms)) {
    return;  // nothing pending
  }
  const double budget = engine_.drain_budget_ms();
  const int batches =
      static_cast<int>((engine_.drain_remaining() + static_cast<size_t>(batch_size) - 1) /
                       static_cast<size_t>(batch_size));
  if (budget <= 0.0 && pool != nullptr && batches > 1) {
    // Unbudgeted pooled drain: hand out every batch up front and classify
    // them on the pool — while one batch holds the network lock for its
    // forward pass, others preprocess their bitmaps.
    std::vector<EngineBatch> work;
    work.reserve(static_cast<size_t>(batches));
    for (EngineBatch batch = engine_.BeginBatch(batch_size); !batch.empty();
         batch = engine_.BeginBatch(batch_size)) {
      work.push_back(std::move(batch));
    }
    lock.unlock();
    pool->ParallelFor(static_cast<int>(work.size()),
                      [&](int i) { RunBatch(work[static_cast<size_t>(i)]); });
    return;
  }
  // Budgeted (or serial) drain: the engine checks the budget BETWEEN
  // batches (one batch always runs) and requeues the unprocessed tail at
  // the front of its pending queue when the budget expires.
  while (engine_.Step(NowNs()) == EngineAction::kRunBatch) {
    const EngineBatch batch = engine_.BeginBatch(batch_size);
    lock.unlock();
    RunBatch(batch);
    lock.lock();
  }
}

int64_t AsyncAdClassifier::cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.memo_size();
}

int64_t AsyncAdClassifier::near_dup_cache_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.near_dup_size();
}

int64_t AsyncAdClassifier::pending_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.pending_size();
}

bool AsyncAdClassifier::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.degraded();
}

ClassifierStats AsyncAdClassifier::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_.stats();
}

}  // namespace percival
