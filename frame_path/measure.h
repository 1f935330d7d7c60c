// Measurement primitives of the frame_path benchmark: samples with refused
// percentiles, the canonical metric lists every workload reports, and the
// in-memory span recorder of the traced run.
#ifndef PERCIVAL_FRAME_PATH_MEASURE_H_
#define PERCIVAL_FRAME_PATH_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace percival::frame_path {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// One measured quantity, in the order it was measured. Percentiles are
// refused (NaN) unless at least 10 samples lie beyond them: a p99 needs 1000
// samples, a p90 100, a p50 20. A percentile is the median of the same
// percentile over up to kChunks consecutive chunks of the run, each chunk
// still holding 10 samples beyond it, so a few seconds of interference from
// other tenants of the host move it less than they move a whole-run figure.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t n() const { return values_.size(); }
  bool Supports(double q) const {
    return static_cast<double>(values_.size()) * (1.0 - q) >= 10.0 - 1e-9;
  }
  double Percentile(double q) const {
    if (values_.empty() || !Supports(q)) {
      return NAN;
    }
    const size_t chunks = std::clamp<size_t>(
        static_cast<size_t>(static_cast<double>(values_.size()) * (1.0 - q) / 10.0 + 1e-9), 1,
        kChunks);
    std::vector<double> per_chunk;
    for (size_t c = 0; c < chunks; ++c) {
      std::vector<double> sorted(values_.begin() + static_cast<std::ptrdiff_t>(c * n() / chunks),
                                 values_.begin() +
                                     static_cast<std::ptrdiff_t>((c + 1) * n() / chunks));
      std::sort(sorted.begin(), sorted.end());
      const double pos = q * static_cast<double>(sorted.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, sorted.size() - 1);
      per_chunk.push_back(sorted[lo] +
                          (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]));
    }
    return MedianOf(per_chunk);
  }
  // The plain median, for small repeat counts (set-up, per-layer reps).
  double Median() const { return values_.empty() ? NAN : MedianOf(values_); }
  double Sum() const {
    double total = 0.0;
    for (double v : values_) {
      total += v;
    }
    return total;
  }
  double Mean() const { return values_.empty() ? 0.0 : Sum() / static_cast<double>(n()); }

 private:
  static constexpr size_t kChunks = 5;

  static double MedianOf(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
  }

  std::vector<double> values_;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

// End-to-end metrics, reported by every workload from an untraced run.
// Their per-workload meaning is in README.md.
inline const std::vector<MetricSpec>& EndToEndSpec() {
  static const std::vector<MetricSpec> spec = {
      {"setup_s", "s"},
      {"peak_rss_growth_mb", "MB"},
      {"paint_overhead_ms_p50", "ms"},
      {"paint_overhead_ms_p90", "ms"},
      {"decision_ms_p50", "ms"},
      {"decision_ms_p90", "ms"},
  };
  return spec;
}

// Per-layer metrics, reported by every traced run; a layer a workload does
// not exercise reports 0. Names are module names.
inline const std::vector<MetricSpec>& PerLayerSpec() {
  static const std::vector<MetricSpec> spec = {
      {"renderer.render_ms_p50", "ms"},
      {"renderer.render_overhead_pct_p50", "%"},
      {"renderer.raster_ms_p50", "ms"},
      {"renderer.self_ms_p50", "ms"},
      {"renderer.decode_ms_per_page", "ms"},
      {"renderer.classify_ms_per_page", "ms"},
      {"renderer.frames_per_page", "count"},
      {"img.decode_ms_p50", "ms"},
      {"img.frame_kpx_mean", "kpx"},
      {"img.resize_u8_ms_p50", "ms"},
      {"img.resize_u8_ms_p99", "ms"},
      {"img.average_hash_ms_p50", "ms"},
      {"base.hash_ms_p50", "ms"},
      {"nn.forward_ms_p50", "ms"},
      {"nn.forward_ms_p99", "ms"},
      {"nn.forward_gmacs", "GMAC/s"},
      {"nn.gather_bytes_per_forward", "B"},
      {"nn.arena_high_water_kb", "KiB"},
      {"nn.requant_links", "count"},
      {"core.classify_ms_p50", "ms"},
      {"core.classify_ms_p99", "ms"},
      {"core.self_ms_p50", "ms"},
      {"core.classify_batch_ms_per_image_p50", "ms"},
      {"core.alloc_failovers", "count"},
      {"core.block_accuracy_pct", "%"},
      {"core.classified_fps", "1/s"},
      {"serve.submit_ms_p50", "ms"},
      {"serve.submit_ms_p99", "ms"},
      {"serve.l1_hit_pct", "%"},
      {"serve.l2_hit_pct", "%"},
      {"serve.l2_disagree_pct", "%"},
      {"serve.coalesced_pct", "%"},
      {"serve.admitted_pct", "%"},
      {"serve.shed_pct", "%"},
      {"serve.evicted", "count"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.drain_busy_pct", "%"},
      {"serve.complete_batch_ms_p50", "ms"},
      {"bench.offered_fps", "1/s"},
      {"bench.gen_late_ms_p99", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.self_sum_vs_untraced_pct", "%"},
      {"trace.spans", "count"},
  };
  return spec;
}

struct Metric {
  double value = 0.0;
  size_t n = 0;          // samples behind the value (0 for counts and ratios)
  bool refused = false;  // a percentile with fewer than 10 samples beyond it
};

// Metrics by name. Emission walks a spec list, so the set reported is the
// same on every workload; a name outside the spec is a bench bug.
class MetricSet {
 public:
  void Add(const std::string& name, double value, size_t n = 0) {
    Metric& m = metrics_[name];
    m.value = std::isfinite(value) ? value : 0.0;
    m.n = n;
    m.refused = !std::isfinite(value);
  }
  void AddPercentile(const std::string& name, const Samples& samples, double q) {
    Add(name, samples.Percentile(q), samples.n());
    // An empty sample is a layer the workload does not exercise, not a refusal.
    metrics_[name].refused = samples.n() > 0 && !samples.Supports(q);
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

// A field of /proc/self/status in MB: "VmRSS" is the resident set now,
// "VmHWM" its peak since the process started or the peak mark was reset.
inline double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = field + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;  // kB
    }
  }
  return NAN;
}

// Everything one workload run reports.
struct RunResult {
  MetricSet e2e;
  MetricSet layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t errors = 0;
  std::vector<std::string> error_messages;
  std::vector<std::pair<std::string, std::string>> config;
  double rss_baseline_mb = NAN;

  void Error(const std::string& message) {
    ++errors;
    if (error_messages.size() < 16) {
      error_messages.push_back(message);
    }
  }

  // Called once a workload's inputs are built: peak_rss_growth_mb is the
  // peak resident set from here on minus the resident set here, so the
  // pre-decoded inputs a workload holds do not hide what set-up and serving
  // add. Resetting the kernel's peak mark keeps an earlier transient peak
  // out; where the reset is refused the peak is the whole process's.
  void MarkRssBaseline() {
    std::ofstream clear_refs("/proc/self/clear_refs");
    clear_refs << "5";  // 5: reset the peak resident-set size
    clear_refs.flush();
    config.emplace_back("rss_peak_window", clear_refs ? "after inputs" : "whole process");
    rss_baseline_mb = StatusMb("VmRSS");
  }
};

// In-memory span recorder for the traced run. A span has a name, a start
// and end on the steady clock, the span that caused it, and the frame it
// belongs to; the whole record is written out once the run ends.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int32_t parent = -1;
    int64_t frame = -1;
  };

  Tracer() { spans_.reserve(1 << 18); }

  int32_t Open(const char* name, int32_t parent, int64_t frame) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, now, -1, parent, frame});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent, int64_t frame) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, frame});
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  // Self time of every closed span, by name: the span's duration minus the
  // part of its interval that its children cover (children of one span may
  // overlap when they run on different threads).
  std::map<std::string, Samples> SelfTimesMs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.end_ns >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<std::string, Samples> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) {
        continue;
      }
      std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t run_start = 0;
      int64_t run_end = 0;
      for (const auto& [start, end] : kids) {
        const int64_t a = std::max(start, s.start_ns);
        const int64_t b = std::min(end, s.end_ns);
        if (b <= a) {
          continue;
        }
        if (a > run_end) {
          covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      covered += run_end - run_start;
      out[s.name].Add(NsToMs(s.end_ns - s.start_ns - covered));
    }
    return out;
  }

  bool WriteJson(const std::string& path, const std::string& workload) const {
    const std::map<std::string, Samples> self = SelfTimesMs();
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    char line[320];
    out << "{\"workload\": \"" << workload << "\",\n\"self_ms\": {";
    bool first = true;
    for (const auto& [name, samples] : self) {
      std::snprintf(line, sizeof(line), "%s\"%s\": {\"n\": %zu, \"p50\": %.6f, \"total\": %.6f}",
                    first ? "" : ", ", name.c_str(), samples.n(), samples.Median(),
                    samples.Sum());
      out << line;
      first = false;
    }
    out << "},\n\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %d, "
                    "\"frame\": %lld}%s\n",
                    s.name, static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - origin) / 1e3, s.parent,
                    static_cast<long long>(s.frame), i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    out.flush();
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction; inert without
// a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent, int64_t frame)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Open(name, parent, frame) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace percival::frame_path

#endif  // PERCIVAL_FRAME_PATH_MEASURE_H_
