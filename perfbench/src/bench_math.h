// The benchmark's own arithmetic: order statistics with their sample
// counts, an in-memory span recorder with self-time, and the failure /
// SLO accounting behind the reported shares. Header-only so the unit
// tests exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace perfbench {

// ---- Order statistics -------------------------------------------------------

/// Rank-interpolated quantile of an ascending-sorted sample: position
/// q*(n-1) between order statistics (numpy's default "linear" method).
/// Empty input gives 0.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// A timing distribution as the report states it: median, the tail
/// percentile, and how many samples back them.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  /// Samples strictly above the p99 estimate. The choosing-metrics rule
  /// asks for at least ten before a p99 is trusted; fewer means the p99
  /// is effectively the maximum and the report says so.
  std::size_t beyond_p99 = 0;
};

inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.50);
  s.p99 = quantile_sorted(values, 0.99);
  s.max = values.back();
  s.beyond_p99 = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), s.p99));
  return s;
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

/// Median latency per time window, then the median across windows: a
/// stall moves one window's figure, not the run's. Windows with fewer
/// than `min_samples` samples (warm-in, tail) are left out.
struct WindowedMedian {
  std::size_t windows = 0;  ///< windows that met min_samples
  std::size_t samples = 0;  ///< samples in those windows
  double p50 = 0.0;         ///< median over windows of the window median
};

inline WindowedMedian median_of_windows(const std::vector<double>& values,
                                        const std::vector<std::size_t>& window,
                                        std::size_t min_samples) {
  std::vector<std::vector<double>> by_window;
  for (std::size_t i = 0; i < values.size() && i < window.size(); ++i) {
    if (window[i] >= by_window.size()) by_window.resize(window[i] + 1);
    by_window[window[i]].push_back(values[i]);
  }
  WindowedMedian w;
  std::vector<double> p50s;
  for (std::vector<double>& v : by_window) {
    if (v.size() < min_samples || v.empty()) continue;
    w.samples += v.size();
    p50s.push_back(median(std::move(v)));
  }
  w.windows = p50s.size();
  w.p50 = median(p50s);
  return w;
}

/// Mean of the middle of a sample: the lowest and highest `trim` share
/// of the values are dropped first (at least one value is kept).
inline double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto cut = std::min(
      static_cast<std::size_t>(std::clamp(trim, 0.0, 0.5) *
                               static_cast<double>(values.size())),
      (values.size() - 1) / 2);
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Host speed relative to the reference host, from timed runs of a fixed
/// reference chunk: the trimmed mean of nominal/measured over samples
/// taken at a steady cadence, i.e. the time-average of the speed. A
/// wall time on this host times this factor is the time the same work
/// takes on the reference host. No samples give 1.
inline double relative_speed(const std::vector<double>& chunk_ms,
                             double nominal_chunk_ms) {
  if (chunk_ms.empty()) return 1.0;
  std::vector<double> speed;
  speed.reserve(chunk_ms.size());
  for (const double ms : chunk_ms) speed.push_back(nominal_chunk_ms / ms);
  return trimmed_mean(std::move(speed), 0.1);
}

// ---- Spans ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal: recording never allocates it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< spans of one request share this id
};

/// In-memory span recorder for one thread. Disabled, every call is a
/// branch and nothing is stored, so the untraced run pays nothing.
/// Spans are kept until the run ends and then written out in one go.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span as a child of the innermost open span. Returns its
  /// index, or -1 when tracing is off.
  int open(const char* name, std::uint64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII scope for open/close.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t request = 0)
        : t_(t), id_(t.open(name, request)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Length of the union of [start, end) intervals.
inline std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent).
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    kids[static_cast<std::size_t>(s.parent)].emplace_back(
        std::max(s.start_ns, p.start_ns), std::min(s.end_ns, p.end_ns));
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered_ns(kids[i]);
  return self;
}

/// Total duration of every span called `name`, in seconds.
inline double total_s(const std::vector<Span>& spans, const char* name) {
  std::int64_t ns = 0;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  return static_cast<double>(ns) * 1e-9;
}

// ---- Accounting -------------------------------------------------------------

/// Operations attempted and failed across a run; the result line reports
/// both and their ratio is the failed share.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t attempts, std::uint64_t failures) {
    attempted += attempts;
    failed += failures;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Open-loop SLO accounting. A classification is *due* for every frame
/// submitted once its stream's window is full; it meets the SLO only when
/// it is delivered no later than slo after the frame was due. Every way
/// of not meeting it — ring drops, deadline drops, rejects, results that
/// arrive late or never — counts as a miss.
struct SloTally {
  std::uint64_t due = 0;
  std::uint64_t on_time = 0;

  void deliver(double due_to_result_ms, double slo_ms) {
    if (due_to_result_ms <= slo_ms) ++on_time;
  }
  std::uint64_t missed() const { return due > on_time ? due - on_time : 0; }
  double miss_share() const {
    return due == 0 ? 0.0
                    : static_cast<double>(missed()) / static_cast<double>(due);
  }
};

}  // namespace perfbench
