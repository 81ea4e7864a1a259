// In-memory span recording and the order statistics bench_pipeline reports.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer's public API (no instrumentation inside the library): a name, start
// and end on the steady clock in nanoseconds, the index of the span that
// caused it, and a request id (the durability-barrier id). They stay in a
// preallocated vector while a rep runs and are written out when the
// benchmark ends.
#ifndef BQS_BENCH_PIPELINE_TRACE_H_
#define BQS_BENCH_PIPELINE_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bqs::pipeline {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr int32_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< Static string: the layer boundary crossed.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = kNoParent;  ///< Index into the same span vector.
  uint32_t request = 0;        ///< Barrier id the work belongs to.
};

/// Append-only span log. Add records a span timed by the caller and
/// returns its index; a parent whose end is not known yet is added with
/// its start and closed once its children are in.
class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint32_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t span, int64_t end_ns) {
    spans_[static_cast<std::size_t>(span)].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (clipped to the span, overlaps counted
/// once). Grandchildren are accounted inside their own parent.
inline std::vector<int64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// 1-based nearest rank of the `percent`-th percentile of `n` samples:
/// ceil(percent * n / 100), computed in integers so 99% of 1000 is 990.
inline std::size_t NearestRank(std::size_t n, unsigned percent) {
  return std::max<std::size_t>(1, (percent * n + 99) / 100);
}

/// Samples strictly beyond the nearest-rank percentile. A percentile is
/// reported only when at least ten samples lie beyond it.
inline std::size_t SamplesBeyond(std::size_t n, unsigned percent) {
  return n == 0 ? 0 : n - NearestRank(n, percent);
}

/// Nearest-rank percentile (sorts `samples` in place). 0 when empty.
inline double Percentile(std::vector<double>& samples, unsigned percent) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(samples.size(), percent) - 1];
}

/// Median (mean of the middle pair for even sizes). 0 when empty.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

}  // namespace bqs::pipeline

#endif  // BQS_BENCH_PIPELINE_TRACE_H_
