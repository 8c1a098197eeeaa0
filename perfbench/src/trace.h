// Tracing kept in the benchmark's own files: a timing decorator for the
// dataset's DistanceFunction (the metrics/kernels layer) and an in-memory
// span log for the calls the benchmark makes into the other layers. Only
// the traced run (--trace 1) uses either; the end-to-end numbers come from
// the untraced run.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/striped.h"
#include "metrics/distance.h"

namespace perfbench {

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Counts every call and times one call in kSampleEvery, so the clock reads
/// do not swamp a ~10 ns vector distance. Each timed sample has the cost of
/// one clock read, measured at construction, taken off.
class TimingDistance final : public spb::DistanceFunction {
 public:
  static constexpr uint64_t kSampleEvery = 16;

  struct Totals {
    uint64_t calls = 0;
    uint64_t timed_calls = 0;
    uint64_t timed_ns = 0;
    uint64_t cutoff_calls = 0;
    uint64_t cutoff_pruned = 0;

    Totals operator-(const Totals& o) const {
      return {calls - o.calls, timed_calls - o.timed_calls,
              timed_ns - o.timed_ns, cutoff_calls - o.cutoff_calls,
              cutoff_pruned - o.cutoff_pruned};
    }
    double ns_per_call() const {
      return timed_calls == 0 ? 0.0 : double(timed_ns) / double(timed_calls);
    }
  };

  /// `base` must outlive the decorator.
  explicit TimingDistance(const spb::DistanceFunction* base)
      : base_(base), clock_ns_(ClockCost()) {}

  double Distance(spb::BlobRef a, spb::BlobRef b) const override {
    return Timed([&] { return base_->Distance(a, b); });
  }
  double DistanceWithCutoff(spb::BlobRef a, spb::BlobRef b,
                            double tau) const override {
    const double d =
        Timed([&] { return base_->DistanceWithCutoff(a, b, tau); });
    cutoff_calls_.fetch_add(1, std::memory_order_relaxed);
    if (d > tau) cutoff_pruned_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }
  double max_distance() const override { return base_->max_distance(); }
  bool is_discrete() const override { return base_->is_discrete(); }
  std::string name() const override { return base_->name(); }

  Totals totals() const {
    return {calls_.load(), timed_calls_.load(), timed_ns_.load(),
            cutoff_calls_.load(), cutoff_pruned_.load()};
  }

 private:
  template <class F>
  double Timed(F&& f) const {
    calls_.fetch_add(1, std::memory_order_relaxed);
    thread_local uint64_t tick = 0;
    if (++tick % kSampleEvery != 0) return f();
    const uint64_t t0 = NowNs();
    const double d = f();
    const uint64_t ns = NowNs() - t0;
    timed_ns_.fetch_add(ns > clock_ns_ ? ns - clock_ns_ : 0,
                        std::memory_order_relaxed);
    timed_calls_.fetch_add(1, std::memory_order_relaxed);
    return d;
  }

  // Median of back-to-back clock reads.
  static uint64_t ClockCost() {
    std::vector<uint64_t> v(4096);
    for (uint64_t& x : v) {
      const uint64_t t0 = NowNs();
      x = NowNs() - t0;
    }
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  }

  const spb::DistanceFunction* base_;
  const uint64_t clock_ns_;
  mutable spb::StripedU64 calls_;
  mutable spb::StripedU64 timed_calls_;
  mutable spb::StripedU64 timed_ns_;
  mutable spb::StripedU64 cutoff_calls_;
  mutable spb::StripedU64 cutoff_pruned_;
};

/// One span: a call into a layer, made on behalf of operation `op`. Spans
/// of one operation share `op`, so the three replays of an operation (wire,
/// Submit, direct) can be paired.
struct Span {
  const char* name;
  uint64_t op;
  uint64_t start_ns;
  uint64_t end_ns;
  double us() const { return double(end_ns - start_ns) / 1e3; }
};

/// Spans kept in memory until the run ends. Threads append under a mutex;
/// the benchmark records a few thousand spans per run.
class SpanLog {
 public:
  void Add(const char* name, uint64_t op, uint64_t start_ns, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, op, start_ns, end_ns});
  }
  /// Durations in microseconds of every span called `name`, by op id.
  std::vector<std::pair<uint64_t, double>> ByOp(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<uint64_t, double>> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back({s.op, s.us()});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
