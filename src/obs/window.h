// Sliding sim-time windows over the cumulative instruments of metrics.h.
//
// Everything in MetricsRegistry is cumulative-since-start, which answers
// "how much, ever" but not "is this healthy *right now*". This header adds
// the windowed layer the health plane (slo.h, /host/health, rcb_top) reads:
// a ring of fixed sim-time buckets that rolls counts through a fine window
// (the *fast* window, default 60 × 1 s) into a coarse window behind it (the
// *slow* window, default 5 min total).
//
// Determinism contract: windows advance lazily from the sim timestamps
// passed to every call — there are no timers and no wall-clock reads, so a
// windowed snapshot is a pure function of the simulated event schedule and
// two identical runs produce bit-identical window state (health_test pins
// this with a property test against a naive reference window).
//
// Granularity contract: the trailing edge of each window is bucket-aligned,
// so a "60 s" fast window covers between 59 and 60 one-second buckets of
// history plus the in-progress bucket, and the slow window covers between
// coarse_buckets and coarse_buckets+1 coarse periods. The edges are
// deterministic; they are not sub-bucket exact.
#ifndef SRC_OBS_WINDOW_H_
#define SRC_OBS_WINDOW_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcb {
namespace obs {

// Geometry of a two-tier window. The fast window spans
// fine_buckets × fine_bucket_us; expired fine buckets fold into coarse
// buckets of fine_buckets × fine_bucket_us each, and the slow window spans
// the fast window plus coarse_buckets coarse periods.
struct WindowConfig {
  int64_t fine_bucket_us = 1'000'000;  // 1 s buckets
  size_t fine_buckets = 60;            // fast window: 60 s
  size_t coarse_buckets = 4;           // slow window: 60 s + 4 × 60 s = 5 min

  int64_t fast_window_us() const {
    return fine_bucket_us * static_cast<int64_t>(fine_buckets);
  }
  int64_t slow_window_us() const {
    return fast_window_us() * static_cast<int64_t>(coarse_buckets + 1);
  }
};

// A compact geometry for per-session always-on tracking: 12 × 5 s fine
// buckets + 4 × 60 s coarse buckets keeps the same 1 min fast / 5 min slow
// spans at a quarter of the slots.
WindowConfig CompactWindowConfig();

// The shared ring engine: `lanes` parallel uint64 accumulators advanced in
// lockstep (a WindowedCounter is one lane; a WindowedHistogram is one lane
// per value bucket plus count and sum lanes). All mutating and reading calls
// take the current sim time and advance the ring first; sim time passed to a
// window must never decrease (earlier timestamps clamp to the current
// bucket).
class SlidingWindow {
 public:
  SlidingWindow(size_t lanes, const WindowConfig& config);

  void Add(size_t lane, uint64_t delta, int64_t sim_now_us);

  // Sum of `lane` over the fast (fine-ring) or slow (fine + coarse) window.
  uint64_t FastSum(size_t lane, int64_t sim_now_us);
  uint64_t SlowSum(size_t lane, int64_t sim_now_us);

  // All-lane variants amortize the ring walk; `out` is resized to lanes().
  void FastSums(int64_t sim_now_us, std::vector<uint64_t>* out);
  void SlowSums(int64_t sim_now_us, std::vector<uint64_t>* out);

  size_t lanes() const { return lanes_; }
  const WindowConfig& config() const { return config_; }

 private:
  void AdvanceTo(int64_t sim_now_us);
  void FoldFine(int64_t fine_index, size_t slot);
  bool CoarseLive(size_t slot) const;

  WindowConfig config_;
  size_t lanes_;
  // fine_[slot * lanes_ + lane]; slot = absolute fine index % fine_buckets.
  std::vector<uint64_t> fine_;
  std::vector<uint64_t> coarse_;
  // Absolute fine index each fine slot currently holds (-1 = never used) and
  // absolute coarse index per coarse slot, for staleness checks on read.
  std::vector<int64_t> coarse_index_;
  int64_t current_fine_ = -1;  // absolute index of the in-progress bucket
};

// Windowed event counter. Either add deltas directly (Add) or layer it over
// an existing cumulative counter (SampleCumulative) — the registry counters
// and AgentMetrics fields stay the source of truth and the window records
// the increments between deterministic sampling sites.
class WindowedCounter {
 public:
  explicit WindowedCounter(const WindowConfig& config = WindowConfig());

  void Add(uint64_t delta, int64_t sim_now_us) {
    window_.Add(0, delta, sim_now_us);
  }
  // Records cumulative - <previous cumulative> into the current bucket.
  // A cumulative value below the previous one (a reset) re-bases silently.
  void SampleCumulative(uint64_t cumulative, int64_t sim_now_us);

  uint64_t FastSum(int64_t sim_now_us) { return window_.FastSum(0, sim_now_us); }
  uint64_t SlowSum(int64_t sim_now_us) { return window_.SlowSum(0, sim_now_us); }

  const WindowConfig& config() const { return window_.config(); }

 private:
  SlidingWindow window_;
  uint64_t last_sample_ = 0;
};

// Windowed fixed-bucket histogram mirroring obs::Histogram's bucket math
// (ascending inclusive upper bounds + implicit overflow bucket) with
// windowed count/sum/percentiles, plus optional per-bucket trace exemplars:
// each value bucket remembers the trace id of its worst recent observation,
// so a windowed p99 spike links to a retained causal trace (DESIGN.md §16).
class WindowedHistogram {
 public:
  struct Exemplar {
    int64_t value = 0;
    int64_t sim_time_us = 0;
    std::string trace_id;
  };

  WindowedHistogram(std::vector<int64_t> bounds,
                    const WindowConfig& config = WindowConfig());

  // Records `value`; a non-empty `trace_id` also offers it as the bucket's
  // exemplar (kept when it is the worst seen, or when the incumbent is older
  // than exemplar_ttl_us — so exemplars decay toward *recent* worst cases
  // whose traces are still in the bounded span ring).
  void Record(int64_t value, int64_t sim_now_us,
              std::string_view trace_id = {});

  uint64_t FastCount(int64_t sim_now_us);
  uint64_t SlowCount(int64_t sim_now_us);
  uint64_t FastSum(int64_t sim_now_us);

  // Windowed count of observations strictly above `threshold` — the "bad
  // event" feed for latency SLO burn rates. Threshold bucketing is exact
  // only when `threshold` is one of the bounds; otherwise the smallest
  // bound >= threshold is used.
  uint64_t FastCountOver(int64_t threshold, int64_t sim_now_us);
  uint64_t SlowCountOver(int64_t threshold, int64_t sim_now_us);

  // p in (0, 100]; linear interpolation inside the rank's bucket, 0 when the
  // window is empty. Overflow-bucket ranks report the last bound.
  double FastPercentile(double p, int64_t sim_now_us);

  // Exemplars for every bucket that currently holds one, bucket-ascending.
  // `bound` is the bucket's inclusive upper bound (INT64_MAX for overflow).
  struct BoundExemplar {
    int64_t bound = 0;
    Exemplar exemplar;
  };
  std::vector<BoundExemplar> Exemplars() const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  void set_exemplar_ttl_us(int64_t ttl_us) { exemplar_ttl_us_ = ttl_us; }

  // A short bound set (12 bounds, 100 µs … ~200 s) for always-on per-session
  // latency tracking; coarser than LatencyBoundsUs() but fixed-size cheap.
  static const std::vector<int64_t>& CompactLatencyBoundsUs();

 private:
  uint64_t CountOver(int64_t threshold, bool fast, int64_t sim_now_us);

  std::vector<int64_t> bounds_;
  SlidingWindow window_;  // lanes: one per bucket, then count, then sum
  size_t count_lane_;
  size_t sum_lane_;
  std::vector<Exemplar> exemplars_;  // one slot per bucket; empty trace = none
  int64_t exemplar_ttl_us_ = 30'000'000;  // 30 s sim
};

}  // namespace obs
}  // namespace rcb

#endif  // SRC_OBS_WINDOW_H_
