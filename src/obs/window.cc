#include "src/obs/window.h"

#include <algorithm>
#include <limits>

namespace rcb {
namespace obs {

WindowConfig CompactWindowConfig() {
  WindowConfig config;
  config.fine_bucket_us = 5'000'000;  // 5 s buckets
  config.fine_buckets = 12;           // fast window: 60 s
  config.coarse_buckets = 4;          // slow window: 5 min
  return config;
}

SlidingWindow::SlidingWindow(size_t lanes, const WindowConfig& config)
    : config_(config),
      lanes_(lanes),
      fine_(config.fine_buckets * lanes, 0),
      coarse_(config.coarse_buckets * lanes, 0),
      coarse_index_(config.coarse_buckets, -1) {}

void SlidingWindow::FoldFine(int64_t fine_index, size_t slot) {
  int64_t coarse_idx = fine_index / static_cast<int64_t>(config_.fine_buckets);
  size_t coarse_slot = static_cast<size_t>(
      coarse_idx % static_cast<int64_t>(config_.coarse_buckets));
  uint64_t* coarse_row = &coarse_[coarse_slot * lanes_];
  if (coarse_index_[coarse_slot] != coarse_idx) {
    std::fill(coarse_row, coarse_row + lanes_, 0);
    coarse_index_[coarse_slot] = coarse_idx;
  }
  const uint64_t* fine_row = &fine_[slot * lanes_];
  for (size_t lane = 0; lane < lanes_; ++lane) {
    coarse_row[lane] += fine_row[lane];
  }
}

void SlidingWindow::AdvanceTo(int64_t sim_now_us) {
  int64_t target = sim_now_us / config_.fine_bucket_us;
  if (target <= current_fine_) {
    return;  // same bucket, or a (clamped) earlier timestamp
  }
  if (current_fine_ < 0) {
    current_fine_ = target;
    return;
  }
  int64_t steps = target - current_fine_;
  int64_t total_span = static_cast<int64_t>(
      config_.fine_buckets * (config_.coarse_buckets + 1));
  if (steps > total_span) {
    // Everything currently held is out of even the slow window.
    std::fill(fine_.begin(), fine_.end(), 0);
    std::fill(coarse_.begin(), coarse_.end(), 0);
    std::fill(coarse_index_.begin(), coarse_index_.end(), -1);
    current_fine_ = target;
    return;
  }
  for (int64_t index = current_fine_ + 1; index <= target; ++index) {
    // Claiming the slot for `index` evicts the bucket that lived there one
    // ring revolution ago; its counts age out of the fast window and fold
    // into the coarse period that covered its time.
    size_t slot = static_cast<size_t>(
        index % static_cast<int64_t>(config_.fine_buckets));
    int64_t evicted = index - static_cast<int64_t>(config_.fine_buckets);
    uint64_t* fine_row = &fine_[slot * lanes_];
    if (evicted >= 0) {
      FoldFine(evicted, slot);
    }
    std::fill(fine_row, fine_row + lanes_, 0);
  }
  current_fine_ = target;
}

bool SlidingWindow::CoarseLive(size_t slot) const {
  if (coarse_index_[slot] < 0) {
    return false;
  }
  int64_t current_coarse =
      current_fine_ / static_cast<int64_t>(config_.fine_buckets);
  return current_coarse - coarse_index_[slot] <=
         static_cast<int64_t>(config_.coarse_buckets);
}

void SlidingWindow::Add(size_t lane, uint64_t delta, int64_t sim_now_us) {
  AdvanceTo(sim_now_us);
  size_t slot = static_cast<size_t>(
      current_fine_ % static_cast<int64_t>(config_.fine_buckets));
  fine_[slot * lanes_ + lane] += delta;
}

uint64_t SlidingWindow::FastSum(size_t lane, int64_t sim_now_us) {
  AdvanceTo(sim_now_us);
  uint64_t sum = 0;
  for (size_t slot = 0; slot < config_.fine_buckets; ++slot) {
    sum += fine_[slot * lanes_ + lane];
  }
  return sum;
}

uint64_t SlidingWindow::SlowSum(size_t lane, int64_t sim_now_us) {
  uint64_t sum = FastSum(lane, sim_now_us);
  for (size_t slot = 0; slot < config_.coarse_buckets; ++slot) {
    if (CoarseLive(slot)) {
      sum += coarse_[slot * lanes_ + lane];
    }
  }
  return sum;
}

void SlidingWindow::FastSums(int64_t sim_now_us, std::vector<uint64_t>* out) {
  AdvanceTo(sim_now_us);
  out->assign(lanes_, 0);
  for (size_t slot = 0; slot < config_.fine_buckets; ++slot) {
    const uint64_t* row = &fine_[slot * lanes_];
    for (size_t lane = 0; lane < lanes_; ++lane) {
      (*out)[lane] += row[lane];
    }
  }
}

void SlidingWindow::SlowSums(int64_t sim_now_us, std::vector<uint64_t>* out) {
  FastSums(sim_now_us, out);
  for (size_t slot = 0; slot < config_.coarse_buckets; ++slot) {
    if (!CoarseLive(slot)) {
      continue;
    }
    const uint64_t* row = &coarse_[slot * lanes_];
    for (size_t lane = 0; lane < lanes_; ++lane) {
      (*out)[lane] += row[lane];
    }
  }
}

WindowedCounter::WindowedCounter(const WindowConfig& config)
    : window_(1, config) {}

void WindowedCounter::SampleCumulative(uint64_t cumulative,
                                       int64_t sim_now_us) {
  uint64_t delta = cumulative >= last_sample_ ? cumulative - last_sample_ : 0;
  last_sample_ = cumulative;
  window_.Add(0, delta, sim_now_us);
}

WindowedHistogram::WindowedHistogram(std::vector<int64_t> bounds,
                                     const WindowConfig& config)
    : bounds_(std::move(bounds)),
      window_(bounds_.size() + 3, config),
      count_lane_(bounds_.size() + 1),
      sum_lane_(bounds_.size() + 2),
      exemplars_(bounds_.size() + 1) {}

const std::vector<int64_t>& WindowedHistogram::CompactLatencyBoundsUs() {
  // 100 µs … ~100 s: 13 power-of-~3.16 bounds, coarse but fixed-size cheap.
  // 20 ms (the sync SLO target) is an exact bound so FastCountOver(20000) is
  // exact, not bucket-rounded.
  static const std::vector<int64_t> bounds = {
      100,     316,      1000,     3162,      10000,      20000,     31623,
      100000,  316228,   1000000,  3162278,   10000000,   100000000};
  return bounds;
}

void WindowedHistogram::Record(int64_t value, int64_t sim_now_us,
                               std::string_view trace_id) {
  size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  window_.Add(bucket, 1, sim_now_us);
  window_.Add(count_lane_, 1, sim_now_us);
  window_.Add(sum_lane_, value < 0 ? 0 : static_cast<uint64_t>(value),
              sim_now_us);
  if (!trace_id.empty()) {
    Exemplar& slot = exemplars_[bucket];
    bool stale = !slot.trace_id.empty() &&
                 sim_now_us - slot.sim_time_us >= exemplar_ttl_us_;
    if (slot.trace_id.empty() || stale || value >= slot.value) {
      slot.value = value;
      slot.sim_time_us = sim_now_us;
      slot.trace_id.assign(trace_id.data(), trace_id.size());
    }
  }
}

uint64_t WindowedHistogram::FastCount(int64_t sim_now_us) {
  return window_.FastSum(count_lane_, sim_now_us);
}

uint64_t WindowedHistogram::SlowCount(int64_t sim_now_us) {
  return window_.SlowSum(count_lane_, sim_now_us);
}

uint64_t WindowedHistogram::FastSum(int64_t sim_now_us) {
  return window_.FastSum(sum_lane_, sim_now_us);
}

uint64_t WindowedHistogram::CountOver(int64_t threshold, bool fast,
                                      int64_t sim_now_us) {
  // Observations in buckets whose entire range is above `threshold`: exact
  // when the threshold is a bound (values <= bound land at or below it).
  size_t first_over = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), threshold) -
      bounds_.begin());
  std::vector<uint64_t> sums;
  if (fast) {
    window_.FastSums(sim_now_us, &sums);
  } else {
    window_.SlowSums(sim_now_us, &sums);
  }
  uint64_t over = 0;
  for (size_t bucket = first_over + 1; bucket <= bounds_.size(); ++bucket) {
    over += sums[bucket];
  }
  return over;
}

uint64_t WindowedHistogram::FastCountOver(int64_t threshold,
                                          int64_t sim_now_us) {
  return CountOver(threshold, true, sim_now_us);
}

uint64_t WindowedHistogram::SlowCountOver(int64_t threshold,
                                          int64_t sim_now_us) {
  return CountOver(threshold, false, sim_now_us);
}

double WindowedHistogram::FastPercentile(double p, int64_t sim_now_us) {
  std::vector<uint64_t> sums;
  window_.FastSums(sim_now_us, &sums);
  uint64_t total = sums[count_lane_];
  if (total == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(total));
  rank = std::clamp<uint64_t>(rank, 1, total);
  uint64_t cumulative = 0;
  for (size_t bucket = 0; bucket <= bounds_.size(); ++bucket) {
    uint64_t in_bucket = sums[bucket];
    if (in_bucket == 0) {
      continue;
    }
    if (cumulative + in_bucket >= rank) {
      if (bucket == bounds_.size()) {
        return static_cast<double>(bounds_.back());  // overflow: last bound
      }
      double lower =
          bucket == 0 ? 0.0 : static_cast<double>(bounds_[bucket - 1]);
      double upper = static_cast<double>(bounds_[bucket]);
      double within = static_cast<double>(rank - cumulative) /
                      static_cast<double>(in_bucket);
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(bounds_.back());
}

std::vector<WindowedHistogram::BoundExemplar> WindowedHistogram::Exemplars()
    const {
  std::vector<BoundExemplar> out;
  for (size_t bucket = 0; bucket < exemplars_.size(); ++bucket) {
    if (exemplars_[bucket].trace_id.empty()) {
      continue;
    }
    BoundExemplar entry;
    entry.bound = bucket < bounds_.size()
                      ? bounds_[bucket]
                      : std::numeric_limits<int64_t>::max();
    entry.exemplar = exemplars_[bucket];
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace obs
}  // namespace rcb
