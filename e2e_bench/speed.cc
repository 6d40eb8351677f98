#include "speed.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <memory_resource>
#include <utility>

namespace e2e {

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double MedianOf(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : (static_cast<double>(values[n / 2 - 1]) +
                       static_cast<double>(values[n / 2])) /
                          2;
}

}  // namespace

SpeedTimeline::SpeedTimeline(std::vector<KernelSample> samples)
    : samples_(std::move(samples)) {
  const size_t n = samples_.size();
  if (n == 0) {
    return;
  }
  // Gap j lies between samples j and j + 1; a single sample has one gap.
  const size_t gaps = std::max<size_t>(1, n - 1);
  for (size_t j = 0; j < gaps; ++j) {
    const size_t lo = j + 1 >= kNeighbours ? j + 1 - kNeighbours : 0;
    const size_t hi = std::min(n, j + 1 + kNeighbours);
    std::vector<int64_t> around;
    for (size_t i = lo; i < hi; ++i) {
      around.push_back(samples_[i].kernel_ns);
    }
    scale_.push_back(kReferenceNs / std::max(1.0, MedianOf(around)));
  }
  cumulative_.push_back(0);
  for (size_t j = 0; j + 1 < n; ++j) {
    cumulative_.push_back(
        cumulative_[j] +
        static_cast<double>(samples_[j + 1].at_ns - samples_[j].at_ns) *
            scale_[j]);
  }
}

double SpeedTimeline::Reference(int64_t at_ns) const {
  if (samples_.empty()) {
    return static_cast<double>(at_ns);
  }
  auto after = std::upper_bound(
      samples_.begin(), samples_.end(), at_ns,
      [](int64_t at, const KernelSample& sample) { return at < sample.at_ns; });
  // Before the first sample, extrapolate back from it with the first gap.
  const size_t j = after == samples_.begin()
                       ? 0
                       : static_cast<size_t>(after - samples_.begin()) - 1;
  const double scale = scale_[std::min(j, scale_.size() - 1)];
  return cumulative_[j] +
         static_cast<double>(at_ns - samples_[j].at_ns) * scale;
}

double SpeedTimeline::Normalize(const Interval& interval) const {
  return Reference(interval.end_ns) - Reference(interval.start_ns);
}

double SpeedTimeline::MedianKernelNs() const {
  std::vector<int64_t> times;
  for (const KernelSample& sample : samples_) {
    times.push_back(sample.kernel_ns);
  }
  return times.empty() ? 0 : MedianOf(std::move(times));
}

namespace {

// A fixed mix of the work the DOM and protocol code does, with none of its
// code: sorting a shuffled array (branchy compares, mispredictions), then
// building and searching a red-black tree (node-by-node pointer chasing).
// The tree's nodes come from a monotonic buffer over a preallocated pool, so
// no change to the program or to the global allocator can move the kernel.
// Of the kernels tried, these two tracked the workloads' own slowdowns on a
// shared host most closely.
class ReferenceKernel {
 public:
  ReferenceKernel()
      : shuffled_(kSortItems), scratch_(kSortItems), keys_(2 * kTreeItems),
        pool_(kPoolBytes) {
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto draw = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<uint32_t>(x);
    };
    for (uint32_t& item : shuffled_) {
      item = draw();
    }
    for (uint32_t& key : keys_) {
      key = draw();
    }
  }

  // One run; returns its CPU time.
  int64_t Run() {
    const int64_t start = CpuNs();
    std::copy(shuffled_.begin(), shuffled_.end(), scratch_.begin());
    scratch_[0] ^= salt_;
    std::sort(scratch_.begin(), scratch_.end());
    uint32_t sum = scratch_[kSortItems / 2];
    {
      std::pmr::monotonic_buffer_resource arena(
          pool_.data(), pool_.size(), std::pmr::null_memory_resource());
      std::pmr::map<uint32_t, uint32_t> tree(&arena);
      for (size_t i = 0; i < kTreeItems; ++i) {
        tree.emplace(keys_[i] ^ salt_, static_cast<uint32_t>(i));
      }
      for (size_t i = kTreeItems; i < 2 * kTreeItems; ++i) {
        auto it = tree.lower_bound(keys_[i]);
        sum += it == tree.end() ? 1 : it->second;
      }
    }
    salt_ = salt_ * 0x9E3779B9u + sum + 1;  // next run sorts and inserts anew
    return CpuNs() - start;
  }

 private:
  static constexpr size_t kSortItems = 4096;
  static constexpr size_t kTreeItems = 1024;
  static constexpr size_t kPoolBytes = 256 * 1024;  // > kTreeItems nodes
  std::vector<uint32_t> shuffled_;
  std::vector<uint32_t> scratch_;
  std::vector<uint32_t> keys_;
  std::vector<std::byte> pool_;
  uint32_t salt_ = 1;
};

struct ReferenceState {
  std::unique_ptr<ReferenceKernel> kernel;  // null until EnableReference()
  int64_t kernel_total_ns = 0;
  int64_t last_at_ns = 0;
  std::vector<KernelSample> samples;
};

ReferenceState& State() {
  static ReferenceState state;
  return state;
}

}  // namespace

int64_t NowNs() { return CpuNs() - State().kernel_total_ns; }

void EnableReference() {
  ReferenceState& state = State();
  if (state.kernel == nullptr) {
    state.kernel = std::make_unique<ReferenceKernel>();
    state.last_at_ns = NowNs() - kSampleEveryNs;  // sample on the first tick
  }
}

void TickReference() {
  ReferenceState& state = State();
  if (state.kernel == nullptr) {
    return;
  }
  const int64_t now = NowNs();
  if (now - state.last_at_ns < kSampleEveryNs) {
    return;
  }
  const int64_t start = CpuNs();
  const int64_t kernel_ns = state.kernel->Run();
  state.samples.push_back(KernelSample{now, kernel_ns});
  state.last_at_ns = now;
  // Everything from `start` on, the two clock reads included, is hidden.
  state.kernel_total_ns += CpuNs() - start;
}

SpeedTimeline ReferenceTimeline() { return SpeedTimeline(State().samples); }

}  // namespace e2e
