// The benchmark's measurement clock and its machine-speed reference.
//
// On a shared host the speed the benchmark gets drifts by tens of percent
// over seconds (other tenants' load on shared caches, memory bandwidth and
// clock frequency), and thread CPU time drifts with it. So an untraced run
// interleaves a fixed reference kernel with the workload, about every
// kSampleEveryNs of CPU time, and reports every time in reference-machine
// nanoseconds: each stretch of the workload is scaled by kReferenceNs over
// the median time the kernel took around that stretch. A change to the
// program moves the workload's time and not the kernel's, so it moves the
// figures; a slow second of the machine moves both, and mostly cancels.
//
// Kept free of the RCB libraries so ledger_test.cc can pin the arithmetic.
#ifndef E2E_BENCH_SPEED_H_
#define E2E_BENCH_SPEED_H_

#include <cstdint>
#include <vector>

namespace e2e {

// The kernel's median time on the 4-vCPU Intel Xeon virtual machine the
// benchmark was calibrated on; reported times are in that machine's time.
inline constexpr double kReferenceNs = 400e3;
inline constexpr int64_t kSampleEveryNs = 25'000'000;
// Kernel runs on each side of a stretch whose median sets its speed.
inline constexpr int kNeighbours = 7;

// CPU time of the calling thread in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
// The whole simulation runs on one thread, so the time between two readings
// is the CPU cost of the work in between; time the machine gives to other
// processes is not counted. Duration's whole-microsecond resolution is never
// used for a measurement.
int64_t CpuNs();

// Monotonic wall clock in nanoseconds. Used only to end a run after its
// --seconds, never for a measurement.
int64_t WallNs();

struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One kernel run: where it sat on the measurement clock, and its CPU time.
struct KernelSample {
  int64_t at_ns = 0;
  int64_t kernel_ns = 0;
};

// Maps measurement-clock stretches to reference nanoseconds. Between two
// consecutive kernel samples the speed is constant: kReferenceNs over the
// median of the kNeighbours samples on each side of that gap; before the
// first and after the last sample, the nearest gap's speed holds. With no
// samples at all, time passes unscaled.
class SpeedTimeline {
 public:
  explicit SpeedTimeline(std::vector<KernelSample> samples);

  // Reference nanoseconds of [start_ns, end_ns] (measurement clock).
  double Normalize(const Interval& interval) const;
  // Median kernel time over the whole run (0 without samples).
  double MedianKernelNs() const;

 private:
  double Reference(int64_t at_ns) const;  // reference ns from 0 to at_ns

  std::vector<KernelSample> samples_;
  std::vector<double> scale_;       // reference ns per clock ns, per gap
  std::vector<double> cumulative_;  // reference ns up to each sample
};

// The measurement clock: thread CPU time minus the time spent in the
// reference kernel, so the kernel never lands inside a measured stretch.
// One per process; the benchmark is single-threaded.
int64_t NowNs();

// Starts sampling the reference kernel (the untraced run). Builds the
// kernel's table first.
void EnableReference();

// Runs the kernel when kSampleEveryNs of NowNs() has passed since its last
// run; does nothing unless EnableReference() was called. Call it only
// where the kernel's cache footprint is harmless: between updates, or
// between event-loop steps.
void TickReference();

// Every kernel sample so far, as a timeline.
SpeedTimeline ReferenceTimeline();

}  // namespace e2e

#endif  // E2E_BENCH_SPEED_H_
