// Deterministic metrics for the RCB reproduction.
//
// The paper's evaluation (§5) is a measurement story; this registry makes
// every number the repro produces exportable and regression-checkable. Three
// instrument kinds — counters, gauges, fixed-bucket histograms — are grouped
// into families and rendered in the Prometheus text exposition format
// (served by RcbAgent's /metrics endpoint).
//
// Determinism contract: every instrument carries a *provenance*.
//   * kSim  — the value is a pure function of the simulated event schedule
//             (event counts, simulated durations, payload bytes). Two
//             identical simulated runs produce bit-identical values.
//   * kWall — the value comes from the real CPU clock (the paper's M5/M6
//             style measurements: Fig. 3 generation stages, Fig. 5 apply
//             stages, HMAC verification). It varies across runs and machines.
// RenderOptions::include_wall=false renders only the reproducible subset,
// which must be byte-identical across identical runs (obs_test asserts it).
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rcb {
namespace obs {

enum class Provenance { kSim, kWall };

std::string_view ProvenanceName(Provenance provenance);

// Monotonically increasing count, callback-backed: the counted struct field
// (AgentMetrics, ObjectCache stats) stays the source of truth and the
// registry reads it at render time.
class Counter {
 public:
  uint64_t value() const { return read_(); }

 private:
  friend class MetricsRegistry;
  std::function<uint64_t()> read_;
};

// Point-in-time value, callback-backed like Counter.
class Gauge {
 public:
  double value() const { return read_(); }

 private:
  friend class MetricsRegistry;
  std::function<double()> read_;
};

// Fixed-bucket histogram over int64 values (microseconds, bytes, counts).
// Bucket math is plain integer counting, so sim-provenance histograms are
// bit-reproducible. Percentiles are estimated by linear interpolation inside
// the bucket containing the rank, clamped to the observed [min, max].
class Histogram {
 public:
  // `bounds` are ascending inclusive upper bounds; values above the last
  // bound land in an implicit overflow bucket.
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t value);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // p in (0, 100]. Returns 0 for an empty histogram.
  double Percentile(double p) const;
  double p50() const { return Percentile(50.0); }
  double p95() const { return Percentile(95.0); }
  double p99() const { return Percentile(99.0); }

  const std::vector<int64_t>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  // {start, start*factor, ...} — `n` bounds for latency/size scales.
  static std::vector<int64_t> ExponentialBounds(int64_t start, double factor,
                                                size_t n);

 private:
  size_t BucketOf(int64_t value) const;

  std::vector<int64_t> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Preset bucket scales: 1µs…~100s for CPU/simulated durations, 64B…~64MB
// for payload sizes, 1…~16k for small event counts (patch ops per patch).
const std::vector<int64_t>& LatencyBoundsUs();
const std::vector<int64_t>& SizeBoundsBytes();
const std::vector<int64_t>& CountBounds();

struct RenderOptions {
  // When false, families with Provenance::kWall are omitted — the remaining
  // body is the deterministic subset (/metrics?view=sim).
  bool include_wall = true;
};

class MetricsRegistry;

// One registry of a combined exposition. `label` (a `key="value"` body, empty
// for none) is put ahead of the labels of every series the registry renders.
struct RenderPart {
  const MetricsRegistry* registry;
  std::string label;
};

// Renders `parts` as one exposition: a family's # HELP/# TYPE once, where it
// first appears, then its series from every part in part order. A family
// whose kind, help or provenance disagrees with its first appearance is
// left out of the later parts, so the body stays a valid exposition.
std::string RenderPrometheus(const std::vector<RenderPart>& parts,
                             const RenderOptions& options = {});

// One `name{labels} value` line per series of registry.ForEachSimValue:
// what /status and /host/status list in their #metrics element.
std::string RenderSimValueLines(const MetricsRegistry& registry);

// Families keyed by (name, labels). Registration rejects (returns nullptr):
//   * an invalid metric name,
//   * a (name, labels) pair registered twice,
//   * a name reused with a different kind, help text, or provenance.
// Rendering walks families in registration order, so the exposition body is
// deterministic for a deterministic registration + update sequence.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // `labels` is a pre-rendered Prometheus label body without braces, e.g.
  // `stage="clone"`; empty for an unlabelled instrument.
  Counter* AddCallbackCounter(std::string_view name, std::string_view help,
                              Provenance provenance,
                              std::function<uint64_t()> read,
                              std::string_view labels = "");
  Gauge* AddCallbackGauge(std::string_view name, std::string_view help,
                          Provenance provenance, std::function<double()> read,
                          std::string_view labels = "");
  Histogram* AddHistogram(std::string_view name, std::string_view help,
                          Provenance provenance, std::vector<int64_t> bounds,
                          std::string_view labels = "");

  // The one-part case of the combined obs::RenderPrometheus.
  std::string RenderPrometheus(const RenderOptions& options = {}) const;

  // Lookup for tests/tools; nullptr when absent or of another kind.
  const Counter* FindCounter(std::string_view name,
                             std::string_view labels = "") const;
  const Gauge* FindGauge(std::string_view name,
                         std::string_view labels = "") const;
  const Histogram* FindHistogram(std::string_view name,
                                 std::string_view labels = "") const;

  // Calls `visit(name, labels, value)` for every series of every
  // sim-provenance counter and gauge family, in registration order, with the
  // value as the exposition renders it.
  void ForEachSimValue(
      const std::function<void(const std::string& name,
                               const std::string& labels,
                               const std::string& value)>& visit) const;

  size_t family_count() const { return families_.size(); }

  static bool IsValidMetricName(std::string_view name);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    Kind kind;
    Provenance provenance;
    std::vector<Instrument> instruments;
  };

  // Returns the family for (name, kind, provenance, help), creating it if
  // new; nullptr on any collision rule violation (including a duplicate
  // (name, labels) instrument).
  Family* PrepareFamily(std::string_view name, std::string_view help,
                        Kind kind, Provenance provenance,
                        std::string_view labels);
  const Instrument* FindInstrument(std::string_view name, Kind kind,
                                   std::string_view labels) const;

  friend std::string RenderPrometheus(const std::vector<RenderPart>& parts,
                                      const RenderOptions& options);

  std::vector<std::unique_ptr<Family>> families_;
};

}  // namespace obs
}  // namespace rcb

#endif  // SRC_OBS_METRICS_H_
