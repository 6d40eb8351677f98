// Helpers of the end-to-end update benchmark that carry its reporting rules:
// the percentile rule, metric-name validation, the in-memory span recorder
// with self-time accounting, the per-update cost ledger residual, and the
// result line the benchmark prints last.
//
// Kept free of the RCB libraries so ledger_test.cc can pin the arithmetic.
#ifndef E2E_BENCH_LEDGER_H_
#define E2E_BENCH_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "speed.h"

namespace e2e {

// Nearest-rank percentile (q in (0, 1)) of `samples`, reported only when at
// least ten samples lie strictly beyond the chosen rank; nullopt otherwise.
// With n samples the rank is ceil(q * n), so p99 needs n >= 1000.
std::optional<double> Percentile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);

// A metric name: 1-64 characters from [A-Za-z0-9_.-], starting with a letter
// or digit.
bool IsValidMetricName(std::string_view name);

// ---------------------------------------------------------------------------
// Spans. One span per call the benchmark makes into a layer: name, start,
// end, parent span, and the id of the update it belongs to. Spans stay in
// memory until the run ends.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name = 0;  // index into SpanRecorder::names()
  uint32_t parent = kNoParent;
  uint64_t update = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  uint32_t NameId(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span now; returns its index for End() and as a parent.
  uint32_t Begin(uint32_t name, uint32_t parent, uint64_t update);
  void End(uint32_t span);
  // Records a span whose bounds were measured elsewhere.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t update,
               int64_t start_ns, int64_t end_ns);

  // Span duration minus the time its direct children cover.
  std::vector<int64_t> SelfTimesNs() const;

  // One JSON object per span, one per line.
  std::string ToJsonl() const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, uint32_t name, uint32_t parent,
             uint64_t update)
      : recorder_(recorder), span_(recorder->Begin(name, parent, update)) {}
  ~ScopedSpan() { recorder_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return span_; }

 private:
  SpanRecorder* recorder_;
  uint32_t span_;
};

// ---------------------------------------------------------------------------
// Per-update cost ledger: host and participant self times summed per update,
// and what the untraced end-to-end mean leaves unattributed (event loop,
// network simulation, agent dispatch, observability).
// ---------------------------------------------------------------------------

struct Ledger {
  double host_us = 0;
  double participant_us = 0;
  double unattributed_us = 0;
  double unattributed_share = 0;  // of the untraced mean; 0 when mean <= 0
};

Ledger ComputeLedger(double untraced_mean_us, double host_us,
                     double participant_us);

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on one
// line, every value printed with full precision.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2e

#endif  // E2E_BENCH_LEDGER_H_
