// Declarative SLOs with multi-window burn-rate alerting over window.h.
//
// Four objectives cover the per-session health the paper's "practical"
// claim hinges on:
//   * sync_p99          — content sync latency p99 <= target (default 20 ms,
//                         the bench_scale Fig.-style SLO); the bad-event feed
//                         is the windowed count of observations over target
//                         against a 1% budget.
//   * resync_rate       — full-snapshot resyncs per poll (resyncs are the
//                         delta pipeline's failure escape hatch).
//   * auth_failure_rate — rejected request signatures per request.
//   * wasted_poll_ratio — empty polls + expired long polls per poll (the
//                         transport-efficiency SLO; src/transport's parked
//                         long-poll expiries feed it).
//
// Burn rate = (bad events / total events) / budget per window: burn 1.0
// consumes exactly the error budget, sustained. An alert goes active when
// BOTH the fast (1 min) and slow (5 min) windows burn above their thresholds
// — the classic multi-window rule: the slow window filters blips, the fast
// window makes the alert reset promptly once the cause stops. Alert edges
// (inactive -> active) fire the session's FlightRecorder with reason
// "slo_burn_<objective>", so a burst of bad polls freezes one trace+metrics
// dump instead of one per poll.
//
// Everything here is sim-clock pure: SessionHealth state and ToJson output
// are bit-identical across identical simulated runs (health_test pins it,
// scripts/ci.sh check_health double-runs the calm chaos scenario).
#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/window.h"

namespace rcb {
namespace obs {

class FlightRecorder;

enum class HealthScore { kGreen, kDegraded, kUnhealthy };

std::string_view HealthScoreName(HealthScore score);

// sync_p99: latency observations over this are bad events, against a 1%
// budget (a p99 target restated as an error budget).
inline constexpr int64_t kSyncP99TargetUs = 20'000;
inline constexpr double kSyncBadBudget = 0.01;
inline constexpr double kResyncBudget = 0.02;       // resyncs per poll
inline constexpr double kAuthFailureBudget = 0.01;  // auth failures per request
// Multi-window thresholds: fast must burn hot AND slow must burn over
// budget before an alert goes active.
inline constexpr double kFastBurnAlert = 6.0;
inline constexpr double kSlowBurnAlert = 1.0;
// Below this many denominator events in the fast window an objective
// reports burn 0 — a session's first poll can't trip a rate alert.
inline constexpr uint64_t kMinEvents = 8;

struct SloConfig {
  double wasted_poll_budget = 0.90;  // empty/expired polls per poll; classic
                                     // idle polling wastes most polls, so
                                     // only near-total waste alerts
};

struct ObjectiveStatus {
  std::string_view name;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool alerting = false;
};

struct HealthStatus {
  HealthScore score = HealthScore::kGreen;
  // Fast-window sync latency view (microseconds; 0 when the window is empty).
  uint64_t sync_count = 0;
  double sync_p50_us = 0.0;
  double sync_p99_us = 0.0;
  uint64_t fast_polls = 0;
  std::vector<ObjectiveStatus> objectives;
  std::vector<WindowedHistogram::BoundExemplar> exemplars;

  // Worst slow burn across objectives — the host's worst-first sort key.
  double MaxSlowBurn() const;
  std::vector<std::string_view> ActiveAlerts() const;
};

// Cumulative counters sampled into the windows at deterministic event sites
// (the agent samples at the end of every request it handles). Fields mirror
// AgentMetrics; deltas between samples land in the current window bucket.
struct HealthSample {
  uint64_t requests = 0;  // every request the agent handled
  uint64_t polls_received = 0;
  // Empty classic replies plus parked long-polls released empty (the
  // agent composes it; see RcbAgent::HandleRequest).
  uint64_t wasted_polls = 0;
  uint64_t resyncs = 0;
  uint64_t auth_failures = 0;
};

// Always-on per-session health tracker. Fixed-size (compact window geometry,
// compact latency bounds). Not thread-safe; lives on the session's event
// loop like everything else.
class SessionHealth {
 public:
  explicit SessionHealth(const SloConfig& config = SloConfig(),
                         FlightRecorder* flight = nullptr);

  // Content sync latency observation (document update -> content served).
  // `trace_id` (when tracing is on) feeds the bucket exemplar.
  void RecordSyncLatency(int64_t latency_us, int64_t sim_now_us,
                         std::string_view trace_id = {});

  // Folds cumulative counter deltas into the current window bucket, then
  // re-evaluates alerts and fires the flight recorder on rising edges.
  void Sample(const HealthSample& cumulative, int64_t sim_now_us);

  HealthStatus Evaluate(int64_t sim_now_us);

  // {"score":"green",...} — deterministic JSON for /health endpoints and the
  // bench artifacts' health section.
  std::string ToJson(int64_t sim_now_us);

 private:
  enum Objective { kSyncP99, kResyncRate, kAuthFailureRate, kWastedPollRatio };
  static constexpr size_t kObjectives = 4;

  ObjectiveStatus EvaluateObjective(size_t objective, int64_t sim_now_us);
  double Burn(uint64_t bad, uint64_t total, double budget) const;
  void UpdateAlerts(int64_t sim_now_us);

  SloConfig config_;
  FlightRecorder* flight_;
  WindowedHistogram sync_latency_;
  WindowedCounter polls_;
  WindowedCounter wasted_polls_;
  WindowedCounter resyncs_;
  WindowedCounter auth_failures_;
  WindowedCounter requests_;
  bool alert_active_[kObjectives] = {};
};

}  // namespace obs
}  // namespace rcb

#endif  // SRC_OBS_SLO_H_
