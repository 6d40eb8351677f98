#include "src/obs/slo.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/flight_recorder.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace rcb {
namespace obs {
namespace {

constexpr std::string_view kObjectiveNames[] = {
    "sync_p99", "resync_rate", "auth_failure_rate", "wasted_poll_ratio"};

// Shortest deterministic rendering (matches the registry's number style):
// integral values print without a fraction.
std::string Num(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.6g", value);
}

}  // namespace

std::string_view HealthScoreName(HealthScore score) {
  switch (score) {
    case HealthScore::kGreen:
      return "green";
    case HealthScore::kDegraded:
      return "degraded";
    case HealthScore::kUnhealthy:
      return "unhealthy";
  }
  return "unhealthy";
}

double HealthStatus::MaxSlowBurn() const {
  double max_burn = 0.0;
  for (const ObjectiveStatus& objective : objectives) {
    max_burn = std::max(max_burn, objective.slow_burn);
  }
  return max_burn;
}

std::vector<std::string_view> HealthStatus::ActiveAlerts() const {
  std::vector<std::string_view> alerts;
  for (const ObjectiveStatus& objective : objectives) {
    if (objective.alerting) {
      alerts.push_back(objective.name);
    }
  }
  return alerts;
}

SessionHealth::SessionHealth(const SloConfig& config, FlightRecorder* flight)
    : config_(config),
      flight_(flight),
      sync_latency_(WindowedHistogram::CompactLatencyBoundsUs(),
                    CompactWindowConfig()),
      polls_(CompactWindowConfig()),
      wasted_polls_(CompactWindowConfig()),
      resyncs_(CompactWindowConfig()),
      auth_failures_(CompactWindowConfig()),
      requests_(CompactWindowConfig()) {}

void SessionHealth::RecordSyncLatency(int64_t latency_us, int64_t sim_now_us,
                                      std::string_view trace_id) {
  if (latency_us < 0) {
    latency_us = 0;
  }
  sync_latency_.Record(latency_us, sim_now_us, trace_id);
}

void SessionHealth::Sample(const HealthSample& cumulative, int64_t sim_now_us) {
  requests_.SampleCumulative(cumulative.requests, sim_now_us);
  polls_.SampleCumulative(cumulative.polls_received, sim_now_us);
  wasted_polls_.SampleCumulative(cumulative.wasted_polls, sim_now_us);
  resyncs_.SampleCumulative(cumulative.resyncs, sim_now_us);
  auth_failures_.SampleCumulative(cumulative.auth_failures, sim_now_us);
  UpdateAlerts(sim_now_us);
}

double SessionHealth::Burn(uint64_t bad, uint64_t total, double budget) const {
  if (total < kMinEvents || bad == 0 || budget <= 0.0) {
    return 0.0;
  }
  double fraction = static_cast<double>(bad) / static_cast<double>(total);
  return fraction / budget;
}

ObjectiveStatus SessionHealth::EvaluateObjective(size_t objective,
                                                int64_t sim_now_us) {
  ObjectiveStatus status;
  status.name = kObjectiveNames[objective];
  uint64_t fast_bad = 0, fast_total = 0, slow_bad = 0, slow_total = 0;
  double budget = 1.0;
  switch (static_cast<Objective>(objective)) {
    case kSyncP99:
      fast_bad = sync_latency_.FastCountOver(kSyncP99TargetUs, sim_now_us);
      fast_total = sync_latency_.FastCount(sim_now_us);
      slow_bad = sync_latency_.SlowCountOver(kSyncP99TargetUs, sim_now_us);
      slow_total = sync_latency_.SlowCount(sim_now_us);
      budget = kSyncBadBudget;
      break;
    case kResyncRate:
      fast_bad = resyncs_.FastSum(sim_now_us);
      fast_total = polls_.FastSum(sim_now_us);
      slow_bad = resyncs_.SlowSum(sim_now_us);
      slow_total = polls_.SlowSum(sim_now_us);
      budget = kResyncBudget;
      break;
    case kAuthFailureRate:
      fast_bad = auth_failures_.FastSum(sim_now_us);
      fast_total = requests_.FastSum(sim_now_us);
      slow_bad = auth_failures_.SlowSum(sim_now_us);
      slow_total = requests_.SlowSum(sim_now_us);
      budget = kAuthFailureBudget;
      break;
    case kWastedPollRatio:
      fast_bad = wasted_polls_.FastSum(sim_now_us);
      fast_total = polls_.FastSum(sim_now_us);
      slow_bad = wasted_polls_.SlowSum(sim_now_us);
      slow_total = polls_.SlowSum(sim_now_us);
      budget = config_.wasted_poll_budget;
      break;
  }
  status.fast_burn = Burn(fast_bad, fast_total, budget);
  status.slow_burn = Burn(slow_bad, slow_total, budget);
  status.alerting = status.fast_burn >= kFastBurnAlert &&
                    status.slow_burn >= kSlowBurnAlert;
  return status;
}

void SessionHealth::UpdateAlerts(int64_t sim_now_us) {
  for (size_t objective = 0; objective < kObjectives; ++objective) {
    ObjectiveStatus status = EvaluateObjective(objective, sim_now_us);
    if (status.alerting && !alert_active_[objective] && flight_ != nullptr) {
      std::string reason = "slo_burn_";
      reason += kObjectiveNames[objective];
      flight_->Trigger(reason, sim_now_us);
    }
    alert_active_[objective] = status.alerting;
  }
}

HealthStatus SessionHealth::Evaluate(int64_t sim_now_us) {
  HealthStatus health;
  health.sync_count = sync_latency_.FastCount(sim_now_us);
  health.sync_p50_us = sync_latency_.FastPercentile(50.0, sim_now_us);
  health.sync_p99_us = sync_latency_.FastPercentile(99.0, sim_now_us);
  health.fast_polls = polls_.FastSum(sim_now_us);
  bool any_alert = false;
  bool any_burning = false;
  for (size_t objective = 0; objective < kObjectives; ++objective) {
    ObjectiveStatus status = EvaluateObjective(objective, sim_now_us);
    // Alert state is edge-tracked in UpdateAlerts; Evaluate reports the
    // same instantaneous condition without mutating edges.
    any_alert |= status.alerting;
    any_burning |= status.fast_burn >= 1.0;
    health.objectives.push_back(status);
  }
  health.score = any_alert ? HealthScore::kUnhealthy
                 : any_burning ? HealthScore::kDegraded
                               : HealthScore::kGreen;
  health.exemplars = sync_latency_.Exemplars();
  return health;
}

std::string SessionHealth::ToJson(int64_t sim_now_us) {
  HealthStatus health = Evaluate(sim_now_us);
  std::string out = "{";
  out += "\"score\":\"";
  out += HealthScoreName(health.score);
  out += "\",";
  out += StrFormat("\"window\":{\"fast_us\":%lld,\"slow_us\":%lld},",
                   static_cast<long long>(polls_.config().fast_window_us()),
                   static_cast<long long>(polls_.config().slow_window_us()));
  out += StrFormat("\"sync\":{\"count\":%llu,\"p50_us\":",
                   static_cast<unsigned long long>(health.sync_count));
  out += Num(health.sync_p50_us);
  out += ",\"p99_us\":";
  out += Num(health.sync_p99_us);
  out += "},";
  out += StrFormat("\"fast_polls\":%llu,",
                   static_cast<unsigned long long>(health.fast_polls));
  out += "\"objectives\":[";
  for (size_t i = 0; i < health.objectives.size(); ++i) {
    const ObjectiveStatus& objective = health.objectives[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"name\":\"";
    out += objective.name;
    out += "\",\"fast_burn\":";
    out += Num(objective.fast_burn);
    out += ",\"slow_burn\":";
    out += Num(objective.slow_burn);
    out += ",\"alerting\":";
    out += objective.alerting ? "true" : "false";
    out += "}";
  }
  out += "],\"alerts\":[";
  bool first_alert = true;
  for (std::string_view alert : health.ActiveAlerts()) {
    if (!first_alert) {
      out += ",";
    }
    first_alert = false;
    out += "\"";
    out += alert;
    out += "\"";
  }
  out += "],\"exemplars\":[";
  for (size_t i = 0; i < health.exemplars.size(); ++i) {
    const auto& entry = health.exemplars[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"le_us\":";
    out += entry.bound == std::numeric_limits<int64_t>::max()
               ? "\"+Inf\""
               : StrFormat("%lld", static_cast<long long>(entry.bound));
    out += StrFormat(",\"value_us\":%lld,\"sim_time_us\":%lld,\"trace_id\":",
                     static_cast<long long>(entry.exemplar.value),
                     static_cast<long long>(entry.exemplar.sim_time_us));
    out += "\"" + JsonEscape(entry.exemplar.trace_id) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace rcb
