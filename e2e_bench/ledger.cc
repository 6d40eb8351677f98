#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) {
    return std::nullopt;
  }
  // Nearest rank, 1-based; the epsilon keeps q * n = 990.0000000001 at 990.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) {
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0;
  }
  double total = 0;
  for (double sample : samples) {
    total += sample;
  }
  return total / static_cast<double>(samples.size());
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) {
    return false;
  }
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

uint32_t SpanRecorder::NameId(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanRecorder::Begin(uint32_t name, uint32_t parent, uint64_t update) {
  spans_.push_back(Span{name, parent, update, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanRecorder::End(uint32_t span) { spans_[span].end_ns = NowNs(); }

uint32_t SpanRecorder::Add(uint32_t name, uint32_t parent, uint64_t update,
                           int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, update, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      self[span.parent] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::string SpanRecorder::ToJsonl() const {
  std::string out;
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"update\":%llu,"
                  "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                  i, names_[span.name].c_str(),
                  span.parent == kNoParent ? -1LL
                                           : static_cast<long long>(span.parent),
                  static_cast<unsigned long long>(span.update),
                  static_cast<long long>(span.start_ns),
                  static_cast<long long>(span.end_ns));
    out += line;
  }
  return out;
}

Ledger ComputeLedger(double untraced_mean_us, double host_us,
                     double participant_us) {
  Ledger ledger;
  ledger.host_us = host_us;
  ledger.participant_us = participant_us;
  ledger.unattributed_us = untraced_mean_us - host_us - participant_us;
  ledger.unattributed_share =
      untraced_mean_us > 0 ? ledger.unattributed_us / untraced_mean_us : 0;
  return ledger;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
