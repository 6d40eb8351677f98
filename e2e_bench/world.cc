#include "world.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/core/content_generator.h"
#include "src/crypto/session_key.h"
#include "src/delta/tree_diff.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace e2e {

using namespace rcb;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  return rng.NextU64();
}

namespace {

// Fisher-Yates, drawing from `rng`.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBelow(i)]);
  }
}

}  // namespace

std::vector<Duration> StratifiedThinks(Rng* rng, size_t count,
                                       Duration interval) {
  const int64_t interval_us = interval.micros();
  const int64_t n = static_cast<int64_t>(count);
  std::vector<Duration> thinks;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lo = i * interval_us / n;
    const int64_t hi = (i + 1) * interval_us / n;
    const uint64_t width = static_cast<uint64_t>(std::max<int64_t>(1, hi - lo));
    thinks.push_back(
        Duration::Micros(lo + static_cast<int64_t>(rng->NextBelow(width))));
  }
  Shuffle(&thinks, rng);
  return thinks;
}

std::vector<const SiteSpec*> SeededSiteOrder(uint64_t seed) {
  std::vector<const SiteSpec*> order;
  for (const SiteSpec& spec : Table1Sites()) {
    order.push_back(&spec);
  }
  Rng rng(Mix(seed, 1));
  Shuffle(&order, &rng);
  return order;
}

std::string BenchSessionKey(uint64_t seed, uint64_t session) {
  SessionKeyGenerator generator(Mix(seed, 1000 + session));
  return generator.Generate();
}

EditTargets EditTargets::Prepare(Document* document, uint64_t field_pick) {
  EditTargets targets;
  auto status = MakeElement("p");
  status->SetAttribute("id", "rcb-bench-status");
  status->AppendChild(MakeText("live"));
  Element* body = document->body();
  if (body == nullptr) {
    body = document->document_element();  // frameset pages
  }
  targets.status_ = body->AppendChild(std::move(status))->AsElement();
  std::vector<Element*> inputs = document->FindAll("input");
  if (!inputs.empty()) {
    targets.field_ = inputs[field_pick % inputs.size()];
  }
  return targets;
}

void EditTargets::Apply(Document* document, int k, uint64_t version) const {
  if (k % 2 == 1) {
    status_->RemoveAllChildren();
    status_->AppendChild(
        MakeText("breaking item number " + std::to_string(version)));
  } else if (field_ != nullptr) {
    field_->SetAttribute("value", "query " + std::to_string(version));
  } else {
    Element* body = document->body();
    (body != nullptr ? body : document->document_element())
        ->SetAttribute("data-fill", std::to_string(version));
  }
}

std::string HostDigest(Browser* host_browser, const Url& agent_url) {
  ContentGenerator generator(host_browser);
  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = agent_url;
  GenerationResult result = generator.Generate(0, options);
  return delta::TreeDigest(*MaterializeSnapshotTree(result.snapshot));
}

std::string ParticipantDigest(const Document& document) {
  std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(document);
  return canonical == nullptr ? std::string() : delta::TreeDigest(*canonical);
}

void LayerCounters::Add(const AgentMetrics& metrics) {
  doc_updates += metrics.doc_updates;
  generations += metrics.generations;
  snapshot_reuses += metrics.snapshot_reuses;
  content_polls += metrics.polls_with_content;
  frame_bytes += metrics.transport_frame_bytes_sent;
  heartbeats += metrics.transport_heartbeats_sent;
}

void LayerCounters::Add(const SnippetMetrics& metrics) {
  polls_sent += metrics.polls_sent;
  wasted_polls += metrics.wasted_polls;
  resyncs += metrics.resyncs;
}

LayerCounters LayerCounters::operator-(const LayerCounters& earlier) const {
  LayerCounters d = *this;
  d.doc_updates -= earlier.doc_updates;
  d.generations -= earlier.generations;
  d.snapshot_reuses -= earlier.snapshot_reuses;
  d.content_polls -= earlier.content_polls;
  d.polls_sent -= earlier.polls_sent;
  d.wasted_polls -= earlier.wasted_polls;
  d.resyncs -= earlier.resyncs;
  d.frame_bytes -= earlier.frame_bytes;
  d.heartbeats -= earlier.heartbeats;
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& other) {
  doc_updates += other.doc_updates;
  generations += other.generations;
  snapshot_reuses += other.snapshot_reuses;
  content_polls += other.content_polls;
  polls_sent += other.polls_sent;
  wasted_polls += other.wasted_polls;
  resyncs += other.resyncs;
  frame_bytes += other.frame_bytes;
  heartbeats += other.heartbeats;
  return *this;
}

namespace {
double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}
}  // namespace

void AddCounterMetrics(const Phase& phase, const LayerCounters& counters,
                       std::map<std::string, double>* metrics) {
  const double deliveries = static_cast<double>(phase.deliveries());
  auto& m = *metrics;
  m["host.snapshot_reuse_ratio"] =
      Ratio(static_cast<double>(counters.snapshot_reuses),
            static_cast<double>(counters.content_polls));
  m["host.generations_per_update"] =
      Ratio(static_cast<double>(counters.generations),
            static_cast<double>(counters.doc_updates));
  m["participant.wasted_poll_ratio"] =
      Ratio(static_cast<double>(counters.wasted_polls),
            static_cast<double>(counters.polls_sent));
  m["participant.resyncs"] = static_cast<double>(counters.resyncs);
  m["net.events_per_delivery"] =
      Ratio(static_cast<double>(phase.events), deliveries);
  m["net.messages_per_delivery"] =
      Ratio(static_cast<double>(phase.messages), deliveries);
  m["transport.frame_bytes_per_delivery"] =
      Ratio(static_cast<double>(counters.frame_bytes), deliveries);
  m["transport.heartbeats_per_delivery"] =
      Ratio(static_cast<double>(counters.heartbeats), deliveries);
}

namespace {
std::vector<double> UnscaledUpdateUs(const Phase& phase) {
  std::vector<double> us;
  for (const Interval& update : phase.updates) {
    us.push_back(static_cast<double>(update.end_ns - update.start_ns) / 1e3);
  }
  return us;
}
}  // namespace

double MeanUpdateUs(const Phase& phase) {
  return Mean(UnscaledUpdateUs(phase));
}

std::string SpeedSummary(const Phase& phase) {
  return StrFormat(
      "reference kernel median %.1f us; unscaled update p50 %.1f us\n",
      ReferenceTimeline().MedianKernelNs() / 1e3,
      Percentile(UnscaledUpdateUs(phase), 0.50).value_or(0));
}

bool AddEndToEndMetrics(const Phase& phase, const std::vector<Interval>& setups,
                        std::map<std::string, double>* metrics) {
  const SpeedTimeline timeline = ReferenceTimeline();
  std::vector<double> update_us;
  for (const Interval& update : phase.updates) {
    update_us.push_back(timeline.Normalize(update) / 1e3);
  }
  double timed_s = 0;
  for (const Interval& stretch : phase.stretches) {
    timed_s += timeline.Normalize(stretch) / 1e9;
  }
  std::vector<double> setup_s;
  for (const Interval& setup : setups) {
    setup_s.push_back(timeline.Normalize(setup) / 1e9);
  }
  auto& m = *metrics;
  std::optional<double> p50 = Percentile(update_us, 0.50);
  std::optional<double> p99 = Percentile(update_us, 0.99);
  std::optional<double> sim_p50 = Percentile(phase.sim_ms, 0.50);
  std::optional<double> sim_p99 = Percentile(phase.sim_ms, 0.99);
  m["update_us.p50"] = p50.value_or(0);
  m["update_us.p99"] = p99.value_or(0);
  m["deliveries_per_s"] = Ratio(static_cast<double>(update_us.size()), timed_s);
  m["sync_sim_ms.p50"] = sim_p50.value_or(0);
  m["sync_sim_ms.p99"] = sim_p99.value_or(0);
  m["wire_bytes_per_delivery"] =
      Ratio(static_cast<double>(phase.window_bytes),
            static_cast<double>(phase.sim_ms.size()));
  m["failed_ratio"] = Ratio(static_cast<double>(phase.failed),
                            static_cast<double>(phase.attempted));
  m["peak_rss_mb"] = PeakRssMb();
  m["setup_s"] = Median(setup_s);
  return p50 && p99 && timed_s > 0 && sim_p50 && sim_p99;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void WriteSpans(const Options& options, const SpanRecorder& recorder) {
  if (options.spans_dir.empty()) {
    return;
  }
  std::error_code error;
  std::filesystem::create_directories(options.spans_dir, error);
  std::string path = options.spans_dir + "/" + options.workload + "-" +
                     std::to_string(options.seed) + ".jsonl";
  std::ofstream out(path, std::ios::trunc);
  out << recorder.ToJsonl();
  if (!out) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 path.c_str());
  }
}

}  // namespace e2e
