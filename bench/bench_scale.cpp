// Scale: multi-session host with shared-snapshot broadcast fan-out.
//
// Sweeps session count x 8 participants on one RcbHost (one event loop, one
// shared cache) and reports, per point:
//   * p99 / mean sync latency — document version stamped -> participant
//     applied it (simulated time),
//   * bytes per participant per update, and per content-bearing send,
//   * generation CPU per update (real time, the Fig. 3 pipeline),
//   * the generate-once proof: rcb_host pipeline runs vs document updates vs
//     fan-out sends (runs ~= updates; sends ~= updates x participants),
//   * the process's peak resident set (VmHWM) after the point: every hosted
//     agent's registry and every participant's state, at that scale.
//
// Env knobs (CI shrinks the sweep under sanitizers):
//   RCB_SCALE_MAX_SESSIONS  largest point to run (default 1024, try 10240)
//   RCB_SCALE_PARTICIPANTS  pollers per session (default 8)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "bench/common.h"
#include "src/core/ajax_snippet.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/util/strings.h"

using namespace rcb;
using namespace rcb::benchutil;

namespace {

constexpr int kRounds = 2;                 // post-join mutation rounds
constexpr int kRoundSpacingMs = 1500;      // >> poll interval: every version polled
constexpr int kFirstRoundMs = 2000;

struct ScalePoint {
  size_t sessions = 0;
  size_t participants = 0;
  double p99_sync_us = 0;
  double mean_sync_us = 0;
  double bytes_per_participant_update = 0;
  double bytes_per_send = 0;
  double generation_cpu_us_per_update = 0;
  uint64_t doc_updates = 0;
  uint64_t pipeline_runs = 0;
  uint64_t fanout_sends = 0;
  uint64_t content_bytes = 0;
  double wall_seconds = 0;
  std::string health_json;  // /host/health snapshot at the end of the run
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  long parsed = std::atol(value);
  return parsed <= 0 ? fallback : static_cast<size_t>(parsed);
}

// The process's peak resident set so far, in MiB (VmHWM; 0 when unreadable).
// The sweep runs its points in ascending size, so the value read after a
// point is that point's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return static_cast<double>(std::atol(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

StatusOr<ScalePoint> RunPoint(size_t sessions, size_t participants) {
  auto wall_start = std::chrono::steady_clock::now();
  ScalePoint point;
  point.sessions = sessions;
  point.participants = participants;

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  for (size_t p = 0; p < participants; ++p) {
    std::string machine = "poller-pc-" + std::to_string(p + 1);
    network.AddHost(machine, {});
    network.SetLatency("host-pc", machine, Duration::Millis(1));
  }

  HostConfig config;
  config.base_port = 3000;
  config.limits.max_sessions = 0;  // the sweep is the cap
  config.agent_defaults.poll_interval = Duration::Millis(500);
  // Traced runs feed the health plane's exemplar trace ids; ci.sh
  // check_health resolves each one against the dumped spans.
  const bool traced = TraceEnvEnabled();
  config.agent_defaults.enable_trace = traced;
  RcbHost host(&loop, &network, config);
  RCB_RETURN_IF_ERROR(host.Start());

  std::vector<HostSession*> hosted(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    auto session = host.CreateSession("s" + std::to_string(s));
    if (!session.ok()) {
      return session.status();
    }
    hosted[s] = *session;
    hosted[s]->browser->ReplaceDocument(
        ParseDocument(StrFormat(
            "<html><head><title>scale %zu</title></head>"
            "<body><p id=\"status\">round 0</p>"
            "<ul><li>alpha</li><li>beta</li><li>gamma</li></ul>"
            "</body></html>", s)),
        Url::Make("http", "host-pc", hosted[s]->port, "/doc"));
  }

  struct Poller {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  std::vector<Poller> pollers;
  pollers.reserve(sessions * participants);
  std::vector<int64_t> latency_samples_us;
  latency_samples_us.reserve(sessions * participants * kRounds);
  size_t joined = 0;
  for (size_t s = 0; s < sessions; ++s) {
    for (size_t p = 0; p < participants; ++p) {
      Poller poller;
      poller.browser = std::make_unique<Browser>(
          &loop, &network, "poller-pc-" + std::to_string(p + 1));
      SnippetConfig snippet_config;
      snippet_config.fetch_objects = false;
      snippet_config.enable_trace = traced;
      poller.snippet = std::make_unique<AjaxSnippet>(poller.browser.get(),
                                                     snippet_config);
      AjaxSnippet* snippet = poller.snippet.get();
      // Sync latency: version stamp (doc_time is the sim clock at mutation)
      // -> this participant applied it. Warm-up joins are excluded.
      snippet->SetUpdateListener([&loop, &latency_samples_us,
                                  snippet](int64_t doc_time_ms) {
        if (doc_time_ms >= kFirstRoundMs) {
          latency_samples_us.push_back(loop.now().micros() -
                                       doc_time_ms * 1000);
        }
      });
      snippet->Join(hosted[s]->agent->AgentUrl(), [&joined](Status status) {
        if (status.ok()) {
          ++joined;
        }
      });
      pollers.push_back(std::move(poller));
    }
  }
  loop.RunUntilCondition(
      [&] { return joined == sessions * participants; });
  if (joined != sessions * participants) {
    return InternalError(StrFormat("only %zu/%zu pollers joined", joined,
                                   sessions * participants));
  }

  // Mutation rounds at absolute instants; every session's version r carries
  // the identical doc_time, so sync latency is comparable across sessions.
  const SimTime epoch;
  for (int round = 1; round <= kRounds; ++round) {
    SimTime fire =
        epoch + Duration::Millis(kFirstRoundMs + (round - 1) * kRoundSpacingMs);
    loop.Schedule(fire - loop.now(), [&hosted, round] {
      for (HostSession* session : hosted) {
        session->browser->MutateDocument([round](Document* document) {
          Element* status = document->ById("status");
          status->RemoveAllChildren();
          status->AppendChild(MakeText("round " + std::to_string(round)));
        });
      }
    });
  }

  const size_t expected_samples = sessions * participants * kRounds;
  loop.RunUntilCondition(
      [&] { return latency_samples_us.size() >= expected_samples; });
  if (latency_samples_us.size() < expected_samples) {
    return InternalError("pollers never converged");
  }

  std::sort(latency_samples_us.begin(), latency_samples_us.end());
  point.p99_sync_us = static_cast<double>(
      latency_samples_us[latency_samples_us.size() * 99 / 100]);
  double total = 0;
  for (int64_t sample : latency_samples_us) {
    total += static_cast<double>(sample);
  }
  point.mean_sync_us = total / static_cast<double>(latency_samples_us.size());

  // The generate-once proof, read from the same counters the rcb_host_*
  // registry families render.
  Duration generation_cpu;
  for (HostSession* session : hosted) {
    const AgentMetrics& metrics = session->agent->metrics();
    point.doc_updates += metrics.doc_updates;
    point.pipeline_runs += metrics.generations;
    point.fanout_sends += metrics.polls_with_content;
    point.content_bytes += metrics.content_bytes_sent;
    generation_cpu += metrics.total_generation_time;
  }
  point.bytes_per_participant_update =
      static_cast<double>(point.content_bytes) /
      static_cast<double>(sessions * participants * (kRounds + 1));
  point.bytes_per_send = static_cast<double>(point.content_bytes) /
                         static_cast<double>(point.fanout_sends);
  point.generation_cpu_us_per_update =
      static_cast<double>(generation_cpu.micros()) /
      static_cast<double>(point.doc_updates);

  // Health plane (DESIGN.md §16): the artifact ships the end-of-run
  // /host/health snapshot, and traced runs dump every agent's + snippet's
  // spans so the exemplar trace ids in it resolve.
  HttpRequest health_request;
  health_request.method = HttpMethod::kGet;
  health_request.target = "/host/health";
  point.health_json = host.Route(health_request).body;
  if (traced) {
    std::vector<std::pair<std::string, const obs::TraceLog*>> logs;
    logs.reserve(hosted.size() + pollers.size());
    for (HostSession* session : hosted) {
      logs.emplace_back("agent-" + session->id, &session->agent->trace_log());
    }
    for (const Poller& poller : pollers) {
      logs.emplace_back("snippet-" + poller.snippet->participant_id(),
                        &poller.snippet->trace_log());
    }
    DumpTraceLogs(logs);
  }

  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return point;
}

}  // namespace

int main() {
  SetTraceBenchName("scale");
  const size_t max_sessions = EnvSize("RCB_SCALE_MAX_SESSIONS", 1024);
  const size_t participants = EnvSize("RCB_SCALE_PARTICIPANTS", 8);
  PrintBenchHeader(
      "Scale — multi-session host, shared-snapshot broadcast fan-out",
      StrFormat("sessions x %zu interval pollers, LAN, %d mutation rounds; "
                "RCB_SCALE_MAX_SESSIONS=%zu",
                participants, kRounds, max_sessions));

  obs::BenchReport report = MakeReport("scale", "lan", /*cache_mode=*/true,
                                       /*repetitions=*/1);
  report.SetConfig("participants_per_session", std::to_string(participants));
  report.SetConfig("mutation_rounds", std::to_string(kRounds));
  report.SetConfig("max_sessions", std::to_string(max_sessions));

  std::printf("%-9s %12s %12s %14s %12s %12s %12s %10s %10s\n", "sessions",
              "p99 sync", "mean sync", "B/ppt/update", "updates", "runs",
              "fanout", "wall s", "peak MiB");
  bool shape_ok = true;
  for (size_t sessions : {16ul, 64ul, 256ul, 1024ul, 4096ul, 10240ul}) {
    if (sessions > max_sessions) {
      continue;
    }
    auto point = RunPoint(sessions, participants);
    if (!point.ok()) {
      std::printf("%-9zu failed: %s\n", sessions,
                  point.status().ToString().c_str());
      shape_ok = false;
      continue;
    }
    const double peak_rss_mb = PeakRssMb();
    std::printf(
        "%-9zu %10.1fms %10.1fms %14.0f %12llu %12llu %12llu %10.2f %10.1f\n",
        sessions, point->p99_sync_us / 1000.0, point->mean_sync_us / 1000.0,
        point->bytes_per_participant_update,
        static_cast<unsigned long long>(point->doc_updates),
        static_cast<unsigned long long>(point->pipeline_runs),
        static_cast<unsigned long long>(point->fanout_sends),
        point->wall_seconds, peak_rss_mb);
    // Generate-once must hold at every point: the pipeline ran (about) once
    // per update — never once per participant poll.
    if (point->pipeline_runs > point->doc_updates ||
        point->pipeline_runs * 2 < point->doc_updates ||
        point->fanout_sends < point->doc_updates * participants) {
      shape_ok = false;
    }

    std::string prefix = StrFormat("n%zu_", sessions);
    report.AddValue(prefix + "p99_sync_us", "us", obs::Provenance::kSim,
                    point->p99_sync_us);
    report.AddValue(prefix + "mean_sync_us", "us", obs::Provenance::kSim,
                    point->mean_sync_us);
    report.AddValue(prefix + "bytes_per_participant_update", "bytes",
                    obs::Provenance::kSim,
                    point->bytes_per_participant_update);
    report.AddValue(prefix + "bytes_per_send", "bytes", obs::Provenance::kSim,
                    point->bytes_per_send);
    report.AddValue(prefix + "doc_updates", "updates", obs::Provenance::kSim,
                    static_cast<double>(point->doc_updates));
    report.AddValue(prefix + "pipeline_runs", "runs", obs::Provenance::kSim,
                    static_cast<double>(point->pipeline_runs));
    report.AddValue(prefix + "fanout_sends", "sends", obs::Provenance::kSim,
                    static_cast<double>(point->fanout_sends));
    report.AddValue(prefix + "generation_cpu_us_per_update", "us",
                    obs::Provenance::kWall,
                    point->generation_cpu_us_per_update);
    report.AddValue(prefix + "wall_seconds", "s", obs::Provenance::kWall,
                    point->wall_seconds);
    report.AddValue(prefix + "peak_rss_mb", "MiB", obs::Provenance::kWall,
                    peak_rss_mb);
    // The largest completed point's snapshot represents the artifact.
    report.SetHealthJson(point->health_json);
  }
  WriteReport(report);
  PrintRule();
  std::printf("shape check: pipeline runs ~= document updates at every point "
              "(generate-once),\nfan-out sends >= updates x participants "
              "(everyone served), sync latency ~flat in sessions.\n");
  if (!shape_ok) {
    std::printf("SHAPE CHECK FAILED\n");
    return 1;
  }
  return 0;
}
