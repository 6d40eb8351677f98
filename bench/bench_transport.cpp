// Transport: streamed sync vs classic polling (DESIGN.md §15).
//
// Runs the same workload under three transports on each network profile
// {lan, wan, mobile} — classic 1 s polling (the committed baseline),
// adaptive polling and held long-polls — and reports, per (profile, mode):
//   * median / worst update-visible latency: host mutation -> participant
//     applied it, over seeded mutation phases,
//   * idle traffic: wire bytes/min plus the snippet's own wasted-poll
//     counters (empty classic round trips and their request+response bytes),
//   * the drop probe: agent restart with a poll held -> poll timeout ->
//     signed resume reconnect, and whether the next change still lands.
// A final fan-out section runs S sessions x P pollers on one RcbHost under
// classic polling and under long-polls, comparing sync latency and idle
// bytes per participant.
//
// Shape checks (enforced here and re-checked by scripts/ci.sh
// check_transport, which also holds WAN long-poll idle bytes/min to the
// committed artifact):
//   * WAN long-poll median latency at least RCB_TRANSPORT_LATENCY_FLOOR_X
//     (default 2) times better than 1 s polling,
//   * the long-poll drop probe recovers on every profile via signed resume.
//
// Env knobs (CI shrinks the sweep under sanitizers):
//   RCB_TRANSPORT_MUTATIONS        latency mutations per mode (default 15)
//   RCB_TRANSPORT_IDLE_SECONDS     idle measurement window (default 60)
//   RCB_TRANSPORT_FANOUT_SESSIONS  fan-out sessions (default 8)
//   RCB_TRANSPORT_FANOUT_PARTICIPANTS  pollers per fan-out session (default 3)
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/sites/corpus.h"
#include "src/util/strings.h"

using namespace rcb;
using namespace rcb::benchutil;

namespace {

enum class Mode { kPoll, kAdaptive, kLongPoll };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPoll: return "poll";
    case Mode::kAdaptive: return "adaptive";
    case Mode::kLongPoll: return "longpoll";
  }
  return "?";
}

struct ModeResult {
  Duration median_latency;
  Duration worst_latency;
  double idle_requests_per_minute = 0;
  double idle_bytes_per_minute = 0;
  double wasted_polls_per_minute = 0;
  double wasted_poll_bytes_per_minute = 0;
  bool recovered_after_drop = false;
  uint64_t drop_reconnects = 0;
};

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  long parsed = std::atol(value);
  return parsed <= 0 ? fallback : static_cast<size_t>(parsed);
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  double parsed = std::atof(value);
  return parsed <= 0 ? fallback : parsed;
}

SessionOptions BaseOptions(const NetworkProfile& profile, Mode mode) {
  SessionOptions options;
  options.profile = profile;
  options.participant_count = 1;
  options.poll_interval = Duration::Seconds(1.0);
  // Signed session: polls carry hmac=, and the drop probe's reconnect is a
  // signed resume (§3.3).
  options.enable_auth = true;
  options.poll_timeout = Duration::Seconds(2.0);
  options.reconnect_after = 1;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  switch (mode) {
    case Mode::kPoll:
      break;
    case Mode::kAdaptive:
      options.adaptive_poll = true;
      options.adaptive_max = Duration::Seconds(8.0);
      break;
    case Mode::kLongPoll:
      options.enable_transport = true;
      options.snippet_stream_mode = 1;
      options.transport_hold = Duration::Seconds(10.0);
      break;
  }
  return options;
}

ModeResult RunMode(const NetworkProfile& profile, Mode mode, int mutations,
                   int idle_seconds) {
  EventLoop loop;
  Network network(&loop);
  SessionOptions options = BaseOptions(profile, mode);
  const SiteSpec* spec = FindSite("google.com");
  AddOriginServer(&network, options.profile, spec->host, spec->server_bps,
                  spec->server_latency, options.host_machine,
                  options.participant_machine_prefix + "-1");
  auto server = InstallSite(&loop, &network, *spec);
  CoBrowsingSession session(&loop, &network, options);
  ModeResult result;
  if (!session.Start().ok()) {
    return result;
  }
  if (!session.CoNavigate(Url::Make("http", spec->host, 80, "/")).ok()) {
    return result;
  }

  // Update-visible latency over stratified mutation phases. The poll clock
  // re-anchors on every content response, so a small per-round stride locks
  // onto the poll grid; a 617 ms stride (coprime to the 1 s tick) keeps the
  // phases spread and the polling baseline's median samples the tick-wait
  // fairly.
  std::vector<int64_t> latencies_us;
  latencies_us.reserve(mutations);
  for (int i = 0; i < mutations; ++i) {
    loop.RunFor(Duration::Millis(
        1200 + (static_cast<int64_t>(i) * 617) % 1000));
    uint64_t before = session.snippet(0)->metrics().content_updates;
    SimTime change_at = loop.now();
    session.host_browser()->MutateDocument([i](Document* document) {
      auto marker = MakeElement("div");
      marker->SetAttribute("id", "m" + std::to_string(i));
      document->body()->AppendChild(std::move(marker));
    });
    loop.RunUntilCondition([&] {
      return session.snippet(0)->metrics().content_updates > before;
    });
    latencies_us.push_back((loop.now() - change_at).micros());
    if (std::getenv("RCB_TRANSPORT_DEBUG") != nullptr) {
      std::printf("  mutation %2d at %lld us -> latency %lld us\n", i,
                  static_cast<long long>(change_at.micros()),
                  static_cast<long long>(latencies_us.back()));
    }
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  result.median_latency = Duration::Micros(latencies_us[latencies_us.size() / 2]);
  result.worst_latency = Duration::Micros(latencies_us.back());

  // Idle window: nothing changes; measure what the transport still costs.
  const SnippetMetrics& sm = session.snippet(0)->metrics();
  uint64_t polls_before = session.agent()->metrics().polls_received;
  uint64_t bytes_before = network.total_bytes_transferred();
  uint64_t wasted_before = sm.wasted_polls;
  uint64_t wasted_bytes_before = sm.wasted_poll_bytes;
  loop.RunFor(Duration::Seconds(static_cast<double>(idle_seconds)));
  double minutes = idle_seconds / 60.0;
  result.idle_requests_per_minute = static_cast<double>(
      session.agent()->metrics().polls_received - polls_before) / minutes;
  result.idle_bytes_per_minute = static_cast<double>(
      network.total_bytes_transferred() - bytes_before) / minutes;
  result.wasted_polls_per_minute =
      static_cast<double>(sm.wasted_polls - wasted_before) / minutes;
  result.wasted_poll_bytes_per_minute =
      static_cast<double>(sm.wasted_poll_bytes - wasted_bytes_before) / minutes;

  // Drop probe: restart the agent (every connection including a held poll
  // dies), then change the page. Recovery must come through the
  // ladder — failure detection, signed resume reconnect, resync — with no
  // operator help.
  uint64_t reconnects_before = sm.reconnects;
  session.agent()->Stop();
  loop.RunFor(Duration::Seconds(1.0));
  if (!session.agent()->Start().ok()) {
    return result;
  }
  uint64_t before = sm.content_updates;
  session.host_browser()->MutateDocument([](Document* document) {
    auto marker = MakeElement("div");
    marker->SetAttribute("id", "after-restart");
    document->body()->AppendChild(std::move(marker));
  });
  SimTime deadline = loop.now() + Duration::Seconds(15.0);
  while (sm.content_updates == before && loop.now() < deadline &&
         loop.pending_events() > 0) {
    loop.RunFor(Duration::Millis(100));
  }
  result.recovered_after_drop = sm.content_updates > before;
  result.drop_reconnects = sm.reconnects - reconnects_before;
  return result;
}

struct FanoutResult {
  double median_latency_us = 0;
  double idle_bytes_per_minute_per_participant = 0;
  std::string health_json;  // /host/health snapshot at the end of the run
};

FanoutResult RunFanout(bool longpoll, size_t sessions, size_t participants) {
  FanoutResult result;
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
  config.limits.metrics_sessions = 0;
  config.limits.max_sessions = 0;
  config.agent_defaults.poll_interval = Duration::Seconds(1.0);
  config.agent_defaults.transport.enable_stream = longpoll;
  RcbHost host(&loop, &network, config);
  if (!host.Start().ok()) {
    return result;
  }

  std::vector<HostSession*> hosted(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    auto session = host.CreateSession("s" + std::to_string(s));
    if (!session.ok()) {
      return result;
    }
    hosted[s] = *session;
    hosted[s]->browser->ReplaceDocument(
        ParseDocument(StrFormat(
            "<html><head><title>fanout %zu</title></head>"
            "<body><p id=\"status\">round 0</p></body></html>", s)),
        Url::Make("http", "host-pc", hosted[s]->port, "/doc"));
  }

  struct Poller {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  constexpr int kFirstRoundMs = 2000;
  std::vector<Poller> pollers;
  pollers.reserve(sessions * participants);
  std::vector<int64_t> latency_samples_us;
  size_t joined = 0;
  for (size_t s = 0; s < sessions; ++s) {
    for (size_t p = 0; p < participants; ++p) {
      Poller poller;
      poller.browser = std::make_unique<Browser>(
          &loop, &network, "poller-pc-" + std::to_string(p + 1));
      SnippetConfig snippet_config;
      snippet_config.fetch_objects = false;
      if (longpoll) {
        snippet_config.stream_mode = transport::kStreamLongPoll;
      }
      poller.snippet = std::make_unique<AjaxSnippet>(poller.browser.get(),
                                                     snippet_config);
      poller.snippet->SetUpdateListener(
          [&loop, &latency_samples_us](int64_t doc_time_ms) {
            if (doc_time_ms >= kFirstRoundMs) {
              latency_samples_us.push_back(loop.now().micros() -
                                           doc_time_ms * 1000);
            }
          });
      poller.snippet->Join(hosted[s]->agent->AgentUrl(),
                           [&joined](Status status) {
                             if (status.ok()) {
                               ++joined;
                             }
                           });
      pollers.push_back(std::move(poller));
    }
  }
  loop.RunUntilCondition([&] { return joined == sessions * participants; });
  if (joined != sessions * participants) {
    return result;
  }

  // Two mutation rounds per session, spaced past kFirstRoundMs so the warm-up
  // joins never pollute the latency samples.
  for (int round = 1; round <= 2; ++round) {
    loop.RunFor(Duration::Millis(kFirstRoundMs));
    for (size_t s = 0; s < sessions; ++s) {
      hosted[s]->browser->MutateDocument([round](Document* document) {
        auto marker = MakeElement("div");
        marker->SetAttribute("id", "round-" + std::to_string(round));
        document->body()->AppendChild(std::move(marker));
      });
    }
    loop.RunUntilCondition([&] {
      return latency_samples_us.size() >=
             sessions * participants * static_cast<size_t>(round);
    });
  }
  if (!latency_samples_us.empty()) {
    std::sort(latency_samples_us.begin(), latency_samples_us.end());
    result.median_latency_us = static_cast<double>(
        latency_samples_us[latency_samples_us.size() / 2]);
  }

  // Idle half-minute across the whole fleet, normalized per participant.
  uint64_t bytes_before = network.total_bytes_transferred();
  loop.RunFor(Duration::Seconds(30.0));
  result.idle_bytes_per_minute_per_participant =
      static_cast<double>(network.total_bytes_transferred() - bytes_before) *
      2.0 / static_cast<double>(sessions * participants);

  // Health plane (DESIGN.md §16): the artifact ships this fleet's end-of-run
  // /host/health snapshot.
  HttpRequest health_request;
  health_request.method = HttpMethod::kGet;
  health_request.target = "/host/health";
  result.health_json = host.Route(health_request).body;
  return result;
}

}  // namespace

int main() {
  const int mutations =
      static_cast<int>(EnvSize("RCB_TRANSPORT_MUTATIONS", 15));
  const int idle_seconds =
      static_cast<int>(EnvSize("RCB_TRANSPORT_IDLE_SECONDS", 60));
  const size_t fanout_sessions = EnvSize("RCB_TRANSPORT_FANOUT_SESSIONS", 8);
  const size_t fanout_participants =
      EnvSize("RCB_TRANSPORT_FANOUT_PARTICIPANTS", 3);
  const double latency_floor_x = EnvDouble("RCB_TRANSPORT_LATENCY_FLOOR_X", 2.0);

  PrintBenchHeader(
      "Transport — streamed sync vs classic polling (DESIGN.md §15)",
      StrFormat("google.com replica, signed session, 1 s poll baseline; "
                "%d mutations; %d s idle window; agent restart probe; "
                "fan-out %zu sessions x %zu pollers",
                mutations, idle_seconds, fanout_sessions, fanout_participants)
          .c_str());

  struct ProfileRow {
    const char* key;
    NetworkProfile profile;
  };
  ProfileRow profiles[] = {
      {"lan", LanProfile()}, {"wan", WanProfile()}, {"mobile", MobileProfile()}};
  Mode modes[] = {Mode::kPoll, Mode::kAdaptive, Mode::kLongPoll};
  constexpr int kModes = 3;

  obs::BenchReport report = MakeReport("transport", "lan+wan+mobile",
                                       /*cache_mode=*/true, /*repetitions=*/1);
  report.SetConfig("site", "google.com");
  report.SetConfig("mutations", StrFormat("%d", mutations));
  report.SetConfig("idle_seconds", StrFormat("%d", idle_seconds));
  report.SetConfig("poll_interval_ms", "1000");
  report.SetConfig("fanout_sessions", StrFormat("%zu", fanout_sessions));
  report.SetConfig("fanout_participants", StrFormat("%zu", fanout_participants));

  ModeResult wan_poll, wan_longpoll;
  bool all_longpoll_recovered = true;
  for (const auto& row : profiles) {
    std::printf("\n[%s]\n", row.key);
    std::printf("%-24s %12s %12s %12s\n", "", "poll", "adaptive", "longpoll");
    ModeResult results[kModes];
    for (int m = 0; m < kModes; ++m) {
      results[m] = RunMode(row.profile, modes[m], mutations, idle_seconds);
    }
    std::printf("%-24s %12s %12s %12s\n", "median change latency",
                results[0].median_latency.ToString().c_str(),
                results[1].median_latency.ToString().c_str(),
                results[2].median_latency.ToString().c_str());
    std::printf("%-24s %12.0f %12.0f %12.0f\n", "idle requests/min",
                results[0].idle_requests_per_minute,
                results[1].idle_requests_per_minute,
                results[2].idle_requests_per_minute);
    std::printf("%-24s %12.0f %12.0f %12.0f\n", "idle bytes/min",
                results[0].idle_bytes_per_minute,
                results[1].idle_bytes_per_minute,
                results[2].idle_bytes_per_minute);
    std::printf("%-24s %12.0f %12.0f %12.0f\n", "wasted polls/min",
                results[0].wasted_polls_per_minute,
                results[1].wasted_polls_per_minute,
                results[2].wasted_polls_per_minute);
    std::printf("%-24s %12s %12s %12s\n", "recovers after drop",
                results[0].recovered_after_drop ? "yes" : "NO",
                results[1].recovered_after_drop ? "yes" : "NO",
                results[2].recovered_after_drop ? "yes" : "NO");

    for (int m = 0; m < kModes; ++m) {
      std::string prefix = StrFormat("%s_%s_", row.key, ModeName(modes[m]));
      const ModeResult& r = results[m];
      report.AddValue(prefix + "median_latency_us", "us",
                      obs::Provenance::kSim,
                      static_cast<double>(r.median_latency.micros()));
      report.AddValue(prefix + "worst_latency_us", "us", obs::Provenance::kSim,
                      static_cast<double>(r.worst_latency.micros()));
      report.AddValue(prefix + "idle_requests_per_minute", "requests",
                      obs::Provenance::kSim, r.idle_requests_per_minute);
      report.AddValue(prefix + "idle_bytes_per_minute", "bytes",
                      obs::Provenance::kSim, r.idle_bytes_per_minute);
      report.AddValue(prefix + "wasted_polls_per_minute", "polls",
                      obs::Provenance::kSim, r.wasted_polls_per_minute);
      report.AddValue(prefix + "wasted_poll_bytes_per_minute", "bytes",
                      obs::Provenance::kSim, r.wasted_poll_bytes_per_minute);
      report.AddValue(prefix + "recovered_after_drop", "bool",
                      obs::Provenance::kSim, r.recovered_after_drop ? 1 : 0);
      report.AddValue(prefix + "drop_reconnects", "count",
                      obs::Provenance::kSim,
                      static_cast<double>(r.drop_reconnects));
    }
    if (std::string(row.key) == "wan") {
      wan_poll = results[0];
      wan_longpoll = results[2];
    }
    all_longpoll_recovered =
        all_longpoll_recovered && results[2].recovered_after_drop;
  }

  std::printf("\n[fan-out: %zu sessions x %zu pollers, 1 ms links]\n",
              fanout_sessions, fanout_participants);
  FanoutResult fan_poll = RunFanout(false, fanout_sessions, fanout_participants);
  FanoutResult fan_longpoll =
      RunFanout(true, fanout_sessions, fanout_participants);
  std::printf("%-36s %12.0f %12.0f\n", "median sync latency (us)",
              fan_poll.median_latency_us, fan_longpoll.median_latency_us);
  std::printf("%-36s %12.0f %12.0f\n", "idle bytes/min/participant",
              fan_poll.idle_bytes_per_minute_per_participant,
              fan_longpoll.idle_bytes_per_minute_per_participant);
  report.AddValue("fanout_poll_median_latency_us", "us", obs::Provenance::kSim,
                  fan_poll.median_latency_us);
  report.AddValue("fanout_longpoll_median_latency_us", "us",
                  obs::Provenance::kSim, fan_longpoll.median_latency_us);
  report.AddValue("fanout_poll_idle_bytes_per_minute_per_participant", "bytes",
                  obs::Provenance::kSim,
                  fan_poll.idle_bytes_per_minute_per_participant);
  report.AddValue("fanout_longpoll_idle_bytes_per_minute_per_participant",
                  "bytes", obs::Provenance::kSim,
                  fan_longpoll.idle_bytes_per_minute_per_participant);
  report.SetHealthJson(fan_longpoll.health_json);

  double latency_x =
      wan_longpoll.median_latency.micros() > 0
          ? static_cast<double>(wan_poll.median_latency.micros()) /
                static_cast<double>(wan_longpoll.median_latency.micros())
          : 0;
  double idle_x = wan_longpoll.idle_bytes_per_minute > 0
                      ? wan_poll.idle_bytes_per_minute /
                            wan_longpoll.idle_bytes_per_minute
                      : 0;
  report.AddValue("wan_latency_improvement_x", "ratio", obs::Provenance::kSim,
                  latency_x);
  report.AddValue("wan_idle_bytes_improvement_x", "ratio",
                  obs::Provenance::kSim, idle_x);
  WriteReport(report);

  PrintRule();
  std::printf("shape check: WAN long-polls must cut median latency >= %.1fx "
              "vs 1 s polling, and the long-poll drop probe must recover on "
              "every profile.\n",
              latency_floor_x);
  std::printf("  wan latency improvement: %.1fx   wan idle bytes "
              "improvement: %.1fx   long-poll drop recovery: %s\n",
              latency_x, idle_x, all_longpoll_recovered ? "yes" : "NO");
  bool ok = latency_x >= latency_floor_x && all_longpoll_recovered;
  if (!ok) {
    std::printf("SHAPE CHECK FAILED\n");
    return 1;
  }
  return 0;
}
