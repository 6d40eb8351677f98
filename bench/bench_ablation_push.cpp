// Ablation: poll-based vs push-based synchronization (§3.2.3).
//
// The paper chooses polling and mentions "multipart/x-mixed-replace" pushing
// as the alternative that "increases the complexity of co-browsing
// synchronization and decreases its reliability". This bench quantifies the
// trade on the same workload. The push column runs through src/transport's
// long-poll (DESIGN.md §15): the agent holds each poll until a change
// releases it, and a held poll that dies is caught by the same poll timeout
// and signed-resume ladder as a classic poll, which is how this repo keeps
// push reliable.
//   latency    — host change -> participant applied (push wins: no tick wait)
//   overhead   — idle requests/bytes per minute (push wins: one held poll
//                per hold instead of one per tick)
//   resilience — recovery after a dropped transport (both recover: the poll
//                tick reconnects by construction; the held poll times out
//                and re-handshakes via signed resume)
#include "bench/common.h"
#include "src/sites/corpus.h"
#include "src/util/rand.h"

using namespace rcb;
using namespace rcb::benchutil;

namespace {

struct ModeResult {
  Duration mean_latency;
  Duration worst_latency;
  double idle_requests_per_minute = 0;
  uint64_t idle_bytes_per_minute = 0;
  bool recovered_after_drop = false;
};

ModeResult RunMode(bool push) {
  EventLoop loop;
  Network network(&loop);
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Seconds(1.0);
  // Both columns share the recovery ladder (§3.2.3) and a signed session so
  // the restart probe exercises signed-resume reconnects, not fresh joins.
  options.enable_auth = true;
  options.poll_timeout = Duration::Seconds(2.0);
  options.reconnect_after = 1;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  if (push) {
    // Push rides the streamed transport: the agent grants a long-poll and
    // holds the participant's poll until there is something to send.
    options.enable_transport = true;
    options.snippet_stream_mode = transport::kStreamLongPoll;
  }
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
  auto stats = session.CoNavigate(Url::Make("http", spec->host, 80, "/"));
  if (!stats.ok()) {
    return result;
  }

  // Latency over 24 mutations at random phases.
  Rng rng(7);
  int64_t total_us = 0;
  Duration worst;
  constexpr int kChanges = 24;
  for (int i = 0; i < kChanges; ++i) {
    loop.RunFor(Duration::Millis(static_cast<int64_t>(rng.NextBelow(3000)) + 200));
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
    Duration latency = loop.now() - change_at;
    total_us += latency.micros();
    if (latency > worst) {
      worst = latency;
    }
  }
  result.mean_latency = Duration::Micros(total_us / kChanges);
  result.worst_latency = worst;

  // Idle minute.
  uint64_t polls_before = session.agent()->metrics().polls_received;
  uint64_t bytes_before = network.total_bytes_transferred();
  loop.RunFor(Duration::Seconds(60.0));
  result.idle_requests_per_minute = static_cast<double>(
      session.agent()->metrics().polls_received - polls_before);
  result.idle_bytes_per_minute = network.total_bytes_transferred() - bytes_before;

  // Reliability probe: restart the agent (drops every connection), then
  // change the page and see whether the participant ever hears about it.
  session.agent()->Stop();
  loop.RunFor(Duration::Seconds(1.0));
  Status restarted = session.agent()->Start();
  if (!restarted.ok()) {
    return result;
  }
  uint64_t before = session.snippet(0)->metrics().content_updates;
  session.host_browser()->MutateDocument([](Document* document) {
    auto marker = MakeElement("div");
    marker->SetAttribute("id", "after-restart");
    document->body()->AppendChild(std::move(marker));
  });
  SimTime deadline = loop.now() + Duration::Seconds(10.0);
  while (session.snippet(0)->metrics().content_updates == before &&
         loop.now() < deadline && loop.pending_events() > 0) {
    loop.RunFor(Duration::Millis(100));
  }
  result.recovered_after_drop =
      session.snippet(0)->metrics().content_updates > before;
  return result;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Ablation — poll vs push synchronization (§3.2.3)",
      "LAN, google.com replica, 1 s poll interval; 24 mutations; 1 idle "
      "minute; agent restart probe");

  std::printf("%-22s %14s %14s\n", "", "poll", "push");
  ModeResult poll = RunMode(/*push=*/false);
  ModeResult push = RunMode(/*push=*/true);
  std::printf("%-22s %14s %14s\n", "mean change latency",
              poll.mean_latency.ToString().c_str(),
              push.mean_latency.ToString().c_str());
  std::printf("%-22s %14s %14s\n", "worst change latency",
              poll.worst_latency.ToString().c_str(),
              push.worst_latency.ToString().c_str());
  std::printf("%-22s %14.0f %14.0f\n", "idle requests/min",
              poll.idle_requests_per_minute, push.idle_requests_per_minute);
  std::printf("%-22s %14llu %14llu\n", "idle bytes/min",
              static_cast<unsigned long long>(poll.idle_bytes_per_minute),
              static_cast<unsigned long long>(push.idle_bytes_per_minute));
  std::printf("%-22s %14s %14s\n", "recovers after drop",
              poll.recovered_after_drop ? "yes" : "NO",
              push.recovered_after_drop ? "yes" : "NO");

  obs::BenchReport report = MakeReport("ablation_push", "lan",
                                       /*cache_mode=*/true, /*repetitions=*/1);
  report.SetConfig("site", "google.com");
  report.SetConfig("mutations", "24");
  struct { const char* prefix; const ModeResult* mode; } rows[] = {
      {"poll_", &poll}, {"push_", &push}};
  for (const auto& row : rows) {
    std::string prefix = row.prefix;
    report.AddValue(prefix + "mean_latency_us", "us", obs::Provenance::kSim,
                    static_cast<double>(row.mode->mean_latency.micros()));
    report.AddValue(prefix + "worst_latency_us", "us", obs::Provenance::kSim,
                    static_cast<double>(row.mode->worst_latency.micros()));
    report.AddValue(prefix + "idle_requests_per_minute", "requests",
                    obs::Provenance::kSim, row.mode->idle_requests_per_minute);
    report.AddValue(prefix + "idle_bytes_per_minute", "bytes",
                    obs::Provenance::kSim,
                    static_cast<double>(row.mode->idle_bytes_per_minute));
    report.AddValue(prefix + "recovered_after_drop", "bool",
                    obs::Provenance::kSim,
                    row.mode->recovered_after_drop ? 1 : 0);
  }
  WriteReport(report);
  PrintRule();
  std::printf("shape check: push (long-poll, DESIGN.md §15) removes the "
              "tick-wait latency and most of the idle\ntraffic; the poll "
              "timeout + signed-resume ladder restores the reliability that "
              "made the paper ship polling.\n");
  if (!poll.recovered_after_drop || !push.recovered_after_drop) {
    std::printf("SHAPE CHECK FAILED: a mode did not recover after the drop\n");
    return 1;
  }
  return 0;
}
