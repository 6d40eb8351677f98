// Recovery: crash-safe durability cost and restart behavior (DESIGN.md §13).
//
// Sweeps session count x 2 signed pollers on one persisted RcbHost, kills
// the process mid WAL stream, restarts over the same directory, and
// reports, per point:
//   * recovery wall time (real time for the full scan-decode-replay-restart
//     pass) total and per session,
//   * checkpoint overhead: wall time and bytes per checkpointed session,
//   * resync cost: content bytes served after recovery until every poller
//     has reconnected (signed resume) and resynced, per participant,
//   * the recovery proof: every session recovered, every poller resumed
//     with zero fresh joins.
//
// Env knobs (CI shrinks the sweep under sanitizers):
//   RCB_RECOVERY_MAX_SESSIONS  largest point to run (default 256)
//   RCB_RECOVERY_PARTICIPANTS  pollers per session (default 2)
#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "bench/common.h"
#include "src/core/ajax_snippet.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/net/fault_injector.h"
#include "src/util/strings.h"

using namespace rcb;
using namespace rcb::benchutil;

namespace {

struct RecoveryPoint {
  size_t sessions = 0;
  size_t participants = 0;
  double recovery_wall_ms = 0;
  double recovery_wall_ms_per_session = 0;
  double checkpoint_wall_ms_per_session = 0;
  double checkpoint_bytes_per_session = 0;
  uint64_t wal_records = 0;
  double resync_bytes_per_participant = 0;
  uint64_t recovered = 0;
  uint64_t fresh_joins_after_recovery = 0;
  double wall_seconds = 0;
};

// Bounded wait: a bench must fail loudly, not spin, when convergence stalls
// (pollers keep the event queue non-empty forever).
template <typename Pred>
bool WaitFor(EventLoop* loop, Duration budget, Pred pred) {
  SimTime deadline = loop->now() + budget;
  while (loop->now() < deadline) {
    if (pred()) {
      return true;
    }
    loop->RunFor(Duration::Millis(100));
  }
  return pred();
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  long parsed = std::atol(value);
  return parsed <= 0 ? fallback : static_cast<size_t>(parsed);
}

StatusOr<RecoveryPoint> RunPoint(size_t sessions, size_t participants) {
  namespace fs = std::filesystem;
  auto wall_start = std::chrono::steady_clock::now();
  RecoveryPoint point;
  point.sessions = sessions;
  point.participants = participants;

  fs::path dir = fs::temp_directory_path() /
                 ("rcb_bench_recovery_" + std::to_string(sessions));
  fs::remove_all(dir);
  fs::create_directories(dir);

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  for (size_t p = 0; p < participants; ++p) {
    std::string machine = "poller-pc-" + std::to_string(p + 1);
    network.AddHost(machine, {});
    network.SetLatency("host-pc", machine, Duration::Millis(1));
  }

  ProcessFaultInjector faults;
  auto make_config = [&] {
    HostConfig config;
    config.base_port = 3000;
    config.limits.max_sessions = 0;
    config.agent_defaults.poll_interval = Duration::Millis(500);
    config.persist.dir = dir.string();
    config.process_faults = &faults;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };
  auto host = std::make_unique<RcbHost>(&loop, &network, make_config());
  RCB_RETURN_IF_ERROR(host->Start());

  for (size_t s = 0; s < sessions; ++s) {
    AgentConfig agent_config;
    agent_config.session_key = "recovery-key-" + std::to_string(s);
    auto session = host->CreateSession("s" + std::to_string(s), agent_config);
    if (!session.ok()) {
      return session.status();
    }
    (*session)->browser->ReplaceDocument(
        ParseDocument(StrFormat(
            "<html><head><title>recovery %zu</title></head>"
            "<body><p id=\"status\">round 0</p>"
            "<ul><li>alpha</li><li>beta</li><li>gamma</li></ul>"
            "</body></html>", s)),
        Url::Make("http", "host-pc", (*session)->port, "/doc"));
  }

  struct Poller {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  std::vector<Poller> pollers;
  pollers.reserve(sessions * participants);
  size_t joined = 0;
  for (size_t s = 0; s < sessions; ++s) {
    HostSession* session = host->FindSession("s" + std::to_string(s));
    for (size_t p = 0; p < participants; ++p) {
      Poller poller;
      poller.browser = std::make_unique<Browser>(
          &loop, &network, "poller-pc-" + std::to_string(p + 1));
      SnippetConfig snippet_config;
      snippet_config.session_key = "recovery-key-" + std::to_string(s);
      snippet_config.fetch_objects = false;
      // Timeout well under the downtime window below, so every poller sees
      // at least reconnect_after consecutive failures while the host is gone
      // (a lone timeout straddling the restart would otherwise resolve into
      // a plain successful poll and never exercise the resume path).
      snippet_config.poll_timeout = Duration::Millis(400);
      snippet_config.reconnect_after = 2;
      snippet_config.backoff_base = Duration::Millis(100);
      snippet_config.backoff_max = Duration::Millis(400);
      snippet_config.backoff_jitter = Duration::Millis(100);
      snippet_config.backoff_seed = 0x5EED + s * 64 + p;
      poller.snippet = std::make_unique<AjaxSnippet>(poller.browser.get(),
                                                     snippet_config);
      poller.snippet->Join(session->agent->AgentUrl(), [&joined](Status status) {
        if (status.ok()) {
          ++joined;
        }
      });
      pollers.push_back(std::move(poller));
    }
  }
  if (!WaitFor(&loop, Duration::Seconds(30.0),
               [&] { return joined == sessions * participants; })) {
    return InternalError(StrFormat("only %zu/%zu pollers joined", joined,
                                   sessions * participants));
  }
  if (!WaitFor(&loop, Duration::Seconds(30.0), [&] {
        for (const Poller& poller : pollers) {
          if (poller.snippet->metrics().content_updates < 1) {
            return false;
          }
        }
        return true;
      })) {
    return InternalError("pollers never converged on the initial document");
  }

  // Checkpoint overhead: one full checkpoint-and-truncate pass.
  auto checkpoint_start = std::chrono::steady_clock::now();
  host->CheckpointAllSessions();
  point.checkpoint_wall_ms_per_session =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - checkpoint_start)
          .count() /
      static_cast<double>(sessions);
  point.checkpoint_bytes_per_session =
      static_cast<double>(host->persist_counters().checkpoint_bytes) /
      static_cast<double>(host->persist_counters().checkpoints_written);

  // Kill the process mid WAL stream (the signed pollers' seq advances are
  // appending continuously), then model the dead image.
  faults.Arm({CrashPoint::kAfterWalAppend, 0, ""});
  if (!WaitFor(&loop, Duration::Seconds(30.0),
               [&] { return faults.crashed(); })) {
    return InternalError("crash point never fired");
  }
  host.reset();
  // Downtime long enough for every poller to rack up reconnect_after
  // consecutive failures and start hammering the (dead) resume endpoint.
  loop.RunFor(Duration::Seconds(2.0));

  // Recovery wall time: everything from scanning the directory to every
  // session listening again happens inside Start().
  faults.Reset();
  auto recovery_start = std::chrono::steady_clock::now();
  host = std::make_unique<RcbHost>(&loop, &network, make_config());
  RCB_RETURN_IF_ERROR(host->Start());
  point.recovery_wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - recovery_start)
                               .count();
  point.recovery_wall_ms_per_session =
      point.recovery_wall_ms / static_cast<double>(sessions);
  point.recovered = host->metrics().sessions_recovered;
  point.wal_records = host->persist_counters().wal_records;

  // Resync cost: content bytes served until every poller is back (signed
  // resume + full snapshot), which is exactly the restart storm's bill.
  if (!WaitFor(&loop, Duration::Seconds(60.0), [&] {
        for (const Poller& poller : pollers) {
          const SnippetMetrics& m = poller.snippet->metrics();
          if (m.reconnects < 1 || m.resyncs < 1) {
            return false;
          }
        }
        return true;
      })) {
    return InternalError("pollers never resumed after recovery");
  }
  uint64_t resync_bytes = 0;
  for (size_t s = 0; s < sessions; ++s) {
    HostSession* session = host->FindSession("s" + std::to_string(s));
    if (session == nullptr) {
      return InternalError(StrFormat("session s%zu not recovered", s));
    }
    resync_bytes += session->agent->metrics().content_bytes_sent;
    point.fresh_joins_after_recovery +=
        session->agent->metrics().new_connections;
  }
  point.resync_bytes_per_participant =
      static_cast<double>(resync_bytes) /
      static_cast<double>(sessions * participants);
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  host.reset();  // shutdown checkpoint must land before the dir goes away
  fs::remove_all(dir);
  return point;
}

}  // namespace

int main() {
  const size_t max_sessions = EnvSize("RCB_RECOVERY_MAX_SESSIONS", 256);
  const size_t participants = EnvSize("RCB_RECOVERY_PARTICIPANTS", 2);
  PrintBenchHeader(
      "Recovery — checkpoint/WAL durability, crash restart, signed resume",
      StrFormat("sessions x %zu signed pollers, LAN, crash at "
                "after_wal_append; RCB_RECOVERY_MAX_SESSIONS=%zu",
                participants, max_sessions));

  obs::BenchReport report = MakeReport("recovery", "lan", /*cache_mode=*/true,
                                       /*repetitions=*/1);
  report.SetConfig("participants_per_session", std::to_string(participants));
  report.SetConfig("max_sessions", std::to_string(max_sessions));
  report.SetConfig("crash_point", "after_wal_append");

  std::printf("%-9s %12s %14s %14s %14s %12s %12s %10s\n", "sessions",
              "recover ms", "ms/session", "ckpt ms/sess", "ckpt B/sess",
              "resync B/p", "recovered", "wall s");
  bool shape_ok = true;
  for (size_t sessions : {4ul, 16ul, 64ul, 256ul}) {
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
    std::printf("%-9zu %12.2f %14.3f %14.3f %14.0f %12.0f %12llu %10.2f\n",
                sessions, point->recovery_wall_ms,
                point->recovery_wall_ms_per_session,
                point->checkpoint_wall_ms_per_session,
                point->checkpoint_bytes_per_session,
                point->resync_bytes_per_participant,
                static_cast<unsigned long long>(point->recovered),
                point->wall_seconds);
    // The recovery proof must hold at every point: every session restored,
    // every poller back via signed resume, zero fresh joins.
    if (point->recovered != sessions ||
        point->fresh_joins_after_recovery != 0) {
      shape_ok = false;
    }

    std::string prefix = StrFormat("n%zu_", sessions);
    report.AddValue(prefix + "recovery_wall_ms", "ms", obs::Provenance::kWall,
                    point->recovery_wall_ms);
    report.AddValue(prefix + "recovery_wall_ms_per_session", "ms",
                    obs::Provenance::kWall,
                    point->recovery_wall_ms_per_session);
    report.AddValue(prefix + "checkpoint_wall_ms_per_session", "ms",
                    obs::Provenance::kWall,
                    point->checkpoint_wall_ms_per_session);
    report.AddValue(prefix + "checkpoint_bytes_per_session", "bytes",
                    obs::Provenance::kSim,
                    point->checkpoint_bytes_per_session);
    report.AddValue(prefix + "wal_records", "records", obs::Provenance::kSim,
                    static_cast<double>(point->wal_records));
    report.AddValue(prefix + "resync_bytes_per_participant", "bytes",
                    obs::Provenance::kSim,
                    point->resync_bytes_per_participant);
    report.AddValue(prefix + "sessions_recovered", "sessions",
                    obs::Provenance::kSim,
                    static_cast<double>(point->recovered));
    report.AddValue(prefix + "fresh_joins_after_recovery", "joins",
                    obs::Provenance::kSim,
                    static_cast<double>(point->fresh_joins_after_recovery));
  }
  WriteReport(report);
  PrintRule();
  std::printf("shape check: every session recovered and every poller resumed "
              "signed\n(zero fresh joins); recovery wall time ~linear in "
              "sessions, resync bytes\n~flat per participant.\n");
  if (!shape_ok) {
    std::printf("SHAPE CHECK FAILED\n");
    return 1;
  }
  return 0;
}
