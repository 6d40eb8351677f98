// Parameterized environment-matrix sweep: every combination of network
// profile (LAN / WAN / mobile), cache mode, delivery (classic poll or a
// stream=2 long-poll), and participant count must produce a correct
// synchronized session on a corpus site.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>

#include "src/core/ajax_snippet.h"
#include "src/core/session.h"
#include "src/delta/tree_diff.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/net/fault_injector.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

struct MatrixCase {
  const char* profile;  // "lan" | "wan" | "mobile"
  bool cache_mode;
  bool stream2;  // participants advertise stream=2 and long-poll
  size_t participants;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = c.profile;
  name += c.cache_mode ? "_cache" : "_origin";
  name += c.stream2 ? "_stream2" : "_poll";
  name += "_p" + std::to_string(c.participants);
  return name;
}

NetworkProfile ProfileByName(const std::string& name) {
  if (name == "wan") {
    return WanProfile();
  }
  if (name == "mobile") {
    return MobileProfile();
  }
  return LanProfile();
}

class EnvironmentMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EnvironmentMatrixTest, CoNavigationSynchronizesEveryone) {
  const MatrixCase& param = GetParam();
  EventLoop loop;
  Network network(&loop);
  SessionOptions options;
  options.profile = ProfileByName(param.profile);
  options.cache_mode = param.cache_mode;
  options.enable_transport = param.stream2;
  options.snippet_stream_mode =
      param.stream2 ? transport::kStreamFrames : transport::kStreamNone;
  options.participant_count = param.participants;
  options.poll_interval = Duration::Millis(500);

  const SiteSpec* spec = FindSite("facebook.com");
  AddOriginServer(&network, options.profile, spec->host, spec->server_bps,
                  spec->server_latency, options.host_machine,
                  options.participant_machine_prefix + "-1");
  for (size_t i = 2; i <= param.participants; ++i) {
    network.SetLatency(
        options.participant_machine_prefix + "-" + std::to_string(i),
        spec->host, spec->server_latency + options.profile.access_latency);
  }
  auto server = InstallSite(&loop, &network, *spec);

  CoBrowsingSession session(&loop, &network, options);
  ASSERT_TRUE(session.Start().ok());
  auto stats = session.CoNavigate(Url::Make("http", spec->host, 80, "/"),
                                  Duration::Seconds(300.0));
  ASSERT_TRUE(stats.ok()) << stats.status();

  for (size_t i = 0; i < param.participants; ++i) {
    Document* doc = session.participant_browser(i)->document();
    EXPECT_EQ(doc->Title(), "facebook.com - homepage") << "participant " << i;
    EXPECT_EQ(session.snippet(i)->metrics().object_fetch_failures, 0u);
    if (param.cache_mode) {
      EXPECT_GT(stats->participant_objects_from_host[i], 0u);
    } else {
      EXPECT_EQ(stats->participant_objects_from_host[i], 0u);
    }
  }
  // Snapshot generated once, reused for everyone (one mode in play).
  EXPECT_EQ(session.agent()->metrics().generations, 1u);

  // A scripted mutation also reaches everyone in every configuration.
  session.host_browser()->MutateDocument([](Document* document) {
    auto marker = MakeElement("div");
    marker->SetAttribute("id", "matrix-marker");
    document->body()->AppendChild(std::move(marker));
  });
  ASSERT_TRUE(session.WaitForSync(Duration::Seconds(120.0)).ok());
  for (size_t i = 0; i < param.participants; ++i) {
    EXPECT_NE(session.participant_browser(i)->document()->ById("matrix-marker"),
              nullptr)
        << "participant " << i;
  }
  // Every stream=2 participant holds the long-poll grant and, once idle,
  // a parked poll; classic pollers never park.
  const size_t want_parked = param.stream2 ? param.participants : 0u;
  const SimTime deadline = loop.now() + Duration::Seconds(30.0);
  while (loop.now() < deadline &&
         session.agent()->parked_poll_count() != want_parked) {
    loop.RunFor(Duration::Millis(10));
  }
  EXPECT_EQ(session.agent()->parked_poll_count(), want_parked);
  for (size_t i = 0; i < param.participants; ++i) {
    EXPECT_EQ(session.snippet(i)->long_poll_active(), param.stream2)
        << "participant " << i;
  }
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (const char* profile : {"lan", "wan", "mobile"}) {
    for (bool cache : {true, false}) {
      for (bool stream2 : {false, true}) {
        for (size_t participants : {1u, 3u}) {
          cases.push_back(MatrixCase{profile, cache, stream2, participants});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEnvironments, EnvironmentMatrixTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ------------------------------------------------ multi-session chaos ------
//
// {LAN, WAN} x {loss, reset, partition} against an RcbHost running three
// sessions of four participants each. The fault hits ONLY session 0's
// participant links; sessions 1 and 2 must come through untouched (no
// timeouts, no resyncs), session 0 must recover within the horizon, and two
// identical runs must produce bit-identical deterministic counters.

constexpr int kChaosSessions = 3;
constexpr int kChaosParticipants = 4;

struct HostChaosCase {
  const char* profile_name;  // "Lan" | "Wan"
  FaultEvent::Kind kind;
};

std::string HostChaosCaseName(
    const ::testing::TestParamInfo<HostChaosCase>& info) {
  std::string name = info.param.profile_name;
  switch (info.param.kind) {
    case FaultEvent::Kind::kLoss:
      name += "Loss";
      break;
    case FaultEvent::Kind::kReset:
      name += "Reset";
      break;
    default:
      name += "Partition";
      break;
  }
  return name;
}

std::string ChaosMachine(int session, int participant) {
  return StrFormat("chaos-pc-%d-%d", session, participant);
}

// One complete run; returns the deterministic counter fingerprint and runs
// the per-session independence assertions.
std::string RunMultiSessionChaos(const HostChaosCase& chaos) {
  NetworkProfile profile =
      std::string(chaos.profile_name) == "Wan" ? WanProfile() : LanProfile();
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", profile.host_interface);
  for (int s = 0; s < kChaosSessions; ++s) {
    for (int p = 0; p < kChaosParticipants; ++p) {
      network.AddHost(ChaosMachine(s, p), profile.participant_interface);
      network.SetLatency("host-pc", ChaosMachine(s, p),
                         profile.host_participant_latency);
    }
  }

  HostConfig host_config;
  host_config.agent_defaults.poll_interval = Duration::Millis(250);
  RcbHost host(&loop, &network, host_config);
  EXPECT_TRUE(host.Start().ok());

  struct ChaosParticipant {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  std::vector<HostSession*> sessions;
  std::vector<std::vector<ChaosParticipant>> participants(kChaosSessions);
  size_t joined = 0;
  for (int s = 0; s < kChaosSessions; ++s) {
    AgentConfig agent_config;
    agent_config.session_key = StrFormat("chaos-key-%d", s);
    auto session = host.CreateSession(StrFormat("chaos-%d", s), agent_config);
    EXPECT_TRUE(session.ok());
    sessions.push_back(*session);
    (*session)->browser->ReplaceDocument(
        ParseDocument(StrFormat("<html><head><title>S%d</title></head>"
                                "<body><p id=\"p\">base</p></body></html>",
                                s)),
        Url::Make("http", "host-pc", (*session)->port, "/doc"));
    participants[s].resize(kChaosParticipants);
    for (int p = 0; p < kChaosParticipants; ++p) {
      ChaosParticipant& participant = participants[s][p];
      participant.browser =
          std::make_unique<Browser>(&loop, &network, ChaosMachine(s, p));
      SnippetConfig config;
      config.session_key = StrFormat("chaos-key-%d", s);
      config.fetch_objects = false;
      config.poll_timeout = Duration::Seconds(1.0);
      config.reconnect_after = 2;
      config.backoff_base = Duration::Millis(250);
      config.backoff_max = Duration::Seconds(2.0);
      config.backoff_jitter = Duration::Millis(100);
      config.backoff_seed = 0x5EED + s * 16 + p;  // no retry stampedes
      participant.snippet = std::make_unique<AjaxSnippet>(
          participant.browser.get(), config);
      participant.snippet->Join(sessions[s]->agent->AgentUrl(),
                                [&](Status status) {
                                  EXPECT_TRUE(status.ok()) << status;
                                  ++joined;
                                });
    }
  }
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    return joined == kChaosSessions * kChaosParticipants;
  }));
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    for (auto& session_participants : participants) {
      for (auto& participant : session_participants) {
        if (participant.snippet->metrics().content_updates < 1) {
          return false;
        }
      }
    }
    return true;
  }));

  // The fault hits every participant link of session 0, nobody else's.
  FaultInjector injector(&network, /*seed=*/2024);
  for (int p = 0; p < kChaosParticipants; ++p) {
    FaultEvent event = ChaosEvent(profile, chaos.kind,
                                  loop.now() + Duration::Millis(100),
                                  chaos.kind == FaultEvent::Kind::kPartition
                                      ? Duration::Seconds(5.0)
                                      : Duration::Seconds(15.0));
    injector.Install(FaultPlan{"host-pc", ChaosMachine(0, p), {event}});
  }

  // Every session's document mutates mid-fault.
  loop.Schedule(Duration::Millis(500), [&] {
    for (HostSession* session : sessions) {
      session->browser->MutateDocument([](Document* document) {
        auto marker = MakeElement("div");
        marker->SetAttribute("id", "chaos-marker");
        document->body()->AppendChild(std::move(marker));
      });
    }
  });

  // Fixed simulated horizon so two runs execute the identical schedule.
  loop.RunFor(Duration::Seconds(40.0));

  std::string fingerprint;
  for (int s = 0; s < kChaosSessions; ++s) {
    const AgentMetrics& agent = sessions[s]->agent->metrics();
    fingerprint += StrFormat(
        "s%d agent polls=%llu content=%llu auth=%llu timeouts=%llu "
        "reconnects=%llu resyncs=%llu updates=%llu gens=%llu\n", s,
        static_cast<unsigned long long>(agent.polls_received),
        static_cast<unsigned long long>(agent.polls_with_content),
        static_cast<unsigned long long>(agent.auth_failures),
        static_cast<unsigned long long>(agent.poll_timeouts),
        static_cast<unsigned long long>(agent.reconnects),
        static_cast<unsigned long long>(agent.resyncs),
        static_cast<unsigned long long>(agent.doc_updates),
        static_cast<unsigned long long>(agent.generations));
    for (int p = 0; p < kChaosParticipants; ++p) {
      const SnippetMetrics& snippet = participants[s][p].snippet->metrics();
      bool converged = participants[s][p].browser->document()->ById(
                           "chaos-marker") != nullptr;
      fingerprint += StrFormat(
          "s%d p%d polls=%llu timeouts=%llu failures=%llu reconnects=%llu "
          "resyncs=%llu doc_time=%lld marker=%d\n", s, p,
          static_cast<unsigned long long>(snippet.polls_sent),
          static_cast<unsigned long long>(snippet.poll_timeouts),
          static_cast<unsigned long long>(snippet.transport_failures),
          static_cast<unsigned long long>(snippet.reconnects),
          static_cast<unsigned long long>(snippet.resyncs),
          static_cast<long long>(participants[s][p].snippet->doc_time_ms()),
          converged ? 1 : 0);

      // Convergence: everyone — including the faulted session — holds the
      // mid-fault mutation by the end of the horizon.
      EXPECT_TRUE(converged) << "session " << s << " participant " << p;
      if (s != 0) {
        // Independence: the fault never bled into the other sessions.
        EXPECT_EQ(snippet.poll_timeouts, 0u) << "session " << s;
        EXPECT_EQ(snippet.transport_failures, 0u) << "session " << s;
        EXPECT_EQ(snippet.resyncs, 0u) << "session " << s;
        EXPECT_EQ(snippet.reconnects, 0u) << "session " << s;
      }
    }
    if (s != 0) {
      EXPECT_EQ(agent.poll_timeouts, 0u) << "session " << s;
      EXPECT_EQ(agent.resyncs, 0u) << "session " << s;
      EXPECT_EQ(agent.auth_failures, 0u) << "session " << s;
    }
  }
  return fingerprint;
}

class MultiSessionChaosTest : public ::testing::TestWithParam<HostChaosCase> {};

TEST_P(MultiSessionChaosTest, FaultedSessionRecoversOthersUnaffected) {
  std::string first = RunMultiSessionChaos(GetParam());
  std::string second = RunMultiSessionChaos(GetParam());
  // Bit-identical recovery: the whole counter fingerprint reproduces.
  EXPECT_EQ(first, second) << "chaos recovery diverged between runs";
}

INSTANTIATE_TEST_SUITE_P(
    HostChaos, MultiSessionChaosTest,
    ::testing::Values(HostChaosCase{"Lan", FaultEvent::Kind::kLoss},
                      HostChaosCase{"Lan", FaultEvent::Kind::kReset},
                      HostChaosCase{"Lan", FaultEvent::Kind::kPartition},
                      HostChaosCase{"Wan", FaultEvent::Kind::kLoss},
                      HostChaosCase{"Wan", FaultEvent::Kind::kReset},
                      HostChaosCase{"Wan", FaultEvent::Kind::kPartition}),
    HostChaosCaseName);

// ---------------------------------------------- transport chaos matrix ----
//
// {LAN, WAN} x {loss, reset, partition} x {stream=2, long-poll, classic
// poll (transport off)}: a session takes the fault on its participant link
// mid-update, must reconverge through the recovery ladder
// (poll timeout -> signed resume), and two identical runs must produce
// bit-identical counter fingerprints. The stream=2 row also moves the
// participant's pointer mid-fault, so a gesture pre-empts its parked poll.

enum class TransportMode { kStream2, kLongPoll, kClassic };

struct TransportChaosCase {
  const char* profile_name;  // "Lan" | "Wan"
  FaultEvent::Kind kind;
  TransportMode mode;
};

std::string TransportChaosCaseName(
    const ::testing::TestParamInfo<TransportChaosCase>& info) {
  std::string name = info.param.profile_name;
  switch (info.param.kind) {
    case FaultEvent::Kind::kLoss:
      name += "Loss";
      break;
    case FaultEvent::Kind::kReset:
      name += "Reset";
      break;
    default:
      name += "Partition";
      break;
  }
  switch (info.param.mode) {
    case TransportMode::kStream2:
      name += "Stream2";
      break;
    case TransportMode::kLongPoll:
      name += "LongPoll";
      break;
    case TransportMode::kClassic:
      name += "ClassicPoll";
      break;
  }
  return name;
}

std::string RunTransportChaos(const TransportChaosCase& chaos) {
  NetworkProfile profile =
      std::string(chaos.profile_name) == "Wan" ? WanProfile() : LanProfile();
  EventLoop loop;
  Network network(&loop);
  network.AddHost("www.site.test", {});
  SiteServer site(&loop, &network, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>T</title></head>"
                   "<body><p id=\"p\">v1</p></body></html>");

  SessionOptions options;
  options.profile = profile;
  options.enable_auth = true;
  options.poll_interval = Duration::Millis(250);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 2;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  switch (chaos.mode) {
    case TransportMode::kStream2:
      options.enable_transport = true;
      options.snippet_stream_mode = 2;
      break;
    case TransportMode::kLongPoll:
      options.enable_transport = true;
      options.snippet_stream_mode = 1;
      break;
    case TransportMode::kClassic:
      // Transport off: the paper's fixed-interval poll.
      break;
  }
  CoBrowsingSession session(&loop, &network, options);
  EXPECT_TRUE(session.Start().ok());

  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [&](const Status& status, const PageLoadStats&) {
        EXPECT_TRUE(status.ok()) << status;
        loaded = true;
      });
  EXPECT_TRUE(loop.RunUntilCondition([&] { return loaded; }));
  EXPECT_TRUE(session.WaitForSync().ok());

  // A partition must outlast the snippet's deadline on its parked poll
  // (poll_timeout + the granted hold), so the long-poll cells time out and
  // reconnect inside the fault rather than just waiting for the flush.
  const bool partition = chaos.kind == FaultEvent::Kind::kPartition;
  Duration fault_duration = Duration::Seconds(15.0);
  if (partition) {
    fault_duration = chaos.mode == TransportMode::kClassic
                         ? Duration::Seconds(5.0)
                         : transport::kLongPollHold + options.poll_timeout +
                               Duration::Seconds(2.0);
  }
  FaultInjector injector(&network, /*seed=*/2024);
  FaultEvent event = ChaosEvent(profile, chaos.kind,
                                loop.now() + Duration::Millis(100),
                                fault_duration);
  injector.Install(FaultPlan{"host-pc", "participant-pc-1", {event}});
  loop.Schedule(Duration::Millis(500), [&] {
    session.host_browser()->MutateDocument([](Document* document) {
      auto marker = MakeElement("div");
      marker->SetAttribute("id", "transport-chaos-marker");
      document->body()->AppendChild(std::move(marker));
    });
  });
  if (chaos.mode == TransportMode::kStream2) {
    loop.Schedule(Duration::Millis(700),
                  [&] { session.snippet(0)->SendMouseMove(3, 4); });
  }

  // Fixed simulated horizon so two runs execute the identical schedule.
  loop.RunFor(Duration::Seconds(50.0));

  // Convergence through the fault, whatever rung of the ladder was used.
  EXPECT_NE(session.participant_browser(0)->document()->ById(
                "transport-chaos-marker"),
            nullptr)
      << TransportChaosCaseName({chaos, 0});

  const AgentMetrics& agent = session.agent()->metrics();
  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  if (partition) {
    // The partition cells exist to drive the ladder's first rungs. A parked
    // or classic poll times out; the stream=2 pre-empt's fresh poll fails
    // inside the partition instead, and both paths must reach a reconnect.
    std::string name = TransportChaosCaseName({chaos, 0});
    if (chaos.mode != TransportMode::kStream2) {
      EXPECT_GE(snippet.poll_timeouts, 1u) << name;
    }
    EXPECT_GE(snippet.poll_timeouts + snippet.transport_failures, 2u) << name;
    EXPECT_GE(snippet.reconnects, 1u) << name;
  }
  return StrFormat(
      "agent polls=%llu content=%llu timeouts=%llu reconnects=%llu "
      "resyncs=%llu parked=%llu flushes=%llu expiries=%llu denials=%llu\n"
      "snippet polls=%llu wasted=%llu wasted_bytes=%llu superseded=%llu "
      "timeouts=%llu failures=%llu reconnects=%llu resyncs=%llu "
      "doc_time=%lld\n",
      static_cast<unsigned long long>(agent.polls_received),
      static_cast<unsigned long long>(agent.polls_with_content),
      static_cast<unsigned long long>(agent.poll_timeouts),
      static_cast<unsigned long long>(agent.reconnects),
      static_cast<unsigned long long>(agent.resyncs),
      static_cast<unsigned long long>(agent.transport_long_polls_parked),
      static_cast<unsigned long long>(agent.transport_long_poll_flushes),
      static_cast<unsigned long long>(agent.transport_long_poll_expiries),
      static_cast<unsigned long long>(agent.transport_capacity_denials),
      static_cast<unsigned long long>(snippet.polls_sent),
      static_cast<unsigned long long>(snippet.wasted_polls),
      static_cast<unsigned long long>(snippet.wasted_poll_bytes),
      static_cast<unsigned long long>(snippet.polls_superseded),
      static_cast<unsigned long long>(snippet.poll_timeouts),
      static_cast<unsigned long long>(snippet.transport_failures),
      static_cast<unsigned long long>(snippet.reconnects),
      static_cast<unsigned long long>(snippet.resyncs),
      static_cast<long long>(session.snippet(0)->doc_time_ms()));
}

class TransportChaosTest
    : public ::testing::TestWithParam<TransportChaosCase> {};

TEST_P(TransportChaosTest, RecoversAndReplaysBitIdentically) {
  std::string first = RunTransportChaos(GetParam());
  std::string second = RunTransportChaos(GetParam());
  EXPECT_EQ(first, second) << "transport chaos recovery diverged between runs";
}

std::vector<TransportChaosCase> AllTransportChaosCases() {
  std::vector<TransportChaosCase> cases;
  for (const char* profile : {"Lan", "Wan"}) {
    for (FaultEvent::Kind kind :
         {FaultEvent::Kind::kLoss, FaultEvent::Kind::kReset,
          FaultEvent::Kind::kPartition}) {
      for (TransportMode mode : {TransportMode::kStream2,
                                 TransportMode::kLongPoll,
                                 TransportMode::kClassic}) {
        cases.push_back(TransportChaosCase{profile, kind, mode});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(TransportChaos, TransportChaosTest,
                         ::testing::ValuesIn(AllTransportChaosCases()),
                         TransportChaosCaseName);

// ------------------------------------------- crash-recovery chaos matrix ---
//
// {every CrashPoint} x {LAN, WAN}: an RcbHost with three persisted sessions
// is crash-injected on session 0's persistence stream (DESIGN.md §13),
// restarted over the same directory, and must recover per the ladder —
// while a second, unfaulted host on its own machine sails through the whole
// cycle with zero recovery events. Two identical runs must produce
// bit-identical counter + digest fingerprints.

constexpr int kCrashSessions = 3;
constexpr int kCrashParticipants = 2;

struct CrashChaosCase {
  const char* profile_name;  // "Lan" | "Wan"
  CrashPoint point;
};

std::string CrashChaosCaseName(
    const ::testing::TestParamInfo<CrashChaosCase>& info) {
  std::string name = info.param.profile_name;
  bool upper = true;
  for (char c : std::string(CrashPointName(info.param.point))) {
    if (c == '_') {
      upper = true;
      continue;
    }
    name += upper ? static_cast<char>(std::toupper(c)) : c;
    upper = false;
  }
  return name;
}

std::string CrashDigest(const Document& document) {
  return delta::TreeDigest(*delta::CanonicalizeDocument(document));
}

// One complete crash/restart/recovery cycle; returns the deterministic
// fingerprint and runs the per-case recovery + independence assertions.
std::string RunCrashRecoveryChaos(const CrashChaosCase& chaos) {
  namespace fs = std::filesystem;
  NetworkProfile profile =
      std::string(chaos.profile_name) == "Wan" ? WanProfile() : LanProfile();
  const bool swap_torn = chaos.point == CrashPoint::kTornCheckpointSwap;
  const bool checkpoint_point =
      swap_torn || chaos.point == CrashPoint::kTornCheckpointTmp;
  const bool torn_tail = chaos.point == CrashPoint::kTornWalFrame ||
                         chaos.point == CrashPoint::kPartialFlush;

  // Fresh directory per case, wiped so both fingerprint runs start equal.
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("rcb_crash_chaos_") + chaos.profile_name + "_" +
                  CrashPointName(chaos.point));
  fs::remove_all(dir);
  fs::create_directories(dir);

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", profile.host_interface);
  network.AddHost("calm-pc", profile.host_interface);
  for (int s = 0; s < kCrashSessions; ++s) {
    for (int p = 0; p < kCrashParticipants; ++p) {
      network.AddHost(ChaosMachine(s, p), profile.participant_interface);
      network.SetLatency("host-pc", ChaosMachine(s, p),
                         profile.host_participant_latency);
    }
  }
  for (int p = 0; p < kCrashParticipants; ++p) {
    network.AddHost(StrFormat("calm-pc-p%d", p),
                    profile.participant_interface);
    network.SetLatency("calm-pc", StrFormat("calm-pc-p%d", p),
                       profile.host_participant_latency);
  }

  ProcessFaultInjector faults;
  auto make_config = [&] {
    HostConfig config;
    config.agent_defaults.poll_interval = Duration::Millis(250);
    config.persist.dir = dir.string();
    config.process_faults = &faults;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };
  auto host = std::make_unique<RcbHost>(&loop, &network, make_config());
  EXPECT_TRUE(host->Start().ok());

  // The unfaulted control: its own host machine, no persistence, never
  // restarted — the crash cycle next door must not register here at all.
  HostConfig calm_config;
  calm_config.machine = "calm-pc";
  calm_config.agent_defaults.poll_interval = Duration::Millis(250);
  RcbHost calm_host(&loop, &network, calm_config);
  EXPECT_TRUE(calm_host.Start().ok());
  auto calm_session = calm_host.CreateSession("calm");
  EXPECT_TRUE(calm_session.ok());
  (*calm_session)
      ->browser->ReplaceDocument(
          ParseDocument("<html><head><title>Calm</title></head>"
                        "<body><p id=\"status\">calm</p></body></html>"),
          Url::Make("http", "calm-pc", (*calm_session)->port, "/doc"));

  struct ChaosParticipant {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  auto make_snippet_config = [](const std::string& key, uint64_t seed) {
    SnippetConfig config;
    config.session_key = key;
    config.fetch_objects = false;
    config.poll_timeout = Duration::Seconds(1.0);
    config.reconnect_after = 2;
    config.backoff_base = Duration::Millis(250);
    config.backoff_max = Duration::Seconds(2.0);
    config.backoff_jitter = Duration::Millis(100);
    config.backoff_seed = seed;  // no retry stampedes
    return config;
  };

  std::vector<uint16_t> ports(kCrashSessions);
  std::vector<std::vector<ChaosParticipant>> participants(kCrashSessions);
  std::vector<ChaosParticipant> calm_participants(kCrashParticipants);
  size_t joined = 0;
  for (int s = 0; s < kCrashSessions; ++s) {
    AgentConfig agent_config;
    agent_config.session_key = StrFormat("crash-key-%d", s);
    auto session = host->CreateSession(StrFormat("crash-%d", s), agent_config);
    EXPECT_TRUE(session.ok());
    ports[s] = (*session)->port;
    (*session)->browser->ReplaceDocument(
        ParseDocument(StrFormat("<html><head><title>S%d</title></head>"
                                "<body><p id=\"status\">v1</p></body></html>",
                                s)),
        Url::Make("http", "host-pc", ports[s], "/doc"));
    participants[s].resize(kCrashParticipants);
    for (int p = 0; p < kCrashParticipants; ++p) {
      ChaosParticipant& participant = participants[s][p];
      participant.browser =
          std::make_unique<Browser>(&loop, &network, ChaosMachine(s, p));
      participant.snippet = std::make_unique<AjaxSnippet>(
          participant.browser.get(),
          make_snippet_config(StrFormat("crash-key-%d", s),
                              0x5EED + s * 16 + p));
      participant.snippet->Join((*session)->agent->AgentUrl(),
                                [&](Status status) {
                                  EXPECT_TRUE(status.ok()) << status;
                                  ++joined;
                                });
    }
  }
  for (int p = 0; p < kCrashParticipants; ++p) {
    ChaosParticipant& participant = calm_participants[p];
    participant.browser = std::make_unique<Browser>(
        &loop, &network, StrFormat("calm-pc-p%d", p));
    participant.snippet = std::make_unique<AjaxSnippet>(
        participant.browser.get(), make_snippet_config("", 0xCA1A + p));
    participant.snippet->Join((*calm_session)->agent->AgentUrl(),
                              [&](Status status) {
                                EXPECT_TRUE(status.ok()) << status;
                                ++joined;
                              });
  }
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    return joined ==
           static_cast<size_t>((kCrashSessions + 1) * kCrashParticipants);
  }));

  // Everyone converges on a second version, which is then made durable —
  // the state recovery must restore bit-for-bit.
  for (int s = 0; s < kCrashSessions; ++s) {
    host->FindSession(StrFormat("crash-%d", s))
        ->browser->MutateDocument([&](Document* document) {
          document->body()->SetAttribute("data-v", "2");
        });
  }
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    for (auto& session_participants : participants) {
      for (auto& participant : session_participants) {
        if (participant.browser->document()->body()->AttrOr("data-v") != "2") {
          return false;
        }
      }
    }
    return true;
  }));
  std::vector<std::string> durable_digest(kCrashSessions);
  for (int s = 0; s < kCrashSessions; ++s) {
    std::string id = StrFormat("crash-%d", s);
    EXPECT_TRUE(host->CheckpointSession(id).ok());
    durable_digest[s] =
        CrashDigest(*host->FindSession(id)->browser->document());
  }

  // Arm the case's crash point against session 0's persistence stream only,
  // drive traffic into it, and let the process die.
  faults.Arm({chaos.point, 0, "crash-0"});
  host->FindSession("crash-0")->browser->MutateDocument(
      [&](Document* document) {
        document->body()->SetAttribute("data-v", "3");
      });
  if (checkpoint_point) {
    (void)host->CheckpointSession("crash-0");
  }
  EXPECT_TRUE(loop.RunUntilCondition([&] { return faults.crashed(); }));
  EXPECT_EQ(faults.metrics().crashes, 1u);
  host.reset();
  loop.RunFor(Duration::Seconds(2.0));

  // Restart over the same directory: the ladder decides per session.
  faults.Reset();
  host = std::make_unique<RcbHost>(&loop, &network, make_config());
  EXPECT_TRUE(host->Start().ok());
  EXPECT_EQ(host->metrics().sessions_recovered, swap_torn ? 2u : 3u);
  EXPECT_EQ(host->metrics().sessions_unrecoverable, swap_torn ? 1u : 0u);
  if (torn_tail) {
    EXPECT_GE(host->persist_counters().wal_tail_discards, 1u);
  } else {
    EXPECT_EQ(host->persist_counters().wal_tail_discards, 0u);
  }
  if (swap_torn) {
    EXPECT_GE(host->persist_counters().checkpoints_rejected, 1u);
    EXPECT_EQ(host->FindSession("crash-0"), nullptr);
  }

  // Recovered sessions restore the durable digests bit-identical, and their
  // participants come back over the signed-resume path — no full rejoin.
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    for (int s = swap_torn ? 1 : 0; s < kCrashSessions; ++s) {
      for (auto& participant : participants[s]) {
        const SnippetMetrics& m = participant.snippet->metrics();
        if (m.reconnects < 1 || m.resyncs < 1) {
          return false;
        }
      }
    }
    return true;
  }));
  for (int s = swap_torn ? 1 : 0; s < kCrashSessions; ++s) {
    HostSession* session = host->FindSession(StrFormat("crash-%d", s));
    EXPECT_NE(session, nullptr) << s;
    if (session == nullptr) {
      continue;
    }
    EXPECT_TRUE(session->recovered) << s;
    EXPECT_EQ(session->port, ports[s]) << s;
    EXPECT_EQ(CrashDigest(*session->browser->document()), durable_digest[s])
        << s;
    EXPECT_EQ(session->agent->metrics().new_connections, 0u) << s;
    EXPECT_GE(session->agent->metrics().reconnects, 1u) << s;
    for (auto& participant : participants[s]) {
      EXPECT_EQ(CrashDigest(*participant.browser->document()),
                durable_digest[s])
          << s;
    }
  }
  if (swap_torn) {
    // The quarantined session's participants never got back in — and never
    // fell back to an unauthenticated fresh join either.
    for (auto& participant : participants[0]) {
      EXPECT_EQ(participant.snippet->metrics().reconnects, 0u);
    }
  }

  // The unfaulted host saw nothing: zero recovery events end to end.
  EXPECT_EQ(calm_host.metrics().sessions_recovered, 0u);
  EXPECT_EQ(calm_host.metrics().sessions_unrecoverable, 0u);
  const AgentMetrics& calm_agent = (*calm_session)->agent->metrics();
  EXPECT_EQ(calm_agent.reconnects, 0u);
  EXPECT_EQ(calm_agent.resyncs, 0u);
  EXPECT_EQ(calm_agent.poll_timeouts, 0u);
  for (auto& participant : calm_participants) {
    const SnippetMetrics& m = participant.snippet->metrics();
    EXPECT_EQ(m.transport_failures, 0u);
    EXPECT_EQ(m.poll_timeouts, 0u);
    EXPECT_EQ(m.reconnects, 0u);
    EXPECT_EQ(m.resyncs, 0u);
    EXPECT_EQ(m.overload_deferrals, 0u);
  }
  // ...and it is still live: a post-cycle mutation reaches its pollers.
  (*calm_session)->browser->MutateDocument([](Document* document) {
    document->body()->SetAttribute("data-after", "1");
  });
  EXPECT_TRUE(loop.RunUntilCondition([&] {
    for (auto& participant : calm_participants) {
      if (participant.browser->document()->body()->AttrOr("data-after") !=
          "1") {
        return false;
      }
    }
    return true;
  }));

  // The deterministic fingerprint: counters + digests from both hosts.
  std::string fingerprint = StrFormat(
      "host recovered=%llu unrecoverable=%llu tails=%llu rejected=%llu "
      "ckpts=%llu wal_records=%llu torn=%llu\n",
      static_cast<unsigned long long>(host->metrics().sessions_recovered),
      static_cast<unsigned long long>(host->metrics().sessions_unrecoverable),
      static_cast<unsigned long long>(
          host->persist_counters().wal_tail_discards),
      static_cast<unsigned long long>(
          host->persist_counters().checkpoints_rejected),
      static_cast<unsigned long long>(
          host->persist_counters().checkpoints_written),
      static_cast<unsigned long long>(host->persist_counters().wal_records),
      static_cast<unsigned long long>(host->persist_counters().torn_writes));
  for (int s = 0; s < kCrashSessions; ++s) {
    HostSession* session = host->FindSession(StrFormat("crash-%d", s));
    if (session == nullptr) {
      fingerprint += StrFormat("s%d quarantined\n", s);
    } else {
      const AgentMetrics& agent = session->agent->metrics();
      fingerprint += StrFormat(
          "s%d recovered=%d reconnects=%llu resyncs=%llu new=%llu "
          "digest=%s\n",
          s, session->recovered ? 1 : 0,
          static_cast<unsigned long long>(agent.reconnects),
          static_cast<unsigned long long>(agent.resyncs),
          static_cast<unsigned long long>(agent.new_connections),
          CrashDigest(*session->browser->document()).c_str());
    }
    for (int p = 0; p < kCrashParticipants; ++p) {
      const SnippetMetrics& m = participants[s][p].snippet->metrics();
      fingerprint += StrFormat(
          "s%d p%d failures=%llu reconnects=%llu resyncs=%llu digest=%s\n", s,
          p, static_cast<unsigned long long>(m.transport_failures),
          static_cast<unsigned long long>(m.reconnects),
          static_cast<unsigned long long>(m.resyncs),
          CrashDigest(*participants[s][p].browser->document()).c_str());
    }
  }
  fingerprint += StrFormat(
      "calm polls=%llu updates=%llu\n",
      static_cast<unsigned long long>(calm_agent.polls_received),
      static_cast<unsigned long long>(calm_agent.doc_updates));
  return fingerprint;
}

class CrashRecoveryChaosTest
    : public ::testing::TestWithParam<CrashChaosCase> {};

TEST_P(CrashRecoveryChaosTest, RecoveryLadderHoldsAndUnfaultedSeeNothing) {
  std::string first = RunCrashRecoveryChaos(GetParam());
  std::string second = RunCrashRecoveryChaos(GetParam());
  // Bit-identical crash recovery: the full fingerprint reproduces.
  EXPECT_EQ(first, second) << "crash recovery diverged between runs";
}

std::vector<CrashChaosCase> AllCrashCases() {
  std::vector<CrashChaosCase> cases;
  for (const char* profile : {"Lan", "Wan"}) {
    for (CrashPoint point : kAllCrashPoints) {
      cases.push_back(CrashChaosCase{profile, point});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CrashChaos, CrashRecoveryChaosTest,
                         ::testing::ValuesIn(AllCrashCases()),
                         CrashChaosCaseName);

}  // namespace
}  // namespace rcb
