// Failure-injection tests: agent restarts, origin outages, participant
// crashes, hostile traffic, and a deterministic chaos matrix of injected
// network faults — the session must degrade predictably and the poll model
// must recover by construction (§3.2.3).
#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/net/fault_injector.h"
#include "src/net/profiles.h"
#include "src/obs/trace_export.h"
#include "src/util/escape.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"

namespace rcb {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() : network_(&loop_) {
    network_.AddHost("www.site.test", {});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "www.site.test");
    site_->ServeStatic("/", "text/html",
                       "<html><head><title>A</title></head>"
                       "<body><p id=\"p\">one</p></body></html>");
    site_->ServeStatic("/two", "text/html",
                       "<html><head><title>B</title></head>"
                       "<body><p id=\"p\">two</p></body></html>");
  }

  void StartSession(SessionOptions options = {}) {
    options.poll_interval = Duration::Millis(500);
    session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
    ASSERT_TRUE(session_->Start().ok());
  }

  void HostNavigate(const std::string& path) {
    bool done = false;
    session_->host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, path),
        [&](const Status& status, const PageLoadStats&) {
          ASSERT_TRUE(status.ok()) << status;
          done = true;
        });
    loop_.RunUntilCondition([&] { return done; });
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
  std::unique_ptr<CoBrowsingSession> session_;
};

TEST_F(RobustnessTest, PollingRecoversAfterAgentRestart) {
  StartSession();
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());

  // The agent process "crashes" and comes back.
  session_->agent()->Stop();
  loop_.RunFor(Duration::Seconds(3.0));  // polls fail silently meanwhile
  ASSERT_TRUE(session_->agent()->Start().ok());

  // The next host change reaches the participant without any participant-
  // side intervention: the poll loop reconnects by construction.
  HostNavigate("/two");
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->Title() == "B";
  });
  SUCCEED();
}

TEST_F(RobustnessTest, OriginOutageFailsHostNavigationButKeepsSession) {
  StartSession();
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());

  // Origin dies.
  site_.reset();
  bool done = false;
  Status nav_status;
  session_->host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/two"),
      [&](const Status& status, const PageLoadStats&) {
        nav_status = status;
        done = true;
      });
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_FALSE(nav_status.ok());

  // The co-browsing session itself is intact: the participant still shows
  // the last synchronized page and keeps polling.
  uint64_t polls = session_->agent()->metrics().polls_received;
  loop_.RunFor(Duration::Seconds(2.0));
  EXPECT_GT(session_->agent()->metrics().polls_received, polls);
  EXPECT_EQ(session_->participant_browser(0)->document()->Title(), "A");
}

TEST_F(RobustnessTest, ParticipantCrashDoesNotDisturbOthers) {
  SessionOptions options;
  options.participant_count = 2;
  StartSession(options);
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());

  session_->snippet(1)->AbortWithoutGoodbye();
  HostNavigate("/two");
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->Title() == "B";
  });
  // The crashed participant eventually drops out of the roster.
  loop_.RunFor(Duration::Seconds(12.0));
  auto connected = session_->agent()->ConnectedParticipants();
  EXPECT_EQ(connected.size(), 1u);
}

TEST_F(RobustnessTest, ParticipantRejoinsAfterCrash) {
  StartSession();
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());
  session_->snippet(0)->AbortWithoutGoodbye();
  loop_.RunFor(Duration::Seconds(1.0));

  // Rejoin with the same browser: a fresh initial page, fresh pid, and the
  // current content arrives on the first poll.
  bool rejoined = false;
  session_->snippet(0)->Join(session_->agent()->AgentUrl(), [&](Status status) {
    ASSERT_TRUE(status.ok());
    rejoined = true;
  });
  loop_.RunUntilCondition([&] { return rejoined; });
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->Title() == "A";
  });
  SUCCEED();
}

TEST_F(RobustnessTest, GarbageBytesOnAgentPortAreDropped) {
  StartSession();
  network_.AddHost("attacker", {});
  auto endpoint = network_.Connect("attacker", "host-pc", 3000);
  ASSERT_TRUE(endpoint.ok());
  (*endpoint)->Send(std::string("\x00\xff garbage not-http\r\n\r\n trash", 29));
  loop_.RunFor(Duration::Seconds(1.0));
  // Agent survives and keeps serving the legitimate participant.
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(session_->participant_browser(0)->document()->Title(), "A");
}

TEST_F(RobustnessTest, OversizedPollBodyRejected) {
  StartSession();
  network_.AddHost("attacker", {});
  // Content-Length above the parser's 64 MiB cap: connection dropped, agent
  // unharmed.
  auto endpoint = network_.Connect("attacker", "host-pc", 3000);
  ASSERT_TRUE(endpoint.ok());
  (*endpoint)->Send(
      "POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\nxxxx");
  loop_.RunFor(Duration::Seconds(1.0));
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());
}

TEST_F(RobustnessTest, MalformedActionPayloadIgnored) {
  StartSession();
  network_.AddHost("attacker", {});
  Browser attacker(&loop_, &network_, "attacker");
  bool done = false;
  int code = 0;
  attacker.Fetch(HttpMethod::kPost, Url::Make("http", "host-pc", 3000, "/"),
                 "pid=px&ts=0&actions=" + PercentEncode("type=warpdrive"),
                 "application/x-www-form-urlencoded", [&](FetchResult result) {
                   code = result.response.status_code;
                   done = true;
                 });
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(code, 400);
  // Host unaffected.
  HostNavigate("/");
  EXPECT_EQ(session_->host_browser()->document()->Title(), "A");
}

TEST_F(RobustnessTest, ActionTargetingRemovedElementIsIgnored) {
  StartSession();
  site_->ServeStatic("/links", "text/html",
                     "<html><body><a href=\"/\" id=\"a1\">1</a>"
                     "<a href=\"/two\" id=\"a2\">2</a></body></html>");
  HostNavigate("/links");
  ASSERT_TRUE(session_->WaitForSync().ok());
  // Participant captures a link, then the host navigates away (indices now
  // refer to a different page) — the stale click must not crash the agent.
  Element* link = session_->participant_browser(0)->document()->ById("a2");
  ASSERT_NE(link, nullptr);
  ASSERT_TRUE(session_->snippet(0)->ClickElement(link).ok());
  HostNavigate("/");  // page with zero anchors
  session_->snippet(0)->PollNow();
  loop_.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(session_->host_browser()->document()->Title(), "A");
}

TEST_F(RobustnessTest, RapidNavigationSettlesOnLastPage) {
  StartSession();
  // Host fires two navigations back to back; everyone converges on the last.
  bool done = false;
  session_->host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [](const Status&, const PageLoadStats&) {});
  session_->host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/two"),
      [&](const Status&, const PageLoadStats&) {
        done = true;
      });
  loop_.RunUntilCondition([&] { return done; });
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->Title() == "B";
  });
  SUCCEED();
}

TEST_F(RobustnessTest, ModeratedSessionFiltersParticipants) {
  // §3.3 per-participant permission: only the privileged participant may
  // navigate; everyone may still move the pointer.
  SessionOptions options;
  options.participant_count = 2;
  StartSession(options);
  HostNavigate("/");
  ASSERT_TRUE(session_->WaitForSync().ok());

  // Rebuild the agent with a filter privileging participant p1.
  session_->agent()->Stop();
  AgentConfig config;
  config.poll_interval = Duration::Millis(500);
  std::string privileged = session_->snippet(0)->participant_id();
  config.policies.participant_filter =
      [privileged](const std::string& pid, const UserAction& action) {
        if (action.type == ActionType::kMouseMove) {
          return true;
        }
        return pid == privileged;
      };
  RcbAgent moderated(session_->host_browser(), config);
  ASSERT_TRUE(moderated.Start().ok());

  session_->snippet(1)->RequestNavigate("http://www.site.test/two");
  session_->snippet(1)->PollNow();
  loop_.RunFor(Duration::Seconds(2.0));
  EXPECT_EQ(session_->host_browser()->document()->Title(), "A");  // denied
  EXPECT_GT(moderated.metrics().actions_denied, 0u);

  session_->snippet(0)->RequestNavigate("http://www.site.test/two");
  session_->snippet(0)->PollNow();
  loop_.RunUntilCondition([&] {
    return session_->host_browser()->document()->Title() == "B";  // allowed
  });
  SUCCEED();
}

// ------------------------------------------------------------ chaos matrix --
//
// {LAN, WAN} x {loss, jitter, reset, partition} x {poll, stream=2}: a fault
// hits the host<->participant link mid-session while the host navigates; the
// participant must re-converge to the host snapshot within a bounded number
// of polls. A stream=2 row runs on the long-poll its polls are granted.

struct ChaosCase {
  const char* profile_name;
  FaultEvent::Kind kind;
  bool stream2;  // advertise stream=2 (long-poll) instead of classic polling
};

std::string ChaosCaseName(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name = info.param.profile_name;
  switch (info.param.kind) {
    case FaultEvent::Kind::kJitter:
      name += "Jitter";
      break;
    case FaultEvent::Kind::kLoss:
      name += "Loss";
      break;
    case FaultEvent::Kind::kReset:
      name += "Reset";
      break;
    case FaultEvent::Kind::kPartition:
      name += "Partition";
      break;
    case FaultEvent::Kind::kBandwidthFlap:
      name += "Flap";
      break;
  }
  name += info.param.stream2 ? "Stream2" : "Poll";
  return name;
}

class ChaosMatrixTest : public ::testing::TestWithParam<ChaosCase> {
 protected:
  ChaosMatrixTest() : network_(&loop_) {
    network_.AddHost("www.site.test", {});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "www.site.test");
    site_->ServeStatic("/", "text/html",
                       "<html><head><title>A</title></head>"
                       "<body><p id=\"p\">one</p></body></html>");
    site_->ServeStatic("/two", "text/html",
                       "<html><head><title>B</title></head>"
                       "<body><p id=\"p\">two</p></body></html>");
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
};

TEST_P(ChaosMatrixTest, ReconvergesToHostSnapshotUnderFault) {
  const ChaosCase& chaos = GetParam();
  NetworkProfile profile = std::string(chaos.profile_name) == "Wan"
                               ? WanProfile()
                               : LanProfile();

  SessionOptions options;
  options.profile = profile;
  options.enable_auth = true;
  options.enable_transport = chaos.stream2;
  options.snippet_stream_mode =
      chaos.stream2 ? transport::kStreamFrames : transport::kStreamNone;
  options.poll_interval = Duration::Millis(250);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 2;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());

  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [&](const Status& status, const PageLoadStats&) {
        ASSERT_TRUE(status.ok()) << status;
        loaded = true;
      });
  loop_.RunUntilCondition([&] { return loaded; });
  ASSERT_TRUE(session.WaitForSync().ok());

  // Install the fault on the host<->participant link, scaled to the profile,
  // then navigate the host mid-fault.
  FaultInjector injector(&network_, /*seed=*/2024);
  FaultEvent event = ChaosEvent(profile, chaos.kind,
                                loop_.now() + Duration::Millis(100),
                                chaos.kind == FaultEvent::Kind::kPartition
                                    ? Duration::Seconds(5.0)
                                    : Duration::Seconds(15.0));
  injector.Install(FaultPlan{"host-pc", "participant-pc-1", {event}});

  uint64_t polls_before = session.snippet(0)->metrics().polls_sent;
  loop_.Schedule(Duration::Millis(500), [&] {
    session.host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, "/two"),
        [](const Status&, const PageLoadStats&) {});
  });

  SimTime deadline = loop_.now() + Duration::Seconds(40.0);
  while (loop_.now() < deadline &&
         session.participant_browser(0)->document()->Title() != "B") {
    loop_.RunFor(Duration::Millis(100));
  }
  EXPECT_EQ(session.participant_browser(0)->document()->Title(), "B")
      << "participant did not re-converge under the injected fault";
  // Bounded number of polls, not just bounded time: backoff keeps the
  // retry count low even across a 5 s blackout.
  EXPECT_LE(session.snippet(0)->metrics().polls_sent - polls_before, 80u);
  if (chaos.stream2) {
    // The row really held polls, and its last reply renewed the grant.
    EXPECT_GE(session.agent()->metrics().transport_long_polls_parked, 1u);
    EXPECT_TRUE(session.snippet(0)->long_poll_active());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chaos, ChaosMatrixTest,
    ::testing::Values(
        ChaosCase{"Lan", FaultEvent::Kind::kLoss, false},
        ChaosCase{"Lan", FaultEvent::Kind::kJitter, false},
        ChaosCase{"Lan", FaultEvent::Kind::kReset, false},
        ChaosCase{"Lan", FaultEvent::Kind::kPartition, false},
        ChaosCase{"Lan", FaultEvent::Kind::kLoss, true},
        ChaosCase{"Lan", FaultEvent::Kind::kJitter, true},
        ChaosCase{"Lan", FaultEvent::Kind::kReset, true},
        ChaosCase{"Lan", FaultEvent::Kind::kPartition, true},
        ChaosCase{"Wan", FaultEvent::Kind::kLoss, false},
        ChaosCase{"Wan", FaultEvent::Kind::kJitter, false},
        ChaosCase{"Wan", FaultEvent::Kind::kReset, false},
        ChaosCase{"Wan", FaultEvent::Kind::kPartition, false},
        ChaosCase{"Wan", FaultEvent::Kind::kLoss, true},
        ChaosCase{"Wan", FaultEvent::Kind::kJitter, true},
        ChaosCase{"Wan", FaultEvent::Kind::kReset, true},
        ChaosCase{"Wan", FaultEvent::Kind::kPartition, true}),
    ChaosCaseName);

// ------------------------------------------- deterministic WAN recovery ----
//
// The acceptance scenario: a WAN session loses the participant link for 5 s
// mid-session while the host navigates. The participant must time out its
// poll, reconnect with a signed resume re-handshake, and re-converge via a
// full-snapshot resync — and two identical runs must produce bit-identical
// deterministic counters.

// The deterministic subset of AgentMetrics / SnippetMetrics (the timing
// fields measure real CPU and differ across runs by construction).
struct RecoveryCounters {
  uint64_t agent_polls_received = 0;
  uint64_t agent_polls_with_content = 0;
  uint64_t agent_auth_failures = 0;
  uint64_t agent_new_connections = 0;
  uint64_t agent_poll_timeouts = 0;
  uint64_t agent_reconnects = 0;
  uint64_t agent_resyncs = 0;
  uint64_t agent_participants_reaped = 0;
  uint64_t snippet_polls_sent = 0;
  uint64_t snippet_poll_timeouts = 0;
  uint64_t snippet_transport_failures = 0;
  uint64_t snippet_reconnects = 0;
  uint64_t snippet_reconnect_failures = 0;
  uint64_t snippet_resyncs = 0;
  uint64_t injector_connects_refused = 0;
  uint64_t injector_messages_held = 0;
  std::string title;
  int64_t end_micros = 0;

  bool operator==(const RecoveryCounters&) const = default;
};

RecoveryCounters RunWanPartitionRecovery() {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("www.site.test", {});
  SiteServer site(&loop, &network, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>A</title></head>"
                   "<body><p id=\"p\">one</p></body></html>");
  site.ServeStatic("/two", "text/html",
                   "<html><head><title>B</title></head>"
                   "<body><p id=\"p\">two</p></body></html>");

  SessionOptions options;
  options.profile = WanProfile();
  options.enable_auth = true;
  options.poll_interval = Duration::Millis(250);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 2;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  CoBrowsingSession session(&loop, &network, options);
  EXPECT_TRUE(session.Start().ok());

  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [&](const Status& status, const PageLoadStats&) {
        EXPECT_TRUE(status.ok()) << status;
        loaded = true;
      });
  loop.RunUntilCondition([&] { return loaded; });
  EXPECT_TRUE(session.WaitForSync().ok());

  // Drop the participant's link entirely for 5 s, starting 100 ms from now;
  // the host navigates 400 ms into the blackout.
  FaultInjector injector(&network, /*seed=*/1234);
  injector.InjectPartition("participant-pc-1",
                           loop.now() + Duration::Millis(100),
                           Duration::Seconds(5.0), Duration::Millis(200));
  loop.Schedule(Duration::Millis(500), [&] {
    session.host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, "/two"),
        [](const Status&, const PageLoadStats&) {});
  });

  // Fixed simulated horizon (not run-to-convergence) so both runs execute
  // the identical event schedule.
  loop.RunFor(Duration::Seconds(20.0));

  RecoveryCounters counters;
  const AgentMetrics& agent = session.agent()->metrics();
  counters.agent_polls_received = agent.polls_received;
  counters.agent_polls_with_content = agent.polls_with_content;
  counters.agent_auth_failures = agent.auth_failures;
  counters.agent_new_connections = agent.new_connections;
  counters.agent_poll_timeouts = agent.poll_timeouts;
  counters.agent_reconnects = agent.reconnects;
  counters.agent_resyncs = agent.resyncs;
  counters.agent_participants_reaped = agent.participants_reaped;
  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  counters.snippet_polls_sent = snippet.polls_sent;
  counters.snippet_poll_timeouts = snippet.poll_timeouts;
  counters.snippet_transport_failures = snippet.transport_failures;
  counters.snippet_reconnects = snippet.reconnects;
  counters.snippet_reconnect_failures = snippet.reconnect_failures;
  counters.snippet_resyncs = snippet.resyncs;
  counters.injector_connects_refused = injector.metrics().connects_refused;
  counters.injector_messages_held = injector.metrics().messages_held;
  counters.title = session.participant_browser(0)->document()->Title();
  counters.end_micros = loop.now().micros();
  return counters;
}

TEST(WanPartitionRecoveryTest, DeterministicAcrossRuns) {
  RecoveryCounters first = RunWanPartitionRecovery();
  RecoveryCounters second = RunWanPartitionRecovery();
  EXPECT_TRUE(first == second) << "recovery counters diverged between runs";

  // Re-convergence via full-snapshot resync, asserted exactly.
  EXPECT_EQ(first.title, "B");
  EXPECT_EQ(first.snippet_poll_timeouts, 1u);
  EXPECT_EQ(first.snippet_reconnects, 1u);
  EXPECT_EQ(first.snippet_resyncs, 1u);
  EXPECT_EQ(first.agent_poll_timeouts, 1u);
  EXPECT_EQ(first.agent_reconnects, 1u);
  EXPECT_EQ(first.agent_resyncs, 1u);
  EXPECT_GT(first.snippet_transport_failures, 0u);
  EXPECT_GT(first.injector_connects_refused, 0u);
  EXPECT_GT(first.injector_messages_held, 0u);
  EXPECT_EQ(first.agent_participants_reaped, 0u);
}

// ------------------------------------- chaos + overload determinism -------
//
// The WAN partition-recovery scenario again, but with the overload knobs
// engaged: the agent's poll token bucket is set below the snippet's poll
// rate, so steady-state polls are shed with 429 + Retry-After and the
// snippet folds the hint into its schedule instead of escalating backoff.
// The session must still re-converge after the partition, and every shed
// decision must be bit-reproducible across two runs.

struct OverloadChaosCounters {
  uint64_t agent_polls_received = 0;
  uint64_t agent_polls_with_content = 0;
  uint64_t agent_polls_rate_limited = 0;
  uint64_t agent_participants_rejected = 0;
  uint64_t agent_connections_rejected = 0;
  uint64_t agent_actions_shed = 0;
  uint64_t agent_snapshots_shed = 0;
  uint64_t agent_idle_read_timeouts = 0;
  uint64_t agent_oversized_rejected = 0;
  uint64_t agent_reconnects = 0;
  uint64_t agent_resyncs = 0;
  uint64_t snippet_polls_sent = 0;
  uint64_t snippet_overload_deferrals = 0;
  int64_t snippet_last_retry_after_us = 0;
  uint64_t snippet_poll_timeouts = 0;
  uint64_t snippet_transport_failures = 0;
  uint64_t snippet_reconnects = 0;
  uint64_t snippet_resyncs = 0;
  std::string title;
  int64_t end_micros = 0;

  bool operator==(const OverloadChaosCounters&) const = default;
};

OverloadChaosCounters RunOverloadChaos() {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("www.site.test", {});
  SiteServer site(&loop, &network, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>A</title></head>"
                   "<body><p id=\"p\">one</p></body></html>");
  site.ServeStatic("/two", "text/html",
                   "<html><head><title>B</title></head>"
                   "<body><p id=\"p\">two</p></body></html>");

  SessionOptions options;
  options.profile = WanProfile();
  options.enable_auth = true;
  options.poll_interval = Duration::Millis(250);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 2;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  // Overload layer on: the bucket refills slower than the 250 ms poll loop,
  // so the agent sheds polls and the snippet has to honor Retry-After.
  options.agent_limits.max_participants = 4;
  options.agent_limits.max_connections = 32;
  options.agent_limits.poll_rate_per_sec = 2.0;
  options.agent_limits.poll_burst = 1.0;
  options.agent_limits.action_rate_per_sec = 50.0;
  options.agent_limits.max_outbox_actions = 64;
  options.agent_limits.max_request_head_bytes = 64 * 1024;
  options.agent_limits.max_request_body_bytes = 1 << 20;
  options.agent_limits.idle_read_timeout = Duration::Seconds(5.0);
  CoBrowsingSession session(&loop, &network, options);
  EXPECT_TRUE(session.Start().ok());

  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [&](const Status& status, const PageLoadStats&) {
        EXPECT_TRUE(status.ok()) << status;
        loaded = true;
      });
  loop.RunUntilCondition([&] { return loaded; });
  EXPECT_TRUE(session.WaitForSync().ok());

  FaultInjector injector(&network, /*seed=*/1234);
  injector.InjectPartition("participant-pc-1",
                           loop.now() + Duration::Millis(100),
                           Duration::Seconds(5.0), Duration::Millis(200));
  loop.Schedule(Duration::Millis(500), [&] {
    session.host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, "/two"),
        [](const Status&, const PageLoadStats&) {});
  });

  // Fixed simulated horizon so both runs execute the identical schedule.
  loop.RunFor(Duration::Seconds(20.0));

  OverloadChaosCounters counters;
  const AgentMetrics& agent = session.agent()->metrics();
  counters.agent_polls_received = agent.polls_received;
  counters.agent_polls_with_content = agent.polls_with_content;
  counters.agent_polls_rate_limited = agent.polls_rate_limited;
  counters.agent_participants_rejected = agent.participants_rejected;
  counters.agent_connections_rejected = agent.connections_rejected;
  counters.agent_actions_shed = agent.actions_shed;
  counters.agent_snapshots_shed = agent.snapshots_shed;
  counters.agent_idle_read_timeouts = agent.idle_read_timeouts;
  counters.agent_oversized_rejected = agent.oversized_rejected;
  counters.agent_reconnects = agent.reconnects;
  counters.agent_resyncs = agent.resyncs;
  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  counters.snippet_polls_sent = snippet.polls_sent;
  counters.snippet_overload_deferrals = snippet.overload_deferrals;
  counters.snippet_last_retry_after_us = snippet.last_retry_after.micros();
  counters.snippet_poll_timeouts = snippet.poll_timeouts;
  counters.snippet_transport_failures = snippet.transport_failures;
  counters.snippet_reconnects = snippet.reconnects;
  counters.snippet_resyncs = snippet.resyncs;
  counters.title = session.participant_browser(0)->document()->Title();
  counters.end_micros = loop.now().micros();
  return counters;
}

TEST(OverloadChaosTest, DeterministicAcrossRuns) {
  OverloadChaosCounters first = RunOverloadChaos();
  OverloadChaosCounters second = RunOverloadChaos();
  EXPECT_TRUE(first == second) << "overload counters diverged between runs";

  // The overload layer actually engaged...
  EXPECT_GT(first.agent_polls_rate_limited, 0u);
  EXPECT_GT(first.snippet_overload_deferrals, 0u);
  EXPECT_GE(first.snippet_last_retry_after_us,
            Duration::Seconds(1.0).micros());
  // ...without tripping limits the session never approached...
  EXPECT_EQ(first.agent_participants_rejected, 0u);
  EXPECT_EQ(first.agent_connections_rejected, 0u);
  EXPECT_EQ(first.agent_oversized_rejected, 0u);
  EXPECT_EQ(first.agent_idle_read_timeouts, 0u);
  // ...and the session still rode out the partition and re-converged.
  EXPECT_EQ(first.title, "B");
  EXPECT_GT(first.snippet_transport_failures, 0u);
}

// ----------------------------------- chaos + causal tracing determinism ----
//
// The WAN partition-recovery scenario once more, with causal tracing on:
// trace ids must stay unique across the timeout -> reconnect -> resync
// chain, the resync round trip must join across both components' rings, the
// anomaly triggers must fire, and the sim-provenance span stream must be
// bit-identical across two runs (DESIGN.md §11's determinism contract).

struct TracedRecoveryResult {
  std::string sim_jsonl;  // sim-provenance causal span lines, both rings
  uint64_t agent_resync_triggers = 0;
  uint64_t snippet_timeout_triggers = 0;
  bool trace_ids_strictly_increase = true;
  bool timeout_span_traced = false;
  bool post_reconnect_traced = false;
  bool resync_joined_across_components = false;
  std::string title;

  bool operator==(const TracedRecoveryResult&) const = default;
};

TracedRecoveryResult RunTracedWanPartitionRecovery() {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("www.site.test", {});
  SiteServer site(&loop, &network, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>A</title></head>"
                   "<body><p id=\"p\">one</p></body></html>");
  site.ServeStatic("/two", "text/html",
                   "<html><head><title>B</title></head>"
                   "<body><p id=\"p\">two</p></body></html>");

  SessionOptions options;
  options.profile = WanProfile();
  options.enable_auth = true;
  options.enable_trace = true;
  options.poll_interval = Duration::Millis(250);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 2;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  options.backoff_jitter = Duration::Millis(100);
  CoBrowsingSession session(&loop, &network, options);
  EXPECT_TRUE(session.Start().ok());

  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/"),
      [&](const Status& status, const PageLoadStats&) {
        EXPECT_TRUE(status.ok()) << status;
        loaded = true;
      });
  loop.RunUntilCondition([&] { return loaded; });
  EXPECT_TRUE(session.WaitForSync().ok());

  FaultInjector injector(&network, /*seed=*/1234);
  injector.InjectPartition("participant-pc-1",
                           loop.now() + Duration::Millis(100),
                           Duration::Seconds(5.0), Duration::Millis(200));
  loop.Schedule(Duration::Millis(500), [&] {
    session.host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, "/two"),
        [](const Status&, const PageLoadStats&) {});
  });
  loop.RunFor(Duration::Seconds(20.0));

  TracedRecoveryResult result;
  result.title = session.participant_browser(0)->document()->Title();
  result.agent_resync_triggers =
      session.agent()->flight_recorder().triggers("resync");
  result.snippet_timeout_triggers =
      session.snippet(0)->flight_recorder().triggers("poll_timeout");

  std::vector<obs::TraceEvent> agent_events =
      session.agent()->trace_log().Events();
  std::vector<obs::TraceEvent> snippet_events =
      session.snippet(0)->trace_log().Events();

  // Poll ids <pid>-<seq> never reset, so root spans (poll_rtt / timeout)
  // must carry strictly increasing seqs straight through the reconnect.
  int64_t last_poll_seq = 0;
  bool saw_timeout_root = false;
  std::string resync_trace_id;
  for (const obs::TraceEvent& event : snippet_events) {
    if (event.name == "snippet.poll_rtt" ||
        event.name == "snippet.poll_timeout") {
      size_t dash = event.trace_id.rfind('-');
      int64_t poll_seq = std::stoll(event.trace_id.substr(dash + 1));
      if (poll_seq <= last_poll_seq) {
        result.trace_ids_strictly_increase = false;
      }
      last_poll_seq = poll_seq;
      if (event.name == "snippet.poll_timeout") {
        result.timeout_span_traced = true;
        saw_timeout_root = true;
      } else if (saw_timeout_root) {
        result.post_reconnect_traced = true;
      }
    }
    if (event.name == "snippet.resync_applied") {
      resync_trace_id = event.trace_id;
    }
  }
  // The full-snapshot resync after the reconnect is one round trip seen by
  // both sides: the snippet's marker and the agent's response span share the
  // trace id.
  if (!resync_trace_id.empty()) {
    for (const obs::TraceEvent& event : agent_events) {
      if (event.trace_id == resync_trace_id &&
          event.name == "agent.response.snapshot") {
        result.resync_joined_across_components = true;
      }
    }
  }

  for (const obs::TraceEvent& event : agent_events) {
    if (event.provenance == obs::Provenance::kSim && !event.trace_id.empty()) {
      result.sim_jsonl += obs::TraceEventJsonLine(event, "agent") + "\n";
    }
  }
  for (const obs::TraceEvent& event : snippet_events) {
    if (event.provenance == obs::Provenance::kSim && !event.trace_id.empty()) {
      result.sim_jsonl += obs::TraceEventJsonLine(event, "snippet-p1") + "\n";
    }
  }
  return result;
}

TEST(TracedChaosTest, TraceIdsSurviveRecoveryAndRunsAreBitIdentical) {
  TracedRecoveryResult first = RunTracedWanPartitionRecovery();
  TracedRecoveryResult second = RunTracedWanPartitionRecovery();
  EXPECT_TRUE(first == second) << "traced recovery diverged between runs";

  EXPECT_EQ(first.title, "B");
  EXPECT_FALSE(first.sim_jsonl.empty());
  // The chain stays causally linked across timeout, reconnect, and resync.
  EXPECT_TRUE(first.trace_ids_strictly_increase);
  EXPECT_TRUE(first.timeout_span_traced);
  EXPECT_TRUE(first.post_reconnect_traced);
  EXPECT_TRUE(first.resync_joined_across_components);
  // And the anomalies registered with both flight recorders.
  EXPECT_EQ(first.agent_resync_triggers, 1u);
  EXPECT_EQ(first.snippet_timeout_triggers, 1u);
}

}  // namespace
}  // namespace rcb
