// Streamed-sync transport (src/transport, DESIGN.md §15): grant and
// adaptive-poll unit tests, plus end-to-end negotiation over full sessions —
// long-poll parking, stream=2 gestures pre-empting the parked poll,
// poll-timeout recovery through the signed resume, the held-poll cap, and
// adaptive polling.
#include <gtest/gtest.h>

#include "src/core/content_generator.h"
#include "src/core/session.h"
#include "src/delta/tree_diff.h"
#include "src/html/dom.h"
#include "src/net/fault_injector.h"
#include "src/net/profiles.h"
#include "src/sites/site_server.h"
#include "src/transport/adaptive_poll.h"
#include "src/transport/capabilities.h"

namespace rcb {
namespace {

using transport::AdaptivePollConfig;
using transport::AdaptivePollPolicy;
using transport::FormatTransportGrant;
using transport::ParseTransportGrant;
using transport::TransportGrant;

TEST(TransportGrantTest, FormatsAndParsesTheLongPollGrant) {
  TransportGrant longpoll;
  longpoll.hold_ms = 10000;
  EXPECT_EQ(FormatTransportGrant(longpoll), "longpoll; hold=10000");
  auto parsed = ParseTransportGrant(FormatTransportGrant(longpoll));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->hold_ms, 10000);

  // Anything else downgrades (nullopt), never errors — the retired framed
  // grant included.
  EXPECT_FALSE(ParseTransportGrant("").has_value());
  EXPECT_FALSE(ParseTransportGrant("frames; hb=5000").has_value());
  EXPECT_FALSE(ParseTransportGrant("websocket; hb=1").has_value());
  EXPECT_FALSE(ParseTransportGrant("longpoll; hold=0").has_value());
}

// ----------------------------------------------------- adaptive policy ----

TEST(AdaptivePollPolicyTest, GrowsAfterThresholdCapsAndSnapsBack) {
  AdaptivePollConfig config;
  config.base = Duration::Millis(250);
  config.max = Duration::Seconds(2.0);
  config.growth = 2.0;
  config.idle_threshold = 2;
  AdaptivePollPolicy policy(config);

  EXPECT_EQ(policy.Current(), Duration::Millis(250));
  policy.OnEmpty();
  // Tolerated at base below the `idle_threshold` streak.
  EXPECT_EQ(policy.Current(), Duration::Millis(250));
  policy.OnEmpty();
  EXPECT_EQ(policy.Current(), Duration::Millis(500));
  policy.OnEmpty();
  EXPECT_EQ(policy.Current(), Duration::Millis(1000));
  policy.OnEmpty();
  EXPECT_EQ(policy.Current(), Duration::Seconds(2.0));
  policy.OnEmpty();
  EXPECT_EQ(policy.Current(), Duration::Seconds(2.0)) << "capped at max";

  policy.OnActivity();
  EXPECT_EQ(policy.Current(), Duration::Millis(250));
  EXPECT_EQ(policy.idle_streak(), 0u);
  EXPECT_EQ(policy.snapbacks(), 1u);
  // Snapping back while already at base is not a snap-back event.
  policy.OnActivity();
  EXPECT_EQ(policy.snapbacks(), 1u);
}

// ------------------------------------------------- end-to-end sessions ----

// One host + N participants on a simulated network with a trivial origin
// page, all transport knobs taken from the caller's SessionOptions.
class TransportSessionTest : public ::testing::Test {
 protected:
  TransportSessionTest() : network_(&loop_) {
    network_.AddHost("www.site.test", {});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "www.site.test");
    site_->ServeStatic("/", "text/html",
                       "<html><head><title>T</title></head>"
                       "<body><p id=\"p\">v1</p></body></html>");
  }

  SessionOptions BaseOptions() {
    SessionOptions options;
    options.profile = LanProfile();
    options.enable_auth = true;
    options.poll_interval = Duration::Millis(250);
    return options;
  }

  void NavigateHost(CoBrowsingSession* session) {
    bool loaded = false;
    session->host_browser()->Navigate(
        Url::Make("http", "www.site.test", 80, "/"),
        [&](const Status& status, const PageLoadStats&) {
          ASSERT_TRUE(status.ok()) << status;
          loaded = true;
        });
    loop_.RunUntilCondition([&] { return loaded; });
    ASSERT_TRUE(session->WaitForSync().ok());
  }

  // Runs until `done` holds or `limit` of simulated time passes (parked
  // polls keep the event queue busy, so an unbounded wait would not end).
  bool RunUntil(const std::function<bool()>& done, Duration limit) {
    bool expired = false;
    uint64_t deadline = loop_.Schedule(limit, [&] { expired = true; });
    loop_.RunUntilCondition([&] { return expired || done(); });
    loop_.Cancel(deadline);
    return done();
  }

  // Runs until the agent holds `count` parked polls, for at most 5 s.
  bool AwaitParked(CoBrowsingSession* session, size_t count) {
    return RunUntil(
        [&] { return session->agent()->parked_poll_count() == count; },
        Duration::Seconds(5.0));
  }

  // The origin page with a one-field form, for co-fill tests.
  void ServeFormPage() {
    site_->ServeStatic("/", "text/html",
                       "<html><head><title>T</title></head><body>"
                       "<form id=\"f\"><input name=\"q\"></form>"
                       "</body></html>");
  }
  static std::string HostFieldValue(CoBrowsingSession* session) {
    Element* form = session->host_browser()->document()->ById("f");
    return form == nullptr ? "" : form->FindFirst("input")->AttrOr("value");
  }

  void MutateHost(CoBrowsingSession* session, const std::string& marker) {
    session->host_browser()->MutateDocument([&](Document* document) {
      auto element = MakeElement("div");
      element->SetAttribute("id", marker);
      document->body()->AppendChild(std::move(element));
    });
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
};

TEST_F(TransportSessionTest, Stream2PushesUpdatesOnTheGrantedLongPoll) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // A stream=2 poll is granted a long-poll, and the next one is parked.
  ASSERT_TRUE(AwaitParked(&session, 1));
  EXPECT_TRUE(session.snippet(0)->long_poll_active());

  // An update releases the parked poll instead of waiting for a poll tick.
  const AgentMetrics& agent = session.agent()->metrics();
  const uint64_t flushes = agent.transport_long_poll_flushes;
  MutateHost(&session, "pushed-marker");
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_NE(session.participant_browser(0)->document()->ById("pushed-marker"),
            nullptr);
  EXPECT_EQ(agent.transport_long_poll_flushes, flushes + 1);
  // Held round trips pay no idle-poll tax.
  EXPECT_EQ(session.snippet(0)->metrics().wasted_polls, 0u);
  EXPECT_EQ(session.snippet(0)->metrics().polls_superseded, 0u);
}

TEST_F(TransportSessionTest, Stream2CarriesRemoteActionsPromptly) {
  SessionOptions options = BaseOptions();
  options.participant_count = 2;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(AwaitParked(&session, 2));

  // Participant 0's gesture supersedes its parked poll, and the agent
  // releases participant 1's parked poll with it (an actions-only reply),
  // without waiting for any poll interval.
  uint64_t broadcasts_before = session.snippet(1)->metrics().broadcasts_received;
  SimTime moved_at = loop_.now();
  session.snippet(0)->SendMouseMove(11, 22);
  ASSERT_TRUE(RunUntil(
      [&] {
        return session.snippet(1)->metrics().broadcasts_received >
               broadcasts_before;
      },
      Duration::Seconds(5.0)));
  EXPECT_LT(loop_.now() - moved_at, Duration::Millis(250));
  EXPECT_TRUE(session.snippet(1)->long_poll_active());
}

// The tentpole of stream=2: on an idle LAN session, with its poll parked for
// the agent's whole hold, a participant's own co-fill and pointer move reach
// the host and a peer at once, and the participant converges on the version
// its co-fill created.
TEST_F(TransportSessionTest, Stream2GesturesPreemptTheParkedPoll) {
  ServeFormPage();
  SessionOptions options = BaseOptions();
  options.participant_count = 2;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(AwaitParked(&session, 2));
  loop_.RunFor(Duration::Seconds(3.0));  // idle, well inside the 10 s hold
  ASSERT_EQ(session.agent()->parked_poll_count(), 2u);

  std::vector<UserAction> peer_moves;
  session.snippet(1)->SetActionListener([&](const UserAction& action) {
    if (action.type == ActionType::kMouseMove) {
      peer_moves.push_back(action);
    }
  });
  Element* form = session.participant_browser(0)->document()->ById("f");
  ASSERT_NE(form, nullptr);
  const SimTime gesture_at = loop_.now();
  ASSERT_TRUE(session.snippet(0)->FillFormField(form, "q", "hello").ok());
  session.snippet(0)->SendMouseMove(40, 50);

  ASSERT_TRUE(RunUntil([&] { return HostFieldValue(&session) == "hello"; },
                       Duration::Seconds(1.0)));
  EXPECT_LT(loop_.now() - gesture_at, Duration::Millis(250));
  ASSERT_TRUE(RunUntil([&] { return !peer_moves.empty(); },
                       Duration::Seconds(1.0)));
  EXPECT_LT(loop_.now() - gesture_at, Duration::Millis(250));
  EXPECT_EQ(peer_moves[0].x, 40);
  EXPECT_EQ(peer_moves[0].y, 50);
  // One supersede carried both gestures: the zero-delay deferral coalesces
  // a burst into one poll.
  EXPECT_EQ(session.snippet(0)->metrics().polls_superseded, 1u);

  // The participant converges on the version its own co-fill created.
  ASSERT_TRUE(session.WaitForSync().ok());
  const Snapshot& current = session.agent()->CurrentSnapshotForTest();
  EXPECT_EQ(session.snippet(0)->doc_time_ms(), current.doc_time_ms);
  EXPECT_EQ(delta::TreeDigest(*delta::CanonicalizeDocument(
                *session.participant_browser(0)->document())),
            delta::TreeDigest(*MaterializeSnapshotTree(current)));
  EXPECT_TRUE(session.snippet(0)->long_poll_active());
}

// A superseded park can already have been released: its reply, carrying a
// peer's action the agent drained from the outbox, races the fresh poll.
// The snippet applies it, so the action is not lost.
TEST_F(TransportSessionTest, SupersededParkReplyIsApplied) {
  SessionOptions options = BaseOptions();
  options.participant_count = 2;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(AwaitParked(&session, 2));

  std::vector<UserAction> moves[2];
  for (size_t i = 0; i < 2; ++i) {
    session.snippet(i)->SetActionListener([&moves, i](const UserAction& action) {
      if (action.type == ActionType::kMouseMove) {
        moves[i].push_back(action);
      }
    });
  }
  // Participant 1 moves: the agent releases participant 0's park with that
  // move. Stop the moment the release is on the wire.
  const AgentMetrics& agent = session.agent()->metrics();
  const uint64_t flushes = agent.transport_long_poll_flushes;
  session.snippet(1)->SendMouseMove(1, 2);
  ASSERT_TRUE(RunUntil([&] { return agent.transport_long_poll_flushes > flushes; },
                       Duration::Seconds(1.0)));
  ASSERT_TRUE(moves[0].empty());
  // Participant 0 moves while that reply is in flight: the gesture
  // supersedes the released poll, and the agent has no park left to drop.
  session.snippet(0)->SendMouseMove(5, 6);
  loop_.RunFor(Duration::Seconds(1.0));

  EXPECT_EQ(session.snippet(0)->metrics().polls_superseded, 1u);
  ASSERT_EQ(moves[0].size(), 1u) << "the racing reply's action was lost";
  EXPECT_EQ(moves[0][0].x, 1);
  ASSERT_EQ(moves[1].size(), 1u);
  EXPECT_EQ(moves[1][0].x, 5);
  // Both are parked again, and neither side lost its grant.
  EXPECT_EQ(session.agent()->parked_poll_count(), 2u);
  EXPECT_TRUE(session.snippet(0)->long_poll_active());
  EXPECT_TRUE(session.snippet(1)->long_poll_active());
}

// stream=1 keeps the long-poll as it is: a gesture queued while the poll is
// parked rides the next poll, which leaves only when the park is released.
TEST_F(TransportSessionTest, Stream1GestureWaitsForTheRelease) {
  ServeFormPage();
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamLongPoll;
  options.transport_hold = Duration::Seconds(2.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(AwaitParked(&session, 1));

  const uint64_t expiries =
      session.agent()->metrics().transport_long_poll_expiries;
  const SimTime gesture_at = loop_.now();
  Element* form = session.participant_browser(0)->document()->ById("f");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(session.snippet(0)->FillFormField(form, "q", "later").ok());
  ASSERT_TRUE(RunUntil([&] { return HostFieldValue(&session) == "later"; },
                       Duration::Seconds(5.0)));
  // The fill arrived only after the park expired empty.
  EXPECT_GT(loop_.now() - gesture_at, Duration::Millis(250));
  EXPECT_EQ(session.agent()->metrics().transport_long_poll_expiries,
            expiries + 1);
  EXPECT_EQ(session.snippet(0)->metrics().polls_superseded, 0u);
}

TEST_F(TransportSessionTest, Stream2RecoversThroughSignedResume) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.transport_hold = Duration::Seconds(2.0);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 1;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(AwaitParked(&session, 1));

  // Black-hole the participant for 5 s: the parked poll's release is lost,
  // its deadline (timeout plus the granted hold) passes, and reconnect_after=1
  // sends the snippet straight through the signed resume.
  FaultInjector injector(&network_, /*seed=*/77);
  injector.InjectPartition("participant-pc-1", loop_.now() + Duration::Millis(100),
                           Duration::Seconds(5.0), Duration::Millis(200));
  loop_.Schedule(Duration::Millis(500), [&] { MutateHost(&session, "mid-fault"); });
  loop_.RunFor(Duration::Seconds(20.0));

  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  EXPECT_GE(snippet.poll_timeouts, 1u);
  EXPECT_GE(snippet.reconnects, 1u);
  // The resume was authenticated, not a fresh unauthenticated join.
  EXPECT_GE(session.agent()->metrics().reconnects, 1u);
  EXPECT_EQ(session.agent()->metrics().auth_failures, 0u);
  // Recovered all the way back onto the granted long-poll, content intact.
  EXPECT_TRUE(session.snippet(0)->long_poll_active());
  EXPECT_NE(session.participant_browser(0)->document()->ById("mid-fault"),
            nullptr);
}

TEST_F(TransportSessionTest, LongPollParksIdlePollsAndFlushesOnChange) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamLongPoll;
  options.transport_hold = Duration::Seconds(2.0);
  options.poll_timeout = Duration::Seconds(5.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // Idle period: polls get parked and released empty at the hold deadline
  // instead of bouncing every 250 ms.
  uint64_t polls_at_start = session.snippet(0)->metrics().polls_sent;
  loop_.RunFor(Duration::Seconds(10.0));
  uint64_t idle_polls = session.snippet(0)->metrics().polls_sent - polls_at_start;
  EXPECT_LE(idle_polls, 7u) << "a 2 s hold bounds 10 s of idling to ~5 polls";
  EXPECT_GE(session.agent()->metrics().transport_long_polls_parked, 4u);
  EXPECT_GE(session.agent()->metrics().transport_long_poll_expiries, 4u);
  // Held round trips are not "wasted" — they are the delivery channel.
  EXPECT_EQ(session.snippet(0)->metrics().wasted_polls, 0u);

  // A change releases the parked poll immediately: update-visible latency is
  // decoupled from the base poll interval.
  EXPECT_TRUE(session.snippet(0)->long_poll_active());
  SimTime before = loop_.now();
  MutateHost(&session, "parked-marker");
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return session.participant_browser(0)->document()->ById("parked-marker") !=
           nullptr;
  }));
  EXPECT_LT(loop_.now() - before, Duration::Millis(250));
  EXPECT_GE(session.agent()->metrics().transport_long_poll_flushes, 1u);
}

TEST_F(TransportSessionTest, LongPollReleaseCarriesDeltaPatch) {
  // A page large enough that a one-element patch beats the size cutoff.
  std::string body;
  for (int i = 0; i < 40; ++i) {
    body += "<p id=\"row" + std::to_string(i) + "\">row " + std::to_string(i) +
            " of a long enough page</p>";
  }
  site_->ServeStatic("/long", "text/html",
                     "<html><head><title>L</title></head><body>" + body +
                         "</body></html>");
  SessionOptions options = BaseOptions();
  options.enable_delta = true;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamLongPoll;
  options.transport_hold = Duration::Seconds(2.0);
  options.poll_timeout = Duration::Seconds(5.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  bool loaded = false;
  session.host_browser()->Navigate(
      Url::Make("http", "www.site.test", 80, "/long"),
      [&](const Status& status, const PageLoadStats&) {
        ASSERT_TRUE(status.ok()) << status;
        loaded = true;
      });
  loop_.RunUntilCondition([&] { return loaded; });
  ASSERT_TRUE(session.WaitForSync().ok());
  ASSERT_TRUE(loop_.RunUntilCondition(
      [&] { return session.agent()->parked_poll_count() == 1; }));

  // The mutation releases the parked poll, and the release carries a
  // newPatch against the version that poll acked — not a full snapshot.
  const AgentMetrics& agent = session.agent()->metrics();
  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  const uint64_t polls_before = agent.polls_received;
  const uint64_t flushes_before = agent.transport_long_poll_flushes;
  const uint64_t patches_before = agent.patches_served;
  MutateHost(&session, "delta-marker");
  ASSERT_TRUE(
      loop_.RunUntilCondition([&] { return snippet.patches_applied > 0; }));
  EXPECT_EQ(agent.polls_received, polls_before);
  EXPECT_EQ(agent.transport_long_poll_flushes, flushes_before + 1);
  EXPECT_EQ(agent.patches_served, patches_before + 1);
  EXPECT_EQ(snippet.resyncs, 0u);
  EXPECT_EQ(snippet.patch_digest_mismatches + snippet.patch_base_mismatches +
                snippet.patch_apply_errors,
            0u);

  // Converged: the participant's canonical document digests like the
  // host's rewritten snapshot.
  Document* participant = session.participant_browser(0)->document();
  EXPECT_NE(participant->ById("delta-marker"), nullptr);
  EXPECT_EQ(
      delta::TreeDigest(*delta::CanonicalizeDocument(*participant)),
      delta::TreeDigest(*MaterializeSnapshotTree(
          session.agent()->CurrentSnapshotForTest())));
}

TEST_F(TransportSessionTest, HeldPollCapDeniesGrantsGracefully) {
  SessionOptions options = BaseOptions();
  options.participant_count = 3;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.max_held_streams = 1;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // At most one participant holds the parked slot; the others are denied a
  // grant and keep polling — no errors, no stuck clients.
  ASSERT_TRUE(AwaitParked(&session, 1));
  size_t most_parked = 0;
  const SimTime until = loop_.now() + Duration::Seconds(3.0);
  while (loop_.now() < until) {
    loop_.RunFor(Duration::Millis(10));
    most_parked = std::max(most_parked, session.agent()->parked_poll_count());
  }
  EXPECT_EQ(most_parked, 1u);
  EXPECT_GT(session.agent()->metrics().transport_capacity_denials, 0u);

  MutateHost(&session, "cap-marker");
  ASSERT_TRUE(session.WaitForSync().ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(session.participant_browser(i)->document()->ById("cap-marker"),
              nullptr)
        << "participant " << i;
    // A denied grant is a classic reply, not a rejection.
    EXPECT_EQ(session.snippet(i)->metrics().auth_rejections, 0u)
        << "participant " << i;
  }
}

TEST_F(TransportSessionTest, AdaptivePollingBacksOffIdleAndSnapsBack) {
  SessionOptions options = BaseOptions();
  options.adaptive_poll = true;
  options.adaptive_max = Duration::Seconds(2.0);
  options.adaptive_growth = 2.0;
  options.adaptive_idle_threshold = 2;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // Idle: the interval walks 250 ms -> 500 -> 1000 -> 2000 and stays capped.
  loop_.RunFor(Duration::Seconds(15.0));
  EXPECT_EQ(session.snippet(0)->current_poll_interval(), Duration::Seconds(2.0));
  // Still classic polling underneath: the idle tax is counted.
  EXPECT_GT(session.snippet(0)->metrics().wasted_polls, 0u);

  // Activity snaps the cadence back to the base interval.
  MutateHost(&session, "adaptive-marker");
  ASSERT_TRUE(session.WaitForSync(Duration::Seconds(30.0)).ok());
  EXPECT_EQ(session.snippet(0)->current_poll_interval(), Duration::Millis(250));

  uint64_t idle_polls_10s;
  {
    uint64_t before = session.snippet(0)->metrics().polls_sent;
    loop_.RunFor(Duration::Seconds(10.0));
    idle_polls_10s = session.snippet(0)->metrics().polls_sent - before;
  }
  // Mostly at the 2 s cap: far fewer than the 40 polls of a fixed 250 ms
  // cadence over the same window.
  EXPECT_LT(idle_polls_10s, 15u);
}

}  // namespace
}  // namespace rcb
