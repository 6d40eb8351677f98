// Streamed-sync transport (src/transport, DESIGN.md §15): frame codec and
// adaptive-poll unit tests, plus end-to-end negotiation over full sessions —
// framed push, long-poll parking, heartbeat-timeout recovery through the
// signed resume, capacity-capped downgrade, and adaptive polling.
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
#include "src/transport/frame.h"

namespace rcb {
namespace {

using transport::AdaptivePollConfig;
using transport::AdaptivePollPolicy;
using transport::EncodeFrame;
using transport::FormatTransportGrant;
using transport::Frame;
using transport::FrameParser;
using transport::FrameType;
using transport::GrantMode;
using transport::ParseTransportGrant;
using transport::TransportGrant;

// ------------------------------------------------------- frame codec ------

Frame MakeFrame(FrameType type, uint64_t seq, std::string body) {
  Frame frame;
  frame.type = type;
  frame.seq = seq;
  frame.body = std::move(body);
  return frame;
}

TEST(FrameCodecTest, RoundTripsAllTypesWithoutKey) {
  FrameParser parser("");
  parser.Append(EncodeFrame(MakeFrame(FrameType::kHello, 1, "hb=5000"), ""));
  parser.Append(EncodeFrame(MakeFrame(FrameType::kData, 2, "<xml/>"), ""));
  parser.Append(EncodeFrame(MakeFrame(FrameType::kHeartbeat, 3, ""), ""));

  auto hello = parser.Next();
  ASSERT_TRUE(hello.ok());
  ASSERT_TRUE(hello->has_value());
  EXPECT_EQ((*hello)->type, FrameType::kHello);
  EXPECT_EQ((*hello)->seq, 1u);
  EXPECT_EQ((*hello)->body, "hb=5000");

  auto data = parser.Next();
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(data->has_value());
  EXPECT_EQ((*data)->type, FrameType::kData);
  EXPECT_EQ((*data)->body, "<xml/>");

  auto hb = parser.Next();
  ASSERT_TRUE(hb.ok());
  ASSERT_TRUE(hb->has_value());
  EXPECT_EQ((*hb)->type, FrameType::kHeartbeat);
  EXPECT_TRUE((*hb)->body.empty());

  auto none = parser.Next();
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
  EXPECT_EQ(parser.frames_parsed(), 3u);
  EXPECT_EQ(parser.last_seq(), 3u);
}

TEST(FrameCodecTest, ParsesArbitraryTcpFragmentation) {
  std::string wire;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    wire += EncodeFrame(
        MakeFrame(FrameType::kData, seq, "payload-" + std::to_string(seq)),
        "key");
  }
  // Worst-case fragmentation: one byte per Append.
  FrameParser parser("key");
  size_t frames = 0;
  for (char c : wire) {
    parser.Append(std::string_view(&c, 1));
    while (true) {
      auto frame = parser.Next();
      ASSERT_TRUE(frame.ok()) << frame.status();
      if (!frame->has_value()) {
        break;
      }
      ++frames;
      EXPECT_EQ((*frame)->body, "payload-" + std::to_string((*frame)->seq));
    }
  }
  EXPECT_EQ(frames, 5u);
}

TEST(FrameCodecTest, MacCoversTypeSeqAndBody) {
  std::string good = EncodeFrame(MakeFrame(FrameType::kData, 1, "body"), "k1");
  // Same frame, different key: the MAC hex differs.
  EXPECT_NE(good, EncodeFrame(MakeFrame(FrameType::kData, 1, "body"), "k2"));

  // Tampering with the body is caught, and the error is sticky.
  std::string tampered = good;
  tampered[tampered.find("body")] = 'B';
  FrameParser parser("k1");
  parser.Append(tampered);
  auto frame = parser.Next();
  EXPECT_FALSE(frame.ok());
  parser.Append(good);
  EXPECT_FALSE(parser.Next().ok()) << "frame errors must be sticky";
}

TEST(FrameCodecTest, KeyedStreamRejectsUnsignedFrames) {
  FrameParser parser("secret");
  parser.Append(EncodeFrame(MakeFrame(FrameType::kData, 1, "x"), ""));
  EXPECT_FALSE(parser.Next().ok());
}

TEST(FrameCodecTest, RejectsReplayedOrRegressingSequence) {
  FrameParser parser("key");
  parser.Append(EncodeFrame(MakeFrame(FrameType::kData, 5, "a"), "key"));
  auto first = parser.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  // Replaying seq 5 (or anything below it) is the poll path's anti-replay
  // discipline applied to frames.
  parser.Append(EncodeFrame(MakeFrame(FrameType::kData, 5, "a"), "key"));
  EXPECT_FALSE(parser.Next().ok());
}

TEST(FrameCodecTest, RejectsMalformedAndOversizedHeaders) {
  {
    FrameParser parser("");
    parser.Append("HTTP/1.1 200 OK\r\n");
    EXPECT_FALSE(parser.Next().ok());
  }
  {
    FrameParser parser("");
    parser.Append("RCBF1 data 1 99999999999\r\n");
    EXPECT_FALSE(parser.Next().ok()) << "body length above kMaxBodyBytes";
  }
  {
    FrameParser parser("");
    parser.Append("RCBF1 bogus 1 0\r\n\r\n");
    EXPECT_FALSE(parser.Next().ok()) << "unknown frame type";
  }
}

TEST(TransportGrantTest, FormatsAndParsesBothModes) {
  TransportGrant frames;
  frames.mode = GrantMode::kFrames;
  frames.heartbeat_ms = 5000;
  auto parsed = ParseTransportGrant(FormatTransportGrant(frames));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mode, GrantMode::kFrames);
  EXPECT_EQ(parsed->heartbeat_ms, 5000);

  TransportGrant longpoll;
  longpoll.mode = GrantMode::kLongPoll;
  longpoll.hold_ms = 10000;
  parsed = ParseTransportGrant(FormatTransportGrant(longpoll));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->mode, GrantMode::kLongPoll);
  EXPECT_EQ(parsed->hold_ms, 10000);

  // Anything malformed downgrades (nullopt), never errors.
  EXPECT_FALSE(ParseTransportGrant("").has_value());
  EXPECT_FALSE(ParseTransportGrant("websocket; hb=1").has_value());
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

TEST_F(TransportSessionTest, FramedStreamPushesUpdatesWithoutPolling) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.transport_heartbeat = Duration::Seconds(1.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // The first granted poll upgraded to a held framed stream.
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return session.snippet(0)->frames_open(); }));
  EXPECT_EQ(session.agent()->framed_stream_count(), 1u);
  EXPECT_EQ(session.agent()->metrics().transport_streams_opened, 1u);

  // While streaming, the poll loop is quiescent: an update arrives as a
  // pushed data frame, not as a poll response.
  uint64_t polls_before = session.snippet(0)->metrics().polls_sent;
  uint64_t frames_before = session.snippet(0)->metrics().frames_received;
  MutateHost(&session, "framed-marker");
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_NE(session.participant_browser(0)->document()->ById("framed-marker"),
            nullptr);
  EXPECT_EQ(session.snippet(0)->metrics().polls_sent, polls_before);
  EXPECT_GT(session.snippet(0)->metrics().frames_received, frames_before);
  EXPECT_GT(session.agent()->metrics().transport_frames_sent, 0u);
  EXPECT_GT(session.agent()->metrics().transport_frame_bytes_sent, 0u);
  // Streaming pays no idle-poll tax.
  EXPECT_EQ(session.snippet(0)->metrics().wasted_polls, 0u);
}

TEST_F(TransportSessionTest, FramedStreamCarriesRemoteActionsPromptly) {
  SessionOptions options = BaseOptions();
  options.participant_count = 2;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return session.snippet(0)->frames_open() && session.snippet(1)->frames_open();
  }));

  // Participant 0's gesture fans out to participant 1 over its held stream
  // (actions-only data frame), without waiting for any poll interval.
  uint64_t broadcasts_before = session.snippet(1)->metrics().broadcasts_received;
  session.snippet(0)->SendMouseMove(11, 22);
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return session.snippet(1)->metrics().broadcasts_received > broadcasts_before;
  }));
  EXPECT_TRUE(session.snippet(1)->frames_open());
}

TEST_F(TransportSessionTest, IdleFramedStreamStaysAliveOnHeartbeats) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.transport_heartbeat = Duration::Millis(500);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return session.snippet(0)->frames_open(); }));

  // Ten seconds of dead air: the stream survives on heartbeats alone.
  loop_.RunFor(Duration::Seconds(10.0));
  EXPECT_TRUE(session.snippet(0)->frames_open());
  EXPECT_GE(session.snippet(0)->metrics().heartbeats_received, 8u);
  EXPECT_GE(session.agent()->metrics().transport_heartbeats_sent, 8u);
  EXPECT_EQ(session.snippet(0)->metrics().heartbeat_timeouts, 0u);
  EXPECT_EQ(session.snippet(0)->metrics().wasted_polls, 0u);
}

TEST_F(TransportSessionTest, DroppedStreamRecoversThroughSignedResume) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.transport_heartbeat = Duration::Millis(500);
  options.poll_timeout = Duration::Seconds(1.0);
  options.reconnect_after = 1;
  options.backoff_base = Duration::Millis(250);
  options.backoff_max = Duration::Seconds(2.0);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return session.snippet(0)->frames_open(); }));

  // Black-hole the participant for 5 s: heartbeats stop arriving, the
  // watchdog declares the stream dead, and the recovery ladder runs —
  // reconnect_after=1 sends it straight through the signed resume.
  FaultInjector injector(&network_, /*seed=*/77);
  injector.InjectPartition("participant-pc-1", loop_.now() + Duration::Millis(100),
                           Duration::Seconds(5.0), Duration::Millis(200));
  loop_.Schedule(Duration::Millis(500), [&] { MutateHost(&session, "mid-fault"); });
  loop_.RunFor(Duration::Seconds(20.0));

  const SnippetMetrics& snippet = session.snippet(0)->metrics();
  EXPECT_GE(snippet.heartbeat_timeouts, 1u);
  EXPECT_GE(snippet.transport_stream_failures, 1u);
  EXPECT_GE(snippet.reconnects, 1u);
  // The resume was authenticated, not a fresh unauthenticated join.
  EXPECT_GE(session.agent()->metrics().reconnects, 1u);
  EXPECT_EQ(session.agent()->metrics().auth_failures, 0u);
  // Recovered all the way back onto the streamed transport, content intact.
  EXPECT_TRUE(session.snippet(0)->frames_open());
  EXPECT_FALSE(session.snippet(0)->transport_downgraded());
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

TEST_F(TransportSessionTest, HeldStreamCapDeniesUpgradesGracefully) {
  SessionOptions options = BaseOptions();
  options.participant_count = 3;
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.max_held_streams = 1;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);

  // Exactly one participant wins the held slot; the others are denied and
  // keep polling — no errors, no stuck clients.
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return session.agent()->framed_stream_count() == 1;
  }));
  loop_.RunFor(Duration::Seconds(3.0));
  EXPECT_EQ(session.agent()->framed_stream_count(), 1u);
  EXPECT_GT(session.agent()->metrics().transport_capacity_denials, 0u);

  MutateHost(&session, "cap-marker");
  ASSERT_TRUE(session.WaitForSync().ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(session.participant_browser(i)->document()->ById("cap-marker"),
              nullptr)
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

TEST_F(TransportSessionTest, RepeatedStreamFailuresDowngradeToPolling) {
  SessionOptions options = BaseOptions();
  options.enable_transport = true;
  options.snippet_stream_mode = transport::kStreamFrames;
  options.transport_heartbeat = Duration::Millis(500);
  options.stream_downgrade_after = 2;
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  NavigateHost(&session);
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return session.snippet(0)->frames_open(); }));

  // Two long blackouts in a row: each kills the stream via the heartbeat
  // watchdog before any data frame can reset the failure streak, so the
  // snippet writes the transport off and settles on classic polling.
  FaultInjector injector(&network_, /*seed=*/99);
  injector.InjectPartition("participant-pc-1", loop_.now() + Duration::Millis(100),
                           Duration::Seconds(4.0), Duration::Millis(200));
  injector.InjectPartition("participant-pc-1", loop_.now() + Duration::Seconds(5.0),
                           Duration::Seconds(4.0), Duration::Millis(200));
  loop_.RunFor(Duration::Seconds(15.0));

  EXPECT_TRUE(session.snippet(0)->transport_downgraded());
  EXPECT_GE(session.snippet(0)->metrics().transport_downgrades, 1u);
  EXPECT_FALSE(session.snippet(0)->frames_open());

  // Downgraded but healthy: updates still arrive, over plain polls.
  MutateHost(&session, "downgrade-marker");
  ASSERT_TRUE(session.WaitForSync(Duration::Seconds(30.0)).ok());
  EXPECT_NE(
      session.participant_browser(0)->document()->ById("downgrade-marker"),
      nullptr);
  EXPECT_FALSE(session.snippet(0)->frames_open());
  EXPECT_FALSE(session.snippet(0)->long_poll_active());
}

}  // namespace
}  // namespace rcb
