// Tests for the paper-discussed extensions: NAT + port forwarding (§3.2.1),
// TLS origins, presence notifications (§5.2.3 feedback), push delivery over
// long-polls (§3.2.3 alternative), and the mobile profile (§6).
#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/sites/shop_site.h"
#include "src/sites/site_server.h"

namespace rcb {
namespace {

// ------------------------------------------------------------- NAT / TLS --

class NatTest : public ::testing::Test {
 protected:
  NatTest() : network_(&loop_) {
    network_.AddHost("home-gateway", {});
    network_.AddHost("host-pc", {});
    network_.AddHost("roommate-pc", {});
    network_.AddHost("remote-pc", {});
    network_.SetBehindNat("host-pc", "home-gateway");
    network_.SetBehindNat("roommate-pc", "home-gateway");
  }
  EventLoop loop_;
  Network network_;
};

TEST_F(NatTest, DirectConnectionToNattedHostFails) {
  ASSERT_TRUE(network_.Listen("host-pc", 3000, [](NetEndpoint*) {}).ok());
  auto result = network_.Connect("remote-pc", "host-pc", 3000);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST_F(NatTest, SameLanPeersConnectDirectly) {
  ASSERT_TRUE(network_.Listen("host-pc", 3000, [](NetEndpoint*) {}).ok());
  EXPECT_TRUE(network_.Connect("roommate-pc", "host-pc", 3000).ok());
}

TEST_F(NatTest, PortForwardReachesPrivateListener) {
  bool accepted = false;
  ASSERT_TRUE(network_.Listen("host-pc", 3000, [&](NetEndpoint* endpoint) {
    accepted = true;
    EXPECT_EQ(endpoint->local_host(), "host-pc");
  }).ok());
  network_.AddPortForward("home-gateway", 3000, "host-pc", 3000);
  auto result = network_.Connect("remote-pc", "home-gateway", 3000);
  ASSERT_TRUE(result.ok()) << result.status();
  loop_.Run();
  EXPECT_TRUE(accepted);
}

TEST_F(NatTest, PortForwardWithDifferentPublicPort) {
  ASSERT_TRUE(network_.Listen("host-pc", 3000, [](NetEndpoint*) {}).ok());
  network_.AddPortForward("home-gateway", 8080, "host-pc", 3000);
  EXPECT_TRUE(network_.Connect("remote-pc", "home-gateway", 8080).ok());
  // Unforwarded port on the gateway is still refused.
  EXPECT_FALSE(network_.Connect("remote-pc", "home-gateway", 8081).ok());
}

TEST_F(NatTest, CoBrowsingThroughPortForwarding) {
  // §3.2.1: "a co-browsing host can still allow remote participants to reach
  // a TCP port on a private IP address inside a LAN using port-forwarding".
  network_.AddHost("www.site.test", {});
  SiteServer site(&loop_, &network_, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>N</title></head><body>x</body></html>");

  Browser host_browser(&loop_, &network_, "host-pc");
  AgentConfig config;
  RcbAgent agent(&host_browser, config);
  ASSERT_TRUE(agent.Start().ok());
  network_.AddPortForward("home-gateway", 3000, "host-pc", 3000);

  Browser participant_browser(&loop_, &network_, "remote-pc");
  AjaxSnippet snippet(&participant_browser, {});
  Status join_status;
  bool joined = false;
  // The participant types the *gateway's* public address.
  snippet.Join(Url::Make("http", "home-gateway", 3000, "/"), [&](Status status) {
    join_status = status;
    joined = true;
  });
  loop_.RunUntilCondition([&] { return joined; });
  ASSERT_TRUE(join_status.ok()) << join_status;

  bool loaded = false;
  host_browser.Navigate(Url::Make("http", "www.site.test", 80, "/"),
                        [&](const Status&, const PageLoadStats&) {
                          loaded = true;
                        });
  loop_.RunUntilCondition([&] { return loaded; });
  loop_.RunUntilCondition(
      [&] { return participant_browser.document()->Title() == "N"; });
  SUCCEED();
}

TEST(TlsTest, TlsHandshakeAddsTwoRtts) {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("client", {});
  network.AddHost("secure.test", {});
  network.SetLatency("client", "secure.test", Duration::Millis(10));
  network.MarkTlsPort("secure.test", 443);
  SimTime plain_accept;
  SimTime tls_accept;
  ASSERT_TRUE(network.Listen("secure.test", 80, [&](NetEndpoint*) {
    plain_accept = loop.now();
  }).ok());
  ASSERT_TRUE(network.Listen("secure.test", 443, [&](NetEndpoint*) {
    tls_accept = loop.now();
  }).ok());
  ASSERT_TRUE(network.Connect("client", "secure.test", 80).ok());
  ASSERT_TRUE(network.Connect("client", "secure.test", 443).ok());
  loop.Run();
  // Plain: accept after one-way 10 ms. TLS: + 2 RTTs (40 ms).
  EXPECT_EQ(plain_accept.millis(), 10);
  EXPECT_EQ(tls_accept.millis(), 50);
}

TEST(TlsTest, HttpsOriginCoBrowsedInCacheMode) {
  // §3.1: "Web contents hosted on HTTP or HTTPS Web servers can all be
  // synchronized"; with cache mode the participant never contacts the
  // HTTPS origin at all.
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost("participant-pc", {});
  network.AddHost("secure.shop.test", {});
  network.MarkTlsPort("secure.shop.test", 443);
  SiteServer site(&loop, &network, "secure.shop.test", 443);
  site.ServeStatic("/", "text/html",
                   "<html><head><title>Secure</title></head>"
                   "<body><img src=\"/i.png\"></body></html>");
  site.ServeStatic("/i.png", "image/png", "SECRETPIXELS");
  // Participant cannot reach the origin (models a firewalled HTTPS service).
  network.BlockRoute("participant-pc", "secure.shop.test");

  Browser host_browser(&loop, &network, "host-pc");
  AgentConfig config;
  config.cache_mode = true;
  RcbAgent agent(&host_browser, config);
  ASSERT_TRUE(agent.Start().ok());
  Browser participant_browser(&loop, &network, "participant-pc");
  AjaxSnippet snippet(&participant_browser, {});
  bool joined = false;
  snippet.Join(agent.AgentUrl(), [&](Status status) {
    ASSERT_TRUE(status.ok());
    joined = true;
  });
  loop.RunUntilCondition([&] { return joined; });

  bool loaded = false;
  host_browser.Navigate(Url::Make("https", "secure.shop.test", 443, "/"),
                        [&](const Status& status, const PageLoadStats&) {
                          ASSERT_TRUE(status.ok()) << status;
                          loaded = true;
                        });
  loop.RunUntilCondition([&] { return loaded; });

  bool objects_done = false;
  snippet.SetObjectsLoadedListener([&](Duration) { objects_done = true; });
  loop.RunUntilCondition([&] { return objects_done; });
  EXPECT_EQ(participant_browser.document()->Title(), "Secure");
  EXPECT_EQ(snippet.metrics().object_fetch_failures, 0u);
  EXPECT_EQ(snippet.metrics().last_objects_from_host, 1u);
}

// --------------------------------------------------------------- Presence --

class PresenceTest : public ::testing::Test {
 protected:
  PresenceTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("www.site.test", {});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "www.site.test");
    site_->ServeStatic("/", "text/html", "<html><body>x</body></html>");
    host_browser_ = std::make_unique<Browser>(&loop_, &network_, "host-pc");
    AgentConfig config;
    config.poll_interval = Duration::Millis(200);  // advertised to joiners
    agent_ = std::make_unique<RcbAgent>(host_browser_.get(), config);
    EXPECT_TRUE(agent_->Start().ok());
  }

  std::unique_ptr<AjaxSnippet> JoinParticipant(const std::string& machine) {
    network_.AddHost(machine, {});
    browsers_.push_back(std::make_unique<Browser>(&loop_, &network_, machine));
    auto snippet =
        std::make_unique<AjaxSnippet>(browsers_.back().get(), SnippetConfig{});
    bool joined = false;
    snippet->Join(agent_->AgentUrl(), [&](Status status) {
      EXPECT_TRUE(status.ok());
      joined = true;
    });
    loop_.RunUntilCondition([&] { return joined; });
    return snippet;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
  std::unique_ptr<Browser> host_browser_;
  std::unique_ptr<RcbAgent> agent_;
  std::vector<std::unique_ptr<Browser>> browsers_;
};

TEST_F(PresenceTest, JoinNotifiesExistingParticipants) {
  auto first = JoinParticipant("p1-pc");
  loop_.RunFor(Duration::Millis(500));
  EXPECT_TRUE(first->known_peers().empty());
  auto second = JoinParticipant("p2-pc");
  loop_.RunUntilCondition([&] { return !first->known_peers().empty(); });
  EXPECT_EQ(first->known_peers().size(), 1u);
  EXPECT_EQ(first->known_peers()[0], second->participant_id());
  // The newcomer doesn't learn about itself.
  loop_.RunFor(Duration::Millis(500));
  EXPECT_TRUE(second->known_peers().empty());
}

TEST_F(PresenceTest, ExplicitLeaveNotifiesOthers) {
  auto first = JoinParticipant("p1-pc");
  auto second = JoinParticipant("p2-pc");
  loop_.RunUntilCondition([&] { return first->known_peers().size() == 1; });
  std::string second_pid = second->participant_id();
  second->Leave();
  loop_.RunUntilCondition([&] { return first->known_peers().empty(); });
  EXPECT_EQ(agent_->participant_count(), 1u);
  // The departed pid is gone from the agent's registry too.
  for (const auto& pid : agent_->ConnectedParticipants()) {
    EXPECT_NE(pid, second_pid);
  }
}

TEST_F(PresenceTest, SilentParticipantReapedAndAnnounced) {
  auto first = JoinParticipant("p1-pc");
  auto second = JoinParticipant("p2-pc");
  loop_.RunUntilCondition([&] { return first->known_peers().size() == 1; });
  // Second vanishes without a goodbye (crash / abrupt network loss).
  second->AbortWithoutGoodbye();
  // Liveness window is poll_interval * 5 of the agent config (1 s here).
  loop_.RunFor(Duration::Seconds(12.0));
  EXPECT_TRUE(first->known_peers().empty());
}

// -------------------------------------------------------- Long-poll push --
//
// §3.2.3's push alternative, delivered over the streamed transport: each
// participant advertises stream=2, its first poll negotiates a long-poll,
// and from then on the agent holds its poll until content or a broadcast
// releases it; the participant's own gestures pre-empt the held poll.

class LongPollPushTest : public ::testing::Test {
 protected:
  LongPollPushTest() : network_(&loop_) {}

  void Start(SessionOptions options) {
    options.enable_transport = true;
    options.snippet_stream_mode = transport::kStreamFrames;
    network_.AddHost("www.shop.test", {});
    shop_ = std::make_unique<ShopSite>(&loop_, &network_, "www.shop.test");
    session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
    ASSERT_TRUE(session_->Start().ok());
    ASSERT_TRUE(loop_.RunUntilCondition([&] {
      return session_->agent()->parked_poll_count() ==
             options.participant_count;
    }));
  }

  void LoadShop() {
    bool loaded = false;
    session_->host_browser()->Navigate(
        Url::Make("http", "www.shop.test", 80, "/"),
        [&](const Status& status, const PageLoadStats&) {
          ASSERT_TRUE(status.ok());
          loaded = true;
        });
    loop_.RunUntilCondition([&] { return loaded; });
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<ShopSite> shop_;
  std::unique_ptr<CoBrowsingSession> session_;
};

TEST_F(LongPollPushTest, PollParksOnJoin) {
  Start(SessionOptions{});
  EXPECT_TRUE(session_->snippet(0)->long_poll_active());
  // No poll traffic accumulates while idle: the parked poll is held for
  // the whole 10 s hold.
  uint64_t polls = session_->agent()->metrics().polls_received;
  loop_.RunFor(Duration::Seconds(5.0));
  EXPECT_EQ(session_->agent()->metrics().polls_received, polls);
  EXPECT_EQ(session_->agent()->parked_poll_count(), 1u);
  EXPECT_TRUE(session_->snippet(0)->long_poll_active());
}

TEST_F(LongPollPushTest, ContentPushedOnChange) {
  Start(SessionOptions{});
  const AgentMetrics& metrics = session_->agent()->metrics();
  const uint64_t flushes = metrics.transport_long_poll_flushes;
  const uint64_t empties = metrics.polls_empty;
  LoadShop();
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->ById("featured") !=
           nullptr;
  });
  // The page arrived as the release of the parked poll, and no classic
  // empty reply was sent meanwhile.
  EXPECT_GT(metrics.transport_long_poll_flushes, flushes);
  EXPECT_EQ(metrics.polls_empty, empties);
}

TEST_F(LongPollPushTest, PushLatencyBeatsPollInterval) {
  SessionOptions options;
  options.poll_interval = Duration::Seconds(1.0);
  Start(options);
  LoadShop();
  loop_.RunUntilCondition([&] {
    return session_->snippet(0)->metrics().content_updates > 0;
  });
  // Change a marker and measure push latency.
  SimTime change_at = loop_.now();
  session_->host_browser()->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("pushed"));
  });
  uint64_t updates = session_->snippet(0)->metrics().content_updates;
  loop_.RunUntilCondition([&] {
    return session_->snippet(0)->metrics().content_updates > updates;
  });
  Duration latency = loop_.now() - change_at;
  // Far below the 1 s poll interval: push skips the waiting-for-tick time.
  EXPECT_LT(latency, Duration::Millis(100));
}

TEST_F(LongPollPushTest, ParticipantActionsFlushWithoutPollNow) {
  Start(SessionOptions{});
  LoadShop();
  loop_.RunUntilCondition([&] {
    return session_->participant_browser(0)->document()->ById("searchform") !=
           nullptr;
  });
  loop_.RunFor(Duration::Seconds(2.0));  // idle: the poll is parked
  ASSERT_EQ(session_->agent()->parked_poll_count(), 1u);
  Element* form =
      session_->participant_browser(0)->document()->ById("searchform");
  const SimTime filled_at = loop_.now();
  ASSERT_TRUE(session_->snippet(0)->FillFormField(form, "q", "kindle").ok());
  // No PollNow needed: a stream=2 participant's gesture supersedes its
  // parked poll at once, well inside the 10 s hold.
  loop_.RunUntilCondition([&] {
    Element* host_form = session_->host_browser()->document()->ById("searchform");
    if (host_form == nullptr) {
      return false;
    }
    bool filled = false;
    host_form->ForEachElement([&](Element* element) {
      if (element->AttrOr("name") == "q" && element->AttrOr("value") == "kindle") {
        filled = true;
        return false;
      }
      return true;
    });
    return filled;
  });
  EXPECT_LT(loop_.now() - filled_at, Duration::Millis(250));
}

TEST_F(LongPollPushTest, MousePushedToPeersImmediately) {
  SessionOptions options;
  options.participant_count = 2;
  Start(options);
  std::vector<UserAction> received;
  session_->snippet(1)->SetActionListener(
      [&](const UserAction& action) { received.push_back(action); });
  SimTime moved_at = loop_.now();
  session_->snippet(0)->SendMouseMove(7, 9);
  loop_.RunUntilCondition([&] { return !received.empty(); });
  EXPECT_EQ(received[0].type, ActionType::kMouseMove);
  EXPECT_EQ(received[0].x, 7);
  // Carried by the poll that superseded the sender's park, and relayed by
  // releasing the peer's park: no poll interval waited.
  EXPECT_LT(loop_.now() - moved_at, Duration::Millis(100));
}

// ----------------------------------------------------------------- Mobile --

TEST(MobileProfileTest, SessionWorksOnHandheldHost) {
  EventLoop loop;
  Network network(&loop);
  NetworkProfile mobile = MobileProfile();
  EXPECT_EQ(mobile.host_interface.uplink_bps, 12'000'000);

  network.AddHost("www.site.test", {});
  SiteServer site(&loop, &network, "www.site.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>M</title></head><body>m</body></html>");
  SessionOptions options;
  options.profile = mobile;
  CoBrowsingSession session(&loop, &network, options);
  ASSERT_TRUE(session.Start().ok());
  auto stats = session.CoNavigate(Url::Make("http", "www.site.test", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(session.participant_browser(0)->document()->Title(), "M");
  // Wi-Fi handheld host: slower than wired LAN, still well under a second.
  EXPECT_GT(stats->participant_content_time[0], Duration::Millis(8));
  EXPECT_LT(stats->participant_content_time[0], Duration::Seconds(1.0));
}

}  // namespace
}  // namespace rcb
