// Tests for RcbHost (src/host): session registry lifecycle, cross-session
// isolation, shared-cache accounting, host-level admission control, the
// front-door router, the generate-once broadcast proof metrics, and the
// crash-recovery machinery (DESIGN.md §13): checkpoint/WAL durability,
// supervised recovery-on-start, signed-resume reconnection, per-session
// degradation of corrupt files, and restart-storm admission staggering.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/core/ajax_snippet.h"
#include "src/crypto/hmac.h"
#include "src/delta/tree_diff.h"
#include "src/host/rcb_host.h"
#include "src/http/http_parser.h"
#include "src/html/parser.h"
#include "src/net/fault_injector.h"
#include "src/persist/checkpoint.h"
#include "src/sites/site_server.h"
#include "src/util/json.h"
#include "src/util/rand.h"
#include "src/util/strings.h"
#include "tests/support/status_lines.h"

namespace rcb {
namespace {

constexpr uint16_t kBasePort = 3000;

class HostTest : public ::testing::Test {
 protected:
  HostTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    for (int i = 1; i <= 8; ++i) {
      std::string machine = "p-pc-" + std::to_string(i);
      network_.AddHost(machine, {});
      network_.SetLatency("host-pc", machine, Duration::Millis(1));
    }
  }

  std::unique_ptr<RcbHost> MakeHost(HostConfig config = {}) {
    config.base_port = kBasePort;
    // Fast polls keep the tests snappy in simulated time.
    if (config.agent_defaults.poll_interval == Duration::Seconds(1.0)) {
      config.agent_defaults.poll_interval = Duration::Millis(100);
    }
    auto host = std::make_unique<RcbHost>(&loop_, &network_, std::move(config));
    EXPECT_TRUE(host->Start().ok());
    return host;
  }

  // Stamps a new document version in a hosted session — no network involved,
  // exactly like a host-side scripted mutation.
  void SetSessionDoc(HostSession* session, const std::string& title,
                     const std::string& body = "<p>content</p>") {
    session->browser->ReplaceDocument(
        ParseDocument("<html><head><title>" + title + "</title></head><body>" +
                      body + "</body></html>"),
        Url::Make("http", "host-pc", session->port, "/doc"));
  }

  struct Participant {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };

  // Joins a fresh participant (on machine p-pc-<machine_index>) to `session`.
  std::unique_ptr<Participant> JoinSession(HostSession* session,
                                           int machine_index,
                                           SnippetConfig config = {},
                                           bool expect_ok = true) {
    auto participant = std::make_unique<Participant>();
    participant->browser = std::make_unique<Browser>(
        &loop_, &network_, "p-pc-" + std::to_string(machine_index));
    config.fetch_objects = false;
    participant->snippet =
        std::make_unique<AjaxSnippet>(participant->browser.get(), config);
    Status join_status;
    bool done = false;
    participant->snippet->Join(session->agent->AgentUrl(), [&](Status status) {
      join_status = status;
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    EXPECT_EQ(join_status.ok(), expect_ok) << join_status;
    return participant;
  }

  void WaitForContent(Participant* participant, uint64_t min_updates = 1) {
    ASSERT_TRUE(loop_.RunUntilCondition([&] {
      return participant->snippet->metrics().content_updates >= min_updates;
    }));
  }

  EventLoop loop_;
  Network network_;
};

// ------------------------------------------------- registry lifecycle ------

TEST_F(HostTest, SessionRegistryCreateLookupClose) {
  auto host = MakeHost();

  auto alpha = host->CreateSession("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status();
  EXPECT_EQ((*alpha)->id, "alpha");
  EXPECT_EQ((*alpha)->port, kBasePort + 1);
  EXPECT_EQ(host->FindSession("alpha"), *alpha);
  EXPECT_EQ(host->session_count(), 1u);

  auto beta = host->CreateSession("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ((*beta)->port, kBasePort + 2);
  EXPECT_NE((*alpha)->port, (*beta)->port);

  // Live-id collision: 409-class failure, existing session untouched.
  auto collision = host->CreateSession("alpha");
  EXPECT_FALSE(collision.ok());
  EXPECT_EQ(collision.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(host->metrics().session_id_collisions, 1u);
  EXPECT_EQ(host->session_count(), 2u);

  // Malformed ids never enter the registry.
  for (const char* bad : {"", "has space", "semi;colon", "sl/ash",
                          "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
                          "xxxxxxxxxxxxxxxx"}) {
    auto invalid = host->CreateSession(bad);
    EXPECT_FALSE(invalid.ok()) << bad;
    EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_FALSE(RcbHost::IsValidSessionId("no!"));
  EXPECT_TRUE(RcbHost::IsValidSessionId("ok_id-7"));

  EXPECT_TRUE(host->CloseSession("alpha").ok());
  EXPECT_EQ(host->FindSession("alpha"), nullptr);
  EXPECT_EQ(host->session_count(), 1u);
  EXPECT_EQ(host->metrics().sessions_closed, 1u);
  EXPECT_FALSE(host->CloseSession("alpha").ok());  // already gone

  // A closed id answers 410 until re-created; re-creating reuses its port.
  HttpRequest gone;
  gone.method = HttpMethod::kGet;
  gone.target = "/s/alpha/status";
  EXPECT_EQ(host->Route(gone).status_code, 410);
  EXPECT_EQ(host->metrics().expired_session_requests, 1u);
  auto again = host->CreateSession("alpha");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->port, kBasePort + 1);
  EXPECT_EQ(host->Route(gone).status_code, 200);
}

TEST_F(HostTest, IdleSessionsAreReapedAndActiveOnesKept) {
  HostConfig config;
  config.limits.session_idle_timeout = Duration::Seconds(5.0);
  auto host = MakeHost(std::move(config));

  auto active = host->CreateSession("active");
  ASSERT_TRUE(active.ok());
  auto idle = host->CreateSession("idle");
  ASSERT_TRUE(idle.ok());
  uint16_t idle_port = (*idle)->port;
  AgentConfig streamed_config;
  streamed_config.transport.enable_stream = true;
  auto streamed = host->CreateSession("streamed", streamed_config);
  ASSERT_TRUE(streamed.ok());

  // The joined participant keeps polling "active"; "idle" sees no requests.
  SetSessionDoc(*active, "Active");
  auto participant = JoinSession(*active, 1);
  WaitForContent(participant.get());
  // "streamed" holds a parked long-poll: its participant sends no request
  // for the whole 10 s hold, longer than the idle timeout, yet the session
  // is live.
  SetSessionDoc(*streamed, "Streamed");
  SnippetConfig longpoll_config;
  longpoll_config.stream_mode = transport::kStreamLongPoll;
  auto streamer = JoinSession(*streamed, 2, longpoll_config);
  WaitForContent(streamer.get());
  ASSERT_TRUE(loop_.RunUntilCondition(
      [&] { return (*streamed)->agent->parked_poll_count() == 1; }));

  loop_.RunFor(Duration::Seconds(6.0));
  EXPECT_EQ(host->ReapIdleSessions(), 1u);
  EXPECT_EQ(host->FindSession("idle"), nullptr);
  EXPECT_NE(host->FindSession("active"), nullptr);
  EXPECT_NE(host->FindSession("streamed"), nullptr);
  EXPECT_EQ((*streamed)->agent->parked_poll_count(), 1u);
  EXPECT_TRUE(streamer->snippet->long_poll_active());
  EXPECT_EQ(host->metrics().sessions_reaped, 1u);

  // A reaped id answers 410 (routing also reaps lazily), and its port is the
  // lowest free one, so the next session takes it over.
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/s/idle/status";
  EXPECT_EQ(host->Route(request).status_code, 410);
  auto next = host->CreateSession("next");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->port, idle_port);

  // Reaping is lazy — no recurring timer may keep the loop's queue busy
  // forever (drain-based RunUntilCondition waits depend on this).
  participant->snippet->Leave();
  streamer->snippet->Leave();
  loop_.RunFor(Duration::Seconds(1.0));
}

// --------------------------------------------- cross-session isolation -----

TEST_F(HostTest, SessionsNeverShareDocumentsActionsOrVersions) {
  auto host = MakeHost();
  AgentConfig config_a;
  config_a.session_key = "key-alpha";
  AgentConfig config_b;
  config_b.session_key = "key-beta";
  auto session_a = host->CreateSession("a", config_a);
  auto session_b = host->CreateSession("b", config_b);
  ASSERT_TRUE(session_a.ok());
  ASSERT_TRUE(session_b.ok());

  SetSessionDoc(*session_a, "DocA");
  SetSessionDoc(*session_b, "DocB");
  SnippetConfig snippet_a;
  snippet_a.session_key = "key-alpha";
  SnippetConfig snippet_b;
  snippet_b.session_key = "key-beta";
  auto participant_a = JoinSession(*session_a, 1, snippet_a);
  auto participant_b = JoinSession(*session_b, 2, snippet_b);
  WaitForContent(participant_a.get());
  WaitForContent(participant_b.get());
  EXPECT_EQ(participant_a->browser->document()->Title(), "DocA");
  EXPECT_EQ(participant_b->browser->document()->Title(), "DocB");

  // Mutating A's document must reach only A's participant.
  int64_t b_doc_time = participant_b->snippet->doc_time_ms();
  SetSessionDoc(*session_a, "DocA2");
  WaitForContent(participant_a.get(), 2);
  loop_.RunFor(Duration::Millis(500));
  EXPECT_EQ(participant_a->browser->document()->Title(), "DocA2");
  EXPECT_EQ(participant_b->browser->document()->Title(), "DocB");
  EXPECT_EQ(participant_b->snippet->doc_time_ms(), b_doc_time);
  EXPECT_EQ((*session_b)->agent->metrics().doc_updates, 1u);
  EXPECT_EQ((*session_b)->agent->metrics().generations, 1u);

  // Actions stay inside their session: A's pointer mirroring never shows up
  // in B's broadcasts.
  uint64_t b_broadcasts = participant_b->snippet->metrics().broadcasts_received;
  participant_a->snippet->SendMouseMove(5, 7);
  loop_.RunFor(Duration::Millis(500));
  EXPECT_EQ(participant_b->snippet->metrics().broadcasts_received,
            b_broadcasts);
  EXPECT_EQ((*session_b)->agent->participant_count(), 1u);

  // A's HMAC key is rejected by B's agent — per-session keys never leak.
  // The initial GET is open by design (the key is entered on the join page);
  // every poll signed with the wrong key gets 403 and no content.
  SnippetConfig wrong_key;
  wrong_key.session_key = "key-alpha";
  auto intruder = JoinSession(*session_b, 3, wrong_key);
  loop_.RunFor(Duration::Seconds(1.0));
  EXPECT_GE((*session_b)->agent->metrics().auth_failures, 1u);
  EXPECT_GE(intruder->snippet->metrics().auth_rejections, 1u);
  EXPECT_EQ(intruder->snippet->metrics().content_updates, 0u);
  EXPECT_NE(intruder->browser->document()->Title(), "DocB");
  EXPECT_EQ((*session_a)->agent->metrics().auth_failures, 0u);
}

// ------------------------------------------------ shared-cache accounting --

TEST_F(HostTest, SessionsShareOneObjectCache) {
  network_.AddHost("www.origin.test", {});
  network_.SetLatency("host-pc", "www.origin.test", Duration::Millis(5));
  SiteServer origin(&loop_, &network_, "www.origin.test");
  origin.ServeStatic("/a.png", "image/png", "PNGBYTES");

  auto host = MakeHost();
  auto session_a = host->CreateSession("a");
  auto session_b = host->CreateSession("b");
  ASSERT_TRUE(session_a.ok());
  ASSERT_TRUE(session_b.ok());

  Url object = Url::Make("http", "www.origin.test", 80, "/a.png");
  bool first_done = false;
  (*session_a)->browser->FetchCached(object, [&](FetchResult result) {
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.from_cache);
    first_done = true;
  });
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return first_done; }));
  EXPECT_EQ(host->shared_cache().size(), 1u);
  EXPECT_EQ(host->shared_cache().misses(), 1u);

  // The second session's fetch is a pure cache hit: one stored copy, no new
  // origin traffic.
  uint64_t bytes_before = network_.total_bytes_transferred();
  bool second_done = false;
  (*session_b)->browser->FetchCached(object, [&](FetchResult result) {
    EXPECT_TRUE(result.status.ok());
    EXPECT_TRUE(result.from_cache);
    second_done = true;
  });
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return second_done; }));
  EXPECT_EQ(host->shared_cache().size(), 1u);
  EXPECT_EQ(host->shared_cache().hits(), 1u);
  EXPECT_EQ(network_.total_bytes_transferred(), bytes_before);
}

TEST_F(HostTest, SharedCacheBudgetSurvivesSessionCreation) {
  HostConfig config;
  config.limits.shared_cache_byte_budget = 16;
  // Per-agent budgets must not clobber the host-wide one on session start.
  config.agent_defaults.limits.cache_byte_budget = 1 << 20;
  auto host = MakeHost(std::move(config));
  auto session = host->CreateSession("a");
  ASSERT_TRUE(session.ok());

  host->shared_cache().Put(Url::Make("http", "x.test", 80, "/1"), "image/png",
                           std::string(12, 'a'));
  host->shared_cache().Put(Url::Make("http", "x.test", 80, "/2"), "image/png",
                           std::string(12, 'b'));
  EXPECT_GT(host->shared_cache().evictions(), 0u)
      << "host byte budget was not in effect after CreateSession";
}

// ---------------------------------------------------- admission limits -----

TEST_F(HostTest, SessionCapShedsWith503AndRetryAfter) {
  HostConfig config;
  config.limits.max_sessions = 2;
  auto host = MakeHost(std::move(config));

  ASSERT_TRUE(host->CreateSession("s1").ok());
  ASSERT_TRUE(host->CreateSession("s2").ok());
  auto rejected = host->CreateSession("s3");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(host->metrics().sessions_rejected, 1u);

  HttpRequest create;
  create.method = HttpMethod::kPost;
  create.target = "/host/sessions?id=s3";
  HttpResponse response = host->Route(create);
  EXPECT_EQ(response.status_code, 503);
  ASSERT_TRUE(response.RetryAfter().has_value());
  // The exact hint: kRetryAfter jittered by the requested id, rounded up to
  // whole seconds on the wire.
  EXPECT_EQ(response.RetryAfter(),
            HttpResponse::ServiceUnavailable(
                JitteredRetryAfter(RcbHost::kRetryAfter, "s3"), "")
                .RetryAfter());
  EXPECT_EQ(host->metrics().sessions_rejected, 2u);

  // Freeing a slot reopens admission.
  ASSERT_TRUE(host->CloseSession("s1").ok());
  EXPECT_EQ(host->Route(create).status_code, 200);
  EXPECT_NE(host->FindSession("s3"), nullptr);
}

TEST_F(HostTest, SessionCapReapsIdleSessionsBeforeShedding) {
  HostConfig config;
  config.limits.max_sessions = 1;
  config.limits.session_idle_timeout = Duration::Seconds(2.0);
  auto host = MakeHost(std::move(config));
  ASSERT_TRUE(host->CreateSession("old").ok());
  loop_.RunFor(Duration::Seconds(3.0));
  // "old" is idle past the timeout: the cap check reaps it instead of
  // rejecting the new session.
  auto fresh = host->CreateSession("fresh");
  EXPECT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(host->metrics().sessions_reaped, 1u);
  EXPECT_EQ(host->metrics().sessions_rejected, 0u);
}

// ----------------------------------------------------- front-door router ---

TEST_F(HostTest, FrontDoorRoutesAndRejects) {
  auto host = MakeHost();
  auto session = host->CreateSession("s1");
  ASSERT_TRUE(session.ok());
  SetSessionDoc(*session, "Doc");

  auto get = [&](const std::string& target) {
    HttpRequest request;
    request.method = HttpMethod::kGet;
    request.target = target;
    return host->Route(request);
  };

  // Forwarded new-connection request reaches the session agent.
  HttpResponse initial = get("/s/s1/");
  EXPECT_EQ(initial.status_code, 200);
  EXPECT_NE(initial.body.find("RCB"), std::string::npos);
  EXPECT_EQ((*session)->agent->metrics().new_connections, 1u);

  EXPECT_EQ(get("/host/status").status_code, 200);
  EXPECT_NE(get("/host/status").body.find("s1"), std::string::npos);
  HttpResponse metrics = get("/host/metrics");
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("rcb_host_sessions"), std::string::npos);

  EXPECT_EQ(get("/s/unknown/").status_code, 404);
  EXPECT_EQ(get("/s/bad id/").status_code, 400);
  EXPECT_EQ(get("/nonsense").status_code, 404);
  EXPECT_EQ(host->metrics().unknown_session_requests, 1u);
  EXPECT_EQ(host->metrics().invalid_session_ids, 1u);
  EXPECT_GE(host->metrics().front_door_requests, 7u);
}

TEST_F(HostTest, FrontDoorSocketRoutesPollsAndCapsRequestSize) {
  // The front door's own socket path: a routed poll is answered over the
  // wire, and the agent's request caps hold there too (413, then close), not
  // only on the session's own port.
  HostConfig config;
  config.agent_defaults.limits.max_request_body_bytes = 4096;
  auto host = MakeHost(std::move(config));
  auto session = host->CreateSession("s1");
  ASSERT_TRUE(session.ok());
  SetSessionDoc(*session, "Doc", "<p>routed content</p>");

  struct Client {
    NetEndpoint* endpoint = nullptr;
    HttpResponseParser parser;
    std::vector<HttpResponse> responses;
    bool closed = false;
  };
  auto connect = [&](Client* client) {
    auto endpoint = network_.Connect("p-pc-1", "host-pc", kBasePort);
    ASSERT_TRUE(endpoint.ok()) << endpoint.status();
    client->endpoint = *endpoint;
    client->endpoint->SetDataHandler([client](std::string_view data) {
      auto response = client->parser.Feed(data);
      ASSERT_TRUE(response.ok()) << response.status();
      if (response->has_value()) {
        client->responses.push_back(std::move(**response));
      }
    });
    client->endpoint->SetCloseHandler([client] { client->closed = true; });
  };
  auto post = [](const std::string& body) {
    HttpRequest request;
    request.method = HttpMethod::kPost;
    request.target = "/s/s1/";
    request.headers.Set("Host", "host-pc:3000");
    request.body = body;
    return request.Serialize();
  };

  Client poller;
  connect(&poller);
  PollRequest poll;
  poll.participant_id = "p1";
  poller.endpoint->Send(post(EncodePollRequest(poll)));
  ASSERT_TRUE(loop_.RunUntilCondition(
      [&] { return !poller.responses.empty(); }));
  EXPECT_EQ(poller.responses[0].status_code, 200);
  auto snapshot = ParseSnapshotXml(poller.responses[0].body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot->body.has_value());
  EXPECT_NE(snapshot->body->inner_html.find("routed content"),
            std::string::npos);
  EXPECT_EQ((*session)->agent->metrics().polls_received, 1u);
  EXPECT_FALSE(poller.closed);

  Client oversized;
  connect(&oversized);
  oversized.endpoint->Send(post(std::string(8192, 'x')));
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return oversized.closed; }));
  ASSERT_EQ(oversized.responses.size(), 1u);
  EXPECT_EQ(oversized.responses[0].status_code, 413);
  // Rejected at the door: the agent never saw it.
  EXPECT_EQ((*session)->agent->metrics().polls_received, 1u);
}

TEST_F(HostTest, FrontDoorReadDeadlineClosesSlowLoris) {
  // The front door applies the agents' read deadline too: a request head
  // that never completes is closed once idle_read_timeout has passed since
  // its first byte, and the door keeps serving well-behaved clients.
  HostConfig config;
  config.agent_defaults.limits.idle_read_timeout = Duration::Seconds(2.0);
  auto host = MakeHost(std::move(config));

  auto slow = network_.Connect("p-pc-1", "host-pc", kBasePort);
  ASSERT_TRUE(slow.ok()) << slow.status();
  bool slow_closed = false;
  (*slow)->SetCloseHandler([&] { slow_closed = true; });
  (*slow)->Send("POST /host/sessions?id=s1 HTTP/1.1\r\nContent-Le");
  loop_.RunFor(Duration::Seconds(1.0));
  (*slow)->Send("n");  // a drip does not extend the deadline
  loop_.RunFor(Duration::Millis(500));
  EXPECT_FALSE(slow_closed);
  loop_.RunFor(Duration::Seconds(1.0));
  EXPECT_TRUE(slow_closed);
  EXPECT_EQ(host->session_count(), 0u);

  auto polite = network_.Connect("p-pc-2", "host-pc", kBasePort);
  ASSERT_TRUE(polite.ok()) << polite.status();
  HttpResponseParser parser;
  std::optional<HttpResponse> status;
  (*polite)->SetDataHandler([&](std::string_view data) {
    auto response = parser.Feed(data);
    ASSERT_TRUE(response.ok()) << response.status();
    if (response->has_value()) {
      status = std::move(**response);
    }
  });
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/host/status";
  request.headers.Set("Host", "host-pc:3000");
  (*polite)->Send(request.Serialize());
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return status.has_value(); }));
  EXPECT_EQ(status->status_code, 200);
}

// The sim-view Prometheus body of a flight dump's metrics line.
std::string DumpedPrometheus(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::string prometheus;
  for (std::string line; std::getline(file, line);) {
    auto parsed = ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok() && parsed->Find("type")->string_value == "metrics") {
      prometheus = parsed->Find("prometheus")->string_value;
    }
  }
  return prometheus;
}

// Lines of `body` that start with `prefix`.
size_t CountLinesStartingWith(const std::string& body,
                              const std::string& prefix) {
  size_t count = 0;
  for (std::string_view line : StrSplit(body, '\n')) {
    count += StartsWith(line, prefix) ? 1 : 0;
  }
  return count;
}

// Forges an unsigned poll to hosted session `id`: a 403 and an auth_failure.
void ForgePoll(RcbHost* host, const std::string& id) {
  PollRequest poll;
  poll.participant_id = "p1";
  HttpRequest forged;
  forged.method = HttpMethod::kPost;
  forged.target = "/s/" + id + "/?hmac=00";
  forged.body = EncodePollRequest(poll);
  EXPECT_EQ(host->Route(forged).status_code, 403);
}

TEST_F(HostTest, HostedFlightDumpCarriesTheSessionMetrics) {
  // A hosted agent's flight dumps go to <flight dir>/<session id>/ and render
  // its own registry: the metrics line names the session's own counters.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rcb_host_flight_dump";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  HostConfig config;
  config.agent_defaults.session_key = "key-s1";
  config.agent_defaults.flight_dir = dir.string();
  auto host = MakeHost(std::move(config));
  auto session = host->CreateSession("s1");
  ASSERT_TRUE(session.ok()) << session.status();
  SetSessionDoc(*session, "Doc");
  ForgePoll(host.get(), "s1");

  const obs::FlightRecorder& flight = (*session)->agent->flight_recorder();
  ASSERT_EQ(flight.triggers("auth_failure"), 1u);
  ASSERT_EQ(flight.dumps_written(), 1u);
  EXPECT_EQ(std::filesystem::path(flight.last_dump_path()).parent_path(),
            dir / "s1");
  std::string prometheus = DumpedPrometheus(flight.last_dump_path());
  EXPECT_NE(prometheus.find("\nrcb_agent_auth_failures 1\n"),
            std::string::npos)
      << prometheus;
  std::filesystem::remove_all(dir);
}

TEST_F(HostTest, TwoHostedSessionsDumpOnlyTheirOwnFamiliesToTheirOwnFiles) {
  // Two sessions under one flight dir: each anomaly leaves its own file, and
  // each file renders only its session's families (no other session's
  // series, no host families).
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rcb_host_flight_two";
  std::filesystem::remove_all(dir);
  HostConfig config;
  config.agent_defaults.session_key = "shared-key";
  config.agent_defaults.flight_dir = dir.string();
  auto host = MakeHost(std::move(config));
  auto s1 = host->CreateSession("s1");
  auto s2 = host->CreateSession("s2");
  ASSERT_TRUE(s1.ok() && s2.ok());
  ForgePoll(host.get(), "s1");
  ForgePoll(host.get(), "s2");

  std::set<std::string> paths;
  for (HostSession* session : {*s1, *s2}) {
    const obs::FlightRecorder& flight = session->agent->flight_recorder();
    ASSERT_EQ(flight.dumps_written(), 1u) << session->id;
    paths.insert(flight.last_dump_path());
    std::string prometheus = DumpedPrometheus(flight.last_dump_path());
    EXPECT_EQ(CountLinesStartingWith(prometheus, "rcb_agent_auth_failures"),
              1u)
        << prometheus;
    EXPECT_EQ(prometheus.find("session="), std::string::npos) << prometheus;
    EXPECT_EQ(prometheus.find("rcb_host_"), std::string::npos) << prometheus;
  }
  EXPECT_EQ(paths.size(), 2u);
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_EQ(files, 2u);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------- generate-once broadcast proof ---

TEST_F(HostTest, PipelineRunsOncePerUpdateNotPerParticipant) {
  auto host = MakeHost();
  auto session_a = host->CreateSession("a");
  auto session_b = host->CreateSession("b");
  ASSERT_TRUE(session_a.ok());
  ASSERT_TRUE(session_b.ok());
  SetSessionDoc(*session_a, "A1");
  SetSessionDoc(*session_b, "B1");

  std::vector<std::unique_ptr<Participant>> participants;
  for (int i = 0; i < 3; ++i) {
    participants.push_back(JoinSession(*session_a, 1 + i));
    participants.push_back(JoinSession(*session_b, 4 + i));
  }
  auto all_have = [&](uint64_t min_updates) {
    return loop_.RunUntilCondition([&] {
      for (auto& participant : participants) {
        if (participant->snippet->metrics().content_updates < min_updates) {
          return false;
        }
      }
      return true;
    });
  };
  ASSERT_TRUE(all_have(1));
  SetSessionDoc(*session_a, "A2");
  SetSessionDoc(*session_b, "B2");
  ASSERT_TRUE(all_have(2));

  // Each session saw 2 document versions; each version was generated exactly
  // once and fanned out to all 3 pollers.
  for (HostSession* session : {*session_a, *session_b}) {
    const AgentMetrics& metrics = session->agent->metrics();
    EXPECT_EQ(metrics.doc_updates, 2u) << session->id;
    EXPECT_EQ(metrics.generations, 2u) << session->id;
    EXPECT_GE(metrics.polls_with_content, 6u) << session->id;
    EXPECT_GE(metrics.snapshot_reuses, 4u) << session->id;
  }

  // The host aggregates tell the same story (sim subset is deterministic).
  obs::RenderOptions options;
  options.include_wall = false;
  std::string rendered = host->metrics_registry().RenderPrometheus(options);
  EXPECT_NE(rendered.find("rcb_host_doc_updates_total 4"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("rcb_host_pipeline_runs_total 4"), std::string::npos)
      << rendered;

  // ...and they stay monotone across a session teardown.
  ASSERT_TRUE(host->CloseSession("a").ok());
  rendered = host->metrics_registry().RenderPrometheus(options);
  EXPECT_NE(rendered.find("rcb_host_pipeline_runs_total 4"), std::string::npos)
      << rendered;
}

// -------------------------------------------------------- metrics modes ----

// GET `target` through the front door.
HttpResponse FrontDoorGet(RcbHost* host, const std::string& target) {
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = target;
  return host->Route(request);
}

// Every hosted session registers its families, however many the host runs
// (65 here): each is listed under its label and counts in the aggregates.
TEST_F(HostTest, EverySessionListsItsFamiliesAndCountsInAggregates) {
  auto host = MakeHost();
  std::vector<HostSession*> sessions;
  for (int i = 0; i < 65; ++i) {
    auto session = host->CreateSession("s" + std::to_string(i));
    ASSERT_TRUE(session.ok()) << i;
    sessions.push_back(*session);
  }
  HostSession* first = sessions.front();
  HostSession* last = sessions.back();
  SetSessionDoc(first, "F");
  SetSessionDoc(last, "L");
  auto participant_first = JoinSession(first, 1);
  auto participant_last = JoinSession(last, 2);
  WaitForContent(participant_first.get());
  WaitForContent(participant_last.get());

  std::string rendered = FrontDoorGet(host.get(), "/host/metrics").body;
  for (std::string id : {"s0", "s64"}) {
    EXPECT_NE(rendered.find("rcb_agent_doc_updates{session=\"" + id + "\"} 1"),
              std::string::npos)
        << id << "\n"
        << rendered;
  }
  EXPECT_NE(rendered.find("rcb_host_doc_updates_total 2"), std::string::npos)
      << rendered;

  // Closing a session removes its families from the exposition; its counts
  // stay in the host aggregates.
  ASSERT_TRUE(host->CloseSession("s0").ok());
  rendered = FrontDoorGet(host.get(), "/host/metrics").body;
  EXPECT_EQ(rendered.find("session=\"s0\""), std::string::npos);
  EXPECT_NE(rendered.find("session=\"s64\""), std::string::npos);
  EXPECT_NE(rendered.find("rcb_host_doc_updates_total 2"), std::string::npos)
      << rendered;
}

// Every hosted session registers, however many the host runs: the 70th
// lists its families under its label and serves them on its own /metrics.
TEST_F(HostTest, SeventiethSessionServesItsOwnFamilies) {
  HostConfig config;
  config.agent_defaults.session_key = "many-key";
  auto host = MakeHost(std::move(config));
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(host->CreateSession("s" + std::to_string(i)).ok()) << i;
  }

  std::string host_mac = HmacSha256Hex("many-key", "GET /host/metrics\n");
  HttpResponse all = FrontDoorGet(host.get(), "/host/metrics?hmac=" + host_mac);
  ASSERT_EQ(all.status_code, 200);
  EXPECT_NE(all.body.find("rcb_agent_polls_received{session=\"s69\"} 0"),
            std::string::npos);

  std::string mac = HmacSha256Hex("many-key", "GET /metrics\n");
  HttpResponse own = FrontDoorGet(host.get(), "/s/s69/metrics?hmac=" + mac);
  ASSERT_EQ(own.status_code, 200);
  EXPECT_EQ(CountLinesStartingWith(own.body, "rcb_agent_polls_received 0"), 1u)
      << own.body;
}

// /host/status lists every sim counter and gauge series of the host's
// registry exactly once, with the value the registry reads; a closed
// session leaves the table and stays in the aggregates.
TEST_F(HostTest, HostStatusListsEverySimSeriesOfTheRegistryOnce) {
  auto host = MakeHost();
  auto a = host->CreateSession("a");
  auto b = host->CreateSession("b");
  ASSERT_TRUE(a.ok() && b.ok());
  SetSessionDoc(*a, "A");
  SetSessionDoc(*b, "B");
  auto participant = JoinSession(*a, 1);
  WaitForContent(participant.get());
  ASSERT_TRUE(host->CloseSession("a").ok());

  HttpResponse page = FrontDoorGet(host.get(), "/host/status");
  ASSERT_EQ(page.status_code, 200);
  const std::vector<std::string> expected =
      ExpectedStatusLines(host->metrics_registry());
  EXPECT_EQ(StatusMetricsLines(page.body), expected);
  std::set<std::string> series;
  for (const std::string& line : expected) {
    EXPECT_TRUE(series.insert(line.substr(0, line.rfind(' '))).second) << line;
  }
  for (const char* line :
       {"rcb_host_sessions 1", "rcb_host_sessions_closed 1",
        "rcb_host_doc_updates_total 2", "rcb_host_front_door_requests 1",
        "rcb_host_recovered_sessions_total 0",
        "rcb_persist_checkpoints_written_total 0",
        "rcb_flight_triggers_total{component=\"host\","
        "trigger=\"host_recovery\"} 0"}) {
    EXPECT_NE(std::find(expected.begin(), expected.end(), line),
              expected.end())
        << line;
  }
  EXPECT_EQ(page.body.find("<td>a</td>"), std::string::npos);
  EXPECT_NE(page.body.find("<td>b</td>"), std::string::npos);
}

TEST_F(HostTest, SessionMetricsShowOnlyThatSession) {
  auto host = MakeHost();
  auto s1 = host->CreateSession("s1");
  auto s2 = host->CreateSession("s2");
  ASSERT_TRUE(s1.ok() && s2.ok());
  SetSessionDoc(*s1, "One");
  SetSessionDoc(*s2, "Two");
  auto participant = JoinSession(*s2, 1);
  WaitForContent(participant.get());

  HttpResponse response = FrontDoorGet(host.get(), "/s/s1/metrics");
  ASSERT_EQ(response.status_code, 200);
  EXPECT_EQ(CountLinesStartingWith(response.body, "rcb_agent_polls_received"),
            1u)
      << response.body;
  EXPECT_EQ(response.body.find("session=\"s2\""), std::string::npos);
  EXPECT_EQ(response.body.find("session="), std::string::npos);
  EXPECT_EQ(response.body.find("rcb_host_"), std::string::npos);
  // The host's shared object cache is the host's, not the session's.
  EXPECT_EQ(response.body.find("rcb_cache_"), std::string::npos);
}

TEST_F(HostTest, HostMetricsComposeEverySessionUnderItsLabel) {
  auto host = MakeHost();
  for (const char* id : {"a", "b", "c"}) {
    auto session = host->CreateSession(id);
    ASSERT_TRUE(session.ok());
    SetSessionDoc(*session, id);
  }
  // The host's own registry holds only host-wide families.
  EXPECT_EQ(host->metrics_registry().RenderPrometheus().find("session="),
            std::string::npos);

  std::string rendered = FrontDoorGet(host.get(), "/host/metrics").body;
  std::set<std::string> types;
  size_t type_lines = 0;
  for (std::string_view line : StrSplit(rendered, '\n')) {
    if (StartsWith(line, "# TYPE ")) {
      ++type_lines;
      types.insert(std::string(line));
    }
  }
  EXPECT_GT(type_lines, 0u);
  EXPECT_EQ(types.size(), type_lines) << rendered;
  EXPECT_EQ(CountLinesStartingWith(rendered, "# TYPE rcb_agent_doc_updates "),
            1u);
  for (std::string id : {"a", "b", "c"}) {
    const std::string label = "session=\"" + id + "\"";
    EXPECT_NE(rendered.find("rcb_agent_doc_updates{" + label + "}"),
              std::string::npos)
        << id;
    EXPECT_NE(rendered.find("rcb_flight_triggers_total{" + label +
                            ",trigger=\"resync\"}"),
              std::string::npos)
        << id;
  }
  EXPECT_EQ(CountLinesStartingWith(rendered, "# TYPE rcb_cache_hits "), 1u);
  EXPECT_EQ(CountLinesStartingWith(rendered, "rcb_cache_hits"), 1u);

  ASSERT_TRUE(host->CloseSession("a").ok());
  rendered = FrontDoorGet(host.get(), "/host/metrics").body;
  EXPECT_EQ(rendered.find("session=\"a\""), std::string::npos);
  EXPECT_NE(rendered.find("session=\"b\""), std::string::npos);
}

TEST_F(HostTest, HostMetricsTakeTheTemplateKey) {
  HostConfig config;
  config.agent_defaults.session_key = "metrics-key";
  auto host = MakeHost(std::move(config));
  ASSERT_TRUE(host->CreateSession("s1").ok());

  EXPECT_EQ(FrontDoorGet(host.get(), "/host/metrics").status_code, 403);
  EXPECT_EQ(host->flight_recorder().triggers("auth_failure"), 1u);
  std::string mac = HmacSha256Hex("metrics-key", "GET /host/metrics\n");
  HttpResponse signed_response =
      FrontDoorGet(host.get(), "/host/metrics?hmac=" + mac);
  EXPECT_EQ(signed_response.status_code, 200);
  EXPECT_NE(signed_response.body.find("rcb_agent_doc_updates{session=\"s1\"}"),
            std::string::npos);
  EXPECT_EQ(host->flight_recorder().triggers("auth_failure"), 1u);
}

// ------------------------------------------------ durability & recovery ----
//
// DESIGN.md §13: checkpoint/WAL persistence, crash-point chaos, supervised
// recovery-on-start, signed-resume reconnection, per-session degradation of
// corrupt files, and restart-storm admission staggering.

namespace fs = std::filesystem;

std::string MakeHostPersistDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rcb_host_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string CanonicalDigest(const Document& document) {
  return delta::TreeDigest(*delta::CanonicalizeDocument(document));
}

// Every shed creator gets a deterministic per-key jitter on its Retry-After
// hint, so a thundering herd of rejected creates does not retry in lockstep.
TEST_F(HostTest, RetryAfterJitterSpreadsShedCreators) {
  HostConfig config;
  config.limits.max_sessions = 1;
  // kRetryAfter (1 s) plus up to kRetryAfterJitter (3 s): hints land in
  // [1s, 4s].
  auto host = MakeHost(std::move(config));
  ASSERT_TRUE(host->CreateSession("only").ok());

  auto shed_hint = [&](const std::string& id) {
    HttpRequest request;
    request.method = HttpMethod::kPost;
    request.target = "/host/sessions?id=" + id;
    HttpResponse response = host->Route(request);
    EXPECT_EQ(response.status_code, 503) << id;
    auto hint = response.RetryAfter();
    EXPECT_TRUE(hint.has_value()) << id;
    return hint.value_or(Duration::Zero());
  };

  std::set<int64_t> distinct;
  for (int i = 0; i < 12; ++i) {
    Duration hint = shed_hint("shed-" + std::to_string(i));
    EXPECT_GE(hint, Duration::Seconds(1.0));
    EXPECT_LE(hint, Duration::Seconds(4.0));
    distinct.insert(hint.millis());
  }
  // The jitter actually spreads the herd...
  EXPECT_GE(distinct.size(), 2u);
  // ...and is a pure function of the key: the same creator always gets the
  // same hint (determinism is the repo's core invariant).
  EXPECT_EQ(shed_hint("shed-0").millis(), shed_hint("shed-0").millis());
}

// The flagship crash-recovery scenario: three live sessions with signed
// participants, a process death injected mid WAL stream, a supervised restart
// over the same directory, and every participant resuming over PR 1's signed
// path — no full rejoin, anti-replay intact, documents bit-identical.
TEST_F(HostTest, CrashedHostRecoversSessionsAndParticipantsResumeSigned) {
  const std::string dir = MakeHostPersistDir("flagship");
  ProcessFaultInjector faults;
  const std::vector<std::string> ids = {"s1", "s2", "s3"};

  auto make_config = [&] {
    HostConfig config;
    config.persist.dir = dir;
    config.process_faults = &faults;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };

  auto host = MakeHost(make_config());
  std::map<std::string, std::unique_ptr<Participant>> participants;
  std::map<std::string, uint16_t> ports;
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string& id = ids[i];
    AgentConfig agent_config;
    agent_config.session_key = "key-" + id;
    auto session = host->CreateSession(id, agent_config);
    ASSERT_TRUE(session.ok()) << session.status();
    ports[id] = (*session)->port;
    SetSessionDoc(*session, "Doc " + id, "<p id=\"status\">v1 " + id + "</p>");

    SnippetConfig snippet_config;
    snippet_config.session_key = "key-" + id;
    snippet_config.poll_timeout = Duration::Millis(400);
    snippet_config.backoff_base = Duration::Millis(100);
    snippet_config.backoff_max = Duration::Millis(400);
    snippet_config.reconnect_after = 2;
    participants[id] =
        JoinSession(*session, static_cast<int>(i) + 1, snippet_config);
    WaitForContent(participants[id].get());
  }

  // Advance every session to a second document version, make it durable,
  // and record the canonical digests recovery must reproduce exactly.
  std::map<std::string, std::string> want_host_digest;
  std::map<std::string, std::string> want_participant_digest;
  for (const std::string& id : ids) {
    SetSessionDoc(host->FindSession(id), "Doc " + id + " v2",
                  "<p id=\"status\">v2 " + id + "</p>");
  }
  for (const std::string& id : ids) {
    WaitForContent(participants[id].get(), 2);
  }
  for (const std::string& id : ids) {
    ASSERT_TRUE(host->CheckpointSession(id).ok());
    want_host_digest[id] =
        CanonicalDigest(*host->FindSession(id)->browser->document());
    want_participant_digest[id] =
        CanonicalDigest(*participants[id]->browser->document());
  }

  // Kill the process mid WAL stream: the next signed poll's anti-replay
  // append is durable, the ack may not be — the classic WAL-ahead gap.
  faults.Arm({CrashPoint::kAfterWalAppend, 0, ""});
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return faults.crashed(); }));
  EXPECT_EQ(faults.metrics().crashes, 1u);
  host.reset();  // the dead image: nothing after the kill reaches disk

  // The participants poll into the dead ports, fail, back off, and attempt
  // signed resumes that also fail — the storm a real restart faces.
  loop_.RunFor(Duration::Seconds(2.0));
  for (auto& [id, participant] : participants) {
    EXPECT_GE(participant->snippet->metrics().transport_failures, 1u) << id;
  }

  // A fresh process image over the same directory recovers every session.
  faults.Reset();
  auto restarted = MakeHost(make_config());
  EXPECT_EQ(restarted->metrics().sessions_recovered, 3u);
  EXPECT_EQ(restarted->metrics().sessions_unrecoverable, 0u);
  EXPECT_GE(restarted->flight_recorder().triggers("host_recovery"), 3u);
  for (const std::string& id : ids) {
    HostSession* session = restarted->FindSession(id);
    ASSERT_NE(session, nullptr) << id;
    EXPECT_TRUE(session->recovered) << id;
    // Same port as before the crash, so the participants' resume URLs and
    // the signed handshake stay valid.
    EXPECT_EQ(session->port, ports[id]) << id;
    EXPECT_EQ(CanonicalDigest(*session->browser->document()),
              want_host_digest[id])
        << id;
  }

  // Every participant resumes over the signed path and resyncs in full.
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    for (auto& [id, participant] : participants) {
      const SnippetMetrics& m = participant->snippet->metrics();
      if (m.reconnects < 1 || m.resyncs < 1) {
        return false;
      }
    }
    return true;
  }));
  for (const std::string& id : ids) {
    const AgentMetrics& agent = restarted->FindSession(id)->agent->metrics();
    EXPECT_EQ(agent.new_connections, 0u) << id;  // nobody rejoined from scratch
    EXPECT_GE(agent.reconnects, 1u) << id;
    EXPECT_EQ(CanonicalDigest(*participants[id]->browser->document()),
              want_participant_digest[id])
        << id;
  }

  // Anti-replay survived the crash: a replayed signed poll with a long
  // superseded seq is still rejected by the recovered agent.
  {
    const std::string& id = ids[0];
    PollRequest replay;
    replay.participant_id = participants[id]->snippet->participant_id();
    replay.doc_time_ms = -1;
    replay.seq = 1;
    replay.resync = true;
    std::string body = EncodePollRequest(replay);
    std::string mac = HmacSha256Hex("key-" + id, "POST /\n" + body);
    Browser prober(&loop_, &network_, "p-pc-8");
    FetchResult result;
    bool done = false;
    prober.Fetch(HttpMethod::kPost,
                 Url::Make("http", "host-pc", ports[id], "/", "hmac=" + mac),
                 body, "application/x-www-form-urlencoded",
                 [&](FetchResult fetched) {
                   result = std::move(fetched);
                   done = true;
                 });
    ASSERT_TRUE(loop_.RunUntilCondition([&] { return done; }));
    ASSERT_TRUE(result.status.ok()) << result.status;
    EXPECT_EQ(result.response.status_code, 403);
  }

  // Recovery is first-class on the operator surfaces.
  HttpRequest status_request;
  status_request.method = HttpMethod::kGet;
  status_request.target = "/host/status";
  HttpResponse status_response = restarted->Route(status_request);
  EXPECT_EQ(status_response.status_code, 200);
  EXPECT_NE(status_response.body.find("rcb_host_recovered_sessions_total 3\n"),
            std::string::npos)
      << status_response.body;

  obs::RenderOptions options;
  options.include_wall = false;
  std::string rendered =
      restarted->metrics_registry().RenderPrometheus(options);
  EXPECT_NE(rendered.find("rcb_host_recovered_sessions_total 3"),
            std::string::npos)
      << rendered;
  for (const char* family :
       {"rcb_persist_checkpoints_written_total", "rcb_persist_wal_records_total",
        "rcb_persist_wal_truncations_total", "rcb_persist_torn_writes_total"}) {
    EXPECT_NE(rendered.find(family), std::string::npos) << family;
  }
}

// Crash-recovery equivalence: the same scripted mutation schedule, run once
// uncrashed and once with a mid-run crash + recovery (re-driving the steps
// the recovered data-k marker shows were lost), lands on bit-identical
// canonical DOM digests — host document and participant document alike.
TEST_F(HostTest, CrashRecoveryRunMatchesUncrashedDigests) {
  constexpr int kSteps = 4;
  auto apply_step = [](Browser* browser, int step) {
    browser->MutateDocument([&](Document* document) {
      Element* status = document->ById("status");
      ASSERT_NE(status, nullptr);
      status->RemoveAllChildren();
      status->AppendChild(MakeText("step " + std::to_string(step)));
      auto div = MakeElement("div");
      div->SetAttribute("id", "m" + std::to_string(step));
      div->AppendChild(MakeText("mutation " + std::to_string(step)));
      document->body()->AppendChild(std::move(div));
      // The marker names the last applied step, so a recovered document
      // tells the driver exactly which steps to re-drive.
      document->body()->SetAttribute("data-k", std::to_string(step));
    });
  };

  // Control: the uncrashed run.
  std::string control_host_digest;
  std::string control_participant_digest;
  {
    auto host = MakeHost();
    auto session = host->CreateSession("equiv");
    ASSERT_TRUE(session.ok()) << session.status();
    SetSessionDoc(*session, "Equiv", "<p id=\"status\">start</p>");
    auto participant = JoinSession(*session, 1);
    WaitForContent(participant.get());
    for (int step = 1; step <= kSteps; ++step) {
      apply_step((*session)->browser.get(), step);
      WaitForContent(participant.get(), 1 + static_cast<uint64_t>(step));
    }
    control_host_digest = CanonicalDigest(*(*session)->browser->document());
    control_participant_digest =
        CanonicalDigest(*participant->browser->document());
  }

  // The crashed run: checkpoint after step 2, die with steps 3+ buffered but
  // never flushed, recover, re-drive from the marker, converge.
  const std::string dir = MakeHostPersistDir("equiv_crash");
  ProcessFaultInjector faults;
  auto make_config = [&] {
    HostConfig config;
    config.persist.dir = dir;
    config.process_faults = &faults;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };
  auto host = MakeHost(make_config());
  auto session = host->CreateSession("equiv");
  ASSERT_TRUE(session.ok()) << session.status();
  SetSessionDoc(*session, "Equiv", "<p id=\"status\">start</p>");
  SnippetConfig snippet_config;
  snippet_config.poll_timeout = Duration::Millis(400);
  snippet_config.backoff_base = Duration::Millis(100);
  snippet_config.backoff_max = Duration::Millis(400);
  snippet_config.reconnect_after = 2;
  auto participant = JoinSession(*session, 1, snippet_config);
  WaitForContent(participant.get());

  apply_step((*session)->browser.get(), 1);
  WaitForContent(participant.get(), 2);
  apply_step((*session)->browser.get(), 2);
  WaitForContent(participant.get(), 3);
  ASSERT_TRUE(host->CheckpointSession("equiv").ok());

  faults.Arm({CrashPoint::kBeforeWalFlush, 0, ""});
  apply_step((*session)->browser.get(), 3);
  ASSERT_TRUE(loop_.RunUntilCondition([&] { return faults.crashed(); }));
  host.reset();
  loop_.RunFor(Duration::Seconds(1.0));

  faults.Reset();
  host = MakeHost(make_config());
  ASSERT_EQ(host->metrics().sessions_recovered, 1u);
  HostSession* recovered = host->FindSession("equiv");
  ASSERT_NE(recovered, nullptr);
  // kBeforeWalFlush lost the buffered records outright, so recovery saw no
  // post-checkpoint doc versions at all.
  EXPECT_EQ(host->metrics().doc_versions_lost, 0u);

  std::string marker =
      recovered->browser->document()->body()->AttrOr("data-k");
  EXPECT_EQ(marker, "2");  // the durable state is exactly the checkpoint
  int last_applied = marker.empty() ? 0 : std::stoi(marker);
  for (int step = last_applied + 1; step <= kSteps; ++step) {
    apply_step(recovered->browser.get(), step);
  }

  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return participant->browser->document()->body()->AttrOr("data-k") ==
           std::to_string(kSteps);
  }));
  EXPECT_EQ(CanonicalDigest(*recovered->browser->document()),
            control_host_digest);
  EXPECT_EQ(CanonicalDigest(*participant->browser->document()),
            control_participant_digest);
  EXPECT_GE(participant->snippet->metrics().reconnects, 1u);
}

// The recovery ladder's last rung degrades exactly the damaged session:
// corrupt files are quarantined, healthy siblings recover, and the host
// itself keeps serving.
TEST_F(HostTest, CorruptFilesDegradeTheSessionNeverTheHost) {
  const std::string dir = MakeHostPersistDir("corrupt");
  auto make_config = [&] {
    HostConfig config;
    config.persist.dir = dir;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };
  auto host = MakeHost(make_config());
  for (const char* id : {"keeper", "victim"}) {
    auto session = host->CreateSession(id);
    ASSERT_TRUE(session.ok()) << session.status();
    SetSessionDoc(*session, std::string("Doc ") + id);
  }
  host.reset();  // clean Stop: final checkpoint per session, files kept

  // Flip one byte in the middle of victim's checkpoint, and smear a torn
  // half-frame onto the tail of keeper's (truncated) log.
  const std::string victim_ckpt = dir + "/victim.ckpt";
  {
    std::ifstream in(victim_ckpt, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(victim_ckpt, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  {
    std::ofstream out(dir + "/keeper.wal", std::ios::binary | std::ios::app);
    const char torn[] = {0x20, 0x00, 0x00, 0x00, 0x02, 'h', 'a'};
    out.write(torn, sizeof(torn));
  }

  auto restarted = MakeHost(make_config());
  EXPECT_EQ(restarted->metrics().sessions_recovered, 1u);
  EXPECT_EQ(restarted->metrics().sessions_unrecoverable, 1u);
  EXPECT_GE(restarted->metrics().wal_tails_discarded, 1u);
  EXPECT_NE(restarted->FindSession("keeper"), nullptr);
  EXPECT_EQ(restarted->FindSession("victim"), nullptr);
  EXPECT_GE(restarted->persist_counters().checkpoints_rejected, 1u);
  EXPECT_GE(restarted->persist_counters().wal_tail_discards, 1u);
  // Quarantine moved the rejected files aside for post-mortem.
  EXPECT_TRUE(fs::exists(victim_ckpt + ".corrupt"));
  EXPECT_FALSE(fs::exists(victim_ckpt));

  // The host itself is healthy: the front door answers and new sessions
  // (including the quarantined id) are admitted.
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/host/status";
  HttpResponse response = restarted->Route(request);
  EXPECT_EQ(response.status_code, 200);
  EXPECT_NE(response.body.find("rcb_host_unrecoverable_sessions_total 1\n"), std::string::npos)
      << response.body;
  EXPECT_TRUE(restarted->CreateSession("victim").ok());
}

// A checkpoint that decodes cleanly but fails one of recovery's identity
// gates (a valid id, a file named after that id, a port above base_port) is
// quarantined like a corrupt one: counted, moved aside, never resurrected.
TEST_F(HostTest, RecoveryQuarantinesCheckpointsThatFailTheIdentityGates) {
  struct Case {
    const char* name;
    const char* file_stem;  // the forged checkpoint is <dir>/<stem>.ckpt
    const char* session_id;
    uint16_t port;  // 0 keeps the donor's own port
  };
  const uint16_t base_port = HostConfig().base_port;
  const Case cases[] = {
      {"invalid_id", "bad.id", "bad.id", 0},
      {"file_name_mismatch", "other", "donor", 0},
      {"port_at_base", "lowport", "lowport", base_port},
      {"port_below_base", "lowport", "lowport",
       static_cast<uint16_t>(base_port - 1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = MakeHostPersistDir(std::string("gate_") + c.name);
    auto make_config = [&] {
      HostConfig config;
      config.persist.dir = dir;
      config.recovery_storm_window = Duration::Zero();
      return config;
    };
    auto host = MakeHost(make_config());
    auto donor = host->CreateSession("donor");
    ASSERT_TRUE(donor.ok()) << donor.status();
    SetSessionDoc(*donor, "Doc donor");
    host.reset();  // clean Stop: final checkpoint, files kept

    // Forge the checkpoint from the donor's, then leave it alone in the dir.
    std::string bytes;
    {
      std::ifstream in(dir + "/donor.ckpt", std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    auto checkpoint = persist::DecodeCheckpoint(bytes);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
    checkpoint->session_id = c.session_id;
    if (c.port != 0) {
      checkpoint->config.port = c.port;
    }
    fs::remove(dir + "/donor.ckpt");
    fs::remove(dir + "/donor.wal");
    const std::string forged = dir + "/" + c.file_stem + ".ckpt";
    {
      std::string encoded = persist::EncodeCheckpoint(*checkpoint);
      std::ofstream out(forged, std::ios::binary | std::ios::trunc);
      out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    }

    auto restarted = MakeHost(make_config());
    EXPECT_EQ(restarted->metrics().sessions_recovered, 0u);
    EXPECT_EQ(restarted->metrics().sessions_unrecoverable, 1u);
    EXPECT_EQ(restarted->session_count(), 0u);
    EXPECT_TRUE(fs::exists(forged + ".corrupt"));
    EXPECT_FALSE(fs::exists(forged));
    HttpRequest request;
    request.method = HttpMethod::kGet;
    request.target = "/host/status";
    EXPECT_NE(restarted->Route(request).body.find(
                  "rcb_host_unrecoverable_sessions_total 1\n"),
              std::string::npos);
  }
}

// Recovered sessions stagger their pollers' readmission across the storm
// window: before its slot a known participant sheds with 503 + jittered
// Retry-After through the overload layer, after it everyone converges.
TEST_F(HostTest, RecoveryStormStaggersResyncAdmission) {
  const Duration window = Duration::Seconds(10.0);
  // The slot is StableHash64(id) % (window_ms + 1); pick an id (statically,
  // from a deterministic candidate list) whose slot is deep enough inside
  // the window that deferrals are observable before it opens.
  std::string id;
  for (const char* candidate : {"storm-a", "storm-b", "storm-c", "storm-d"}) {
    if (StableHash64(candidate) % 10001 > 2500) {
      id = candidate;
      break;
    }
  }
  ASSERT_FALSE(id.empty());

  const std::string dir = MakeHostPersistDir("storm");
  auto make_config = [&](Duration storm_window) {
    HostConfig config;
    config.persist.dir = dir;
    config.recovery_storm_window = storm_window;
    return config;
  };
  auto host = MakeHost(make_config(Duration::Zero()));
  auto session = host->CreateSession(id);
  ASSERT_TRUE(session.ok()) << session.status();
  SetSessionDoc(*session, "Storm", "<p id=\"status\">v1</p>");
  SnippetConfig snippet_config;
  snippet_config.poll_timeout = Duration::Millis(400);
  snippet_config.backoff_base = Duration::Millis(100);
  snippet_config.backoff_max = Duration::Millis(400);
  auto participant = JoinSession(*session, 1, snippet_config);
  WaitForContent(participant.get());
  host.reset();  // clean shutdown: roster and document checkpointed

  host = MakeHost(make_config(window));
  const SimTime recovered_at = loop_.now();
  ASSERT_EQ(host->metrics().sessions_recovered, 1u);
  HostSession* recovered = host->FindSession(id);
  ASSERT_NE(recovered, nullptr);

  // Until the slot opens, the restored participant's polls shed.
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return recovered->agent->metrics().recovery_deferrals >= 1;
  }));
  // ...and the shed poll reaches the snippet as an overload deferral (one
  // link RTT later), slowing its loop by the jittered hint.
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return participant->snippet->metrics().overload_deferrals >= 1;
  }));

  // After the slot the participant is admitted and tracks new versions —
  // and only after it: admission cannot precede the session's slot.
  SetSessionDoc(recovered, "Storm v2", "<p id=\"status\">v2</p>");
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    return participant->browser->document()->Title() == "Storm v2";
  }));
  EXPECT_GE(loop_.now() - recovered_at, Duration::Millis(2500));
}


bool PersistFilesExist(const std::string& dir, const std::string& id) {
  return fs::exists(dir + "/" + id + ".ckpt") ||
         fs::exists(dir + "/" + id + ".wal");
}

// A session whose log crosses checkpoint_dirty_records checkpoints itself
// one event later (never mid-request), truncating the log; a crash after
// that recovers the document the self-checkpoint saved.
TEST_F(HostTest, DirtySessionCheckpointsItselfOneEventLater) {
  const std::string dir = MakeHostPersistDir("self_checkpoint");
  ProcessFaultInjector faults;
  auto make_config = [&] {
    HostConfig config;
    config.persist.dir = dir;
    config.persist.checkpoint_dirty_records = 3;
    config.process_faults = &faults;
    config.recovery_storm_window = Duration::Zero();
    return config;
  };
  auto host = MakeHost(make_config());
  auto session = host->CreateSession("dirty");
  ASSERT_TRUE(session.ok()) << session.status();
  persist::SessionStore* store = (*session)->persist->store();
  // The baseline checkpoint already truncated the log once.
  const uint64_t truncations = host->persist_counters().wal_truncations;

  for (int version = 1; version <= 3; ++version) {
    SetSessionDoc(*session, "v" + std::to_string(version));
  }
  ASSERT_TRUE(store->ShouldCheckpoint());
  EXPECT_EQ(host->persist_counters().wal_truncations, truncations);
  loop_.RunFor(Duration::Zero());
  EXPECT_EQ(store->dirty_records(), 0u);
  EXPECT_EQ(host->persist_counters().wal_truncations, truncations + 1);
  obs::RenderOptions options;
  options.include_wall = false;
  EXPECT_NE(host->metrics_registry().RenderPrometheus(options).find(
                "rcb_persist_wal_truncations_total " +
                std::to_string(truncations + 1) + "\n"),
            std::string::npos);

  const std::string want = CanonicalDigest(*(*session)->browser->document());
  faults.Arm({CrashPoint::kAfterWalAppend, 0, ""});
  SetSessionDoc(*session, "lost");  // logged, then the process dies
  ASSERT_TRUE(faults.crashed());
  host.reset();

  faults.Reset();
  auto restarted = MakeHost(make_config());
  EXPECT_EQ(restarted->metrics().sessions_recovered, 1u);
  EXPECT_EQ(restarted->metrics().doc_versions_lost, 1u);
  HostSession* recovered = restarted->FindSession("dirty");
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(CanonicalDigest(*recovered->browser->document()), want);
}

// An auto-applied participant action is logged as a kAction record, ahead
// of the document version it produces.
TEST_F(HostTest, MergedParticipantActionWritesAnActionRecord) {
  const std::string dir = MakeHostPersistDir("action");
  HostConfig config;
  config.persist.dir = dir;
  auto host = MakeHost(config);
  auto session = host->CreateSession("form");
  ASSERT_TRUE(session.ok()) << session.status();
  SetSessionDoc(*session, "Form", "<form id=\"f\"><input name=\"q\"></form>");
  auto participant = JoinSession(*session, 1);
  WaitForContent(participant.get());
  Element* form = participant->browser->document()->ById("f");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(participant->snippet->FillFormField(form, "q", "typed").ok());
  participant->snippet->PollNow();
  ASSERT_TRUE(loop_.RunUntilCondition([&] {
    Element* host_form = (*session)->browser->document()->ById("f");
    return host_form != nullptr &&
           host_form->FindFirst("input")->AttrOr("value") == "typed";
  }));

  std::ifstream in(dir + "/form.wal", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  auto replay = persist::DecodeWal(bytes);
  ASSERT_TRUE(replay.ok()) << replay.status();
  const std::vector<persist::WalRecord>& records = replay->records;
  auto action = std::find_if(
      records.begin(), records.end(), [](const persist::WalRecord& record) {
        return record.type == persist::WalRecordType::kAction;
      });
  ASSERT_NE(action, records.end());
  EXPECT_EQ(action->pid, participant->snippet->participant_id());
  EXPECT_EQ(action->action.type, ActionType::kFormFill);
  EXPECT_EQ(action->action.fields,
            (std::vector<std::pair<std::string, std::string>>{{"q", "typed"}}));
  EXPECT_TRUE(std::any_of(action, records.end(),
                          [](const persist::WalRecord& record) {
                            return record.type ==
                                   persist::WalRecordType::kDocVersion;
                          }));
}

// Closing a session and reaping an idle one both end it on purpose, so
// both delete its checkpoint and log.
TEST_F(HostTest, ClosedAndReapedSessionsRemoveTheirFiles) {
  const std::string dir = MakeHostPersistDir("remove");
  HostConfig config;
  config.persist.dir = dir;
  config.limits.session_idle_timeout = Duration::Seconds(5.0);
  auto host = MakeHost(config);
  for (const char* id : {"closed", "reaped"}) {
    auto session = host->CreateSession(id);
    ASSERT_TRUE(session.ok()) << session.status();
    SetSessionDoc(*session, id);
    EXPECT_TRUE(fs::exists(dir + "/" + id + ".ckpt")) << id;
    EXPECT_TRUE(fs::exists(dir + "/" + id + ".wal")) << id;
  }

  ASSERT_TRUE(host->CloseSession("closed").ok());
  EXPECT_FALSE(PersistFilesExist(dir, "closed"));
  EXPECT_TRUE(PersistFilesExist(dir, "reaped"));

  loop_.RunFor(Duration::Seconds(6.0));
  EXPECT_EQ(host->ReapIdleSessions(), 1u);
  EXPECT_FALSE(PersistFilesExist(dir, "reaped"));
  EXPECT_TRUE(fs::is_empty(dir));
}

// A session closed while its self-checkpoint is still scheduled cancels
// the event: it never runs, so it cannot read the freed binding or
// checkpoint a session re-created under the same id.
TEST_F(HostTest, SessionClosedWithACheckpointPendingCancelsIt) {
  const std::string dir = MakeHostPersistDir("pending");
  HostConfig config;
  config.persist.dir = dir;
  config.persist.checkpoint_dirty_records = 1;
  auto host = MakeHost(config);
  auto session = host->CreateSession("pending");
  ASSERT_TRUE(session.ok()) << session.status();
  const size_t idle_events = loop_.pending_events();
  SetSessionDoc(*session, "v1");  // crosses the bound: checkpoint scheduled
  ASSERT_TRUE((*session)->persist->store()->ShouldCheckpoint());
  ASSERT_EQ(loop_.pending_events(), idle_events + 1);
  ASSERT_TRUE(host->CloseSession("pending").ok());
  EXPECT_EQ(loop_.pending_events(), idle_events);
  ASSERT_TRUE(host->CreateSession("pending").ok());
  const uint64_t written = host->persist_counters().checkpoints_written;
  loop_.RunFor(Duration::Seconds(1.0));
  EXPECT_EQ(host->persist_counters().checkpoints_written, written);
}

}  // namespace
}  // namespace rcb
