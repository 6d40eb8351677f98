// Tests for RCB-Agent request processing (Fig. 2), the timestamp mechanism,
// cached-object serving, HMAC authentication, and action policies — driven
// over the simulated network with raw HTTP requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/browser/object_cache.h"
#include "src/core/content_generator.h"
#include "src/core/rcb_agent.h"
#include "src/crypto/hmac.h"
#include "src/delta/patch_codec.h"
#include "src/http/http_parser.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "tests/support/status_lines.h"

namespace rcb {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("participant-pc", {});
    network_.AddHost("www.origin.test", {});
    origin_ = std::make_unique<SiteServer>(&loop_, &network_, "www.origin.test");
    origin_->ServeStatic("/", "text/html",
                         "<html><head><title>Origin</title></head>"
                         "<body><img src=\"/a.png\"><p id=\"p\">v1</p>"
                         "<form id=\"f\" action=\"/submit\" method=\"post\">"
                         "<input name=\"q\" value=\"\"></form>"
                         "<a id=\"l\" href=\"/next\">next</a></body></html>");
    origin_->ServeStatic("/a.png", "image/png", "PNGDATA");
    origin_->ServeStatic("/next", "text/html",
                         "<html><head><title>Next</title></head>"
                         "<body><p>page2</p></body></html>");
    origin_->Route("/submit", [this](const HttpRequest& request) {
      last_submit_body_ = request.body;
      return HttpResponse::Ok("text/html",
                              "<html><head><title>Submitted</title></head>"
                              "<body><p>thanks</p></body></html>");
    });
    host_browser_ = std::make_unique<Browser>(&loop_, &network_, "host-pc");
    participant_ = std::make_unique<Browser>(&loop_, &network_, "participant-pc");
  }

  void StartAgent(AgentConfig config = {}) {
    agent_ = std::make_unique<RcbAgent>(host_browser_.get(), config);
    ASSERT_TRUE(agent_->Start().ok());
  }

  void HostNavigate(const std::string& path = "/") {
    bool done = false;
    Status status;
    host_browser_->Navigate(Url::Make("http", "www.origin.test", 80, path),
                            [&](const Status& s, const PageLoadStats&) {
                              status = s;
                              done = true;
                            });
    loop_.RunUntilCondition([&] { return done; });
    ASSERT_TRUE(status.ok()) << status;
  }

  // Raw fetch from the participant machine.
  FetchResult Fetch(HttpMethod method, const Url& url, std::string body = "",
                    std::string content_type = "") {
    FetchResult out;
    bool done = false;
    participant_->Fetch(method, url, std::move(body), std::move(content_type),
                        [&](FetchResult result) {
                          out = std::move(result);
                          done = true;
                        });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  // Sends a poll request, optionally signing it with `key`.
  FetchResult Poll(const PollRequest& poll, const std::string& key = "") {
    std::string body = EncodePollRequest(poll);
    Url url = agent_->AgentUrl();
    if (!key.empty()) {
      std::string mac = HmacSha256Hex(key, "POST /\n" + body);
      url = Url::Make("http", "host-pc", agent_->config().port, "/",
                      "hmac=" + mac);
    }
    return Fetch(HttpMethod::kPost, url, body,
                 "application/x-www-form-urlencoded");
  }

  // A delta + long-poll agent on a grown origin page. Participant p1 takes
  // a snapshot, then a patch after a host mutation, then parks a long-poll
  // until its hold expires.
  void RunDeltaLongPollSession() {
    AgentConfig config;
    config.enable_delta = true;
    config.transport.enable_stream = true;
    StartAgent(config);
    HostNavigate();
    host_browser_->MutateDocument([](Document* document) {
      for (int i = 0; i < 20; ++i) {
        std::unique_ptr<Element> p = MakeElement("p");
        p->AppendChild(MakeText("filler paragraph " + std::to_string(i) +
                                " keeps the snapshot comfortably large"));
        document->body()->AppendChild(std::move(p));
      }
    });
    PollRequest poll;
    poll.participant_id = "p1";
    poll.doc_time_ms = -1;
    poll.patch = true;
    poll.stream = transport::kStreamLongPoll;
    auto first = ParseSnapshotXml(Poll(poll).response.body);
    ASSERT_TRUE(first.ok());
    host_browser_->MutateDocument([](Document* document) {
      document->body()->AppendChild(MakeText("more"));
    });
    poll.doc_time_ms = first->doc_time_ms;
    auto patch = delta::ParsePatchXml(Poll(poll).response.body);
    ASSERT_TRUE(patch.ok()) << patch.status();
    poll.doc_time_ms = patch->patch.target_doc_time_ms;
    Poll(poll);
    ASSERT_EQ(agent_->metrics().patches_served, 1u);
    ASSERT_EQ(agent_->metrics().transport_long_poll_expiries, 1u);
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> origin_;
  std::unique_ptr<Browser> host_browser_;
  std::unique_ptr<Browser> participant_;
  std::unique_ptr<RcbAgent> agent_;
  std::string last_submit_body_;
};

TEST_F(AgentTest, StartStopLifecycle) {
  StartAgent();
  EXPECT_TRUE(agent_->running());
  EXPECT_FALSE(agent_->Start().ok());  // double start rejected
  agent_->Stop();
  EXPECT_FALSE(agent_->running());
  // Port is released: a new agent can bind it.
  RcbAgent again(host_browser_.get(), {});
  EXPECT_TRUE(again.Start().ok());
}

TEST_F(AgentTest, AgentUrlShape) {
  AgentConfig config;
  config.port = 3000;
  StartAgent(config);
  EXPECT_EQ(agent_->AgentUrl().ToString(), "http://host-pc:3000/");
}

TEST_F(AgentTest, NewConnectionReturnsInitialPage) {
  StartAgent();
  FetchResult result = Fetch(HttpMethod::kGet, agent_->AgentUrl());
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.response.status_code, 200);
  EXPECT_EQ(result.response.headers.Get("Content-Type").value(), "text/html");
  auto page = ParseDocument(result.response.body);
  // The page embeds Ajax-Snippet and the participant configuration.
  Element* script = page->FindFirst("script");
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->id(), "rcb-snippet");
  EXPECT_NE(script->TextContent().find("rcbPoll"), std::string::npos);
  bool has_pid = false;
  for (Element* meta : page->FindAll("meta")) {
    if (meta->AttrOr("name") == "rcb-pid") {
      has_pid = true;
      EXPECT_FALSE(meta->AttrOr("content").empty());
    }
  }
  EXPECT_TRUE(has_pid);
  EXPECT_EQ(agent_->metrics().new_connections, 1u);
}

TEST_F(AgentTest, DistinctPidsPerConnection) {
  StartAgent();
  FetchResult a = Fetch(HttpMethod::kGet, agent_->AgentUrl());
  FetchResult b = Fetch(HttpMethod::kGet, agent_->AgentUrl());
  EXPECT_NE(a.response.body, b.response.body);
}

TEST_F(AgentTest, UnknownPathIs404) {
  StartAgent();
  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/bogus"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.response.status_code, 404);
}

TEST_F(AgentTest, PollBeforeHostHasPageIsEmpty) {
  StartAgent();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  FetchResult result = Poll(poll);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.response.status_code, 200);
  EXPECT_TRUE(result.response.body.empty());
  EXPECT_EQ(agent_->metrics().polls_empty, 1u);
}

TEST_F(AgentTest, PollAfterNavigationCarriesContent) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  FetchResult result = Poll(poll);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.response.headers.Get("Content-Type").value(),
            "application/xml");
  auto snapshot = ParseSnapshotXml(result.response.body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_TRUE(snapshot->has_content);
  ASSERT_TRUE(snapshot->body.has_value());
  EXPECT_NE(snapshot->body->inner_html.find("v1"), std::string::npos);
  EXPECT_EQ(agent_->metrics().polls_with_content, 1u);
}

TEST_F(AgentTest, TimestampSuppressesUnchangedContent) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  FetchResult first = Poll(poll);
  auto snapshot = ParseSnapshotXml(first.response.body);
  ASSERT_TRUE(snapshot.ok());
  // Second poll carries the received timestamp -> no content resent.
  poll.doc_time_ms = snapshot->doc_time_ms;
  FetchResult second = Poll(poll);
  EXPECT_TRUE(second.response.body.empty());
}

TEST_F(AgentTest, DocumentChangeBumpsTimestamp) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  auto first = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(first.ok());

  host_browser_->MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
  });

  poll.doc_time_ms = first->doc_time_ms;
  auto second = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->doc_time_ms, first->doc_time_ms);
  EXPECT_NE(second->body->inner_html.find("v2"), std::string::npos);
}

TEST_F(AgentTest, SnapshotGeneratedOnceAndReused) {
  StartAgent();
  HostNavigate();
  for (int i = 0; i < 5; ++i) {
    PollRequest poll;
    poll.participant_id = "p" + std::to_string(i);
    poll.doc_time_ms = -1;
    Poll(poll);
  }
  // One generation serves all five participants (§4.1.2).
  EXPECT_EQ(agent_->metrics().generations, 1u);
  EXPECT_EQ(agent_->metrics().snapshot_reuses, 4u);
}

TEST_F(AgentTest, ObjectRequestServedFromCache) {
  AgentConfig config;
  config.cache_mode = true;
  StartAgent(config);
  HostNavigate();  // host cached /a.png during the load
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  auto snapshot = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(snapshot.ok());
  const std::string& body = snapshot->body->inner_html;
  size_t pos = body.find("/obj/");
  ASSERT_NE(pos, std::string::npos) << body;
  size_t end = body.find('"', pos);
  std::string path = body.substr(pos, end - pos);

  FetchResult object =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, path));
  ASSERT_TRUE(object.status.ok());
  EXPECT_EQ(object.response.status_code, 200);
  EXPECT_EQ(object.response.body, "PNGDATA");
  EXPECT_EQ(object.response.headers.Get("Content-Type").value(), "image/png");
  EXPECT_EQ(agent_->metrics().object_requests, 1u);
  EXPECT_EQ(agent_->metrics().object_bytes_served, 7u);
}

TEST_F(AgentTest, ObjectRequestUnknownKey404) {
  StartAgent();
  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/obj/ck-404"));
  EXPECT_EQ(result.response.status_code, 404);
}

TEST_F(AgentTest, ObjectRequestRejectedWhenCacheModeOff) {
  AgentConfig config;
  config.cache_mode = false;
  StartAgent(config);
  HostNavigate();
  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/obj/ck-1"));
  EXPECT_EQ(result.response.status_code, 404);
}

TEST_F(AgentTest, AuthRejectsUnsignedAndWrongKey) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  // Unsigned.
  EXPECT_EQ(Poll(poll).response.status_code, 403);
  // Wrong key.
  EXPECT_EQ(Poll(poll, "wrongkey").response.status_code, 403);
  EXPECT_EQ(agent_->metrics().auth_failures, 2u);
  // Correct key.
  FetchResult good = Poll(poll, "topsecretkey");
  EXPECT_EQ(good.response.status_code, 200);
  EXPECT_FALSE(good.response.body.empty());
}

TEST_F(AgentTest, AuthCoversBodyTampering) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  std::string body = EncodePollRequest(poll);
  std::string mac = HmacSha256Hex("topsecretkey", "POST /\n" + body);
  // Tamper with the body after signing.
  std::string tampered = body + "&actions=type%3Dclick%26target%3D0";
  FetchResult result =
      Fetch(HttpMethod::kPost,
            Url::Make("http", "host-pc", 3000, "/", "hmac=" + mac), tampered,
            "application/x-www-form-urlencoded");
  EXPECT_EQ(result.response.status_code, 403);
}

TEST_F(AgentTest, MalformedPollIs400) {
  StartAgent();
  FetchResult result = Fetch(HttpMethod::kPost, agent_->AgentUrl(),
                             "garbage-without-pid", "text/plain");
  EXPECT_EQ(result.response.status_code, 400);
}

TEST_F(AgentTest, ParticipantClickNavigatesHost) {
  StartAgent();
  HostNavigate();
  // Find the anchor's rcb id on the live document enumeration.
  auto interactive = ContentGenerator::InteractiveElements(host_browser_->document());
  int anchor_index = -1;
  for (size_t i = 0; i < interactive.size(); ++i) {
    if (interactive[i]->tag_name() == "a") {
      anchor_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(anchor_index, 0);

  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction click;
  click.type = ActionType::kClick;
  click.target = anchor_index;
  poll.actions.push_back(click);
  Poll(poll);
  loop_.Run();  // let the host navigation finish
  EXPECT_EQ(host_browser_->document()->Title(), "Next");
  EXPECT_EQ(agent_->metrics().actions_applied, 1u);
}

TEST_F(AgentTest, ParticipantFormFillMergedIntoHostForm) {
  StartAgent();
  HostNavigate();
  auto interactive = ContentGenerator::InteractiveElements(host_browser_->document());
  int form_index = -1;
  for (size_t i = 0; i < interactive.size(); ++i) {
    if (interactive[i]->tag_name() == "form") {
      form_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(form_index, 0);

  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction fill;
  fill.type = ActionType::kFormFill;
  fill.target = form_index;
  fill.fields = {{"q", "co-filled value"}};
  poll.actions.push_back(fill);
  Poll(poll);

  Element* input = host_browser_->document()->ById("f")->FindFirst("input");
  EXPECT_EQ(input->AttrOr("value"), "co-filled value");
}

TEST_F(AgentTest, ParticipantFormSubmitReachesOrigin) {
  StartAgent();
  HostNavigate();
  auto interactive = ContentGenerator::InteractiveElements(host_browser_->document());
  int form_index = -1;
  for (size_t i = 0; i < interactive.size(); ++i) {
    if (interactive[i]->tag_name() == "form") {
      form_index = static_cast<int>(i);
    }
  }
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction submit;
  submit.type = ActionType::kFormSubmit;
  submit.target = form_index;
  submit.fields = {{"q", "from participant"}};
  poll.actions.push_back(submit);
  Poll(poll);
  loop_.Run();
  EXPECT_EQ(last_submit_body_, "q=from%20participant");
  EXPECT_EQ(host_browser_->document()->Title(), "Submitted");
}

TEST_F(AgentTest, ConfirmPolicyHoldsActions) {
  AgentConfig config;
  config.policies.click = ActionPolicy::kConfirm;
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  auto interactive = ContentGenerator::InteractiveElements(host_browser_->document());
  int anchor_index = -1;
  for (size_t i = 0; i < interactive.size(); ++i) {
    if (interactive[i]->tag_name() == "a") {
      anchor_index = static_cast<int>(i);
    }
  }
  ASSERT_GE(anchor_index, 0);
  UserAction click;
  click.type = ActionType::kClick;
  click.target = anchor_index;
  poll.actions.push_back(click);
  Poll(poll);
  // Held, not applied.
  EXPECT_EQ(host_browser_->document()->Title(), "Origin");
  ASSERT_EQ(agent_->pending_actions().size(), 1u);
  EXPECT_EQ(agent_->metrics().actions_held, 1u);
  // Host approves.
  ASSERT_TRUE(agent_->ApprovePending(0).ok());
  loop_.Run();
  EXPECT_EQ(host_browser_->document()->Title(), "Next");
  EXPECT_TRUE(agent_->pending_actions().empty());
  EXPECT_FALSE(agent_->ApprovePending(0).ok());
}

TEST_F(AgentTest, DenyPolicyDropsActions) {
  AgentConfig config;
  config.policies.form_submit = ActionPolicy::kDeny;
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction submit;
  submit.type = ActionType::kFormSubmit;
  submit.target = 0;
  poll.actions.push_back(submit);
  Poll(poll);
  loop_.Run();
  EXPECT_EQ(host_browser_->document()->Title(), "Origin");
  EXPECT_EQ(agent_->metrics().actions_denied, 1u);
}

TEST_F(AgentTest, RejectPendingDiscards) {
  AgentConfig config;
  config.policies.navigate = ActionPolicy::kConfirm;
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction navigate;
  navigate.type = ActionType::kNavigate;
  navigate.data = "http://www.origin.test/next";
  poll.actions.push_back(navigate);
  Poll(poll);
  ASSERT_EQ(agent_->pending_actions().size(), 1u);
  ASSERT_TRUE(agent_->RejectPending(0).ok());
  loop_.Run();
  EXPECT_EQ(host_browser_->document()->Title(), "Origin");
  EXPECT_EQ(agent_->metrics().actions_denied, 1u);
}

TEST_F(AgentTest, MouseMovesBroadcastToOtherParticipants) {
  StartAgent();
  HostNavigate();
  // p1 and p2 poll once to register.
  for (const char* pid : {"p1", "p2"}) {
    PollRequest poll;
    poll.participant_id = pid;
    poll.doc_time_ms = -1;
    Poll(poll);
  }
  // p1 moves the mouse.
  PollRequest move_poll;
  move_poll.participant_id = "p1";
  move_poll.doc_time_ms = 1'000'000'000;  // up to date
  UserAction mouse;
  mouse.type = ActionType::kMouseMove;
  mouse.x = 10;
  mouse.y = 20;
  move_poll.actions.push_back(mouse);
  Poll(move_poll);

  // p2's next poll carries the broadcast; p1's does not.
  PollRequest p2_poll;
  p2_poll.participant_id = "p2";
  p2_poll.doc_time_ms = 1'000'000'000;
  auto p2_snapshot = ParseSnapshotXml(Poll(p2_poll).response.body);
  ASSERT_TRUE(p2_snapshot.ok());
  ASSERT_EQ(p2_snapshot->user_actions.size(), 1u);
  EXPECT_EQ(p2_snapshot->user_actions[0].type, ActionType::kMouseMove);
  EXPECT_EQ(p2_snapshot->user_actions[0].origin, "p1");
  EXPECT_EQ(p2_snapshot->user_actions[0].x, 10);

  PollRequest p1_poll;
  p1_poll.participant_id = "p1";
  p1_poll.doc_time_ms = 1'000'000'000;
  EXPECT_TRUE(Poll(p1_poll).response.body.empty());
}

TEST_F(AgentTest, HostBroadcastReachesAllParticipants) {
  StartAgent();
  HostNavigate();
  for (const char* pid : {"p1", "p2"}) {
    PollRequest poll;
    poll.participant_id = pid;
    poll.doc_time_ms = -1;
    Poll(poll);
  }
  UserAction mouse;
  mouse.type = ActionType::kMouseMove;
  mouse.x = 5;
  mouse.y = 6;
  agent_->BroadcastAction(mouse);
  for (const char* pid : {"p1", "p2"}) {
    PollRequest poll;
    poll.participant_id = pid;
    poll.doc_time_ms = 1'000'000'000;
    auto snapshot = ParseSnapshotXml(Poll(poll).response.body);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_EQ(snapshot->user_actions.size(), 1u);
    EXPECT_EQ(snapshot->user_actions[0].origin, "host");
  }
}

TEST_F(AgentTest, ConnectedParticipantsTracksLiveness) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  Poll(poll);
  EXPECT_EQ(agent_->ConnectedParticipants(), std::vector<std::string>{"p1"});
  // After a long silence the participant is no longer "connected".
  loop_.RunFor(Duration::Seconds(30.0));
  EXPECT_TRUE(agent_->ConnectedParticipants().empty());
}

TEST_F(AgentTest, StatusPageShowsRosterAndMetrics) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p7";
  poll.doc_time_ms = -1;
  Poll(poll);

  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/status"));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.response.status_code, 200);
  auto page = ParseDocument(result.response.body);
  EXPECT_EQ(page->Title(), "RCB status");
  Element* table = page->ById("participants");
  ASSERT_NE(table, nullptr);
  EXPECT_NE(table->OuterHtml().find("p7"), std::string::npos);
  Element* metrics = page->ById("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->TextContent().find("generations 1"), std::string::npos);
  EXPECT_NE(page->ById("mode")->TextContent().find("cache / poll"),
            std::string::npos);
}

// /status lists every sim counter and gauge series of the agent's registry
// exactly once, named as /metrics names it, with the value the registry
// reads; the delta and transport families are among them.
TEST_F(AgentTest, StatusPageListsEverySimSeriesOfTheRegistryOnce) {
  RunDeltaLongPollSession();
  // Read before the request: serving it appends a span, after the render.
  const std::vector<std::string> expected =
      ExpectedStatusLines(agent_->metrics_registry());
  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/status"));
  ASSERT_EQ(result.response.status_code, 200);
  EXPECT_EQ(StatusMetricsLines(result.response.body), expected);
  std::set<std::string> series;
  for (const std::string& line : expected) {
    EXPECT_TRUE(series.insert(line.substr(0, line.rfind(' '))).second) << line;
  }
  for (const char* line :
       {"rcb_agent_generations 2", "rcb_agent_patches_served 1",
        "rcb_transport_long_poll_expiries 1", "rcb_transport_polls_parked 0",
        "rcb_trace_dropped_total 0",
        "rcb_flight_triggers_total{trigger=\"resync\"} 0"}) {
    EXPECT_NE(std::find(expected.begin(), expected.end(), line),
              expected.end())
        << line;
  }
}

// Two identical simulated runs serve byte-identical /status pages.
class StatusRun : public AgentTest {
 public:
  void TestBody() override {}
  std::string Page() {
    RunDeltaLongPollSession();
    return Fetch(HttpMethod::kGet,
                 Url::Make("http", "host-pc", 3000, "/status"))
        .response.body;
  }
};

TEST(AgentStatusTest, StatusPageIsByteIdenticalAcrossIdenticalRuns) {
  StatusRun first;
  StatusRun second;
  const std::string page = first.Page();
  EXPECT_NE(page.find("rcb_agent_patches_served 1\n"), std::string::npos)
      << page;
  EXPECT_EQ(page, second.Page());
}

TEST_F(AgentTest, PerParticipantCacheModes) {
  // §4.1.2: "allow different participant browsers to use different modes".
  AgentConfig config;
  config.participant_cache_mode = [](const std::string& pid) {
    return pid == "cached-one";
  };
  StartAgent(config);
  HostNavigate();

  PollRequest poll;
  poll.doc_time_ms = -1;
  poll.participant_id = "cached-one";
  auto cached_snapshot = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(cached_snapshot.ok());
  EXPECT_NE(cached_snapshot->body->inner_html.find("/obj/"), std::string::npos);

  poll.participant_id = "origin-one";
  auto origin_snapshot = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(origin_snapshot.ok());
  EXPECT_EQ(origin_snapshot->body->inner_html.find("/obj/"), std::string::npos);
  EXPECT_NE(origin_snapshot->body->inner_html.find("http://www.origin.test/"),
            std::string::npos);

  // One generation per mode; further pollers of either mode reuse.
  EXPECT_EQ(agent_->metrics().generations, 2u);
  poll.participant_id = "cached-two";
  Poll(poll);
  EXPECT_EQ(agent_->metrics().generations, 2u);
  EXPECT_GE(agent_->metrics().snapshot_reuses, 1u);

  // Object requests are served because at least one participant is in cache
  // mode.
  const std::string& body = cached_snapshot->body->inner_html;
  size_t pos = body.find("/obj/");
  size_t end = body.find('"', pos);
  FetchResult object = Fetch(
      HttpMethod::kGet,
      Url::Make("http", "host-pc", 3000, body.substr(pos, end - pos)));
  EXPECT_EQ(object.response.status_code, 200);
}

TEST_F(AgentTest, SignedResumeReauthenticatesAndForcesResync) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  HostNavigate();
  // p1 joins and catches up.
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  auto snapshot = ParseSnapshotXml(Poll(poll, "topsecretkey").response.body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  // Mid-session reconnect: the snippet re-handshakes with a signed
  // GET /?resume=p1 (the MAC covers method + URI minus the hmac parameter).
  std::string mac = HmacSha256Hex("topsecretkey", "GET /?resume=p1\n");
  FetchResult resumed =
      Fetch(HttpMethod::kGet,
            Url::Make("http", "host-pc", 3000, "/", "resume=p1&hmac=" + mac));
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_EQ(resumed.response.status_code, 200);
  EXPECT_EQ(agent_->metrics().reconnects, 1u);
  EXPECT_EQ(agent_->metrics().auth_failures, 0u);
  // The initial page keeps the same participant identity.
  auto page = ParseDocument(resumed.response.body);
  bool same_pid = false;
  for (Element* meta : page->FindAll("meta")) {
    if (meta->AttrOr("name") == "rcb-pid") {
      same_pid = meta->AttrOr("content") == "p1";
    }
  }
  EXPECT_TRUE(same_pid);

  // After the gap the participant's DOM is untrusted: its first poll claims
  // nothing (-1, resync) and is served the full snapshot again.
  poll.doc_time_ms = -1;
  poll.resync = true;
  poll.seq = 1;
  auto full = ParseSnapshotXml(Poll(poll, "topsecretkey").response.body);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(full->has_content);
  EXPECT_EQ(agent_->metrics().resyncs, 1u);
}

TEST_F(AgentTest, UnsignedOrForgedResumeRejected) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  // Unsigned resume.
  FetchResult unsigned_resume = Fetch(
      HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/", "resume=p1"));
  EXPECT_EQ(unsigned_resume.response.status_code, 403);
  // Forged MAC.
  std::string forged = HmacSha256Hex("wrongkey", "GET /?resume=p1\n");
  FetchResult forged_resume =
      Fetch(HttpMethod::kGet,
            Url::Make("http", "host-pc", 3000, "/", "resume=p1&hmac=" + forged));
  EXPECT_EQ(forged_resume.response.status_code, 403);
  EXPECT_EQ(agent_->metrics().auth_failures, 2u);
  EXPECT_EQ(agent_->metrics().reconnects, 0u);
}

TEST_F(AgentTest, ReplayedStalePollSeqRejected) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  poll.seq = 1;
  EXPECT_EQ(Poll(poll, "topsecretkey").response.status_code, 200);
  poll.seq = 2;
  poll.doc_time_ms = 0;
  EXPECT_EQ(Poll(poll, "topsecretkey").response.status_code, 200);
  EXPECT_EQ(agent_->metrics().auth_failures, 0u);

  // A replay of the seq=2 poll — valid signature, stale sequence — must be
  // rejected without being applied.
  FetchResult replayed = Poll(poll, "topsecretkey");
  EXPECT_EQ(replayed.response.status_code, 403);
  // And an older seq likewise.
  poll.seq = 1;
  EXPECT_EQ(Poll(poll, "topsecretkey").response.status_code, 403);
  EXPECT_EQ(agent_->metrics().auth_failures, 2u);

  // The next genuine poll proceeds.
  poll.seq = 3;
  EXPECT_EQ(Poll(poll, "topsecretkey").response.status_code, 200);
}

// ------------------------------------------------- overload protection ----

TEST_F(AgentTest, ConnectionCapRejectsExcessWith503) {
  AgentConfig config;
  config.limits.max_connections = 1;
  StartAgent(config);
  // First participant occupies the single connection slot (kept alive by the
  // browser's persistent-connection pool).
  FetchResult first = Fetch(HttpMethod::kGet, agent_->AgentUrl());
  EXPECT_EQ(first.response.status_code, 200);

  network_.AddHost("second-pc", {});
  Browser second(&loop_, &network_, "second-pc");
  FetchResult rejected;
  bool done = false;
  second.Fetch(HttpMethod::kGet, agent_->AgentUrl(), "", "",
               [&](FetchResult result) {
                 rejected = std::move(result);
                 done = true;
               });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(rejected.status.ok());
  EXPECT_EQ(rejected.response.status_code, 503);
  EXPECT_TRUE(rejected.response.headers.Get("Retry-After").has_value());
  EXPECT_EQ(agent_->metrics().connections_rejected, 1u);

  // The admitted participant is unaffected: its persistent connection keeps
  // serving polls.
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  EXPECT_EQ(Poll(poll).response.status_code, 200);
}

TEST_F(AgentTest, PollTokenBucketRefillsOverTime) {
  AgentConfig config;
  config.limits.poll_rate_per_sec = 1.0;
  config.limits.poll_burst = 1.0;
  // This test pins the exact whole-second hint; jitter has its own coverage.
  config.limits.retry_after_jitter = Duration::Zero();
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  // The bucket starts full (burst 1): the first poll drains it.
  EXPECT_EQ(Poll(poll).response.status_code, 200);
  // An immediate second poll is over rate: 429 with a whole-second hint.
  FetchResult limited = Poll(poll);
  EXPECT_EQ(limited.response.status_code, 429);
  ASSERT_TRUE(limited.response.headers.Get("Retry-After").has_value());
  EXPECT_EQ(limited.response.headers.Get("Retry-After").value(), "1");
  EXPECT_EQ(agent_->metrics().polls_rate_limited, 1u);
  // After a full refill period the bucket holds a token again.
  loop_.RunFor(Duration::Seconds(1.1));
  EXPECT_EQ(Poll(poll).response.status_code, 200);
  EXPECT_EQ(agent_->metrics().polls_rate_limited, 1u);
}

TEST_F(AgentTest, FullOutboxRejectsNewestBroadcasts) {
  AgentConfig config;
  config.limits.max_outbox_actions = 2;
  StartAgent(config);
  HostNavigate();
  // p2 joins first so it has an outbox to receive p1's broadcasts.
  PollRequest join2;
  join2.participant_id = "p2";
  join2.doc_time_ms = -1;
  auto snapshot = ParseSnapshotXml(Poll(join2).response.body);
  ASSERT_TRUE(snapshot.ok());

  // p1 sends four pointer moves; only the first two fit p2's outbox.
  PollRequest poll1;
  poll1.participant_id = "p1";
  poll1.doc_time_ms = snapshot->doc_time_ms;
  for (int i = 0; i < 4; ++i) {
    UserAction move;
    move.type = ActionType::kMouseMove;
    move.x = 10 * (i + 1);
    move.y = 20;
    poll1.actions.push_back(move);
  }
  EXPECT_EQ(Poll(poll1).response.status_code, 200);
  EXPECT_EQ(agent_->metrics().actions_shed, 2u);

  PollRequest poll2;
  poll2.participant_id = "p2";
  poll2.doc_time_ms = snapshot->doc_time_ms;
  auto delivered = ParseSnapshotXml(Poll(poll2).response.body);
  ASSERT_TRUE(delivered.ok());
  ASSERT_EQ(delivered->user_actions.size(), 2u);
  // Reject-newest: the oldest gestures survived, in order.
  EXPECT_EQ(delivered->user_actions[0].x, 10);
  EXPECT_EQ(delivered->user_actions[1].x, 20);
}

TEST_F(AgentTest, OversizedPollBodyGets413) {
  AgentConfig config;
  config.limits.max_request_body_bytes = 32;
  StartAgent(config);
  PollRequest poll;
  poll.participant_id = std::string(64, 'p');  // body well over the cap
  poll.doc_time_ms = -1;
  FetchResult result = Poll(poll);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.response.status_code, 413);
  EXPECT_EQ(agent_->metrics().oversized_rejected, 1u);
}

TEST_F(AgentTest, SlowLorisConnectionReapedByReadDeadline) {
  AgentConfig config;
  config.limits.idle_read_timeout = Duration::Seconds(2.0);
  StartAgent(config);
  network_.AddHost("attacker", {});
  auto endpoint = network_.Connect("attacker", "host-pc", 3000);
  ASSERT_TRUE(endpoint.ok());
  // A request head that never completes: the read deadline closes it.
  (*endpoint)->Send("POST / HTTP/1.1\r\nContent-Le");
  loop_.RunFor(Duration::Seconds(3.0));
  EXPECT_EQ(agent_->metrics().idle_read_timeouts, 1u);
  // The agent still serves well-behaved clients afterwards.
  FetchResult ok = Fetch(HttpMethod::kGet, agent_->AgentUrl());
  EXPECT_EQ(ok.response.status_code, 200);
}

TEST(ObjectCacheLruTest, EvictsLeastRecentlyUsedWithinBudget) {
  ObjectCache cache;
  cache.set_byte_budget(30);
  Url a = Url::Make("http", "x.test", 80, "/a");
  Url b = Url::Make("http", "x.test", 80, "/b");
  Url c = Url::Make("http", "x.test", 80, "/c");
  Url d = Url::Make("http", "x.test", 80, "/d");
  cache.Put(a, "text/plain", std::string(10, 'a'));
  cache.Put(b, "text/plain", std::string(10, 'b'));
  cache.Put(c, "text/plain", std::string(10, 'c'));
  EXPECT_EQ(cache.total_bytes(), 30u);
  // Touch `a`: it becomes most-recently-used, so `b` is now the LRU entry.
  EXPECT_NE(cache.Lookup(a), nullptr);
  cache.Put(d, "text/plain", std::string(10, 'd'));
  EXPECT_TRUE(cache.Contains(a));
  EXPECT_FALSE(cache.Contains(b));
  EXPECT_TRUE(cache.Contains(c));
  EXPECT_TRUE(cache.Contains(d));
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.evicted_bytes(), 10u);
  EXPECT_EQ(cache.total_bytes(), 30u);
}

TEST(ObjectCacheLruTest, NewestEntrySurvivesEvenAloneOverBudget) {
  ObjectCache cache;
  cache.set_byte_budget(8);
  Url a = Url::Make("http", "x.test", 80, "/a");
  Url big = Url::Make("http", "x.test", 80, "/big");
  cache.Put(a, "text/plain", "aaaa");
  cache.Put(big, "text/plain", std::string(64, 'B'));
  EXPECT_FALSE(cache.Contains(a));
  EXPECT_TRUE(cache.Contains(big));  // never evict the entry just inserted
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(AgentTest, MetricsEndpointServesRegistry) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  Poll(poll);

  FetchResult result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/metrics"));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.response.status_code, 200);
  EXPECT_EQ(result.response.headers.Get("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = result.response.body;
  // Every pre-existing AgentMetrics counter is exported under rcb_agent_*.
  for (const char* name :
       {"rcb_agent_polls_received", "rcb_agent_polls_with_content",
        "rcb_agent_polls_empty", "rcb_agent_object_requests",
        "rcb_agent_object_bytes_served", "rcb_agent_new_connections",
        "rcb_agent_auth_failures", "rcb_agent_generations",
        "rcb_agent_snapshot_reuses", "rcb_agent_actions_applied",
        "rcb_agent_actions_held", "rcb_agent_actions_denied",
        "rcb_agent_poll_timeouts", "rcb_agent_reconnects",
        "rcb_agent_resyncs", "rcb_agent_participants_reaped",
        "rcb_agent_connections_rejected", "rcb_agent_participants_rejected",
        "rcb_agent_polls_rate_limited", "rcb_agent_actions_rate_limited",
        "rcb_agent_actions_shed", "rcb_agent_snapshots_shed",
        "rcb_agent_idle_read_timeouts", "rcb_agent_oversized_rejected",
        "rcb_agent_snapshot_bytes_raw", "rcb_agent_snapshot_bytes_escaped"}) {
    EXPECT_NE(body.find(name), std::string::npos) << name;
  }
  // Live values: the poll above registered a participant and forced a
  // generation.
  EXPECT_NE(body.find("rcb_agent_polls_received 1\n"), std::string::npos);
  EXPECT_NE(body.find("rcb_agent_generations 1\n"), std::string::npos);
  // Cache and gauge families.
  EXPECT_NE(body.find("rcb_cache_hits"), std::string::npos);
  EXPECT_NE(body.find("rcb_cache_bytes"), std::string::npos);
  EXPECT_NE(body.find("rcb_agent_participants 1\n"), std::string::npos);
  // Fig. 3 stage histograms, one series per stage the generator runs. The
  // clone and the three separate rewrite passes exist only in the reference
  // generator, so they have no series.
  for (const char* stage : {"extract", "serialize"}) {
    std::string series =
        std::string("rcb_agent_gen_stage_us_count{stage=\"") + stage + "\"} 1";
    EXPECT_NE(body.find(series), std::string::npos) << series;
  }
  for (const char* stage :
       {"clone", "absolutize", "cache_rewrite", "event_rewrite"}) {
    std::string label = std::string("{stage=\"") + stage + "\"}";
    EXPECT_EQ(body.find(label), std::string::npos) << label;
  }
}

TEST_F(AgentTest, MetricsEndpointAuthenticatedLikePolls) {
  AgentConfig config;
  config.session_key = "topsecretkey";
  StartAgent(config);
  HostNavigate();

  // Unsigned scrape: rejected, counted.
  FetchResult unsigned_result =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/metrics"));
  EXPECT_EQ(unsigned_result.response.status_code, 403);
  EXPECT_EQ(agent_->metrics().auth_failures, 1u);

  // Signed scrape: the MAC covers "GET /metrics\n" (empty body).
  std::string mac = HmacSha256Hex("topsecretkey", "GET /metrics\n");
  FetchResult signed_result = Fetch(
      HttpMethod::kGet,
      Url::Make("http", "host-pc", 3000, "/metrics", "hmac=" + mac));
  EXPECT_EQ(signed_result.response.status_code, 200);
  EXPECT_NE(signed_result.response.body.find("rcb_agent_auth_failures 1\n"),
            std::string::npos);
}

TEST_F(AgentTest, MetricsSimViewOmitsWallFamilies) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  Poll(poll);

  FetchResult full =
      Fetch(HttpMethod::kGet, Url::Make("http", "host-pc", 3000, "/metrics"));
  FetchResult sim = Fetch(
      HttpMethod::kGet,
      Url::Make("http", "host-pc", 3000, "/metrics", "view=sim"));
  ASSERT_EQ(full.response.status_code, 200);
  ASSERT_EQ(sim.response.status_code, 200);
  // Wall-provenance families (CPU timings) appear only in the full view.
  EXPECT_NE(full.response.body.find("rcb_agent_gen_stage_us"),
            std::string::npos);
  EXPECT_NE(full.response.body.find("rcb_agent_hmac_verify_us"),
            std::string::npos);
  EXPECT_EQ(sim.response.body.find("rcb_agent_gen_stage_us"),
            std::string::npos);
  EXPECT_EQ(sim.response.body.find("rcb_agent_last_generation_us"),
            std::string::npos);
  // Sim families appear in both.
  EXPECT_NE(sim.response.body.find("rcb_agent_polls_received"),
            std::string::npos);
  EXPECT_NE(sim.response.body.find("rcb_agent_snapshot_bytes_bucket"),
            std::string::npos);
}

TEST_F(AgentTest, SnapshotEscapeBytePairTracked) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  FetchResult result = Poll(poll);
  ASSERT_EQ(result.response.status_code, 200);

  const AgentMetrics& metrics = agent_->metrics();
  EXPECT_GT(metrics.snapshot_bytes_raw, 0u);
  // escape() only ever grows the payload.
  EXPECT_GE(metrics.snapshot_bytes_escaped, metrics.snapshot_bytes_raw);
  double ratio = static_cast<double>(metrics.snapshot_bytes_escaped) /
                 static_cast<double>(metrics.snapshot_bytes_raw);
  EXPECT_GE(ratio, 1.0);
  EXPECT_LE(ratio, 2.5);
}

// The paper's transmission sizes absorb escape() inflation (§5.1.2 M2): on
// Fig. 3 snapshots of the Table 1 corpus pages the CDATA payload grows by
// roughly 1.4-1.8x.
TEST(SnapshotEscapeInflationTest, CorpusPagesInflateAsExpected) {
  for (const char* name : {"google.com", "facebook.com", "amazon.com"}) {
    const SiteSpec* spec = FindSite(name);
    ASSERT_NE(spec, nullptr);
    EventLoop loop;
    Network network(&loop);
    network.AddHost(spec->host, {});
    network.AddHost("host-pc", {});
    auto server = InstallSite(&loop, &network, *spec);
    Browser browser(&loop, &network, "host-pc");
    bool done = false;
    browser.Navigate(Url::Make("http", spec->host, 80, "/"),
                     [&](const Status&, const PageLoadStats&) { done = true; });
    loop.RunUntilCondition([&] { return done; });

    ContentGenerator generator(&browser);
    ContentGenOptions options;
    options.cache_mode = true;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    GenerationResult result = generator.Generate(1, options);
    SnapshotSerializeStats stats;
    std::string xml = SerializeSnapshotXml(result.snapshot, &stats);
    ASSERT_GT(stats.payload_raw_bytes, 0u);
    // escape() alone grows the CDATA payload (quotes, newlines, slashes)...
    double escape_ratio = static_cast<double>(stats.payload_escaped_bytes) /
                          static_cast<double>(stats.payload_raw_bytes);
    EXPECT_GE(escape_ratio, 1.15) << name << " escape ratio " << escape_ratio;
    EXPECT_LE(escape_ratio, 1.85) << name << " escape ratio " << escape_ratio;
    // ...and together with the XML envelope the snapshot lands at roughly
    // 1.4-1.8x the original page (the inflation Fig. 4 transmissions absorb;
    // bench_table1_processing reports the full-corpus distribution).
    double snapshot_ratio =
        static_cast<double>(xml.size()) / 1024.0 / spec->page_kb;
    EXPECT_GE(snapshot_ratio, 1.35) << name << " snapshot " << snapshot_ratio;
    EXPECT_LE(snapshot_ratio, 1.85) << name << " snapshot " << snapshot_ratio;
  }
}

TEST_F(AgentTest, StaleActionTargetIgnored) {
  StartAgent();
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = 0;
  UserAction click;
  click.type = ActionType::kClick;
  click.target = 9999;
  poll.actions.push_back(click);
  FetchResult result = Poll(poll);
  EXPECT_EQ(result.response.status_code, 200);  // poll succeeds, action dropped
  EXPECT_EQ(host_browser_->document()->Title(), "Origin");
}

// ---- Delta-snapshot capability negotiation (src/delta) -------------------

// Replays a fixed scenario — initial poll, host mutation, follow-up poll —
// on a fresh simulated stack and returns the two poll response bodies. The
// simulation is deterministic, so two replays that should behave identically
// must produce identical bytes.
std::vector<std::string> ReplayPollScenario(bool agent_delta,
                                            bool advertise_patch) {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost("participant-pc", {});
  network.AddHost("www.origin.test", {});
  SiteServer origin(&loop, &network, "www.origin.test");
  // The page carries enough filler that a one-op patch (whose fixed header
  // includes two 64-hex digests) is comfortably under the snapshot-size
  // cutoff and actually gets served as a patch.
  std::string page =
      "<html><head><title>Origin</title></head>"
      "<body><p id=\"p\">v1</p>";
  for (int i = 0; i < 20; ++i) {
    page += "<p>filler paragraph number " + std::to_string(i) +
            " keeps the document comfortably large</p>";
  }
  page += "</body></html>";
  origin.ServeStatic("/", "text/html", page);
  Browser host(&loop, &network, "host-pc");
  Browser participant(&loop, &network, "participant-pc");
  AgentConfig config;
  config.enable_delta = agent_delta;
  RcbAgent agent(&host, config);
  EXPECT_TRUE(agent.Start().ok());

  bool done = false;
  host.Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                [&](const Status&, const PageLoadStats&) { done = true; });
  loop.RunUntilCondition([&] { return done; });

  auto poll_once = [&](int64_t doc_time) {
    PollRequest poll;
    poll.participant_id = "p1";
    poll.doc_time_ms = doc_time;
    poll.patch = advertise_patch;
    FetchResult out;
    bool fetched = false;
    participant.Fetch(HttpMethod::kPost, agent.AgentUrl(),
                      EncodePollRequest(poll),
                      "application/x-www-form-urlencoded",
                      [&](FetchResult result) {
                        out = std::move(result);
                        fetched = true;
                      });
    loop.RunUntilCondition([&] { return fetched; });
    return out.response.body;
  };

  std::vector<std::string> bodies;
  bodies.push_back(poll_once(-1));
  auto first = ParseSnapshotXml(bodies[0]);
  EXPECT_TRUE(first.ok());
  host.MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
  });
  bodies.push_back(poll_once(first.ok() ? first->doc_time_ms : -1));
  return bodies;
}

TEST_F(AgentTest, DeltaCapabilityDowngradeIsByteIdentical) {
  // Baseline: delta off on both sides.
  std::vector<std::string> baseline = ReplayPollScenario(false, false);
  // A participant that does not advertise patch support against a
  // delta-enabled agent gets the baseline bytes, exactly.
  EXPECT_EQ(ReplayPollScenario(true, false), baseline);
  // An advertising participant against a delta-disabled agent too: the agent
  // ignores the capability field.
  EXPECT_EQ(ReplayPollScenario(false, true), baseline);
  // Only when both sides opt in does the second response become a patch.
  std::vector<std::string> delta = ReplayPollScenario(true, true);
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], baseline[0]);  // no base yet: full snapshot either way
  EXPECT_TRUE(delta::LooksLikePatchXml(delta[1]));
  EXPECT_LT(delta[1].size(), baseline[1].size());
}

// Same deterministic replay, but toggling the trace capability: the agent
// only ever *reads* trace=, so response bytes must stay byte-identical in
// all four combinations, and causal span ids must appear in the agent's
// trace ring exactly when both sides opt in.
std::pair<std::vector<std::string>, bool> ReplayTraceScenario(
    bool agent_trace, bool send_trace) {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost("participant-pc", {});
  network.AddHost("www.origin.test", {});
  SiteServer origin(&loop, &network, "www.origin.test");
  origin.ServeStatic("/", "text/html",
                     "<html><head><title>Origin</title></head>"
                     "<body><p id=\"p\">v1</p></body></html>");
  Browser host(&loop, &network, "host-pc");
  Browser participant(&loop, &network, "participant-pc");
  AgentConfig config;
  config.enable_trace = agent_trace;
  RcbAgent agent(&host, config);
  EXPECT_TRUE(agent.Start().ok());

  bool done = false;
  host.Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                [&](const Status&, const PageLoadStats&) { done = true; });
  loop.RunUntilCondition([&] { return done; });

  uint64_t seq = 0;
  auto poll_once = [&](int64_t doc_time) {
    PollRequest poll;
    poll.participant_id = "p1";
    poll.doc_time_ms = doc_time;
    if (send_trace) {
      poll.trace = "p1-" + std::to_string(++seq);
    }
    FetchResult out;
    bool fetched = false;
    participant.Fetch(HttpMethod::kPost, agent.AgentUrl(),
                      EncodePollRequest(poll),
                      "application/x-www-form-urlencoded",
                      [&](FetchResult result) {
                        out = std::move(result);
                        fetched = true;
                      });
    loop.RunUntilCondition([&] { return fetched; });
    return out.response.body;
  };

  std::vector<std::string> bodies;
  bodies.push_back(poll_once(-1));
  auto first = ParseSnapshotXml(bodies[0]);
  EXPECT_TRUE(first.ok());
  host.MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
  });
  bodies.push_back(poll_once(first.ok() ? first->doc_time_ms : -1));

  bool saw_causal = false;
  for (const obs::TraceEvent& event : agent.trace_log().Events()) {
    if (!event.trace_id.empty()) {
      saw_causal = true;
    }
  }
  return {bodies, saw_causal};
}

TEST_F(AgentTest, TraceCapabilityDowngradeIsByteIdentical) {
  auto [baseline, baseline_causal] = ReplayTraceScenario(false, false);
  auto [agent_only, agent_only_causal] = ReplayTraceScenario(true, false);
  auto [snippet_only, snippet_only_causal] = ReplayTraceScenario(false, true);
  auto [both, both_causal] = ReplayTraceScenario(true, true);
  // Tracing never changes a single response byte, whichever side has it on.
  EXPECT_EQ(agent_only, baseline);
  EXPECT_EQ(snippet_only, baseline);
  EXPECT_EQ(both, baseline);
  // Causal spans appear in the agent ring only when both sides opt in.
  EXPECT_FALSE(baseline_causal);
  EXPECT_FALSE(agent_only_causal);
  EXPECT_FALSE(snippet_only_causal);
  EXPECT_TRUE(both_causal);
}

// Same deterministic replay, toggling the streamed-transport capability
// (DESIGN.md §15). Returns the two FULL serialized responses — headers
// included — plus their bodies, so byte identity covers the RCB-Transport
// header, not just the payload.
std::pair<std::vector<std::string>, std::vector<std::string>>
ReplayStreamScenario(bool agent_stream, uint32_t advertise_stream) {
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost("participant-pc", {});
  network.AddHost("www.origin.test", {});
  SiteServer origin(&loop, &network, "www.origin.test");
  origin.ServeStatic("/", "text/html",
                     "<html><head><title>Origin</title></head>"
                     "<body><p id=\"p\">v1</p></body></html>");
  Browser host(&loop, &network, "host-pc");
  Browser participant(&loop, &network, "participant-pc");
  AgentConfig config;
  config.transport.enable_stream = agent_stream;
  RcbAgent agent(&host, config);
  EXPECT_TRUE(agent.Start().ok());

  bool done = false;
  host.Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                [&](const Status&, const PageLoadStats&) { done = true; });
  loop.RunUntilCondition([&] { return done; });

  auto poll_once = [&](int64_t doc_time) {
    PollRequest poll;
    poll.participant_id = "p1";
    poll.doc_time_ms = doc_time;
    poll.stream = advertise_stream;
    FetchResult out;
    bool fetched = false;
    participant.Fetch(HttpMethod::kPost, agent.AgentUrl(),
                      EncodePollRequest(poll),
                      "application/x-www-form-urlencoded",
                      [&](FetchResult result) {
                        out = std::move(result);
                        fetched = true;
                      });
    loop.RunUntilCondition([&] { return fetched; });
    return out.response;
  };

  std::vector<std::string> serialized;
  std::vector<std::string> bodies;
  HttpResponse first = poll_once(-1);
  serialized.push_back(first.Serialize());
  bodies.push_back(first.body);
  auto snapshot = ParseSnapshotXml(first.body);
  EXPECT_TRUE(snapshot.ok());
  host.MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
  });
  HttpResponse second = poll_once(snapshot.ok() ? snapshot->doc_time_ms : -1);
  serialized.push_back(second.Serialize());
  bodies.push_back(second.body);
  return {serialized, bodies};
}

TEST_F(AgentTest, StreamCapabilityDowngradeIsByteIdentical) {
  // Baseline: transport off on both sides. The comparison is over FULL
  // serialized responses, so a stray header would fail it.
  auto [baseline, baseline_bodies] = ReplayStreamScenario(false, 0);
  // Agent upgraded, snippet silent — a pre-transport client sees the exact
  // pre-transport bytes.
  EXPECT_EQ(ReplayStreamScenario(true, 0).first, baseline);
  // Snippet advertises against a transport-less agent: the capability field
  // is read and ignored, response bytes untouched.
  EXPECT_EQ(ReplayStreamScenario(false, 2).first, baseline);
  EXPECT_EQ(ReplayStreamScenario(false, 1).first, baseline);
  // Only when both sides opt in does the grant header appear — and the
  // bodies still match the baseline byte for byte.
  auto [longpoll, longpoll_bodies] = ReplayStreamScenario(true, 1);
  EXPECT_NE(longpoll, baseline);
  EXPECT_EQ(longpoll_bodies, baseline_bodies);
  ASSERT_EQ(longpoll.size(), 2u);
  EXPECT_NE(longpoll[0].find("RCB-Transport: longpoll; hold="),
            std::string::npos);
  // stream=2 is granted the same long-poll, byte for byte.
  EXPECT_EQ(ReplayStreamScenario(true, 2).first, longpoll);
}

TEST_F(AgentTest, ResyncPollGetsFullSnapshotDespitePatchCapability) {
  AgentConfig config;
  config.enable_delta = true;
  StartAgent(config);
  HostNavigate();
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  poll.patch = true;
  auto first = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(first.ok());

  host_browser_->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("more"));
  });
  // A recovering participant (resync=1) must receive the full snapshot even
  // though it advertises patch support and the agent has the base cached.
  poll.doc_time_ms = first->doc_time_ms;
  poll.resync = true;
  std::string body = Poll(poll).response.body;
  EXPECT_FALSE(delta::LooksLikePatchXml(body));
  EXPECT_TRUE(ParseSnapshotXml(body).ok());
  EXPECT_EQ(agent_->metrics().patches_served, 0u);
  EXPECT_EQ(agent_->metrics().resyncs, 1u);
}

TEST_F(AgentTest, PatchServedOnlyWhenBaseIsKnown) {
  AgentConfig config;
  config.enable_delta = true;
  StartAgent(config);
  HostNavigate();
  // Advance sim time so document versions are well above zero — the test acks
  // "base - 7" below, which must stay a plausible (non-negative) timestamp.
  loop_.RunFor(Duration::Seconds(1.0));
  // Grow the document so the one-op patch below beats the size cutoff.
  host_browser_->MutateDocument([](Document* document) {
    for (int i = 0; i < 20; ++i) {
      std::unique_ptr<Element> p = MakeElement("p");
      p->AppendChild(MakeText("filler paragraph " + std::to_string(i) +
                              " keeps the snapshot comfortably large"));
      document->body()->AppendChild(std::move(p));
    }
  });
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  poll.patch = true;
  auto first = ParseSnapshotXml(Poll(poll).response.body);
  ASSERT_TRUE(first.ok());

  host_browser_->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("more"));
  });
  // Acking a version the agent never produced: no base tree, so the agent
  // falls back to the full snapshot and counts the reason.
  poll.doc_time_ms = first->doc_time_ms - 7;
  std::string body = Poll(poll).response.body;
  EXPECT_FALSE(delta::LooksLikePatchXml(body));
  EXPECT_EQ(agent_->metrics().patches_served, 0u);
  EXPECT_EQ(agent_->metrics().patch_fallback_no_base, 1u);

  // Acking the real base: the same document change now travels as a patch.
  poll.doc_time_ms = first->doc_time_ms;
  body = Poll(poll).response.body;
  EXPECT_TRUE(delta::LooksLikePatchXml(body));
  EXPECT_EQ(agent_->metrics().patches_served, 1u);
}


// ------------------------------------------------------ admission ladder ----

// A raw participant socket to the agent: records every byte the agent sends
// and whether the agent closed it, so held replies (parked polls) and
// unanswered drops are observable.
class RawClient {
 public:
  explicit RawClient(Network* network) {
    auto endpoint = network->Connect("participant-pc", "host-pc", 3000);
    EXPECT_TRUE(endpoint.ok());
    endpoint_ = *endpoint;
    endpoint_->SetDataHandler(
        [this](std::string_view data) { received_.append(data); });
    endpoint_->SetCloseHandler([this] { closed_ = true; });
  }
  ~RawClient() {
    endpoint_->SetDataHandler(nullptr);
    endpoint_->SetCloseHandler(nullptr);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void Send(const HttpRequest& request) { endpoint_->Send(request.Serialize()); }
  // The first complete response received, if any.
  std::optional<HttpResponse> Response() const {
    HttpResponseParser parser;
    auto response = parser.Feed(received_);
    if (!response.ok() || !response->has_value()) {
      return std::nullopt;
    }
    return **response;
  }
  const std::string& received() const { return received_; }
  bool closed() const { return closed_; }

 private:
  NetEndpoint* endpoint_ = nullptr;
  std::string received_;
  bool closed_ = false;
};

// A request for `path` with `query`, signed with `key` the way the snippet
// signs (§3.4: the MAC covers method, path, query minus hmac, and body).
HttpRequest SignedRequest(HttpMethod method, const std::string& path,
                          const std::string& query, const std::string& body,
                          const std::string& key) {
  HttpRequest request;
  request.method = method;
  std::string canonical = path + (query.empty() ? "" : "?" + query);
  std::string mac = HmacSha256Hex(
      key, std::string(HttpMethodName(method)) + " " + canonical + "\n" + body);
  request.target =
      path + "?" + (query.empty() ? "" : query + "&") + "hmac=" + mac;
  request.body = body;
  if (method == HttpMethod::kPost) {
    request.headers.Set("Content-Type", "application/x-www-form-urlencoded");
  }
  return request;
}

HttpRequest PollHttpRequest(const PollRequest& poll) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.target = "/";
  request.body = EncodePollRequest(poll);
  request.headers.Set("Content-Type", "application/x-www-form-urlencoded");
  return request;
}

enum class Entry { kPoll, kResume, kJoin, kMetrics, kHealth };
enum class Condition { kBadMac, kRosterFull, kRecoveryWindow };

// What one request did to the agent: the reply, plus the deltas of the
// counters and flight triggers the ladder's rungs own.
struct AdmissionOutcome {
  int status = 0;
  // Rejections: the exact body. 200s: a required substring.
  std::string body;
  std::string retry_after;  // "" when the header is absent
  uint64_t auth_failures = 0;
  uint64_t participants_rejected = 0;
  uint64_t recovery_deferrals = 0;
  uint64_t auth_failure_triggers = 0;
  uint64_t overload_triggers = 0;
};

// One cell of the admission matrix, in a fresh world: a keyed agent with
// the streamed transport on and participant p1 on the roster, then one request from
// `entry` for `pid` (p1 known, p2 unknown; unused by join and the operator
// endpoints) under `condition`. "Roster full" caps the roster at p1.
AdmissionOutcome RunAdmissionCell(Entry entry, const std::string& pid,
                                  Condition condition) {
  constexpr char kKey[] = "topsecretkey";
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost("participant-pc", {});
  network.AddHost("www.origin.test", {});
  SiteServer origin(&loop, &network, "www.origin.test");
  origin.ServeStatic("/", "text/html",
                     "<html><head><title>Origin</title></head>"
                     "<body><p id=\"p\">v1</p></body></html>");
  Browser host(&loop, &network, "host-pc");
  AgentConfig config;
  config.session_key = kKey;
  config.transport.enable_stream = true;
  config.limits.retry_after_jitter = Duration::Zero();  // exact Retry-After
  config.limits.max_participants =
      condition == Condition::kRosterFull ? 1 : 0;
  RcbAgent agent(&host, config);
  EXPECT_TRUE(agent.Start().ok());
  bool loaded = false;
  host.Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                [&](const Status&, const PageLoadStats&) { loaded = true; });
  loop.RunUntilCondition([&] { return loaded; });

  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = -1;
  poll.seq = 1;
  {
    RawClient joiner(&network);
    joiner.Send(SignedRequest(HttpMethod::kPost, "/", "",
                              EncodePollRequest(poll), kKey));
    loop.RunFor(Duration::Millis(100));
    EXPECT_EQ(joiner.Response().value_or(HttpResponse{}).status_code, 200);
  }
  if (condition == Condition::kRecoveryWindow) {
    agent.DeferResyncAdmissionUntil(loop.now() + Duration::Seconds(5.0));
  }

  const std::string key =
      condition == Condition::kBadMac ? "wrong-key" : kKey;
  HttpRequest request;
  switch (entry) {
    case Entry::kPoll:
      poll.participant_id = pid;
      poll.seq = 2;
      request = SignedRequest(HttpMethod::kPost, "/", "",
                              EncodePollRequest(poll), key);
      break;
    case Entry::kResume:
      request = SignedRequest(HttpMethod::kGet, "/", "resume=" + pid, "", key);
      break;
    case Entry::kJoin:
      request = SignedRequest(HttpMethod::kGet, "/", "", "", key);
      break;
    case Entry::kMetrics:
      request = SignedRequest(HttpMethod::kGet, "/metrics", "", "", key);
      break;
    case Entry::kHealth:
      request = SignedRequest(HttpMethod::kGet, "/health", "", "", key);
      break;
  }

  const AgentMetrics before = agent.metrics();
  const obs::FlightRecorder& flight = agent.flight_recorder();
  const uint64_t auth_triggers = flight.triggers("auth_failure");
  const uint64_t overload_triggers = flight.triggers("overload");
  RawClient client(&network);
  client.Send(request);
  loop.RunFor(Duration::Millis(100));
  AdmissionOutcome out;
  std::optional<HttpResponse> response = client.Response();
  EXPECT_TRUE(response.has_value());
  if (response.has_value()) {
    out.status = response->status_code;
    out.body = response->body;
    out.retry_after = response->headers.Get("Retry-After").value_or("");
  }
  const AgentMetrics& after = agent.metrics();
  out.auth_failures = after.auth_failures - before.auth_failures;
  out.participants_rejected =
      after.participants_rejected - before.participants_rejected;
  out.recovery_deferrals = after.recovery_deferrals - before.recovery_deferrals;
  out.auth_failure_triggers = flight.triggers("auth_failure") - auth_triggers;
  out.overload_triggers = flight.triggers("overload") - overload_triggers;
  return out;
}

TEST(AdmissionMatrixTest, EveryEntryPointClimbsItsRungs) {
  const std::string kAuth = "Forbidden: request authentication failed";
  const std::string kResumeAuth = "Forbidden: resume authentication failed";
  const std::string kRoster = "Service Unavailable: participant limit reached";
  const std::string kDefer =
      "Service Unavailable: recovering: resync admission deferred";
  // {status, body, Retry-After, auth_failures, participants_rejected,
  //  recovery_deferrals, auth_failure triggers, overload triggers}
  const AdmissionOutcome auth403{403, kAuth, "", 1, 0, 0, 1, 0};
  const AdmissionOutcome resume403{403, kResumeAuth, "", 1, 0, 0, 1, 0};
  const AdmissionOutcome roster503{503, kRoster, "1", 0, 1, 0, 0, 1};
  const AdmissionOutcome defer503{503, kDefer, "5", 0, 0, 1, 0, 1};
  auto ok = [](std::string substring) {
    return AdmissionOutcome{200, std::move(substring), "", 0, 0, 0, 0, 0};
  };
  const AdmissionOutcome page_p1 = ok("<meta name=\"rcb-pid\" content=\"p1\">");
  const AdmissionOutcome page_p2 = ok("<meta name=\"rcb-pid\" content=\"p2\">");
  const AdmissionOutcome page = ok("<meta name=\"rcb-pid\"");
  struct Row {
    const char* name;
    Entry entry;
    const char* pid;
    AdmissionOutcome bad_mac, roster_full, recovery_window;
  };
  const Row rows[] = {
      // A known pid is never over the cap; only a known pid is deferred.
      {"poll_known", Entry::kPoll, "p1", auth403, ok("<![CDATA["), defer503},
      {"poll_unknown", Entry::kPoll, "p2", auth403, roster503,
       ok("<![CDATA[")},
      // Resumes are never deferred.
      {"resume_known", Entry::kResume, "p1", resume403, page_p1, page_p1},
      {"resume_unknown", Entry::kResume, "p2", resume403, roster503, page_p2},
      // A join carries no MAC rung and is never deferred.
      {"join", Entry::kJoin, "", page, roster503, page},
      // The operator endpoints climb the auth rung only.
      {"metrics", Entry::kMetrics, "", auth403,
       ok("rcb_agent_polls_received 1\n"), ok("rcb_agent_polls_received 1\n")},
      {"health", Entry::kHealth, "", auth403, ok("\"score\":"), ok("\"score\":")},
  };
  for (const Row& row : rows) {
    const std::pair<Condition, const AdmissionOutcome*> cells[] = {
        {Condition::kBadMac, &row.bad_mac},
        {Condition::kRosterFull, &row.roster_full},
        {Condition::kRecoveryWindow, &row.recovery_window}};
    for (const auto& [condition, want] : cells) {
      SCOPED_TRACE(testing::Message()
                   << row.name << " / condition " << static_cast<int>(condition));
      AdmissionOutcome got = RunAdmissionCell(row.entry, row.pid, condition);
      EXPECT_EQ(got.status, want->status);
      if (want->status == 200) {
        EXPECT_NE(got.body.find(want->body), std::string::npos) << got.body;
      } else {
        EXPECT_EQ(got.body, want->body);
      }
      EXPECT_EQ(got.retry_after, want->retry_after);
      EXPECT_EQ(got.auth_failures, want->auth_failures);
      EXPECT_EQ(got.participants_rejected, want->participants_rejected);
      EXPECT_EQ(got.recovery_deferrals, want->recovery_deferrals);
      EXPECT_EQ(got.auth_failure_triggers, want->auth_failure_triggers);
      EXPECT_EQ(got.overload_triggers, want->overload_triggers);
    }
  }
}

// ------------------------------------------------- held transport paths ----

class HeldTransportTest : public AgentTest {
 protected:
  // Starts a streaming agent and brings p1 to the point where its next empty
  // poll is parked: one long-poll-capable poll that took content and a grant.
  void StartAndGrant() {
    AgentConfig config;
    config.transport.enable_stream = true;
    StartAgent(config);
    HostNavigate();
    poll_.participant_id = "p1";
    poll_.doc_time_ms = -1;
    poll_.stream = transport::kStreamLongPoll;
    FetchResult first = Poll(poll_);
    ASSERT_EQ(first.response.status_code, 200);
    ASSERT_TRUE(first.response.headers.Get("RCB-Transport").has_value());
    auto snapshot = ParseSnapshotXml(first.response.body);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    poll_.doc_time_ms = snapshot->doc_time_ms;
  }

  // Sends p1's up-to-date poll on `client` and expects the agent to hold it.
  void Park(RawClient& client) {
    uint64_t parked_before = agent_->metrics().transport_long_polls_parked;
    client.Send(PollHttpRequest(poll_));
    loop_.RunFor(Duration::Millis(100));
    ASSERT_EQ(agent_->metrics().transport_long_polls_parked, parked_before + 1);
    ASSERT_EQ(agent_->parked_poll_count(), 1u);
    ASSERT_TRUE(client.received().empty());
  }

  PollRequest poll_;
};

TEST_F(HeldTransportTest, FreshPollAnswersStaleParkedPollEmpty) {
  StartAndGrant();
  RawClient stale(&network_);
  Park(stale);
  // The client superseded that hold and polls again: the stale hold gets an
  // empty 200 with no grant, its connection stays open for reuse, and the
  // fresh poll is held in its place. No counter moves for the stale reply.
  const AgentMetrics before = agent_->metrics();
  RawClient fresh(&network_);
  Park(fresh);
  std::optional<HttpResponse> superseded = stale.Response();
  ASSERT_TRUE(superseded.has_value());
  EXPECT_EQ(superseded->status_code, 200);
  EXPECT_EQ(superseded->body, "");
  EXPECT_FALSE(superseded->headers.Get("RCB-Transport").has_value());
  const std::string stale_bytes = stale.received();
  EXPECT_FALSE(stale.closed());
  EXPECT_FALSE(fresh.closed());
  EXPECT_EQ(agent_->metrics().polls_empty, before.polls_empty);
  EXPECT_EQ(agent_->metrics().polls_with_content, before.polls_with_content);
  EXPECT_EQ(agent_->metrics().transport_long_poll_flushes,
            before.transport_long_poll_flushes);
  EXPECT_EQ(agent_->metrics().transport_long_poll_expiries,
            before.transport_long_poll_expiries);
  // The next document change releases the fresh hold with content.
  host_browser_->MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
  });
  loop_.RunFor(Duration::Millis(100));
  std::optional<HttpResponse> released = fresh.Response();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->status_code, 200);
  EXPECT_TRUE(released->headers.Get("RCB-Transport").has_value());
  auto snapshot = ParseSnapshotXml(released->body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_TRUE(snapshot->has_content);
  EXPECT_NE(snapshot->body->inner_html.find("v2"), std::string::npos);
  EXPECT_EQ(agent_->metrics().transport_long_poll_flushes, 1u);
  // The stale connection never gets content.
  EXPECT_EQ(stale.received(), stale_bytes);
  EXPECT_FALSE(stale.closed());
}

TEST_F(HeldTransportTest, GoodbyeClosesParkedPoll) {
  StartAndGrant();
  RawClient held(&network_);
  Park(held);
  PollRequest goodbye = poll_;
  goodbye.stream = transport::kStreamNone;
  UserAction left;
  left.type = ActionType::kPresence;
  left.data = "left";
  goodbye.actions.push_back(left);
  FetchResult reply = Poll(goodbye);
  EXPECT_EQ(reply.response.status_code, 200);
  EXPECT_EQ(reply.response.body, "");
  loop_.RunFor(Duration::Millis(100));
  EXPECT_EQ(agent_->parked_poll_count(), 0u);
  EXPECT_EQ(agent_->participant_count(), 0u);
  EXPECT_TRUE(held.closed());
  EXPECT_TRUE(held.received().empty());
}

TEST_F(HeldTransportTest, HostBroadcastReleasesParkedPoll) {
  StartAndGrant();
  RawClient held(&network_);
  Park(held);
  UserAction move;
  move.type = ActionType::kMouseMove;
  move.x = 7;
  move.y = 9;
  agent_->BroadcastAction(move);
  loop_.RunFor(Duration::Millis(100));
  EXPECT_EQ(agent_->parked_poll_count(), 0u);
  EXPECT_EQ(agent_->metrics().transport_long_poll_flushes, 1u);
  std::optional<HttpResponse> released = held.Response();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->status_code, 200);
  EXPECT_TRUE(released->headers.Get("RCB-Transport").has_value());
  auto actions = ParseSnapshotXml(released->body);
  ASSERT_TRUE(actions.ok()) << actions.status();
  EXPECT_FALSE(actions->has_content);
  EXPECT_EQ(actions->doc_time_ms, poll_.doc_time_ms);
  ASSERT_EQ(actions->user_actions.size(), 1u);
  EXPECT_EQ(actions->user_actions[0].origin, "host");
  EXPECT_EQ(actions->user_actions[0].x, 7);
}

TEST_F(HeldTransportTest, ParkedPollCoalescesBurstsDropOldest) {
  StartAndGrant();
  // Hold p1's poll so document changes schedule transport flushes.
  RawClient held(&network_);
  Park(held);
  uint64_t shed_before = agent_->metrics().snapshots_shed;
  // Two document changes in the same event-loop turn: one flush is scheduled,
  // the superseded intermediate snapshot is shed (drop-oldest).
  host_browser_->MutateDocument([](Document*) {});
  host_browser_->MutateDocument([](Document*) {});
  EXPECT_EQ(agent_->metrics().snapshots_shed, shed_before + 1);
  loop_.RunFor(Duration::Millis(10));
  EXPECT_EQ(agent_->metrics().transport_long_poll_flushes, 1u);
  std::optional<HttpResponse> released = held.Response();
  ASSERT_TRUE(released.has_value());
  auto snapshot = ParseSnapshotXml(released->body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  // Once the pending flush ran, new changes schedule fresh flushes again.
  poll_.doc_time_ms = snapshot->doc_time_ms;
  RawClient again(&network_);
  Park(again);
  host_browser_->MutateDocument([](Document*) {});
  EXPECT_EQ(agent_->metrics().snapshots_shed, shed_before + 1);
}

// Sync-latency exemplars name the path a delivery took on a tracing agent:
// a traced poll its own trace id, a parked poll released by a document
// change the synthetic transport-<pid> chain, and an untraced poll nothing
// at all.
TEST_F(HeldTransportTest, DeliveryExemplarsFollowTheirPath) {
  AgentConfig config;
  config.enable_trace = true;
  config.transport.enable_stream = true;
  StartAgent(config);
  HostNavigate();
  auto exemplar_ids = [&] {
    std::vector<std::string> ids;
    for (const auto& entry :
         agent_->session_health().Evaluate(loop_.now().micros()).exemplars) {
      ids.push_back(entry.exemplar.trace_id);
    }
    return ids;
  };
  PollRequest untraced;
  untraced.participant_id = "p1";
  untraced.doc_time_ms = -1;
  ASSERT_EQ(Poll(untraced).response.status_code, 200);
  EXPECT_TRUE(exemplar_ids().empty());

  // p2 takes content and a grant, then parks; a document change releases
  // the park outside any traced poll.
  PollRequest longpoll = untraced;
  longpoll.participant_id = "p2";
  longpoll.stream = transport::kStreamLongPoll;
  auto snapshot = ParseSnapshotXml(Poll(longpoll).response.body);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  longpoll.doc_time_ms = snapshot->doc_time_ms;
  EXPECT_TRUE(exemplar_ids().empty());
  RawClient held(&network_);
  held.Send(PollHttpRequest(longpoll));
  loop_.RunFor(Duration::Millis(100));
  ASSERT_EQ(agent_->parked_poll_count(), 1u);
  host_browser_->MutateDocument([](Document*) {});
  loop_.RunFor(Duration::Millis(100));
  ASSERT_TRUE(held.Response().has_value());
  EXPECT_EQ(exemplar_ids(), std::vector<std::string>{"transport-p2"});

  PollRequest traced = untraced;
  traced.participant_id = "p3";
  traced.trace = "p3-1";
  ASSERT_EQ(Poll(traced).response.status_code, 200);
  std::vector<std::string> ids = exemplar_ids();
  EXPECT_NE(std::find(ids.begin(), ids.end(), "p3-1"), ids.end());
}

}  // namespace
}  // namespace rcb
