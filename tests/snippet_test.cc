// Tests for Ajax-Snippet: joining, the poll loop, the Fig. 5 apply
// procedure (against the four-step oracle over the Table 1 corpus and on
// edge-shaped documents), action queueing, and supplementary-object
// fetching.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <set>

#include "src/browser/resources.h"
#include "src/core/ajax_snippet.h"
#include "src/core/content_generator.h"
#include "src/core/rcb_agent.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "src/util/rand.h"
#include "src/util/strings.h"
#include "tests/support/reference_apply_snapshot.h"

namespace rcb {
namespace {

class SnippetTest : public ::testing::Test {
 protected:
  SnippetTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("participant-pc", {});
    network_.AddHost("www.origin.test", {});
    network_.SetLatency("host-pc", "participant-pc", Duration::Millis(1));
    origin_ = std::make_unique<SiteServer>(&loop_, &network_, "www.origin.test");
    origin_->ServeStatic("/", "text/html",
                         "<html><head><title>Page1</title>"
                         "<style>.s{}</style></head>"
                         "<body class=\"c1\"><img src=\"/a.png\">"
                         "<p id=\"p\">content1</p>"
                         "<form id=\"f\" action=\"/go\" method=\"get\">"
                         "<input name=\"q\" value=\"\"></form>"
                         "<a id=\"l\" href=\"/two\">two</a></body></html>");
    origin_->ServeStatic("/a.png", "image/png", "PNG1");
    origin_->ServeStatic("/two", "text/html",
                         "<html><head><title>Page2</title></head>"
                         "<body><p>content2</p></body></html>");
    origin_->Route("/go", [](const HttpRequest& request) {
      return HttpResponse::Ok(
          "text/html", "<html><head><title>Searched:" +
                           request.QueryParams()["q"] +
                           "</title></head><body><p>results</p></body></html>");
    });
    host_browser_ = std::make_unique<Browser>(&loop_, &network_, "host-pc");
    participant_browser_ =
        std::make_unique<Browser>(&loop_, &network_, "participant-pc");
  }

  void StartAgent(AgentConfig config = {}) {
    agent_ = std::make_unique<RcbAgent>(host_browser_.get(), config);
    ASSERT_TRUE(agent_->Start().ok());
  }

  void HostNavigate(const std::string& path = "/") {
    bool done = false;
    host_browser_->Navigate(Url::Make("http", "www.origin.test", 80, path),
                            [&](const Status&, const PageLoadStats&) {
                              done = true;
                            });
    loop_.RunUntilCondition([&] { return done; });
  }

  Status Join(SnippetConfig config = {}) {
    snippet_ = std::make_unique<AjaxSnippet>(participant_browser_.get(), config);
    Status out;
    bool done = false;
    snippet_->Join(agent_->AgentUrl(), [&](Status status) {
      out = status;
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  // Serves the origin's images through a handler that logs each request
  // target, and turns the participant's object cache off: every object fetch
  // the snippet makes then reaches the origin and is logged. Counts the
  // snippet's objects-loaded callbacks in objects_loaded_.
  void LogObjectRequests() {
    participant_browser_->set_cache_enabled(false);
    auto log = [this](const HttpRequest& request) {
      object_requests_.push_back(request.target);
      return HttpResponse::Ok("image/png", "PNG");
    };
    origin_->Route("/a.png", log);
    origin_->RoutePrefix("/img/", log);
    snippet_->SetObjectsLoadedListener([this](Duration) { ++objects_loaded_; });
  }

  // Runs until the snippet has applied an update past `updates` and the
  // objects of every update it applied have loaded.
  void WaitForObjects(uint64_t updates) {
    loop_.RunUntilCondition([&] {
      uint64_t applied = snippet_->metrics().content_updates;
      return applied > updates && objects_loaded_ == applied;
    });
  }

  // A non-cache agent (objects stay origin URLs), a joined snippet whose
  // object requests are logged, the host on the origin page, and the first
  // snapshot's objects loaded.
  void JoinAndLoadFirstPage() {
    AgentConfig config;
    config.cache_mode = false;
    StartAgent(config);
    ASSERT_TRUE(Join().ok());
    LogObjectRequests();
    HostNavigate();
    object_requests_.clear();  // the host's own page load
    WaitForObjects(0);
  }

  // Runs until the participant holds content version >= the agent's.
  void WaitForUpdate() {
    loop_.RunUntilCondition([&] {
      return snippet_->doc_time_ms() >= 0 &&
             snippet_->metrics().content_updates > 0;
    });
  }

  // A scripted agent on host-pc:<port>: GET / answers the initial page
  // advertising `interval` as rcb-poll-interval, and each poll is logged and
  // answered with the next queued reply (an empty body once none is left).
  struct FakeAgent {
    std::unique_ptr<SiteServer> server;
    std::deque<std::string> replies;
    std::vector<PollRequest> polls;
  };
  std::unique_ptr<FakeAgent> ServeFakeAgent(uint16_t port,
                                            const std::string& interval) {
    auto agent = std::make_unique<FakeAgent>();
    agent->server =
        std::make_unique<SiteServer>(&loop_, &network_, "host-pc", port);
    agent->server->Route("/", [agent = agent.get(),
                               interval](const HttpRequest& request) {
      if (request.method == HttpMethod::kGet) {
        return HttpResponse::Ok(
            "text/html",
            "<html><head><script id=\"rcb-snippet\"></script>"
            "<meta name=\"rcb-pid\" content=\"p1\">"
            "<meta name=\"rcb-poll-interval\" content=\"" +
                interval + "\"></head><body></body></html>");
      }
      agent->polls.push_back(DecodePollRequest(request.body).value());
      std::string body;
      if (!agent->replies.empty()) {
        body = std::move(agent->replies.front());
        agent->replies.pop_front();
      }
      return HttpResponse::Ok("text/xml", body);
    });
    return agent;
  }

  // Joins a delta-capable snippet on `browser` to the fake agent on `port`.
  std::unique_ptr<AjaxSnippet> JoinFakeAgent(Browser* browser, uint16_t port) {
    SnippetConfig config;
    config.enable_delta = true;
    auto snippet = std::make_unique<AjaxSnippet>(browser, config);
    Status joined = UnavailableError("join pending");
    snippet->Join(Url::Make("http", "host-pc", port, "/"),
                  [&](Status status) { joined = status; });
    loop_.RunUntilCondition(
        [&] { return joined.code() != StatusCode::kUnavailable; });
    EXPECT_TRUE(joined.ok()) << joined;
    return snippet;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> origin_;
  std::unique_ptr<Browser> host_browser_;
  std::unique_ptr<Browser> participant_browser_;
  std::unique_ptr<RcbAgent> agent_;
  std::unique_ptr<AjaxSnippet> snippet_;
  std::vector<std::string> object_requests_;
  uint64_t objects_loaded_ = 0;
};

TEST_F(SnippetTest, JoinLoadsInitialPageAndReadsConfig) {
  AgentConfig config;
  config.poll_interval = Duration::Millis(500);
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  EXPECT_TRUE(snippet_->joined());
  EXPECT_FALSE(snippet_->participant_id().empty());
  EXPECT_EQ(snippet_->poll_interval(), Duration::Millis(500));
  // Initial page rendered on the participant browser.
  EXPECT_EQ(participant_browser_->document()->Title(),
            "RCB co-browsing session");
}

TEST_F(SnippetTest, JoinFailsWhenAgentUnreachable) {
  StartAgent();
  agent_->Stop();
  AjaxSnippet snippet(participant_browser_.get(), {});
  Status out;
  bool done = false;
  snippet.Join(Url::Make("http", "host-pc", 3000, "/"), [&](Status status) {
    out = status;
    done = true;
  });
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_FALSE(out.ok());
  EXPECT_FALSE(snippet.joined());
}

TEST_F(SnippetTest, ContentSynchronizedAfterHostNavigation) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Document* doc = participant_browser_->document();
  EXPECT_EQ(doc->Title(), "Page1");
  EXPECT_EQ(doc->ById("p")->TextContent(), "content1");
  // Body attributes copied.
  EXPECT_EQ(doc->body()->AttrOr("class"), "c1");
  EXPECT_GT(snippet_->metrics().content_updates, 0u);
  EXPECT_GT(snippet_->metrics().last_content_download, Duration::Zero());
}

TEST_F(SnippetTest, SnippetScriptSurvivesApply) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  // Fig. 5 step 1: the snippet keeps itself in the head across updates.
  Element* head = participant_browser_->document()->head();
  ASSERT_NE(head, nullptr);
  Element* script = nullptr;
  for (Element* child : head->ChildElements()) {
    if (child->tag_name() == "script" && child->id() == "rcb-snippet") {
      script = child;
    }
  }
  EXPECT_NE(script, nullptr);
  // And the host page's own head children are present too.
  EXPECT_NE(head->ChildByTag("title"), nullptr);
  EXPECT_NE(head->ChildByTag("style"), nullptr);
}

TEST_F(SnippetTest, RepeatedPollsNoChangeAreEmpty) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  uint64_t updates = snippet_->metrics().content_updates;
  loop_.RunFor(Duration::Seconds(5.0));
  EXPECT_EQ(snippet_->metrics().content_updates, updates);
  EXPECT_GT(snippet_->metrics().empty_responses, 2u);
}

TEST_F(SnippetTest, IdlePollsAreCountedAsWastedWithByteTotals) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  // Classic polling with no streamed transport in play: every empty round
  // trip is pure idle tax and must be accounted (DESIGN.md §15).
  uint64_t wasted_before = snippet_->metrics().wasted_polls;
  uint64_t bytes_before = snippet_->metrics().wasted_poll_bytes;
  loop_.RunFor(Duration::Seconds(5.0));
  uint64_t wasted = snippet_->metrics().wasted_polls - wasted_before;
  EXPECT_GT(wasted, 2u);
  EXPECT_EQ(snippet_->metrics().wasted_polls, snippet_->metrics().empty_responses);
  // Each wasted poll carries at least its request line + form body + the
  // empty 200 response — well over 50 bytes of pure overhead.
  EXPECT_GT(snippet_->metrics().wasted_poll_bytes - bytes_before, wasted * 50);

  // A content-bearing poll is NOT wasted: mutate and re-check.
  uint64_t wasted_total = snippet_->metrics().wasted_polls;
  host_browser_->MutateDocument([](Document* document) {
    document->body()->SetAttribute("data-live", "1");
  });
  loop_.RunUntilCondition([&] {
    return participant_browser_->document()->body()->AttrOr("data-live") == "1";
  });
  // The poll that delivered the mutation did not bump the wasted counter
  // (intervening empty polls may have).
  EXPECT_LE(snippet_->metrics().wasted_polls - wasted_total, 2u);
  EXPECT_LT(snippet_->metrics().wasted_polls,
            snippet_->metrics().polls_sent);
}

TEST_F(SnippetTest, SecondNavigationReplacesContent) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate("/");
  WaitForUpdate();
  HostNavigate("/two");
  loop_.RunUntilCondition(
      [&] { return participant_browser_->document()->Title() == "Page2"; });
  EXPECT_EQ(participant_browser_->document()->ById("p"), nullptr);
  EXPECT_NE(participant_browser_->document()->body()->TextContent().find(
                "content2"),
            std::string::npos);
}

TEST_F(SnippetTest, DynamicMutationSynchronized) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  host_browser_->MutateDocument([](Document* document) {
    Element* p = document->ById("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("ajax-updated"));
  });
  loop_.RunUntilCondition([&] {
    Element* p = participant_browser_->document()->ById("p");
    return p != nullptr && p->TextContent() == "ajax-updated";
  });
  SUCCEED();
}

TEST_F(SnippetTest, ReapplyingTheSameSnapshotKeepsTheBody) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Document* doc = participant_browser_->document();
  Element* body = doc->body();
  Element* p = doc->ById("p");
  ASSERT_NE(p, nullptr);
  uint64_t body_rev = body->rev();
  uint64_t updates = snippet_->metrics().content_updates;
  // A change notification without a change: the next poll carries the same
  // content under a newer doc time, and Fig. 5 applies it again. Step 4
  // assigns the body's unchanged attributes and reconciles its unchanged
  // children, so the body keeps its nodes and its rev.
  host_browser_->MutateDocument([](Document*) {});
  loop_.RunUntilCondition(
      [&] { return snippet_->metrics().content_updates > updates; });
  ASSERT_EQ(participant_browser_->document(), doc);
  EXPECT_EQ(doc->body(), body);
  EXPECT_EQ(body->rev(), body_rev);
  EXPECT_EQ(doc->ById("p"), p);
  EXPECT_EQ(body->AttrOr("class"), "c1");
}

TEST_F(SnippetTest, SupplementaryObjectsFetchedNonCacheMode) {
  AgentConfig config;
  config.cache_mode = false;
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  bool objects_done = false;
  snippet_->SetObjectsLoadedListener([&](Duration) { objects_done = true; });
  loop_.RunUntilCondition([&] { return objects_done; });
  EXPECT_EQ(snippet_->metrics().last_object_count, 1u);
  EXPECT_EQ(snippet_->metrics().last_objects_from_host, 0u);  // origin-served
  EXPECT_EQ(snippet_->metrics().object_fetch_failures, 0u);
}

TEST_F(SnippetTest, SupplementaryObjectsFetchedFromHostInCacheMode) {
  AgentConfig config;
  config.cache_mode = true;
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  bool objects_done = false;
  snippet_->SetObjectsLoadedListener([&](Duration) { objects_done = true; });
  loop_.RunUntilCondition([&] { return objects_done; });
  EXPECT_EQ(snippet_->metrics().last_object_count, 1u);
  EXPECT_EQ(snippet_->metrics().last_objects_from_host, 1u);  // agent-served
  EXPECT_EQ(snippet_->metrics().object_fetch_failures, 0u);
  EXPECT_GT(agent_->metrics().object_requests, 0u);
}

TEST_F(SnippetTest, CacheModeWorksWithoutOriginConnectivity) {
  // The participant cannot reach the origin at all (§3.1 step 8 benefit).
  network_.BlockRoute("participant-pc", "www.origin.test");
  AgentConfig config;
  config.cache_mode = true;
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  bool objects_done = false;
  snippet_->SetObjectsLoadedListener([&](Duration) { objects_done = true; });
  loop_.RunUntilCondition([&] { return objects_done; });
  EXPECT_EQ(snippet_->metrics().object_fetch_failures, 0u);
  EXPECT_EQ(participant_browser_->document()->Title(), "Page1");
}

TEST_F(SnippetTest, NonCacheModeFailsWithoutOriginConnectivity) {
  network_.BlockRoute("participant-pc", "www.origin.test");
  AgentConfig config;
  config.cache_mode = false;
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  bool objects_done = false;
  snippet_->SetObjectsLoadedListener([&](Duration) { objects_done = true; });
  loop_.RunUntilCondition([&] { return objects_done; });
  EXPECT_GT(snippet_->metrics().object_fetch_failures, 0u);
}

// ---- Object discovery at the cost of the change (§3.2.2) -----------------

TEST_F(SnippetTest, NoOpUpdateRequestsNoObjects) {
  JoinAndLoadFirstPage();
  EXPECT_EQ(object_requests_, std::vector<std::string>{"/a.png"});

  // Same content under a newer doc time: the apply restamps nothing, so
  // there is nothing to walk and nothing to request.
  uint64_t updates = snippet_->metrics().content_updates;
  host_browser_->MutateDocument([](Document*) {});
  WaitForObjects(updates);
  EXPECT_EQ(object_requests_, std::vector<std::string>{"/a.png"});
  EXPECT_EQ(snippet_->metrics().last_object_count, 0u);
  EXPECT_EQ(snippet_->metrics().last_object_time, Duration::Zero());
  EXPECT_EQ(snippet_->object_watermark(),
            participant_browser_->document()->rev());
}

TEST_F(SnippetTest, NewImageInTheBodyRequestsOnlyThatImage) {
  JoinAndLoadFirstPage();
  uint64_t updates = snippet_->metrics().content_updates;
  host_browser_->MutateDocument([](Document* document) {
    Element* body = document->body();
    auto img = MakeElement("img");
    img->SetAttribute("src", "/img/new.png");
    body->InsertChildAt(body->child_count() / 2, std::move(img));
  });
  WaitForObjects(updates);
  EXPECT_EQ(object_requests_,
            (std::vector<std::string>{"/a.png", "/img/new.png"}));
  EXPECT_EQ(snippet_->metrics().last_object_count, 1u);
  EXPECT_EQ(snippet_->metrics().object_fetch_failures, 0u);
}

TEST_F(SnippetTest, LeaveResetsTheWatermarkAndARejoinWalksTheWholePage) {
  JoinAndLoadFirstPage();
  EXPECT_NE(snippet_->object_watermark(), 0u);

  snippet_->Leave();
  EXPECT_EQ(snippet_->object_watermark(), 0u);
  // The rejoin loads a brand-new agent page; its first snapshot's objects
  // are requested again, although the page did not change.
  uint64_t updates = snippet_->metrics().content_updates;
  bool joined = false;
  snippet_->Join(agent_->AgentUrl(), [&](Status status) {
    ASSERT_TRUE(status.ok());
    joined = true;
  });
  loop_.RunUntilCondition([&] { return joined; });
  WaitForObjects(updates);
  EXPECT_EQ(object_requests_,
            (std::vector<std::string>{"/a.png", "/a.png"}));
  EXPECT_EQ(snippet_->metrics().last_object_count, 1u);
}

// A scripted agent on host-pc:3000 hands the snippet a patch whose target
// digest is wrong: the patch is applied, refused and rolled back, and the
// watermark stays where the last walk left it. The resync's full snapshot
// then walks the whole page and requests the unchanged image again.
TEST_F(SnippetTest, RolledBackPatchKeepsTheWatermarkAndResyncWalksThePage) {
  SiteServer agent(&loop_, &network_, "host-pc", 3000);
  std::deque<std::string> replies;
  std::vector<PollRequest> polls;
  agent.Route("/", [&](const HttpRequest& request) {
    if (request.method == HttpMethod::kGet) {
      return HttpResponse::Ok(
          "text/html",
          "<html><head><script id=\"rcb-snippet\"></script>"
          "<meta name=\"rcb-pid\" content=\"p1\">"
          "<meta name=\"rcb-poll-interval\" content=\"100\"></head>"
          "<body></body></html>");
    }
    polls.push_back(DecodePollRequest(request.body).value());
    std::string body;
    if (!replies.empty()) {
      body = std::move(replies.front());
      replies.pop_front();
    }
    return HttpResponse::Ok("text/xml", body);
  });
  auto snapshot = [](int64_t doc_time_ms, const std::string& body) {
    Snapshot out;
    out.doc_time_ms = doc_time_ms;
    out.has_content = true;
    out.body = ElementPayload{"body", {}, body};
    return out;
  };
  const std::string image = "<img src=\"http://www.origin.test/a.png\">";
  const Snapshot v1 = snapshot(1000, image + "<p>one</p>");
  const Snapshot v2 = snapshot(
      2000, image + "<p>two</p><img src=\"http://www.origin.test/img/b.png\">");
  const Snapshot v3 = snapshot(3000, image + "<p>three</p>");
  std::unique_ptr<Element> base = MaterializeSnapshotTree(v1);
  std::unique_ptr<Element> target = MaterializeSnapshotTree(v2);
  delta::PatchEnvelope bad;
  bad.patch.base_doc_time_ms = 1000;
  bad.patch.target_doc_time_ms = 2000;
  bad.patch.base_digest = delta::TreeDigest(*base);
  bad.patch.target_digest = bad.patch.base_digest;  // not what the ops give
  bad.patch.ops = delta::DiffTrees(*base, *target);
  ASSERT_FALSE(bad.patch.ops.empty());
  replies = {SerializeSnapshotXml(v1), delta::SerializePatchXml(bad),
             SerializeSnapshotXml(v3)};

  SnippetConfig config;
  config.enable_delta = true;
  config.enable_trace = true;
  snippet_ = std::make_unique<AjaxSnippet>(participant_browser_.get(), config);
  LogObjectRequests();
  bool joined = false;
  snippet_->Join(Url::Make("http", "host-pc", 3000, "/"), [&](Status status) {
    ASSERT_TRUE(status.ok());
    joined = true;
  });
  loop_.RunUntilCondition([&] { return joined; });
  WaitForObjects(0);
  EXPECT_EQ(object_requests_, std::vector<std::string>{"/a.png"});
  Document* document = participant_browser_->document();
  const uint64_t watermark = snippet_->object_watermark();
  EXPECT_EQ(watermark, document->rev());

  loop_.RunUntilCondition(
      [&] { return snippet_->metrics().patch_digest_mismatches > 0; });
  EXPECT_EQ(snippet_->metrics().patch_digest_mismatches, 1u);
  EXPECT_EQ(snippet_->metrics().patches_applied, 0u);
  // It failed at the target gate, after its ops ran: a rollback.
  std::vector<std::string> rejections;
  for (const obs::TraceEvent& event : snippet_->trace_log().Events()) {
    if (event.name == "snippet.patch_rejected") {
      for (const auto& [key, value] : event.attrs) {
        if (key == "result") {
          rejections.push_back(value);
        }
      }
    }
  }
  EXPECT_EQ(rejections, std::vector<std::string>{"target_digest_mismatch"});
  EXPECT_EQ(snippet_->object_watermark(), watermark);
  EXPECT_EQ(document->body()->FindAll("img").size(), 1u);  // rolled back
  EXPECT_EQ(object_requests_, std::vector<std::string>{"/a.png"});

  uint64_t updates = snippet_->metrics().content_updates;
  WaitForObjects(updates);
  EXPECT_EQ(snippet_->metrics().resyncs, 1u);
  ASSERT_EQ(polls.size(), 3u);
  EXPECT_TRUE(polls[2].resync);
  EXPECT_EQ(object_requests_,
            (std::vector<std::string>{"/a.png", "/a.png"}));
  EXPECT_EQ(snippet_->metrics().last_object_count, 1u);
}

TEST_F(SnippetTest, PatchVerdictsCountAndResyncAsTheirBranchSays) {
  // One reply per verdict after a v1 snapshot: each is counted, leaves the
  // document as v1 left it, and only the resync verdicts make the next poll
  // ask for a full snapshot (resync=1, no patch=1) and fire patch_resync.
  Snapshot v1;
  v1.doc_time_ms = 1000;
  v1.has_content = true;
  v1.body = ElementPayload{"body", {}, "<p>one</p>"};
  Snapshot v2 = v1;
  v2.doc_time_ms = 2000;
  v2.body->inner_html = "<p>two</p>";
  std::unique_ptr<Element> base = MaterializeSnapshotTree(v1);
  std::unique_ptr<Element> target = MaterializeSnapshotTree(v2);
  auto patch = [&](int64_t base_ms, int64_t target_ms) {
    delta::PatchEnvelope envelope;
    envelope.patch.base_doc_time_ms = base_ms;
    envelope.patch.target_doc_time_ms = target_ms;
    envelope.patch.base_digest = delta::TreeDigest(*base);
    envelope.patch.target_digest = delta::TreeDigest(*target);
    envelope.patch.ops = delta::DiffTrees(*base, *target);
    return envelope;
  };
  delta::PatchEnvelope failing = patch(1000, 2000);
  delta::PatchOp out_of_range;
  out_of_range.type = delta::PatchOpType::kRemove;
  out_of_range.index = 999;
  failing.patch.ops = {out_of_range};
  const std::string good = delta::SerializePatchXml(patch(1000, 2000));
  ASSERT_NE(good.find("<baseTime>1000</baseTime>"), std::string::npos);

  struct Case {
    const char* name;
    std::string reply;
    uint64_t SnippetMetrics::*counter;
    bool resync;
    uint64_t patch_resync_triggers;
  };
  const Case cases[] = {
      {"stale", delta::SerializePatchXml(patch(500, 1000)),
       &SnippetMetrics::patches_stale_ignored, false, 0},
      {"base_time", delta::SerializePatchXml(patch(900, 2000)),
       &SnippetMetrics::patch_base_mismatches, true, 1},
      {"apply_error", delta::SerializePatchXml(failing),
       &SnippetMetrics::patch_apply_errors, true, 1},
      // A body that does not parse resyncs like any refused patch.
      {"malformed",
       StrReplaceAll(good, "<baseTime>1000</baseTime>",
                     "<baseTime>1000x</baseTime>"),
       &SnippetMetrics::patch_apply_errors, true, 1},
  };
  uint16_t port = 3100;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto agent = ServeFakeAgent(++port, "100");
    agent->replies = {SerializeSnapshotXml(v1), c.reply};
    Browser browser(&loop_, &network_, "participant-pc");
    auto snippet = JoinFakeAgent(&browser, port);
    ASSERT_TRUE(loop_.RunUntilCondition(
        [&] { return snippet->metrics().content_updates == 1; }));
    const std::string before = SerializeNode(*browser.document()->body());
    ASSERT_TRUE(loop_.RunUntilCondition(
        [&] { return agent->polls.size() == 3; }));

    EXPECT_EQ(snippet->metrics().*c.counter, 1u);
    EXPECT_EQ(snippet->metrics().patches_applied, 0u);
    EXPECT_EQ(snippet->doc_time_ms(), 1000);
    EXPECT_EQ(SerializeNode(*browser.document()->body()), before);
    EXPECT_EQ(agent->polls[2].resync, c.resync);
    EXPECT_EQ(agent->polls[2].patch, !c.resync);
    EXPECT_EQ(snippet->flight_recorder().triggers("patch_resync"),
              c.patch_resync_triggers);
    snippet->Leave();
  }
}

TEST_F(SnippetTest, MalformedAdvertisedIntervalIsIgnored) {
  // The interval keeps its default unless the advertised value is a
  // non-negative integer whose microseconds fit a Duration.
  const std::pair<const char*, Duration> cases[] = {
      {"250", Duration::Millis(250)},
      {"250x", Duration::Seconds(1.0)},
      {"", Duration::Seconds(1.0)},
      {"-250", Duration::Seconds(1.0)},
      {"9223372036854776", Duration::Seconds(1.0)},
      {"99999999999999999999", Duration::Seconds(1.0)}};
  uint16_t port = 3200;
  for (const auto& [advertised, interval] : cases) {
    auto agent = ServeFakeAgent(++port, advertised);
    Browser browser(&loop_, &network_, "participant-pc");
    auto snippet = JoinFakeAgent(&browser, port);
    EXPECT_EQ(snippet->poll_interval(), interval) << advertised;
    snippet->Leave();
  }
}

TEST_F(SnippetTest, ClickRejectsAnRcbIdAnIntCannotHold) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Element* anchor = participant_browser_->document()->ById("l");
  ASSERT_NE(anchor, nullptr);
  for (const char* id : {"2147483648", "4294967297", "99999999999999999999"}) {
    anchor->SetAttribute("data-rcb-id", id);
    EXPECT_EQ(snippet_->ClickElement(anchor).code(),
              StatusCode::kFailedPrecondition)
        << id;
  }
  anchor->SetAttribute("data-rcb-id", "2147483647");
  EXPECT_TRUE(snippet_->ClickElement(anchor).ok());
}

TEST_F(SnippetTest, ClickQueuedAndAppliedOnHost) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Element* anchor = participant_browser_->document()->ById("l");
  ASSERT_NE(anchor, nullptr);
  // The synchronized element carries the rewritten handler + rcb id.
  EXPECT_EQ(anchor->AttrOr("onclick"), "return rcbClick(this)");
  ASSERT_TRUE(snippet_->ClickElement(anchor).ok());
  snippet_->PollNow();
  loop_.RunUntilCondition(
      [&] { return host_browser_->document()->Title() == "Page2"; });
  // ... and the new page flows back to the participant.
  loop_.RunUntilCondition(
      [&] { return participant_browser_->document()->Title() == "Page2"; });
  SUCCEED();
}

TEST_F(SnippetTest, ClickOnNonSynchronizedElementFails) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  // Initial page elements carry no data-rcb-id.
  Element* form = participant_browser_->document()->ById("rcb-join");
  ASSERT_NE(form, nullptr);
  EXPECT_EQ(snippet_->ClickElement(form).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(snippet_->ClickElement(nullptr).ok());
}

TEST_F(SnippetTest, FormCoFillFlowsToHost) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Element* form = participant_browser_->document()->ById("f");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(snippet_->FillFormField(form, "q", "participant text").ok());
  // Local echo.
  EXPECT_EQ(form->FindFirst("input")->AttrOr("value"), "participant text");
  snippet_->PollNow();
  loop_.RunUntilCondition([&] {
    Element* host_form = host_browser_->document()->ById("f");
    return host_form != nullptr &&
           host_form->FindFirst("input")->AttrOr("value") == "participant text";
  });
  SUCCEED();
}

TEST_F(SnippetTest, FormSubmitFromParticipantNavigatesHost) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  Element* form = participant_browser_->document()->ById("f");
  ASSERT_TRUE(snippet_->FillFormField(form, "q", "find me").ok());
  ASSERT_TRUE(snippet_->SubmitForm(form).ok());
  snippet_->PollNow();
  loop_.RunUntilCondition(
      [&] { return host_browser_->document()->Title() == "Searched:find me"; });
  SUCCEED();
}

TEST_F(SnippetTest, RequestNavigateDrivesHost) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  snippet_->RequestNavigate("http://www.origin.test/two");
  snippet_->PollNow();
  loop_.RunUntilCondition(
      [&] { return host_browser_->document()->Title() == "Page2"; });
  SUCCEED();
}

TEST_F(SnippetTest, MouseMirroredToOtherParticipant) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  network_.AddHost("participant-pc-2", {});
  Browser browser2(&loop_, &network_, "participant-pc-2");
  AjaxSnippet snippet2(&browser2, {});
  bool joined2 = false;
  snippet2.Join(agent_->AgentUrl(), [&](Status) { joined2 = true; });
  loop_.RunUntilCondition([&] { return joined2; });

  std::vector<UserAction> received;
  snippet2.SetActionListener(
      [&](const UserAction& action) { received.push_back(action); });

  snippet_->SendMouseMove(42, 17);
  snippet_->PollNow();
  loop_.RunUntilCondition([&] { return !received.empty(); });
  EXPECT_EQ(received[0].type, ActionType::kMouseMove);
  EXPECT_EQ(received[0].x, 42);
  EXPECT_EQ(received[0].origin, snippet_->participant_id());
}

TEST_F(SnippetTest, AuthenticatedSessionEndToEnd) {
  AgentConfig agent_config;
  agent_config.session_key = "sharedsessionkey";
  StartAgent(agent_config);
  SnippetConfig snippet_config;
  snippet_config.session_key = "sharedsessionkey";
  ASSERT_TRUE(Join(snippet_config).ok());
  HostNavigate();
  WaitForUpdate();
  EXPECT_EQ(participant_browser_->document()->Title(), "Page1");
  EXPECT_EQ(snippet_->metrics().auth_rejections, 0u);
  EXPECT_EQ(agent_->metrics().auth_failures, 0u);
}

TEST_F(SnippetTest, WrongKeyRejectedByAgent) {
  AgentConfig agent_config;
  agent_config.session_key = "rightkey";
  StartAgent(agent_config);
  SnippetConfig snippet_config;
  snippet_config.session_key = "wrongkey";
  ASSERT_TRUE(Join(snippet_config).ok());  // initial page is unauthenticated
  HostNavigate();
  loop_.RunFor(Duration::Seconds(3.0));
  EXPECT_GT(snippet_->metrics().auth_rejections, 0u);
  EXPECT_EQ(snippet_->metrics().content_updates, 0u);
  EXPECT_NE(participant_browser_->document()->Title(), "Page1");
}

TEST_F(SnippetTest, LeaveStopsPolling) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  uint64_t polls = snippet_->metrics().polls_sent;
  snippet_->Leave();
  EXPECT_FALSE(snippet_->joined());
  loop_.RunFor(Duration::Seconds(5.0));
  // Exactly one extra request: the fire-and-forget goodbye.
  EXPECT_EQ(snippet_->metrics().polls_sent, polls + 1);
}

// A snippet destroyed with a poll and object fetches in flight: their
// callbacks resolve after it is gone and must not read it (under ASan a
// read of the freed snippet fails the test).
TEST_F(SnippetTest, DestroyedWithPollAndObjectFetchesInFlight) {
  AgentConfig config;
  config.cache_mode = false;  // objects come from the origin, slowed below
  StartAgent(config);
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  origin_->set_processing_delay(Duration::Seconds(5.0));
  loop_.RunUntilCondition(
      [&] { return snippet_->metrics().content_updates > 0; });
  ASSERT_EQ(snippet_->metrics().last_object_count, 1u);  // /a.png, held 5 s
  const uint64_t polls = snippet_->metrics().polls_sent;
  loop_.RunUntilCondition(
      [&] { return snippet_->metrics().polls_sent > polls; });
  snippet_.reset();  // the goodbye leaves as the poll and the fetch resolve
  loop_.RunFor(Duration::Seconds(10.0));
  EXPECT_TRUE(agent_->ConnectedParticipants().empty());
}

// The same for a snippet destroyed while its join is still loading.
TEST_F(SnippetTest, DestroyedWhileJoining) {
  StartAgent();
  snippet_ = std::make_unique<AjaxSnippet>(participant_browser_.get(),
                                           SnippetConfig{});
  bool joined = false;
  snippet_->Join(agent_->AgentUrl(), [&](Status) { joined = true; });
  snippet_.reset();
  loop_.RunFor(Duration::Seconds(5.0));
  EXPECT_FALSE(joined);
}

// Leave() while the join is still loading drops the join: it never
// completes, so no poll loop starts behind the caller's back.
TEST_F(SnippetTest, LeaveWhileJoiningNeverPolls) {
  StartAgent();
  snippet_ = std::make_unique<AjaxSnippet>(participant_browser_.get(),
                                           SnippetConfig{});
  bool join_callback = false;
  snippet_->Join(agent_->AgentUrl(), [&](Status) { join_callback = true; });
  snippet_->Leave();
  loop_.RunFor(Duration::Seconds(5.0));
  EXPECT_FALSE(snippet_->joined());
  EXPECT_FALSE(join_callback);
  EXPECT_EQ(snippet_->metrics().polls_sent, 0u);
  EXPECT_TRUE(agent_->ConnectedParticipants().empty());
}

TEST_F(SnippetTest, PollIntervalOverrideRespected) {
  StartAgent();  // agent advertises 1 s
  SnippetConfig config;
  config.poll_interval_override = Duration::Millis(200);
  ASSERT_TRUE(Join(config).ok());
  EXPECT_EQ(snippet_->poll_interval(), Duration::Millis(200));
  HostNavigate();
  WaitForUpdate();
  uint64_t polls_before = snippet_->metrics().polls_sent;
  loop_.RunFor(Duration::Seconds(2.0));
  // ~10 polls in 2 s at 200 ms (allowing response-time slack).
  uint64_t polls = snippet_->metrics().polls_sent - polls_before;
  EXPECT_GE(polls, 7u);
  EXPECT_LE(polls, 11u);
}

TEST_F(SnippetTest, ApplyMeasuresM6) {
  StartAgent();
  ASSERT_TRUE(Join().ok());
  HostNavigate();
  WaitForUpdate();
  EXPECT_GE(snippet_->metrics().last_apply_time.micros(), 0);
  EXPECT_LT(snippet_->metrics().last_apply_time, Duration::Seconds(1.0));
  EXPECT_GE(snippet_->metrics().total_apply_time,
            snippet_->metrics().last_apply_time);
}

// One clock per apply: the snippet.apply span the trace ring holds carries
// the very reading SnippetMetrics::last_apply_time reports, traced or not;
// its attributes are built only for a traced poll.
class ApplySpanTest : public SnippetTest,
                      public ::testing::WithParamInterface<bool> {};

TEST_P(ApplySpanTest, CarriesTheRecordedApplyTime) {
  const bool traced = GetParam();
  AgentConfig agent_config;
  agent_config.enable_trace = true;
  StartAgent(agent_config);
  SnippetConfig config;
  config.enable_trace = traced;
  ASSERT_TRUE(Join(config).ok());
  HostNavigate();
  WaitForUpdate();
  std::vector<obs::TraceEvent> applies;
  for (obs::TraceEvent& event : snippet_->trace_log().Events()) {
    if (event.name == "snippet.apply") {
      applies.push_back(std::move(event));
    }
  }
  ASSERT_EQ(applies.size(), snippet_->metrics().content_updates);
  EXPECT_EQ(applies.back().duration_us,
            snippet_->metrics().last_apply_time.micros());
  EXPECT_EQ(applies.back().provenance, obs::Provenance::kWall);
  EXPECT_EQ(applies.back().attrs.empty(), !traced);
}

INSTANTIATE_TEST_SUITE_P(TracedOffOn, ApplySpanTest, ::testing::Bool());

// ---- Fig. 5 apply against the four-step oracle ----------------------------

// The agent's initial page in miniature: the title comes before the
// bootstrap script, as in RcbAgent's.
constexpr char kParticipantPage[] =
    "<html><head><title>RCB co-browsing session</title>"
    "<script id=\"rcb-snippet\">/* snippet */</script>"
    "<meta name=\"rcb-pid\" content=\"p1\"></head>"
    "<body><h1>RCB co-browsing</h1><p>Waiting for the host.</p></body></html>";

// The snippet's path for one snapshot: serialized to the wire, parsed back
// into escaped payloads, and applied against what the document last took.
void ApplyOverTheWire(Document* document, const Snapshot& snapshot,
                      AppliedSnapshot* applied, uint64_t* spliced = nullptr,
                      uint64_t* rebuilt = nullptr) {
  StatusOr<SnapshotReply> reply =
      ParseSnapshotReply(SerializeSnapshotXml(snapshot));
  ASSERT_TRUE(reply.ok()) << reply.status();
  AjaxSnippet::ApplySnapshot(document, reply->payloads, applied, spliced,
                             rebuilt);
}

std::string CanonicalDigest(const Document& document) {
  return delta::TreeDigest(*delta::CanonicalizeDocument(document));
}

std::string DocumentBytes(const Document& document) {
  return SerializeNode(*document.document_element());
}

void CollectTexts(Node* node, std::vector<Text*>* out) {
  if (node->type() == NodeType::kText) {
    out->push_back(static_cast<Text*>(node));
  }
  for (const auto& child : node->children()) {
    CollectTexts(child.get(), out);
  }
}

// One step of a seeded edit schedule over the host page. Kinds: 0 text
// edit, 1 co-fill (an input's value), 2 attribute change, 3 head-child edit,
// 4 sibling insert, 5 sibling remove, 6 whole-body rewrite (to `rewrite`),
// 7 no-op.
void EditHostPage(Rng* rng, Document* document, int kind,
                  const std::string& rewrite) {
  Element* body = document->body();
  std::vector<Element*> elements{body};
  body->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  Element* victim = elements[rng->NextBelow(elements.size())];
  const std::string stamp = std::to_string(rng->NextBelow(1'000'000));
  switch (kind) {
    case 0: {
      std::vector<Text*> texts;
      CollectTexts(body, &texts);
      if (!texts.empty()) {
        Text* text = texts[rng->NextBelow(texts.size())];
        text->set_data(text->data() + " edit " + stamp);
      }
      break;
    }
    case 1: {
      std::vector<Element*> inputs = body->FindAll("input");
      Element* field = inputs.empty() ? victim
                                      : inputs[rng->NextBelow(inputs.size())];
      field->SetAttribute("value", "typed " + stamp);
      break;
    }
    case 2:
      victim->SetAttribute("class", "c" + stamp);
      break;
    case 3: {
      std::vector<Element*> head_children = document->head()->ChildElements();
      if (head_children.empty()) {
        break;
      }
      Element* child = head_children[rng->NextBelow(head_children.size())];
      std::vector<Text*> texts;
      CollectTexts(child, &texts);
      if (texts.empty()) {
        child->SetAttribute("data-edit", stamp);
      } else {
        texts[0]->set_data(texts[0]->data() + " " + stamp);
      }
      break;
    }
    case 4: {
      auto span = MakeElement("span");
      span->AppendChild(MakeText("new " + stamp));
      victim->InsertChildAt(rng->NextBelow(victim->child_count() + 1),
                            std::move(span));
      break;
    }
    case 5:
      if (victim->child_count() > 0) {
        victim->RemoveChild(
            victim->child_at(rng->NextBelow(victim->child_count())));
      }
      break;
    case 6:
      body->SetInnerHtml(rewrite);
      break;
    default:
      break;
  }
}

// Every node of a document by child-index path from its root element: the
// node, its rev, its subtree hash (delta::HashTree) and its ancestors' tags.
struct NodeState {
  const Node* node;
  uint64_t rev;
  uint64_t hash;
  std::string lineage;
};
using NodeStates = std::map<std::vector<size_t>, NodeState>;

void CollectStates(const Node& node, const delta::TreeHashes& hashes,
                   const std::string& lineage, std::vector<size_t>* path,
                   size_t* next, NodeStates* out) {
  (*out)[*path] = {&node, node.rev(), hashes.hash[(*next)++], lineage};
  const Element* element = node.AsElement();
  const std::string below =
      lineage + "/" + (element != nullptr ? element->tag_name() : "#");
  for (size_t i = 0; i < node.child_count(); ++i) {
    path->push_back(i);
    CollectStates(*node.child_at(i), hashes, below, path, next, out);
    path->pop_back();
  }
}

NodeStates StatesOf(const Document& document) {
  const Element& root = *document.document_element();
  NodeStates out;
  std::vector<size_t> path;
  size_t next = 0;
  CollectStates(root, delta::HashTree(root), "", &path, &next, &out);
  return out;
}

// The 20 Table 1 sites under seeded edit schedules, each snapshot applied to
// one participant document by the engine and to another by the oracle:
// after every step both serialize byte-equal and digest equal, and every
// node the step left alone (same path, same subtree, same ancestor tags)
// keeps its address and rev in the engine's document. The oracle rebuilds
// the head children on every apply; the engine must keep them too.
TEST(Fig5ApplyTest, Fig5EngineMatchesReferenceApply) {
  const std::vector<SiteSpec>& sites = Table1Sites();
  ASSERT_EQ(sites.size(), 20u);
  size_t kept = 0;
  size_t kept_in_head = 0;
  // Payloads spliced and rebuilt by edit kind; [8] is the first apply.
  uint64_t spliced[9] = {};
  uint64_t rebuilt[9] = {};
  for (uint64_t seed : {1u, 7u}) {
    Rng rng(seed);
    for (size_t site = 0; site < sites.size(); ++site) {
      const std::string rewrite =
          ParseDocument(
              GenerateHomepage(sites[(site + 1) % sites.size()]).html)
              ->body()
              ->InnerHtml();
      EventLoop loop;
      Network network(&loop);
      network.AddHost("host-pc", {});
      Browser host(&loop, &network, "host-pc");
      host.ReplaceDocument(ParseDocument(GenerateHomepage(sites[site]).html),
                           Url::Make("http", sites[site].host, 80, "/"));
      ContentGenerator generator(&host);
      ContentGenOptions options;
      options.agent_url = Url::Make("http", "host-pc", 3000, "/");
      std::unique_ptr<Document> engine = ParseDocument(kParticipantPage);
      std::unique_ptr<Document> oracle = ParseDocument(kParticipantPage);
      AppliedSnapshot applied;
      for (int step = 0; step <= 12; ++step) {
        const int kind = static_cast<int>(rng.NextBelow(8));
        const std::string where = sites[site].name + " seed " +
                                  std::to_string(seed) + " step " +
                                  std::to_string(step) + " kind " +
                                  std::to_string(kind);
        if (step > 0) {
          host.MutateDocument([&](Document* document) {
            EditHostPage(&rng, document, kind, rewrite);
          });
        }
        const Snapshot snapshot =
            generator.Generate(1000 * (step + 1), options).snapshot;
        const NodeStates before = StatesOf(*engine);
        ApplyOverTheWire(engine.get(), snapshot, &applied,
                         &spliced[step == 0 ? 8 : kind],
                         &rebuilt[step == 0 ? 8 : kind]);
        ReferenceApplySnapshot(oracle.get(), snapshot);
        ASSERT_EQ(DocumentBytes(*engine), DocumentBytes(*oracle)) << where;
        ASSERT_EQ(CanonicalDigest(*engine), CanonicalDigest(*oracle)) << where;
        const NodeStates after = StatesOf(*engine);
        for (const auto& [path, was] : before) {
          auto it = after.find(path);
          if (it == after.end() || it->second.hash != was.hash ||
              it->second.lineage != was.lineage) {
            continue;
          }
          ASSERT_EQ(it->second.node, was.node) << where;
          ASSERT_EQ(it->second.rev, was.rev) << where;
          ++kept;
          if (path.size() >= 2 && path[0] == 0) {
            ++kept_in_head;
          }
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(kept_in_head, 0u);
  // The splice ran: the two edit kinds e2e_bench makes (a text edit and a
  // co-fill) never rebuilt a payload whole here, and every kind but the
  // whole-body rewrite and the no-op spliced some.
  EXPECT_EQ(rebuilt[0] + rebuilt[1], 0u);
  for (int kind = 0; kind <= 5; ++kind) {
    EXPECT_GT(spliced[kind], 0u) << "kind " << kind;
  }
}

// Documents the agent's initial page does not produce, each applied a
// sequence of snapshots (body, frameset + noframes, neither, body again) by
// the engine and by the oracle. The canonical digests always agree, and so
// do the bytes except where the live top-level elements were out of order:
// the engine puts them in canonical order and the oracle leaves them. The
// engine always leaves [head, body?, frameset?, noframes?] under the root
// and the bootstrap script first in the head.
TEST(Fig5ApplyTest, EdgeShapesMatchTheReferenceDigest) {
  auto payload = [](std::string tag, std::string inner,
                    std::vector<std::pair<std::string, std::string>> attrs =
                        {}) {
    return ElementPayload{std::move(tag), std::move(attrs), std::move(inner)};
  };
  Snapshot with_body;
  with_body.head_children = {payload("title", "T1"),
                             payload("meta", "", {{"name", "a"}})};
  with_body.body = payload("body", "<p>one</p>", {{"class", "c"}});
  Snapshot with_frames;
  with_frames.head_children = {payload("title", "T2")};
  with_frames.frameset =
      payload("frameset", "<frame src=\"a.html\">", {{"cols", "50%,50%"}});
  with_frames.noframes = payload("noframes", "<p>no frames</p>");
  Snapshot with_neither;
  with_neither.head_children = {payload("title", "T3"),
                                payload("style", ".s{}")};
  for (Snapshot* snapshot : {&with_body, &with_frames, &with_neither}) {
    snapshot->has_content = true;
  }
  const std::vector<const Snapshot*> sequence = {
      &with_body, &with_frames, &with_neither, &with_body, &with_frames};

  struct Shape {
    const char* name;
    std::function<void(Element* root)> reshape;
    bool out_of_order;
  };
  const Shape shapes[] = {
      {"bootstrap script after the title", [](Element*) {}, false},
      {"no bootstrap script",
       [](Element* root) {
         Element* head = root->ChildByTag("head");
         head->RemoveChild(head->ChildByTag("script"));
       },
       false},
      {"no head",
       [](Element* root) { root->RemoveChild(root->ChildByTag("head")); },
       false},
      {"stray text, comment and unknown elements",
       [](Element* root) {
         root->InsertChildAt(0, MakeText("lead"));
         root->InsertChildAt(2, std::make_unique<Comment>("note"));
         root->AppendChild(MakeElement("aside"));
         root->AppendChild(MakeText("trail"));
       },
       false},
      {"body before head",
       [](Element* root) {
         root->InsertChildAt(0, root->RemoveChild(root->ChildByTag("body")));
       },
       true},
  };
  for (const Shape& shape : shapes) {
    std::unique_ptr<Document> engine = ParseDocument(kParticipantPage);
    shape.reshape(engine->document_element());
    std::unique_ptr<Document> oracle = engine->CloneDocument();
    AppliedSnapshot applied;
    for (size_t step = 0; step < sequence.size(); ++step) {
      const Snapshot& snapshot = *sequence[step];
      const std::string where =
          std::string(shape.name) + " step " + std::to_string(step);
      ApplyOverTheWire(engine.get(), snapshot, &applied);
      ReferenceApplySnapshot(oracle.get(), snapshot);
      EXPECT_EQ(CanonicalDigest(*engine), CanonicalDigest(*oracle)) << where;
      if (!shape.out_of_order) {
        EXPECT_EQ(DocumentBytes(*engine), DocumentBytes(*oracle)) << where;
      }
      std::vector<std::string> tags;
      for (const auto& child : engine->document_element()->children()) {
        tags.push_back(child->AsElement() != nullptr
                           ? child->AsElement()->tag_name()
                           : "#");
      }
      std::vector<std::string> want = {"head"};
      for (const auto* top :
           {&snapshot.body, &snapshot.frameset, &snapshot.noframes}) {
        if (top->has_value()) {
          want.push_back((*top)->tag);
        }
      }
      EXPECT_EQ(tags, want) << where;
      Node* first = engine->head()->first_child();
      ASSERT_NE(first, nullptr) << where;
      EXPECT_TRUE(delta::IsSnippetBootstrapScript(*first)) << where;
    }
  }
  // A document without a root element is left as it is.
  Document empty;
  AppliedSnapshot applied;
  ApplyOverTheWire(&empty, with_body, &applied);
  EXPECT_EQ(empty.child_count(), 0u);
}

// Every node under `node`, one line each: type, tag or data, attributes.
// Unlike the serialization it tells adjacent text nodes apart.
void DumpTree(const Node& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (const Element* element = node.AsElement()) {
    *out += "<" + element->tag_name();
    for (const auto& [name, value] : element->attributes()) {
      *out += " " + name + "=" + value;
    }
    *out += ">";
  } else if (node.type() == NodeType::kText) {
    *out += "#text " + static_cast<const Text&>(node).data();
  } else if (node.type() == NodeType::kComment) {
    *out += "#comment " + static_cast<const Comment&>(node).data();
  } else {
    *out += "#other";
  }
  *out += "\n";
  for (const auto& child : node.children()) {
    DumpTree(*child, depth + 1, out);
  }
}

std::string Dump(const Document& document) {
  std::string out;
  DumpTree(*document.document_element(), 0, &out);
  return out;
}

Snapshot BodySnapshot(std::string inner,
                      std::vector<std::pair<std::string, std::string>>
                          attributes = {}) {
  Snapshot snapshot;
  snapshot.has_content = true;
  snapshot.head_children = {ElementPayload{"title", {}, "T"}};
  snapshot.body = ElementPayload{"body", std::move(attributes), std::move(inner)};
  return snapshot;
}

// Applies `before` and then `after` to one page over the wire, so `after`
// splices against what `before` left, and `after` alone to a fresh page:
// the two pages are byte- and node-equal and digest like the oracle's.
// Adds the payloads the second apply spliced and rebuilt.
void ExpectSpliceEqualsFreshBuild(const Snapshot& before, const Snapshot& after,
                                  const std::string& where, uint64_t* spliced,
                                  uint64_t* rebuilt) {
  std::unique_ptr<Document> spliced_page = ParseDocument(kParticipantPage);
  AppliedSnapshot applied;
  ApplyOverTheWire(spliced_page.get(), before, &applied);
  ApplyOverTheWire(spliced_page.get(), after, &applied, spliced, rebuilt);
  std::unique_ptr<Document> fresh_page = ParseDocument(kParticipantPage);
  AppliedSnapshot fresh;
  ApplyOverTheWire(fresh_page.get(), after, &fresh);
  std::unique_ptr<Document> oracle = ParseDocument(kParticipantPage);
  ReferenceApplySnapshot(oracle.get(), after);
  EXPECT_EQ(DocumentBytes(*spliced_page), DocumentBytes(*fresh_page)) << where;
  EXPECT_EQ(Dump(*spliced_page), Dump(*fresh_page)) << where;
  EXPECT_EQ(CanonicalDigest(*spliced_page), CanonicalDigest(*oracle)) << where;
}

// Edits placed where a byte-span splice can go wrong: inside raw-text
// elements and comments, on entity and %XX boundaries, on the first and last
// byte, down to an empty payload, across implied end tags and unterminated
// constructs, and on the payload root's attributes.
TEST(Fig5ApplyTest, SpliceEqualsAFreshBuildOnAdversarialEdits) {
  struct Case {
    const char* name;
    std::string before;
    std::string after;
  };
  const std::string pre = "<h1>head</h1><div id=\"a\"><p>one</p>";
  const std::string post = "<p>two</p></div><p id=\"z\">tail</p>";
  const Case cases[] = {
      {"script", pre + "<script>var x = 1;</script>" + post,
       pre + "<script>var x = '</p>' + 2;</script>" + post},
      {"style", pre + "<style>.a{color:red}</style>" + post,
       pre + "<style>.a{color:blue} p<b>{}</style>" + post},
      {"textarea", pre + "<textarea name=\"t\">hello</textarea>" + post,
       pre + "<textarea name=\"t\">hello <b>not markup</b></textarea>" + post},
      {"title", pre + "<title>one</title>" + post,
       pre + "<title>one <i>two</i></title>" + post},
      {"comment", pre + "<!-- one --><b>x</b>" + post,
       pre + "<!-- one <b> two --><b>x</b>" + post},
      {"comment opened in the edit", pre + "<b>x</b>" + post,
       pre + "<b>x<!-- y</b>" + post + "-->"},
      {"entity", pre + "<b>a &amp; b</b>" + post,
       pre + "<b>a &lt; b &amp</b>" + post},
      {"entity split", pre + "<b>a &am</b>" + post,
       pre + "<b>a &amp;</b>" + post},
      {"escape unit", pre + "<b>x\"y</b>" + post, pre + "<b>x#y</b>" + post},
      {"escape unit on a tag", pre + "<b>x</b>" + post,
       pre + ">b>x</b>" + post},
      {"first byte", "a" + pre + post, "b" + pre + post},
      {"last byte", pre + post + "a", pre + post + "b"},
      {"to empty", pre + post, ""},
      {"from empty", "", pre + post},
      {"implied end of the straddler", pre + "<p>three</p>" + post,
       pre + "<p>three<div>x</div></p>" + post},
      {"implied list end", "<ul><li>a</li><li>b</li></ul>" + post,
       "<ul><li>a<li>c</li><li>b</li></ul>" + post},
      {"implied table end", "<table><tr><td>a</td></tr></table>" + post,
       "<table><tr><td>a<tr><td>b</td></tr></table>" + post},
      {"stray end tag", pre + "<span>a</span>" + post,
       pre + "<span>a</div></span>" + post},
      {"unclosed element", pre + "<span>a</span>" + post,
       pre + "<span>a<b>c</span>" + post},
      {"unterminated tag", pre + "<span>a</span>" + post,
       pre + "<span>a<b title=\"</span>" + post},
      {"raw text opened in the edit", pre + "<span>a</span>" + post,
       pre + "<span>a<script></span>" + post + "</script>"},
  };
  uint64_t spliced = 0;
  uint64_t rebuilt = 0;
  for (const Case& c : cases) {
    ExpectSpliceEqualsFreshBuild(BodySnapshot(c.before), BodySnapshot(c.after),
                                 c.name, &spliced, &rebuilt);
  }
  EXPECT_GT(spliced, 0u);
  EXPECT_GT(rebuilt, 0u);

  // The body's own attributes: a change that leaves its content in place
  // only shifts the spans, one that moves the content's first byte into the
  // old separator's unit must not.
  ExpectSpliceEqualsFreshBuild(BodySnapshot(pre + post, {{"class", "a"}}),
                               BodySnapshot(pre + post, {{"class", "bb"}}),
                               "root attributes", &spliced, &rebuilt);
  ExpectSpliceEqualsFreshBuild(BodySnapshot("yz", {{"x", "1"}}),
                               BodySnapshot("Fyz", {{"x", "2"}}),
                               "root attributes and a separator unit",
                               &spliced, &rebuilt);
}

// A "%u" unit, which the host's JsEscape never writes, takes the whole
// payload, whether it comes or goes.
TEST(Fig5ApplyTest, UnicodeEscapeTakesTheWholePayload) {
  auto payloads = [](std::string inner) {
    SnapshotEscaped escaped;
    escaped.has_content = true;
    escaped.body = EscapedPayload{"body%1F%1F" + inner, 0};
    return escaped;
  };
  const std::string plain = "%3Cp%3Eab%3C/p%3E%3Cp%3Ecd%3C/p%3E";
  const std::string wide = "%3Cp%3Eab%3C/p%3E%3Cp%3E%u0041d%3C/p%3E";
  const std::string wide_too = "%3Cp%3Eab%3C/p%3E%3Cp%3E%u0042d%3C/p%3E";
  for (const auto& [from, to] :
       {std::pair{plain, wide}, std::pair{wide, wide_too},
        std::pair{wide, plain}}) {
    std::unique_ptr<Document> page = ParseDocument(kParticipantPage);
    AppliedSnapshot applied;
    AjaxSnippet::ApplySnapshot(page.get(), payloads(from), &applied);
    uint64_t spliced = 0;
    uint64_t rebuilt = 0;
    AjaxSnippet::ApplySnapshot(page.get(), payloads(to), &applied, &spliced,
                               &rebuilt);
    std::unique_ptr<Document> fresh = ParseDocument(kParticipantPage);
    AppliedSnapshot fresh_applied;
    AjaxSnippet::ApplySnapshot(fresh.get(), payloads(to), &fresh_applied);
    EXPECT_EQ(Dump(*page), Dump(*fresh)) << from << " -> " << to;
    EXPECT_EQ(rebuilt, 1u) << from << " -> " << to;
    EXPECT_EQ(spliced, 0u) << from << " -> " << to;
  }
}

// An interactive element inserted near the top renumbers every later
// data-rcb-id, so the changed bytes run from it to the page's last
// interactive element; the apply still equals a fresh one.
TEST(Fig5ApplyTest, RenumberingInsertEqualsAFreshBuild) {
  uint64_t spliced = 0;
  uint64_t rebuilt = 0;
  for (const SiteSpec& spec : Table1Sites()) {
    EventLoop loop;
    Network network(&loop);
    network.AddHost("host-pc", {});
    Browser host(&loop, &network, "host-pc");
    host.ReplaceDocument(ParseDocument(GenerateHomepage(spec).html),
                         Url::Make("http", spec.host, 80, "/"));
    ContentGenerator generator(&host);
    ContentGenOptions options;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    const Snapshot before = generator.Generate(1000, options).snapshot;
    host.MutateDocument([](Document* document) {
      auto link = MakeElement("a");
      link->SetAttribute("href", "/new");
      link->AppendChild(MakeText("new"));
      Element* body = document->body();
      body->InsertChildAt(body->child_count() > 0 ? 1 : 0, std::move(link));
    });
    const Snapshot after = generator.Generate(2000, options).snapshot;
    ASSERT_NE(before.body->inner_html, after.body->inner_html);
    ExpectSpliceEqualsFreshBuild(before, after, spec.name, &spliced, &rebuilt);
  }
  EXPECT_EQ(spliced + rebuilt, 20u);
}

// ---- Object discovery against a full walk, over the Table 1 corpus --------

// Elements under `root` that carry a supplementary-object URL, in the
// sense of CollectResources.
std::vector<Element*> UrlCarriers(Element* root) {
  std::vector<Element*> out;
  root->ForEachElement([&](Element* element) {
    std::string attr;
    if (UrlAttributeFor(*element, &attr) &&
        !SupplementaryKindFor(*element).empty()) {
      out.push_back(element);
    }
    return true;
  });
  return out;
}

// One step of a seeded schedule that moves object URLs on the host page.
// Kinds: 0 text edit, 1 co-fill, 2 URL change on an img, link or script,
// 3 sibling insert of URL-carrying elements, 4 removal of one, 5 head-child
// edit (a new stylesheet, or EditHostPage's), 6 whole-body rewrite, 7 no-op.
void EditHostUrls(Rng* rng, Document* document, int kind,
                  const std::string& rewrite) {
  const std::string stamp = std::to_string(rng->NextBelow(1'000'000));
  switch (kind) {
    case 0:
    case 1:
      EditHostPage(rng, document, kind, rewrite);
      break;
    case 2: {
      std::vector<Element*> carriers;
      for (Element* element : UrlCarriers(document->document_element())) {
        const std::string& tag = element->tag_name();
        if (tag == "img" || tag == "link" || tag == "script") {
          carriers.push_back(element);
        }
      }
      if (carriers.empty()) {
        break;
      }
      Element* element = carriers[rng->NextBelow(carriers.size())];
      if (element->tag_name() == "link") {
        element->SetAttribute("href", "/css/edit" + stamp + ".css");
      } else {
        element->SetAttribute("src", "/img/edit" + stamp + ".png");
      }
      break;
    }
    case 3: {
      std::vector<Element*> parents{document->body()};
      document->body()->ForEachElement([&](Element* element) {
        parents.push_back(element);
        return true;
      });
      Element* parent = parents[rng->NextBelow(parents.size())];
      auto wrapper = MakeElement("p");
      auto image = MakeElement("img");
      image->SetAttribute("src", "/img/deep" + stamp + ".png");
      wrapper->AppendChild(std::move(image));
      auto script = MakeElement("script");
      script->SetAttribute("src", "/js/new" + stamp + ".js");
      size_t at = rng->NextBelow(parent->child_count() + 1);
      parent->InsertChildAt(at, std::move(wrapper));
      parent->InsertChildAt(at + 1, std::move(script));
      break;
    }
    case 4: {
      std::vector<Element*> carriers;
      for (Element* element : UrlCarriers(document->document_element())) {
        if (element != document->body()) {
          carriers.push_back(element);
        }
      }
      if (!carriers.empty()) {
        Element* victim = carriers[rng->NextBelow(carriers.size())];
        victim->parent()->RemoveChild(victim);
      }
      break;
    }
    case 5:
      if (rng->NextBelow(2) == 0) {
        auto link = MakeElement("link");
        link->SetAttribute("rel", "stylesheet");
        link->SetAttribute("href", "/css/head" + stamp + ".css");
        document->head()->AppendChild(std::move(link));
      } else {
        EditHostPage(rng, document, 3, rewrite);
      }
      break;
    case 6:
      EditHostPage(rng, document, 6, rewrite);
      break;
    default:
      break;
  }
}

// After every applied update, every object a full walk of the participant
// page finds on an element that is new, or restamped, since the previous
// update's check was requested from the origin in between: the pruned walk
// misses nothing that appeared or changed its URL. Parameter: delta on.
class ObjectDiscoveryTest : public ::testing::TestWithParam<bool> {};

TEST_P(ObjectDiscoveryTest, EveryNewObjectIsRequestedAfterItsUpdate) {
  const bool delta = GetParam();
  const std::vector<SiteSpec>& sites = Table1Sites();
  size_t demanded = 0;  // objects checked after an edit, over all sites
  for (size_t site = 0; site < sites.size(); ++site) {
    const SiteSpec& spec = sites[site];
    const std::string rewrite =
        ParseDocument(GenerateHomepage(sites[(site + 1) % sites.size()]).html)
            ->body()
            ->InnerHtml();
    EventLoop loop;
    Network network(&loop);
    for (const std::string& host : {std::string("host-pc"),
                                    std::string("participant-pc"), spec.host}) {
      network.AddHost(host, {});
    }
    network.SetLatency("host-pc", "participant-pc", Duration::Millis(1));
    network.SetLatency("host-pc", spec.host, Duration::Millis(1));
    network.SetLatency("participant-pc", spec.host, Duration::Millis(1));
    SiteServer origin(&loop, &network, spec.host);
    origin.ServeStatic("/", "text/html", GenerateHomepage(spec).html);
    std::vector<std::string> requests;  // object request targets, in order
    origin.SetDefaultHandler([&](const HttpRequest& request) {
      requests.push_back(request.target);
      return HttpResponse::Ok("application/octet-stream", "x");
    });

    Browser host(&loop, &network, "host-pc");
    AgentConfig agent_config;
    agent_config.cache_mode = false;  // objects stay origin URLs
    agent_config.enable_delta = delta;
    agent_config.poll_interval = Duration::Millis(100);
    RcbAgent agent(&host, agent_config);
    ASSERT_TRUE(agent.Start().ok());
    bool loaded = false;
    host.Navigate(Url::Make("http", spec.host, 80, "/"),
                  [&](const Status&, const PageLoadStats&) { loaded = true; });
    loop.RunUntilCondition([&] { return loaded; });

    Browser participant(&loop, &network, "participant-pc");
    participant.set_cache_enabled(false);  // every object fetch is logged
    SnippetConfig snippet_config;
    snippet_config.enable_delta = delta;
    AjaxSnippet snippet(&participant, snippet_config);
    uint64_t objects_loaded = 0;
    snippet.SetObjectsLoadedListener([&](Duration) { ++objects_loaded; });
    requests.clear();  // the host's own page load
    snippet.Join(agent.AgentUrl(), [](Status status) {
      ASSERT_TRUE(status.ok());
    });

    std::set<std::pair<const Element*, uint64_t>> seen;  // (element, rev)
    size_t checked = 0;  // requests before the last check
    Rng rng(site * 2 + (delta ? 1 : 0));
    for (int step = 0; step <= 24; ++step) {
      const int kind = step == 0 ? -1 : static_cast<int>(rng.NextBelow(8));
      const std::string where = spec.name + (delta ? " delta" : "") +
                                " step " + std::to_string(step) + " kind " +
                                std::to_string(kind);
      const uint64_t updates = snippet.metrics().content_updates;
      if (kind >= 0) {
        host.MutateDocument([&](Document* document) {
          EditHostUrls(&rng, document, kind, rewrite);
        });
      }
      const SimTime deadline = loop.now() + Duration::Seconds(30.0);
      loop.RunUntilCondition([&] {
        const uint64_t applied = snippet.metrics().content_updates;
        return (applied > updates && objects_loaded == applied) ||
               loop.now() > deadline;
      });
      ASSERT_GT(snippet.metrics().content_updates, updates) << where;
      ASSERT_EQ(objects_loaded, snippet.metrics().content_updates) << where;

      const std::set<std::string> since(requests.begin() + checked,
                                        requests.end());
      Document* document = participant.document();
      for (const ResourceRef& ref :
           CollectResources(document, participant.current_url(), 0)) {
        if (seen.count({ref.element, ref.element->rev()}) > 0) {
          continue;
        }
        demanded += step > 0 ? 1 : 0;
        EXPECT_EQ(ref.url.host(), spec.host) << where;
        EXPECT_EQ(since.count(ref.url.PathAndQuery()), 1u)
            << where << ": " << ref.url.ToString() << " never requested";
      }
      seen.clear();
      document->ForEachElement([&](Element* element) {
        seen.insert({element, element->rev()});
        return true;
      });
      checked = requests.size();
    }
    EXPECT_EQ(snippet.metrics().object_fetch_failures, 0u) << spec.name;
    EXPECT_EQ(snippet.metrics().resyncs, 0u) << spec.name;
    snippet.Leave();
  }
  // The schedules did bring objects in after the first snapshot.
  EXPECT_GT(demanded, 100u);
}

INSTANTIATE_TEST_SUITE_P(DeltaOffOn, ObjectDiscoveryTest,
                         ::testing::Bool());

}  // namespace
}  // namespace rcb
