// Tests for Ajax-Snippet: joining, the poll loop, the Fig. 5 apply
// procedure, action queueing, and supplementary-object fetching.
#include <gtest/gtest.h>

#include "src/core/ajax_snippet.h"
#include "src/core/rcb_agent.h"
#include "src/sites/site_server.h"

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

  // Runs until the participant holds content version >= the agent's.
  void WaitForUpdate() {
    loop_.RunUntilCondition([&] {
      return snippet_->doc_time_ms() >= 0 &&
             snippet_->metrics().content_updates > 0;
    });
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> origin_;
  std::unique_ptr<Browser> host_browser_;
  std::unique_ptr<Browser> participant_browser_;
  std::unique_ptr<RcbAgent> agent_;
  std::unique_ptr<AjaxSnippet> snippet_;
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

}  // namespace
}  // namespace rcb
