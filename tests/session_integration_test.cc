// End-to-end co-browsing sessions over the full stack: LAN/WAN profiles,
// the Table 1 corpus, multi-participant fan-out, and the two §5.2 scenarios
// (maps meeting-spot coordination, shop co-shopping).
#include <gtest/gtest.h>

#include "src/core/content_generator.h"
#include "src/core/session.h"
#include "src/delta/tree_diff.h"
#include "src/net/profiles.h"
#include "src/sites/corpus.h"
#include "src/sites/maps_site.h"
#include "src/sites/shop_site.h"

namespace rcb {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : network_(&loop_) {}

  void InstallCorpusSite(const std::string& name, const NetworkProfile& profile,
                         const SessionOptions& options) {
    const SiteSpec* spec = FindSite(name);
    ASSERT_NE(spec, nullptr);
    AddOriginServer(&network_, profile, spec->host, spec->server_bps,
                    spec->server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    servers_.push_back(InstallSite(&loop_, &network_, *spec));
    // Additional participants get the same latency to the origin.
    for (size_t i = 2; i <= options.participant_count; ++i) {
      network_.SetLatency(options.participant_machine_prefix + "-" +
                              std::to_string(i),
                          spec->host,
                          spec->server_latency + profile.access_latency);
    }
  }

  EventLoop loop_;
  Network network_;
  std::vector<std::unique_ptr<SiteServer>> servers_;
};

TEST_F(SessionTest, LanSessionSyncsCorpusSite) {
  SessionOptions options;
  options.profile = LanProfile();
  InstallCorpusSite("google.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.agent()->participant_count(), 1u);

  auto stats = session.CoNavigate(Url::Make("http", "www.google.com", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  // LAN: M2 (sync from host) far below M1 (download from origin) — Fig. 6.
  EXPECT_GT(stats->host_html_time, Duration::Zero());
  EXPECT_GT(stats->participant_content_time[0], Duration::Zero());
  EXPECT_LT(stats->participant_content_time[0], stats->host_html_time);
  // Participant page matches.
  EXPECT_EQ(session.participant_browser(0)->document()->Title(),
            "google.com - homepage");
}

TEST_F(SessionTest, LanCacheModeObjectsFasterThanOrigin) {
  // Fig. 8: M4 (objects from host cache over the LAN) < M3 (from origin).
  Url url = Url::Make("http", "www.yahoo.com", 80, "/");

  Duration m3;
  {
    EventLoop loop;
    Network network(&loop);
    SessionOptions options;
    options.profile = LanProfile();
    options.cache_mode = false;
    const SiteSpec* spec = FindSite("yahoo.com");
    AddOriginServer(&network, options.profile, spec->host, spec->server_bps,
                    spec->server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    auto server = InstallSite(&loop, &network, *spec);
    CoBrowsingSession session(&loop, &network, options);
    ASSERT_TRUE(session.Start().ok());
    auto stats = session.CoNavigate(url);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_EQ(stats->participant_objects_from_host[0], 0u);
    m3 = stats->participant_objects_time[0];
  }
  Duration m4;
  {
    EventLoop loop;
    Network network(&loop);
    SessionOptions options;
    options.profile = LanProfile();
    options.cache_mode = true;
    const SiteSpec* spec = FindSite("yahoo.com");
    AddOriginServer(&network, options.profile, spec->host, spec->server_bps,
                    spec->server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    auto server = InstallSite(&loop, &network, *spec);
    CoBrowsingSession session(&loop, &network, options);
    ASSERT_TRUE(session.Start().ok());
    auto stats = session.CoNavigate(url);
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_GT(stats->participant_objects_from_host[0], 0u);
    m4 = stats->participant_objects_time[0];
  }
  EXPECT_LT(m4, m3);
}

TEST_F(SessionTest, WanSessionStillSyncs) {
  SessionOptions options;
  options.profile = WanProfile();
  InstallCorpusSite("facebook.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  auto stats =
      session.CoNavigate(Url::Make("http", "www.facebook.com", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(session.participant_browser(0)->document()->Title(),
            "facebook.com - homepage");
  // WAN M2 is materially larger than LAN M2 (384 Kbps uplink at the host).
  EXPECT_GT(stats->participant_content_time[0], Duration::Millis(100));
}

TEST_F(SessionTest, MultiParticipantFanOut) {
  SessionOptions options;
  options.profile = LanProfile();
  options.participant_count = 4;
  InstallCorpusSite("apple.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_EQ(session.agent()->participant_count(), 4u);
  auto stats = session.CoNavigate(Url::Make("http", "www.apple.com", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(session.participant_browser(i)->document()->Title(),
              "apple.com - homepage")
        << "participant " << i;
  }
  // The snapshot is generated once and reused for all four (§4.1.2).
  EXPECT_EQ(session.agent()->metrics().generations, 1u);
  EXPECT_GE(session.agent()->metrics().snapshot_reuses, 3u);
}

TEST_F(SessionTest, AuthenticatedSessionWorks) {
  SessionOptions options;
  options.profile = LanProfile();
  options.enable_auth = true;
  InstallCorpusSite("adobe.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  EXPECT_FALSE(session.session_key().empty());
  auto stats = session.CoNavigate(Url::Make("http", "www.adobe.com", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(session.agent()->metrics().auth_failures, 0u);
}

TEST_F(SessionTest, SequentialNavigationsTrackHost) {
  SessionOptions options;
  options.profile = LanProfile();
  InstallCorpusSite("google.com", options.profile, options);
  InstallCorpusSite("apple.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(
      session.CoNavigate(Url::Make("http", "www.google.com", 80, "/")).ok());
  EXPECT_EQ(session.participant_browser(0)->document()->Title(),
            "google.com - homepage");
  ASSERT_TRUE(
      session.CoNavigate(Url::Make("http", "www.apple.com", 80, "/")).ok());
  EXPECT_EQ(session.participant_browser(0)->document()->Title(),
            "apple.com - homepage");
}

// ---- §5.2.1: coordinating a meeting spot via the maps service ------------

TEST_F(SessionTest, MapsScenarioEndToEnd) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  network_.AddHost("maps.test", {.uplink_bps = 10'000'000, .downlink_bps = 0});
  MapsSite maps(&loop_, &network_, "maps.test");
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());

  // Bob (host) opens the map page; Alice (participant) receives it.
  auto stats = session.CoNavigate(maps.PageUrl());
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(session.participant_browser(0)->document()->ById("map"), nullptr);

  // Bob searches; the Ajax update must reach Alice though the URL is
  // unchanged.
  MapsApp app(session.host_browser());
  // MapsApp was not used for the initial open; align its state.
  bool done = false;
  app.Open(maps.PageUrl(), [&](Status) { done = true; });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(session.WaitForSync().ok());

  done = false;
  Status search_status;
  app.Search("653 5th Ave, New York", [&](Status status) {
    search_status = status;
    done = true;
  });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(search_status.ok());
  ASSERT_TRUE(session.WaitForSync().ok());

  auto [x, y] = MapsSite::Geocode("653 5th Ave, New York");
  Element* alice_map = session.participant_browser(0)->document()->ById("map");
  ASSERT_NE(alice_map, nullptr);
  EXPECT_EQ(alice_map->AttrOr("data-x"), std::to_string(x));
  EXPECT_EQ(alice_map->AttrOr("data-y"), std::to_string(y));

  // Bob zooms; Alice follows.
  done = false;
  app.ZoomIn([&](Status) { done = true; });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_EQ(session.participant_browser(0)->document()->ById("map")->AttrOr(
                "data-z"),
            "13");

  // Street view flash appears for Alice too.
  done = false;
  app.ShowStreetView([&](Status) { done = true; });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_NE(session.participant_browser(0)->document()->ById("svflash"),
            nullptr);
  EXPECT_NE(session.participant_browser(0)
                ->document()
                ->ById("svcaption")
                ->TextContent()
                .find("Cartier"),
            std::string::npos);
}

// ---- §5.2.2: online co-shopping ------------------------------------------

TEST_F(SessionTest, ShopScenarioEndToEnd) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  network_.AddHost("www.shop.test", {.uplink_bps = 10'000'000, .downlink_bps = 0});
  ShopSite shop(&loop_, &network_, "www.shop.test");
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  Browser* bob = session.host_browser();
  Browser* alice_browser = session.participant_browser(0);
  AjaxSnippet* alice = session.snippet(0);

  // Bob browses to the shop (session cookie lands on Bob's browser only).
  ASSERT_TRUE(
      session.CoNavigate(Url::Make("http", "www.shop.test", 80, "/")).ok());
  // Alice sees the shop page although she has no cookies for the shop.
  EXPECT_EQ(alice_browser->cookies().CountFor(
                Url::Make("http", "www.shop.test", 80, "/")),
            0u);
  EXPECT_NE(alice_browser->document()->ById("featured"), nullptr);

  // Alice searches from her browser: the action routes through Bob.
  Element* search_form = alice_browser->document()->ById("searchform");
  ASSERT_NE(search_form, nullptr);
  ASSERT_TRUE(alice->FillFormField(search_form, "q", "macbook air").ok());
  ASSERT_TRUE(alice->SubmitForm(search_form).ok());
  alice->PollNow();
  // Wait until the search-results page reaches Alice through the poll loop.
  loop_.RunUntilCondition([&] {
    Element* hits = alice_browser->document()->ById("hitcount");
    return hits != nullptr && hits->TextContent() == "2 results";
  });
  EXPECT_EQ(bob->document()->ById("hitcount")->TextContent(), "2 results");

  // Alice picks the 13-inch MacBook Air: clicks its product link.
  Element* link = nullptr;
  alice_browser->document()->ForEachElement([&](Element* element) {
    if (element->tag_name() == "a" &&
        element->AttrOr("href").find("/product/mba13") != std::string::npos) {
      link = element;
      return false;
    }
    return true;
  });
  ASSERT_NE(link, nullptr);
  ASSERT_TRUE(alice->ClickElement(link).ok());
  alice->PollNow();
  loop_.RunUntilCondition(
      [&] { return alice_browser->document()->ById("addform") != nullptr; });
  ASSERT_NE(bob->document()->ById("addform"), nullptr);

  // Bob adds to cart and proceeds to checkout.
  bool done = false;
  ASSERT_TRUE(bob->SubmitForm(bob->document()->ById("addform"),
                              [&](const Status&, const PageLoadStats&) {
                                done = true;
                              })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_NE(bob->document()->ById("cartlist"), nullptr);
  done = false;
  bob->Navigate(Url::Make("http", "www.shop.test", 80, "/checkout"),
                [&](const Status&, const PageLoadStats&) { done = true; });
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_NE(bob->document()->ById("shipform"), nullptr);
  ASSERT_TRUE(session.WaitForSync().ok());

  // Alice co-fills the shipping form from her side.
  Element* ship_form = alice_browser->document()->ById("shipform");
  ASSERT_NE(ship_form, nullptr);
  ASSERT_TRUE(alice->FillFormField(ship_form, "fullname", "Alice C.").ok());
  ASSERT_TRUE(alice->FillFormField(ship_form, "street", "653 5th Ave").ok());
  ASSERT_TRUE(alice->FillFormField(ship_form, "city", "New York").ok());
  ASSERT_TRUE(alice->FillFormField(ship_form, "state", "NY").ok());
  ASSERT_TRUE(alice->FillFormField(ship_form, "zip", "10022").ok());
  ASSERT_TRUE(alice->FillFormField(ship_form, "phone", "555-0100").ok());
  alice->PollNow();
  loop_.RunUntilCondition([&] {
    Element* host_form = bob->document()->ById("shipform");
    if (host_form == nullptr) {
      return false;
    }
    Element* field = nullptr;
    host_form->ForEachElement([&](Element* element) {
      if (element->AttrOr("name") == "phone") {
        field = element;
        return false;
      }
      return true;
    });
    return field != nullptr && field->AttrOr("value") == "555-0100";
  });

  // Bob finishes checkout with Alice's data.
  done = false;
  ASSERT_TRUE(bob->SubmitForm(bob->document()->ById("shipform"),
                              [&](const Status&, const PageLoadStats&) {
                                done = true;
                              })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_NE(bob->document()->ById("confirm"), nullptr);
  EXPECT_NE(bob->document()->ById("shipto")->TextContent().find("New York"),
            std::string::npos);

  // The confirmation page reaches Alice too (session-protected content she
  // could never load by URL).
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_NE(alice_browser->document()->ById("confirm"), nullptr);
}

TEST_F(SessionTest, FullCorpusTour) {
  // §3.3: "users can visit different websites and collaboratively browse and
  // operate on as many webpages as they like" — the host tours all 20 Table 1
  // homepages in one session; the participant follows each.
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  std::vector<std::unique_ptr<SiteServer>> servers;
  for (const SiteSpec& spec : Table1Sites()) {
    AddOriginServer(&network_, options.profile, spec.host, spec.server_bps,
                    spec.server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    servers.push_back(InstallSite(&loop_, &network_, spec));
  }
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  for (const SiteSpec& spec : Table1Sites()) {
    auto stats = session.CoNavigate(Url::Make("http", spec.host, 80, "/"));
    ASSERT_TRUE(stats.ok()) << spec.name << ": " << stats.status();
    EXPECT_EQ(session.participant_browser(0)->document()->Title(),
              spec.name + " - homepage");
    EXPECT_EQ(session.snippet(0)->metrics().object_fetch_failures, 0u)
        << spec.name;
  }
  // 20 pages -> 20 generations, one content update per page.
  EXPECT_EQ(session.agent()->metrics().generations, 20u);
  EXPECT_EQ(session.snippet(0)->metrics().content_updates, 20u);
}

// The participant's canonical digest and the host's (its snapshot,
// materialized), as e2e_bench's convergence oracle compares them.
std::string ParticipantDigest(CoBrowsingSession* session) {
  return delta::TreeDigest(*delta::CanonicalizeDocument(
      *session->participant_browser(0)->document()));
}

std::string HostDigest(CoBrowsingSession* session) {
  ContentGenerator generator(session->host_browser());
  ContentGenOptions options;
  options.agent_url = session->agent()->AgentUrl();
  return delta::TreeDigest(
      *MaterializeSnapshotTree(generator.Generate(0, options).snapshot));
}

// The Fig. 5 apply splices full snapshots: on every Table 1 page, a host
// status-text edit and a host co-fill each splice the body payload (one
// payload spliced, none rebuilt) and leave every other body child of the
// participant's page at its address and rev, and the participant converges
// on the host's digest. A participant's own co-fill restamps its page, so
// the update that echoes it rebuilds the body once; the next host edit
// splices again.
TEST_F(SessionTest, Table1EditsSpliceTheBodyPayload) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  for (const SiteSpec& spec : Table1Sites()) {
    InstallCorpusSite(spec.name, options.profile, options);
  }
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  const SnippetMetrics& metrics = session.snippet(0)->metrics();
  Document* participant = session.participant_browser(0)->document();
  for (const SiteSpec& spec : Table1Sites()) {
    ASSERT_TRUE(
        session.CoNavigate(Url::Make("http", spec.host, 80, "/")).ok())
        << spec.name;
    Element* status = nullptr;
    Element* field = nullptr;
    session.host_browser()->MutateDocument([&](Document* document) {
      auto element = MakeElement("p");
      element->AppendChild(MakeText("live"));
      status = document->body()->AppendChild(std::move(element))->AsElement();
      field = document->FindAll("input").front();
    });
    ASSERT_TRUE(session.WaitForSync().ok()) << spec.name;
    // One host edit, then the payloads it spliced and rebuilt, and the
    // participant's body children it moved or restamped.
    auto edit = [&](const std::function<void(Document*)>& mutate,
                    uint64_t want_spliced, uint64_t want_rebuilt,
                    const std::string& what) {
      const std::string where = spec.name + " " + what;
      std::vector<std::pair<const Node*, uint64_t>> children;
      for (const auto& child : participant->body()->children()) {
        children.emplace_back(child.get(), child->rev());
      }
      const uint64_t spliced = metrics.payloads_spliced;
      const uint64_t rebuilt = metrics.payloads_rebuilt;
      session.host_browser()->MutateDocument(mutate);
      ASSERT_TRUE(session.WaitForSync().ok()) << where;
      EXPECT_EQ(metrics.payloads_spliced - spliced, want_spliced) << where;
      EXPECT_EQ(metrics.payloads_rebuilt - rebuilt, want_rebuilt) << where;
      size_t moved = 0;
      for (size_t i = 0; i < children.size(); ++i) {
        const Node* now = participant->body()->child_at(i);
        moved += now != children[i].first || now->rev() != children[i].second;
      }
      if (want_spliced == 1) {
        EXPECT_EQ(moved, 1u) << where;  // only the child holding the edit
      }
      EXPECT_EQ(ParticipantDigest(&session), HostDigest(&session)) << where;
    };
    int version = 0;
    auto status_edit = [&](Document*) {
      status->RemoveAllChildren();
      status->AppendChild(MakeText("item " + std::to_string(++version)));
    };
    edit(status_edit, 1, 0, "status text");
    edit([&](Document*) { field->SetAttribute("value", "host typed"); }, 1, 0,
         "host co-fill");
    // The participant types into its own copy of the form: the echo of
    // that co-fill is rebuilt whole, once.
    const uint64_t spliced = metrics.payloads_spliced;
    const uint64_t rebuilt = metrics.payloads_rebuilt;
    Element* form = participant->FindAll("form").front();
    ASSERT_TRUE(session.snippet(0)
                    ->FillFormField(form, field->AttrOr("name"), "mine")
                    .ok())
        << spec.name;
    for (int i = 0; i < 200 && metrics.payloads_rebuilt == rebuilt; ++i) {
      loop_.RunFor(Duration::Millis(50));
    }
    ASSERT_TRUE(session.WaitForSync().ok()) << spec.name;
    EXPECT_EQ(metrics.payloads_rebuilt - rebuilt, 1u) << spec.name;
    EXPECT_EQ(metrics.payloads_spliced - spliced, 0u) << spec.name;
    EXPECT_EQ(ParticipantDigest(&session), HostDigest(&session)) << spec.name;
    edit(status_edit, 1, 0, "status text after the participant's co-fill");
  }
}

TEST_F(SessionTest, FramesetPageSynchronizedEndToEnd) {
  // Fig. 4's docFrameSet/docNoFrames path over the full stack.
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  network_.AddHost("frames.test", {.uplink_bps = 10'000'000, .downlink_bps = 0});
  SiteServer site(&loop_, &network_, "frames.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>Frames</title></head>"
                   "<frameset cols=\"30%,70%\">"
                   "<frame src=\"/nav.html\" name=\"nav\">"
                   "<frame src=\"/content.html\" name=\"content\">"
                   "</frameset>"
                   "<noframes><p>frames required</p></noframes></html>");
  site.ServeStatic("/nav.html", "text/html",
                   "<html><body><a href=\"/content.html\">go</a></body></html>");
  site.ServeStatic("/content.html", "text/html",
                   "<html><body><h1>inside frame</h1></body></html>");
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  auto stats = session.CoNavigate(Url::Make("http", "frames.test", 80, "/"));
  ASSERT_TRUE(stats.ok()) << stats.status();

  Document* participant_doc = session.participant_browser(0)->document();
  EXPECT_EQ(participant_doc->Title(), "Frames");
  Element* frameset = participant_doc->frameset();
  ASSERT_NE(frameset, nullptr);
  EXPECT_EQ(frameset->AttrOr("cols"), "30%,70%");
  auto frames = frameset->FindAll("frame");
  ASSERT_EQ(frames.size(), 2u);
  // Frame URLs were absolutized by the Fig. 3 pipeline (to the origin or to
  // the agent in cache mode).
  for (Element* frame : frames) {
    EXPECT_TRUE(IsAbsoluteUrl(frame->AttrOr("src"))) << frame->AttrOr("src");
  }
  EXPECT_NE(participant_doc->noframes(), nullptr);
  EXPECT_EQ(participant_doc->body(), nullptr);
}

TEST_F(SessionTest, WaitForSyncTimesOutWhenParticipantCannotPoll) {
  SessionOptions options;
  options.profile = LanProfile();
  InstallCorpusSite("google.com", options.profile, options);
  CoBrowsingSession session(&loop_, &network_, options);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(
      session.CoNavigate(Url::Make("http", "www.google.com", 80, "/")).ok());
  session.snippet(0)->Leave();
  // Host changes after the participant left.
  session.host_browser()->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("more"));
  });
  EXPECT_FALSE(session.WaitForSync(Duration::Seconds(5.0)).ok());
}

}  // namespace
}  // namespace rcb
