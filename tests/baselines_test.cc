// Tests for the co-browsing baselines: URL sharing (and its two failure
// modes from §1) and the proxy-based architecture from §2.
#include <gtest/gtest.h>

#include "src/baselines/proxy_cobrowse.h"
#include "src/baselines/url_sharing.h"
#include "src/core/session.h"
#include "src/sites/corpus.h"
#include "src/sites/maps_site.h"
#include "src/sites/shop_site.h"

namespace rcb {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("participant-pc", {});
  }

  Status Navigate(Browser* browser, const Url& url) {
    Status out;
    bool done = false;
    browser->Navigate(url, [&](const Status& status, const PageLoadStats&) {
      out = status;
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  EventLoop loop_;
  Network network_;
};

TEST_F(BaselinesTest, UrlSharingWorksOnStaticPublicPages) {
  network_.AddHost("www.static.test", {});
  SiteServer site(&loop_, &network_, "www.static.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>S</title></head>"
                   "<body><p>same for everyone</p></body></html>");
  Browser host(&loop_, &network_, "host-pc");
  Browser participant(&loop_, &network_, "participant-pc");
  ASSERT_TRUE(Navigate(&host, Url::Make("http", "www.static.test", 80, "/")).ok());

  UrlSharingCoBrowse sharing(&loop_, &host, &participant);
  auto result = sharing.ShareCurrentUrl();
  ASSERT_TRUE(result.participant_status.ok());
  EXPECT_TRUE(result.content_matches);
  EXPECT_GT(result.participant_load_time, Duration::Zero());
}

TEST_F(BaselinesTest, UrlSharingFailsOnSessionProtectedPages) {
  network_.AddHost("www.shop.test", {});
  ShopSite shop(&loop_, &network_, "www.shop.test");
  Browser host(&loop_, &network_, "host-pc");
  Browser participant(&loop_, &network_, "participant-pc");

  // Host establishes a session and fills a cart.
  ASSERT_TRUE(Navigate(&host, Url::Make("http", "www.shop.test", 80, "/")).ok());
  ASSERT_TRUE(
      Navigate(&host, Url::Make("http", "www.shop.test", 80, "/product/mba13"))
          .ok());
  bool done = false;
  ASSERT_TRUE(host.SubmitForm(host.document()->ById("addform"),
                              [&](const Status&, const PageLoadStats&) {
                                done = true;
                              })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  ASSERT_NE(host.document()->ById("cartlist"), nullptr);

  // Sharing the cart URL gives the participant a sign-in page, not the cart.
  UrlSharingCoBrowse sharing(&loop_, &host, &participant);
  auto result = sharing.ShareCurrentUrl();
  ASSERT_TRUE(result.participant_status.ok());
  EXPECT_FALSE(result.content_matches);
  EXPECT_NE(participant.document()->ById("signin"), nullptr);
  EXPECT_EQ(participant.document()->ById("cartlist"), nullptr);
}

TEST_F(BaselinesTest, UrlSharingMissesAjaxUpdates) {
  network_.AddHost("maps.test", {});
  MapsSite maps(&loop_, &network_, "maps.test");
  Browser host(&loop_, &network_, "host-pc");
  Browser participant(&loop_, &network_, "participant-pc");
  MapsApp app(&host);
  bool done = false;
  app.Open(maps.PageUrl(), [&](Status) { done = true; });
  loop_.RunUntilCondition([&] { return done; });
  done = false;
  app.Search("cartier fifth avenue", [&](Status) { done = true; });
  loop_.RunUntilCondition([&] { return done; });

  // The URL never changed, so sharing it shows the participant the default
  // map view — not the host's searched view.
  UrlSharingCoBrowse sharing(&loop_, &host, &participant);
  auto result = sharing.ShareCurrentUrl();
  ASSERT_TRUE(result.participant_status.ok());
  EXPECT_FALSE(result.content_matches);
  auto [x, y] = MapsSite::Geocode("cartier fifth avenue");
  EXPECT_EQ(host.document()->ById("map")->AttrOr("data-x"), std::to_string(x));
  EXPECT_EQ(participant.document()->ById("map")->AttrOr("data-x"), "1000");
}

TEST_F(BaselinesTest, RcbSucceedsWhereUrlSharingFails) {
  // The same session-protected flow through RCB: the participant gets the
  // host's cart page content.
  EventLoop loop;
  Network network(&loop);
  network.AddHost("www.shop.test", {});
  ShopSite shop(&loop, &network, "www.shop.test");
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(500);
  CoBrowsingSession session(&loop, &network, options);
  ASSERT_TRUE(session.Start().ok());
  ASSERT_TRUE(
      session.CoNavigate(Url::Make("http", "www.shop.test", 80, "/product/mba13"))
          .ok());
  Browser* host = session.host_browser();
  bool done = false;
  ASSERT_TRUE(host->SubmitForm(host->document()->ById("addform"),
                               [&](const Status&, const PageLoadStats&) {
                                 done = true;
                               })
                  .ok());
  loop.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(session.WaitForSync().ok());
  EXPECT_NE(session.participant_browser(0)->document()->ById("cartlist"),
            nullptr);
}

TEST_F(BaselinesTest, ProxyCoBrowseSynchronizesMembers) {
  network_.AddHost("cobrowse-proxy", {});
  network_.AddHost("www.static.test", {});
  SiteServer site(&loop_, &network_, "www.static.test");
  site.ServeStatic("/", "text/html",
                   "<html><head><title>P</title></head>"
                   "<body><p>proxied</p></body></html>");
  CoBrowseProxy proxy(&loop_, &network_, "cobrowse-proxy");

  Browser leader(&loop_, &network_, "host-pc");
  Browser follower(&loop_, &network_, "participant-pc");
  ProxyCoBrowseClient leader_client(&leader, proxy.ProxyUrl(),
                                    Duration::Millis(500));
  ProxyCoBrowseClient follower_client(&follower, proxy.ProxyUrl(),
                                      Duration::Millis(500));
  leader_client.Start();
  follower_client.Start();

  bool navigated = false;
  leader_client.Navigate(Url::Make("http", "www.static.test", 80, "/"),
                         [&](Status status) {
                           ASSERT_TRUE(status.ok());
                           navigated = true;
                         });
  loop_.RunUntilCondition([&] { return navigated; });
  loop_.RunUntilCondition([&] {
    return leader_client.updates_received() > 0 &&
           follower_client.updates_received() > 0;
  });
  // Both members display the identical proxied copy.
  EXPECT_EQ(leader.document()->Title(), "P");
  EXPECT_EQ(follower.document()->Title(), "P");
  EXPECT_EQ(proxy.origin_fetches(), 1u);
  // Every member's copy was relayed through the proxy (trust/traffic cost).
  EXPECT_GT(proxy.bytes_relayed(), 0u);
  leader_client.Stop();
  follower_client.Stop();
}

TEST_F(BaselinesTest, ProxyReadsOnlyWellFormedVersions) {
  // The proxy's v= and the client's X-CoBrowse-Version take the absent path
  // when malformed: the page is sent, and the client counts one version on
  // from its initial -1.
  network_.AddHost("cobrowse-proxy", {});
  network_.AddHost("www.static.test", {});
  SiteServer site(&loop_, &network_, "www.static.test");
  site.ServeStatic("/", "text/html", "<html><body>x</body></html>");
  CoBrowseProxy proxy(&loop_, &network_, "cobrowse-proxy");
  Browser member(&loop_, &network_, "host-pc");
  ProxyCoBrowseClient leader(&member, proxy.ProxyUrl(), Duration::Millis(500));
  bool navigated = false;
  leader.Navigate(Url::Make("http", "www.static.test", 80, "/"),
                  [&](Status) { navigated = true; });
  loop_.RunUntilCondition([&] { return navigated && proxy.version() == 1; });
  ASSERT_EQ(proxy.version(), 1);
  const std::pair<const char*, bool> page_cases[] = {
      {"v=1", false}, {"v=0", true}, {"v=1x", true}, {"v=", true},
      {"v=99999999999999999999", true}};
  for (const auto& [query, sends_page] : page_cases) {
    FetchResult result;
    bool done = false;
    member.Fetch(HttpMethod::kGet,
                 Url::Make("http", "cobrowse-proxy", proxy.ProxyUrl().port(),
                           "/page", query),
                 "", "", [&](FetchResult fetched) {
                   result = std::move(fetched);
                   done = true;
                 });
    loop_.RunUntilCondition([&] { return done; });
    ASSERT_TRUE(result.status.ok()) << query;
    EXPECT_EQ(!result.response.body.empty(), sends_page) << query;
  }

  network_.AddHost("fake-proxy", {});
  SiteServer fake(&loop_, &network_, "fake-proxy");
  std::string header;
  fake.Route("/page", [&](const HttpRequest&) {
    HttpResponse response =
        HttpResponse::Ok("text/html", "<html><body>copy</body></html>");
    response.headers.Set("X-CoBrowse-Version", header);
    return response;
  });
  const std::pair<const char*, int64_t> header_cases[] = {
      {"5", 5}, {"5x", 0}, {"", 0}, {"99999999999999999999", 0}};
  for (const auto& [value, version] : header_cases) {
    header = value;
    Browser browser(&loop_, &network_, "participant-pc");
    ProxyCoBrowseClient client(
        &browser, Url::Make("http", "fake-proxy", 80, "/"),
        Duration::Millis(500));
    client.Start();
    loop_.RunUntilCondition([&] { return client.updates_received() > 0; });
    client.Stop();
    EXPECT_EQ(client.version(), version) << value;
  }
}

TEST_F(BaselinesTest, ProxyIsSinglePointOfFailure) {
  network_.AddHost("cobrowse-proxy", {});
  network_.AddHost("www.static.test", {});
  SiteServer site(&loop_, &network_, "www.static.test");
  site.ServeStatic("/", "text/html", "<html><body>x</body></html>");
  auto proxy = std::make_unique<CoBrowseProxy>(&loop_, &network_, "cobrowse-proxy");
  Url proxy_url = proxy->ProxyUrl();
  Browser leader(&loop_, &network_, "host-pc");

  // Kill the proxy; navigation requests now fail even though the origin is
  // fine — the third-party dependency RCB avoids.
  proxy.reset();
  ProxyCoBrowseClient client(&leader, proxy_url, Duration::Millis(500));
  bool done = false;
  Status navigate_status;
  client.Navigate(Url::Make("http", "www.static.test", 80, "/"),
                  [&](Status status) {
                    navigate_status = status;
                    done = true;
                  });
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_FALSE(navigate_status.ok());
}

}  // namespace
}  // namespace rcb
