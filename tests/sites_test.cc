// Tests for the synthetic site substrate: Table 1 corpus, shop, and maps.
#include <gtest/gtest.h>

#include "src/browser/browser.h"
#include "src/sites/corpus.h"
#include "src/sites/maps_site.h"
#include "src/sites/shop_site.h"

namespace rcb {
namespace {

// ----------------------------------------------------------------- Corpus --

TEST(CorpusTest, TwentySitesInTableOrder) {
  const auto& sites = Table1Sites();
  ASSERT_EQ(sites.size(), 20u);
  EXPECT_EQ(sites[0].name, "yahoo.com");
  EXPECT_EQ(sites[1].name, "google.com");
  EXPECT_EQ(sites[12].name, "amazon.com");
  EXPECT_EQ(sites[19].name, "nytimes.com");
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].index, static_cast<int>(i) + 1);
  }
}

TEST(CorpusTest, Table1PageSizesMatchPaper) {
  // Spot-check the sizes printed in Table 1.
  EXPECT_DOUBLE_EQ(FindSite("yahoo.com")->page_kb, 130.3);
  EXPECT_DOUBLE_EQ(FindSite("google.com")->page_kb, 6.8);
  EXPECT_DOUBLE_EQ(FindSite("amazon.com")->page_kb, 228.5);
  EXPECT_DOUBLE_EQ(FindSite("apple.com")->page_kb, 10.0);
  EXPECT_EQ(FindSite("doesnotexist.com"), nullptr);
}

// The generated homepage hits the Table 1 byte size for every site.
class CorpusSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CorpusSizeTest, GeneratedHtmlMatchesTableSize) {
  const SiteSpec& spec = Table1Sites()[static_cast<size_t>(GetParam())];
  GeneratedSite site = GenerateHomepage(spec);
  double target = spec.page_kb * 1024.0;
  // Within 2% of the Table 1 size (tiny pages can't shrink below skeleton).
  EXPECT_NEAR(static_cast<double>(site.html.size()), target, target * 0.02)
      << spec.name;
  EXPECT_EQ(site.objects.size(), static_cast<size_t>(spec.object_count))
      << spec.name;
}

TEST_P(CorpusSizeTest, GenerationIsDeterministic) {
  const SiteSpec& spec = Table1Sites()[static_cast<size_t>(GetParam())];
  GeneratedSite a = GenerateHomepage(spec);
  GeneratedSite b = GenerateHomepage(spec);
  EXPECT_EQ(a.html, b.html);
  ASSERT_EQ(a.objects.size(), b.objects.size());
  for (size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].body, b.objects[i].body);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSites, CorpusSizeTest, ::testing::Range(0, 20));

TEST(CorpusTest, GeneratedPageParsesWithAllObjectsReferenced) {
  const SiteSpec& spec = *FindSite("cnn.com");
  GeneratedSite site = GenerateHomepage(spec);
  auto doc = ParseDocument(site.html);
  ASSERT_NE(doc->body(), nullptr);
  Url base = Url::Make("http", spec.host, 80, "/");
  auto resources = CollectResources(doc.get(), base, 0);
  EXPECT_EQ(resources.size(), site.objects.size());
}

TEST(CorpusTest, InstalledSiteServesHomepageAndObjects) {
  EventLoop loop;
  Network network(&loop);
  const SiteSpec& spec = *FindSite("google.com");
  network.AddHost(spec.host, {});
  network.AddHost("user", {});
  auto server = InstallSite(&loop, &network, spec);
  Browser browser(&loop, &network, "user");
  Status result;
  PageLoadStats stats;
  bool done = false;
  browser.Navigate(Url::Make("http", spec.host, 80, "/"),
                   [&](const Status& status, const PageLoadStats& s) {
                     result = status;
                     stats = s;
                     done = true;
                   });
  loop.RunUntilCondition([&] { return done; });
  ASSERT_TRUE(result.ok()) << result;
  EXPECT_EQ(stats.object_count, static_cast<size_t>(spec.object_count));
  EXPECT_EQ(stats.html_bytes, GenerateHomepage(spec).html.size());
  // Secondary pages work for click-through.
  done = false;
  browser.Navigate(Url::Make("http", spec.host, 80, "/section1"),
                   [&](const Status& status, const PageLoadStats&) {
                     result = status;
                     done = true;
                   });
  loop.RunUntilCondition([&] { return done; });
  EXPECT_TRUE(result.ok());
}

// ------------------------------------------------------------------- Shop --

class ShopTest : public ::testing::Test {
 protected:
  ShopTest() : network_(&loop_) {
    network_.AddHost("www.shop.test", {});
    network_.AddHost("user", {});
    shop_ = std::make_unique<ShopSite>(&loop_, &network_, "www.shop.test");
    browser_ = std::make_unique<Browser>(&loop_, &network_, "user");
  }

  Url ShopUrl(const std::string& path, const std::string& query = "") {
    return Url::Make("http", "www.shop.test", 80, path, query);
  }

  Status Go(const Url& url) {
    Status out;
    bool done = false;
    browser_->Navigate(url, [&](const Status& status, const PageLoadStats&) {
      out = status;
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  Status Submit(Element* form) {
    Status out;
    bool done = false;
    Status start = browser_->SubmitForm(
        form, [&](const Status& status, const PageLoadStats&) {
          out = status;
          done = true;
        });
    if (!start.ok()) {
      return start;
    }
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<ShopSite> shop_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(ShopTest, HomeListsProductsAndSetsSession) {
  ASSERT_TRUE(Go(ShopUrl("/")).ok());
  EXPECT_GT(browser_->document()->FindAll("a").size(), shop_->products().size());
  EXPECT_EQ(browser_->cookies().CountFor(ShopUrl("/")), 1u);
  EXPECT_EQ(shop_->session_count(), 1u);
}

TEST_F(ShopTest, SearchFiltersProducts) {
  ASSERT_TRUE(Go(ShopUrl("/search", "q=macbook+air")).ok());
  Element* hitcount = browser_->document()->ById("hitcount");
  ASSERT_NE(hitcount, nullptr);
  EXPECT_EQ(hitcount->TextContent(), "2 results");
}

TEST_F(ShopTest, SearchNoMatches) {
  ASSERT_TRUE(Go(ShopUrl("/search", "q=zebra")).ok());
  EXPECT_EQ(browser_->document()->ById("hitcount")->TextContent(), "0 results");
}

TEST_F(ShopTest, ProductPageHasAddForm) {
  ASSERT_TRUE(Go(ShopUrl("/product/mba13")).ok());
  EXPECT_NE(browser_->document()->ById("addform"), nullptr);
  EXPECT_NE(browser_->document()
                ->ById("ptitle")
                ->TextContent()
                .find("MacBook Air 13-inch"),
            std::string::npos);
}

TEST_F(ShopTest, UnknownProductIs404) {
  EXPECT_FALSE(Go(ShopUrl("/product/nope")).ok());
}

TEST_F(ShopTest, AddToCartFlow) {
  ASSERT_TRUE(Go(ShopUrl("/")).ok());  // establish session
  ASSERT_TRUE(Go(ShopUrl("/product/mba13")).ok());
  ASSERT_TRUE(Submit(browser_->document()->ById("addform")).ok());
  // Redirected to the cart page showing the product.
  EXPECT_NE(browser_->document()->ById("cartlist"), nullptr);
  EXPECT_NE(browser_->document()->ById("cartlist")->TextContent().find(
                "MacBook Air 13-inch"),
            std::string::npos);
}

TEST_F(ShopTest, CartWithoutSessionShowsSignIn) {
  ASSERT_TRUE(Go(ShopUrl("/cart")).ok());
  EXPECT_NE(browser_->document()->ById("signin"), nullptr);
}

TEST_F(ShopTest, CheckoutRequiresNonEmptyCart) {
  ASSERT_TRUE(Go(ShopUrl("/")).ok());
  ASSERT_TRUE(Go(ShopUrl("/checkout")).ok());
  EXPECT_NE(browser_->document()->ById("emptycart"), nullptr);
}

TEST_F(ShopTest, FullCheckoutFlow) {
  ASSERT_TRUE(Go(ShopUrl("/")).ok());
  ASSERT_TRUE(Go(ShopUrl("/product/mba13")).ok());
  ASSERT_TRUE(Submit(browser_->document()->ById("addform")).ok());
  ASSERT_TRUE(Go(ShopUrl("/checkout")).ok());
  Element* form = browser_->document()->ById("shipform");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(Browser::FillField(form, "fullname", "Alice Example").ok());
  ASSERT_TRUE(Browser::FillField(form, "street", "653 5th Ave").ok());
  ASSERT_TRUE(Browser::FillField(form, "city", "New York").ok());
  ASSERT_TRUE(Browser::FillField(form, "state", "NY").ok());
  ASSERT_TRUE(Browser::FillField(form, "zip", "10022").ok());
  ASSERT_TRUE(Browser::FillField(form, "phone", "555-0100").ok());
  ASSERT_TRUE(Submit(form).ok());
  ASSERT_NE(browser_->document()->ById("confirm"), nullptr);
  EXPECT_NE(browser_->document()->ById("shipto")->TextContent().find("New York"),
            std::string::npos);
}

TEST_F(ShopTest, CheckoutRejectsMissingFields) {
  ASSERT_TRUE(Go(ShopUrl("/")).ok());
  ASSERT_TRUE(Go(ShopUrl("/product/ipod")).ok());
  ASSERT_TRUE(Submit(browser_->document()->ById("addform")).ok());
  ASSERT_TRUE(Go(ShopUrl("/checkout")).ok());
  Element* form = browser_->document()->ById("shipform");
  ASSERT_TRUE(Browser::FillField(form, "fullname", "Bob").ok());
  ASSERT_TRUE(Submit(form).ok());  // street etc. still empty
  EXPECT_NE(browser_->document()->ById("formerror"), nullptr);
}

TEST_F(ShopTest, SessionsAreIsolated) {
  // Two browsers get different sessions; carts don't leak.
  network_.AddHost("user2", {});
  Browser browser2(&loop_, &network_, "user2");
  ASSERT_TRUE(Go(ShopUrl("/")).ok());
  ASSERT_TRUE(Go(ShopUrl("/product/mba13")).ok());
  ASSERT_TRUE(Submit(browser_->document()->ById("addform")).ok());

  bool done = false;
  browser2.Navigate(ShopUrl("/cart"), [&](const Status&, const PageLoadStats&) {
    done = true;
  });
  loop_.RunUntilCondition([&] { return done; });
  // browser2 has no session cookie -> sign-in page, not browser_'s cart.
  EXPECT_NE(browser2.document()->ById("signin"), nullptr);
}

// ------------------------------------------------------------------- Maps --

class MapsTest : public ::testing::Test {
 protected:
  MapsTest() : network_(&loop_) {
    network_.AddHost("maps.test", {});
    network_.AddHost("user", {});
    maps_ = std::make_unique<MapsSite>(&loop_, &network_, "maps.test");
    browser_ = std::make_unique<Browser>(&loop_, &network_, "user");
    app_ = std::make_unique<MapsApp>(browser_.get());
  }

  Status Wait(std::function<void(std::function<void(Status)>)> op) {
    Status out;
    bool done = false;
    op([&](Status status) {
      out = status;
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<MapsSite> maps_;
  std::unique_ptr<Browser> browser_;
  std::unique_ptr<MapsApp> app_;
};

TEST_F(MapsTest, OpenLoadsTileGrid) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  Element* map = browser_->document()->ById("map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->FindAll("img").size(), 9u);
  EXPECT_EQ(map->AttrOr("data-z"), "12");
}

TEST_F(MapsTest, SearchRecentersWithoutUrlChange) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  std::string url_before = browser_->current_url().ToString();
  ASSERT_TRUE(
      Wait([&](auto done) { app_->Search("653 5th Ave, New York", done); }).ok());
  EXPECT_EQ(browser_->current_url().ToString(), url_before);
  auto [x, y] = MapsSite::Geocode("653 5th Ave, New York");
  Element* map = browser_->document()->ById("map");
  EXPECT_EQ(map->AttrOr("data-x"), std::to_string(x));
  EXPECT_EQ(map->AttrOr("data-y"), std::to_string(y));
  EXPECT_NE(browser_->document()->ById("status")->TextContent().find("view"),
            std::string::npos);
}

TEST_F(MapsTest, ZoomAndPanUpdateGrid) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  ASSERT_TRUE(Wait([&](auto done) { app_->ZoomIn(done); }).ok());
  EXPECT_EQ(app_->zoom(), 13);
  EXPECT_EQ(browser_->document()->ById("map")->AttrOr("data-z"), "13");
  ASSERT_TRUE(Wait([&](auto done) { app_->Pan(2, -1, done); }).ok());
  EXPECT_EQ(browser_->document()->ById("map")->AttrOr("data-x"),
            std::to_string(app_->center_x()));
  ASSERT_TRUE(Wait([&](auto done) { app_->ZoomOut(done); }).ok());
  EXPECT_EQ(app_->zoom(), 12);
}

TEST_F(MapsTest, TilesAreCachedAcrossReloads) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  uint64_t hits_before = browser_->cache().hits();
  // Zoom in then back out: the z=12 tiles are refetched from cache.
  ASSERT_TRUE(Wait([&](auto done) { app_->ZoomIn(done); }).ok());
  ASSERT_TRUE(Wait([&](auto done) { app_->ZoomOut(done); }).ok());
  EXPECT_GT(browser_->cache().hits(), hits_before);
}

TEST_F(MapsTest, StreetViewSwapsInFlashEmbed) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  ASSERT_TRUE(Wait([&](auto done) { app_->ShowStreetView(done); }).ok());
  Element* flash = browser_->document()->ById("svflash");
  ASSERT_NE(flash, nullptr);
  EXPECT_EQ(flash->AttrOr("type"), "application/x-shockwave-flash");
  EXPECT_NE(browser_->document()->ById("svcaption")->TextContent().find("Cartier"),
            std::string::npos);
}

TEST_F(MapsTest, SearchRejectsAMalformedGeocodeReply) {
  ASSERT_TRUE(Wait([&](auto done) { app_->Open(maps_->PageUrl(), done); }).ok());
  std::string reply;
  maps_->server()->Route("/geocode", [&](const HttpRequest&) {
    return HttpResponse::Ok("text/plain", reply);
  });
  // Exactly two decimal ints separated by one space; nothing else.
  for (const char* bad : {"12 34x", "12 34 56", "12x 34", "12", "",
                          "12  34", "2147483648 0", "0 -2147483649"}) {
    reply = bad;
    EXPECT_FALSE(Wait([&](auto done) { app_->Search("q", done); }).ok())
        << bad;
  }
  reply = "-7 42";
  ASSERT_TRUE(Wait([&](auto done) { app_->Search("q", done); }).ok());
  Element* map = browser_->document()->ById("map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->AttrOr("data-x"), "-7");
  EXPECT_EQ(map->AttrOr("data-y"), "42");
}

TEST_F(MapsTest, GeocodeDeterministic) {
  auto a = MapsSite::Geocode("somewhere");
  auto b = MapsSite::Geocode("somewhere");
  auto c = MapsSite::Geocode("elsewhere");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace rcb
