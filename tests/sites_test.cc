// Tests for the synthetic site substrate: Table 1 corpus, shop, and maps.
#include <gtest/gtest.h>

#include "src/browser/browser.h"
#include "src/crypto/sha256.h"
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

// The Table 1 homepages byte for byte: SHA-256 of each generated page, in
// table order. A change to the generator that moves any byte of any page
// (and so every figure measured over the corpus) fails here.
TEST(CorpusTest, Table1HomepagesArePinned) {
  static constexpr const char* kDigests[20] = {
      "90720aacd8f4a82325ccc0952f1b9c0f7b017b133ad3df4822aeefa4c636b06f",
      "6cffaeafbb6068f9f506b2cbc1ac0f3b0091a0bc598d8d3367085d0ea15a6d22",
      "7e75a7a870e21155e31c6fee8d17433ec008d4ac24ecedaedfa8520ef82de50f",
      "1fd6f00d59690b7570108ae99d8e781189d2b010f57bb9140fa6056e8ce639fd",
      "65a2b5a18d0d2bfac05ef9cd2a431acfae937c98c55f15d52d220ea17611bb0d",
      "d3f86168ce19fae6a6f311b4fa6edd6b38df22e7bcb8eb4148e1a240704b1efc",
      "4b3edaa92e17e3ff93b6f8aa2add87a41fb036afc4006a91151b7e6bb4cbce18",
      "b7ee395ce6d504789921d9a191c811e9a660a33ee71fe3a6426ebf9db21d0cc7",
      "1373d01503522683030b81088147b44e759ca13d6c4957341525630bb9f43751",
      "d4f599bf1b17f705a9e2445e342dc201f19aca3bcbbcef57b15eb8407aa1f584",
      "fe3467aa1636b9566ad17410585adebf2d792f95eea4604b7e9dc4889f13a6cb",
      "5e5acb05eea4f47a212f1175964a76f0ed3cd6df8a7e66e42b8c31e4db850b6f",
      "f929e829fd5c0a821d368c0061e8fc9393e5da62a3071965008ced8f1afd3f40",
      "2b25c98e2a21008b1cfb5137afe41be1c189c6c4bab1717fed426f69b3324681",
      "4bce6d686d9699e0f1ad324d4973bc4719a69e7a3436bbf1da447a5155a2c6ac",
      "419fc00e1d3f4991f5187176d8f339789bc7e88d840829a92b60814d78184665",
      "077fb29358bb4f921c814c2e59d8a21f066a5a369d802fcd54b7e04d68811094",
      "5b0fd8ca2594691b0c80ce57531a540c3e167c10b5d7ed3b21c9e4c4351b98ea",
      "ed7df4109f56e82534a89a34c639cad1aefb9a5527167c6b009a40110b9cbb37",
      "c3466c861bbaacdc404e212ee36b527c259bd1d4357c0ab8e25fa8ff9a835124",
  };
  const auto& sites = Table1Sites();
  ASSERT_EQ(sites.size(), std::size(kDigests));
  for (size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(Sha256::HexDigest(GenerateHomepage(sites[i]).html), kDigests[i])
        << sites[i].name;
  }
}

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
