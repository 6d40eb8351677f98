// Unit/integration tests for the simulated Browser against a SiteServer.
#include <gtest/gtest.h>

#include "src/browser/browser.h"
#include "src/browser/object_cache.h"
#include "src/browser/resources.h"
#include "src/sites/site_server.h"

namespace rcb {
namespace {

class BrowserTest : public ::testing::Test {
 protected:
  BrowserTest() : network_(&loop_) {
    network_.AddHost("user-pc", {});
    network_.AddHost("www.site.test", {});
    network_.SetLatency("user-pc", "www.site.test", Duration::Millis(10));
    server_ = std::make_unique<SiteServer>(&loop_, &network_, "www.site.test");
    browser_ = std::make_unique<Browser>(&loop_, &network_, "user-pc");
  }

  Url SiteUrl(const std::string& path) {
    return Url::Make("http", "www.site.test", 80, path);
  }

  // Navigates and runs the loop until the load settles.
  Status NavigateAndWait(const Url& url, PageLoadStats* stats = nullptr) {
    Status out;
    bool done = false;
    browser_->Navigate(url, [&](const Status& status, const PageLoadStats& s) {
      out = status;
      if (stats != nullptr) {
        *stats = s;
      }
      done = true;
    });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(BrowserTest, LoadsSimplePage) {
  server_->ServeStatic("/", "text/html",
                       "<html><head><title>Hi</title></head>"
                       "<body><p>content</p></body></html>");
  PageLoadStats stats;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &stats).ok());
  ASSERT_TRUE(browser_->has_page());
  EXPECT_EQ(browser_->document()->Title(), "Hi");
  EXPECT_EQ(stats.object_count, 0u);
  EXPECT_GT(stats.html_time, Duration::Zero());
  EXPECT_EQ(browser_->current_url().ToString(), "http://www.site.test/");
}

TEST_F(BrowserTest, HtmlTimeIncludesHandshakeAndTransfer) {
  server_->ServeStatic("/", "text/html", "<html><body>x</body></html>");
  PageLoadStats stats;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &stats).ok());
  // 10 ms one-way: handshake (2x) + request (1x) + response (1x) = 40 ms.
  EXPECT_EQ(stats.html_time.millis(), 40);
}

TEST_F(BrowserTest, FetchesSupplementaryObjects) {
  server_->ServeStatic("/", "text/html",
                       "<html><head><link rel=\"stylesheet\" href=\"/s.css\">"
                       "</head><body><img src=\"/a.png\"><img src=\"/b.png\">"
                       "<script src=\"/app.js\"></script></body></html>");
  server_->ServeStatic("/s.css", "text/css", "body{}");
  server_->ServeStatic("/a.png", "image/png", std::string(100, 'a'));
  server_->ServeStatic("/b.png", "image/png", std::string(200, 'b'));
  server_->ServeStatic("/app.js", "application/javascript", "f()");
  PageLoadStats stats;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &stats).ok());
  EXPECT_EQ(stats.object_count, 4u);
  EXPECT_EQ(stats.object_bytes, 100u + 200u + 6u + 3u);
  EXPECT_EQ(browser_->cache().size(), 4u);
  EXPECT_EQ(browser_->recorded_resources().size(), 4u);
}

TEST_F(BrowserTest, SecondLoadServedFromCache) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><img src=\"/a.png\"></body></html>");
  server_->ServeStatic("/a.png", "image/png", std::string(100, 'a'));
  PageLoadStats first;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &first).ok());
  EXPECT_EQ(first.objects_from_cache, 0u);
  PageLoadStats second;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &second).ok());
  EXPECT_EQ(second.objects_from_cache, 1u);
  EXPECT_EQ(second.objects_time, Duration::Zero());
}

TEST_F(BrowserTest, CacheDisabledAlwaysFetches) {
  browser_->set_cache_enabled(false);
  server_->ServeStatic("/", "text/html",
                       "<html><body><img src=\"/a.png\"></body></html>");
  server_->ServeStatic("/a.png", "image/png", "imgdata");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  PageLoadStats second;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/"), &second).ok());
  EXPECT_EQ(second.objects_from_cache, 0u);
  EXPECT_EQ(browser_->cache().size(), 0u);
}

TEST_F(BrowserTest, FollowsRedirects) {
  server_->Route("/old", [](const HttpRequest&) {
    HttpResponse response;
    response.status_code = 302;
    response.reason = "Found";
    response.headers.Set("Location", "/new");
    return response;
  });
  server_->ServeStatic("/new", "text/html",
                       "<html><head><title>New</title></head><body></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/old")).ok());
  EXPECT_EQ(browser_->document()->Title(), "New");
  EXPECT_EQ(browser_->current_url().path(), "/new");
}

TEST_F(BrowserTest, RedirectLoopFails) {
  server_->Route("/loop", [](const HttpRequest&) {
    HttpResponse response;
    response.status_code = 302;
    response.headers.Set("Location", "/loop");
    return response;
  });
  EXPECT_FALSE(NavigateAndWait(SiteUrl("/loop")).ok());
}

TEST_F(BrowserTest, NotFoundIsError) {
  EXPECT_FALSE(NavigateAndWait(SiteUrl("/missing")).ok());
}

TEST_F(BrowserTest, ConnectionRefusedIsError) {
  network_.AddHost("www.dead.test", {});
  auto url = Url::Make("http", "www.dead.test", 80, "/");
  EXPECT_EQ(NavigateAndWait(url).code(), StatusCode::kUnavailable);
}

TEST_F(BrowserTest, CookiesStoredAndSent) {
  server_->Route("/set", [](const HttpRequest&) {
    HttpResponse response = HttpResponse::Ok("text/html", "<html></html>");
    response.headers.Add("Set-Cookie", "sid=xyz; Path=/");
    return response;
  });
  std::string seen_cookie;
  server_->Route("/check", [&](const HttpRequest& request) {
    seen_cookie = request.headers.Get("Cookie").value_or("");
    return HttpResponse::Ok("text/html", "<html></html>");
  });
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/set")).ok());
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/check")).ok());
  EXPECT_EQ(seen_cookie, "sid=xyz");
}

TEST_F(BrowserTest, ClickLinkNavigates) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><a id=\"go\" href=\"/next\">go</a></body></html>");
  server_->ServeStatic("/next", "text/html",
                       "<html><head><title>Next</title></head><body></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  Element* anchor = browser_->document()->ById("go");
  ASSERT_NE(anchor, nullptr);
  bool done = false;
  ASSERT_TRUE(browser_
                  ->ClickLink(anchor,
                              [&](const Status&, const PageLoadStats&) {
                                done = true;
                              })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(browser_->document()->Title(), "Next");
}

TEST_F(BrowserTest, ClickLinkRejectsNonAnchor) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><p id=\"p\">x</p></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  EXPECT_FALSE(browser_
                   ->ClickLink(browser_->document()->ById("p"),
                               [](const Status&, const PageLoadStats&) {})
                   .ok());
}

TEST_F(BrowserTest, SubmitFormGetEncodesQuery) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><form id=\"f\" action=\"/search\" method=\"get\">"
                       "<input type=\"text\" name=\"q\" value=\"\">"
                       "<input type=\"submit\" name=\"go\" value=\"Go\">"
                       "</form></body></html>");
  std::string seen_query;
  server_->Route("/search", [&](const HttpRequest& request) {
    seen_query = request.QueryString();
    return HttpResponse::Ok("text/html", "<html><body>results</body></html>");
  });
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  Element* form = browser_->document()->ById("f");
  ASSERT_TRUE(Browser::FillField(form, "q", "macbook air").ok());
  bool done = false;
  ASSERT_TRUE(browser_
                  ->SubmitForm(form,
                               [&](const Status&, const PageLoadStats&) {
                                 done = true;
                               })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(seen_query, "q=macbook%20air");
}

TEST_F(BrowserTest, SubmitFormPostSendsBody) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><form id=\"f\" action=\"/submit\" method=\"post\">"
                       "<input type=\"text\" name=\"a\" value=\"1\">"
                       "<input type=\"hidden\" name=\"h\" value=\"2\">"
                       "<input type=\"checkbox\" name=\"c\" value=\"3\">"
                       "<input type=\"checkbox\" name=\"d\" value=\"4\" checked>"
                       "<textarea name=\"t\">text</textarea>"
                       "<select name=\"s\"><option value=\"x\">X</option>"
                       "<option value=\"y\" selected>Y</option></select>"
                       "</form></body></html>");
  std::string seen_body;
  server_->Route("/submit", [&](const HttpRequest& request) {
    seen_body = request.body;
    return HttpResponse::Ok("text/html", "<html><body>done</body></html>");
  });
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  bool done = false;
  ASSERT_TRUE(browser_
                  ->SubmitForm(browser_->document()->ById("f"),
                               [&](const Status&, const PageLoadStats&) {
                                 done = true;
                               })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  // Unchecked checkbox c omitted; checked d included; select picks y.
  EXPECT_EQ(seen_body, "a=1&h=2&d=4&t=text&s=y");
}

TEST_F(BrowserTest, FormPostRedirectFollowed) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><form id=\"f\" action=\"/add\" method=\"post\">"
                       "<input type=\"hidden\" name=\"x\" value=\"1\">"
                       "</form></body></html>");
  server_->Route("/add", [](const HttpRequest&) {
    HttpResponse response;
    response.status_code = 302;
    response.headers.Set("Location", "/done");
    return response;
  });
  server_->ServeStatic("/done", "text/html",
                       "<html><head><title>Done</title></head><body></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  bool done = false;
  ASSERT_TRUE(browser_
                  ->SubmitForm(browser_->document()->ById("f"),
                               [&](const Status&, const PageLoadStats&) {
                                 done = true;
                               })
                  .ok());
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(browser_->document()->Title(), "Done");
}

TEST_F(BrowserTest, FillFieldErrors) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><form id=\"f\">"
                       "<input name=\"known\" value=\"\"></form></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  Element* form = browser_->document()->ById("f");
  EXPECT_TRUE(Browser::FillField(form, "known", "v").ok());
  EXPECT_EQ(Browser::FillField(form, "unknown", "v").code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(Browser::FillField(nullptr, "x", "v").ok());
}

TEST_F(BrowserTest, MutateDocumentFiresChangeListener) {
  server_->ServeStatic("/", "text/html",
                       "<html><body><div id=\"d\">old</div></body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  int changes = 0;
  browser_->SetDocumentChangeListener([&] { ++changes; });
  browser_->MutateDocument([](Document* document) {
    Element* div = document->ById("d");
    div->RemoveAllChildren();
    div->AppendChild(MakeText("new"));
  });
  EXPECT_EQ(changes, 1);
  EXPECT_EQ(browser_->document()->ById("d")->TextContent(), "new");
}

TEST_F(BrowserTest, PersistentConnectionReused) {
  server_->ServeStatic("/", "text/html", "<html><body>1</body></html>");
  server_->ServeStatic("/two", "text/html", "<html><body>2</body></html>");
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/")).ok());
  PageLoadStats second;
  ASSERT_TRUE(NavigateAndWait(SiteUrl("/two"), &second).ok());
  // No handshake on the reused connection: request + response = 20 ms.
  EXPECT_EQ(second.html_time.millis(), 20);
}

TEST_F(BrowserTest, ObjectCacheLookupByKey) {
  ObjectCache cache;
  Url url = Url::Make("http", "h", 80, "/img.png");
  std::string key = cache.Put(url, "image/png", "bytes");
  const CacheEntry* by_key = cache.LookupByKey(key);
  ASSERT_NE(by_key, nullptr);
  EXPECT_EQ(by_key->body, "bytes");
  EXPECT_EQ(cache.LookupByKey("ck-bogus"), nullptr);
  // Re-put same URL keeps the key and replaces the body.
  std::string key2 = cache.Put(url, "image/png", "other");
  EXPECT_EQ(key, key2);
  EXPECT_EQ(cache.LookupByKey(key)->body, "other");
}

TEST_F(BrowserTest, ObjectCacheStats) {
  ObjectCache cache;
  Url url = Url::Make("http", "h", 80, "/a");
  cache.Put(url, "text/plain", "12345");
  EXPECT_EQ(cache.total_bytes(), 5u);
  EXPECT_NE(cache.Lookup(url), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  cache.Lookup(Url::Make("http", "h", 80, "/b"));
  EXPECT_EQ(cache.misses(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.total_bytes(), 0u);
}

TEST_F(BrowserTest, CollectResourcesKindsAndDedup) {
  auto doc = ParseDocument(
      "<html><head><link rel=\"stylesheet\" href=\"/s.css\">"
      "<link rel=\"alternate\" href=\"/feed\"></head>"
      "<body background=\"/bg.png\"><img src=\"/a.png\"><img src=\"/a.png\">"
      "<script src=\"/j.js\"></script><iframe src=\"/f.html\"></iframe>"
      "<a href=\"/nav\">x</a><img src=\"data:image/png;base64,xx\">"
      "<img src=\"javascript:void(0)\"></body></html>");
  Url base = Url::Make("http", "h", 80, "/");
  auto resources = CollectResources(doc.get(), base, 0);
  // s.css, bg.png, a.png (once), j.js, f.html — not the alternate link,
  // anchor, data: or javascript: URLs.
  ASSERT_EQ(resources.size(), 5u);
  EXPECT_EQ(resources[0].kind, "stylesheet");
  EXPECT_EQ(resources[1].kind, "image");  // body background
  EXPECT_EQ(resources[2].kind, "image");
  EXPECT_EQ(resources[3].kind, "script");
  EXPECT_EQ(resources[4].kind, "frame");
}

TEST_F(BrowserTest, ReplaceDocumentSwapsContentWithoutNetwork) {
  uint64_t messages_before = network_.total_messages();
  auto doc = ParseDocument("<html><head><title>Injected</title></head></html>");
  browser_->ReplaceDocument(std::move(doc), SiteUrl("/injected"));
  EXPECT_EQ(browser_->document()->Title(), "Injected");
  EXPECT_EQ(network_.total_messages(), messages_before);
}

}  // namespace
}  // namespace rcb
