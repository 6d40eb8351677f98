// Tests for the Fig. 3 content-generation pipeline.
#include <gtest/gtest.h>

#include "src/core/content_generator.h"
#include "src/sites/site_server.h"

namespace rcb {
namespace {

class ContentGeneratorTest : public ::testing::Test {
 protected:
  ContentGeneratorTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("www.origin.test", {});
    server_ = std::make_unique<SiteServer>(&loop_, &network_, "www.origin.test");
    browser_ = std::make_unique<Browser>(&loop_, &network_, "host-pc");
  }

  void Load(const std::string& html,
            const std::map<std::string, std::string>& objects = {}) {
    server_->ServeStatic("/", "text/html", html);
    for (const auto& [path, body] : objects) {
      server_->ServeStatic(path, "application/octet-stream", body);
    }
    bool done = false;
    Status status;
    browser_->Navigate(Url::Make("http", "www.origin.test", 80, "/"),
                       [&](const Status& s, const PageLoadStats&) {
                         status = s;
                         done = true;
                       });
    loop_.RunUntilCondition([&] { return done; });
    ASSERT_TRUE(status.ok()) << status;
  }

  GenerationResult Generate(bool cache_mode) {
    ContentGenerator generator(browser_.get());
    ContentGenOptions options;
    options.cache_mode = cache_mode;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    return generator.Generate(1000, options);
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(ContentGeneratorTest, ExtractsHeadAndBody) {
  Load("<html><head><title>T</title><meta name=\"a\" content=\"b\">"
       "<style>.x{}</style></head>"
       "<body class=\"main\"><p>hello</p></body></html>");
  GenerationResult result = Generate(/*cache_mode=*/false);
  const Snapshot& snapshot = result.snapshot;
  EXPECT_TRUE(snapshot.has_content);
  EXPECT_EQ(snapshot.doc_time_ms, 1000);
  ASSERT_EQ(snapshot.head_children.size(), 3u);
  EXPECT_EQ(snapshot.head_children[0].tag, "title");
  EXPECT_EQ(snapshot.head_children[0].inner_html, "T");
  EXPECT_EQ(snapshot.head_children[1].tag, "meta");
  EXPECT_EQ(snapshot.head_children[2].tag, "style");
  EXPECT_EQ(snapshot.head_children[2].inner_html, ".x{}");
  ASSERT_TRUE(snapshot.body.has_value());
  EXPECT_EQ(snapshot.body->tag, "body");
  EXPECT_NE(snapshot.body->inner_html.find("<p>hello</p>"), std::string::npos);
  // body attributes preserved.
  bool saw_class = false;
  for (const auto& [name, value] : snapshot.body->attributes) {
    if (name == "class" && value == "main") {
      saw_class = true;
    }
  }
  EXPECT_TRUE(saw_class);
}

TEST_F(ContentGeneratorTest, RelativeUrlsAbsolutized) {
  Load("<html><body><img src=\"/img/a.png\"><img src=\"b.png\">"
       "<a href=\"../up\">l</a>"
       "<img src=\"http://other.test/c.png\"></body></html>",
       {{"/img/a.png", "A"}, {"/b.png", "B"}});
  GenerationResult result = Generate(/*cache_mode=*/false);
  const std::string& body = result.snapshot.body->inner_html;
  EXPECT_NE(body.find("src=\"http://www.origin.test/img/a.png\""),
            std::string::npos);
  EXPECT_NE(body.find("src=\"http://www.origin.test/b.png\""), std::string::npos);
  EXPECT_NE(body.find("href=\"http://www.origin.test/up\""), std::string::npos);
  // Already-absolute URL untouched.
  EXPECT_NE(body.find("src=\"http://other.test/c.png\""), std::string::npos);
  EXPECT_EQ(result.urls_absolutized, 3u);
}

TEST_F(ContentGeneratorTest, CacheModeRewritesCachedObjectsOnly) {
  Load("<html><body><img src=\"/img/a.png\">"
       "<img src=\"http://uncached.test/x.png\">"
       "<a href=\"/nav\">n</a></body></html>",
       {{"/img/a.png", "A"}});
  GenerationResult result = Generate(/*cache_mode=*/true);
  const std::string& body = result.snapshot.body->inner_html;
  // Cached image now points at the agent.
  EXPECT_NE(body.find("src=\"http://host-pc:3000/obj/"), std::string::npos);
  // Uncached image still points at its origin.
  EXPECT_NE(body.find("src=\"http://uncached.test/x.png\""), std::string::npos);
  // Navigation links are never cache-rewritten.
  EXPECT_NE(body.find("href=\"http://www.origin.test/nav\""), std::string::npos);
  EXPECT_EQ(result.urls_cache_rewritten, 1u);
}

TEST_F(ContentGeneratorTest, NonCacheModeLeavesOriginUrls) {
  Load("<html><body><img src=\"/img/a.png\"></body></html>",
       {{"/img/a.png", "A"}});
  GenerationResult result = Generate(/*cache_mode=*/false);
  EXPECT_EQ(result.urls_cache_rewritten, 0u);
  EXPECT_EQ(result.snapshot.body->inner_html.find("host-pc:3000"),
            std::string::npos);
}

TEST_F(ContentGeneratorTest, CacheRewrittenKeyResolvesInCache) {
  Load("<html><body><img src=\"/img/a.png\"></body></html>",
       {{"/img/a.png", "PIXELDATA"}});
  GenerationResult result = Generate(/*cache_mode=*/true);
  const std::string& body = result.snapshot.body->inner_html;
  size_t pos = body.find("/obj/");
  ASSERT_NE(pos, std::string::npos);
  size_t end = body.find('"', pos);
  std::string key = body.substr(pos + 5, end - pos - 5);
  const CacheEntry* entry = browser_->cache().LookupByKey(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->body, "PIXELDATA");
}

TEST_F(ContentGeneratorTest, EventAttributesRewritten) {
  Load("<html><body>"
       "<form id=\"f\" action=\"/go\"><input name=\"q\" value=\"\">"
       "<input type=\"submit\" name=\"s\" value=\"Go\"></form>"
       "<a href=\"/x\" id=\"l\">link</a>"
       "<button id=\"b\">press</button>"
       "</body></html>");
  GenerationResult result = Generate(/*cache_mode=*/false);
  const std::string& body = result.snapshot.body->inner_html;
  EXPECT_NE(body.find("onsubmit=\"return rcbSubmit(this)\""), std::string::npos);
  EXPECT_NE(body.find("onclick=\"return rcbClick(this)\""), std::string::npos);
  EXPECT_NE(body.find("onchange=\"rcbFill(this)\""), std::string::npos);
  // All five interactive elements got ids 0..4 in pre-order.
  EXPECT_EQ(result.interactive_elements, 5u);
  EXPECT_NE(body.find("data-rcb-id=\"0\""), std::string::npos);
  EXPECT_NE(body.find("data-rcb-id=\"4\""), std::string::npos);
}

TEST_F(ContentGeneratorTest, HostDocumentNotMutated) {
  Load("<html><body><form action=\"/go\"><input name=\"q\" value=\"\"></form>"
       "<img src=\"/img/a.png\"></body></html>",
       {{"/img/a.png", "A"}});
  const uint64_t rev_before = browser_->document()->document_element()->rev();
  std::string before = browser_->document()->body()->OuterHtml();
  Generate(/*cache_mode=*/true);
  std::string after = browser_->document()->body()->OuterHtml();
  // The Fig. 3 rewrites only shape the emitted bytes; the live page must be
  // untouched, down to its revision stamps.
  EXPECT_EQ(before, after);
  EXPECT_EQ(before.find("data-rcb-id"), std::string::npos);
  EXPECT_EQ(browser_->document()->document_element()->rev(), rev_before);
}

TEST_F(ContentGeneratorTest, InteractiveEnumerationConsistentWithLiveDoc) {
  Load("<html><body><a href=\"/1\">1</a>"
       "<form action=\"/f\"><input name=\"x\" value=\"\"></form>"
       "<a href=\"/2\">2</a></body></html>");
  GenerationResult result = Generate(/*cache_mode=*/false);
  // The generated data-rcb-id numbering must match the live-document
  // enumeration the agent uses when resolving participant action targets.
  auto live = ContentGenerator::InteractiveElements(browser_->document());
  ASSERT_EQ(live.size(), result.interactive_elements);
  EXPECT_EQ(live[0]->tag_name(), "a");
  EXPECT_EQ(live[1]->tag_name(), "form");
  EXPECT_EQ(live[2]->tag_name(), "input");
  EXPECT_EQ(live[3]->tag_name(), "a");
}

TEST_F(ContentGeneratorTest, AnchorWithoutHrefNotInteractive) {
  Element with_href("a");
  with_href.SetAttribute("href", "/x");
  Element without_href("a");
  EXPECT_TRUE(ContentGenerator::IsInteractive(with_href));
  EXPECT_FALSE(ContentGenerator::IsInteractive(without_href));
}

TEST_F(ContentGeneratorTest, FramesetExtraction) {
  Load("<html><head><title>F</title></head>"
       "<frameset rows=\"*\"><frame src=\"/fa.html\"></frameset>"
       "<noframes><p>n</p></noframes></html>");
  GenerationResult result = Generate(/*cache_mode=*/false);
  EXPECT_FALSE(result.snapshot.body.has_value());
  ASSERT_TRUE(result.snapshot.frameset.has_value());
  EXPECT_NE(result.snapshot.frameset->inner_html.find(
                "src=\"http://www.origin.test/fa.html\""),
            std::string::npos);
  ASSERT_TRUE(result.snapshot.noframes.has_value());
}

TEST_F(ContentGeneratorTest, EmptyBrowserYieldsNoContent) {
  Browser empty(&loop_, &network_, "host-pc");
  ContentGenerator generator(&empty);
  ContentGenOptions options;
  GenerationResult result = generator.Generate(1, options);
  EXPECT_FALSE(result.snapshot.has_content);
}

TEST_F(ContentGeneratorTest, PerObjectCacheModeFilter) {
  // §4.1.2: "allow different objects on the same webpage to use different
  // modes" — here, images via the host cache, stylesheets from the origin.
  Load("<html><head><link rel=\"stylesheet\" href=\"/s.css\"></head>"
       "<body><img src=\"/img/a.png\"></body></html>",
       {{"/s.css", "css"}, {"/img/a.png", "A"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");
  options.cache_object_filter = [](const Url&, const std::string& kind) {
    return kind == "image";
  };
  GenerationResult result = generator.Generate(1, options);
  EXPECT_EQ(result.urls_cache_rewritten, 1u);
  const std::string& body = result.snapshot.body->inner_html;
  EXPECT_NE(body.find("src=\"http://host-pc:3000/obj/"), std::string::npos);
  // The stylesheet stayed on the origin: check the head payload.
  bool stylesheet_on_origin = false;
  for (const auto& child : result.snapshot.head_children) {
    for (const auto& [name, value] : child.attributes) {
      if (name == "href" && value == "http://www.origin.test/s.css") {
        stylesheet_on_origin = true;
      }
    }
  }
  EXPECT_TRUE(stylesheet_on_origin);
}

TEST_F(ContentGeneratorTest, WallTimeMeasured) {
  Load("<html><body><p>x</p></body></html>");
  GenerationResult result = Generate(/*cache_mode=*/false);
  // Real CPU time: non-negative and sane (< 1 s for a trivial page).
  EXPECT_GE(result.wall_time.micros(), 0);
  EXPECT_LT(result.wall_time, Duration::Seconds(1.0));
}

}  // namespace
}  // namespace rcb
