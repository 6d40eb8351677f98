// Hot-path correctness: DOM revision tracking and — the
// load-bearing property — that the incremental generator (Fig. 3 rewrites
// applied on the serialization cache's miss path over the live DOM) is
// byte-identical to the reference path (clone, whole-tree rewrite passes,
// cold full serialization) for random mutation schedules over corpus pages
// (docs/PERF_MODEL.md).
//
// The property test runs a persistent incremental generator against the
// reference oracle (tests/support/reference_generator.h) after every
// mutation and compares
// the serialized snapshot XML byte for byte, including the spliced
// pre-escaped CDATA path. The mutation mix targets the rewrite hazards: URL
// writes of every shape, interactivity flips that shift trailing ids,
// elements that already carry the attributes the rewrite sets, and head
// edits. Under the RCB_SANITIZE (ASan) build any span that referenced the
// DOM instead of owning its bytes would be a hard report.
#include <gtest/gtest.h>

#include "src/core/content_generator.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "src/util/escape.h"
#include "src/util/rand.h"
#include "tests/support/reference_generator.h"

namespace rcb {
namespace {

// ---------------------------------------------------------------------------
// DOM revision tracking
// ---------------------------------------------------------------------------

TEST(DomRevTest, MutationRestampsNodeAndAncestorsDistinctly) {
  auto root = MakeElement("div");
  auto middle = MakeElement("p");
  auto leaf = MakeElement("span");
  Element* leaf_ptr = leaf.get();
  Element* middle_ptr = middle.get();
  middle->AppendChild(std::move(leaf));
  root->AppendChild(std::move(middle));
  auto sibling = MakeElement("em");
  Element* sibling_ptr = sibling.get();
  root->AppendChild(std::move(sibling));

  uint64_t root_before = root->rev();
  uint64_t sibling_before = sibling_ptr->rev();
  leaf_ptr->SetAttribute("class", "hot");
  EXPECT_GT(leaf_ptr->rev(), root_before);
  EXPECT_GT(middle_ptr->rev(), root_before);
  EXPECT_GT(root->rev(), root_before);
  // Fresh and distinct per node: a rev uniquely identifies (node, state).
  EXPECT_NE(leaf_ptr->rev(), middle_ptr->rev());
  EXPECT_NE(middle_ptr->rev(), root->rev());
  // Untouched siblings keep their rev — that is the incremental win.
  EXPECT_EQ(sibling_ptr->rev(), sibling_before);
}

TEST(DomRevTest, UnchangedAttributeWriteDoesNotTouch) {
  auto element = MakeElement("div");
  element->SetAttribute("id", "x");
  uint64_t before = element->rev();
  element->SetAttribute("id", "x");  // same value: no restamp
  EXPECT_EQ(element->rev(), before);
  element->SetAttribute("id", "y");
  EXPECT_GT(element->rev(), before);
}

TEST(DomRevTest, ClonePreservesRevsRecursively) {
  auto root = MakeElement("div");
  auto child = MakeElement("p");
  child->AppendChild(MakeText("hello"));
  root->AppendChild(std::move(child));
  std::unique_ptr<Node> copy = root->Clone();
  EXPECT_EQ(copy->rev(), root->rev());
  ASSERT_EQ(copy->child_count(), root->child_count());
  EXPECT_EQ(copy->child_at(0)->rev(), root->child_at(0)->rev());
  EXPECT_EQ(copy->child_at(0)->child_at(0)->rev(),
            root->child_at(0)->child_at(0)->rev());
}

// ---------------------------------------------------------------------------
// Incremental-vs-cold byte identity (the correctness gate)
// ---------------------------------------------------------------------------

// URL shapes the absolutize step must treat differently: relative (rewritten),
// fragment / javascript: / data: (left alone) and absolute (left alone, and
// cache-rewritten when the object is cached).
std::string RandomUrlValue(Rng* rng, int step,
                           const std::vector<std::string>& known_objects) {
  switch (rng->NextBelow(7)) {
    case 0:
      return "img/mut" + std::to_string(step) + ".png";
    case 1:
      return "../up/" + std::to_string(step) + "?q=1#top";
    case 2:
      return "#frag" + std::to_string(step);
    case 3:
      return "javascript:void(" + std::to_string(step) + ")";
    case 4:
      return "data:image/png;base64,AAAA";
    case 5:
      return "http://abs.test/" + std::to_string(step) + ".png";
    default:
      // A URL the page already uses: cached in cache mode, so step 3 fires.
      return known_objects.empty()
                 ? "/x.png"
                 : known_objects[rng->NextBelow(known_objects.size())];
  }
}

// One deterministic mutation drawn from `rng`. The mix deliberately includes
// the hazards the cache and the live-DOM rewrite must survive: inserting an
// interactive element early in the body (or flipping an anchor's href)
// shifts every later data-rcb-id (id_base validation), removals restructure
// the tree, text/attribute edits dirty deep subtrees, URL writes of every
// shape exercise steps 2 and 3 on the miss path, pre-existing data-rcb-id /
// onclick / onchange attributes pin the in-place replacement order, and head
// edits reach payload roots outside the body.
void ApplyRandomMutation(Document* document, Rng* rng, int step) {
  Element* body = document->body();
  ASSERT_NE(body, nullptr);
  std::vector<Element*> elements;
  std::vector<Element*> anchors;
  std::vector<std::string> known_objects;
  std::function<void(Element*)> collect = [&](Element* element) {
    elements.push_back(element);
    if (element->tag_name() == "a") {
      anchors.push_back(element);
    }
    if (element->tag_name() == "img" && element->HasAttribute("src")) {
      known_objects.push_back(element->AttrOr("src"));
    }
    for (const auto& child : element->children()) {
      if (Element* child_element = child->AsElement()) {
        collect(child_element);
      }
    }
  };
  collect(body);
  Element* target = elements[rng->NextBelow(elements.size())];
  const std::string n = std::to_string(step);
  switch (rng->NextBelow(12)) {
    case 0:  // text edit inside an element
      target->AppendChild(MakeText("step " + n));
      break;
    case 1:  // attribute write
      target->SetAttribute("data-step", n);
      break;
    case 2: {  // interactive element at the front: shifts all later ids
      auto link = MakeElement("a");
      link->SetAttribute("href", "/mut" + n);
      link->AppendChild(MakeText("m" + n));
      body->InsertBefore(std::move(link),
                         body->child_count() > 0 ? body->child_at(0) : nullptr);
      break;
    }
    case 3:  // removal (keep the body itself)
      if (target != body && target->parent() != nullptr) {
        target->parent()->RemoveChild(target);
      }
      break;
    case 4:  // attribute removal
      target->RemoveAttribute("data-step");
      break;
    case 5: {  // URL write on an img or an anchor
      auto element = MakeElement(rng->NextBelow(2) == 0 ? "img" : "a");
      const bool is_img = element->tag_name() == "img";
      element->SetAttribute(is_img ? "src" : "href",
                            RandomUrlValue(rng, step, known_objects));
      target->AppendChild(std::move(element));
      break;
    }
    case 6: {  // rewrite an existing URL in place
      Element* img = document->FindFirst("img");
      if (img != nullptr) {
        img->SetAttribute("src", RandomUrlValue(rng, step, known_objects));
      } else {
        target->SetAttribute("background", RandomUrlValue(rng, step, {}));
      }
      break;
    }
    case 7:  // href toggle: flips interactivity, shifts trailing ids
      if (!anchors.empty()) {
        Element* anchor = anchors[rng->NextBelow(anchors.size())];
        if (anchor->HasAttribute("href")) {
          anchor->RemoveAttribute("href");
        } else {
          anchor->SetAttribute("href", "rel/" + n);
        }
      }
      break;
    case 8: {  // attributes the rewrite sets are already present
      static const char* const kTags[] = {"input", "a", "button", "form"};
      auto element = MakeElement(kTags[rng->NextBelow(4)]);
      element->SetAttribute("data-rcb-id", "99");
      element->SetAttribute("onclick", "evil()");
      element->SetAttribute("onchange", "evil()");
      if (element->tag_name() == "a") {
        element->SetAttribute("href", "rel/" + n);
      }
      element->SetAttribute("name", "pre" + n);
      target->AppendChild(std::move(element));
      break;
    }
    case 9: {  // image input: a form field with a supplementary object
      auto input = MakeElement("input");
      input->SetAttribute("type", "image");
      // Half the time an object the page already loaded, so cache mode
      // rewrites it to /obj/<key>.
      input->SetAttribute(
          "src", !known_objects.empty() && rng->NextBelow(2) == 0
                     ? known_objects[rng->NextBelow(known_objects.size())]
                     : RandomUrlValue(rng, step, known_objects));
      target->AppendChild(std::move(input));
      break;
    }
    case 10: {  // URL edit on a head child
      Element* head = document->head();
      if (head == nullptr) {
        break;
      }
      Element* link = nullptr;
      for (const auto& child : head->children()) {
        Element* element = child->AsElement();
        if (element != nullptr && (element->tag_name() == "link" ||
                                   element->tag_name() == "script")) {
          link = element;
        }
      }
      if (link == nullptr) {
        auto fresh = MakeElement("link");
        fresh->SetAttribute("rel", "icon");
        link = static_cast<Element*>(head->AppendChild(std::move(fresh)));
      }
      link->SetAttribute(link->tag_name() == "script" ? "src" : "href",
                         RandomUrlValue(rng, step, known_objects));
      break;
    }
    default: {  // plain subtree insertion
      auto div = MakeElement("div");
      div->SetAttribute("class", "mut");
      div->AppendChild(MakeText("item " + n));
      target->AppendChild(std::move(div));
      break;
    }
  }
}

class SerializeCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeCachePropertyTest, IncrementalMatchesColdFullSerialization) {
  const uint64_t seed = GetParam();
  const std::vector<SiteSpec>& sites = Table1Sites();
  const SiteSpec& spec = sites[seed % sites.size()];

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  network.AddHost(spec.host, {});
  auto server = InstallSite(&loop, &network, spec);
  Browser browser(&loop, &network, "host-pc");
  bool done = false;
  Status status;
  browser.Navigate(Url::Make("http", spec.host, 80, "/"),
                   [&](const Status& s, const PageLoadStats&) {
                     status = s;
                     done = true;
                   });
  ASSERT_TRUE(loop.RunUntilCondition([&] { return done; }));
  ASSERT_TRUE(status.ok()) << status;

  ContentGenOptions options;
  options.cache_mode = (seed % 2) == 0;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");
  if (seed % 4 == 0) {
    // §4.1.2 per-object modes: images via the agent, the rest from origin.
    options.cache_object_filter = [](const Url&, const std::string& kind) {
      return kind == "image";
    };
  }

  ContentGenerator incremental(&browser);

  Rng rng(seed * 0x9E3779B9u + 1);
  // First pass serializes the whole page (all misses); each later pass
  // reuses every subtree the mutation left clean.
  std::string previous_first;
  for (int step = 0; step < 10; ++step) {
    if (step > 0) {
      browser.MutateDocument([&](Document* document) {
        ApplyRandomMutation(document, &rng, step);
      });
    }
    GenerationResult warm = incremental.Generate(1000 + step, options);
    // The cold reference: no cache, a fresh clone rewritten by the three
    // whole-tree passes.
    GenerationResult reference =
        ReferenceGenerate(&browser, 1000 + step, options);

    const std::string warm_xml = SerializeSnapshotXml(warm.snapshot);
    const std::string cold_xml = SerializeSnapshotXml(reference.snapshot);
    ASSERT_EQ(warm_xml, cold_xml)
        << spec.name << " diverged at step " << step << " (seed " << seed
        << ")";
    // The spliced pre-escaped path must produce the same bytes as a fresh
    // escape of the same snapshot.
    ASSERT_TRUE(warm.escaped.Matches(warm.snapshot));
    SnapshotSerializeStats spliced_stats, fresh_stats;
    const std::string spliced = SerializeSnapshotXml(
        warm.snapshot, &spliced_stats, &warm.escaped, nullptr);
    ASSERT_EQ(spliced, SerializeSnapshotXml(warm.snapshot, &fresh_stats));
    EXPECT_EQ(spliced_stats.payload_raw_bytes, fresh_stats.payload_raw_bytes);
    EXPECT_EQ(spliced_stats.payload_escaped_bytes,
              fresh_stats.payload_escaped_bytes);
    EXPECT_EQ(reference.interactive_elements, warm.interactive_elements);
    if (step == 0) {
      // Nothing cached yet: the live path rewrote everything the clone did.
      EXPECT_EQ(reference.urls_absolutized, warm.urls_absolutized);
      EXPECT_EQ(reference.urls_cache_rewritten, warm.urls_cache_rewritten);
    }
  }
  // The schedules leave most of the page untouched, so the cache must have
  // done real splicing work — this is the perf half of the contract.
  const SerializeCache::Stats& stats = incremental.serialize_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.hit_bytes, 0u);
}

// Seeds 1..20 cover every Table 1 site once (site = seed % 20).
INSTANTIATE_TEST_SUITE_P(Seeds, SerializeCachePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Targeted cache-identity hazards
// ---------------------------------------------------------------------------

class SerializeCacheTest : public ::testing::Test {
 protected:
  SerializeCacheTest() : network_(&loop_) {
    network_.AddHost("host-pc", {});
    network_.AddHost("www.origin.test", {});
    server_ =
        std::make_unique<SiteServer>(&loop_, &network_, "www.origin.test");
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
    ASSERT_TRUE(loop_.RunUntilCondition([&] { return done; }));
    ASSERT_TRUE(status.ok()) << status;
  }

  ContentGenOptions Options(bool cache_mode) {
    ContentGenOptions options;
    options.cache_mode = cache_mode;
    options.agent_url = Url::Make("http", "host-pc", 3000, "/");
    return options;
  }

  // Cold reference bytes for the browser's current document.
  std::string ColdXml(int64_t doc_time_ms, const ContentGenOptions& options) {
    return SerializeSnapshotXml(
        ReferenceGenerate(browser_.get(), doc_time_ms, options).snapshot);
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<Browser> browser_;
};

TEST_F(SerializeCacheTest, UnchangedRegenerationHitsTheCache) {
  Load("<html><head><title>T</title></head><body>"
       "<div id=\"a\"><p>alpha content long enough to clear the minimum "
       "cacheable span size threshold</p><img src=\"img/a.png\"></div>"
       "<div id=\"b\"><p>beta content long enough to clear the minimum "
       "cacheable span size threshold</p><img src=\"/img/b.png\"></div>"
       "</body></html>",
       {{"/img/a.png", "A"}, {"/img/b.png", "B"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/true);
  GenerationResult first = generator.Generate(1000, options);
  EXPECT_EQ(first.urls_absolutized, 2u);
  EXPECT_EQ(first.urls_cache_rewritten, 2u);
  uint64_t misses_after_first = generator.serialize_cache_stats().misses;
  GenerationResult second = generator.Generate(2000, options);
  EXPECT_EQ(first.snapshot.body->inner_html, second.snapshot.body->inner_html);
  // The second pass re-serialized nothing below the payload roots...
  EXPECT_GT(generator.serialize_cache_stats().hits, 0u);
  EXPECT_EQ(generator.serialize_cache_stats().misses, misses_after_first);
  // ...and so rewrote nothing: the rewrites ride the miss path only.
  EXPECT_EQ(second.urls_absolutized, 0u);
  EXPECT_EQ(second.urls_cache_rewritten, 0u);
  EXPECT_EQ(SerializeSnapshotXml(second.snapshot), ColdXml(2000, options));
}

TEST_F(SerializeCacheTest, InsertedInteractiveElementShiftsTrailingIds) {
  // Two forms after the insertion point: their data-rcb-id values must shift
  // when a new anchor lands before them, even though their subtrees are
  // byte-identical otherwise — the id_base check forces the re-serialization.
  Load("<html><body><div id=\"top\">x</div>"
       "<form id=\"f1\"><input name=\"q\"></form>"
       "<form id=\"f2\"><input name=\"r\"></form></body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult before = generator.Generate(1000, options);
  EXPECT_NE(before.snapshot.body->inner_html.find("data-rcb-id=\"0\""),
            std::string::npos);

  browser_->MutateDocument([](Document* document) {
    auto link = MakeElement("a");
    link->SetAttribute("href", "/first");
    link->AppendChild(MakeText("now first"));
    document->body()->InsertBefore(std::move(link),
                                   document->body()->child_at(0));
  });
  GenerationResult after = generator.Generate(2000, options);
  EXPECT_EQ(SerializeSnapshotXml(after.snapshot), ColdXml(2000, options));
  EXPECT_EQ(after.interactive_elements, before.interactive_elements + 1);
}

TEST_F(SerializeCacheTest, ObjectCacheChangeInvalidatesCacheModeBytes) {
  // Cache-mode output depends on which URLs the ObjectCache can serve; its
  // change_epoch is folded into the config fingerprint, so clearing the
  // cache must change the generated bytes back to origin URLs.
  Load("<html><body><img src=\"/img/a.png\"><p>text</p></body></html>",
       {{"/img/a.png", "PIXELS"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/true);
  GenerationResult cached = generator.Generate(1000, options);
  EXPECT_NE(cached.snapshot.body->inner_html.find("/obj/"), std::string::npos);

  browser_->cache().Clear();
  GenerationResult cleared = generator.Generate(2000, options);
  EXPECT_EQ(cleared.snapshot.body->inner_html.find("/obj/"),
            std::string::npos);
  EXPECT_EQ(SerializeSnapshotXml(cleared.snapshot), ColdXml(2000, options));
}

TEST_F(SerializeCacheTest, ModeSwitchKeepsBothFingerprintsCorrect) {
  Load("<html><body><img src=\"/img/a.png\"><div>stable</div></body></html>",
       {{"/img/a.png", "PIXELS"}});
  ContentGenerator generator(browser_.get());
  ContentGenOptions cache_on = Options(/*cache_mode=*/true);
  ContentGenOptions cache_off = Options(/*cache_mode=*/false);
  // Alternating modes on one generator: entries for both fingerprints
  // coexist and neither serves the other's bytes.
  for (int round = 0; round < 3; ++round) {
    GenerationResult on = generator.Generate(1000 + round, cache_on);
    EXPECT_EQ(SerializeSnapshotXml(on.snapshot), ColdXml(1000 + round, cache_on));
    GenerationResult off = generator.Generate(1000 + round, cache_off);
    EXPECT_EQ(SerializeSnapshotXml(off.snapshot),
              ColdXml(1000 + round, cache_off));
  }
}

TEST_F(SerializeCacheTest, BudgetIsEnforcedByEviction) {
  // A synthetic page whose cacheable spans (div, p and text, each raw plus
  // escaped) add up to about twice SerializeCache::kBudgetBytes, so the real
  // 4 MiB budget has to evict while staying byte-identical to the oracle.
  std::string html = "<html><body>";
  for (int i = 0; i < 4096; ++i) {
    html += "<div class=\"block\"><p>block " + std::to_string(i) +
            ": enough bytes, punctuation & spaces, to be cacheable as a span "
            "and to grow under the JS escape; more words, more bytes.</p>"
            "</div>";
  }
  html += "</body></html>";
  Load(html);
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  for (int step = 0; step < 4; ++step) {
    browser_->MutateDocument([&](Document* document) {
      document->body()->SetAttribute("data-step", std::to_string(step));
    });
    GenerationResult result = generator.Generate(1000 + step, options);
    EXPECT_EQ(SerializeSnapshotXml(result.snapshot),
              ColdXml(1000 + step, options));
    EXPECT_LE(generator.serialize_cache_stats().bytes,
              SerializeCache::kBudgetBytes);
  }
  EXPECT_GT(generator.serialize_cache_stats().evictions, 0u);
}

TEST_F(SerializeCacheTest, RestampedNodeReplacesItsSpan) {
  // Each edit restamps the edited node and its ancestors. Their spans under
  // the old revs can never hit again, so recording the new spans drops them:
  // the cache holds one span per node however many edits ran, and the
  // budget is left to live spans.
  Load("<html><body><div id=\"a\"><p id=\"p\">paragraph text long enough "
       "to be cached as a span of its own</p></div><div id=\"b\"><p>sibling "
       "text that stays the same across every edit below</p></div>"
       "</body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  generator.Generate(1000, options);
  const size_t spans = generator.serialize_cache_stats().spans;
  ASSERT_GT(spans, 0u);
  for (int step = 0; step < 50; ++step) {
    browser_->MutateDocument([&](Document* document) {
      document->ById("p")->SetAttribute("data-step", std::to_string(step % 10));
    });
    GenerationResult result = generator.Generate(1001 + step, options);
    EXPECT_EQ(SerializeSnapshotXml(result.snapshot),
              ColdXml(1001 + step, options));
  }
  EXPECT_EQ(generator.serialize_cache_stats().spans, spans);
  EXPECT_EQ(generator.serialize_cache_stats().evictions, 0u);
}

TEST_F(SerializeCacheTest, ResultsRemainValidAcrossGenerations) {
  // Dangling-span regression: everything a Generate returns must be owned
  // copies, never views into the live DOM or the cache. Reading the first
  // result after later mutations have freed the nodes it was serialized
  // from is a heap-use-after-free under the RCB_SANITIZE build if any span
  // escaped.
  Load("<html><head><title>T</title></head><body>"
       "<div id=\"a\"><p>alpha content that fills a cacheable span nicely"
       "</p></div><a href=\"/x\">go</a></body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult first = generator.Generate(1000, options);
  const std::string first_xml =
      SerializeSnapshotXml(first.snapshot, nullptr, &first.escaped, nullptr);
  for (int step = 0; step < 5; ++step) {
    browser_->MutateDocument([&](Document* document) {
      // Frees the nodes the first result was serialized from.
      Element* div = document->ById("a");
      div->RemoveAllChildren();
      div->AppendChild(MakeText("more " + std::to_string(step)));
    });
    generator.Generate(2000 + step, options);
  }
  // Re-read every byte of the first result; must equal a fresh serialization
  // of the retained snapshot (both are heap copies if the contract holds).
  EXPECT_EQ(SerializeSnapshotXml(first.snapshot, nullptr, &first.escaped,
                                 nullptr),
            first_xml);
  EXPECT_EQ(first.snapshot.body->inner_html.find("more"), std::string::npos);
}

TEST_F(SerializeCacheTest, TinySpansAreNotCached) {
  // Every subtree below serializes under min_span_bytes: tracking them would
  // cost more than re-serializing, so the cache must stay empty while the
  // output stays correct.
  Load("<html><body><b>a</b><i>b</i><u>c</u></body></html>");
  ContentGenerator generator(browser_.get());
  ContentGenOptions options = Options(/*cache_mode=*/false);
  GenerationResult result = generator.Generate(1000, options);
  EXPECT_EQ(SerializeSnapshotXml(result.snapshot), ColdXml(1000, options));
  EXPECT_EQ(generator.serialize_cache_stats().spans, 0u);
}

}  // namespace
}  // namespace rcb
