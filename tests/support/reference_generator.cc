#include "tests/support/reference_generator.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/browser/resources.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// Step 2 of Fig. 3: convert relative URLs of the cloned document to absolute
// origin-server URLs. Returns the number of attributes rewritten.
size_t AbsolutizeUrls(Element* clone_root, const Url& base) {
  size_t rewritten = 0;
  auto rewrite = [&](Element* element) {
    std::string attr;
    if (!UrlAttributeFor(*element, &attr)) {
      return true;
    }
    std::string value = element->AttrOr(attr);
    if (value.empty() || StartsWith(value, "javascript:") ||
        StartsWith(value, "data:") || StartsWith(value, "#") ||
        IsAbsoluteUrl(value)) {
      return true;
    }
    auto resolved = base.Resolve(value);
    if (resolved.ok()) {
      element->SetAttribute(attr, resolved->ToStringWithFragment());
      ++rewritten;
    }
    return true;
  };
  // The root element itself cannot carry a URL attribute (<html>), so walking
  // descendants is sufficient.
  clone_root->ForEachElement(rewrite);
  return rewritten;
}

// Step 3: rewrite cached supplementary-object URLs to agent URLs.
size_t RewriteCachedUrls(Element* clone_root, ObjectCache* cache,
                         const ContentGenOptions& options) {
  const Url& agent_url = options.agent_url;
  size_t rewritten = 0;
  clone_root->ForEachElement([&](Element* element) {
    std::string kind = SupplementaryKindFor(*element);
    if (kind.empty()) {
      return true;
    }
    std::string attr;
    if (!UrlAttributeFor(*element, &attr)) {
      return true;
    }
    std::string value = element->AttrOr(attr);
    if (!IsAbsoluteUrl(value)) {
      return true;  // absolutization step already skipped it
    }
    auto url = Url::Parse(value);
    if (!url.ok()) {
      return true;
    }
    if (options.cache_object_filter && !options.cache_object_filter(*url, kind)) {
      return true;  // this object stays in non-cache mode
    }
    const CacheEntry* entry = cache->Lookup(*url);
    if (entry == nullptr) {
      return true;  // not cached: participant fetches from the origin
    }
    Url object_url = Url::Make(agent_url.scheme(), agent_url.host(),
                               agent_url.port(), "/obj/" + entry->cache_key);
    element->SetAttribute(attr, object_url.ToString());
    ++rewritten;
    return true;
  });
  return rewritten;
}

// Step 4: event-attribute rewriting + data-rcb-id tagging.
size_t RewriteEventAttributes(Element* clone_root) {
  std::vector<Element*> interactive =
      ContentGenerator::InteractiveElements(clone_root);
  for (size_t i = 0; i < interactive.size(); ++i) {
    Element* element = interactive[i];
    element->SetAttribute("data-rcb-id", StrFormat("%zu", i));
    const std::string& tag = element->tag_name();
    if (tag == "form") {
      element->SetAttribute("onsubmit", "return rcbSubmit(this)");
    } else if (tag == "a") {
      element->SetAttribute("onclick", "return rcbClick(this)");
    } else if (tag == "button") {
      element->SetAttribute("onclick", "return rcbClick(this)");
    } else {
      element->SetAttribute("onchange", "rcbFill(this)");
    }
  }
  return interactive.size();
}

ElementPayload ExtractPayload(const Element& element) {
  ElementPayload payload;
  payload.tag = element.tag_name();
  payload.attributes = element.attributes();
  payload.inner_html = element.InnerHtml();
  return payload;
}

}  // namespace

GenerationResult ReferenceGenerate(Browser* browser, int64_t doc_time_ms,
                                   const ContentGenOptions& options) {
  auto start = std::chrono::steady_clock::now();
  auto stage_start = start;
  auto end_stage = [&stage_start]() {
    auto now = std::chrono::steady_clock::now();
    Duration elapsed = Duration::Micros(
        std::chrono::duration_cast<std::chrono::microseconds>(now - stage_start)
            .count());
    stage_start = now;
    return elapsed;
  };
  GenerationResult result;
  result.snapshot.doc_time_ms = doc_time_ms;

  Document* document = browser->document();
  if (document == nullptr || document->document_element() == nullptr) {
    result.snapshot.has_content = false;
    return result;
  }
  result.snapshot.has_content = true;

  // Step 1 clones the documentElement; steps 2-4 rewrite the whole clone;
  // step 5 extracts from it.
  std::unique_ptr<Node> clone_owned = document->document_element()->Clone();
  Element* clone = clone_owned->AsElement();
  result.stage_clone = end_stage();
  result.urls_absolutized = AbsolutizeUrls(clone, browser->current_url());
  result.stage_absolutize = end_stage();
  if (options.cache_mode) {
    result.urls_cache_rewritten =
        RewriteCachedUrls(clone, &browser->cache(), options);
  }
  result.stage_cache_rewrite = end_stage();
  result.interactive_elements = RewriteEventAttributes(clone);
  result.stage_event_rewrite = end_stage();
  for (const auto& child : clone->children()) {
    const Element* element = child->AsElement();
    if (element == nullptr) {
      continue;
    }
    if (element->tag_name() == "head") {
      for (const auto& head_child : element->children()) {
        if (const Element* head_element = head_child->AsElement()) {
          result.snapshot.head_children.push_back(
              ExtractPayload(*head_element));
        }
      }
    } else if (element->tag_name() == "body") {
      result.snapshot.body = ExtractPayload(*element);
    } else if (element->tag_name() == "frameset") {
      result.snapshot.frameset = ExtractPayload(*element);
    } else if (element->tag_name() == "noframes") {
      result.snapshot.noframes = ExtractPayload(*element);
    }
  }
  result.stage_extract = end_stage();

  auto end = std::chrono::steady_clock::now();
  result.wall_time = Duration::Micros(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
  return result;
}

}  // namespace rcb
