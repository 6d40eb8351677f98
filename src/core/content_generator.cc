#include "src/core/content_generator.h"

#include <chrono>

#include "src/browser/resources.h"
#include "src/delta/tree_diff.h"
#include "src/util/escape.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {

bool ContentGenerator::IsInteractive(const Element& element) {
  const std::string& tag = element.tag_name();
  if (tag == "a") {
    return element.HasAttribute("href");
  }
  return tag == "form" || tag == "input" || tag == "textarea" ||
         tag == "select" || tag == "button";
}

std::vector<Element*> ContentGenerator::InteractiveElements(Node* root) {
  std::vector<Element*> out;
  root->ForEachElement([&out](Element* element) {
    if (IsInteractive(*element)) {
      out.push_back(element);
    }
    return true;
  });
  return out;
}

namespace {

// SetAttribute's list semantics on a detached attribute list: replace the
// first attribute of that name in place, else append.
void SetInList(AttributeList* attributes, std::string_view name,
               std::string value) {
  for (auto& [key, existing] : *attributes) {
    if (key == name) {
      existing = std::move(value);
      return;
    }
  }
  attributes->emplace_back(std::string(name), std::move(value));
}

// Step 4's event attribute for an interactive element.
std::pair<const char*, const char*> EventAttributeFor(const std::string& tag) {
  if (tag == "form") {
    return {"onsubmit", "return rcbSubmit(this)"};
  }
  if (tag == "a" || tag == "button") {
    return {"onclick", "return rcbClick(this)"};
  }
  return {"onchange", "rcbFill(this)"};
}

}  // namespace

bool AttributeRewriter::Rewrite(const Element& element, size_t rcb_id,
                                AttributeList* out) {
  std::string attr;
  const bool has_url = UrlAttributeFor(element, &attr);
  const bool interactive = ContentGenerator::IsInteractive(element);
  if (!has_url && !interactive) {
    return false;
  }
  *out = element.attributes();
  if (has_url) {
    std::string value = element.AttrOr(attr);
    // Step 2: relative -> absolute.
    if (!value.empty() && !StartsWith(value, "javascript:") &&
        !StartsWith(value, "data:") && !StartsWith(value, "#") &&
        !IsAbsoluteUrl(value)) {
      auto resolved = base_.Resolve(value);
      if (resolved.ok()) {
        value = resolved->ToStringWithFragment();
        SetInList(out, attr, value);
        ++urls_absolutized_;
      }
    }
    // Step 3: cached supplementary object -> agent URL.
    const std::string kind =
        cache_ != nullptr ? SupplementaryKindFor(element) : std::string();
    if (!kind.empty() && IsAbsoluteUrl(value)) {
      auto url = Url::Parse(value);
      if (url.ok() && (!options_.cache_object_filter ||
                       options_.cache_object_filter(*url, kind))) {
        if (const CacheEntry* entry = cache_->Lookup(*url)) {
          const Url& agent = options_.agent_url;
          SetInList(out, attr,
                    Url::Make(agent.scheme(), agent.host(), agent.port(),
                              "/obj/" + entry->cache_key)
                        .ToString());
          ++urls_cache_rewritten_;
        }
      }
    }
  }
  // Step 4: data-rcb-id tag, then the event attribute.
  if (interactive) {
    SetInList(out, "data-rcb-id", StrFormat("%zu", rcb_id));
    auto [event, handler] = EventAttributeFor(element.tag_name());
    SetInList(out, event, handler);
  }
  return true;
}

namespace {

// One payload over the live document: the payload root's rewritten
// attributes, then its innerHTML through the serialization cache, raw and
// escaped in lockstep. `counter` is the pre-order data-rcb-id counter,
// advanced past `element` and its subtree. The encoded prefix (tag +
// attributes, no innerHTML) is escaped straight into the output and the
// cache splices the children's escaped spans after it — no intermediate copy
// of the page-sized escaped image. `raw_hint`/`escaped_hint` (optional,
// in/out) carry the previous update's sizes so both strings are reserved
// once instead of grown through reallocation.
ElementPayload ExtractPayloadCached(const Element& element,
                                    SerializeCache* cache,
                                    AttributeRewriter* rewriter,
                                    uint64_t fingerprint, size_t* counter,
                                    EscapedPayload* escaped,
                                    size_t* raw_hint = nullptr,
                                    size_t* escaped_hint = nullptr) {
  ElementPayload payload;
  payload.tag = element.tag_name();
  if (!rewriter->Rewrite(element, *counter, &payload.attributes)) {
    payload.attributes = element.attributes();
  }
  if (ContentGenerator::IsInteractive(element)) {
    ++*counter;
  }
  if (raw_hint != nullptr && *raw_hint != 0) {
    payload.inner_html.reserve(*raw_hint + *raw_hint / 8);
    escaped->escaped.reserve(*escaped_hint + *escaped_hint / 8);
  }
  const std::string prefix = EncodeElementPayloadPrefix(payload);
  JsEscapeAppend(prefix, &escaped->escaped);
  cache->AppendChildrenHtml(element, fingerprint, rewriter, counter,
                            &payload.inner_html, &escaped->escaped);
  escaped->raw_bytes = prefix.size() + payload.inner_html.size();
  if (raw_hint != nullptr) {
    *raw_hint = payload.inner_html.size();
    *escaped_hint = escaped->escaped.size();
  }
  return payload;
}

// Interactive elements in `element`'s subtree including itself — used to
// advance the data-rcb-id counter past html children the snapshot format
// does not carry.
size_t CountInteractive(const Element& element) {
  size_t count = ContentGenerator::IsInteractive(element) ? 1 : 0;
  element.ForEachElement([&count](const Element* descendant) {
    if (ContentGenerator::IsInteractive(*descendant)) {
      ++count;
    }
    return true;
  });
  return count;
}

// Everything outside the DOM that the rewritten bytes depend on; part
// of the serialization-cache key (see serialize_cache.h). The filter term is
// presence-only: AgentConfig installs the filter once at construction, so
// its behaviour is constant per generator.
uint64_t ConfigFingerprint(Browser* browser, const ContentGenOptions& options) {
  std::string basis = options.agent_url.ToString();
  basis += '\x1f';
  basis += browser->current_url().ToString();
  basis += '\x1f';
  basis += options.cache_mode ? '1' : '0';
  basis += options.cache_object_filter ? 'F' : '-';
  if (options.cache_mode) {
    // Cached spans embed /obj/<key> URLs; any mapping-table change must
    // re-key them. Non-cache-mode output never reads the object cache.
    basis += StrFormat("%llu", static_cast<unsigned long long>(
                                   browser->cache().change_epoch()));
  }
  return StableHash64(basis);
}

}  // namespace

GenerationResult ContentGenerator::Generate(int64_t doc_time_ms,
                                            const ContentGenOptions& options) {
  auto start = std::chrono::steady_clock::now();
  GenerationResult result;
  result.snapshot.doc_time_ms = doc_time_ms;

  Document* document = browser_->document();
  if (document == nullptr || document->document_element() == nullptr) {
    result.snapshot.has_content = false;
    return result;
  }
  result.snapshot.has_content = true;

  // Steps 2-5 in one walk over the live document: the cache serializes
  // dirty subtrees, rewriting each missed element's attributes on the way
  // out, and splices everything else. One data-rcb-id counter runs through
  // the whole document in pre-order so cached spans can assert their
  // embedded ids are still current (serialize_cache.h).
  result.escaped.has_content = true;
  AttributeRewriter rewriter(browser_->current_url(),
                             options.cache_mode ? &browser_->cache()
                                                : nullptr,
                             options);
  const uint64_t fingerprint = ConfigFingerprint(browser_, options);
  size_t counter = 0;
  for (const auto& child : document->document_element()->children()) {
    const Element* element = child->AsElement();
    if (element == nullptr) {
      continue;
    }
    const std::string& tag = element->tag_name();
    if (tag == "head") {
      for (const auto& head_child : element->children()) {
        if (const Element* head_element = head_child->AsElement()) {
          EscapedPayload escaped;
          result.snapshot.head_children.push_back(ExtractPayloadCached(
              *head_element, &serialize_cache_, &rewriter, fingerprint,
              &counter, &escaped));
          result.escaped.head_children.push_back(std::move(escaped));
        }
      }
    } else if (tag == "body" || tag == "frameset") {
      EscapedPayload escaped;
      ElementPayload payload = ExtractPayloadCached(
          *element, &serialize_cache_, &rewriter, fingerprint, &counter,
          &escaped, &main_payload_raw_hint_, &main_payload_escaped_hint_);
      if (tag == "body") {
        result.snapshot.body = std::move(payload);
        result.escaped.body = std::move(escaped);
      } else {
        result.snapshot.frameset = std::move(payload);
        result.escaped.frameset = std::move(escaped);
      }
    } else if (tag == "noframes") {
      EscapedPayload escaped;
      result.snapshot.noframes =
          ExtractPayloadCached(*element, &serialize_cache_, &rewriter,
                               fingerprint, &counter, &escaped);
      result.escaped.noframes = std::move(escaped);
    } else {
      // Not carried by the snapshot, but Fig. 3 step 4 numbers any
      // interactive elements in here: keep the counter in step.
      counter += CountInteractive(*element);
    }
  }
  result.interactive_elements = counter;
  result.urls_absolutized = rewriter.urls_absolutized();
  result.urls_cache_rewritten = rewriter.urls_cache_rewritten();
  auto end = std::chrono::steady_clock::now();
  result.wall_time = Duration::Micros(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
  // Steps 2-5 are one walk, so the extract stage is the whole pipeline.
  result.stage_extract = result.wall_time;
  return result;
}

namespace {

// The payloads of the head's children, in tree order; none for no snapshot.
std::vector<const ElementPayload*> HeadPayloads(const Snapshot* snapshot) {
  std::vector<const ElementPayload*> out;
  if (snapshot != nullptr) {
    for (const ElementPayload& payload : snapshot->head_children) {
      out.push_back(&payload);
    }
  }
  return out;
}

// The payloads that sit under the root after the head, in tree order.
std::vector<const ElementPayload*> TopLevelPayloads(const Snapshot* snapshot) {
  std::vector<const ElementPayload*> out;
  if (snapshot != nullptr) {
    for (const auto* payload :
         {&snapshot->body, &snapshot->frameset, &snapshot->noframes}) {
      if (payload->has_value()) {
        out.push_back(&**payload);
      }
    }
  }
  return out;
}

// Makes child `index` of `parent` an element of `tag`: the one already
// there, else the first later one, moved there, else a new one.
Element* PlaceElement(Element* parent, size_t index, std::string_view tag) {
  for (size_t i = index; i < parent->child_count(); ++i) {
    Element* element = parent->child_at(i)->AsElement();
    if (element != nullptr && EqualsIgnoreCase(element->tag_name(), tag)) {
      if (i != index) {
        parent->InsertChildAt(index, parent->RemoveChild(element));
      }
      return element;
    }
  }
  return parent->InsertChildAt(index, MakeElement(std::string(tag)))
      ->AsElement();
}

// Makes the children of `parent` from `first` on the elements `payloads`
// describe, as Fig. 5 instantiates them (attributes in payload order,
// children via the in-place SetInnerHtml), each kept by PlaceElement, and
// drops the children after them. `taken` lists the payloads those children
// were made from, or is empty: while every child so far was already in
// place, child first + i was made from taken[i], and a payload whose inner
// HTML it already holds is not set again.
void ReconcileChildren(Element* parent, size_t first,
                       const std::vector<const ElementPayload*>& payloads,
                       const std::vector<const ElementPayload*>& taken) {
  bool aligned = true;
  for (size_t i = 0; i < payloads.size(); ++i) {
    const ElementPayload& payload = *payloads[i];
    const size_t index = first + i;
    const Node* there =
        index < parent->child_count() ? parent->child_at(index) : nullptr;
    Element* element = PlaceElement(parent, index, payload.tag);
    aligned = aligned && element == there && i < taken.size();
    element->AssignAttributes(payload.attributes);
    if (!aligned || taken[i]->inner_html != payload.inner_html) {
      element->SetInnerHtml(payload.inner_html);
    }
  }
  parent->TruncateChildren(first + payloads.size());
}

}  // namespace

void ReconcileSnapshotTree(const Snapshot& snapshot, const Snapshot* taken,
                           Element* root) {
  Element* head = PlaceElement(root, 0, "head");
  // Fig. 5 step 1 keeps the bootstrap scripts: they go first, and the
  // payloads reconcile against the children after them.
  size_t bootstraps = 0;
  for (size_t i = 0; i < head->child_count(); ++i) {
    if (delta::IsSnippetBootstrapScript(*head->child_at(i))) {
      if (i != bootstraps) {
        head->InsertChildAt(bootstraps, head->RemoveChild(head->child_at(i)));
      }
      ++bootstraps;
    }
  }
  ReconcileChildren(head, bootstraps, HeadPayloads(&snapshot),
                    HeadPayloads(taken));
  ReconcileChildren(root, 1, TopLevelPayloads(&snapshot),
                    TopLevelPayloads(taken));
}

std::unique_ptr<Element> MaterializeSnapshotTree(const Snapshot& snapshot) {
  auto root = MakeElement("html");
  ReconcileSnapshotTree(snapshot, nullptr, root.get());
  delta::NormalizeTextNodes(root.get());
  return root;
}

}  // namespace rcb
