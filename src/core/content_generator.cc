#include "src/core/content_generator.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

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

// Bytes per memcmp call in CommonPrefix/CommonSuffix, coarse then fine:
// 1 KB calls keep the call overhead small on a page-sized payload (64 B
// calls alone were 3x slower on 300 KB), 64 B ones keep the byte loop short.
constexpr size_t kCompareBlocks[] = {1024, 64};

// Length of the common prefix of `a` and `b`: memcmp over blocks, then
// bytes.
size_t CommonPrefix(std::string_view a, std::string_view b) {
  const size_t limit = std::min(a.size(), b.size());
  size_t n = 0;
  for (size_t block : kCompareBlocks) {
    while (n + block <= limit &&
           std::memcmp(a.data() + n, b.data() + n, block) == 0) {
      n += block;
    }
  }
  while (n < limit && a[n] == b[n]) {
    ++n;
  }
  return n;
}

// Length of the common suffix of `a` and `b`, at most `limit`.
size_t CommonSuffix(std::string_view a, std::string_view b, size_t limit) {
  const char* a_end = a.data() + a.size();
  const char* b_end = b.data() + b.size();
  size_t n = 0;
  for (size_t block : kCompareBlocks) {
    while (n + block <= limit &&
           std::memcmp(a_end - n - block, b_end - n - block, block) == 0) {
      n += block;
    }
  }
  while (n < limit && a_end[-1 - static_cast<ptrdiff_t>(n)] ==
                          b_end[-1 - static_cast<ptrdiff_t>(n)]) {
    ++n;
  }
  return n;
}

// True when `at` may lie inside a "%XX" unit of `s`: a '%' one or two bytes
// before it. Every '%' starts a unit, and without "%u" a unit is at most
// three bytes, so an offset with neither is a unit boundary.
bool MayCutUnit(std::string_view s, size_t at) {
  return (at >= 1 && s[at - 1] == '%') || (at >= 2 && s[at - 2] == '%');
}

// One element on the way down to the change: the payload root (span npos)
// or an element with its index in the span table.
struct Straddler {
  Element* element;
  size_t span;
};

// The elements whose content holds the changed window [at, old_end) of
// `was`, from the payload root down to the deepest, skipping leaves. The
// tree below `root` is the one `was` recorded, so its elements are the span
// table's entries in pre-order.
std::vector<Straddler> Straddlers(Element* root, const AppliedPayload& was,
                                  size_t at, size_t old_end) {
  std::vector<Straddler> chain{{root, std::string::npos}};
  const std::vector<ElementSpan>& spans = was.spans;
  size_t next = 0;  // first child entry of the deepest element so far
  size_t stop = spans.size();
  while (true) {
    Element* parent = chain.back().element;
    size_t child = 0;  // index into parent's children
    bool descended = false;
    // Entry j is parent's next element child; the step skips its subtree's
    // entries to the next sibling's.
    for (size_t j = next; j < stop && spans[j].begin <= at;
         j += 1 + spans[j].descendants) {
      while (child < parent->child_count() &&
             parent->child_at(child)->AsElement() == nullptr) {
        ++child;
      }
      if (child == parent->child_count()) {
        return chain;  // the tree disagrees with the table: stop here
      }
      Element* element = parent->child_at(child++)->AsElement();
      const ElementSpan& span = spans[j];
      if (!span.leaf && old_end <= span.end) {
        chain.push_back({element, j});
        next = j + 1;
        stop = j + 1 + span.descendants;
        descended = true;
        break;
      }
    }
    if (!descended) {
      return chain;
    }
  }
}

// Rebuilds the content of `element`, escaped as b[begin, end), in place,
// and stores its spans (in `b` offsets) in `*spans`. `contained` as in
// BuildTree. False when the range holds a "%u" unit or, contained, does not
// close exactly at the element's end.
bool RebuildContent(std::string_view b, size_t begin, size_t end,
                    Element* element, bool contained,
                    std::vector<ElementSpan>* spans) {
  JsUnescapeMap map;
  std::string raw;
  if (!map.Decode(b.substr(begin, end - begin), &raw)) {
    return false;
  }
  spans->clear();
  if (!BuildTree(raw, element, spans, contained)) {
    return false;
  }
  for (ElementSpan& span : *spans) {
    span.begin = static_cast<uint32_t>(begin + map.EscapedOffset(span.begin));
    span.end = static_cast<uint32_t>(begin + map.EscapedOffset(span.end));
  }
  return true;
}

enum class Took { kUnchanged, kSpliced, kRebuilt };

// Replaces s[at, at + count) with `with`. A string that must grow is made
// anew at its exact size: growing in place would double its capacity, and
// every participant keeps one of these per payload.
void ReplaceExact(std::string* s, size_t at, size_t count,
                  std::string_view with) {
  const size_t size = s->size() - count + with.size();
  if (size <= s->capacity()) {
    s->replace(at, count, with);
    return;
  }
  std::string grown;
  grown.reserve(size);
  grown.append(*s, 0, at).append(with).append(*s, at + count);
  s->swap(grown);
}

// Builds the escaped payload `b`, whose inner HTML starts at `inner_begin`,
// under `root`, and makes `*kept` its record. `kept` holds the record of
// what `root` was built from when `recorded`, else stale buffers to reuse.
// Its escaped bytes become `b` by copying only the changed window.
Took ApplyPayload(Element* root, std::string_view b, size_t inner_begin,
                  bool recorded, AppliedPayload* kept) {
  std::string& a = kept->escaped;
  if (recorded && kept->spliceable) {
    size_t at = CommonPrefix(a, b);
    if (at == a.size() && at == b.size()) {
      return Took::kUnchanged;
    }
    if (MayCutUnit(b, at)) {
      at -= b[at - 1] == '%' ? 1 : 2;
    }
    const size_t suffix =
        CommonSuffix(a, b, std::min(a.size(), b.size()) - at);
    size_t a_end = a.size() - suffix;
    size_t b_end = b.size() - suffix;
    while (b_end < b.size() && (MayCutUnit(a, a_end) || MayCutUnit(b, b_end))) {
      ++a_end;
      ++b_end;
    }
    const ptrdiff_t delta = static_cast<ptrdiff_t>(b.size()) -
                            static_cast<ptrdiff_t>(a.size());
    auto shift = [delta](uint32_t offset) {
      return static_cast<uint32_t>(static_cast<ptrdiff_t>(offset) + delta);
    };
    ReplaceExact(&a, at, a_end - at, b.substr(at, b_end - at));
    const size_t old_inner_begin = std::exchange(kept->inner_begin, inner_begin);
    std::vector<ElementSpan>& spans = kept->spans;
    if (at < inner_begin) {
      // The root's own attributes changed. Unless the content did too,
      // it only moved.
      if (a_end <= old_inner_begin && b_end <= inner_begin) {
        for (ElementSpan& span : spans) {
          span.begin = shift(span.begin);
          span.end = shift(span.end);
        }
        return Took::kSpliced;
      }
    } else {
      std::vector<Straddler> chain = Straddlers(root, *kept, at, a_end);
      std::vector<ElementSpan> fresh;
      for (size_t k = chain.size(); k-- > 1;) {
        const ElementSpan& outer = spans[chain[k].span];
        if (!RebuildContent(b, outer.begin, shift(outer.end),
                            chain[k].element, /*contained=*/true, &fresh)) {
          continue;  // widen to the parent
        }
        // Keep the prefix, shift the suffix, and put the rebuilt
        // element's new descendants in place of its old ones.
        const size_t first = chain[k].span + 1;
        const size_t old_count = outer.descendants;
        for (size_t i = 0; i < spans.size(); ++i) {
          if (i >= first && i < first + old_count) {
            continue;
          }
          ElementSpan& span = spans[i];
          if (span.begin > a_end) {
            span.begin = shift(span.begin);
          }
          if (span.end >= a_end) {
            span.end = shift(span.end);
          }
        }
        for (size_t up = 1; up <= k; ++up) {
          ElementSpan& span = spans[chain[up].span];
          span.descendants = static_cast<uint32_t>(
              span.descendants + fresh.size() - old_count);
        }
        spans.erase(spans.begin() + static_cast<ptrdiff_t>(first),
                    spans.begin() + static_cast<ptrdiff_t>(first + old_count));
        spans.insert(spans.begin() + static_cast<ptrdiff_t>(first),
                     fresh.begin(), fresh.end());
        return Took::kSpliced;
      }
    }
  } else {
    ReplaceExact(&a, 0, a.size(), b);
    kept->inner_begin = inner_begin;
  }
  // The degenerate splice: the payload root straddles the whole content.
  kept->spliceable = RebuildContent(b, inner_begin, b.size(), root,
                                    /*contained=*/false, &kept->spans);
  if (!kept->spliceable) {
    kept->spans.clear();
    BuildTree(JsUnescape(b.substr(inner_begin)), root);
  }
  kept->spans.shrink_to_fit();
  return Took::kRebuilt;
}

// Makes the children of `parent` from `first` on the elements `payloads`
// describe, as Fig. 5 instantiates them (attributes in payload order,
// children built in place), each kept by PlaceElement, and drops the
// children after them. `applied` is what those children took from the last
// apply, and is replaced by what they take from this one.
void ReconcileChildren(Element* parent, size_t first,
                       const std::vector<const EscapedPayload*>& payloads,
                       std::vector<AppliedPayload>* applied, uint64_t* spliced,
                       uint64_t* rebuilt) {
  applied->resize(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string& escaped = payloads[i]->escaped;
    ElementPayload head;
    const size_t inner_begin = DecodeEscapedPayloadHead(escaped, &head).value();
    Element* element = PlaceElement(parent, first + i, head.tag);
    AppliedPayload& kept = (*applied)[i];
    const bool recorded = kept.rev == element->rev();
    element->AssignAttributes(head.attributes);
    switch (ApplyPayload(element, escaped, inner_begin, recorded, &kept)) {
      case Took::kUnchanged:
        break;
      case Took::kSpliced:
        if (spliced != nullptr) {
          ++*spliced;
        }
        break;
      case Took::kRebuilt:
        if (rebuilt != nullptr) {
          ++*rebuilt;
        }
        break;
    }
    kept.rev = element->rev();
  }
  parent->TruncateChildren(first + payloads.size());
}

}  // namespace

void ReconcileSnapshotTree(const SnapshotEscaped& payloads,
                           AppliedSnapshot* applied, Element* root,
                           uint64_t* spliced, uint64_t* rebuilt) {
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
  std::vector<const EscapedPayload*> head_payloads;
  for (const EscapedPayload& payload : payloads.head_children) {
    head_payloads.push_back(&payload);
  }
  ReconcileChildren(head, bootstraps, head_payloads, &applied->head, spliced,
                    rebuilt);
  std::vector<const EscapedPayload*> top_payloads;
  for (auto* payload :
       {&payloads.body, &payloads.frameset, &payloads.noframes}) {
    if (payload->has_value()) {
      top_payloads.push_back(&**payload);
    }
  }
  ReconcileChildren(root, 1, top_payloads, &applied->top, spliced, rebuilt);
}

std::unique_ptr<Element> MaterializeSnapshotTree(const Snapshot& snapshot) {
  auto root = MakeElement("html");
  AppliedSnapshot applied;
  ReconcileSnapshotTree(EscapeSnapshot(snapshot), &applied, root.get());
  delta::NormalizeTextNodes(root.get());
  return root;
}

}  // namespace rcb
