#include "src/browser/resources.h"

#include <set>

#include "src/util/strings.h"

namespace rcb {

bool UrlAttributeFor(const Element& element, std::string* attr_name) {
  const std::string& tag = element.tag_name();
  if (tag == "img" || tag == "script" || tag == "frame" || tag == "iframe" ||
      tag == "embed" || tag == "source") {
    *attr_name = "src";
    return element.HasAttribute("src");
  }
  if (tag == "input") {
    // Only image inputs reference a resource.
    if (EqualsIgnoreCase(element.AttrOr("type"), "image") &&
        element.HasAttribute("src")) {
      *attr_name = "src";
      return true;
    }
    return false;
  }
  if (tag == "link" || tag == "a" || tag == "area") {
    *attr_name = "href";
    return element.HasAttribute("href");
  }
  if (tag == "form") {
    *attr_name = "action";
    return element.HasAttribute("action");
  }
  if (tag == "body" || tag == "table" || tag == "td") {
    *attr_name = "background";
    return element.HasAttribute("background");
  }
  return false;
}

std::string SupplementaryKindFor(const Element& element) {
  const std::string& tag = element.tag_name();
  if (tag == "img" || tag == "embed" || tag == "source") {
    return "image";
  }
  if (tag == "input") {
    return "image";
  }
  if (tag == "script") {
    return "script";
  }
  if (tag == "frame" || tag == "iframe") {
    return "frame";
  }
  if (tag == "link") {
    std::string rel = AsciiToLower(element.AttrOr("rel"));
    if (rel == "stylesheet") {
      return "stylesheet";
    }
    if (rel == "icon" || rel == "shortcut icon") {
      return "image";
    }
    return "";
  }
  if (tag == "body" || tag == "table" || tag == "td") {
    return "image";  // background attribute
  }
  return "";
}

namespace {

// Pre-order over the element children of `node` stamped after `since_rev`.
template <typename Visit>
void WalkChangedElements(Node* node, uint64_t since_rev, const Visit& visit) {
  for (const auto& child : node->children()) {
    if (child->rev() <= since_rev) {
      continue;
    }
    if (Element* element = child->AsElement()) {
      visit(element);
      WalkChangedElements(element, since_rev, visit);
    }
  }
}

}  // namespace

std::vector<ResourceRef> CollectResources(Document* document, const Url& base,
                                          uint64_t since_rev) {
  std::vector<ResourceRef> out;
  std::set<std::string> seen;
  WalkChangedElements(document, since_rev, [&](Element* element) {
    std::string attr;
    if (!UrlAttributeFor(*element, &attr)) {
      return;
    }
    std::string kind = SupplementaryKindFor(*element);
    if (kind.empty()) {
      return;  // navigation URL, not a supplementary object
    }
    std::string value = element->AttrOr(attr);
    if (value.empty() || StartsWith(value, "javascript:") ||
        StartsWith(value, "data:") || StartsWith(value, "#")) {
      return;
    }
    auto resolved = base.Resolve(value);
    if (!resolved.ok()) {
      return;
    }
    std::string canonical = resolved->ToString();
    if (seen.insert(canonical).second) {
      out.push_back(ResourceRef{std::move(*resolved), kind, element});
    }
  });
  return out;
}

}  // namespace rcb
