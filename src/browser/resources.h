// Supplementary-object discovery.
//
// A webpage's HTML document references stylesheets, images, scripts, and
// frames; to render the same page a participant browser must fetch them all
// (§3.1 step 7/8). This helper walks a document and returns the resolved
// absolute URL of every such reference, in document order, deduplicated.
#ifndef SRC_BROWSER_RESOURCES_H_
#define SRC_BROWSER_RESOURCES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/html/dom.h"
#include "src/http/url.h"

namespace rcb {

struct ResourceRef {
  Url url;
  std::string kind;  // "image" | "stylesheet" | "script" | "frame"
  Element* element = nullptr;
};

// Collects supplementary-object references from `document`, resolving
// relative URLs against `base`. Unparsable URLs are skipped. The walk
// descends only into children whose rev() is greater than `since_rev`: by
// the rev invariant (src/html/dom.h) those are the subtrees created or
// mutated since the document's rev() was `since_rev`, so passing that value
// from an earlier walk visits only what changed after it. 0 walks the whole
// document.
std::vector<ResourceRef> CollectResources(Document* document, const Url& base,
                                          uint64_t since_rev);

// True if `element` carries a URL-valued attribute RCB must rewrite, and
// which attribute that is ("src", "href", "action", "background").
// rel=stylesheet links, images, scripts, frames, forms, and body background
// qualify; anchors are navigation (not supplementary objects) but their href
// still needs absolutization, so they are included with attr "href".
bool UrlAttributeFor(const Element& element, std::string* attr_name);

// Resource kind ("image" | "stylesheet" | "script" | "frame") for elements
// that trigger a supplementary download, or "" for navigation-only URLs
// (anchors, form actions). Cache-mode URL rewriting applies only to
// downloadable kinds.
std::string SupplementaryKindFor(const Element& element);

}  // namespace rcb

#endif  // SRC_BROWSER_RESOURCES_H_
