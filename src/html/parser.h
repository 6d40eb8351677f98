// HTML tree construction on top of the tokenizer.
//
// A pragmatic stack-based parser: void elements never push, raw-text content
// is attached verbatim, mismatched end tags pop to the nearest matching open
// element (ignored if none), and ParseDocument guarantees the html/head/body
// (or html/frameset) scaffold that RCB's Fig. 4 payload format assumes.
#ifndef SRC_HTML_PARSER_H_
#define SRC_HTML_PARSER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/html/dom.h"

namespace rcb {

// Parses a complete HTML document; never fails (malformed input degrades to
// a best-effort tree, like a browser).
std::unique_ptr<Document> ParseDocument(std::string_view html);

// Parses markup as a fragment: returns the top-level nodes without imposing
// the document scaffold. (Element::SetInnerHtml builds in place instead.)
std::vector<std::unique_ptr<Node>> ParseFragment(std::string_view html);

// True for elements with no content model (<img>, <br>, ...).
bool IsVoidElement(std::string_view tag);

// Where one element BuildTree placed got its content: [begin, end) in the
// markup, from after its start tag to the token that closed it (its end
// tag, the start tag that implied its end, an ancestor's end tag, or the end
// of the markup). `descendants` counts the elements after it in pre-order
// that lie in its subtree. A leaf (void, self-closing, or raw text: script,
// style, textarea, title) has no markup inside, so its content can never be
// rebuilt on its own.
struct ElementSpan {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint32_t descendants = 0;
  bool leaf = false;
};

// Builds the tree for `html` under `root` in place, as Element::SetInnerHtml
// does: the children `root` already has are reused in order where they fit,
// whatever the markup does not reach is dropped, and the result equals a
// build under an empty `root`. Unchanged nodes keep their identity and rev.
// With `spans`, appends one ElementSpan per element placed, in pre-order.
// With `contained`, `html` is the content of `root` within a larger
// document, between its start tag and the token that closes it: the build
// stops and returns false at the first token that would close `root` there
// (an end tag that matches no element opened in `html`, or a start tag that
// implies `root`'s end), or at the end when an element opened in `html` is
// still open. Otherwise it returns true.
bool BuildTree(std::string_view html, Node* root,
               std::vector<ElementSpan>* spans = nullptr,
               bool contained = false);

}  // namespace rcb

#endif  // SRC_HTML_PARSER_H_
