// HTML tree construction on top of the tokenizer.
//
// A pragmatic stack-based parser: void elements never push, raw-text content
// is attached verbatim, mismatched end tags pop to the nearest matching open
// element (ignored if none), and ParseDocument guarantees the html/head/body
// (or html/frameset) scaffold that RCB's Fig. 4 payload format assumes.
#ifndef SRC_HTML_PARSER_H_
#define SRC_HTML_PARSER_H_

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

}  // namespace rcb

#endif  // SRC_HTML_PARSER_H_
