#include "src/html/parser.h"

#include <array>
#include <type_traits>

#include "src/html/serializer.h"
#include "src/html/tokenizer.h"

namespace rcb {

bool IsVoidElement(std::string_view tag) {
  static constexpr std::array<std::string_view, 14> kVoid = {
      "area", "base", "br",    "col",   "embed",  "hr",    "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  for (std::string_view v : kVoid) {
    if (tag == v) {
      return true;
    }
  }
  return false;
}

namespace {

// Implied-end-tag rules (HTML 4 era): opening one of these elements closes a
// still-open element of the listed kinds. Real 2009 markup leaned on this
// heavily (unclosed <li>, <p>, <td>...).
bool ClosesImplicitly(std::string_view opening, std::string_view open_tag) {
  if (opening == "li") {
    return open_tag == "li";
  }
  if (opening == "p") {
    return open_tag == "p";
  }
  if (opening == "option") {
    return open_tag == "option";
  }
  if (opening == "tr") {
    return open_tag == "tr" || open_tag == "td" || open_tag == "th";
  }
  if (opening == "td" || opening == "th") {
    return open_tag == "td" || open_tag == "th";
  }
  if (opening == "dt" || opening == "dd") {
    return open_tag == "dt" || open_tag == "dd";
  }
  // Block-level elements terminate an open paragraph.
  if (opening == "div" || opening == "ul" || opening == "ol" ||
      opening == "table" || opening == "form" || opening == "h1" ||
      opening == "h2" || opening == "h3" || opening == "blockquote" ||
      opening == "pre") {
    return open_tag == "p";
  }
  return false;
}

// One open node during tree construction: children before `cursor` are
// settled, the rest are the previous content not yet reached. `span` is its
// ElementSpan's index when spans are recorded.
struct OpenNode {
  Node* node;
  size_t cursor;
  size_t span;

  // The previous child at the cursor, or nullptr past the end.
  Node* at_cursor() const {
    return cursor < node->child_count() ? node->child_at(cursor) : nullptr;
  }
};

// Settles a Text, Comment or Doctype with `data` at the cursor. The node
// already there is kept when it has the same type and data; a Text with
// other data is kept too and given the new data. Otherwise a new node is
// inserted at the cursor.
template <typename Leaf>
void PlaceLeaf(OpenNode* open, NodeType type, const std::string& data) {
  Node* at = open->at_cursor();
  if (at != nullptr && at->type() == type) {
    auto* leaf = static_cast<Leaf*>(at);
    if (leaf->data() == data) {
      ++open->cursor;
      return;
    }
    if constexpr (std::is_same_v<Leaf, Text>) {
      leaf->set_data(data);
      ++open->cursor;
      return;
    }
  }
  open->node->InsertChildAt(open->cursor++, std::make_unique<Leaf>(data));
}

// Settles the start tag `token` at the cursor: an element with the same tag
// already there is kept and given the token's attributes, otherwise a new
// element is inserted.
Element* PlaceElement(OpenNode* open, const HtmlToken& token) {
  Node* at = open->at_cursor();
  Element* element = at != nullptr ? at->AsElement() : nullptr;
  if (element != nullptr && element->tag_name() == token.tag_name) {
    element->AssignAttributes(token.attributes());
  } else {
    auto fresh = MakeElement(token.tag_name);
    fresh->AssignAttributes(token.attributes());
    element = open->node->InsertChildAt(open->cursor, std::move(fresh))
                  ->AsElement();
  }
  ++open->cursor;
  return element;
}

}  // namespace

bool BuildTree(std::string_view html, Node* root,
               std::vector<ElementSpan>* spans, bool contained) {
  HtmlTokenizer tokenizer(html);
  HtmlToken token;
  std::vector<OpenNode> stack;
  stack.push_back({root, 0, 0});
  // Closes the open nodes from stack position `depth` up; their content
  // ends at `end`.
  auto close_to = [&stack, spans](size_t depth, size_t end) {
    while (stack.size() > depth) {
      OpenNode& open = stack.back();
      open.node->TruncateChildren(open.cursor);
      if (spans != nullptr && stack.size() > 1) {
        ElementSpan& span = (*spans)[open.span];
        span.end = static_cast<uint32_t>(end);
        span.descendants = static_cast<uint32_t>(spans->size() - open.span - 1);
      }
      stack.pop_back();
    }
  };

  while (true) {
    const size_t token_begin = tokenizer.pos();
    tokenizer.Next(&token);
    if (contained && tokenizer.truncated()) {
      return false;  // the token runs on past `html` in the larger document
    }
    switch (token.type) {
      case HtmlToken::Type::kEndOfFile:
        if (contained && stack.size() > 1) {
          return false;
        }
        close_to(0, html.size());
        return true;
      case HtmlToken::Type::kText:
        if (!token.data.empty()) {
          PlaceLeaf<Text>(&stack.back(), NodeType::kText, token.data);
        }
        break;
      case HtmlToken::Type::kComment:
        PlaceLeaf<Comment>(&stack.back(), NodeType::kComment, token.data);
        break;
      case HtmlToken::Type::kDoctype:
        PlaceLeaf<Doctype>(&stack.back(), NodeType::kDoctype, token.data);
        break;
      case HtmlToken::Type::kStartTag: {
        // Pop elements this start tag implicitly terminates.
        while (stack.size() > 1) {
          Element* open = stack.back().node->AsElement();
          if (open != nullptr && ClosesImplicitly(token.tag_name, open->tag_name())) {
            close_to(stack.size() - 1, token_begin);
          } else {
            break;
          }
        }
        if (contained && stack.size() == 1 && root->AsElement() != nullptr &&
            ClosesImplicitly(token.tag_name, root->AsElement()->tag_name())) {
          return false;
        }
        Element* element = PlaceElement(&stack.back(), token);
        const bool pushed =
            !token.self_closing && !IsVoidElement(token.tag_name);
        if (spans != nullptr) {
          const auto content = static_cast<uint32_t>(tokenizer.pos());
          spans->push_back(
              {content, content, 0,
               !pushed || HtmlTokenizer::IsRawTextElement(token.tag_name)});
        }
        if (pushed) {
          stack.push_back(
              {element, 0, spans != nullptr ? spans->size() - 1 : 0});
        } else {
          element->TruncateChildren(0);
        }
        break;
      }
      case HtmlToken::Type::kEndTag: {
        // Pop to the nearest matching open element; ignore stray end tags.
        size_t match = 0;
        for (size_t i = stack.size(); i-- > 1;) {
          Element* element = stack[i].node->AsElement();
          if (element != nullptr && element->tag_name() == token.tag_name) {
            match = i;
            break;
          }
        }
        if (match == 0) {
          if (contained) {
            return false;
          }
          break;
        }
        close_to(match, token_begin);
        break;
      }
    }
  }
}

namespace {

// Heads-only elements that belong in <head> when found at the top of a
// document missing explicit structure.
bool IsHeadContent(const Node& node) {
  const Element* element = node.AsElement();
  if (element == nullptr) {
    return false;
  }
  const std::string& tag = element->tag_name();
  return tag == "title" || tag == "meta" || tag == "link" || tag == "style" ||
         tag == "base";
}

// Moves the children of `from` that `take` selects to the end of `into`, in
// order; the rest stay in `from`, in order. One pass over the children.
template <typename Predicate>
void MoveChildrenIf(Node* from, Node* into, Predicate take) {
  for (std::unique_ptr<Node>& child : from->TakeChildren()) {
    Node* destination = take(*child) ? into : from;
    destination->AppendChild(std::move(child));
  }
}

}  // namespace

std::unique_ptr<Document> ParseDocument(std::string_view html) {
  auto document = std::make_unique<Document>();
  BuildTree(html, document.get());

  // Scaffold normalization: guarantee an <html> root.
  Element* root = document->document_element();
  if (root == nullptr) {
    // Move existing top-level nodes (except doctype/comments) under a new
    // <html>.
    auto html_owned = MakeElement("html");
    root = html_owned.get();
    MoveChildrenIf(document.get(), root, [](const Node& node) {
      return node.type() != NodeType::kDoctype &&
             node.type() != NodeType::kComment;
    });
    document->AppendChild(std::move(html_owned));
  }

  // Frameset documents keep html > (head, frameset[, noframes]).
  bool is_frameset = root->ChildByTag("frameset") != nullptr;

  Element* head = root->ChildByTag("head");
  if (head == nullptr) {
    // Relocate stray head-content elements that ended up directly under html.
    auto head_owned = MakeElement("head");
    head = head_owned.get();
    MoveChildrenIf(root, head, IsHeadContent);
    root->InsertBefore(std::move(head_owned), root->first_child());
  }

  if (!is_frameset && root->ChildByTag("body") == nullptr) {
    // Move non-head top-level content into the body.
    auto body_owned = MakeElement("body");
    MoveChildrenIf(root, body_owned.get(), [head](const Node& node) {
      return &node != head && (node.type() == NodeType::kElement ||
                               node.type() == NodeType::kText);
    });
    root->AppendChild(std::move(body_owned));
  }

  return document;
}

std::vector<std::unique_ptr<Node>> ParseFragment(std::string_view html) {
  // Parse under a detached scratch element, then release the children.
  auto scratch = MakeElement("div");
  BuildTree(html, scratch.get());
  return scratch->TakeChildren();
}

std::string Element::InnerHtml() const { return SerializeChildren(*this); }

void Element::SetInnerHtml(std::string_view html) { BuildTree(html, this); }

std::string Element::OuterHtml() const { return SerializeNode(*this); }

}  // namespace rcb
