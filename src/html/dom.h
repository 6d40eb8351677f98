// DOM tree: Document, Element, Text, Comment nodes.
//
// This is the in-browser document model both RCB pipelines operate on:
// RCB-Agent reads the live document and emits rewritten serializations of it
// (Fig. 3) without writing to it; Ajax-Snippet applies received content to
// the live document via innerHTML and DOM mutation (Fig. 5). Attribute order
// is preserved so serialization round-trips byte-stably.
#ifndef SRC_HTML_DOM_H_
#define SRC_HTML_DOM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rcb {

enum class NodeType { kDocument, kElement, kText, kComment, kDoctype };

class Element;
class Document;

class Node {
 public:
  explicit Node(NodeType type);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeType type() const { return type_; }
  Node* parent() const { return parent_; }

  // Revision stamp for the serialization cache (src/core/serialize_cache).
  // Drawn from one process-wide monotonic counter: every mutation restamps
  // the touched node and each of its ancestors with fresh, distinct values,
  // so a rev uniquely identifies one (node, subtree state) and is never
  // reused. The cache keys the live document's spans on it. Clone()
  // preserves revs: a clone shares its source's subtree state.
  uint64_t rev() const { return rev_; }
  // Restamps this node and every ancestor (call after any mutation that
  // changes this subtree's serialization).
  void Touch();

  const std::vector<std::unique_ptr<Node>>& children() const { return children_; }
  size_t child_count() const { return children_.size(); }
  Node* child_at(size_t i) const { return children_[i].get(); }
  Node* first_child() const {
    return children_.empty() ? nullptr : children_.front().get();
  }
  Node* last_child() const {
    return children_.empty() ? nullptr : children_.back().get();
  }

  // Tree mutation. AppendChild/InsertBefore take ownership and return the raw
  // pointer for chaining; RemoveChild releases ownership back to the caller.
  Node* AppendChild(std::unique_ptr<Node> child);
  Node* InsertBefore(std::unique_ptr<Node> child, Node* reference);
  std::unique_ptr<Node> RemoveChild(Node* child);
  void RemoveAllChildren();
  // Releases every child in order, each detached; restamps once.
  std::vector<std::unique_ptr<Node>> TakeChildren();
  // Index-based forms for in-place reconciliation (the parser's BuildTree).
  // InsertChildAt puts `child` at position `index` (<= child_count()) and
  // restamps once; TruncateChildren drops every child from position `count`
  // on and restamps once, or does nothing when there is none.
  Node* InsertChildAt(size_t index, std::unique_ptr<Node> child);
  void TruncateChildren(size_t count);
  // Detaches this node from its parent (no-op when already detached).
  std::unique_ptr<Node> Detach();

  // Deep copy; the clone has no parent. Mirrors cloneNode(true), which is the
  // first step of the agent's content generation.
  std::unique_ptr<Node> Clone() const;

  // Concatenated text of all descendant Text nodes.
  std::string TextContent() const;

  // Type-checked downcasts; return nullptr on mismatch.
  Element* AsElement();
  const Element* AsElement() const;
  Document* AsDocument();
  const Document* AsDocument() const;

  // Pre-order walk over descendant elements (not including this node when it
  // is an element). Return false from the visitor to stop early.
  void ForEachElement(const std::function<bool(Element*)>& visitor);
  void ForEachElement(const std::function<bool(const Element*)>& visitor) const;

 protected:
  virtual std::unique_ptr<Node> CloneSelf() const = 0;

 private:
  NodeType type_;
  uint64_t rev_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

class Text : public Node {
 public:
  explicit Text(std::string data) : Node(NodeType::kText), data_(std::move(data)) {}

  const std::string& data() const { return data_; }
  void set_data(std::string data) {
    data_ = std::move(data);
    Touch();
  }

 protected:
  std::unique_ptr<Node> CloneSelf() const override {
    return std::make_unique<Text>(data_);
  }

 private:
  std::string data_;
};

class Comment : public Node {
 public:
  explicit Comment(std::string data)
      : Node(NodeType::kComment), data_(std::move(data)) {}

  const std::string& data() const { return data_; }

 protected:
  std::unique_ptr<Node> CloneSelf() const override {
    return std::make_unique<Comment>(data_);
  }

 private:
  std::string data_;
};

class Doctype : public Node {
 public:
  explicit Doctype(std::string data)
      : Node(NodeType::kDoctype), data_(std::move(data)) {}

  const std::string& data() const { return data_; }

 protected:
  std::unique_ptr<Node> CloneSelf() const override {
    return std::make_unique<Doctype>(data_);
  }

 private:
  std::string data_;
};

class Element : public Node {
 public:
  explicit Element(std::string tag_name);

  // Tag name, lowercased once when the element is made.
  const std::string& tag_name() const { return tag_; }

  // Attributes (ordered, case-normalized names).
  std::optional<std::string> GetAttribute(std::string_view name) const;
  // Missing attribute reads as "".
  std::string AttrOr(std::string_view name, std::string_view fallback = "") const;
  void SetAttribute(std::string_view name, std::string_view value);
  void RemoveAttribute(std::string_view name);
  // Makes the attribute list what SetAttribute of each pair in order would
  // leave on an attribute-less element (first position, last value).
  // Restamps once, and only when the list changes.
  void AssignAttributes(
      std::span<const std::pair<std::string, std::string>> attributes);
  bool HasAttribute(std::string_view name) const;
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  std::string id() const { return AttrOr("id"); }

  // innerHTML: serialization of children / replace children by parsing the
  // fragment. The setter reconciles in place (BuildTree, parser.cc): the
  // result equals a fresh parse, and nodes the markup leaves unchanged keep
  // their identity and rev.
  std::string InnerHtml() const;
  void SetInnerHtml(std::string_view html);
  // outerHTML: serialization including this element.
  std::string OuterHtml() const;

  // Descendant searches (pre-order).
  Element* FindFirst(std::string_view tag);
  const Element* FindFirst(std::string_view tag) const;
  std::vector<Element*> FindAll(std::string_view tag);
  Element* ById(std::string_view id_value);

  // First direct child element with the given tag, or nullptr.
  Element* ChildByTag(std::string_view tag);
  const Element* ChildByTag(std::string_view tag) const;
  // All direct child elements.
  std::vector<Element*> ChildElements();

 protected:
  std::unique_ptr<Node> CloneSelf() const override;

 private:
  std::string tag_;
  std::vector<std::pair<std::string, std::string>> attributes_;
};

class Document : public Node {
 public:
  Document() : Node(NodeType::kDocument) {}

  // The <html> root element (nullptr on an empty document).
  Element* document_element();
  const Element* document_element() const;

  Element* head();
  Element* body();
  Element* frameset();  // top-level frameset for frame documents
  Element* noframes();

  // <title> text, or "".
  std::string Title() const;

  Element* ById(std::string_view id_value);
  std::vector<Element*> FindAll(std::string_view tag);
  Element* FindFirst(std::string_view tag);

  // Creates a deep copy of the whole document.
  std::unique_ptr<Document> CloneDocument() const;

 protected:
  std::unique_ptr<Node> CloneSelf() const override {
    return std::make_unique<Document>();
  }
};

// Factory helpers.
std::unique_ptr<Element> MakeElement(std::string tag_name);
std::unique_ptr<Text> MakeText(std::string data);

}  // namespace rcb

#endif  // SRC_HTML_DOM_H_
