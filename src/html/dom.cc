#include "src/html/dom.h"

#include <algorithm>
#include <cassert>

#include "src/util/strings.h"

namespace rcb {

namespace {

// One process-wide revision counter (see Node::rev()). Not synchronized: all
// DOM work is single-threaded per process, like the rest of src/html.
uint64_t g_rev_counter = 0;

// Lowercase form of a tag or attribute name (ASCII only, like HTML's own
// case folding); an already-lowercase name comes back unchanged.
std::string CanonicalName(std::string name) {
  for (char& c : name) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return name;
}

}  // namespace

Node::Node(NodeType type) : type_(type), rev_(++g_rev_counter) {}

void Node::Touch() {
  // Distinct fresh value per ancestor: a rev then uniquely identifies one
  // (node, state) pair, which the serialization cache depends on.
  for (Node* n = this; n != nullptr; n = n->parent_) {
    n->rev_ = ++g_rev_counter;
  }
}

Node* Node::AppendChild(std::unique_ptr<Node> child) {
  return InsertChildAt(children_.size(), std::move(child));
}

Node* Node::InsertBefore(std::unique_ptr<Node> child, Node* reference) {
  if (reference == nullptr) {
    return AppendChild(std::move(child));
  }
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == reference) {
      return InsertChildAt(i, std::move(child));
    }
  }
  assert(false && "reference node is not a child");
  return AppendChild(std::move(child));
}

std::unique_ptr<Node> Node::RemoveChild(Node* child) {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) {
      std::unique_ptr<Node> out = std::move(children_[i]);
      children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
      out->parent_ = nullptr;
      Touch();
      return out;
    }
  }
  return nullptr;
}

void Node::RemoveAllChildren() { TakeChildren(); }

std::vector<std::unique_ptr<Node>> Node::TakeChildren() {
  std::vector<std::unique_ptr<Node>> out = std::move(children_);
  children_.clear();
  for (auto& child : out) {
    child->parent_ = nullptr;
  }
  Touch();
  return out;
}

Node* Node::InsertChildAt(size_t index, std::unique_ptr<Node> child) {
  assert(child != nullptr);
  assert(child->parent_ == nullptr && "child must be detached first");
  assert(index <= children_.size());
  child->parent_ = this;
  Node* raw = child.get();
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(index),
                   std::move(child));
  Touch();
  return raw;
}

void Node::TruncateChildren(size_t count) {
  if (count >= children_.size()) {
    return;
  }
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(count),
                  children_.end());
  Touch();
}

std::unique_ptr<Node> Node::Detach() {
  if (parent_ == nullptr) {
    return nullptr;
  }
  return parent_->RemoveChild(this);
}

std::unique_ptr<Node> Node::Clone() const {
  // Links children directly instead of going through AppendChild, which
  // would restamp the copy's ancestors per child: a copy carries its
  // source's revs, since it shares the source's subtree state.
  std::unique_ptr<Node> copy = CloneSelf();
  copy->rev_ = rev_;
  copy->children_.reserve(children_.size());
  for (const auto& child : children_) {
    std::unique_ptr<Node> child_copy = child->Clone();
    child_copy->parent_ = copy.get();
    copy->children_.push_back(std::move(child_copy));
  }
  return copy;
}

std::string Node::TextContent() const {
  std::string out;
  if (type_ == NodeType::kText) {
    out += static_cast<const Text*>(this)->data();
  }
  for (const auto& child : children_) {
    out += child->TextContent();
  }
  return out;
}

Element* Node::AsElement() {
  return type_ == NodeType::kElement ? static_cast<Element*>(this) : nullptr;
}
const Element* Node::AsElement() const {
  return type_ == NodeType::kElement ? static_cast<const Element*>(this) : nullptr;
}

namespace {

bool WalkElements(Node* node, const std::function<bool(Element*)>& visitor) {
  for (const auto& child : node->children()) {
    if (Element* element = child->AsElement()) {
      if (!visitor(element)) {
        return false;
      }
    }
    if (!WalkElements(child.get(), visitor)) {
      return false;
    }
  }
  return true;
}

bool WalkElementsConst(const Node* node,
                       const std::function<bool(const Element*)>& visitor) {
  for (const auto& child : node->children()) {
    if (const Element* element = child->AsElement()) {
      if (!visitor(element)) {
        return false;
      }
    }
    if (!WalkElementsConst(child.get(), visitor)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Node::ForEachElement(const std::function<bool(Element*)>& visitor) {
  WalkElements(this, visitor);
}

void Node::ForEachElement(const std::function<bool(const Element*)>& visitor) const {
  WalkElementsConst(this, visitor);
}

Element::Element(std::string tag_name)
    : Node(NodeType::kElement), tag_(CanonicalName(std::move(tag_name))) {}

std::optional<std::string> Element::GetAttribute(std::string_view name) const {
  for (const auto& [key, value] : attributes_) {
    if (EqualsIgnoreCase(key, name)) {
      return value;
    }
  }
  return std::nullopt;
}

std::string Element::AttrOr(std::string_view name, std::string_view fallback) const {
  auto value = GetAttribute(name);
  return value.has_value() ? *value : std::string(fallback);
}

void Element::SetAttribute(std::string_view name, std::string_view value) {
  std::string canon = CanonicalName(std::string(name));
  for (auto& [key, existing] : attributes_) {
    if (key == canon) {
      if (existing != value) {
        existing = std::string(value);
        Touch();
      }
      return;
    }
  }
  attributes_.emplace_back(std::move(canon), std::string(value));
  Touch();
}

void Element::RemoveAttribute(std::string_view name) {
  size_t removed = std::erase_if(attributes_, [name](const auto& attr) {
    return EqualsIgnoreCase(attr.first, name);
  });
  if (removed > 0) Touch();
}

void Element::AssignAttributes(
    std::span<const std::pair<std::string, std::string>> attributes) {
  // Fast path: the list already matches pair for pair. A stored list never
  // repeats a name, so any incoming list it matches is already folded.
  if (attributes.size() == attributes_.size() &&
      std::equal(attributes.begin(), attributes.end(), attributes_.begin())) {
    return;
  }
  std::vector<std::pair<std::string, std::string>> folded;
  folded.reserve(attributes.size());
  for (const auto& [name, value] : attributes) {
    std::string canon = CanonicalName(name);
    auto it = std::find_if(folded.begin(), folded.end(),
                           [&](const auto& attr) { return attr.first == canon; });
    if (it != folded.end()) {
      it->second = value;
    } else {
      folded.emplace_back(std::move(canon), value);
    }
  }
  if (folded != attributes_) {
    attributes_ = std::move(folded);
    Touch();
  }
}

bool Element::HasAttribute(std::string_view name) const {
  return GetAttribute(name).has_value();
}

std::unique_ptr<Node> Element::CloneSelf() const {
  auto copy = std::make_unique<Element>(tag_);
  copy->attributes_ = attributes_;
  return copy;
}

Element* Element::FindFirst(std::string_view tag) {
  Element* found = nullptr;
  ForEachElement([&](Element* element) {
    if (element->tag_name() == tag) {
      found = element;
      return false;
    }
    return true;
  });
  return found;
}

const Element* Element::FindFirst(std::string_view tag) const {
  const Element* found = nullptr;
  ForEachElement([&](const Element* element) {
    if (element->tag_name() == tag) {
      found = element;
      return false;
    }
    return true;
  });
  return found;
}

std::vector<Element*> Element::FindAll(std::string_view tag) {
  std::vector<Element*> out;
  ForEachElement([&](Element* element) {
    if (element->tag_name() == tag) {
      out.push_back(element);
    }
    return true;
  });
  return out;
}

Element* Element::ChildByTag(std::string_view tag) {
  for (const auto& child : children()) {
    Element* element = child->AsElement();
    if (element != nullptr && element->tag_name() == tag) {
      return element;
    }
  }
  return nullptr;
}

const Element* Element::ChildByTag(std::string_view tag) const {
  for (const auto& child : children()) {
    const Element* element = child->AsElement();
    if (element != nullptr && element->tag_name() == tag) {
      return element;
    }
  }
  return nullptr;
}

std::vector<Element*> Element::ChildElements() {
  std::vector<Element*> out;
  for (const auto& child : children()) {
    if (Element* element = child->AsElement()) {
      out.push_back(element);
    }
  }
  return out;
}

Element* Document::document_element() {
  for (const auto& child : children()) {
    Element* element = child->AsElement();
    if (element != nullptr && element->tag_name() == "html") {
      return element;
    }
  }
  return nullptr;
}

const Element* Document::document_element() const {
  for (const auto& child : children()) {
    const Element* element = child->AsElement();
    if (element != nullptr && element->tag_name() == "html") {
      return element;
    }
  }
  return nullptr;
}

Element* Document::head() {
  Element* root = document_element();
  return root == nullptr ? nullptr : root->ChildByTag("head");
}

Element* Document::body() {
  Element* root = document_element();
  return root == nullptr ? nullptr : root->ChildByTag("body");
}

Element* Document::frameset() {
  Element* root = document_element();
  return root == nullptr ? nullptr : root->ChildByTag("frameset");
}

Element* Document::noframes() {
  Element* root = document_element();
  return root == nullptr ? nullptr : root->ChildByTag("noframes");
}

std::string Document::Title() const {
  const Element* root = document_element();
  if (root == nullptr) {
    return "";
  }
  const Element* title = root->FindFirst("title");
  return title == nullptr ? "" : title->TextContent();
}

Element* Document::ById(std::string_view id_value) {
  Element* found = nullptr;
  ForEachElement([&](Element* element) {
    if (element->id() == id_value) {
      found = element;
      return false;
    }
    return true;
  });
  return found;
}

std::vector<Element*> Document::FindAll(std::string_view tag) {
  std::vector<Element*> out;
  ForEachElement([&](Element* element) {
    if (element->tag_name() == tag) {
      out.push_back(element);
    }
    return true;
  });
  return out;
}

Element* Document::FindFirst(std::string_view tag) {
  Element* found = nullptr;
  ForEachElement([&](Element* element) {
    if (element->tag_name() == tag) {
      found = element;
      return false;
    }
    return true;
  });
  return found;
}

std::unique_ptr<Document> Document::CloneDocument() const {
  auto copy = std::make_unique<Document>();
  for (const auto& child : children()) {
    copy->AppendChild(child->Clone());
  }
  return copy;
}

std::unique_ptr<Element> MakeElement(std::string tag_name) {
  return std::make_unique<Element>(std::move(tag_name));
}

std::unique_ptr<Text> MakeText(std::string data) {
  return std::make_unique<Text>(std::move(data));
}

}  // namespace rcb
