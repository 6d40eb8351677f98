#include "tests/support/reference_apply_snapshot.h"

#include <string>
#include <vector>

namespace rcb {

void ReferenceApplySnapshot(Document* document, const Snapshot& snapshot) {
  Element* root = document->document_element();
  if (root == nullptr) {
    return;
  }
  Element* head = root->ChildByTag("head");
  if (head == nullptr) {
    head = root->InsertBefore(MakeElement("head"), root->first_child())->AsElement();
  }

  // Step 1: clean the head element but always keep the snippet itself.
  std::vector<Node*> head_children;
  for (const auto& child : head->children()) {
    Element* element = child->AsElement();
    bool is_snippet = element != nullptr && element->tag_name() == "script" &&
                      element->id() == "rcb-snippet";
    if (!is_snippet) {
      head_children.push_back(child.get());
    }
  }
  for (Node* node : head_children) {
    head->RemoveChild(node);
  }
  if (head->ChildByTag("script") == nullptr) {
    // Arriving via an agent page guarantees the snippet script exists, but
    // re-create it defensively so the invariant holds for any document.
    auto script = MakeElement("script");
    script->SetAttribute("id", "rcb-snippet");
    head->AppendChild(std::move(script));
  }

  // Step 2: append the new head children (attribute lists + innerHTML).
  for (const ElementPayload& payload : snapshot.head_children) {
    auto element = MakeElement(payload.tag);
    element->AssignAttributes(payload.attributes);
    element->SetInnerHtml(payload.inner_html);
    head->AppendChild(std::move(element));
  }

  // Step 3: clean up top-level elements not present in the new content.
  auto wanted = [&](const std::string& tag) {
    if (tag == "head") {
      return true;
    }
    if (tag == "body") {
      return snapshot.body.has_value();
    }
    if (tag == "frameset") {
      return snapshot.frameset.has_value();
    }
    if (tag == "noframes") {
      return snapshot.noframes.has_value();
    }
    return false;
  };
  std::vector<Node*> stale;
  for (const auto& child : root->children()) {
    Element* element = child->AsElement();
    if (element == nullptr || !wanted(element->tag_name())) {
      stale.push_back(child.get());
    }
  }
  for (Node* node : stale) {
    root->RemoveChild(node);
  }

  // Step 4: set the remaining top-level elements from the new content.
  auto apply_top = [&](const ElementPayload& payload) {
    Element* element = root->ChildByTag(payload.tag);
    if (element == nullptr) {
      element = root->AppendChild(MakeElement(payload.tag))->AsElement();
    }
    element->AssignAttributes(payload.attributes);
    element->SetInnerHtml(payload.inner_html);
  };
  if (snapshot.body.has_value()) {
    apply_top(*snapshot.body);
  }
  if (snapshot.frameset.has_value()) {
    apply_top(*snapshot.frameset);
  }
  if (snapshot.noframes.has_value()) {
    apply_top(*snapshot.noframes);
  }
}

}  // namespace rcb
