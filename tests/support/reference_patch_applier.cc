#include "tests/support/reference_patch_applier.h"

#include "src/html/parser.h"

namespace rcb {
namespace {

using delta::PatchOp;
using delta::PatchOpType;

Node* NodeAtPath(Element* root, const std::vector<uint32_t>& path) {
  Node* node = root;
  for (uint32_t index : path) {
    if (index >= node->child_count()) {
      return nullptr;
    }
    node = node->child_at(index);
  }
  return node;
}

std::unique_ptr<Node> ParseSingleNode(const std::string& html) {
  auto nodes = ParseFragment(html);
  return nodes.size() == 1 ? std::move(nodes[0]) : nullptr;
}

// The op loop on a canonical copy; false on the first op that cannot apply.
bool ApplyOps(Element* root, const std::vector<PatchOp>& ops) {
  for (const PatchOp& op : ops) {
    switch (op.type) {
      case PatchOpType::kInsert: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.index > parent->child_count()) {
          return false;
        }
        auto node = ParseSingleNode(op.html);
        if (node == nullptr) {
          return false;
        }
        parent->InsertBefore(std::move(node),
                             op.index < parent->child_count()
                                 ? parent->child_at(op.index)
                                 : nullptr);
        break;
      }
      case PatchOpType::kRemove: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.index >= parent->child_count()) {
          return false;
        }
        parent->RemoveChild(parent->child_at(op.index));
        break;
      }
      case PatchOpType::kMove: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.from >= parent->child_count() ||
            op.to >= parent->child_count()) {
          return false;
        }
        auto moving = parent->RemoveChild(parent->child_at(op.from));
        parent->InsertBefore(std::move(moving),
                             op.to < parent->child_count()
                                 ? parent->child_at(op.to)
                                 : nullptr);
        break;
      }
      case PatchOpType::kReplace: {
        Node* target = op.path.empty() ? nullptr : NodeAtPath(root, op.path);
        auto node = target != nullptr ? ParseSingleNode(op.html) : nullptr;
        if (node == nullptr) {
          return false;
        }
        Node* parent = target->parent();
        parent->InsertBefore(std::move(node), target);
        parent->RemoveChild(target);
        break;
      }
      case PatchOpType::kSetAttr:
      case PatchOpType::kRemoveAttr: {
        Node* target = NodeAtPath(root, op.path);
        Element* element = target != nullptr ? target->AsElement() : nullptr;
        if (element == nullptr) {
          return false;
        }
        if (op.type == PatchOpType::kSetAttr) {
          element->SetAttribute(op.name, op.value);
        } else {
          element->RemoveAttribute(op.name);
        }
        break;
      }
      case PatchOpType::kSetText: {
        Node* target = NodeAtPath(root, op.path);
        if (target == nullptr || target->type() != NodeType::kText) {
          return false;
        }
        static_cast<Text*>(target)->set_data(op.value);
        break;
      }
    }
  }
  return true;
}

// Swaps the verified copy into the live document: the live root's children
// become the copy's, and the bootstrap script moves to the head's front.
void CommitCanonicalTree(Document* document,
                         std::unique_ptr<Element> canonical) {
  Element* root = document->document_element();
  std::unique_ptr<Node> snippet_script;
  if (Element* live_head = root->ChildByTag("head")) {
    for (const auto& child : live_head->children()) {
      if (delta::IsSnippetBootstrapScript(*child)) {
        snippet_script = child->Detach();
        break;
      }
    }
  }
  root->RemoveAllChildren();
  for (std::unique_ptr<Node>& child : canonical->TakeChildren()) {
    root->AppendChild(std::move(child));
  }
  Element* head = root->ChildByTag("head");
  if (head == nullptr) {
    head = root->InsertBefore(MakeElement("head"), root->first_child())
               ->AsElement();
  }
  if (snippet_script != nullptr) {
    head->InsertBefore(std::move(snippet_script), head->first_child());
  }
}

}  // namespace

delta::ApplyResult ReferenceApplyPatch(Document* document,
                                       int64_t current_doc_time_ms,
                                       const delta::Patch& patch) {
  using delta::ApplyResult;
  if (patch.target_doc_time_ms <= current_doc_time_ms) {
    return ApplyResult::kStaleIgnored;
  }
  if (patch.base_doc_time_ms != current_doc_time_ms) {
    return ApplyResult::kBaseTimeMismatch;
  }
  std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(*document);
  if (canonical == nullptr ||
      delta::TreeDigest(*canonical) != patch.base_digest) {
    return ApplyResult::kBaseDigestMismatch;
  }
  if (!ApplyOps(canonical.get(), patch.ops)) {
    return ApplyResult::kApplyError;
  }
  if (delta::TreeDigest(*canonical) != patch.target_digest) {
    return ApplyResult::kTargetDigestMismatch;
  }
  CommitCanonicalTree(document, std::move(canonical));
  return ApplyResult::kApplied;
}

}  // namespace rcb
