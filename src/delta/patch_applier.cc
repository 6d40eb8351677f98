#include "src/delta/patch_applier.h"

#include "src/html/parser.h"
#include "src/util/strings.h"

namespace rcb::delta {
namespace {

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

StatusOr<std::unique_ptr<Node>> ParseSingleNode(const std::string& html) {
  auto nodes = ParseFragment(html);
  if (nodes.size() != 1) {
    return InvalidArgumentError(
        StrFormat("patch payload parsed to %zu nodes, want 1", nodes.size()));
  }
  return std::move(nodes[0]);
}

// Swaps the verified patched tree into the live document: the live root's
// children are replaced by the canonical children, and the bootstrap script
// the Fig. 5 procedure preserves is re-attached at the head's front.
void CommitCanonicalTree(Document* document,
                         std::unique_ptr<Element> canonical) {
  Element* root = document->document_element();
  std::unique_ptr<Node> snippet_script;
  if (Element* live_head = root->ChildByTag("head")) {
    Node* found = nullptr;
    for (const auto& child : live_head->children()) {
      if (IsSnippetBootstrapScript(*child)) {
        found = child.get();
        break;
      }
    }
    if (found != nullptr) {
      snippet_script = found->Detach();
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

// True when committing `canonical` and canonicalizing the live document
// again reproduces `canonical`: an attribute-less root whose first child is
// an attribute-less head without a bootstrap script, followed by at most one
// each of body, frameset and noframes, in that order. Only such a commit may
// be memoized — any other shape verifies against its own target digest but
// re-canonicalizes to a different tree.
bool RoundTripsThroughCommit(const Element& canonical) {
  const Node* first = canonical.first_child();
  const Element* head = first != nullptr ? first->AsElement() : nullptr;
  if (!canonical.attributes().empty() || head == nullptr ||
      head->tag_name() != "head" || !head->attributes().empty()) {
    return false;
  }
  for (const auto& child : head->children()) {
    if (IsSnippetBootstrapScript(*child)) {
      return false;
    }
  }
  static constexpr std::string_view kTopLevel[] = {"body", "frameset",
                                                   "noframes"};
  size_t next = 0;
  for (size_t i = 1; i < canonical.child_count(); ++i) {
    const Element* element = canonical.child_at(i)->AsElement();
    if (element == nullptr) {
      return false;
    }
    while (next < 3 && element->tag_name() != kTopLevel[next]) {
      ++next;
    }
    if (next == 3) {
      return false;
    }
    ++next;
  }
  return true;
}

}  // namespace

bool NeedsResync(ApplyResult result) {
  switch (result) {
    case ApplyResult::kApplied:
    case ApplyResult::kStaleIgnored:
      return false;
    case ApplyResult::kBaseTimeMismatch:
    case ApplyResult::kBaseDigestMismatch:
    case ApplyResult::kTargetDigestMismatch:
    case ApplyResult::kApplyError:
      return true;
  }
  return true;
}

std::string_view ApplyResultName(ApplyResult result) {
  switch (result) {
    case ApplyResult::kApplied:
      return "applied";
    case ApplyResult::kStaleIgnored:
      return "stale_ignored";
    case ApplyResult::kBaseTimeMismatch:
      return "base_time_mismatch";
    case ApplyResult::kBaseDigestMismatch:
      return "base_digest_mismatch";
    case ApplyResult::kTargetDigestMismatch:
      return "target_digest_mismatch";
    case ApplyResult::kApplyError:
      return "apply_error";
  }
  return "apply_error";
}

Status ApplyPatchOps(Element* root, const std::vector<PatchOp>& ops) {
  for (const PatchOp& op : ops) {
    switch (op.type) {
      case PatchOpType::kInsert: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.index > parent->child_count()) {
          return InvalidArgumentError("patch insert out of range");
        }
        RCB_ASSIGN_OR_RETURN(auto node, ParseSingleNode(op.html));
        Node* reference = op.index < parent->child_count()
                              ? parent->child_at(op.index)
                              : nullptr;
        parent->InsertBefore(std::move(node), reference);
        break;
      }
      case PatchOpType::kRemove: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.index >= parent->child_count()) {
          return InvalidArgumentError("patch remove out of range");
        }
        parent->RemoveChild(parent->child_at(op.index));
        break;
      }
      case PatchOpType::kMove: {
        Node* parent = NodeAtPath(root, op.path);
        if (parent == nullptr || op.from >= parent->child_count() ||
            op.to >= parent->child_count()) {
          return InvalidArgumentError("patch move out of range");
        }
        std::unique_ptr<Node> moving =
            parent->RemoveChild(parent->child_at(op.from));
        Node* reference = op.to < parent->child_count()
                              ? parent->child_at(op.to)
                              : nullptr;
        parent->InsertBefore(std::move(moving), reference);
        break;
      }
      case PatchOpType::kReplace: {
        if (op.path.empty()) {
          return InvalidArgumentError("patch cannot replace the root");
        }
        Node* target = NodeAtPath(root, op.path);
        if (target == nullptr) {
          return InvalidArgumentError("patch replace path out of range");
        }
        RCB_ASSIGN_OR_RETURN(auto node, ParseSingleNode(op.html));
        Node* parent = target->parent();
        parent->InsertBefore(std::move(node), target);
        parent->RemoveChild(target);
        break;
      }
      case PatchOpType::kSetAttr: {
        Node* target = NodeAtPath(root, op.path);
        Element* element = target != nullptr ? target->AsElement() : nullptr;
        if (element == nullptr) {
          return InvalidArgumentError("patch set-attr target is not an element");
        }
        element->SetAttribute(op.name, op.value);
        break;
      }
      case PatchOpType::kRemoveAttr: {
        Node* target = NodeAtPath(root, op.path);
        Element* element = target != nullptr ? target->AsElement() : nullptr;
        if (element == nullptr) {
          return InvalidArgumentError(
              "patch remove-attr target is not an element");
        }
        element->RemoveAttribute(op.name);
        break;
      }
      case PatchOpType::kSetText: {
        Node* target = NodeAtPath(root, op.path);
        if (target == nullptr || target->type() != NodeType::kText) {
          return InvalidArgumentError("patch set-text target is not text");
        }
        static_cast<Text*>(target)->set_data(op.value);
        break;
      }
    }
  }
  return Status::Ok();
}

ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch) {
  return ApplyPatchToDocument(document, current_doc_time_ms, patch, nullptr);
}

ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch, BaseDigestMemo* memo) {
  if (patch.target_doc_time_ms <= current_doc_time_ms) {
    return ApplyResult::kStaleIgnored;
  }
  if (patch.base_doc_time_ms != current_doc_time_ms) {
    return ApplyResult::kBaseTimeMismatch;
  }
  std::unique_ptr<Element> canonical = CanonicalizeDocument(*document);
  if (canonical == nullptr) {
    return ApplyResult::kBaseDigestMismatch;
  }
  const Element* root = document->document_element();
  if (memo != nullptr && !memo->digest.empty() &&
      memo->root_rev == root->rev()) {
    ++memo->hits;
    if (memo->digest != patch.base_digest) {
      return ApplyResult::kBaseDigestMismatch;
    }
  } else if (TreeDigest(*canonical) != patch.base_digest) {
    return ApplyResult::kBaseDigestMismatch;
  }
  if (!ApplyPatchOps(canonical.get(), patch.ops).ok()) {
    return ApplyResult::kApplyError;
  }
  if (TreeDigest(*canonical) != patch.target_digest) {
    return ApplyResult::kTargetDigestMismatch;
  }
  const bool memoizable = RoundTripsThroughCommit(*canonical);
  CommitCanonicalTree(document, std::move(canonical));
  if (memo != nullptr) {
    memo->root_rev = root->rev();
    memo->digest = memoizable ? patch.target_digest : std::string();
  }
  return ApplyResult::kApplied;
}

}  // namespace rcb::delta
