#include "src/delta/patch_applier.h"

#include "src/html/parser.h"
#include "src/util/strings.h"

namespace rcb::delta {
namespace {

StatusOr<std::unique_ptr<Node>> ParseSingleNode(const std::string& html) {
  auto nodes = ParseFragment(html);
  if (nodes.size() != 1) {
    return InvalidArgumentError(
        StrFormat("patch payload parsed to %zu nodes, want 1", nodes.size()));
  }
  return std::move(nodes[0]);
}

// One mutation of the live document, recorded so that a refused patch can
// be rolled back. Undone in reverse order, each record finds the tree as it
// left it, so its positions and pointers hold.
struct Undo {
  enum class Kind { kInserted, kRemoved, kMoved, kAttributes, kText };
  Undo(Kind kind, Node* node, size_t index = 0, size_t to = 0)
      : kind(kind), node(node), index(index), to(to) {}

  Kind kind;
  Node* node;  // the parent; the element (kAttributes); the text (kText)
  size_t index;  // the child's position; kMoved: where it came from
  size_t to;     // kMoved: where it went
  std::unique_ptr<Node> removed;                                // kRemoved
  std::vector<std::pair<std::string, std::string>> attributes;  // kAttributes
  std::string data;                                             // kText
};

void Rollback(std::vector<Undo>* log) {
  for (auto it = log->rbegin(); it != log->rend(); ++it) {
    Node* node = it->node;
    switch (it->kind) {
      case Undo::Kind::kInserted:
        node->RemoveChild(node->child_at(it->index));
        break;
      case Undo::Kind::kRemoved:
        node->InsertChildAt(it->index, std::move(it->removed));
        break;
      case Undo::Kind::kMoved:
        node->InsertChildAt(it->index,
                            node->RemoveChild(node->child_at(it->to)));
        break;
      case Undo::Kind::kAttributes:
        static_cast<Element*>(node)->AssignAttributes(it->attributes);
        break;
      case Undo::Kind::kText:
        static_cast<Text*>(node)->set_data(std::move(it->data));
        break;
    }
  }
  log->clear();
}

size_t IndexInParent(const Node* node) {
  const Node* parent = node->parent();
  size_t i = 0;
  while (parent->child_at(i) != node) {
    ++i;
  }
  return i;
}

// The tree the op paths address. In a canonical tree they index children
// directly. In a live document they index its canonical view
// (CanonicalViewChildren): the root's and the view head's children are
// mapped, and everything deeper is itself.
class OpTarget {
 public:
  OpTarget(Element* root, bool document_view)
      : root_(root), document_view_(document_view) {}

  Node* At(const std::vector<uint32_t>& path) const {
    Node* node = root_;
    for (uint32_t index : path) {
      if (node == nullptr || index >= Count(node)) {
        return nullptr;
      }
      node = Child(node, index);
    }
    return node;
  }
  size_t Count(const Node* parent) const {
    return Mapped(parent) ? View(parent).size() : parent->child_count();
  }
  // View child `index` (< Count); nullptr for a document's missing head.
  Node* Child(const Node* parent, size_t index) const {
    return Mapped(parent) ? View(parent)[index] : parent->child_at(index);
  }
  // Live position an insert at view position `index` (<= Count) takes; a
  // missing head's is the front.
  size_t InsertSlot(const Node* parent, size_t index) const {
    if (index >= Count(parent)) {
      return parent->child_count();
    }
    const Node* at = Child(parent, index);
    return at != nullptr ? IndexInParent(at) : 0;
  }

 private:
  bool Mapped(const Node* parent) const {
    return document_view_ &&
           (parent == root_ ||
            (parent->parent() == root_ && parent == View(root_)[0]));
  }
  std::vector<Node*> View(const Node* parent) const {
    return CanonicalViewChildren(*root_, *parent->AsElement());
  }

  Element* root_;
  bool document_view_;
};

// The one op engine: applies `ops` to `target` in order, logging each
// mutation into `log` when one is given.
Status ApplyOps(const OpTarget& target, const std::vector<PatchOp>& ops,
                std::vector<Undo>* log) {
  auto record = [log](Undo undo) {
    if (log != nullptr) {
      log->push_back(std::move(undo));
    }
  };
  for (const PatchOp& op : ops) {
    switch (op.type) {
      case PatchOpType::kInsert: {
        Node* parent = target.At(op.path);
        if (parent == nullptr || op.index > target.Count(parent)) {
          return InvalidArgumentError("patch insert out of range");
        }
        RCB_ASSIGN_OR_RETURN(auto node, ParseSingleNode(op.html));
        const size_t slot = target.InsertSlot(parent, op.index);
        parent->InsertChildAt(slot, std::move(node));
        record({Undo::Kind::kInserted, parent, slot});
        break;
      }
      case PatchOpType::kRemove: {
        Node* parent = target.At(op.path);
        if (parent == nullptr || op.index >= target.Count(parent)) {
          return InvalidArgumentError("patch remove out of range");
        }
        Node* removed = target.Child(parent, op.index);
        if (removed == nullptr) {
          return InvalidArgumentError("patch cannot remove a missing head");
        }
        Undo undo{Undo::Kind::kRemoved, parent, IndexInParent(removed)};
        undo.removed = parent->RemoveChild(removed);
        record(std::move(undo));
        break;
      }
      case PatchOpType::kMove: {
        Node* parent = target.At(op.path);
        if (parent == nullptr || op.from >= target.Count(parent) ||
            op.to >= target.Count(parent)) {
          return InvalidArgumentError("patch move out of range");
        }
        Node* moved = target.Child(parent, op.from);
        if (moved == nullptr) {
          return InvalidArgumentError("patch cannot move a missing head");
        }
        const size_t from = IndexInParent(moved);
        std::unique_ptr<Node> moving = parent->RemoveChild(moved);
        const size_t to = target.InsertSlot(parent, op.to);
        parent->InsertChildAt(to, std::move(moving));
        record({Undo::Kind::kMoved, parent, from, to});
        break;
      }
      case PatchOpType::kReplace: {
        if (op.path.empty()) {
          return InvalidArgumentError("patch cannot replace the root");
        }
        Node* replaced = target.At(op.path);
        if (replaced == nullptr) {
          return InvalidArgumentError("patch replace path out of range");
        }
        RCB_ASSIGN_OR_RETURN(auto node, ParseSingleNode(op.html));
        Node* parent = replaced->parent();
        const size_t live = IndexInParent(replaced);
        parent->InsertChildAt(live, std::move(node));
        record({Undo::Kind::kInserted, parent, live});
        Undo undo{Undo::Kind::kRemoved, parent, live + 1};
        undo.removed = parent->RemoveChild(replaced);
        record(std::move(undo));
        break;
      }
      case PatchOpType::kSetAttr:
      case PatchOpType::kRemoveAttr: {
        Node* node = target.At(op.path);
        Element* element = node != nullptr ? node->AsElement() : nullptr;
        if (element == nullptr) {
          return InvalidArgumentError(
              op.type == PatchOpType::kSetAttr
                  ? "patch set-attr target is not an element"
                  : "patch remove-attr target is not an element");
        }
        Undo undo{Undo::Kind::kAttributes, element};
        if (log != nullptr) {
          undo.attributes = element->attributes();
        }
        if (op.type == PatchOpType::kSetAttr) {
          element->SetAttribute(op.name, op.value);
        } else {
          element->RemoveAttribute(op.name);
        }
        record(std::move(undo));
        break;
      }
      case PatchOpType::kSetText: {
        Node* node = target.At(op.path);
        if (node == nullptr || node->type() != NodeType::kText) {
          return InvalidArgumentError("patch set-text target is not text");
        }
        auto* text = static_cast<Text*>(node);
        Undo undo{Undo::Kind::kText, text};
        if (log != nullptr) {
          undo.data = text->data();
        }
        text->set_data(op.value);
        record(std::move(undo));
        break;
      }
    }
  }
  return Status::Ok();
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
  return ApplyOps(OpTarget(root, /*document_view=*/false), ops, nullptr);
}

ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch) {
  CanonicalMemo memo;
  return ApplyPatchToDocument(document, current_doc_time_ms, patch, &memo);
}

ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch, CanonicalMemo* memo) {
  if (patch.target_doc_time_ms <= current_doc_time_ms) {
    return ApplyResult::kStaleIgnored;
  }
  if (patch.base_doc_time_ms != current_doc_time_ms) {
    return ApplyResult::kBaseTimeMismatch;
  }
  Element* root = document->document_element();
  if (root == nullptr) {
    return ApplyResult::kBaseDigestMismatch;
  }
  if (memo->Digest(document, /*normalize=*/true) != patch.base_digest) {
    return ApplyResult::kBaseDigestMismatch;
  }
  std::vector<Undo> log;
  const bool applied =
      ApplyOps(OpTarget(root, /*document_view=*/true), patch.ops, &log).ok();
  if (!applied) {
    Rollback(&log);
    return ApplyResult::kApplyError;
  }
  if (memo->Digest(document, /*normalize=*/false) != patch.target_digest) {
    Rollback(&log);
    return ApplyResult::kTargetDigestMismatch;
  }
  return ApplyResult::kApplied;
}

}  // namespace rcb::delta
