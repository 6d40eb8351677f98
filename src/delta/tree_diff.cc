#include "src/delta/tree_diff.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>

#include "src/crypto/sha256.h"
#include "src/html/serializer.h"

namespace rcb::delta {
namespace {

// The attribute-order contract of SetAttribute: existing names keep their
// position, new names append. An attribute diff can therefore only reproduce
// `target`'s order when [base∩target in base order] + [target-only names in
// target order] equals the target order; otherwise the differ falls back to
// replacing the whole element so the digest still matches.
bool AttributeOrderCompatible(const Element& base, const Element& target) {
  std::vector<std::string> predicted;
  for (const auto& [name, value] : base.attributes()) {
    if (target.HasAttribute(name)) {
      predicted.push_back(name);
    }
  }
  for (const auto& [name, value] : target.attributes()) {
    if (!base.HasAttribute(name)) {
      predicted.push_back(name);
    }
  }
  if (predicted.size() != target.attributes().size()) {
    return false;
  }
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] != target.attributes()[i].first) {
      return false;
    }
  }
  return true;
}

void DiffAttributes(const Element& base, const Element& target,
                    const std::vector<uint32_t>& path,
                    std::vector<PatchOp>* ops) {
  for (const auto& [name, value] : base.attributes()) {
    if (!target.HasAttribute(name)) {
      PatchOp op;
      op.type = PatchOpType::kRemoveAttr;
      op.path = path;
      op.name = name;
      ops->push_back(std::move(op));
    }
  }
  for (const auto& [name, value] : target.attributes()) {
    auto base_value = base.GetAttribute(name);
    if (!base_value.has_value() || *base_value != value) {
      PatchOp op;
      op.type = PatchOpType::kSetAttr;
      op.path = path;
      op.name = name;
      op.value = value;
      ops->push_back(std::move(op));
    }
  }
}

void EmitReplace(const Node& target, const std::vector<uint32_t>& path,
                 std::vector<PatchOp>* ops) {
  PatchOp op;
  op.type = PatchOpType::kReplace;
  op.path = path;
  op.html = SerializeNode(target);
  ops->push_back(std::move(op));
}

// One DiffTrees call: both trees' subtree hashes, the path of the pair being
// diffed, and the op sink.
struct DiffWalk {
  const TreeHashes& base;
  const TreeHashes& target;
  std::vector<uint32_t> path;
  std::vector<PatchOp> ops;
};

void DiffNodePair(const Node& base, uint32_t base_index, const Node& target,
                  uint32_t target_index, DiffWalk* walk);

// Pre-order indexes of the `count` children of the node at `index`.
std::vector<uint32_t> ChildIndexes(const TreeHashes& hashes, uint32_t index,
                                   size_t count) {
  std::vector<uint32_t> out(count);
  uint32_t next = index + 1;
  for (size_t i = 0; i < count; ++i) {
    out[i] = next;
    next += hashes.size[next];
  }
  return out;
}

// True when the two same-length child lists have equal keys position by
// position. Equal subtree hashes imply equal keys, so only positions whose
// hashes differ compute a key.
bool KeysAlignByPosition(const Element& base,
                         const std::vector<uint32_t>& base_at,
                         const Element& target,
                         const std::vector<uint32_t>& target_at,
                         const DiffWalk& walk) {
  for (size_t i = 0; i < base_at.size(); ++i) {
    if (walk.base.hash[base_at[i]] != walk.target.hash[target_at[i]] &&
        NodeKey(*base.child_at(i)) != NodeKey(*target.child_at(i))) {
      return false;
    }
  }
  return true;
}

// Pairs the children of one matched element pair and emits the ops that put
// every target child in place: keyed LCS keeps the stable spine, leftovers
// are re-paired by key (moves) and then by tag (attribute-drifted elements),
// the rest become removals/insertions. Removals run in descending index
// order, then moves/insertions finalize positions left to right (so every
// move satisfies from >= to). Returns, per target child, the paired base
// child index or -1 for an inserted one.
std::vector<int> ReorderChildren(const Element& base, const Element& target,
                                 DiffWalk* walk) {
  const size_t m = base.child_count();
  const size_t n = target.child_count();
  std::vector<std::string> base_keys(m), target_keys(n);
  for (size_t i = 0; i < m; ++i) {
    base_keys[i] = NodeKey(*base.child_at(i));
  }
  for (size_t j = 0; j < n; ++j) {
    target_keys[j] = NodeKey(*target.child_at(j));
  }

  // Longest common subsequence over keys.
  std::vector<std::vector<uint32_t>> lcs(m + 1,
                                         std::vector<uint32_t>(n + 1, 0));
  for (size_t i = m; i-- > 0;) {
    for (size_t j = n; j-- > 0;) {
      lcs[i][j] = base_keys[i] == target_keys[j]
                      ? lcs[i + 1][j + 1] + 1
                      : std::max(lcs[i + 1][j], lcs[i][j + 1]);
    }
  }
  std::vector<int> pair_of_target(n, -1);  // base index matched to target j
  std::vector<bool> base_matched(m, false);
  {
    size_t i = 0, j = 0;
    while (i < m && j < n) {
      if (base_keys[i] == target_keys[j]) {
        pair_of_target[j] = static_cast<int>(i);
        base_matched[i] = true;
        ++i;
        ++j;
      } else if (lcs[i + 1][j] >= lcs[i][j + 1]) {
        ++i;
      } else {
        ++j;
      }
    }
  }

  // Crossing pairs the LCS dropped: re-pair leftovers by key (becomes a
  // move), then element leftovers by tag (attribute churn on unkeyed
  // elements — the recursion emits the attr ops).
  std::map<std::string, std::vector<size_t>> spare_by_key;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      spare_by_key[base_keys[i]].push_back(i);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] >= 0) {
      continue;
    }
    auto it = spare_by_key.find(target_keys[j]);
    if (it != spare_by_key.end() && !it->second.empty()) {
      size_t i = it->second.front();
      it->second.erase(it->second.begin());
      pair_of_target[j] = static_cast<int>(i);
      base_matched[i] = true;
    }
  }
  std::map<std::string, std::vector<size_t>> spare_by_tag;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      if (const Element* el = base.child_at(i)->AsElement()) {
        spare_by_tag[el->tag_name()].push_back(i);
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] >= 0) {
      continue;
    }
    const Element* el = target.child_at(j)->AsElement();
    if (el == nullptr) {
      continue;
    }
    auto it = spare_by_tag.find(el->tag_name());
    if (it != spare_by_tag.end() && !it->second.empty()) {
      size_t i = it->second.front();
      it->second.erase(it->second.begin());
      pair_of_target[j] = static_cast<int>(i);
      base_matched[i] = true;
    }
  }

  // Phase 1: removals, highest index first so earlier indexes stay valid.
  for (size_t i = m; i-- > 0;) {
    if (base_matched[i]) {
      continue;
    }
    PatchOp op;
    op.type = PatchOpType::kRemove;
    op.path = walk->path;
    op.index = static_cast<uint32_t>(i);
    walk->ops.push_back(std::move(op));
  }

  // Working order of the surviving base children after the removals.
  std::vector<int> work;
  work.reserve(n);
  for (size_t i = 0; i < m; ++i) {
    if (base_matched[i]) {
      work.push_back(static_cast<int>(i));
    }
  }

  // Phase 2: left-to-right, put the right node at each target position.
  // Positions < j are already final, so a paired node always sits at >= j
  // and every move is backward (from >= to).
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired >= 0) {
      size_t p = j;
      while (p < work.size() && work[p] != paired) {
        ++p;
      }
      if (p != j) {
        PatchOp op;
        op.type = PatchOpType::kMove;
        op.path = walk->path;
        op.from = static_cast<uint32_t>(p);
        op.to = static_cast<uint32_t>(j);
        walk->ops.push_back(std::move(op));
        work.erase(work.begin() + static_cast<long>(p));
        work.insert(work.begin() + static_cast<long>(j), paired);
      }
    } else {
      PatchOp op;
      op.type = PatchOpType::kInsert;
      op.path = walk->path;
      op.index = static_cast<uint32_t>(j);
      op.html = SerializeNode(*target.child_at(j));
      walk->ops.push_back(std::move(op));
      work.insert(work.begin() + static_cast<long>(j), -1);
    }
  }
  return pair_of_target;
}

// Reconciles the children of one matched element pair, then recurses into
// the matched pairs at their final indexes — keeping every emitted path
// valid at apply time. When the key lists align position by position, the
// LCS would pair every child with itself and reorder nothing, so the pairing
// is taken as is and only the differing pairs are visited.
void ReconcileChildren(const Element& base, uint32_t base_index,
                       const Element& target, uint32_t target_index,
                       DiffWalk* walk) {
  const size_t n = target.child_count();
  const std::vector<uint32_t> base_at =
      ChildIndexes(walk->base, base_index, base.child_count());
  const std::vector<uint32_t> target_at =
      ChildIndexes(walk->target, target_index, n);
  std::vector<int> pair_of_target;
  if (base_at.size() == n &&
      KeysAlignByPosition(base, base_at, target, target_at, *walk)) {
    pair_of_target.resize(n);
    std::iota(pair_of_target.begin(), pair_of_target.end(), 0);
  } else {
    pair_of_target = ReorderChildren(base, target, walk);
  }
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired < 0) {
      continue;
    }
    walk->path.push_back(static_cast<uint32_t>(j));
    DiffNodePair(*base.child_at(static_cast<size_t>(paired)),
                 base_at[static_cast<size_t>(paired)], *target.child_at(j),
                 target_at[j], walk);
    walk->path.pop_back();
  }
}

void DiffNodePair(const Node& base, uint32_t base_index, const Node& target,
                  uint32_t target_index, DiffWalk* walk) {
  if (walk->base.hash[base_index] == walk->target.hash[target_index]) {
    return;  // identical subtrees emit nothing
  }
  const Element* base_el = base.AsElement();
  const Element* target_el = target.AsElement();
  if (base_el != nullptr && target_el != nullptr) {
    if (base_el->tag_name() != target_el->tag_name() ||
        !AttributeOrderCompatible(*base_el, *target_el)) {
      // Same data-rcb-id can land on a different element across generations;
      // attribute reordering cannot be expressed with set-attr ops. Both are
      // rare — replace the subtree wholesale.
      EmitReplace(target, walk->path, &walk->ops);
      return;
    }
    DiffAttributes(*base_el, *target_el, walk->path, &walk->ops);
    ReconcileChildren(*base_el, base_index, *target_el, target_index, walk);
    return;
  }
  if (base.type() == NodeType::kText && target.type() == NodeType::kText) {
    const auto& base_text = static_cast<const Text&>(base);
    const auto& target_text = static_cast<const Text&>(target);
    if (base_text.data() != target_text.data()) {
      PatchOp op;
      op.type = PatchOpType::kSetText;
      op.path = walk->path;
      op.value = target_text.data();
      walk->ops.push_back(std::move(op));
    }
    return;
  }
  // Comment / doctype pairs: replace when their serialization differs.
  if (SerializeNode(base) != SerializeNode(target)) {
    EmitReplace(target, walk->path, &walk->ops);
  }
}

// HashTree's mixing step: a 64x64->128-bit multiply folded to 64 bits, with
// fixed odd constants so zero inputs still mix.
uint64_t Mix(uint64_t a, uint64_t b) {
  const unsigned __int128 product =
      static_cast<unsigned __int128>(a ^ 0xa0761d6478bd642fULL) *
      (b ^ 0xe7037ed1a0b428dbULL);
  return static_cast<uint64_t>(product) ^
         static_cast<uint64_t>(product >> 64);
}

// Mixes a length-prefixed byte string into `h`, eight bytes per step.
uint64_t MixBytes(uint64_t h, std::string_view bytes) {
  h = Mix(h, bytes.size());
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = Mix(h, word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = Mix(h, word);
  }
  return h;
}

uint64_t HashNode(const Node& node, TreeHashes* out) {
  const size_t index = out->hash.size();
  out->hash.push_back(0);
  out->size.push_back(0);
  uint64_t h = Mix(0x243f6a8885a308d3ULL, static_cast<uint64_t>(node.type()));
  switch (node.type()) {
    case NodeType::kElement: {
      const Element& element = *node.AsElement();
      h = MixBytes(h, element.tag_name());
      h = Mix(h, element.attributes().size());
      for (const auto& [name, value] : element.attributes()) {
        h = MixBytes(MixBytes(h, name), value);
      }
      break;
    }
    case NodeType::kText:
      h = MixBytes(h, static_cast<const Text&>(node).data());
      break;
    case NodeType::kComment:
      h = MixBytes(h, static_cast<const Comment&>(node).data());
      break;
    case NodeType::kDoctype:
      h = MixBytes(h, static_cast<const Doctype&>(node).data());
      break;
    case NodeType::kDocument:
      break;
  }
  for (const auto& child : node.children()) {
    h = Mix(h, HashNode(*child, out));
  }
  h = Mix(h, node.child_count());
  out->hash[index] = h;
  out->size[index] = static_cast<uint32_t>(out->hash.size() - index);
  return h;
}

}  // namespace

bool IsSnippetBootstrapScript(const Node& node) {
  const Element* element = node.AsElement();
  return element != nullptr && element->tag_name() == "script" &&
         element->AttrOr("id") == "rcb-snippet";
}

void NormalizeTextNodes(Element* root) {
  size_t i = 0;
  while (i < root->child_count()) {
    Node* child = root->child_at(i);
    if (child->type() == NodeType::kText) {
      Text* text = static_cast<Text*>(child);
      while (i + 1 < root->child_count() &&
             root->child_at(i + 1)->type() == NodeType::kText) {
        text->set_data(text->data() +
                       static_cast<Text*>(root->child_at(i + 1))->data());
        root->RemoveChild(root->child_at(i + 1));
      }
      if (text->data().empty()) {
        root->RemoveChild(text);
        continue;  // the next child slid into index i
      }
    } else if (Element* element = child->AsElement()) {
      NormalizeTextNodes(element);
    }
    ++i;
  }
}

std::unique_ptr<Element> CanonicalizeDocument(const Document& document) {
  const Element* root = document.document_element();
  if (root == nullptr) {
    return nullptr;
  }
  auto canonical = MakeElement("html");
  auto head = MakeElement("head");
  if (const Element* live_head = root->ChildByTag("head")) {
    for (const auto& child : live_head->children()) {
      if (IsSnippetBootstrapScript(*child)) {
        continue;
      }
      head->AppendChild(child->Clone());
    }
  }
  canonical->AppendChild(std::move(head));
  for (const char* tag : {"body", "frameset", "noframes"}) {
    if (const Element* element = root->ChildByTag(tag)) {
      canonical->AppendChild(element->Clone());
    }
  }
  NormalizeTextNodes(canonical.get());
  return canonical;
}

std::string NodeKey(const Node& node) {
  switch (node.type()) {
    case NodeType::kText:
      return "t";
    case NodeType::kComment:
      return "c";
    case NodeType::kDoctype:
      return "d";
    case NodeType::kDocument:
      return "D";
    case NodeType::kElement:
      break;
  }
  const Element& element = *node.AsElement();
  if (auto id = element.GetAttribute("data-rcb-id"); id.has_value()) {
    return "i:" + *id;
  }
  std::string material = element.tag_name();
  for (const auto& [name, value] : element.attributes()) {
    material += '\x1f';
    material += name;
    material += '=';
    material += value;
  }
  return "e:" + element.tag_name() + ':' +
         Sha256::HexDigest(material).substr(0, 12);
}

std::string TreeDigest(const Element& canonical_root) {
  // One digest runs per document version per mode; the serialization is the
  // page-sized allocation on that path, so the buffer keeps its capacity
  // across calls instead of growing from empty every time.
  static thread_local std::string scratch;
  scratch.clear();
  SerializeNodeInto(canonical_root, &scratch);
  return Sha256::HexDigest(scratch);
}

TreeHashes HashTree(const Element& root) {
  TreeHashes hashes;
  HashNode(root, &hashes);
  hashes.hash.shrink_to_fit();
  hashes.size.shrink_to_fit();
  return hashes;
}

std::vector<PatchOp> DiffTrees(const Element& base, const Element& target) {
  return DiffTrees(base, HashTree(base), target, HashTree(target));
}

std::vector<PatchOp> DiffTrees(const Element& base,
                               const TreeHashes& base_hashes,
                               const Element& target,
                               const TreeHashes& target_hashes) {
  DiffWalk walk{base_hashes, target_hashes, {}, {}};
  DiffNodePair(base, 0, target, 0, &walk);
  return std::move(walk.ops);
}

std::string SummarizeOps(const std::vector<PatchOp>& ops) {
  static constexpr const char* kKindNames[] = {
      "ins", "rm", "mv", "repl", "attr", "rmattr", "text"};
  size_t counts[7] = {};
  for (const PatchOp& op : ops) {
    ++counts[static_cast<size_t>(op.type)];
  }
  std::string out;
  for (size_t i = 0; i < 7; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    if (!out.empty()) {
      out += ',';
    }
    out += kKindNames[i];
    out += '=';
    out += std::to_string(counts[i]);
  }
  return out.empty() ? "none" : out;
}

}  // namespace rcb::delta
