#include "src/delta/tree_diff.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "src/crypto/sha256.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/html/tokenizer.h"
#include "src/util/base64.h"
#include "src/util/escape.h"

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

  std::vector<int> pair_of_target(n, -1);  // base index matched to target j
  std::vector<bool> base_matched(m, false);
  auto pair = [&](size_t i, size_t j) {
    pair_of_target[j] = static_cast<int>(i);
    base_matched[i] = true;
  };
  // Longest common subsequence over keys, walked greedily from the front.
  // A common key prefix pairs off exactly as that walk pairs it. So does a
  // common suffix S whose first key occurs in neither middle X, Y: since
  // LCS(X+S, Y+S) = LCS(X, Y) + |S|, the walk takes the same steps inside
  // the middle, and once it leaves the middle no key there equals S's first,
  // so it skips ahead to S and pairs S off. The table spans the middle only.
  size_t prefix = 0;
  while (prefix < m && prefix < n && base_keys[prefix] == target_keys[prefix]) {
    pair(prefix, prefix);
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < m - prefix && suffix < n - prefix &&
         base_keys[m - 1 - suffix] == target_keys[n - 1 - suffix]) {
    ++suffix;
  }
  if (suffix > 0) {
    std::unordered_set<std::string_view> middle_keys;
    for (size_t i = prefix; i < m - suffix; ++i) {
      middle_keys.insert(base_keys[i]);
    }
    for (size_t j = prefix; j < n - suffix; ++j) {
      middle_keys.insert(target_keys[j]);
    }
    // A suffix key already in the middle stays in the middle.
    while (suffix > 0 && middle_keys.contains(base_keys[m - suffix])) {
      --suffix;
    }
  }
  for (size_t t = 0; t < suffix; ++t) {
    pair(m - suffix + t, n - suffix + t);
  }
  const size_t rows = m - suffix - prefix;
  const size_t cols = n - suffix - prefix;
  std::vector<uint32_t> lcs((rows + 1) * (cols + 1), 0);
  auto at = [&](size_t i, size_t j) -> uint32_t& {
    return lcs[i * (cols + 1) + j];
  };
  auto same = [&](size_t i, size_t j) {
    return base_keys[prefix + i] == target_keys[prefix + j];
  };
  for (size_t i = rows; i-- > 0;) {
    for (size_t j = cols; j-- > 0;) {
      at(i, j) = same(i, j) ? at(i + 1, j + 1) + 1
                            : std::max(at(i + 1, j), at(i, j + 1));
    }
  }
  for (size_t i = 0, j = 0; i < rows && j < cols;) {
    if (same(i, j)) {
      pair(prefix + i++, prefix + j++);
    } else if (at(i + 1, j) >= at(i, j + 1)) {
      ++i;
    } else {
      ++j;
    }
  }

  // Crossing pairs the LCS dropped: re-pair leftovers by key (becomes a
  // move), then element leftovers by tag (attribute churn on unkeyed
  // elements — the recursion emits the attr ops). Each spare list is taken
  // front to back by a cursor.
  struct Spares {
    std::vector<size_t> indexes;
    size_t next = 0;
  };
  auto take = [&](auto& spares, std::string_view key, size_t j) {
    auto it = spares.find(key);
    if (it != spares.end() && it->second.next < it->second.indexes.size()) {
      pair(it->second.indexes[it->second.next++], j);
    }
  };
  std::unordered_map<std::string_view, Spares> spare_by_key;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      spare_by_key[base_keys[i]].indexes.push_back(i);
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] < 0) {
      take(spare_by_key, target_keys[j], j);
    }
  }
  std::unordered_map<std::string_view, Spares> spare_by_tag;
  for (size_t i = 0; i < m; ++i) {
    if (!base_matched[i]) {
      if (const Element* el = base.child_at(i)->AsElement()) {
        spare_by_tag[el->tag_name()].indexes.push_back(i);
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (pair_of_target[j] < 0) {
      if (const Element* el = target.child_at(j)->AsElement()) {
        take(spare_by_tag, el->tag_name(), j);
      }
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

// One level of NormalizeTextNodes: merges adjacent text children of
// `parent` and drops empty ones. With `view_of_head`, bootstrap scripts are
// transparent, as in the canonical copy that leaves them out: the texts on
// either side of one merge.
void NormalizeChildList(Element* parent, bool view_of_head) {
  Text* previous = nullptr;  // the text the next one would merge into
  size_t i = 0;
  while (i < parent->child_count()) {
    Node* child = parent->child_at(i);
    if (child->type() == NodeType::kText) {
      auto* text = static_cast<Text*>(child);
      if (text->data().empty() || previous != nullptr) {
        if (!text->data().empty()) {
          previous->set_data(previous->data() + text->data());
        }
        parent->RemoveChild(text);
        continue;  // the next child slid into index i
      }
      previous = text;
    } else if (!view_of_head || !IsSnippetBootstrapScript(*child)) {
      previous = nullptr;
    }
    ++i;
  }
}

// HashNode's header for one node: everything but the children.
uint64_t HashHeader(const Node& node) {
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
  return h;
}

uint64_t HashNode(const Node& node, TreeHashes* out) {
  const size_t index = out->hash.size();
  out->hash.push_back(0);
  out->size.push_back(0);
  uint64_t h = HashHeader(node);
  for (const auto& child : node.children()) {
    h = Mix(h, HashNode(*child, out));
  }
  h = Mix(h, node.child_count());
  out->hash[index] = h;
  out->size[index] = static_cast<uint32_t>(out->hash.size() - index);
  return h;
}

// TreeDigest's framing. In an element's input a child element stands as its
// tag: kMarker, kElementTag and the child's digest. So does a run (the bytes
// of the non-element children between two child elements) of kInlineRun
// bytes or more: kMarker, kRunTag and the SHA-256 of its bytes; a shorter
// run stands as its bytes. A kMarker among the input's own bytes is hashed
// as kMarker, kLiteral, so no content reads as a tag.
constexpr char kMarker = '\xff';
constexpr char kLiteral = '\x00';
constexpr char kElementTag = '\x01';
constexpr char kRunTag = '\x02';
constexpr size_t kInlineRun = 64;
using NodeDigest = std::array<uint8_t, Sha256::kDigestSize>;

// Escapes the marker bytes of input[from, end).
void EscapeMarkers(size_t from, std::string* input) {
  const void* hit =
      std::memchr(input->data() + from, kMarker, input->size() - from);
  if (hit == nullptr) {
    return;
  }
  const size_t at = static_cast<const char*>(hit) - input->data();
  const std::string tail = input->substr(at);
  input->resize(at);
  for (char c : tail) {
    input->push_back(c);
    if (c == kMarker) {
      input->push_back(kLiteral);
    }
  }
}

// Appends the bytes a non-element node serializes to; `raw` under a script
// or style parent, where text is verbatim.
void AppendLeaf(const Node& leaf, bool raw, std::string* input) {
  switch (leaf.type()) {
    case NodeType::kText: {
      const std::string& data = static_cast<const Text&>(leaf).data();
      if (raw) {
        input->append(data);
      } else {
        HtmlEscapeAppend(data, input);
      }
      break;
    }
    case NodeType::kComment:
      input->append("<!--");
      input->append(static_cast<const Comment&>(leaf).data());
      input->append("-->");
      break;
    case NodeType::kDoctype:
      input->append("<!");
      input->append(static_cast<const Doctype&>(leaf).data());
      input->push_back('>');
      break;
    case NodeType::kDocument:  // never a child
    case NodeType::kElement:   // a tag, not bytes
      break;
  }
}

void AppendStartTag(const Element& element, std::string* input) {
  const size_t from = input->size();
  input->push_back('<');
  input->append(element.tag_name());
  for (const auto& [name, value] : element.attributes()) {
    input->push_back(' ');
    input->append(name);
    input->append("=\"");
    HtmlEscapeAppend(value, input);
    input->push_back('"');
  }
  input->push_back('>');
  EscapeMarkers(from, input);
}

void AppendTag(char kind, const NodeDigest& digest, std::string* input) {
  input->push_back(kMarker);
  input->push_back(kind);
  input->append(reinterpret_cast<const char*>(digest.data()), digest.size());
}

// Hashes input[start, end) into `*digest`, cuts it off and appends its tag.
// Returns the bytes hashed.
size_t HashInto(char kind, size_t start, std::string* input,
                NodeDigest* digest) {
  Sha256 sha;
  sha.Update(std::string_view(*input).substr(start));
  *digest = sha.Finish();
  const size_t hashed = input->size() - start;
  input->resize(start);
  AppendTag(kind, *digest, input);
  return hashed;
}

// Closes the run of leaf bytes at input[start, end): a long one is hashed
// into `*digest` and replaced by its tag (returns the bytes hashed), a short
// one stays as bytes (returns 0).
size_t CloseRunInput(size_t start, std::string* input, NodeDigest* digest) {
  if (input->size() - start < kInlineRun) {
    EscapeMarkers(start, input);
    return 0;
  }
  return HashInto(kRunTag, start, input, digest);
}

// Closes the input of element `tag` opened at input[start]: appends its end
// tag (none for a void element), hashes the input into `*digest` and
// replaces it by the element's tag. Returns the bytes hashed.
size_t CloseElementInput(std::string_view tag, size_t start,
                         std::string* input, NodeDigest* digest) {
  if (!IsVoidElement(tag)) {
    input->append("</");
    input->append(tag);
    input->push_back('>');
  }
  return HashInto(kElementTag, start, input, digest);
}

// TreeDigest's recursion: appends the element's start tag, its children's
// tags and runs and its end tag, then closes the input.
NodeDigest ElementDigest(const Element& element, std::string* input) {
  const size_t start = input->size();
  AppendStartTag(element, input);
  NodeDigest digest;
  if (!IsVoidElement(element.tag_name())) {
    const bool raw = HtmlTokenizer::IsRawTextElement(element.tag_name());
    size_t run = input->size();
    for (const auto& child : element.children()) {
      if (const Element* child_element = child->AsElement()) {
        CloseRunInput(run, input, &digest);
        ElementDigest(*child_element, input);
        run = input->size();
      } else {
        AppendLeaf(*child, raw, input);
      }
    }
    CloseRunInput(run, input, &digest);
  }
  CloseElementInput(element.tag_name(), start, input, &digest);
  return digest;
}

std::string HexDigest(const NodeDigest& digest) {
  return HexEncode(std::string_view(
      reinterpret_cast<const char*>(digest.data()), digest.size()));
}

}  // namespace

bool IsSnippetBootstrapScript(const Node& node) {
  const Element* element = node.AsElement();
  return element != nullptr && element->tag_name() == "script" &&
         element->AttrOr("id") == "rcb-snippet";
}

void NormalizeTextNodes(Element* root) {
  NormalizeChildList(root, /*view_of_head=*/false);
  for (const auto& child : root->children()) {
    if (Element* element = child->AsElement()) {
      NormalizeTextNodes(element);
    }
  }
}

std::vector<Node*> CanonicalViewChildren(const Element& root,
                                         const Element& parent) {
  std::vector<Node*> out;
  if (&parent != &root) {
    for (const auto& child : parent.children()) {
      if (!IsSnippetBootstrapScript(*child)) {
        out.push_back(child.get());
      }
    }
    return out;
  }
  for (const char* tag : {"head", "body", "frameset", "noframes"}) {
    // Children of a const node are mutable through children(), as here.
    Element* first = const_cast<Element*>(root.ChildByTag(tag));
    if (first != nullptr || out.empty()) {
      out.push_back(first);
    }
  }
  return out;
}

std::unique_ptr<Element> CanonicalizeDocument(const Document& document) {
  const Element* root = document.document_element();
  if (root == nullptr) {
    return nullptr;
  }
  auto canonical = MakeElement("html");
  const std::vector<Node*> top = CanonicalViewChildren(*root, *root);
  auto head = MakeElement("head");
  if (top[0] != nullptr) {
    for (Node* child : CanonicalViewChildren(*root, *top[0]->AsElement())) {
      head->AppendChild(child->Clone());
    }
  }
  canonical->AppendChild(std::move(head));
  for (size_t i = 1; i < top.size(); ++i) {
    canonical->AppendChild(top[i]->Clone());
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
  std::string input;
  return HexDigest(ElementDigest(canonical_root, &input));
}

TreeHashes HashTree(const Element& root) {
  TreeHashes hashes;
  HashNode(root, &hashes);
  hashes.hash.shrink_to_fit();
  hashes.size.shrink_to_fit();
  return hashes;
}

uint32_t CanonicalMemo::OpenRecord() {
  const auto index = static_cast<uint32_t>(next_entries_.size());
  next_entries_.emplace_back();
  next_hashes_.hash.push_back(0);
  next_hashes_.size.push_back(0);
  return index;
}

uint32_t CanonicalMemo::CloseRecord(uint32_t index, const Node* node,
                                    uint64_t rev, const NodeDigest& digest,
                                    uint64_t hash, bool clean,
                                    Context context) {
  // A leaf's digest and run are its run's, set by CloseRun after this.
  next_entries_[index] = {node, rev, digest, 0, clean, context};
  next_hashes_.hash[index] = hash;
  next_hashes_.size[index] =
      static_cast<uint32_t>(next_entries_.size() - index);
  return index;
}

bool CanonicalMemo::Unchanged(const Node& node, uint32_t old,
                              Context context) const {
  if (old == kNoEntry) {
    return false;
  }
  const Entry& entry = entries_[old];
  return entry.rev == node.rev() && entry.context == context &&
         (entry.clean || !normalize_);
}

template <typename ChildAt>
void CanonicalMemo::VisitChildren(size_t count, ChildAt child_at, uint32_t old,
                                  Context context, uint64_t* hash,
                                  bool* clean) {
  std::vector<uint32_t> previous;  // the records of `old`'s children
  if (old != kNoEntry) {
    const uint32_t end = old + hashes_.size[old];
    for (uint32_t c = old + 1; c < end; c += hashes_.size[c]) {
      previous.push_back(c);
    }
  }
  // Children usually keep their order, so a cursor finds each one's record;
  // the map answers only after an insert, removal or move.
  std::unordered_map<const Node*, size_t> by_node;
  size_t cursor = 0;
  bool after_text = false;
  // The current run's leaf records, and its first leaf's previous record
  // while the run so far repeats a previous one leaf for leaf (a leaf is one
  // record, so a repeated run's records are consecutive).
  std::vector<uint32_t> run;
  uint32_t run_old = kNoEntry;
  uint32_t last_old = kNoEntry;
  for (size_t j = 0; j < count; ++j) {
    Node* child = child_at(j);
    uint32_t match = kNoEntry;
    if (cursor < previous.size() && entries_[previous[cursor]].node == child) {
      match = previous[cursor++];
    } else if (!previous.empty()) {
      if (by_node.empty()) {
        for (size_t k = 0; k < previous.size(); ++k) {
          by_node.emplace(entries_[previous[k]].node, k);
        }
      }
      if (auto it = by_node.find(child); it != by_node.end()) {
        match = previous[it->second];
        cursor = it->second + 1;
      }
    }
    const bool leaf = child != nullptr && child->AsElement() == nullptr;
    if (leaf) {
      const bool unchanged = Unchanged(*child, match, context);
      if (run.empty()) {
        run_old = unchanged ? match : kNoEntry;
      } else if (!unchanged || match != last_old + 1) {
        run_old = kNoEntry;
      }
      last_old = match;
    } else {
      CloseRun(run, run_old, context);
      run.clear();
    }
    // nullptr stands for the document view's head (Digest(Document*)).
    const uint32_t index = child == nullptr
                               ? VisitView("head", view_head_, match)
                               : Visit(child, match, context);
    if (leaf) {
      run.push_back(index);
    }
    *hash = Mix(*hash, next_hashes_.hash[index]);
    const bool is_text = child != nullptr && child->type() == NodeType::kText;
    *clean = *clean && next_entries_[index].clean &&
             !(is_text && (after_text ||
                           static_cast<const Text*>(child)->data().empty()));
    after_text = is_text;
  }
  CloseRun(run, run_old, context);
  *hash = Mix(*hash, count);
}

void CanonicalMemo::CloseRun(const std::vector<uint32_t>& run, uint32_t old,
                             Context context) {
  if (run.empty() || context == Context::kMuted) {
    return;
  }
  Entry& first = next_entries_[run[0]];
  if (old != kNoEntry && entries_[old].run == run.size()) {
    // The previous call's hashed run, leaf for leaf: its record came over
    // with its digest.
    AppendTag(kRunTag, first.digest, &input_);
    return;
  }
  const size_t start = input_.size();
  for (uint32_t record : run) {
    next_entries_[record].run = 0;
    AppendLeaf(*next_entries_[record].node, context == Context::kRaw, &input_);
  }
  const size_t hashed = CloseRunInput(start, &input_, &first.digest);
  if (hashed > 0) {
    first.run = static_cast<uint32_t>(run.size());
    hashed_bytes_ += hashed;
  }
}

uint32_t CanonicalMemo::Visit(Node* node, uint32_t old, Context context) {
  const bool emit = context != Context::kMuted;
  Element* element = node->AsElement();
  if (Unchanged(*node, old, context)) {
    // Unchanged since the last call: its records and hashes move over as
    // they are, and an element's tag goes into its parent's input.
    const auto index = static_cast<uint32_t>(next_entries_.size());
    const uint32_t count = hashes_.size[old];
    next_entries_.insert(next_entries_.end(), entries_.begin() + old,
                         entries_.begin() + old + count);
    next_hashes_.hash.insert(next_hashes_.hash.end(),
                             hashes_.hash.begin() + old,
                             hashes_.hash.begin() + old + count);
    next_hashes_.size.insert(next_hashes_.size.end(),
                             hashes_.size.begin() + old,
                             hashes_.size.begin() + old + count);
    if (emit && element != nullptr) {
      AppendTag(kElementTag, entries_[old].digest, &input_);
    }
    return index;
  }
  const uint32_t index = OpenRecord();
  const size_t start = input_.size();
  uint64_t hash = HashHeader(*node);
  bool clean = true;
  // The serializer's byte rules (src/html/serializer.cc): only an emitted,
  // non-void element's children are emitted; a leaf's bytes go into its
  // parent's run (VisitChildren).
  Context child_context = Context::kMuted;
  if (element != nullptr) {
    if (normalize_) {
      NormalizeChildList(element, /*view_of_head=*/false);
    }
    const std::string& tag = element->tag_name();
    if (emit) {
      AppendStartTag(*element, &input_);
      if (!IsVoidElement(tag)) {
        child_context = HtmlTokenizer::IsRawTextElement(tag) ? Context::kRaw
                                                             : Context::kNormal;
      }
    }
  }
  VisitChildren(
      node->child_count(), [node](size_t j) { return node->child_at(j); }, old,
      child_context, &hash, &clean);
  NodeDigest digest{};
  if (emit && element != nullptr) {
    hashed_bytes_ +=
        CloseElementInput(element->tag_name(), start, &input_, &digest);
  }
  return CloseRecord(index, node, node->rev(), digest, hash, clean, context);
}

uint32_t CanonicalMemo::VisitView(const char* tag,
                                  const std::vector<Node*>& children,
                                  uint32_t old) {
  // An attribute-less element made up for the view: no rev, so never reused.
  const uint32_t index = OpenRecord();
  const size_t start = input_.size();
  input_.push_back('<');
  input_.append(tag);
  input_.push_back('>');
  uint64_t hash = Mix(
      MixBytes(Mix(0x243f6a8885a308d3ULL,
                   static_cast<uint64_t>(NodeType::kElement)),
               tag),
      0);
  bool clean = true;
  VisitChildren(
      children.size(), [&children](size_t j) { return children[j]; }, old,
      Context::kNormal, &hash, &clean);
  NodeDigest digest;
  hashed_bytes_ += CloseElementInput(tag, start, &input_, &digest);
  return CloseRecord(index, nullptr, 0, digest, hash, clean, Context::kNormal);
}

const std::string& CanonicalMemo::Finish(const Element* root, bool view) {
  entries_.swap(next_entries_);
  hashes_.hash.swap(next_hashes_.hash);
  hashes_.size.swap(next_hashes_.size);
  digest_ = HexDigest(entries_[0].digest);
  next_entries_.clear();
  next_hashes_.hash.clear();
  next_hashes_.size.clear();
  input_.clear();  // the root's tag
  root_ = root;
  root_rev_ = root->rev();
  view_ = view;
  return digest_;
}

const std::string& CanonicalMemo::Digest(Element* root) {
  if (!view_ && root == root_ && root->rev() == root_rev_) {
    ++hits_;
    return digest_;
  }
  normalize_ = true;
  Visit(root, view_ || entries_.empty() ? kNoEntry : 0, Context::kNormal);
  return Finish(root, /*view=*/false);
}

const std::string& CanonicalMemo::Digest(Document* document, bool normalize) {
  Element* root = document->document_element();
  if (view_ && root == root_ && root->rev() == root_rev_ &&
      (entries_[0].clean || !normalize)) {
    ++hits_;
    return digest_;
  }
  normalize_ = normalize;
  // The view CanonicalizeDocument copies, under an attribute-less html and
  // an attribute-less head, which the walk makes up.
  std::vector<Node*> top = CanonicalViewChildren(*root, *root);
  view_head_.clear();
  if (Element* head = top[0] != nullptr ? top[0]->AsElement() : nullptr) {
    if (normalize) {
      NormalizeChildList(head, /*view_of_head=*/true);
    }
    view_head_ = CanonicalViewChildren(*root, *head);
  }
  top[0] = nullptr;  // nullptr: the view's head
  VisitView("html", top, view_ && !entries_.empty() ? 0 : kNoEntry);
  return Finish(root, /*view=*/true);
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
