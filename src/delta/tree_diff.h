// Keyed DOM tree diff — the engine behind delta snapshots.
//
// Instead of shipping the full Fig. 4 snapshot on every document change, the
// agent can diff the previous and current generated content and ship only a
// patch (src/delta/patch_codec.h). Both sides of the wire reduce their
// document to the same *canonical tree* — an attribute-less <html> holding
// the head children (minus the Ajax-Snippet bootstrap script) and the
// body/frameset/noframes elements, with text nodes normalized — so a digest
// over the canonical serialization agrees between the agent's generated
// content and the participant's live page.
//
// Node identity during child reconciliation:
//   * elements carrying data-rcb-id (assigned by the Fig. 3 event-rewriting
//     pass) are keyed by it — stable across attribute edits, which is what
//     turns a form co-fill into a one-op set-attr patch,
//   * other elements are keyed by tag + attribute hash,
//   * all text nodes share one key (edits become set-text, not churn),
//   * comments and doctypes each share a per-type key.
#ifndef SRC_DELTA_TREE_DIFF_H_
#define SRC_DELTA_TREE_DIFF_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/html/dom.h"

namespace rcb::delta {

// One mutation step. `path` addresses a node as a child-index chain from the
// canonical <html> root (empty path = the root itself); for insert/remove/
// move the path names the *parent*. DiffTrees orders ops so that each op's
// path is valid once all preceding ops have been applied.
enum class PatchOpType {
  kInsert,      // insert serialized subtree under `path` at `index`
  kRemove,      // remove child `index` of `path`
  kMove,        // move child of `path` from index `from` to index `to`
  kReplace,     // replace the node at `path` with a serialized subtree
  kSetAttr,     // set attribute `name`=`value` on the element at `path`
  kRemoveAttr,  // remove attribute `name` from the element at `path`
  kSetText,     // replace the text-node data at `path` with `value`
};

struct PatchOp {
  PatchOpType type = PatchOpType::kInsert;
  std::vector<uint32_t> path;
  uint32_t index = 0;          // insert/remove position
  uint32_t from = 0;           // move source (>= to by construction)
  uint32_t to = 0;             // move destination
  std::string name;            // attribute name
  std::string value;           // attribute value / set-text data
  std::string html;            // insert/replace payload (serialized subtree)

  bool operator==(const PatchOp&) const = default;
};

// True for the <script id="rcb-snippet"> bootstrap element the Fig. 5 apply
// procedure preserves; canonicalization excludes it on both sides.
bool IsSnippetBootstrapScript(const Node& node);

// Merges adjacent text nodes and drops empty ones, recursively. Canonical
// trees are normalized so agent-side materialization and participant-side
// live documents serialize identically.
void NormalizeTextNodes(Element* root);

// The canonical view of a live document, without the copy: the live nodes
// the canonical tree holds as children of `parent`, which is the document's
// root element `root` or the view's head (view index 0 under the root).
// Under the root: the first head, always at index 0 (nullptr when there is
// none, standing for an empty head), then the first body, frameset and
// noframes. Under the head: its children minus bootstrap scripts. Every
// deeper node is its own view. The one statement of the rule: the canonical
// copy, CanonicalMemo and the patch op engine all read the view here.
std::vector<Node*> CanonicalViewChildren(const Element& root,
                                         const Element& parent);

// Canonicalizes a live document (see file comment). Returns nullptr when the
// document has no root element.
std::unique_ptr<Element> CanonicalizeDocument(const Document& document);

// Reconciliation key for one node (see file comment).
std::string NodeKey(const Node& node);

// The integrity digest the patch header carries as baseDigest/docDigest: the
// lowercase hex of the root's Merkle SHA-256 over the canonical
// serialization. An element's digest is the SHA-256 of the bytes it
// serializes to, with each child element's bytes replaced by a tag: the
// marker byte 0xff, a 0x01 and the child's 32-byte digest. A run, the bytes
// the non-element children between two child elements serialize to (in the
// serializer's contexts: escaped, raw under script or style, nothing under a
// void element), is hashed in place when shorter than 64 bytes and replaced
// by 0xff, 0x02 and its SHA-256 otherwise. A 0xff the input itself holds is
// hashed as 0xff 0x00, so no content reads as a tag. Adjacent or empty text
// nodes therefore hash as the bytes they serialize to, and trees that
// serialize alike digest alike.
std::string TreeDigest(const Element& canonical_root);

// Structural subtree hashes of one tree, in pre-order (index 0 is the root).
// hash[i] covers node i's type, tag, attributes in order, text/comment/
// doctype data and its children's hashes; size[i] counts the nodes of
// subtree i, so a node's first child sits at i + 1 and each next sibling at
// the previous one's index plus its size. The arrays describe the tree as it
// was hashed: keep them beside that tree and drop them together (a mutation
// of the tree invalidates them).
struct TreeHashes {
  std::vector<uint64_t> hash;
  std::vector<uint32_t> size;
};
TreeHashes HashTree(const Element& root);

// Rev-memoized TreeDigest: the Merkle digest and subtree hashes of one tree,
// kept from call to call as the tree changes. A node whose rev() is the one
// recorded at the previous call copies its records and hashes from there,
// an element's with its digest and a long run's first leaf's with the run's.
// Only the changed spine is hashed again: each element on it over its own
// tags, its short runs and one 34-byte tag per child element or long run; a
// long run is hashed again only when one of its leaves changed. Sound
// because a rev names one subtree state and is never reused, and clones
// share it (src/html/dom.h). Memory is O(tree): one record per node.
class CanonicalMemo {
 public:
  // TreeDigest(*root) after NormalizeTextNodes(root). The normalization runs
  // in place, only under nodes changed since the previous call.
  const std::string& Digest(Element* root);
  // TreeDigest(*CanonicalizeDocument(*document)) without building the copy;
  // `document` must have a root element. With `normalize`, the text nodes of
  // the canonical view are first normalized in place (only under changed
  // nodes), so that patch paths index the live view as they index the
  // canonical tree; without it the document is only read.
  const std::string& Digest(Document* document, bool normalize);

  // The digest and the pre-order subtree hashes of the last call; after a
  // normalizing call the hashes equal HashTree of the tree (or of the
  // document's canonical view).
  const std::string& digest() const { return digest_; }
  const TreeHashes& hashes() const { return hashes_; }
  // Calls answered from the previous one: the root's rev was unchanged.
  uint64_t hits() const { return hits_; }
  // Bytes fed to SHA-256 over all calls: what the changed spines cost.
  uint64_t hashed_bytes() const { return hashed_bytes_; }

 private:
  using NodeDigest = std::array<uint8_t, 32>;
  // Where a node's bytes go: normal text escapes, raw text (script/style
  // content) is verbatim, and a void element's children emit nothing.
  enum class Context : uint8_t { kNormal, kRaw, kMuted };
  // One node's record, in pre-order beside hashes_. `node` only guides the
  // match of a changed parent's children; `rev` decides the reuse.
  struct Entry {
    const Node* node = nullptr;
    uint64_t rev = 0;  // 0 for the view's html and head, which never match
    // An emitted element's digest, or the digest of the long run a leaf
    // opens, whose leaf count is `run` (0 for any other leaf).
    NodeDigest digest{};
    uint32_t run = 0;
    bool clean = false;  // subtree text nodes were normalized at that rev
    Context context = Context::kNormal;
  };
  static constexpr uint32_t kNoEntry = UINT32_MAX;

  // True when record `old` still stands for `node` in `context`.
  bool Unchanged(const Node& node, uint32_t old, Context context) const;
  // Each Visit of an element appends its tag to its parent's input_.
  uint32_t Visit(Node* node, uint32_t old, Context context);
  uint32_t VisitView(const char* tag, const std::vector<Node*>& children,
                     uint32_t old);
  // Visits `children` (a changed parent's) against the previous children of
  // record `old`, appending their tags and runs to input_; folds their
  // hashes into `*hash` and clears `*clean` on an unnormalized child list.
  template <typename ChildAt>
  void VisitChildren(size_t count, ChildAt child_at, uint32_t old,
                     Context context, uint64_t* hash, bool* clean);
  // Appends the run of the leaves recorded at `run` to input_; `old` is its
  // first leaf's previous record when the run repeats the previous call's
  // leaf for leaf, kNoEntry otherwise.
  void CloseRun(const std::vector<uint32_t>& run, uint32_t old,
                Context context);
  uint32_t OpenRecord();
  uint32_t CloseRecord(uint32_t index, const Node* node, uint64_t rev,
                       const NodeDigest& digest, uint64_t hash, bool clean,
                       Context context);
  const std::string& Finish(const Element* root, bool view);

  // The last call's records and hashes, and the next call's, built beside
  // them and then swapped in.
  std::vector<Entry> entries_, next_entries_;
  TreeHashes hashes_, next_hashes_;
  // The digest inputs of the changed elements on the walk's current path,
  // each above its parent's; an element hashes its own and cuts it off.
  std::string input_;
  std::string digest_;
  bool normalize_ = true;         // the current call's mode
  std::vector<Node*> view_head_;  // the current call's view of the head
  const Element* root_ = nullptr;
  uint64_t root_rev_ = 0;
  bool view_ = false;  // the last call walked a document's canonical view
  uint64_t hits_ = 0;
  uint64_t hashed_bytes_ = 0;
};

// Diffs two canonical trees: the returned ops transform `base` into a tree
// that serializes identically to `target`. Matched pairs with equal subtree
// hashes emit nothing and are skipped, so the keyed reconciliation runs only
// on the spine of subtrees that differ. The two-argument form hashes both
// trees first; callers that keep each version's hashes pass them in.
std::vector<PatchOp> DiffTrees(const Element& base, const Element& target);
std::vector<PatchOp> DiffTrees(const Element& base,
                               const TreeHashes& base_hashes,
                               const Element& target,
                               const TreeHashes& target_hashes);

// Compact per-kind op tally, e.g. "ins=1,attr=2" (kinds in PatchOpType
// order, zero counts omitted; empty ops -> "none"). The patch-shape summary
// causal trace spans carry (DESIGN.md §11).
std::string SummarizeOps(const std::vector<PatchOp>& ops);

}  // namespace rcb::delta

#endif  // SRC_DELTA_TREE_DIFF_H_
