// Delta-snapshot subsystem tests: patch codec round trips, keyed tree diff,
// the apply(diff(A,B), A) == B property over the Table 1 corpus with random
// DOM mutations, byte identity of the hash-pruned, prefix/suffix-trimmed
// differ against the unpruned one, the integrity-checked applier's
// freshness/digest gates, its malformed-op rejects, in-place rollback and
// digest memo, the host's reconciled trees, the in-place apply and the
// rev-memoized digest against their oracles over the corpus, the Merkle
// digest against the flat SHA-256 of the serialization, the memo's
// re-hashed bytes per edit, and end-to-end sessions where patches replace
// full snapshots on the wire (and where the history window, the size cutoff
// and piggybacked peer actions shape what is served).
#include <gtest/gtest.h>

#include <functional>
#include <unordered_map>

#include "src/core/broadcast.h"
#include "src/core/rcb_agent.h"
#include "src/core/session.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/html/tokenizer.h"
#include "src/net/profiles.h"
#include "src/sites/corpus.h"
#include "src/util/base64.h"
#include "src/util/rand.h"
#include "src/util/strings.h"
#include "tests/support/reference_patch_applier.h"
#include "tests/support/reference_tree_digest.h"

namespace rcb {
namespace {

std::unique_ptr<Element> CanonicalFromHtml(std::string_view html) {
  std::unique_ptr<Document> document = ParseDocument(html);
  std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(*document);
  EXPECT_NE(canonical, nullptr);
  return canonical;
}

delta::Patch MakePatch(const Element& base, const Element& target,
                       int64_t base_time, int64_t target_time) {
  delta::Patch patch;
  patch.base_doc_time_ms = base_time;
  patch.target_doc_time_ms = target_time;
  patch.base_digest = delta::TreeDigest(base);
  patch.target_digest = delta::TreeDigest(target);
  patch.ops = delta::DiffTrees(base, target);
  return patch;
}

// ---- Patch codec ---------------------------------------------------------

TEST(PatchCodecTest, OpsRoundTripAllTypes) {
  std::vector<delta::PatchOp> ops;
  delta::PatchOp op;
  op.type = delta::PatchOpType::kInsert;
  op.path = {1, 0};
  op.index = 2;
  op.html = "<p class=\"x&y\">a=b&amp;c\nnewline</p>";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kRemove;
  op.path = {1};
  op.index = 5;
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kMove;
  op.path = {};
  op.from = 3;
  op.to = 1;
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kReplace;
  op.path = {0, 2};
  op.html = "<span>r</span>";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kSetAttr;
  op.path = {1, 4};
  op.name = "data-rcb-id";
  op.value = "value with = & and % signs";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kRemoveAttr;
  op.path = {1, 4};
  op.name = "onclick";
  ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kSetText;
  op.path = {1, 0, 0};
  op.value = "new text\nwith newline";
  ops.push_back(op);

  auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, ops);
}

TEST(PatchCodecTest, PatchXmlRoundTripsWithUserActions) {
  delta::PatchEnvelope envelope;
  envelope.patch.base_doc_time_ms = 1111;
  envelope.patch.target_doc_time_ms = 2222;
  envelope.patch.base_digest = std::string(64, 'a');
  envelope.patch.target_digest = std::string(64, 'b');
  delta::PatchOp op;
  op.type = delta::PatchOpType::kSetText;
  op.path = {1, 0};
  op.value = "hello ]]> world";
  envelope.patch.ops.push_back(op);
  UserAction action;
  action.type = ActionType::kFormFill;
  action.target = 3;
  action.fields = {{"q", "macbook air"}};
  action.origin = "p2";
  envelope.user_actions.push_back(action);

  std::string xml = delta::SerializePatchXml(envelope);
  EXPECT_TRUE(delta::LooksLikePatchXml(xml));
  auto parsed = delta::ParsePatchXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, envelope);
}

TEST(PatchCodecTest, SnapshotXmlIsNotMistakenForPatch) {
  Snapshot snapshot;
  snapshot.doc_time_ms = 7;
  snapshot.has_content = true;
  snapshot.body.emplace();
  snapshot.body->tag = "body";
  snapshot.body->inner_html = "<p>x</p>";
  EXPECT_FALSE(delta::LooksLikePatchXml(SerializeSnapshotXml(snapshot)));
}

TEST(PatchCodecTest, DecodeRejectsMalformedOps) {
  // Unknown op name.
  EXPECT_FALSE(delta::DecodePatchOps("op=explode&path=0").ok());
  // Move with from < to (diff never emits forward moves).
  EXPECT_FALSE(delta::DecodePatchOps("op=move&from=1&to=2").ok());
  // Insert without a payload.
  EXPECT_FALSE(delta::DecodePatchOps("op=insert&path=0&index=0").ok());
  // Attribute name outside the allowed charset.
  EXPECT_FALSE(
      delta::DecodePatchOps("op=setattr&path=0&name=a%20b&value=x").ok());
  // Out-of-range index.
  EXPECT_FALSE(delta::DecodePatchOps("op=remove&path=0&index=99999999").ok());
  // Path deeper than the cap.
  std::string deep = "op=remove&index=0&path=0";
  for (int i = 0; i < 600; ++i) {
    deep += ".0";
  }
  EXPECT_FALSE(delta::DecodePatchOps(deep).ok());
}

TEST(PatchCodecTest, ParseRejectsBadHeaders) {
  delta::PatchEnvelope envelope;
  envelope.patch.base_doc_time_ms = 1;
  envelope.patch.target_doc_time_ms = 2;
  envelope.patch.base_digest = std::string(64, 'c');
  envelope.patch.target_digest = std::string(64, 'd');
  std::string good = delta::SerializePatchXml(envelope);

  // Wrong version.
  std::string bad = good;
  bad.replace(bad.find("<version>2</version>"), 20, "<version>9</version>");
  EXPECT_FALSE(delta::ParsePatchXml(bad).ok());
  // Version 1, whose digests hash the flat serialization.
  bad = good;
  bad.replace(bad.find("<version>2</version>"), 20, "<version>1</version>");
  EXPECT_FALSE(delta::ParsePatchXml(bad).ok());
  // Truncated digest.
  bad = good;
  bad.replace(bad.find(std::string(64, 'c')), 64, "c0ffee");
  EXPECT_FALSE(delta::ParsePatchXml(bad).ok());
  // Not XML at all.
  EXPECT_FALSE(delta::ParsePatchXml("op=insert").ok());
}

// ---- Tree diff -----------------------------------------------------------

TEST(TreeDiffTest, IdenticalTreesDiffEmpty) {
  auto a = CanonicalFromHtml(
      "<html><head><title>t</title></head><body><p>x</p></body></html>");
  auto b = a->Clone();
  EXPECT_TRUE(delta::DiffTrees(*a, *b->AsElement()).empty());
}

TEST(TreeDiffTest, CoFillIsASingleSetAttrOp) {
  // The Fig. 3 event-rewriting pass tags interactive elements with
  // data-rcb-id; a co-filled field must diff to one set-attr, not churn.
  auto base = CanonicalFromHtml(
      "<html><body><form data-rcb-id=\"0\">"
      "<input data-rcb-id=\"1\" name=\"q\" value=\"\">"
      "</form></body></html>");
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  target->FindFirst("input")->SetAttribute("value", "macbook air");

  std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kSetAttr);
  EXPECT_EQ(ops[0].name, "value");
  EXPECT_EQ(ops[0].value, "macbook air");
}

TEST(TreeDiffTest, TextEditIsASingleSetTextOp) {
  auto base = CanonicalFromHtml("<html><body><p>before</p></body></html>");
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("after"));

  std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kSetText);
  EXPECT_EQ(ops[0].value, "after");
}

// Handcrafted structural edits: the patched base must serialize identically
// to the target, and the op stream must survive the wire codec.
void ExpectDiffApplyRoundTrip(const Element& base, const Element& target) {
  std::vector<delta::PatchOp> ops = delta::DiffTrees(base, target);
  auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, ops);

  std::unique_ptr<Node> patched_owned = base.Clone();
  Element* patched = patched_owned->AsElement();
  Status status = delta::ApplyPatchOps(patched, ops);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(SerializeNode(*patched), SerializeNode(target));
  EXPECT_EQ(delta::TreeDigest(*patched), delta::TreeDigest(target));
}

TEST(TreeDiffTest, StructuralEditsRoundTrip) {
  auto base = CanonicalFromHtml(
      "<html><head><title>t</title></head>"
      "<body><p id=\"a\">one</p><p id=\"b\">two</p><div><span>deep</span>"
      "</div></body></html>");

  {  // Insertion at the front and the back.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    body->InsertBefore(MakeElement("h1"), body->first_child());
    body->AppendChild(MakeElement("footer"));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Removal.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    body->RemoveChild(body->child_at(1));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Reorder (keyed move).
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    std::unique_ptr<Node> last = body->RemoveChild(body->last_child());
    body->InsertBefore(std::move(last), body->first_child());
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Tag change forces a replace.
    auto t = base->Clone();
    Element* body = t->AsElement()->FindFirst("body");
    auto article = MakeElement("article");
    article->AppendChild(MakeText("one"));
    body->RemoveChild(body->first_child());
    body->InsertBefore(std::move(article), body->first_child());
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Nested edit under an unchanged parent chain.
    auto t = base->Clone();
    Element* span = t->AsElement()->FindFirst("span");
    span->SetAttribute("class", "hot");
    span->RemoveAllChildren();
    span->AppendChild(MakeText("deeper"));
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
  {  // Attribute removal.
    auto t = base->Clone();
    t->AsElement()->FindFirst("p")->RemoveAttribute("id");
    ExpectDiffApplyRoundTrip(*base, *t->AsElement());
  }
}

TEST(TreeDiffTest, AttributeReorderStillConverges) {
  // SetAttribute keeps the position of existing names, so a reordered
  // attribute list cannot be reached by set/remove-attr ops; the differ must
  // fall back to replacing the element — and still converge.
  auto base = CanonicalFromHtml(
      "<html><body><input data-rcb-id=\"0\" name=\"q\" value=\"x\">"
      "</body></html>");
  auto target = CanonicalFromHtml(
      "<html><body><input value=\"x\" name=\"q\" data-rcb-id=\"0\">"
      "</body></html>");
  ExpectDiffApplyRoundTrip(*base, *target);
}

// ---- Randomized corpus property: apply(diff(A, B), A) == B ---------------

void CollectTexts(Node* node, std::vector<Text*>* out) {
  for (const auto& child : node->children()) {
    if (child->type() == NodeType::kText) {
      out->push_back(static_cast<Text*>(child.get()));
    }
    CollectTexts(child.get(), out);
  }
}

void MutateTreeOnce(Rng* rng, Element* root) {
  std::vector<Element*> elements{root};
  root->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  Element* victim = elements[rng->NextBelow(elements.size())];
  switch (rng->NextBelow(6)) {
    case 0:  // set or add an attribute
      if (victim != root) {
        victim->SetAttribute("data-m" + std::to_string(rng->NextBelow(3)),
                             "v" + std::to_string(rng->NextBelow(100)));
      }
      break;
    case 1:  // remove an attribute (possibly the identity key)
      if (victim != root && !victim->attributes().empty()) {
        victim->RemoveAttribute(
            victim->attributes()[rng->NextBelow(victim->attributes().size())]
                .first);
      }
      break;
    case 2: {  // edit a text node
      std::vector<Text*> texts;
      CollectTexts(root, &texts);
      if (!texts.empty()) {
        texts[rng->NextBelow(texts.size())]->set_data(
            "edited " + std::to_string(rng->NextBelow(1000)));
      }
      break;
    }
    case 3: {  // insert a small subtree at a random position
      auto span = MakeElement("span");
      span->SetAttribute("class", "m" + std::to_string(rng->NextBelow(10)));
      span->AppendChild(MakeText("ins" + std::to_string(rng->NextBelow(100))));
      size_t slot = rng->NextBelow(victim->child_count() + 1);
      victim->InsertBefore(std::move(span), slot == victim->child_count()
                                                ? nullptr
                                                : victim->child_at(slot));
      break;
    }
    case 4:  // remove a random child
      if (victim->child_count() > 0) {
        victim->RemoveChild(
            victim->child_at(rng->NextBelow(victim->child_count())));
      }
      break;
    case 5:  // move a child to another slot
      if (victim->child_count() >= 2) {
        size_t from = rng->NextBelow(victim->child_count());
        std::unique_ptr<Node> moved = victim->RemoveChild(victim->child_at(from));
        size_t slot = rng->NextBelow(victim->child_count() + 1);
        victim->InsertBefore(std::move(moved), slot == victim->child_count()
                                                   ? nullptr
                                                   : victim->child_at(slot));
      }
      break;
  }
}

class CorpusDiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorpusDiffPropertyTest, RandomMutationsRoundTripOverTable1) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    GeneratedSite site = GenerateHomepage(spec);
    std::unique_ptr<Document> document = ParseDocument(site.html);
    std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
    ASSERT_NE(base, nullptr) << spec.name;

    std::unique_ptr<Node> target_owned = base->Clone();
    Element* target = target_owned->AsElement();
    for (int i = 0; i < 8; ++i) {
      MutateTreeOnce(&rng, target);
    }
    delta::NormalizeTextNodes(target);

    std::vector<delta::PatchOp> ops = delta::DiffTrees(*base, *target);
    auto decoded = delta::DecodePatchOps(delta::EncodePatchOps(ops));
    ASSERT_TRUE(decoded.ok()) << spec.name << ": " << decoded.status();
    ASSERT_EQ(*decoded, ops) << spec.name;

    std::unique_ptr<Node> patched_owned = base->Clone();
    Element* patched = patched_owned->AsElement();
    Status status = delta::ApplyPatchOps(patched, ops);
    ASSERT_TRUE(status.ok()) << spec.name << ": " << status;
    ASSERT_EQ(SerializeNode(*patched), SerializeNode(*target)) << spec.name;
    ASSERT_EQ(delta::TreeDigest(*patched), delta::TreeDigest(*target))
        << spec.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusDiffPropertyTest,
                         ::testing::Range<uint64_t>(1, 5));

// ---- Pruning keeps patches byte-identical --------------------------------

// The keyed differ as it was before subtree-hash pruning, kept verbatim as
// the oracle: the pruned DiffTrees must emit exactly the ops this one does.
namespace unpruned {
using delta::NodeKey;
using delta::PatchOp;
using delta::PatchOpType;

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

void DiffNodePair(const Node& base, const Node& target,
                  std::vector<uint32_t>* path, std::vector<PatchOp>* ops);

// Reconciles the children of one matched element pair: keyed LCS keeps the
// stable spine, leftovers are re-paired by key (moves) and then by tag
// (attribute-drifted elements), the rest become removals/insertions.
// Removals run in descending index order, then moves/insertions finalize
// positions left to right (so every move satisfies from >= to), and only
// then does the differ recurse into the matched pairs at their final
// indexes — keeping every emitted path valid at apply time.
void ReconcileChildren(const Element& base, const Element& target,
                       std::vector<uint32_t>* path, std::vector<PatchOp>* ops) {
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
    op.path = *path;
    op.index = static_cast<uint32_t>(i);
    ops->push_back(std::move(op));
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
        op.path = *path;
        op.from = static_cast<uint32_t>(p);
        op.to = static_cast<uint32_t>(j);
        ops->push_back(std::move(op));
        work.erase(work.begin() + static_cast<long>(p));
        work.insert(work.begin() + static_cast<long>(j), paired);
      }
    } else {
      PatchOp op;
      op.type = PatchOpType::kInsert;
      op.path = *path;
      op.index = static_cast<uint32_t>(j);
      op.html = SerializeNode(*target.child_at(j));
      ops->push_back(std::move(op));
      work.insert(work.begin() + static_cast<long>(j), -1);
    }
  }

  // Phase 3: recurse into matched pairs at their final positions.
  for (size_t j = 0; j < n; ++j) {
    int paired = pair_of_target[j];
    if (paired < 0) {
      continue;
    }
    path->push_back(static_cast<uint32_t>(j));
    DiffNodePair(*base.child_at(static_cast<size_t>(paired)),
                 *target.child_at(j), path, ops);
    path->pop_back();
  }
}

void DiffNodePair(const Node& base, const Node& target,
                  std::vector<uint32_t>* path, std::vector<PatchOp>* ops) {
  const Element* base_el = base.AsElement();
  const Element* target_el = target.AsElement();
  if (base_el != nullptr && target_el != nullptr) {
    if (base_el->tag_name() != target_el->tag_name() ||
        !AttributeOrderCompatible(*base_el, *target_el)) {
      // Same data-rcb-id can land on a different element across generations;
      // attribute reordering cannot be expressed with set-attr ops. Both are
      // rare — replace the subtree wholesale.
      EmitReplace(target, *path, ops);
      return;
    }
    DiffAttributes(*base_el, *target_el, *path, ops);
    ReconcileChildren(*base_el, *target_el, path, ops);
    return;
  }
  if (base.type() == NodeType::kText && target.type() == NodeType::kText) {
    const auto& base_text = static_cast<const Text&>(base);
    const auto& target_text = static_cast<const Text&>(target);
    if (base_text.data() != target_text.data()) {
      PatchOp op;
      op.type = PatchOpType::kSetText;
      op.path = *path;
      op.value = target_text.data();
      ops->push_back(std::move(op));
    }
    return;
  }
  // Comment / doctype pairs: replace when their serialization differs.
  if (SerializeNode(base) != SerializeNode(target)) {
    EmitReplace(target, *path, ops);
  }
}

std::vector<PatchOp> DiffTrees(const Element& base, const Element& target) {
  std::vector<PatchOp> ops;
  std::vector<uint32_t> path;
  DiffNodePair(base, target, &path, &ops);
  return ops;
}

}  // namespace unpruned

// MutateTreeOnce plus subtree duplication, which puts hash-equal siblings at
// shifted positions.
void MutateOrDuplicate(Rng* rng, Element* root) {
  if (rng->NextBelow(5) != 0) {
    MutateTreeOnce(rng, root);
    return;
  }
  std::vector<Element*> parents;
  root->ForEachElement([&](Element* element) {
    if (element->child_count() > 0) {
      parents.push_back(element);
    }
    return true;
  });
  if (parents.empty()) {
    return;
  }
  Element* parent = parents[rng->NextBelow(parents.size())];
  Node* source = parent->child_at(rng->NextBelow(parent->child_count()));
  size_t slot = rng->NextBelow(parent->child_count() + 1);
  parent->InsertBefore(source->Clone(), slot == parent->child_count()
                                            ? nullptr
                                            : parent->child_at(slot));
}

class PrunedDiffIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunedDiffIdentityTest, PatchBytesMatchUnprunedDifferOverTable1) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Document> document =
        ParseDocument(GenerateHomepage(spec).html);
    std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
    ASSERT_NE(base, nullptr) << spec.name;
    const delta::TreeHashes base_hashes = delta::HashTree(*base);
    for (int mutations : {1, 3, 10}) {
      std::unique_ptr<Node> target_owned = base->Clone();
      Element* target = target_owned->AsElement();
      for (int i = 0; i < mutations; ++i) {
        MutateOrDuplicate(&rng, target);
      }
      delta::NormalizeTextNodes(target);

      delta::PatchEnvelope pruned, reference;
      pruned.patch.ops = delta::DiffTrees(*base, base_hashes, *target,
                                          delta::HashTree(*target));
      reference.patch.ops = unpruned::DiffTrees(*base, *target);
      ASSERT_EQ(delta::SerializePatchXml(pruned),
                delta::SerializePatchXml(reference))
          << spec.name << " after " << mutations << " mutations";
      ASSERT_EQ(delta::DiffTrees(*base, *target), reference.patch.ops)
          << spec.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedDiffIdentityTest,
                         ::testing::Range<uint64_t>(1, 9));

// ReorderChildren builds its LCS table over the middle between the common
// key prefix and suffix only. Child lists over a four-key alphabet (text
// nodes share one key, so do equal elements) make the greedy walk's ties
// and a suffix key that recurs in the middle common; the ops must still be
// the full table's.
TEST(TreeDiffTest, TrimmedLcsMatchesTheFullTableOnRepeatedKeys) {
  Rng rng(7);
  auto random_child = [&rng]() -> std::unique_ptr<Node> {
    switch (rng.NextBelow(4)) {
      case 0:
        return MakeText("t" + std::to_string(rng.NextBelow(3)));
      case 1:
        return MakeElement("b");
      case 2:
        return MakeElement("i");
      default: {
        auto em = MakeElement("em");
        em->AppendChild(MakeText("x" + std::to_string(rng.NextBelow(2))));
        return em;
      }
    }
  };
  for (int round = 0; round < 400; ++round) {
    auto base = MakeElement("html");
    Element* base_list = base->AppendChild(MakeElement("body"))->AsElement();
    const size_t count = rng.NextBelow(9);
    for (size_t i = 0; i < count; ++i) {
      base_list->AppendChild(random_child());
    }
    std::unique_ptr<Node> target_owned = base->Clone();
    Element* target_list =
        target_owned->AsElement()->ChildByTag("body");
    for (size_t edits = 1 + rng.NextBelow(3); edits > 0; --edits) {
      if (target_list->child_count() > 0 && rng.NextBelow(2) == 0) {
        target_list->RemoveChild(
            target_list->child_at(rng.NextBelow(target_list->child_count())));
      } else {
        target_list->InsertChildAt(
            rng.NextBelow(target_list->child_count() + 1), random_child());
      }
    }
    const Element& target = *target_owned->AsElement();
    ASSERT_EQ(delta::DiffTrees(*base, target),
              unpruned::DiffTrees(*base, target))
        << SerializeNode(*base) << " -> " << SerializeNode(target);
  }
}

// One sibling insert into a very wide list: the LCS table spans the one
// new child instead of (m+1)x(n+1) cells, and the diff is one insert.
TEST(TreeDiffTest, WideSiblingInsertIsOneInsertOp) {
  constexpr size_t kChildren = 20'000;
  auto base = MakeElement("html");
  base->AppendChild(MakeElement("head"));
  Element* list = base->AppendChild(MakeElement("body"))
                      ->AppendChild(MakeElement("ul"))
                      ->AsElement();
  for (size_t i = 0; i < kChildren; ++i) {
    auto item = MakeElement("li");
    item->SetAttribute("data-k", std::to_string(i));
    list->AppendChild(std::move(item));
  }
  std::unique_ptr<Node> target = base->Clone();
  auto inserted = MakeElement("li");
  inserted->SetAttribute("data-k", "new");
  target->AsElement()->FindFirst("ul")->InsertChildAt(kChildren / 2,
                                                      std::move(inserted));
  const std::vector<delta::PatchOp> ops =
      delta::DiffTrees(*base, *target->AsElement());
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].type, delta::PatchOpType::kInsert);
  EXPECT_EQ(ops[0].path, (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(ops[0].index, kChildren / 2);
}

// ---- Integrity-checked applier -------------------------------------------

constexpr std::string_view kApplierPage =
    "<html><head><title>A</title></head>"
    "<body><p id=\"p\">v1</p><div id=\"d\">stable</div></body></html>";

TEST(PatchApplierTest, FreshnessAndIntegrityGates) {
  std::unique_ptr<Document> document = ParseDocument(kApplierPage);
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("v2"));

  // Stale target (not newer than current): ignored, no resync.
  delta::Patch stale = MakePatch(*base, *target, 500, 1000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, stale),
            delta::ApplyResult::kStaleIgnored);
  EXPECT_FALSE(delta::NeedsResync(delta::ApplyResult::kStaleIgnored));

  // Base version mismatch: out-of-order patch must never apply.
  delta::Patch wrong_base = MakePatch(*base, *target, 900, 2000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, wrong_base),
            delta::ApplyResult::kBaseTimeMismatch);
  EXPECT_TRUE(delta::NeedsResync(delta::ApplyResult::kBaseTimeMismatch));

  // Base digest mismatch: the live document drifted from what the patch
  // expects.
  delta::Patch bad_base_digest = MakePatch(*base, *target, 1000, 2000);
  bad_base_digest.base_digest = std::string(64, '0');
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, bad_base_digest),
            delta::ApplyResult::kBaseDigestMismatch);

  // Target digest mismatch: ops applied cleanly but the result is not what
  // the agent promised — never commit.
  delta::Patch bad_target_digest = MakePatch(*base, *target, 1000, 2000);
  bad_target_digest.target_digest = std::string(64, '0');
  EXPECT_EQ(
      delta::ApplyPatchToDocument(document.get(), 1000, bad_target_digest),
      delta::ApplyResult::kTargetDigestMismatch);

  // Structurally invalid op list.
  delta::Patch broken = MakePatch(*base, *target, 1000, 2000);
  delta::PatchOp bogus;
  bogus.type = delta::PatchOpType::kRemove;
  bogus.path = {99};
  broken.ops.push_back(bogus);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, broken),
            delta::ApplyResult::kApplyError);

  // None of the rejected patches touched the live document.
  EXPECT_EQ(document->ById("p")->TextContent(), "v1");

  // The genuine patch commits and the live document digests to the target.
  delta::Patch good = MakePatch(*base, *target, 1000, 2000);
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, good),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(document->ById("p")->TextContent(), "v2");
  std::unique_ptr<Element> live = delta::CanonicalizeDocument(*document);
  EXPECT_EQ(delta::TreeDigest(*live), good.target_digest);
}

TEST(PatchApplierTest, OutOfOrderOverlappingPatches) {
  std::unique_ptr<Document> document = ParseDocument(kApplierPage);
  std::unique_ptr<Element> v1 = delta::CanonicalizeDocument(*document);

  auto v2_owned = v1->Clone();
  Element* v2 = v2_owned->AsElement();
  Element* p = v2->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("second"));

  auto v3_owned = v1->Clone();
  Element* v3 = v3_owned->AsElement();
  v3->FindFirst("div")->SetAttribute("class", "third");

  delta::Patch p12 = MakePatch(*v1, *v2, 1000, 2000);
  delta::Patch p13 = MakePatch(*v1, *v3, 1000, 3000);

  // Normal delivery of v1 -> v2.
  ASSERT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, p12),
            delta::ApplyResult::kApplied);
  // Duplicate delivery: stale, ignored, no resync.
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 2000, p12),
            delta::ApplyResult::kStaleIgnored);
  // Overlapping patch built from the superseded base: newer target, but the
  // base no longer matches — it must be refused, not merged.
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 2000, p13),
            delta::ApplyResult::kBaseTimeMismatch);
  EXPECT_EQ(document->ById("p")->TextContent(), "second");
  EXPECT_EQ(document->ById("d")->AttrOr("class"), "");
}

TEST(PatchApplierTest, CommitPreservesSnippetBootstrapScript) {
  std::unique_ptr<Document> document = ParseDocument(
      "<html><head><script id=\"rcb-snippet\">/*boot*/</script>"
      "<title>A</title></head><body><p id=\"p\">v1</p></body></html>");
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  auto target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  Element* p = target->FindFirst("p");
  p->RemoveAllChildren();
  p->AppendChild(MakeText("v2"));

  ASSERT_EQ(delta::ApplyPatchToDocument(document.get(), 1000,
                                        MakePatch(*base, *target, 1000, 2000)),
            delta::ApplyResult::kApplied);
  // The Fig. 5 contract: the snippet survives every content apply.
  Element* script = document->ById("rcb-snippet");
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->parent(), document->head());
  EXPECT_EQ(document->ById("p")->TextContent(), "v2");
}

std::string LiveDigest(const Document& document) {
  return delta::TreeDigest(*delta::CanonicalizeDocument(document));
}

// One malformed op per ApplyPatchOps reject (paths address the canonical
// tree of kApplierPage: {0} head, {1} body with 2 children, {1,0} p, {1,0,0}
// its text).
struct MalformedOpCase {
  const char* name;
  delta::PatchOp op;
};

std::vector<MalformedOpCase> MalformedOpCases() {
  std::vector<MalformedOpCase> cases;
  // Returns the op just added, valid until the next call.
  auto add = [&](const char* name, delta::PatchOpType type,
                 std::vector<uint32_t> path, std::string html = "") {
    delta::PatchOp op;
    op.type = type;
    op.path = std::move(path);
    op.html = std::move(html);
    cases.push_back({name, std::move(op)});
    return &cases.back().op;
  };
  using enum delta::PatchOpType;
  add("insert index out of range", kInsert, {1}, "<p>x</p>")->index = 3;
  add("insert parent out of range", kInsert, {7}, "<p>x</p>");
  add("remove index out of range", kRemove, {1})->index = 2;
  add("remove parent out of range", kRemove, {1, 9});
  add("move from out of range", kMove, {1})->from = 2;
  delta::PatchOp* move = add("move to out of range", kMove, {1});
  move->from = 1;
  move->to = 2;
  add("replace of the root", kReplace, {}, "<html></html>");
  add("replace path out of range", kReplace, {1, 5}, "<p>x</p>");
  add("set-attr on a text node", kSetAttr, {1, 0, 0})->name = "class";
  add("remove-attr on a text node", kRemoveAttr, {1, 0, 0})->name = "id";
  add("set-text on an element", kSetText, {1, 0});
  add("insert payload of two nodes", kInsert, {1}, "<p>a</p><p>b</p>");
  add("insert payload of no node", kInsert, {1}, "");
  add("replace payload of two nodes", kReplace, {1, 0}, "<p>a</p><p>b</p>");
  return cases;
}

// Every node of `root`'s subtree, in pre-order.
std::vector<const Node*> PreOrder(const Node& root) {
  std::vector<const Node*> out{&root};
  for (const auto& child : root.children()) {
    std::vector<const Node*> below = PreOrder(*child);
    out.insert(out.end(), below.begin(), below.end());
  }
  return out;
}

// Valid ops on kApplierPage that leave its shape as it was (an insert and
// the remove of the same node, a set-text, a set-attr), so a malformed op
// after them addresses what it would address alone.
std::vector<delta::PatchOp> ShapePreservingOps() {
  using enum delta::PatchOpType;
  std::vector<delta::PatchOp> ops(4);
  ops[0].type = kInsert;
  ops[0].path = {1};
  ops[0].html = "<hr>";
  ops[1].type = kRemove;
  ops[1].path = {1};
  ops[2].type = kSetText;
  ops[2].path = {1, 0, 0};
  ops[2].value = "changed";
  ops[3].type = kSetAttr;
  ops[3].path = {1, 1};
  ops[3].name = "class";
  ops[3].value = "x";
  return ops;
}

TEST(PatchApplierTest, EveryMalformedOpIsAnApplyErrorAndLeavesTheDocument) {
  for (const MalformedOpCase& c : MalformedOpCases()) {
    // Alone, and last after valid ops whose mutations must be rolled back.
    for (size_t prefix : {size_t{0}, size_t{2}, size_t{4}}) {
      std::unique_ptr<Document> document = ParseDocument(kApplierPage);
      const std::string before = LiveDigest(*document);
      const std::vector<const Node*> nodes = PreOrder(*document);
      delta::Patch patch;
      patch.base_doc_time_ms = 1000;
      patch.target_doc_time_ms = 2000;
      patch.base_digest = before;
      patch.target_digest = before;
      patch.ops = ShapePreservingOps();
      patch.ops.resize(prefix);
      patch.ops.push_back(c.op);
      EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, patch),
                delta::ApplyResult::kApplyError)
          << c.name << " after " << prefix;
      EXPECT_EQ(LiveDigest(*document), before) << c.name << " after " << prefix;
      EXPECT_EQ(PreOrder(*document), nodes) << c.name << " after " << prefix;
    }
  }
}

// A patch that fails at its third op, and one whose ops apply but whose
// target digest is corrupted: both roll back to the byte-identical
// document, every node where it was.
TEST(PatchApplierTest, RefusedPatchRollsBackInPlace) {
  std::unique_ptr<Document> document = ParseDocument(
      "<html><head><script id=\"rcb-snippet\"></script><title>A</title>"
      "</head><body><p id=\"p\">v1</p><div id=\"d\"><i>x</i></div>"
      "<ul><li>1</li><li>2</li></ul></body></html>");
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  std::unique_ptr<Node> target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  target->FindFirst("p")->SetAttribute("class", "new");
  Element* div = target->FindFirst("div");
  div->RemoveChild(div->first_child());
  div->AppendChild(MakeText("replaced"));
  target->FindFirst("ul")->InsertChildAt(1, MakeElement("li"));
  target->ChildByTag("head")->AppendChild(MakeElement("meta"));
  const delta::Patch good = MakePatch(*base, *target, 1000, 2000);
  ASSERT_GE(good.ops.size(), 3u);

  const std::string before = SerializeNode(*delta::CanonicalizeDocument(*document));
  const std::vector<const Node*> nodes = PreOrder(*document);
  delta::CanonicalMemo memo;

  delta::Patch third_fails = good;
  third_fails.ops.resize(2);
  delta::PatchOp bogus;
  bogus.type = delta::PatchOpType::kRemove;
  bogus.path = {1, 9};
  third_fails.ops.push_back(bogus);
  EXPECT_EQ(
      delta::ApplyPatchToDocument(document.get(), 1000, third_fails, &memo),
      delta::ApplyResult::kApplyError);
  EXPECT_EQ(SerializeNode(*delta::CanonicalizeDocument(*document)), before);
  EXPECT_EQ(PreOrder(*document), nodes);

  delta::Patch corrupted = good;
  corrupted.target_digest = std::string(64, '0');
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, corrupted, &memo),
            delta::ApplyResult::kTargetDigestMismatch);
  EXPECT_EQ(SerializeNode(*delta::CanonicalizeDocument(*document)), before);
  EXPECT_EQ(PreOrder(*document), nodes);

  // The memo followed the rollbacks: the genuine patch still verifies.
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, good, &memo),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(LiveDigest(*document), good.target_digest);
  EXPECT_EQ(document->ById("rcb-snippet")->parent(), document->head());
}

// Three versions of kApplierPage and the patches between them.
struct MemoFixture {
  std::unique_ptr<Document> document = ParseDocument(kApplierPage);
  std::unique_ptr<Element> v1 = delta::CanonicalizeDocument(*document);
  std::unique_ptr<Node> v2 = v1->Clone();
  std::unique_ptr<Node> v3;
  delta::Patch p12;
  delta::Patch p23;
  delta::CanonicalMemo memo;

  MemoFixture() {
    Element* p = v2->AsElement()->FindFirst("p");
    p->RemoveAllChildren();
    p->AppendChild(MakeText("v2"));
    v3 = v2->Clone();
    v3->AsElement()->FindFirst("div")->SetAttribute("class", "third");
    p12 = MakePatch(*v1, *v2->AsElement(), 1000, 2000);
    p23 = MakePatch(*v2->AsElement(), *v3->AsElement(), 2000, 3000);
  }
};

TEST(PatchApplierTest, MemoAnswersTheBaseDigestGateAfterACommit) {
  MemoFixture f;
  // The first patch finds no memo and digests the live tree.
  ASSERT_EQ(delta::ApplyPatchToDocument(f.document.get(), 1000, f.p12, &f.memo),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(f.memo.hits(), 0u);
  EXPECT_EQ(f.memo.digest(), f.p12.target_digest);

  // A memo hit with a wrong base digest is refused like a recomputed one.
  delta::Patch wrong = f.p23;
  wrong.base_digest = std::string(64, '0');
  EXPECT_EQ(delta::ApplyPatchToDocument(f.document.get(), 2000, wrong, &f.memo),
            delta::ApplyResult::kBaseDigestMismatch);
  EXPECT_EQ(f.memo.hits(), 1u);

  // A memo hit with the matching base digest applies and re-records.
  EXPECT_EQ(delta::ApplyPatchToDocument(f.document.get(), 2000, f.p23, &f.memo),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(f.memo.hits(), 2u);
  EXPECT_EQ(f.memo.digest(), f.p23.target_digest);
  EXPECT_EQ(LiveDigest(*f.document), f.p23.target_digest);
}

TEST(PatchApplierTest, MutationOutsideTheSnippetMissesTheMemo) {
  {  // Drift in the canonical content: the recomputed digest catches it.
    MemoFixture f;
    ASSERT_EQ(
        delta::ApplyPatchToDocument(f.document.get(), 1000, f.p12, &f.memo),
        delta::ApplyResult::kApplied);
    f.document->body()->AppendChild(MakeText("local drift"));
    EXPECT_EQ(
        delta::ApplyPatchToDocument(f.document.get(), 2000, f.p23, &f.memo),
        delta::ApplyResult::kBaseDigestMismatch);
    EXPECT_EQ(f.memo.hits(), 0u);
  }
  {  // A mutation outside the canonical view still misses the memo, and the
     // fresh digest matches.
    MemoFixture f;
    ASSERT_EQ(
        delta::ApplyPatchToDocument(f.document.get(), 1000, f.p12, &f.memo),
        delta::ApplyResult::kApplied);
    f.document->document_element()->SetAttribute("lang", "en");
    EXPECT_EQ(
        delta::ApplyPatchToDocument(f.document.get(), 2000, f.p23, &f.memo),
        delta::ApplyResult::kApplied);
    EXPECT_EQ(f.memo.hits(), 0u);
    EXPECT_EQ(f.memo.digest(), f.p23.target_digest);
  }
}

TEST(PatchApplierTest, PatchTheLiveViewCannotHoldIsRefused) {
  // Each target verifies against its own digest, but the live document's
  // canonical view cannot take its shape: the ops land outside the view (or
  // reorder what the view orders by tag), so gate 5 or the op engine refuses
  // the patch and the rollback leaves the document as it was.
  const std::pair<const char*, std::function<void(Element*)>> shapes[] = {
      {"top-level element",
       [](Element* root) { root->AppendChild(MakeElement("aside")); }},
      {"top-level text",
       [](Element* root) { root->AppendChild(MakeText("stray")); }},
      {"root attribute",
       [](Element* root) { root->SetAttribute("lang", "en"); }},
      {"head attribute",
       [](Element* root) { root->ChildByTag("head")->SetAttribute("id", "h"); }},
      {"bootstrap script in head",
       [](Element* root) {
         auto script = MakeElement("script");
         script->SetAttribute("id", "rcb-snippet");
         root->ChildByTag("head")->AppendChild(std::move(script));
       }},
      {"body before head",
       [](Element* root) {
         root->InsertBefore(root->ChildByTag("body")->Detach(),
                            root->first_child());
       }},
  };
  for (const auto& [name, reshape] : shapes) {
    MemoFixture f;
    const std::string before = LiveDigest(*f.document);
    const Element* body = f.document->body();
    auto odd_owned = f.v1->Clone();
    Element* odd = odd_owned->AsElement();
    reshape(odd);
    delta::Patch patch = MakePatch(*f.v1, *odd, 1000, 2000);
    EXPECT_TRUE(delta::NeedsResync(delta::ApplyPatchToDocument(
        f.document.get(), 1000, patch, &f.memo)))
        << name;
    EXPECT_EQ(LiveDigest(*f.document), before) << name;
    EXPECT_EQ(f.document->body(), body) << name;
  }
}

TEST(PatchApplierTest, HeadlessDocumentAppliesABodyPatch) {
  // A live document without a <head>: its canonical view still holds an
  // empty head at index 0, so a body op addresses path [1] on both sides.
  std::unique_ptr<Document> document =
      ParseDocument("<html><head></head><body><p>x</p></body></html>");
  Element* root = document->document_element();
  root->RemoveChild(root->ChildByTag("head"));
  ASSERT_EQ(root->ChildByTag("head"), nullptr);
  std::unique_ptr<Element> base = delta::CanonicalizeDocument(*document);
  std::unique_ptr<Node> target_owned = base->Clone();
  Element* target = target_owned->AsElement();
  target->ChildByTag("body")->SetAttribute("class", "b");
  delta::Patch patch = MakePatch(*base, *target, 1000, 2000);
  ASSERT_EQ(patch.ops.size(), 1u);
  ASSERT_EQ(patch.ops[0].path, (std::vector<uint32_t>{1}));
  EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, patch),
            delta::ApplyResult::kApplied);
  EXPECT_EQ(LiveDigest(*document), patch.target_digest);
  EXPECT_EQ(document->body()->AttrOr("class"), "b");
}

TEST(PatchApplierTest, HeadlessDocumentRefusesOpsOnTheMissingHead) {
  // The view's head of a head-less document is empty and has no live node:
  // ops into it, or that remove or move it, are refused and rolled back; an
  // insert before it lands at the front of the root.
  std::unique_ptr<Document> document =
      ParseDocument("<html><head></head><body><p>x</p></body></html>");
  Element* root = document->document_element();
  root->RemoveChild(root->ChildByTag("head"));
  const std::string base_digest = LiveDigest(*document);
  auto op = [](delta::PatchOpType type, std::vector<uint32_t> path) {
    delta::PatchOp out;
    out.type = type;
    out.path = std::move(path);
    out.html = "<meta>";
    return out;
  };
  delta::PatchOp move = op(delta::PatchOpType::kMove, {});
  move.to = 1;
  const std::pair<delta::PatchOp, delta::ApplyResult> cases[] = {
      {op(delta::PatchOpType::kInsert, {0}), delta::ApplyResult::kApplyError},
      {op(delta::PatchOpType::kRemove, {}), delta::ApplyResult::kApplyError},
      {move, delta::ApplyResult::kApplyError},
      {op(delta::PatchOpType::kInsert, {}),
       delta::ApplyResult::kTargetDigestMismatch},
  };
  for (const auto& [patch_op, result] : cases) {
    delta::Patch patch;
    patch.base_doc_time_ms = 1000;
    patch.target_doc_time_ms = 2000;
    patch.base_digest = base_digest;
    patch.target_digest = std::string(64, 'f');
    patch.ops = {patch_op};
    EXPECT_EQ(delta::ApplyPatchToDocument(document.get(), 1000, patch), result)
        << delta::SummarizeOps(patch.ops);
    EXPECT_EQ(LiveDigest(*document), base_digest);
    EXPECT_EQ(root->child_count(), 1u);
  }
}

// ---- End-to-end sessions -------------------------------------------------

std::string DeltaTestPage() {
  std::string page =
      "<html><head><title>Delta</title></head><body>"
      "<p id=\"status\">v1</p>"
      "<form id=\"f\" action=\"/s\" method=\"post\">"
      "<input name=\"q\" value=\"\"></form>";
  for (int i = 0; i < 40; ++i) {
    page += "<p>filler paragraph " + std::to_string(i) +
            " keeps the snapshot large enough that a one-op patch clears the "
            "size cutoff</p>";
  }
  page += "</body></html>";
  return page;
}

class DeltaSessionTest : public ::testing::Test {
 protected:
  DeltaSessionTest() : network_(&loop_) {}

  void StartSession(SessionOptions options) {
    network_.AddHost("delta.test",
                     {.uplink_bps = 10'000'000, .downlink_bps = 0});
    site_ = std::make_unique<SiteServer>(&loop_, &network_, "delta.test");
    site_->ServeStatic("/", "text/html", DeltaTestPage());
    session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
    ASSERT_TRUE(session_->Start().ok());
    auto stats =
        session_->CoNavigate(Url::Make("http", "delta.test", 80, "/"));
    ASSERT_TRUE(stats.ok()) << stats.status();
  }

  void HostSetStatus(const std::string& text) {
    session_->host_browser()->MutateDocument([&](Document* document) {
      Element* status = document->ById("status");
      status->RemoveAllChildren();
      status->AppendChild(MakeText(text));
    });
  }

  // Canonical digest of the host's rewritten snapshot: what every
  // participant's document must reduce to at quiescence.
  std::string HostDigest() {
    ContentGenerator generator(session_->host_browser());
    ContentGenOptions options;
    options.cache_mode = true;
    options.agent_url = session_->agent()->AgentUrl();
    GenerationResult result = generator.Generate(0, options);
    return delta::TreeDigest(*MaterializeSnapshotTree(result.snapshot));
  }

  std::string ParticipantDigest(size_t i) {
    std::unique_ptr<Element> canonical = delta::CanonicalizeDocument(
        *session_->participant_browser(i)->document());
    return canonical == nullptr ? std::string() : delta::TreeDigest(*canonical);
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
  std::unique_ptr<CoBrowsingSession> session_;
};

TEST_F(DeltaSessionTest, SmallUpdatesTravelAsPatches) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);

  for (int round = 2; round <= 4; ++round) {
    HostSetStatus("v" + std::to_string(round));
    ASSERT_TRUE(session_->WaitForSync().ok());
    EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                  ->TextContent(),
              "v" + std::to_string(round));
  }
  const AgentMetrics& agent = session_->agent()->metrics();
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  EXPECT_EQ(agent.patches_served, 3u);
  EXPECT_EQ(snippet.patches_applied, 3u);
  EXPECT_EQ(snippet.patch_digest_mismatches, 0u);
  EXPECT_EQ(snippet.patch_apply_errors, 0u);
  // The point of the subsystem: patches are much smaller than the snapshots
  // they replace.
  EXPECT_LT(agent.patch_bytes_sent * 3, agent.patch_snapshot_bytes);
  // The host's live stage histograms saw every stage: a materialize and a
  // digest per generation and a diff per patch.
  const obs::MetricsRegistry& host = session_->agent()->metrics_registry();
  for (const char* stage : {"materialize", "digest"}) {
    const obs::Histogram* hist = host.FindHistogram(
        "rcb_agent_delta_stage_us", StrFormat("stage=\"%s\"", stage));
    ASSERT_NE(hist, nullptr) << stage;
    EXPECT_EQ(hist->count(), agent.generations) << stage;
  }
  EXPECT_EQ(host.FindHistogram("rcb_agent_delta_stage_us", "stage=\"diff\"")
                ->count(),
            3u);
}

TEST_F(DeltaSessionTest, TamperedParticipantDomForcesFullResync) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);

  // The participant's live DOM drifts (anything outside the protocol: a
  // browser extension, a script, a bug). The next patch's base digest no
  // longer matches, so it must be refused and a full snapshot requested.
  session_->participant_browser(0)->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("local drift"));
  });
  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());

  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  EXPECT_GE(snippet.patch_digest_mismatches, 1u);
  EXPECT_GE(snippet.resyncs, 1u);
  EXPECT_EQ(snippet.patch_apply_errors, 0u);
  // Converged via the fallback: the drift is gone, the content is current.
  EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                ->TextContent(),
            "v2");
}

TEST_F(DeltaSessionTest, FullSnapshotApplyInvalidatesTheDigestMemo) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);
  const delta::CanonicalMemo& memo = session_->snippet(0)->patch_digest_memo();

  // The first patch follows the initial full snapshot and digests the live
  // tree; the second finds the first one's record.
  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());
  HostSetStatus("v3");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_FALSE(memo.digest().empty());

  // Local drift misses the memo, the patch is refused, and a full snapshot
  // resyncs the participant.
  session_->participant_browser(0)->MutateDocument([](Document* document) {
    document->body()->AppendChild(MakeText("local drift"));
  });
  HostSetStatus("v4");
  ASSERT_TRUE(session_->WaitForSync().ok());
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  EXPECT_EQ(snippet.resyncs, 1u);
  EXPECT_EQ(memo.hits(), 1u);

  // Patching resumes: the snapshot apply changed the document, so the first
  // patch after it digests afresh; the next one hits the memo again.
  HostSetStatus("v5");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(memo.hits(), 1u);
  HostSetStatus("v6");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(memo.hits(), 2u);
  EXPECT_EQ(snippet.patches_applied, 4u);
  EXPECT_EQ(snippet.patch_digest_mismatches, 1u);
  EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                ->TextContent(),
            "v6");
}

TEST_F(DeltaSessionTest, CoFillPatchesPeersAndResyncsTheFiller) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.participant_count = 2;
  options.enable_delta = true;
  StartSession(options);

  // Participant 0 co-fills; the local echo makes their DOM diverge from the
  // acked base, so they deterministically resync, while participant 1's
  // clean DOM receives the change as a patch.
  Browser* filler = session_->participant_browser(0);
  Element* form = filler->document()->ById("f");
  ASSERT_NE(form, nullptr);
  ASSERT_TRUE(session_->snippet(0)->FillFormField(form, "q", "hello").ok());
  session_->snippet(0)->PollNow();

  auto field_value = [](Browser* browser) {
    Element* form = browser->document()->ById("f");
    std::string value;
    form->ForEachElement([&](Element* element) {
      if (element->AttrOr("name") == "q") {
        value = element->AttrOr("value");
        return false;
      }
      return true;
    });
    return value;
  };
  // The action has to travel to the host, mutate the document there, and
  // come back around the poll loop — wait on the observed state, not on
  // WaitForSync (which is satisfied before the action even arrives).
  loop_.RunUntilCondition([&] {
    return field_value(session_->participant_browser(1)) == "hello" &&
           session_->snippet(0)->metrics().resyncs >= 1;
  });
  EXPECT_EQ(field_value(session_->participant_browser(0)), "hello");
  EXPECT_EQ(field_value(session_->participant_browser(1)), "hello");
  EXPECT_GE(session_->snippet(1)->metrics().patches_applied, 1u);
  EXPECT_EQ(session_->snippet(1)->metrics().patch_digest_mismatches, 0u);
  EXPECT_GE(session_->snippet(0)->metrics().patch_digest_mismatches, 1u);
  EXPECT_GE(session_->snippet(0)->metrics().resyncs, 1u);
}

TEST_F(DeltaSessionTest, ParticipantPastTheHistoryWindowGetsAFullSnapshot) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);
  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());

  const AgentMetrics& agent = session_->agent()->metrics();
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  const uint64_t no_base = agent.patch_fallback_no_base;
  const uint64_t served = agent.patches_served;
  const uint64_t updates = snippet.content_updates;
  const uint64_t applied = snippet.patches_applied;
  // Two more versions than the history keeps are generated before the
  // participant polls again, so the version it acks has aged out.
  for (size_t i = 0; i < SnapshotBroadcast::kDeltaHistory + 2; ++i) {
    HostSetStatus("burst " + std::to_string(i));
    session_->agent()->CurrentSnapshotForTest();
  }
  ASSERT_TRUE(session_->WaitForSync().ok());

  EXPECT_EQ(agent.patch_fallback_no_base - no_base, 1u);
  EXPECT_EQ(agent.patches_served, served);
  EXPECT_EQ(snippet.content_updates - updates, 1u);
  EXPECT_EQ(snippet.patches_applied, applied);  // a full snapshot, not a patch
  EXPECT_EQ(snippet.patch_digest_mismatches, 0u);
  EXPECT_EQ(ParticipantDigest(0), HostDigest());
}

TEST_F(DeltaSessionTest, BodyRewriteOverTheSizeCutoffGetsAFullSnapshot) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  StartSession(options);

  const AgentMetrics& agent = session_->agent()->metrics();
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  const uint64_t oversize = agent.patch_fallback_oversize;
  const uint64_t served = agent.patches_served;
  const uint64_t updates = snippet.content_updates;
  const uint64_t applied = snippet.patches_applied;
  // Every body child is replaced: the patch has to carry the whole new body,
  // which is well over kPatchSizeCutoff of the snapshot.
  session_->host_browser()->MutateDocument([](Document* document) {
    Element* body = document->body();
    body->RemoveAllChildren();
    for (int i = 0; i < 40; ++i) {
      auto block = MakeElement("div");
      block->SetAttribute("class", "rewritten");
      block->AppendChild(MakeText("rewritten block " + std::to_string(i) +
                                  " shares no node with the page it replaces"));
      body->AppendChild(std::move(block));
    }
  });
  ASSERT_TRUE(session_->WaitForSync().ok());

  EXPECT_EQ(agent.patch_fallback_oversize - oversize, 1u);
  EXPECT_EQ(agent.patches_served, served);
  EXPECT_EQ(snippet.content_updates - updates, 1u);
  EXPECT_EQ(snippet.patches_applied, applied);  // a full snapshot, not a patch
  EXPECT_EQ(ParticipantDigest(0), HostDigest());
}

TEST_F(DeltaSessionTest, PatchCarriesPiggybackedPeerActions) {
  SessionOptions options;
  options.profile = LanProfile();
  // Slow polls: the peer's next poll comes long after both the document
  // change and the mouse move have reached the agent.
  options.poll_interval = Duration::Seconds(5.0);
  options.participant_count = 2;
  options.enable_delta = true;
  StartSession(options);
  ASSERT_TRUE(session_->WaitForSync().ok());

  const AgentMetrics& agent = session_->agent()->metrics();
  const SnippetMetrics& peer = session_->snippet(1)->metrics();
  const uint64_t served = agent.patches_served;
  const uint64_t peer_polls = peer.polls_sent;
  const uint64_t peer_patches = peer.patches_applied;
  const uint64_t peer_broadcasts = peer.broadcasts_received;
  uint64_t patches_when_moved = 0;
  int moves = 0;
  session_->snippet(1)->SetActionListener([&](const UserAction& action) {
    if (action.type == ActionType::kMouseMove) {
      ++moves;
      patches_when_moved = peer.patches_applied;
    }
  });

  HostSetStatus("v2");
  session_->snippet(0)->SendMouseMove(10, 20);
  session_->snippet(0)->PollNow();
  ASSERT_TRUE(loop_.RunUntilCondition(
      [&] { return peer.patches_applied > peer_patches; }));

  // One round trip delivered both: the mouse move was handled right before
  // the patch it rode in was applied.
  EXPECT_EQ(peer.polls_sent - peer_polls, 1u);
  EXPECT_EQ(peer.patches_applied - peer_patches, 1u);
  EXPECT_EQ(peer.broadcasts_received - peer_broadcasts, 1u);
  EXPECT_EQ(moves, 1);
  EXPECT_EQ(patches_when_moved, peer_patches);
  EXPECT_EQ(agent.patches_served - served, 2u);  // the mover's and the peer's
  EXPECT_EQ(ParticipantDigest(0), HostDigest());
  EXPECT_EQ(ParticipantDigest(1), HostDigest());
}

TEST_F(DeltaSessionTest, DeltaOffSessionNeverSeesPatches) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = false;
  StartSession(options);

  HostSetStatus("v2");
  ASSERT_TRUE(session_->WaitForSync().ok());
  EXPECT_EQ(session_->participant_browser(0)->document()->ById("status")
                ->TextContent(),
            "v2");
  EXPECT_EQ(session_->agent()->metrics().patches_served, 0u);
  EXPECT_EQ(session_->snippet(0)->metrics().patches_applied, 0u);
}

// ---- In place against the oracles, over the Table 1 corpus --------------

// One step of a seeded edit schedule over a live page. Kinds: 0 text edit,
// 1 co-fill (an input's value), 2 attribute change, 3 sibling insert,
// 4 sibling remove, 5 whole-body rewrite (to `rewrite`), 6 no-op.
void EditPage(Rng* rng, Document* document, int kind,
              const std::string& rewrite) {
  Element* body = document->body();
  std::vector<Element*> elements{body};
  body->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  Element* victim = elements[rng->NextBelow(elements.size())];
  const std::string stamp = std::to_string(rng->NextBelow(1'000'000));
  switch (kind) {
    case 0: {
      std::vector<Text*> texts;
      CollectTexts(body, &texts);
      if (!texts.empty()) {
        Text* text = texts[rng->NextBelow(texts.size())];
        text->set_data(text->data() + " edit " + stamp);
      }
      break;
    }
    case 1: {
      std::vector<Element*> inputs = body->FindAll("input");
      Element* field = inputs.empty() ? victim
                                      : inputs[rng->NextBelow(inputs.size())];
      field->SetAttribute("value", "typed " + stamp);
      break;
    }
    case 2:
      victim->SetAttribute("class", "c" + stamp);
      break;
    case 3: {
      auto span = MakeElement("span");
      span->AppendChild(MakeText("new " + stamp));
      victim->InsertChildAt(rng->NextBelow(victim->child_count() + 1),
                            std::move(span));
      break;
    }
    case 4:
      if (victim->child_count() > 0) {
        victim->RemoveChild(
            victim->child_at(rng->NextBelow(victim->child_count())));
      }
      break;
    case 5:
      body->SetInnerHtml(rewrite);
      break;
    default:
      break;
  }
}

// Position of `node` among its parent's children.
size_t IndexOf(const Node& node) {
  size_t i = 0;
  while (node.parent()->child_at(i) != &node) {
    ++i;
  }
  return i;
}

// The inner HTML of the next site's body: the whole-body rewrite's target.
std::string RewriteFor(size_t site) {
  const std::vector<SiteSpec>& sites = Table1Sites();
  return ParseDocument(GenerateHomepage(sites[(site + 1) % sites.size()]).html)
      ->body()
      ->InnerHtml();
}

// Same node types, tags, attributes, data and child counts, recursively.
void ExpectNodeEqual(const Node& a, const Node& b, const std::string& where) {
  ASSERT_EQ(a.type(), b.type()) << where;
  ASSERT_EQ(a.child_count(), b.child_count()) << where;
  if (const Element* ea = a.AsElement()) {
    ASSERT_EQ(ea->tag_name(), b.AsElement()->tag_name()) << where;
    ASSERT_EQ(ea->attributes(), b.AsElement()->attributes()) << where;
  } else if (a.type() != NodeType::kDocument) {
    ASSERT_EQ(SerializeNode(a), SerializeNode(b)) << where;
  }
  for (size_t i = 0; i < a.child_count(); ++i) {
    ExpectNodeEqual(*a.child_at(i), *b.child_at(i), where);
  }
}

class DeltaEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

// The host's two reconciled trees against fresh materializations: each new
// version's tree is node- and byte-equal to MaterializeSnapshotTree of its
// snapshot, its memo digest and hashes are TreeDigest's and HashTree's, and
// the patch served from every base in the window (the predecessor tree, or
// a lagged base re-materialized from its stored Snapshot) is the one the
// fresh trees diff to.
TEST_P(DeltaEquivalenceTest, ReconciledHostTreesMatchFreshMaterialization) {
  Rng rng(GetParam());
  const std::vector<SiteSpec>& sites = Table1Sites();
  for (size_t site = 0; site < sites.size(); ++site) {
    const std::string rewrite = RewriteFor(site);
    EventLoop loop;
    Network network(&loop);
    network.AddHost("host-pc", {});
    Browser browser(&loop, &network, "host-pc");
    browser.ReplaceDocument(ParseDocument(GenerateHomepage(sites[site]).html),
                            Url::Make("http", sites[site].host, 80, "/"));
    ContentGenerator generator(&browser);
    AgentMetrics metrics;
    obs::MetricsRegistry registry;
    obs::TraceLog trace;
    BroadcastOptions delta_on;
    delta_on.enable_delta = true;
    BroadcastInstruments instruments;
    instruments.metrics = &metrics;
    instruments.trace = &trace;
    auto histogram = [&](const char* name) {
      return registry.AddHistogram(name, name, obs::Provenance::kWall,
                                   obs::LatencyBoundsUs());
    };
    instruments.stage_hist[0] = histogram("extract_us");
    instruments.stage_hist[1] = histogram("serialize_us");
    instruments.generation_us = histogram("generation_us");
    instruments.snapshot_bytes = histogram("snapshot_bytes");
    instruments.patch_ops = histogram("patch_ops");
    instruments.delta_stage_hist[0] = histogram("materialize_us");
    instruments.delta_stage_hist[1] = histogram("digest_us");
    instruments.delta_stage_hist[2] = histogram("diff_us");
    SnapshotBroadcast broadcast(&generator, &loop, delta_on, instruments);
    const Url agent_url = Url::Make("http", "host-pc", 3000, "/");
    std::vector<Snapshot> versions;
    for (int step = 1; step <= 12; ++step) {
      const int kind = step == 1 ? 6 : static_cast<int>(rng.NextBelow(7));
      browser.MutateDocument(
          [&](Document* document) { EditPage(&rng, document, kind, rewrite); });
      broadcast.Invalidate();
      SnapshotBroadcast::Slot& slot =
          broadcast.Refresh(true, false, step * 1000, agent_url, {});
      versions.push_back(slot.snapshot);
      const std::string where =
          sites[site].name + " step " + std::to_string(step);
      const SnapshotBroadcast::MaterializedTree& tree =
          slot.trees[slot.current];
      std::unique_ptr<Element> fresh = MaterializeSnapshotTree(slot.snapshot);
      ExpectNodeEqual(*tree.root, *fresh, where);
      ASSERT_EQ(SerializeNode(*tree.root), SerializeNode(*fresh)) << where;
      ASSERT_EQ(tree.memo.digest(), delta::TreeDigest(*fresh)) << where;
      const delta::TreeHashes hashes = delta::HashTree(*fresh);
      ASSERT_EQ(tree.memo.hashes().hash, hashes.hash) << where;
      ASSERT_EQ(tree.memo.hashes().size, hashes.size) << where;
      for (int back = 1; back <= 3 && back < step; ++back) {
        std::unique_ptr<Element> base =
            MaterializeSnapshotTree(versions[step - back - 1]);
        delta::PatchEnvelope expected;
        expected.patch.base_doc_time_ms = (step - back) * 1000;
        expected.patch.target_doc_time_ms = step * 1000;
        expected.patch.base_digest = delta::TreeDigest(*base);
        expected.patch.target_digest = delta::TreeDigest(*fresh);
        expected.patch.ops = delta::DiffTrees(*base, *fresh);
        const std::string xml = delta::SerializePatchXml(expected);
        const std::optional<std::string> served =
            broadcast.MaybeBuildPatchResponse(slot, (step - back) * 1000,
                                              nullptr, {});
        if (static_cast<double>(xml.size()) >
            SnapshotBroadcast::kPatchSizeCutoff *
                static_cast<double>(slot.xml.size())) {
          EXPECT_FALSE(served.has_value()) << where << " back " << back;
        } else {
          ASSERT_TRUE(served.has_value()) << where << " back " << back;
          EXPECT_EQ(*served, xml) << where << " back " << back;
        }
      }
    }
  }
}

// The participant's in-place apply against the clone-and-commit oracle:
// same outcome and the same canonical digest after every patch, refused
// ones included.
TEST_P(DeltaEquivalenceTest, InPlaceApplyMatchesCloneAndCommit) {
  Rng rng(GetParam());
  const std::vector<SiteSpec>& sites = Table1Sites();
  for (size_t site = 0; site < sites.size(); ++site) {
    const std::string rewrite = RewriteFor(site);
    const std::string html = GenerateHomepage(sites[site]).html;
    std::unique_ptr<Document> host = ParseDocument(html);
    std::unique_ptr<Document> live = ParseDocument(html);
    auto script = MakeElement("script");
    script->SetAttribute("id", "rcb-snippet");
    live->head()->InsertChildAt(0, std::move(script));
    std::unique_ptr<Document> oracle = live->CloneDocument();
    std::unique_ptr<Element> base = delta::CanonicalizeDocument(*host);
    delta::CanonicalMemo memo;
    int64_t version = 1000;
    for (int step = 1; step <= 12; ++step) {
      const std::string where =
          sites[site].name + " step " + std::to_string(step);
      EditPage(&rng, host.get(), static_cast<int>(rng.NextBelow(7)), rewrite);
      std::unique_ptr<Element> target = delta::CanonicalizeDocument(*host);
      delta::Patch patch = MakePatch(*base, *target, version, version + 1000);
      if (step % 4 == 0) {  // a refused patch first: both roll back
        delta::Patch refused = patch;
        refused.target_digest = std::string(64, 'f');
        ASSERT_EQ(delta::ApplyPatchToDocument(live.get(), version, refused,
                                              &memo),
                  delta::ApplyResult::kTargetDigestMismatch)
            << where;
        ASSERT_EQ(ReferenceApplyPatch(oracle.get(), version, refused),
                  delta::ApplyResult::kTargetDigestMismatch)
            << where;
        ASSERT_EQ(LiveDigest(*live), patch.base_digest) << where;
      }
      ASSERT_EQ(delta::ApplyPatchToDocument(live.get(), version, patch, &memo),
                delta::ApplyResult::kApplied)
          << where;
      ASSERT_EQ(ReferenceApplyPatch(oracle.get(), version, patch),
                delta::ApplyResult::kApplied)
          << where;
      ASSERT_EQ(LiveDigest(*live), LiveDigest(*oracle)) << where;
      ASSERT_EQ(LiveDigest(*live), patch.target_digest) << where;
      base = std::move(target);
      version += 1000;
    }
  }
}

// Splits, empties and re-parents nodes so the canonical tree stops being
// normalized, and moves unchanged subtrees (their revs intact) between raw
// text parents, ordinary parents and void elements, where their bytes
// differ. Every step of the memo must still equal a fresh serialization.
void UnsettleOnce(Rng* rng, Element* root) {
  std::vector<Element*> elements;
  root->ForEachElement([&](Element* element) {
    elements.push_back(element);
    return true;
  });
  if (elements.empty()) {
    return;
  }
  Element* victim = elements[rng->NextBelow(elements.size())];
  switch (rng->NextBelow(4)) {
    case 0:  // an empty text node
      victim->InsertChildAt(rng->NextBelow(victim->child_count() + 1),
                            MakeText(""));
      break;
    case 1: {  // a text node split in two adjacent ones
      std::vector<Text*> texts;
      CollectTexts(root, &texts);
      if (!texts.empty()) {
        Text* text = texts[rng->NextBelow(texts.size())];
        const std::string data = text->data();
        const size_t cut = data.size() / 2;
        Node* parent = text->parent();
        size_t index = 0;
        while (parent->child_at(index) != text) {
          ++index;
        }
        text->set_data(data.substr(0, cut));
        parent->InsertChildAt(index + 1, MakeText(data.substr(cut)));
      }
      break;
    }
    case 2: {  // a text node into or out of a raw text element
      std::vector<Element*> raw;
      for (Element* element : elements) {
        if (HtmlTokenizer::IsRawTextElement(element->tag_name())) {
          raw.push_back(element);
        }
      }
      if (raw.empty()) {
        break;
      }
      Element* from = raw[rng->NextBelow(raw.size())];
      if (from->child_count() > 0 && rng->NextBelow(2) == 0) {
        victim->AppendChild(from->first_child()->Detach());
      } else {
        from->AppendChild(MakeText("a<b & \"c\""));
      }
      break;
    }
    case 3: {  // an unchanged subtree under a void element
      if (victim->child_count() == 0) {
        break;
      }
      std::unique_ptr<Node> moved =
          victim->child_at(rng->NextBelow(victim->child_count()))->Detach();
      auto hr = MakeElement("hr");
      Element* target = hr.get();
      victim->AppendChild(std::move(hr));
      target->AppendChild(std::move(moved));
      break;
    }
  }
}

TEST_P(DeltaEquivalenceTest, MemoizedSerializerMatchesAFreshOne) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Document> document =
        ParseDocument(GenerateHomepage(spec).html);
    // The memo of a canonical tree (the host's case) ...
    std::unique_ptr<Element> tree = delta::CanonicalizeDocument(*document);
    delta::CanonicalMemo tree_memo;
    // ... and of a live document's canonical view (the participant's), with
    // texts around a bootstrap script in the head.
    Element* head = document->head();
    head->InsertChildAt(0, MakeText("lead"));
    auto script = MakeElement("script");
    script->SetAttribute("id", "rcb-snippet");
    head->InsertChildAt(1, std::move(script));
    head->InsertChildAt(2, MakeText("trail"));
    delta::CanonicalMemo view_memo;
    for (int step = 1; step <= 16; ++step) {
      const std::string where = spec.name + " step " + std::to_string(step);
      for (int i = rng.NextBelow(3); i >= 0; --i) {
        if (rng.NextBelow(2) == 0) {
          MutateTreeOnce(&rng, tree.get());
        } else {
          UnsettleOnce(&rng, tree.get());
        }
        UnsettleOnce(&rng, document->document_element());
      }
      const std::string& digest = tree_memo.Digest(tree.get());
      std::unique_ptr<Node> normalized = tree->Clone();
      delta::NormalizeTextNodes(normalized->AsElement());
      ExpectNodeEqual(*tree, *normalized, where);
      ASSERT_EQ(digest, delta::TreeDigest(*tree)) << where;
      const delta::TreeHashes hashes = delta::HashTree(*tree);
      ASSERT_EQ(tree_memo.hashes().hash, hashes.hash) << where;
      ASSERT_EQ(tree_memo.hashes().size, hashes.size) << where;

      std::unique_ptr<Element> view = delta::CanonicalizeDocument(*document);
      ASSERT_EQ(view_memo.Digest(document.get(), /*normalize=*/false),
                delta::TreeDigest(*view))
          << where;
      if (step % 2 == 0) {
        ASSERT_EQ(view_memo.Digest(document.get(), /*normalize=*/true),
                  delta::TreeDigest(*view))
            << where;
        ASSERT_EQ(view_memo.hashes().hash, delta::HashTree(*view).hash)
            << where;
        ExpectNodeEqual(*delta::CanonicalizeDocument(*document), *view, where);
      }
    }
  }
}

// TreeDigest against the flat digest it replaced, over the Table 1 corpus:
// along each stream of edits, splits and empties, two trees digest alike
// under one exactly when they do under the other; a normalized copy, which
// serializes alike, digests alike.
TEST_P(DeltaEquivalenceTest, MerkleDigestSplitsTreesLikeTheFlatOne) {
  Rng rng(GetParam());
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Element> tree = delta::CanonicalizeDocument(
        *ParseDocument(GenerateHomepage(spec).html));
    std::unordered_map<std::string, std::string> merkle_of_flat;
    std::unordered_map<std::string, std::string> flat_of_merkle;
    for (int step = 0; step <= 24; ++step) {
      const std::string where = spec.name + " step " + std::to_string(step);
      if (step > 0) {
        if (rng.NextBelow(2) == 0) {
          MutateTreeOnce(&rng, tree.get());
        } else {
          UnsettleOnce(&rng, tree.get());
        }
      }
      const std::string flat = ReferenceTreeDigest(*tree);
      const std::string merkle = delta::TreeDigest(*tree);
      ASSERT_EQ(merkle.size(), 64u) << where;
      EXPECT_EQ(merkle_of_flat.emplace(flat, merkle).first->second, merkle)
          << where;
      EXPECT_EQ(flat_of_merkle.emplace(merkle, flat).first->second, flat)
          << where;
      std::unique_ptr<Node> normalized = tree->Clone();
      delta::NormalizeTextNodes(normalized->AsElement());
      ASSERT_EQ(ReferenceTreeDigest(*normalized->AsElement()), flat) << where;
      EXPECT_EQ(delta::TreeDigest(*normalized->AsElement()), merkle) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 4));

template <typename... Children>
std::unique_ptr<Element> E(std::string tag, Children... children) {
  std::unique_ptr<Element> element = MakeElement(std::move(tag));
  (element->AppendChild(std::move(children)), ...);
  return element;
}
// An empty element with one attribute.
std::unique_ptr<Element> A(std::string tag, std::string name,
                           std::string value) {
  std::unique_ptr<Element> element = MakeElement(std::move(tag));
  element->SetAttribute(name, std::move(value));
  return element;
}
std::unique_ptr<Node> T(std::string data) { return MakeText(std::move(data)); }
std::unique_ptr<Node> C(std::string data) {
  return std::make_unique<Comment>(std::move(data));
}

// Hand-built pairs (the parser would normalize most of them away), each
// either serializing alike or not: TreeDigest and the memo must split them
// as the flat digest does.
TEST(MerkleDigestTest, SplitsHandBuiltPairsLikeTheFlatDigest) {
  using namespace std::string_literals;
  struct Row {
    std::string name;
    std::unique_ptr<Element> a;
    std::unique_ptr<Element> b;
    bool alike;
  };
  std::vector<Row> rows;
  auto row = [&](std::string name, std::unique_ptr<Element> a,
                 std::unique_ptr<Element> b, bool alike) {
    rows.push_back({std::move(name), std::move(a), std::move(b), alike});
  };
  row("split text", E("p", T("ab")), E("p", T("a"), T("b")), true);
  row("empty texts", E("p", T("ab")), E("p", T(""), T("ab"), T("")), true);
  row("an empty text or none", E("p"), E("p", T("")), true);
  row("nested split", E("div", E("b", T("x"))), E("div", E("b", T("x"), T(""))),
      true);
  row("split raw script text", E("script", T("a<b>&")),
      E("script", T("a<b"), T(">&")), true);
  row("raw style text is verbatim", E("style", T("a<b")),
      E("style", T("a&lt;b")), false);
  row("escaped text", E("div", T("a<b")), E("div", T("a&lt;b")), false);
  row("a comment in raw text", E("script", C("x")),
      E("script", T("<!--x-->")), true);
  row("a comment or escaped text", E("div", C("x")),
      E("div", T("<!--x-->")), false);
  row("comment data", E("div", C("a")), E("div", C("b")), false);
  row("texts around a comment", E("div", T("a"), C("c"), T("b")),
      E("div", T("a"), C("c"), T(""), T("b")), true);
  row("an element under a void element", E("br"),
      E("br", E("span", T("x"))), true);
  row("text under a void element", E("img", T("x")), E("img", T("y")),
      true);
  row("a void element's attribute", A("img", "src", "a"),
      A("img", "src", "b"), false);
  row("< in an attribute", A("a", "title", "x<y"), A("a", "title", "x&lt;y"),
      false);
  row("NUL in split text", E("p", T("a\0b"s)), E("p", T("a"), T("\0b"s)),
      true);
  row("NUL in text", E("p", T("a\0b"s)), E("p", T("ab")), false);
  row("NUL in an attribute", A("p", "title", "x\0"s), A("p", "title", "x"),
      false);
  row("the marker in split text", E("p", T("a\xff" "b")),
      E("p", T("a\xff"), T("b")), true);
  row("the marker in an attribute", A("p", "title", "\xff"),
      A("p", "title", "\xff\0"s), false);
  row("the marker beside a child", E("div", T("\xff"), E("b")),
      E("div", E("b")), false);
  // A text that spells out a child's tag: marker, tag byte, its digest.
  std::unique_ptr<Element> span = E("span", T("x"));
  const std::string spelled =
      "\xff\x01"s + *HexDecode(delta::TreeDigest(*span));
  row("a text that spells a child's tag", E("div", std::move(span)),
      E("div", T(spelled)), false);
  for (Row& r : rows) {
    ASSERT_EQ(ReferenceTreeDigest(*r.a) == ReferenceTreeDigest(*r.b), r.alike)
        << r.name;
    const std::string a = delta::TreeDigest(*r.a);
    const std::string b = delta::TreeDigest(*r.b);
    EXPECT_EQ(a == b, r.alike) << r.name;
    // The memo normalizes in place first; the digest stays TreeDigest's.
    delta::CanonicalMemo memo_a;
    delta::CanonicalMemo memo_b;
    EXPECT_EQ(memo_a.Digest(r.a.get()), a) << r.name;
    EXPECT_EQ(memo_b.Digest(r.b.get()), b) << r.name;
  }
}

// A long run's digest is reused only while the run holds the same leaves in
// the same order: removing, inserting or moving a leaf, or merging two runs
// by removing the element between them, hashes the run again. Comments make
// the runs (adjacent texts would be merged by the memo's normalization):
// two 40-byte ones are a long run, one alone a short one.
TEST(CanonicalMemoTest, LongRunsAreReusedOnlyLeafForLeaf) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::unique_ptr<Element> root = MakeElement("div");
    int made = 0;
    auto make_child = [&]() -> std::unique_ptr<Node> {
      const std::string id = std::to_string(made++);
      if (rng.NextBelow(3) == 0) {
        return E("b", T(id));
      }
      return C(id + std::string(40 - id.size(), '-'));
    };
    for (int i = 0; i < 12; ++i) {
      root->AppendChild(make_child());
    }
    delta::CanonicalMemo memo;
    for (int step = 0; step < 200; ++step) {
      for (int op = rng.NextBelow(3); op >= 0; --op) {
        const size_t count = root->child_count();
        switch (rng.NextBelow(4)) {
          case 0:  // remove a child
            if (count > 1) {
              root->RemoveChild(root->child_at(rng.NextBelow(count)));
            }
            break;
          case 1: {  // move a child
            std::unique_ptr<Node> moved =
                root->RemoveChild(root->child_at(rng.NextBelow(count)));
            root->InsertChildAt(rng.NextBelow(count), std::move(moved));
            break;
          }
          case 2:  // insert a child
            root->InsertChildAt(rng.NextBelow(count + 1), make_child());
            break;
          case 3:  // change an element child, leaving every run as it was
            for (const auto& child : root->children()) {
              if (Element* element = child->AsElement()) {
                element->SetAttribute("data-step", std::to_string(step));
                break;
              }
            }
            break;
        }
      }
      ASSERT_EQ(memo.Digest(root.get()), delta::TreeDigest(*root))
          << "seed " << seed << " step " << step;
    }
  }
}

// The memo re-hashes O(change): after one attribute edit and then one text
// edit on each Table 1 page, each call hashes at most a quarter of the
// page's canonical bytes, on the host's canonical tree and on the
// participant's live view alike.
TEST(CanonicalMemoTest, AnEditRehashesAtMostAQuarterOfThePage) {
  Rng rng(32);
  for (const SiteSpec& spec : Table1Sites()) {
    std::unique_ptr<Document> document =
        ParseDocument(GenerateHomepage(spec).html);
    std::unique_ptr<Element> tree = delta::CanonicalizeDocument(*document);
    const size_t page_bytes = SerializeNode(*tree).size();
    delta::CanonicalMemo tree_memo;
    delta::CanonicalMemo view_memo;
    tree_memo.Digest(tree.get());
    view_memo.Digest(document.get(), /*normalize=*/true);
    // Both bodies hold the same nodes, so a pre-order pick names one node.
    Element* bodies[] = {tree->ChildByTag("body"), document->body()};
    std::vector<Element*> elements[2];
    std::vector<Text*> texts[2];
    for (int side = 0; side < 2; ++side) {
      bodies[side]->ForEachElement([&](Element* element) {
        elements[side].push_back(element);
        return true;
      });
      CollectTexts(bodies[side], &texts[side]);
    }
    ASSERT_EQ(elements[0].size(), elements[1].size()) << spec.name;
    ASSERT_EQ(texts[0].size(), texts[1].size()) << spec.name;
    ASSERT_FALSE(texts[0].empty()) << spec.name;
    const size_t element = rng.NextBelow(elements[0].size());
    const size_t text = rng.NextBelow(texts[0].size());
    std::string ratios;
    for (const char* edit : {"attribute", "text"}) {
      for (int side = 0; side < 2; ++side) {
        if (edit == std::string("attribute")) {
          elements[side][element]->SetAttribute("data-edit", "1");
        } else {
          texts[side][text]->set_data(texts[side][text]->data() + " edited");
        }
      }
      const uint64_t tree_before = tree_memo.hashed_bytes();
      const uint64_t view_before = view_memo.hashed_bytes();
      const std::string& digest = tree_memo.Digest(tree.get());
      ASSERT_EQ(digest, delta::TreeDigest(*tree)) << spec.name;
      ASSERT_EQ(view_memo.Digest(document.get(), /*normalize=*/true), digest)
          << spec.name;
      const uint64_t tree_cost = tree_memo.hashed_bytes() - tree_before;
      const uint64_t view_cost = view_memo.hashed_bytes() - view_before;
      EXPECT_LE(tree_cost * 4, page_bytes) << spec.name << " " << edit;
      EXPECT_LE(view_cost * 4, page_bytes) << spec.name << " " << edit;
      ratios += StrFormat("%s %.4f/%.4f ", edit,
                          static_cast<double>(tree_cost) / page_bytes,
                          static_cast<double>(view_cost) / page_bytes);
    }
    RecordProperty(spec.name, ratios + StrFormat("of %zu bytes", page_bytes));
  }
}

// Every single-field edit over the Table 1 corpus reaches the participant
// as one patch applied to its live document: the body element and the
// body's children off the edited path keep their addresses.
TEST_F(DeltaSessionTest, CorpusEditsApplyInPlace) {
  SessionOptions options;
  options.profile = LanProfile();
  options.poll_interval = Duration::Millis(200);
  options.enable_delta = true;
  std::vector<std::unique_ptr<SiteServer>> servers;
  for (const SiteSpec& spec : Table1Sites()) {
    AddOriginServer(&network_, options.profile, spec.host, spec.server_bps,
                    spec.server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    servers.push_back(InstallSite(&loop_, &network_, spec));
  }
  session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
  ASSERT_TRUE(session_->Start().ok());
  const SnippetMetrics& snippet = session_->snippet(0)->metrics();
  Document* participant = session_->participant_browser(0)->document();
  for (const SiteSpec& spec : Table1Sites()) {
    auto stats = session_->CoNavigate(Url::Make("http", spec.host, 80, "/"));
    ASSERT_TRUE(stats.ok()) << spec.name << ": " << stats.status();
    participant = session_->participant_browser(0)->document();
    // The single-field edits: a text edit in the middle of the body, then a
    // co-fill of the first input (when the page has one).
    const std::vector<std::function<size_t(Document*)>> edits = {
        [](Document* document) {
          std::vector<Text*> texts;
          CollectTexts(document->body(), &texts);
          Text* text = texts[texts.size() / 2];
          text->set_data(text->data() + " (edited)");
          Node* top = text;
          while (top->parent() != document->body()) {
            top = top->parent();
          }
          return IndexOf(*top);
        },
        [](Document* document) {
          std::vector<Element*> inputs = document->body()->FindAll("input");
          if (inputs.empty()) {
            return SIZE_MAX;
          }
          inputs[0]->SetAttribute("value", "co-filled");
          Node* top = inputs[0];
          while (top->parent() != document->body()) {
            top = top->parent();
          }
          return IndexOf(*top);
        }};
    for (const auto& edit : edits) {
      const uint64_t applied = snippet.patches_applied;
      const Element* body = participant->body();
      std::vector<const Node*> siblings;
      for (const auto& child : body->children()) {
        siblings.push_back(child.get());
      }
      size_t touched = SIZE_MAX;
      session_->host_browser()->MutateDocument(
          [&](Document* document) { touched = edit(document); });
      if (touched == SIZE_MAX) {
        continue;
      }
      ASSERT_TRUE(session_->WaitForSync().ok()) << spec.name;
      EXPECT_EQ(snippet.patches_applied, applied + 1) << spec.name;
      EXPECT_EQ(snippet.resyncs, 0u) << spec.name;
      EXPECT_EQ(snippet.patch_digest_mismatches, 0u) << spec.name;
      ASSERT_EQ(participant->body(), body) << spec.name;
      ASSERT_EQ(body->child_count(), siblings.size()) << spec.name;
      for (size_t i = 0; i < siblings.size(); ++i) {
        if (i != touched) {
          EXPECT_EQ(body->child_at(i), siblings[i]) << spec.name << " " << i;
        }
      }
      EXPECT_EQ(ParticipantDigest(0), HostDigest()) << spec.name;
    }
  }
  // Every patch diffed the predecessor tree: the host materialized each
  // version once, by reconciling it, and no base from its snapshot.
  const obs::Histogram* materialize =
      session_->agent()->metrics_registry().FindHistogram(
          "rcb_agent_delta_stage_us", "stage=\"materialize\"");
  EXPECT_EQ(materialize->count(), session_->agent()->metrics().generations);
}

}  // namespace
}  // namespace rcb
