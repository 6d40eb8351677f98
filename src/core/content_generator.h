// Response content generation — the Fig. 3 pipeline.
//
// In the paper, when the host document changes, RCB-Agent:
//   1. clones the documentElement of the current document (all later steps
//      touch only the clone, never the live page),
//   2. converts relative URLs to absolute origin-server URLs,
//   3. in cache mode, rewrites the absolute URL of every supplementary object
//      present in the browser cache to an RCB-Agent URL (/obj/<cache-key>),
//   4. rewrites event attributes (onclick/onsubmit/onchange) so participant
//      interactions are routed back through Ajax-Snippet, tagging each
//      interactive element with its pre-order index ("data-rcb-id"),
//   5. extracts the attribute lists and innerHTML of the head children and of
//      the body (or frameset/noframes) into a Snapshot (Fig. 4).
//
// The generator skips the clone: steps 2-4 are one per-element attribute
// transform (AttributeRewriter) applied while the SerializeCache serializes
// the live document, only to the elements it misses on (and to the payload
// roots), so a generation costs O(change) and never writes the DOM. The
// literal clone-and-three-passes pipeline survives as the test oracle
// ReferenceGenerate (tests/support/reference_generator.h).
#ifndef SRC_CORE_CONTENT_GENERATOR_H_
#define SRC_CORE_CONTENT_GENERATOR_H_

#include <utility>
#include <vector>

#include "src/browser/browser.h"
#include "src/core/protocol.h"
#include "src/core/serialize_cache.h"
#include "src/html/parser.h"
#include "src/util/sim_time.h"

namespace rcb {

struct ContentGenOptions {
  bool cache_mode = true;
  Url agent_url;  // base for rewritten object URLs, e.g. http://host-pc:3000/
  // §4.1.2: the agent may "allow different objects on the same webpage to
  // use different modes". When set (and cache_mode is on), only objects this
  // predicate accepts are rewritten to agent URLs; the rest stay pointed at
  // their origins. `kind` is "image" | "stylesheet" | "script" | "frame".
  std::function<bool(const Url& url, const std::string& kind)>
      cache_object_filter;
};

struct GenerationResult {
  Snapshot snapshot;
  // Pre-escaped payload CDATA text matching `snapshot`. SnapshotBroadcast
  // stores it in the slot so per-participant serializations splice instead
  // of re-escaping the page.
  SnapshotEscaped escaped;
  size_t interactive_elements = 0;
  // Rewrites this generation performed. Only the elements the
  // SerializeCache misses on (and the payload roots) are rewritten, so an
  // unchanged regeneration reads 0 here.
  size_t urls_absolutized = 0;
  size_t urls_cache_rewritten = 0;
  // Real (not simulated) CPU time of the pipeline — the paper's M5.
  Duration wall_time;
  // Per-stage breakdown of wall_time, one field per Fig. 3 step. The
  // generator stays observability-free; SnapshotBroadcast records
  // stage_extract into rcb_agent_gen_stage_us{stage="extract"}. The
  // generator neither clones nor runs separate rewrite passes: its clone and
  // rewrite stages read 0 and the rewrite cost falls inside stage_extract.
  // Only ReferenceGenerate fills them.
  Duration stage_clone;
  Duration stage_absolutize;
  Duration stage_cache_rewrite;
  Duration stage_event_rewrite;
  Duration stage_extract;
};

using AttributeList = std::vector<std::pair<std::string, std::string>>;

// Fig. 3 steps 2-4 for one element of the live document. The output is a
// pure function of the element's attributes, the base URL, the ObjectCache
// mapping table, the options and the element's data-rcb-id — exactly what
// the SerializeCache key (rev, config fingerprint) and its id_base check
// cover. Steps run in pipeline order with Element::SetAttribute's list
// semantics: a present attribute is replaced in place, a new one appended.
class AttributeRewriter {
 public:
  // `cache` is null outside cache mode (step 3 is skipped).
  // `cache` and `options` must outlive the rewriter (one Generate call).
  AttributeRewriter(Url base, ObjectCache* cache,
                    const ContentGenOptions& options)
      : base_(std::move(base)), cache_(cache), options_(options) {}

  // Stores `element`'s rewritten attribute list in `*out` and returns true,
  // or returns false (leaving `*out` alone) when the element's own
  // attributes are already its output. `rcb_id` is the element's pre-order
  // interactive index, read only when the element is interactive.
  bool Rewrite(const Element& element, size_t rcb_id, AttributeList* out);

  size_t urls_absolutized() const { return urls_absolutized_; }
  size_t urls_cache_rewritten() const { return urls_cache_rewritten_; }

 private:
  Url base_;
  ObjectCache* cache_;
  const ContentGenOptions& options_;
  size_t urls_absolutized_ = 0;
  size_t urls_cache_rewritten_ = 0;
};

class ContentGenerator {
 public:
  explicit ContentGenerator(Browser* host_browser) : browser_(host_browser) {}

  // Runs the pipeline against the host browser's current document, which it
  // only reads. `doc_time_ms` stamps the snapshot (§4.1.1 timestamp
  // mechanism). Non-const: the serialization cache persists across calls —
  // that reuse is where the incremental win comes from.
  GenerationResult Generate(int64_t doc_time_ms,
                            const ContentGenOptions& options);

  // True for elements whose events RCB rewrites (anchors with href, forms,
  // form fields, buttons).
  static bool IsInteractive(const Element& element);

  // Pre-order enumeration of interactive elements. Index i in this vector is
  // the element that carries data-rcb-id="i" in generated snapshots; the
  // agent re-runs this on the live host document to resolve participant
  // action targets.
  static std::vector<Element*> InteractiveElements(Node* root);

  const SerializeCache::Stats& serialize_cache_stats() const {
    return serialize_cache_.stats();
  }

 private:
  Browser* browser_;
  SerializeCache serialize_cache_;
  // Previous update's main-payload (body/frameset) sizes, used to reserve
  // the raw and escaped output strings instead of growing them per append.
  size_t main_payload_raw_hint_ = 0;
  size_t main_payload_escaped_hint_ = 0;
};

// What one payload root took from its last Fig. 5 apply: the escaped
// payload it was built from and where each element below it got its
// content, so the next apply rebuilds only the element the change falls in.
struct AppliedPayload {
  std::string escaped;     // JsEscape(EncodeElementPayload(payload))
  size_t inner_begin = 0;  // where the escaped inner HTML starts in it
  // The payload root's descendant elements, pre-order, in `escaped`
  // offsets (ElementSpan, src/html/parser.h).
  std::vector<ElementSpan> spans;
  // False when the content holds a "%u" unit, whose offsets the spans
  // cannot map: the next apply takes the whole payload.
  bool spliceable = false;
  // The payload root's rev() when the apply ended. The record counts only
  // while the element in the payload's place still has this rev: any other
  // mutation below it (a participant's own co-fill, say) restamps it, and
  // the next apply then takes that payload whole. Revs are unique per node
  // and subtree state (src/html/dom.h), so a match also names the element.
  uint64_t rev = 0;
};

// What a tree took from its last Fig. 5 apply, payload by payload.
struct AppliedSnapshot {
  std::vector<AppliedPayload> head;  // the head's payload children
  std::vector<AppliedPayload> top;   // body?, frameset?, noframes?
};

// Materializes a snapshot into the canonical tree (src/delta/tree_diff.h) a
// participant's live document reduces to after a full Fig. 5 apply: it runs
// the apply itself (ReconcileSnapshotTree) on an empty html element, so the
// agent's delta base trees and the participant's live tree digest-match by
// construction — parser quirks cancel out because both sides run the same
// code. This is the "last-acked tree" the delta path diffs against.
std::unique_ptr<Element> MaterializeSnapshotTree(const Snapshot& snapshot);

// The Fig. 5 apply, in place; the snippet runs it on the participant's live
// document and the agent on its delta base trees. `payloads` are the
// snapshot's escaped payloads (each head must decode,
// DecodeEscapedPayloadHead). `root`'s children end as
// [head, body?, frameset?, noframes?], the snapshot's: the first head is
// kept (a new one is made at the front when there is none) with its
// bootstrap scripts (delta::IsSnippetBootstrapScript) moved to its front,
// and everything else under the root is dropped (step 3). Payload i of the
// head becomes the head's child after the bootstrap scripts plus i, and each
// top-level payload the root's child of its position. An element of the
// payload's tag already at that position, or else the first later one,
// moved there, is kept and given the payload's attributes and its inner
// HTML, built in place (BuildTree).
//
// `applied` is what `root` took from its last apply, and is replaced by
// what it takes from this one. A payload root still in place since then is
// spliced: the common prefix and suffix of its old and new escaped bytes
// are kept (cut points moved off any "%XX" unit), and only the deepest
// element whose content holds the changed bytes is rebuilt, from those
// bytes alone, widening to its parent when the rebuilt markup does not
// close exactly at that element's end. A payload with no usable record is
// the degenerate splice: its whole content is rebuilt. Either way the tree
// equals a fresh build, and nodes the new snapshot leaves unchanged keep
// their address and rev, which is what lets the delta path's CanonicalMemo
// re-digest only the change. `spliced` and `rebuilt` (optional) count the
// changed payloads rebuilt below their root (or only shifted, when just the
// root's attributes changed) and those whose whole content was rebuilt;
// byte-equal payloads with a record count as neither.
void ReconcileSnapshotTree(const SnapshotEscaped& payloads,
                           AppliedSnapshot* applied, Element* root,
                           uint64_t* spliced = nullptr,
                           uint64_t* rebuilt = nullptr);

}  // namespace rcb

#endif  // SRC_CORE_CONTENT_GENERATOR_H_
