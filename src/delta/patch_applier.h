// Participant-side patch application with integrity checking.
//
// A patch is applied to the live document in place, and kept only when the
// full §4.1.1-style freshness and integrity pipeline passes:
//   1. target newer than the participant's current content (else ignore),
//   2. base doc_time_ms equals the current content version (else resync —
//      a stale or out-of-order patch must never apply),
//   3. the live document's canonical view digests to the patch's baseDigest,
//   4. the ops apply cleanly to the live view,
//   5. the patched view digests to the patch's docDigest.
// The ops address the canonical view (tree_diff.h) of the live document and
// every mutation they make is logged, so a failure at 4 or 5 rolls them back:
// the document is left as it was, every node at its address. Outcomes 2-5
// make the snippet request a full-snapshot resync via the PR-1 recovery path.
#ifndef SRC_DELTA_PATCH_APPLIER_H_
#define SRC_DELTA_PATCH_APPLIER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/dom.h"
#include "src/util/status.h"

namespace rcb::delta {

enum class ApplyResult {
  kApplied,               // committed to the live document
  kStaleIgnored,          // target not newer than current content: no-op
  kBaseTimeMismatch,      // base version != current content: resync
  kBaseDigestMismatch,    // live tree drifted from the base: resync
  kTargetDigestMismatch,  // post-apply digest check failed: resync
  kApplyError,            // op list failed structurally: resync
};

// True when the outcome requires a full-snapshot resync (§3.2.3).
bool NeedsResync(ApplyResult result);
std::string_view ApplyResultName(ApplyResult result);

// Applies `ops` to a canonical tree in place. Fails on out-of-range paths or
// indexes, type-mismatched targets, and payloads that do not parse to
// exactly one node; the tree may be partially mutated on failure.
Status ApplyPatchOps(Element* root, const std::vector<PatchOp>& ops);

// The pipeline described in the file comment. `current_doc_time_ms` is the
// version of the content the participant currently displays. `memo` carries
// the live view's node digests from one call to the next, so gates 3 and 5
// hash only the spine of what changed since (the participant keeps
// one per document); without one, both gates hash the whole view.
ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch);
ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch, CanonicalMemo* memo);

}  // namespace rcb::delta

#endif  // SRC_DELTA_PATCH_APPLIER_H_
