// Participant-side patch application with integrity checking.
//
// A patch is only committed to the live document after the full §4.1.1-style
// freshness and integrity pipeline passes:
//   1. target newer than the participant's current content (else ignore),
//   2. base doc_time_ms equals the current content version (else resync —
//      a stale or out-of-order patch must never apply),
//   3. the canonicalized live tree hashes to the patch's baseDigest,
//   4. the ops apply cleanly to a scratch clone,
//   5. the patched clone hashes to the patch's docDigest,
// and only then is the result swapped into the live document (preserving the
// Ajax-Snippet bootstrap script). Any failure leaves the live document
// untouched; outcomes 2-5 make the snippet request a full-snapshot resync
// via the PR-1 recovery path.
#ifndef SRC_DELTA_PATCH_APPLIER_H_
#define SRC_DELTA_PATCH_APPLIER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/delta/patch_codec.h"
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
// exactly one node; the tree may be partially mutated on failure, which is
// why ApplyPatchToDocument works on a scratch clone.
Status ApplyPatchOps(Element* root, const std::vector<PatchOp>& ops);

// The participant's record of its last committed apply: the document
// element's rev() right after the commit and the target digest that commit
// verified. Every DOM mutation restamps the revs of the touched node and all
// its ancestors with fresh, never-reused values, so while the root's rev is
// unchanged the canonical tree still digests to `digest`.
struct BaseDigestMemo {
  uint64_t root_rev = 0;
  std::string digest;  // empty: nothing recorded
  uint64_t hits = 0;   // base-digest gates answered from the memo
};

// The full pipeline described in the file comment. `current_doc_time_ms` is
// the version of the content the participant currently displays. With a
// memo, gate 3 compares against the recorded digest when the root's rev
// still matches (otherwise it digests the canonical tree as usual), and a
// committed apply records the new rev and target digest.
ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch);
ApplyResult ApplyPatchToDocument(Document* document,
                                 int64_t current_doc_time_ms,
                                 const Patch& patch, BaseDigestMemo* memo);

}  // namespace rcb::delta

#endif  // SRC_DELTA_PATCH_APPLIER_H_
