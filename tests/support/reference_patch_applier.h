// Reference patch apply: the oracle for the in-place ApplyPatchToDocument.
//
// This is the participant's pipeline before patches applied in place: clone
// the whole canonical tree (CanonicalizeDocument), digest it for the base
// gate, apply the ops to the copy with its own op loop, digest the copy for
// the target gate, and only then swap the copy's children into the live
// root, re-attaching the bootstrap script at the head's front. It shares no
// code with the in-place op engine or CanonicalMemo, so comparing the
// canonical digests the two leave is a real check of the in-place path.
//
// Tests link it as part of `rcb_reference_generator`; it is not part of the
// snippet.
#ifndef TESTS_SUPPORT_REFERENCE_PATCH_APPLIER_H_
#define TESTS_SUPPORT_REFERENCE_PATCH_APPLIER_H_

#include <cstdint>

#include "src/delta/patch_applier.h"

namespace rcb {

delta::ApplyResult ReferenceApplyPatch(Document* document,
                                       int64_t current_doc_time_ms,
                                       const delta::Patch& patch);

}  // namespace rcb

#endif  // TESTS_SUPPORT_REFERENCE_PATCH_APPLIER_H_
