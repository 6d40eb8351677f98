// Reference Fig. 5 apply: the oracle for AjaxSnippet::ApplySnapshot.
//
// This is the snippet's apply before it ran through ReconcileSnapshotTree,
// the paper's four steps taken literally: clean the head but keep the
// bootstrap script, append freshly built head children, drop the top-level
// elements the snapshot does not carry, and set body/frameset/noframes by
// innerHTML. It rebuilds every head child on every apply and shares no code
// with ReconcileSnapshotTree, so comparing the documents the two leave is a
// real check of the in-place engine.
//
// Tests link it as part of `rcb_reference_generator`; it is not part of the
// snippet.
#ifndef TESTS_SUPPORT_REFERENCE_APPLY_SNAPSHOT_H_
#define TESTS_SUPPORT_REFERENCE_APPLY_SNAPSHOT_H_

#include "src/core/protocol.h"
#include "src/html/dom.h"

namespace rcb {

void ReferenceApplySnapshot(Document* document, const Snapshot& snapshot);

}  // namespace rcb

#endif  // TESTS_SUPPORT_REFERENCE_APPLY_SNAPSHOT_H_
