// Reference Fig. 3 generator: the byte-identity oracle for ContentGenerator.
//
// This is the paper's pipeline taken literally: clone the documentElement,
// rewrite the whole clone in three passes (absolutize URLs, cached objects
// to agent URLs, event attributes + data-rcb-id), then extract each payload
// with a cold InnerHtml. It keeps no state between calls and shares no code
// with AttributeRewriter or the SerializeCache, so comparing its bytes with
// the live generator's is a real check of the clone-free incremental path.
//
// Tests and benches link it as `rcb_reference_generator`; it is not part of
// the agent.
#ifndef TESTS_SUPPORT_REFERENCE_GENERATOR_H_
#define TESTS_SUPPORT_REFERENCE_GENERATOR_H_

#include <cstdint>

#include "src/browser/browser.h"
#include "src/core/content_generator.h"

namespace rcb {

// Runs the reference pipeline against `browser`'s current document (read
// only). Fills every stage_* field; `escaped` stays empty.
GenerationResult ReferenceGenerate(Browser* browser, int64_t doc_time_ms,
                                   const ContentGenOptions& options);

}  // namespace rcb

#endif  // TESTS_SUPPORT_REFERENCE_GENERATOR_H_
