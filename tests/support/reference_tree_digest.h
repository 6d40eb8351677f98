// Reference page digest: hex SHA-256 over the whole canonical serialization.
//
// The flat digest delta::TreeDigest carried before it became a Merkle digest
// over the same bytes. Both must split trees alike: two canonical trees
// digest alike under one exactly when they digest alike under the other.
// Tests link it as part of `rcb_reference_generator`.
#ifndef TESTS_SUPPORT_REFERENCE_TREE_DIGEST_H_
#define TESTS_SUPPORT_REFERENCE_TREE_DIGEST_H_

#include <string>

#include "src/html/dom.h"

namespace rcb {

std::string ReferenceTreeDigest(const Element& canonical_root);

}  // namespace rcb

#endif  // TESTS_SUPPORT_REFERENCE_TREE_DIGEST_H_
