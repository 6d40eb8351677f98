#include "tests/support/reference_tree_digest.h"

#include "src/crypto/sha256.h"
#include "src/html/serializer.h"

namespace rcb {

std::string ReferenceTreeDigest(const Element& canonical_root) {
  return Sha256::HexDigest(SerializeNode(canonical_root));
}

}  // namespace rcb
