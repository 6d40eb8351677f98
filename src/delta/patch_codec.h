// Patch wire format: the <newPatch> XML envelope.
//
// The delta counterpart of the Fig. 4 newContent document, built with the
// same idioms: a versioned header (format version, base and target
// doc_time_ms, base and post-apply canonical-tree digests), the op list
// JsEscape()d inside a CDATA section (newline-separated, form-urlencoded per
// op — the EncodeActions idiom), and an optional userActions CDATA section so
// broadcasts keep piggybacking on content responses.
#ifndef SRC_DELTA_PATCH_CODEC_H_
#define SRC_DELTA_PATCH_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/actions.h"
#include "src/delta/tree_diff.h"
#include "src/util/status.h"

namespace rcb::delta {

// Version 2: the digests are TreeDigest's Merkle SHA-256. A version-1 peer
// digests the flat serialization, so its patches are refused at parse.
inline constexpr int kPatchFormatVersion = 2;

struct Patch {
  int version = kPatchFormatVersion;
  int64_t base_doc_time_ms = 0;    // version the ops apply against (§4.1.1)
  int64_t target_doc_time_ms = 0;  // version the participant holds afterwards
  std::string base_digest;         // TreeDigest of the base canonical tree
  std::string target_digest;       // expected TreeDigest after apply
  std::vector<PatchOp> ops;

  bool operator==(const Patch&) const = default;
};

struct PatchEnvelope {
  Patch patch;
  std::vector<UserAction> user_actions;

  bool operator==(const PatchEnvelope&) const = default;
};

std::string_view PatchOpTypeName(PatchOpType type);
StatusOr<PatchOpType> ParsePatchOpType(std::string_view name);

// Newline-separated op list; one form-urlencoded line per op. Decoding
// validates op names, numeric ranges, path depth, and attribute-name shape
// so garbage input fails with a Status instead of corrupting a tree.
std::string EncodePatchOps(const std::vector<PatchOp>& ops);
StatusOr<std::vector<PatchOp>> DecodePatchOps(std::string_view encoded);

std::string SerializePatchXml(const PatchEnvelope& envelope);
StatusOr<PatchEnvelope> ParsePatchXml(std::string_view xml);

// Cheap discriminator so the snippet can route a poll response body to the
// patch or the snapshot parser without trial-parsing both.
bool LooksLikePatchXml(std::string_view body);

}  // namespace rcb::delta

#endif  // SRC_DELTA_PATCH_CODEC_H_
