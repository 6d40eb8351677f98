// The RCB wire protocol: user actions and the Fig. 4 XML snapshot format.
//
// An Ajax polling request piggybacks the participant's pending actions in its
// POST body; the agent's response carries a `newContent` XML document with
// the document timestamp, the extracted head/body (or frameset) payloads —
// each JS-escape()d inside a CDATA section — and any broadcast user actions.
#ifndef SRC_CORE_PROTOCOL_H_
#define SRC_CORE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/actions.h"
#include "src/http/message.h"
#include "src/util/status.h"

namespace rcb {

// ---------------------------------------------------------------------------
// Element payloads (the escape(data) inside each CDATA section of Fig. 4).
// ---------------------------------------------------------------------------

// One extracted element: its tag, attribute name-value list, and innerHTML.
struct ElementPayload {
  std::string tag;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string inner_html;

  bool operator==(const ElementPayload&) const = default;
};

// Flat encoding carried inside CDATA. Fields are separated by the ASCII unit
// separator; attributes are form-urlencoded (binary-safe after JsEscape).
std::string EncodeElementPayload(const ElementPayload& payload);
// The encoding up to and including the inner_html separator (tag + attrs);
// EncodeElementPayload(p) == EncodeElementPayloadPrefix(p) + p.inner_html.
// The incremental serializer escapes this small prefix fresh each generation
// and splices the cached escaped inner_html after it.
std::string EncodeElementPayloadPrefix(const ElementPayload& payload);
StatusOr<ElementPayload> DecodeElementPayload(std::string_view encoded);

// User actions (ActionType/UserAction and their codec) live in
// src/core/actions.h, re-exported here for the protocol's historical users.

// ---------------------------------------------------------------------------
// Snapshot: the newContent document of Fig. 4.
// ---------------------------------------------------------------------------

struct Snapshot {
  int64_t doc_time_ms = 0;
  // Document content; absent for an actions-only snapshot.
  bool has_content = false;
  std::vector<ElementPayload> head_children;
  std::optional<ElementPayload> body;       // pages using a body element
  std::optional<ElementPayload> frameset;   // pages using frames
  std::optional<ElementPayload> noframes;
  std::vector<UserAction> user_actions;

  bool empty() const {
    return !has_content && user_actions.empty();
  }
};

// Byte accounting for one SerializeSnapshotXml call: the encoded payload
// size before and after JsEscape. Their ratio is the escape() inflation the
// paper's M2 numbers absorb (~1.4–1.8x on the reproduced sites).
struct SnapshotSerializeStats {
  size_t payload_raw_bytes = 0;
  size_t payload_escaped_bytes = 0;
};

// Pre-escaped CDATA payloads for one Snapshot, produced by ContentGenerator
// through its SerializeCache (src/core/serialize_cache): `escaped` is exactly
// JsEscape(EncodeElementPayload(payload)) for the payload at the same
// position in the Snapshot. SnapshotBroadcast keeps one of these per slot so
// per-participant serializations (actions appended) splice the page bytes
// instead of re-escaping them.
struct EscapedPayload {
  std::string escaped;
  size_t raw_bytes = 0;  // pre-escape encoded size, for stats
};

struct SnapshotEscaped {
  bool has_content = false;
  std::vector<EscapedPayload> head_children;
  std::optional<EscapedPayload> body;
  std::optional<EscapedPayload> frameset;
  std::optional<EscapedPayload> noframes;

  // True when this mirrors `snapshot` payload-for-payload — the requirement
  // for handing it to SerializeSnapshotXml alongside that snapshot.
  bool Matches(const Snapshot& snapshot) const;
};

// Serializes per Fig. 4 (with the <?xml?> declaration).
std::string SerializeSnapshotXml(const Snapshot& snapshot);
std::string SerializeSnapshotXml(const Snapshot& snapshot,
                                 SnapshotSerializeStats* stats);
// Full-control variant. `prescaped` (optional) supplies the payload CDATA
// text pre-escaped; it must Match the snapshot and is ignored (with a fresh
// escape) when it does not. `override_actions` (optional) is serialized as
// the userActions element in place of snapshot.user_actions, so callers can
// append a participant's outbox without copying the whole Snapshot. Output
// bytes are identical to the plain overload for equal logical content.
std::string SerializeSnapshotXml(const Snapshot& snapshot,
                                 SnapshotSerializeStats* stats,
                                 const SnapshotEscaped* prescaped,
                                 const std::vector<UserAction>* override_actions);
StatusOr<Snapshot> ParseSnapshotXml(std::string_view xml);

// ---------------------------------------------------------------------------
// Poll request body (what Ajax-Snippet POSTs).
// ---------------------------------------------------------------------------

struct PollRequest {
  std::string participant_id;
  int64_t doc_time_ms = 0;  // timestamp of the participant's current content
  std::vector<UserAction> actions;
  // --- Recovery fields (§3.2.3); zero-valued fields are omitted on the wire
  // so pre-recovery agents and captures stay byte-compatible. ---
  // Monotonically increasing per participant when set (>= 1). The agent
  // rejects a signed poll whose seq is not newer than the last one seen,
  // which makes replayed polls detectable.
  uint64_t seq = 0;
  // Cumulative count of polls the snippet abandoned on timeout.
  uint64_t timeouts = 0;
  // Participant is recovering and wants a full snapshot regardless of
  // timestamp deltas.
  bool resync = false;
  // Capability advertisement: the participant can apply newPatch delta
  // responses (src/delta). An agent that does not understand the field
  // ignores it; an agent with delta disabled keeps answering with full
  // snapshots, so the downgrade is automatic in both directions.
  bool patch = false;
  // Causal trace id for this round trip (DESIGN.md §11), `<pid>-<poll-seq>`.
  // Negotiated like patch=1: the field is absent when tracing is off on the
  // snippet side (byte-identical wire) and an agent with tracing off ignores
  // it, so the downgrade is automatic in both directions. Never affects the
  // response bytes — it only correlates observability spans.
  std::string trace;
  // Streamed-transport capability level (DESIGN.md §15):
  // 0 = classic polling (field omitted on the wire, byte-identical to the
  // pre-transport format), 1 or 2 = long-poll capable (2 also pre-empts its
  // parked poll with gestures, a snippet-side difference only).
  // An agent with the transport disabled ignores the field, so the downgrade
  // is automatic in both directions — the same contract as patch=/trace=.
  uint32_t stream = 0;
};

std::string EncodePollRequest(const PollRequest& request);
StatusOr<PollRequest> DecodePollRequest(std::string_view body);

// ---------------------------------------------------------------------------
// Request authentication (§3.4).
// ---------------------------------------------------------------------------

// True when `request` carries an `hmac` query parameter equal, in constant
// time, to HmacSha256Hex(key, "<METHOD> <target>\n<body>"), where <target>
// is the path plus the remaining query parameters re-encoded in order. An
// empty key means authentication is off, and every request passes.
bool VerifyRequestMac(std::string_view key, const HttpRequest& request);

}  // namespace rcb

#endif  // SRC_CORE_PROTOCOL_H_
