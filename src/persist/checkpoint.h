// Versioned, digest-gated session checkpoint codec (DESIGN.md §13).
//
// File layout:
//
//   "RCBCKPT1"                                  8-byte magic + version
//   frame kMeta        form-urlencoded scalars (ids, versions, config,
//                      participant/pending counts, document SHA-256)
//   frame kDocument    serialized document HTML (raw bytes)
//   frame kParticipant one per roster entry, form-urlencoded
//   frame kPending     one per held action, form-urlencoded
//   frame kDigest      lowercase-hex SHA-256 over every preceding byte
//                      (magic through the last data frame)
//
// Decoding applies the DOMtegrity-style integrity ladder: magic gate, per
// frame CRC gate, structural gates (first frame is kMeta, counts match,
// digest frame is last), document digest gate, and the whole-file SHA-256
// trailer gate. Any violation rejects the checkpoint as a unit — a torn or
// bit-flipped checkpoint never yields a half-restored session.
#ifndef SRC_PERSIST_CHECKPOINT_H_
#define SRC_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/agent_state.h"
#include "src/util/status.h"

namespace rcb {
namespace persist {

inline constexpr char kCheckpointMagic[] = "RCBCKPT1";  // 8 bytes, v1
inline constexpr int kCheckpointVersion = 1;

// Frame types used inside a checkpoint file.
enum class CheckpointFrame : uint8_t {
  kMeta = 1,
  kDocument = 2,
  kParticipant = 3,
  kPending = 4,
  kDigest = 15,
};

// The per-session agent configuration a recovered session must run under.
// Persisted because snippets negotiated against it (the session key signs
// their polls; the poll interval and cache/delta modes shaped their state) —
// recovering under host defaults would strand every existing participant.
struct SessionConfigExport {
  std::string session_key;
  int64_t poll_interval_ms = 1000;
  bool cache_mode = true;
  bool enable_delta = false;
  bool enable_trace = false;
  // The port the session listened on. Snippets poll it directly, so recovery
  // must reopen the same one.
  uint16_t port = 0;

  bool operator==(const SessionConfigExport&) const = default;
};

struct SessionCheckpoint {
  std::string session_id;
  // WAL generation this checkpoint supersedes; the live WAL's header must
  // carry the same epoch for its records to apply on top.
  uint64_t epoch = 0;
  int64_t created_at_us = 0;  // sim time of the checkpoint write
  SessionConfigExport config;
  AgentStateExport state;
};

std::string EncodeCheckpoint(const SessionCheckpoint& checkpoint);

// Rejects with kAborted on any integrity-gate violation; the message names
// the gate that fired. kInvalidArgument for structurally valid files of an
// unsupported version.
StatusOr<SessionCheckpoint> DecodeCheckpoint(std::string_view bytes);

}  // namespace persist
}  // namespace rcb

#endif  // SRC_PERSIST_CHECKPOINT_H_
