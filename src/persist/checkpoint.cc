#include "src/persist/checkpoint.h"

#include <map>
#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/http/form.h"
#include "src/persist/frame.h"
#include "src/util/strings.h"

namespace rcb {
namespace persist {
namespace {

constexpr size_t kMagicSize = 8;

std::string U64(uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

std::string I64(int64_t value) {
  return StrFormat("%lld", static_cast<long long>(value));
}

bool ParseI64(std::string_view s, int64_t* out) {
  if (s.empty()) {
    return false;
  }
  bool negative = s.front() == '-';
  std::string_view digits = negative ? s.substr(1) : s;
  uint64_t magnitude = 0;
  if (!ParseUint64(digits, &magnitude)) {
    return false;
  }
  if (magnitude > static_cast<uint64_t>(INT64_MAX)) {
    return false;
  }
  *out = negative ? -static_cast<int64_t>(magnitude)
                  : static_cast<int64_t>(magnitude);
  return true;
}

// Field lookup over a decoded form payload; every miss is an integrity
// failure (the encoder always writes every field).
class Fields {
 public:
  explicit Fields(std::string_view payload)
      : fields_(ParseFormUrlEncoded(payload)) {}

  Status Get(const std::string& key, std::string* out) const {
    auto it = fields_.find(key);
    if (it == fields_.end()) {
      return AbortedError("checkpoint: missing field " + key);
    }
    *out = it->second;
    return Status::Ok();
  }
  Status GetU64(const std::string& key, uint64_t* out) const {
    std::string raw;
    RCB_RETURN_IF_ERROR(Get(key, &raw));
    if (!ParseUint64(raw, out)) {
      return AbortedError("checkpoint: bad integer field " + key);
    }
    return Status::Ok();
  }
  Status GetI64(const std::string& key, int64_t* out) const {
    std::string raw;
    RCB_RETURN_IF_ERROR(Get(key, &raw));
    if (!ParseI64(raw, out)) {
      return AbortedError("checkpoint: bad integer field " + key);
    }
    return Status::Ok();
  }
  Status GetBool(const std::string& key, bool* out) const {
    std::string raw;
    RCB_RETURN_IF_ERROR(Get(key, &raw));
    if (raw != "0" && raw != "1") {
      return AbortedError("checkpoint: bad bool field " + key);
    }
    *out = raw == "1";
    return Status::Ok();
  }

 private:
  std::map<std::string, std::string> fields_;
};

std::string EncodeParticipant(const ParticipantExport& participant) {
  return EncodeFormUrlEncoded(
      std::vector<std::pair<std::string, std::string>>{
          {"pid", participant.pid},
          {"ts", I64(participant.doc_time_ms)},
          {"seq", U64(participant.last_seq)},
          {"timeouts", U64(participant.timeouts_reported)},
          {"polls", U64(participant.polls)},
      });
}

StatusOr<ParticipantExport> DecodeParticipant(std::string_view payload) {
  Fields fields(payload);
  ParticipantExport participant;
  RCB_RETURN_IF_ERROR(fields.Get("pid", &participant.pid));
  if (participant.pid.empty()) {
    return AbortedError("checkpoint: empty participant id");
  }
  RCB_RETURN_IF_ERROR(fields.GetI64("ts", &participant.doc_time_ms));
  RCB_RETURN_IF_ERROR(fields.GetU64("seq", &participant.last_seq));
  RCB_RETURN_IF_ERROR(fields.GetU64("timeouts", &participant.timeouts_reported));
  RCB_RETURN_IF_ERROR(fields.GetU64("polls", &participant.polls));
  return participant;
}

std::string EncodePending(const PendingActionExport& pending) {
  return EncodeFormUrlEncoded(
      std::vector<std::pair<std::string, std::string>>{
          {"pid", pending.pid},
          {"action", EncodeActions({pending.action})},
      });
}

StatusOr<PendingActionExport> DecodePending(std::string_view payload) {
  Fields fields(payload);
  PendingActionExport pending;
  std::string encoded_action;
  RCB_RETURN_IF_ERROR(fields.Get("pid", &pending.pid));
  RCB_RETURN_IF_ERROR(fields.Get("action", &encoded_action));
  auto actions = DecodeActions(encoded_action);
  if (!actions.ok() || actions->size() != 1) {
    return AbortedError("checkpoint: bad pending action payload");
  }
  pending.action = std::move(actions->front());
  return pending;
}

}  // namespace

std::string EncodeCheckpoint(const SessionCheckpoint& checkpoint) {
  std::string body(kCheckpointMagic, kMagicSize);
  std::string meta = EncodeFormUrlEncoded(
      std::vector<std::pair<std::string, std::string>>{
          {"v", StrFormat("%d", kCheckpointVersion)},
          {"session", checkpoint.session_id},
          {"epoch", U64(checkpoint.epoch)},
          {"created_us", I64(checkpoint.created_at_us)},
          {"doc_time_ms", I64(checkpoint.state.doc_time_ms)},
          {"has_version", checkpoint.state.has_version ? "1" : "0"},
          {"next_pid", U64(checkpoint.state.next_pid)},
          {"url", checkpoint.state.document_url},
          {"doc_sha256", Sha256::HexDigest(checkpoint.state.document_html)},
          {"participants", U64(checkpoint.state.participants.size())},
          {"pending", U64(checkpoint.state.pending_actions.size())},
          {"key", checkpoint.config.session_key},
          {"poll_ms", I64(checkpoint.config.poll_interval_ms)},
          {"cache", checkpoint.config.cache_mode ? "1" : "0"},
          {"delta", checkpoint.config.enable_delta ? "1" : "0"},
          {"trace", checkpoint.config.enable_trace ? "1" : "0"},
          // Retired delivery-model field, still written for format
          // stability; polling (0) is the only value.
          {"sync", "0"},
          {"port", U64(checkpoint.config.port)},
      });
  AppendFrame(&body, static_cast<uint8_t>(CheckpointFrame::kMeta), meta);
  AppendFrame(&body, static_cast<uint8_t>(CheckpointFrame::kDocument),
              checkpoint.state.document_html);
  for (const ParticipantExport& participant : checkpoint.state.participants) {
    AppendFrame(&body, static_cast<uint8_t>(CheckpointFrame::kParticipant),
                EncodeParticipant(participant));
  }
  for (const PendingActionExport& pending : checkpoint.state.pending_actions) {
    AppendFrame(&body, static_cast<uint8_t>(CheckpointFrame::kPending),
                EncodePending(pending));
  }
  AppendFrame(&body, static_cast<uint8_t>(CheckpointFrame::kDigest),
              Sha256::HexDigest(body));
  return body;
}

StatusOr<SessionCheckpoint> DecodeCheckpoint(std::string_view bytes) {
  // Gate 1: magic.
  if (bytes.size() < kMagicSize ||
      bytes.substr(0, kMagicSize) != std::string_view(kCheckpointMagic,
                                                      kMagicSize)) {
    return AbortedError("checkpoint: bad magic");
  }
  // Gate 2: walk the frames (each read CRC-gated), remembering where each
  // one started so the digest frame can cover everything before itself.
  size_t offset = kMagicSize;
  std::vector<Frame> frames;
  bool digest_seen = false;
  while (offset < bytes.size()) {
    if (digest_seen) {
      return AbortedError("checkpoint: trailing bytes after digest frame");
    }
    size_t frame_start = offset;
    auto frame = ReadFrame(bytes, &offset);
    if (!frame.ok()) {
      return AbortedError("checkpoint: " + frame.status().message());
    }
    if (frame->type == static_cast<uint8_t>(CheckpointFrame::kDigest)) {
      // Gate 3: whole-file SHA-256 trailer.
      if (frame->payload != Sha256::HexDigest(bytes.substr(0, frame_start))) {
        return AbortedError("checkpoint: SHA-256 trailer mismatch");
      }
      digest_seen = true;
      continue;
    }
    frames.push_back(std::move(*frame));
  }
  if (!digest_seen) {
    return AbortedError("checkpoint: missing digest trailer");
  }
  // Gate 4: structure. First frame is the meta record; exactly one document.
  if (frames.empty() ||
      frames.front().type != static_cast<uint8_t>(CheckpointFrame::kMeta)) {
    return AbortedError("checkpoint: missing meta frame");
  }
  Fields meta(frames.front().payload);
  uint64_t version = 0;
  RCB_RETURN_IF_ERROR(meta.GetU64("v", &version));
  if (version != static_cast<uint64_t>(kCheckpointVersion)) {
    return InvalidArgumentError(
        StrFormat("checkpoint: unsupported version %llu",
                  static_cast<unsigned long long>(version)));
  }

  SessionCheckpoint checkpoint;
  RCB_RETURN_IF_ERROR(meta.Get("session", &checkpoint.session_id));
  if (checkpoint.session_id.empty()) {
    return AbortedError("checkpoint: empty session id");
  }
  RCB_RETURN_IF_ERROR(meta.GetU64("epoch", &checkpoint.epoch));
  RCB_RETURN_IF_ERROR(meta.GetI64("created_us", &checkpoint.created_at_us));
  RCB_RETURN_IF_ERROR(
      meta.GetI64("doc_time_ms", &checkpoint.state.doc_time_ms));
  RCB_RETURN_IF_ERROR(meta.GetBool("has_version", &checkpoint.state.has_version));
  RCB_RETURN_IF_ERROR(meta.GetU64("next_pid", &checkpoint.state.next_pid));
  RCB_RETURN_IF_ERROR(meta.Get("url", &checkpoint.state.document_url));
  RCB_RETURN_IF_ERROR(meta.Get("key", &checkpoint.config.session_key));
  RCB_RETURN_IF_ERROR(
      meta.GetI64("poll_ms", &checkpoint.config.poll_interval_ms));
  RCB_RETURN_IF_ERROR(meta.GetBool("cache", &checkpoint.config.cache_mode));
  RCB_RETURN_IF_ERROR(meta.GetBool("delta", &checkpoint.config.enable_delta));
  RCB_RETURN_IF_ERROR(meta.GetBool("trace", &checkpoint.config.enable_trace));
  int64_t sync = 0;
  RCB_RETURN_IF_ERROR(meta.GetI64("sync", &sync));
  if (sync != 0) {
    return AbortedError("checkpoint: unknown sync model");
  }
  uint64_t port = 0;
  RCB_RETURN_IF_ERROR(meta.GetU64("port", &port));
  if (port > 65535) {
    return AbortedError("checkpoint: port out of range");
  }
  checkpoint.config.port = static_cast<uint16_t>(port);

  uint64_t expected_participants = 0;
  uint64_t expected_pending = 0;
  RCB_RETURN_IF_ERROR(meta.GetU64("participants", &expected_participants));
  RCB_RETURN_IF_ERROR(meta.GetU64("pending", &expected_pending));
  std::string expected_doc_sha;
  RCB_RETURN_IF_ERROR(meta.Get("doc_sha256", &expected_doc_sha));

  bool document_seen = false;
  for (size_t i = 1; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    switch (static_cast<CheckpointFrame>(frame.type)) {
      case CheckpointFrame::kDocument: {
        if (document_seen) {
          return AbortedError("checkpoint: duplicate document frame");
        }
        document_seen = true;
        // Gate 5: the document's own digest (DOMtegrity discipline) — the
        // restored DOM is provably the DOM that was checkpointed.
        if (Sha256::HexDigest(frame.payload) != expected_doc_sha) {
          return AbortedError("checkpoint: document digest mismatch");
        }
        checkpoint.state.document_html = frame.payload;
        break;
      }
      case CheckpointFrame::kParticipant: {
        auto participant = DecodeParticipant(frame.payload);
        if (!participant.ok()) {
          return participant.status();
        }
        checkpoint.state.participants.push_back(std::move(*participant));
        break;
      }
      case CheckpointFrame::kPending: {
        auto pending = DecodePending(frame.payload);
        if (!pending.ok()) {
          return pending.status();
        }
        checkpoint.state.pending_actions.push_back(std::move(*pending));
        break;
      }
      case CheckpointFrame::kMeta:
      case CheckpointFrame::kDigest:
        return AbortedError("checkpoint: misplaced frame");
      default:
        return AbortedError("checkpoint: unknown frame type");
    }
  }
  if (!document_seen) {
    return AbortedError("checkpoint: missing document frame");
  }
  if (checkpoint.state.participants.size() != expected_participants ||
      checkpoint.state.pending_actions.size() != expected_pending) {
    return AbortedError("checkpoint: roster count mismatch");
  }
  return checkpoint;
}

}  // namespace persist
}  // namespace rcb
