#include "src/persist/wal.h"

#include <map>
#include <utility>

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

bool Lookup(const std::map<std::string, std::string>& fields,
            const std::string& key, std::string* out) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

// Decodes one post-header record frame. Returns false on any malformed
// payload — the caller treats that exactly like a torn frame and discards
// the tail from there.
bool DecodeRecord(const Frame& frame, WalRecord* record) {
  record->type = static_cast<WalRecordType>(frame.type);
  auto fields = ParseFormUrlEncoded(frame.payload);
  std::string raw;
  switch (record->type) {
    case WalRecordType::kDocVersion:
      return Lookup(fields, "ts", &raw) &&
             ParseInt64(raw, &record->doc_time_ms);
    case WalRecordType::kSeq: {
      if (!Lookup(fields, "pid", &record->pid) || record->pid.empty() ||
          !Lookup(fields, "seq", &raw)) {
        return false;
      }
      return ParseUint64(raw, &record->seq);
    }
    case WalRecordType::kAction: {
      if (!Lookup(fields, "pid", &record->pid) || record->pid.empty() ||
          !Lookup(fields, "action", &raw)) {
        return false;
      }
      auto actions = DecodeActions(raw);
      if (!actions.ok() || actions->size() != 1) {
        return false;
      }
      record->action = std::move(actions->front());
      return true;
    }
    case WalRecordType::kJoin:
    case WalRecordType::kLeave:
      return Lookup(fields, "pid", &record->pid) && !record->pid.empty();
    case WalRecordType::kHeader:
      return false;  // a second header is corruption
  }
  return false;  // unknown type byte under a valid CRC: treat as corrupt
}

}  // namespace

std::string EncodeWalFileHeader(const std::string& session_id, uint64_t epoch,
                                int64_t base_doc_time_ms) {
  std::string out(kWalMagic, kMagicSize);
  std::string payload = EncodeFormUrlEncoded(
      std::vector<std::pair<std::string, std::string>>{
          {"session", session_id},
          {"epoch", U64(epoch)},
          {"base_ts", I64(base_doc_time_ms)},
      });
  AppendFrame(&out, static_cast<uint8_t>(WalRecordType::kHeader), payload);
  return out;
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::vector<std::pair<std::string, std::string>> fields;
  switch (record.type) {
    case WalRecordType::kDocVersion:
      fields.emplace_back("ts", I64(record.doc_time_ms));
      break;
    case WalRecordType::kSeq:
      fields.emplace_back("pid", record.pid);
      fields.emplace_back("seq", U64(record.seq));
      break;
    case WalRecordType::kAction:
      fields.emplace_back("pid", record.pid);
      fields.emplace_back("action", EncodeActions({record.action}));
      break;
    case WalRecordType::kJoin:
    case WalRecordType::kLeave:
      fields.emplace_back("pid", record.pid);
      break;
    case WalRecordType::kHeader:
      break;  // never encoded through this path
  }
  return EncodeFrame(static_cast<uint8_t>(record.type),
                     EncodeFormUrlEncoded(fields));
}

StatusOr<WalReplay> DecodeWal(std::string_view bytes) {
  if (bytes.size() < kMagicSize ||
      bytes.substr(0, kMagicSize) != std::string_view(kWalMagic, kMagicSize)) {
    return AbortedError("wal: bad magic");
  }
  size_t offset = kMagicSize;
  auto header = ReadFrame(bytes, &offset);
  if (!header.ok() ||
      header->type != static_cast<uint8_t>(WalRecordType::kHeader)) {
    return AbortedError("wal: missing header frame");
  }
  auto fields = ParseFormUrlEncoded(header->payload);
  WalReplay replay;
  std::string raw;
  if (!Lookup(fields, "session", &replay.session_id) ||
      replay.session_id.empty() || !Lookup(fields, "epoch", &raw) ||
      !ParseUint64(raw, &replay.epoch) || !Lookup(fields, "base_ts", &raw) ||
      !ParseInt64(raw, &replay.base_doc_time_ms)) {
    return AbortedError("wal: malformed header");
  }
  replay.bytes_replayed = offset;
  while (true) {
    auto frame = ReadFrame(bytes, &offset);
    if (!frame.ok()) {
      // kOutOfRange is the clean end; anything else is the torn tail.
      replay.tail_discarded = frame.status().code() != StatusCode::kOutOfRange;
      break;
    }
    WalRecord record;
    if (!DecodeRecord(*frame, &record)) {
      replay.tail_discarded = true;
      break;
    }
    replay.records.push_back(std::move(record));
    replay.bytes_replayed = offset;
  }
  return replay;
}

}  // namespace persist
}  // namespace rcb
