// Per-session durable storage: one checkpoint file plus one write-ahead log,
// with checkpoint-and-truncate to bound log growth (DESIGN.md §13).
//
// Layout under PersistOptions::dir:
//
//   <session_id>.ckpt       last durable checkpoint (RCBCKPT1)
//   <session_id>.ckpt.tmp   in-flight checkpoint (atomic-rename staging)
//   <session_id>.wal        log of transitions since that checkpoint
//
// Every write funnels through the process-fault injector's crash sites, so
// the chaos matrix can cut a write at any defined point; after a simulated
// crash the store goes inert (a dead process writes nothing), and tests
// restart a new host over the same directory to exercise recovery.
//
// All I/O is plain buffered file I/O driven by the deterministic event loop:
// given the same schedule, two runs produce byte-identical files.
#ifndef SRC_PERSIST_SESSION_STORE_H_
#define SRC_PERSIST_SESSION_STORE_H_

#include <cstdint>
#include <string>

#include "src/net/fault_injector.h"
#include "src/persist/checkpoint.h"
#include "src/persist/wal.h"
#include "src/util/status.h"

namespace rcb {
namespace persist {

// WAL bytes since the last checkpoint that make a session checkpoint itself.
inline constexpr uint64_t kCheckpointDirtyBytes = 256 * 1024;

struct PersistOptions {
  // Directory for checkpoint + WAL files. Empty disables persistence.
  std::string dir;
  // A session checkpoints (and truncates its log) once this many WAL records
  // or kCheckpointDirtyBytes have accumulated since the last checkpoint,
  // whichever first.
  uint64_t checkpoint_dirty_records = 64;

  bool enabled() const { return !dir.empty(); }
};

// Shared across all of a host's stores; surfaced as rcb_persist_* metrics.
struct PersistCounters {
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_truncations = 0;
  // Crash-injected partial writes actually emitted to disk.
  uint64_t torn_writes = 0;
  // Recovery-side outcomes.
  uint64_t wal_tail_discards = 0;
  uint64_t wals_discarded = 0;
  uint64_t checkpoints_rejected = 0;
};

class SessionStore {
 public:
  // `counters` must outlive the store; `faults` may be null (no injection).
  SessionStore(std::string session_id, PersistOptions options,
               PersistCounters* counters, ProcessFaultInjector* faults);

  // Appends one record to the log, flushing it durably before returning —
  // the caller acks the client only after this returns. No-op after a
  // simulated crash.
  Status Append(const WalRecord& record);

  // Writes `checkpoint` via tmp-file + atomic rename, advances the epoch,
  // and truncates the log to a fresh header. Stamps checkpoint.epoch itself.
  Status WriteCheckpoint(SessionCheckpoint checkpoint);

  // Deletes this session's files (session closed cleanly; nothing to
  // recover).
  void RemoveFiles();

  // Epoch of the last durable checkpoint. AdoptEpoch seeds it from a
  // recovered checkpoint so the re-baseline write supersedes it.
  uint64_t epoch() const { return epoch_; }
  void AdoptEpoch(uint64_t epoch) { epoch_ = epoch; }

  // Dirty accounting since the last checkpoint.
  uint64_t dirty_records() const { return dirty_records_; }
  uint64_t dirty_bytes() const { return dirty_bytes_; }
  bool ShouldCheckpoint() const {
    return dirty_records_ >= options_.checkpoint_dirty_records ||
           dirty_bytes_ >= kCheckpointDirtyBytes;
  }

  const std::string& session_id() const { return session_id_; }
  std::string CheckpointPath() const;
  std::string WalPath() const;

 private:
  bool Crashed() const;
  bool Crash(CrashPoint site);
  // Appends `bytes` (possibly a torn prefix) to the log file on disk.
  Status AppendToWalFile(std::string_view bytes);

  std::string session_id_;
  PersistOptions options_;
  PersistCounters* counters_;
  ProcessFaultInjector* faults_;
  uint64_t epoch_ = 0;
  uint64_t dirty_records_ = 0;
  uint64_t dirty_bytes_ = 0;
  // Records appended but not yet flushed (the pre-fsync window the
  // kBeforeWalFlush / kPartialFlush crash sites target).
  std::string pending_;
};

// What recovery hands the host for one session, after the full ladder ran:
// checkpoint integrity gates, WAL header/epoch gate, torn-tail truncation,
// and record replay onto the checkpointed state.
struct LoadResult {
  // state already reflects replayed kSeq / kJoin / kLeave records.
  SessionCheckpoint checkpoint;
  // Epoch to continue under (the checkpoint's; the re-baseline supersedes it).
  uint64_t epoch = 0;
  bool wal_present = false;
  bool wal_tail_discarded = false;
  // Whole log dropped: unreadable, bad header, or epoch mismatch.
  bool wal_discarded = false;
  // kDocVersion records whose document bytes were never checkpointed; the
  // session restarts at the checkpointed document and these are gone.
  uint64_t doc_versions_lost = 0;
  // Post-checkpoint audit (kAction) records observed.
  uint64_t actions_logged = 0;
};

// Loads one session from its files, applying the recovery ladder. kAborted
// (or any error) means the checkpoint itself is unusable — per the ladder
// the caller quarantines the files and drops the session, never the host.
StatusOr<LoadResult> LoadSession(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 PersistCounters* counters);

}  // namespace persist
}  // namespace rcb

#endif  // SRC_PERSIST_SESSION_STORE_H_
