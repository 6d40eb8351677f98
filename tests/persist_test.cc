// Tests for the durability subsystem (src/persist, DESIGN.md §13): the
// CRC-framed container, the digest-gated checkpoint codec, WAL encode/replay
// with torn-tail truncation, the SessionStore checkpoint-and-truncate cycle,
// every CrashPoint's on-disk aftermath, and the recovery integrity ladder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "src/crypto/sha256.h"
#include "src/net/fault_injector.h"
#include "src/persist/checkpoint.h"
#include "src/persist/frame.h"
#include "src/persist/session_store.h"
#include "src/persist/wal.h"

namespace rcb {
namespace persist {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// A fresh directory per test so leftover files never cross-contaminate.
std::string MakePersistDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("rcb_persist_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SessionCheckpoint MakeCheckpoint() {
  SessionCheckpoint checkpoint;
  checkpoint.session_id = "alpha";
  checkpoint.epoch = 7;
  checkpoint.created_at_us = 123456;
  checkpoint.config.session_key = "top&secret=key";
  checkpoint.config.poll_interval_ms = 250;
  checkpoint.config.cache_mode = true;
  checkpoint.config.enable_delta = true;
  checkpoint.config.enable_trace = false;
  checkpoint.config.port = 3004;
  checkpoint.state.doc_time_ms = 9001;
  checkpoint.state.has_version = true;
  checkpoint.state.next_pid = 4;
  checkpoint.state.document_html =
      "<html><head><title>T</title></head><body><p>x &amp; y</p></body></html>";
  checkpoint.state.document_url = "http://host-pc:3004/doc";
  checkpoint.state.participants.push_back(
      ParticipantExport{"p1", -1, 17, 2, 40});
  checkpoint.state.participants.push_back(
      ParticipantExport{"p3", -1, 5, 0, 9});
  UserAction held;
  held.type = ActionType::kNavigate;
  held.data = "http://example.test/next?a=1&b=2";
  held.origin = "p1";
  checkpoint.state.pending_actions.push_back(PendingActionExport{"p1", held});
  return checkpoint;
}

// ------------------------------------------------------------ framing ------

TEST(FrameTest, RoundTripAndEndOfStream) {
  std::string buffer;
  AppendFrame(&buffer, 1, "hello");
  AppendFrame(&buffer, 2, "");
  size_t offset = 0;
  auto first = ReadFrame(buffer, &offset);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->type, 1);
  EXPECT_EQ(first->payload, "hello");
  auto second = ReadFrame(buffer, &offset);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, 2);
  EXPECT_EQ(second->payload, "");
  auto end = ReadFrame(buffer, &offset);
  EXPECT_EQ(end.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, TornAndCorruptFramesAreAborted) {
  std::string buffer;
  AppendFrame(&buffer, 3, "payload-bytes");
  // Every proper prefix is torn, never OutOfRange, never a crash.
  for (size_t cut = 1; cut < buffer.size(); ++cut) {
    size_t offset = 0;
    auto frame = ReadFrame(std::string_view(buffer).substr(0, cut), &offset);
    EXPECT_EQ(frame.status().code(), StatusCode::kAborted) << "cut=" << cut;
  }
  // A flipped payload bit fails the CRC gate.
  std::string flipped = buffer;
  flipped[6] = static_cast<char>(flipped[6] ^ 0x40);
  size_t offset = 0;
  auto frame = ReadFrame(flipped, &offset);
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
  EXPECT_NE(frame.status().message().find("CRC"), std::string::npos);
}

// ----------------------------------------------------- checkpoint codec ----

TEST(CheckpointTest, RoundTripPreservesEveryField) {
  SessionCheckpoint original = MakeCheckpoint();
  std::string bytes = EncodeCheckpoint(original);
  auto decoded = DecodeCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->session_id, original.session_id);
  EXPECT_EQ(decoded->epoch, original.epoch);
  EXPECT_EQ(decoded->created_at_us, original.created_at_us);
  EXPECT_EQ(decoded->config, original.config);
  EXPECT_EQ(decoded->state, original.state);
}

TEST(CheckpointTest, EncodingIsDeterministic) {
  SessionCheckpoint checkpoint = MakeCheckpoint();
  EXPECT_EQ(EncodeCheckpoint(checkpoint), EncodeCheckpoint(checkpoint));
}

TEST(CheckpointTest, TornWriteCorpusIsRejectedWithoutCrashing) {
  std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  // Every truncation point — mid-magic, mid-length, mid-payload, mid-digest —
  // must reject as a unit. This is the same corpus scripts/ci.sh feeds
  // checkpoint_inspect.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = DecodeCheckpoint(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  // Trailing bytes after the digest trailer are equally fatal: the file is
  // not byte-for-byte what was hashed.
  auto padded = DecodeCheckpoint(bytes + "x");
  EXPECT_EQ(padded.status().code(), StatusCode::kAborted);
}

TEST(CheckpointTest, BitFlipsAnywhereFailAnIntegrityGate) {
  std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  // Stride keeps the corpus small; gates covered: magic, CRC, whole-file
  // digest, document SHA, roster counts.
  for (size_t i = 0; i < bytes.size(); i += 7) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    auto decoded = DecodeCheckpoint(mutated);
    EXPECT_FALSE(decoded.ok()) << "flip at byte " << i;
  }
}

TEST(CheckpointTest, UnknownSyncModelIsRejected) {
  // Re-frame the meta record with sync=1 under valid CRCs and a valid
  // SHA-256 trailer: every integrity gate passes, so only the field check
  // can reject it.
  std::string bytes = EncodeCheckpoint(MakeCheckpoint());
  std::string reframed(kCheckpointMagic, 8);
  size_t offset = 8;
  while (true) {
    auto frame = ReadFrame(bytes, &offset);
    if (!frame.ok()) {
      ASSERT_EQ(frame.status().code(), StatusCode::kOutOfRange);
      break;
    }
    if (frame->type == static_cast<uint8_t>(CheckpointFrame::kDigest)) {
      continue;
    }
    std::string payload = frame->payload;
    if (frame->type == static_cast<uint8_t>(CheckpointFrame::kMeta)) {
      size_t at = payload.find("&sync=0&");
      ASSERT_NE(at, std::string::npos);
      payload.replace(at, 8, "&sync=1&");
    }
    AppendFrame(&reframed, frame->type, payload);
  }
  AppendFrame(&reframed, static_cast<uint8_t>(CheckpointFrame::kDigest),
              Sha256::HexDigest(reframed));
  auto decoded = DecodeCheckpoint(reframed);
  EXPECT_EQ(decoded.status().code(), StatusCode::kAborted);
  EXPECT_NE(decoded.status().message().find("sync"), std::string::npos)
      << decoded.status();
}

// ------------------------------------------------------------------ WAL ----

TEST(WalTest, RoundTripAndTornTailTruncation) {
  std::string log = EncodeWalFileHeader("alpha", 3, 1000);
  std::vector<WalRecord> records;
  WalRecord version;
  version.type = WalRecordType::kDocVersion;
  version.doc_time_ms = 2000;
  records.push_back(version);
  WalRecord join;
  join.type = WalRecordType::kJoin;
  join.pid = "p2";
  records.push_back(join);
  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p2";
  seq.seq = 11;
  records.push_back(seq);
  WalRecord leave;
  leave.type = WalRecordType::kLeave;
  leave.pid = "p1";
  records.push_back(leave);
  for (const WalRecord& record : records) {
    log += EncodeWalRecord(record);
  }

  auto replay = DecodeWal(log);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->session_id, "alpha");
  EXPECT_EQ(replay->epoch, 3u);
  EXPECT_EQ(replay->base_doc_time_ms, 1000);
  EXPECT_FALSE(replay->tail_discarded);
  EXPECT_EQ(replay->records, records);
  EXPECT_EQ(replay->bytes_replayed, log.size());

  // Cutting the log at any byte past the header replays the intact record
  // prefix and flags (at most) a discarded tail — never an error. A cut
  // exactly on a frame boundary is a clean end of stream, not a torn tail.
  size_t header_size = EncodeWalFileHeader("alpha", 3, 1000).size();
  std::set<size_t> boundaries;
  size_t boundary = header_size;
  boundaries.insert(boundary);
  for (const WalRecord& record : records) {
    boundary += EncodeWalRecord(record).size();
    boundaries.insert(boundary);
  }
  for (size_t cut = header_size; cut < log.size(); ++cut) {
    auto torn = DecodeWal(std::string_view(log).substr(0, cut));
    ASSERT_TRUE(torn.ok()) << "cut=" << cut;
    EXPECT_EQ(torn->tail_discarded, !boundaries.contains(cut))
        << "cut=" << cut;
    EXPECT_LE(torn->records.size(), records.size());
    EXPECT_LE(torn->bytes_replayed, cut);
    for (size_t i = 0; i < torn->records.size(); ++i) {
      EXPECT_EQ(torn->records[i], records[i]) << "cut=" << cut;
    }
  }
}

TEST(WalTest, BadMagicOrHeaderDiscardsTheWholeLog) {
  EXPECT_EQ(DecodeWal("NOTAWAL0").status().code(), StatusCode::kAborted);
  EXPECT_EQ(DecodeWal("").status().code(), StatusCode::kAborted);
  // Magic alone, no header frame.
  std::string magic_only(kWalMagic, 8);
  EXPECT_EQ(DecodeWal(magic_only).status().code(), StatusCode::kAborted);
}

// ---------------------------------------------------------- SessionStore ---

TEST(SessionStoreTest, CheckpointAndTruncateBoundsLogGrowth) {
  PersistOptions options;
  options.dir = MakePersistDir("truncate");
  options.checkpoint_dirty_records = 4;
  PersistCounters counters;
  SessionStore store("alpha", options, &counters, nullptr);
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());
  EXPECT_EQ(store.epoch(), 1u);

  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p1";
  for (int i = 1; i <= 4; ++i) {
    seq.seq = static_cast<uint64_t>(i);
    ASSERT_TRUE(store.Append(seq).ok());
  }
  EXPECT_TRUE(store.ShouldCheckpoint());
  uintmax_t grown = fs::file_size(store.WalPath());
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.dirty_records(), 0u);
  EXPECT_FALSE(store.ShouldCheckpoint());
  EXPECT_LT(fs::file_size(store.WalPath()), grown);
  EXPECT_EQ(counters.checkpoints_written, 2u);
  EXPECT_EQ(counters.wal_truncations, 2u);
  EXPECT_EQ(counters.wal_records, 4u);

  // The truncated log carries the new epoch: recovery applies it cleanly.
  auto loaded =
      LoadSession(store.CheckpointPath(), store.WalPath(), &counters);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_TRUE(loaded->wal_present);
  EXPECT_FALSE(loaded->wal_discarded);
  EXPECT_FALSE(loaded->wal_tail_discarded);
}

TEST(SessionStoreTest, DoubleRunsProduceByteIdenticalFiles) {
  auto run = [](const std::string& dir) {
    PersistOptions options;
    options.dir = dir;
    PersistCounters counters;
    SessionStore store("alpha", options, &counters, nullptr);
    EXPECT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());
    WalRecord join;
    join.type = WalRecordType::kJoin;
    join.pid = "p4";
    EXPECT_TRUE(store.Append(join).ok());
    WalRecord seq;
    seq.type = WalRecordType::kSeq;
    seq.pid = "p4";
    seq.seq = 2;
    EXPECT_TRUE(store.Append(seq).ok());
    return std::make_pair(ReadAll(store.CheckpointPath()),
                          ReadAll(store.WalPath()));
  };
  auto first = run(MakePersistDir("det_a"));
  auto second = run(MakePersistDir("det_b"));
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(SessionStoreTest, StaleWalFromSupersededEpochIsDiscarded) {
  PersistOptions options;
  options.dir = MakePersistDir("epoch");
  PersistCounters counters;
  SessionStore store("alpha", options, &counters, nullptr);
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());

  // A log from the previous generation (epoch 0) moved over the live one.
  std::string stale = EncodeWalFileHeader("alpha", 0, 0);
  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p1";
  seq.seq = 999;
  stale += EncodeWalRecord(seq);
  WriteAll(store.WalPath(), stale);

  auto loaded =
      LoadSession(store.CheckpointPath(), store.WalPath(), &counters);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->wal_discarded);
  EXPECT_EQ(counters.wals_discarded, 1u);
  // The replay never touched the roster: p1 keeps its checkpointed seq.
  EXPECT_EQ(loaded->checkpoint.state.participants[0].last_seq, 17u);
}

TEST(SessionStoreTest, WalFromAnotherSessionIsDiscarded) {
  PersistOptions options;
  options.dir = MakePersistDir("session_mismatch");
  PersistCounters counters;
  SessionStore store("alpha", options, &counters, nullptr);
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());
  WriteAll(store.WalPath(), EncodeWalFileHeader("beta", 1, 0));
  auto loaded =
      LoadSession(store.CheckpointPath(), store.WalPath(), &counters);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->wal_discarded);
}

TEST(SessionStoreTest, WalReplayRebuildsRosterAndAntiReplayState) {
  PersistOptions options;
  options.dir = MakePersistDir("replay");
  PersistCounters counters;
  SessionStore store("alpha", options, &counters, nullptr);
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());

  WalRecord join;
  join.type = WalRecordType::kJoin;
  join.pid = "p7";
  ASSERT_TRUE(store.Append(join).ok());
  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p7";
  seq.seq = 21;
  ASSERT_TRUE(store.Append(seq).ok());
  seq.pid = "p1";
  seq.seq = 30;
  ASSERT_TRUE(store.Append(seq).ok());
  WalRecord leave;
  leave.type = WalRecordType::kLeave;
  leave.pid = "p3";
  ASSERT_TRUE(store.Append(leave).ok());
  WalRecord version;
  version.type = WalRecordType::kDocVersion;
  version.doc_time_ms = 99999;
  ASSERT_TRUE(store.Append(version).ok());
  UserAction click;
  click.type = ActionType::kClick;
  click.target = 3;
  WalRecord action;
  action.type = WalRecordType::kAction;
  action.pid = "p7";
  action.action = click;
  ASSERT_TRUE(store.Append(action).ok());

  auto loaded =
      LoadSession(store.CheckpointPath(), store.WalPath(), &counters);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const AgentStateExport& state = loaded->checkpoint.state;
  ASSERT_EQ(state.participants.size(), 2u);  // p1 kept, p3 left, p7 joined
  EXPECT_EQ(state.participants[0].pid, "p1");
  EXPECT_EQ(state.participants[0].last_seq, 30u);
  EXPECT_EQ(state.participants[1].pid, "p7");
  EXPECT_EQ(state.participants[1].last_seq, 21u);
  // The pid allocator stays ahead of every pid that ever joined.
  EXPECT_GE(state.next_pid, 8u);
  // Post-checkpoint document versions have no durable bytes: counted lost,
  // the checkpointed document (and its doc_time) is what restores.
  EXPECT_EQ(loaded->doc_versions_lost, 1u);
  EXPECT_EQ(state.doc_time_ms, 9001);
  // Audit records observed, never replayed.
  EXPECT_EQ(loaded->actions_logged, 1u);
}

// ------------------------------------------------ crash-point aftermaths ---

struct CrashCase {
  CrashPoint point;
  // After recovery: does p9's post-checkpoint seq advance survive?
  bool seq_survives;
  // Does recovery flag a discarded (torn) tail?
  bool tail_discarded;
};

class CrashPointTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashPointTest, RecoveryMatchesTheDefinedAftermath) {
  const CrashCase& c = GetParam();
  PersistOptions options;
  options.dir = MakePersistDir(std::string("crash_") +
                               CrashPointName(c.point));
  PersistCounters counters;
  ProcessFaultInjector faults;
  SessionStore store("alpha", options, &counters, &faults);
  ASSERT_TRUE(store.WriteCheckpoint(MakeCheckpoint()).ok());

  // One durable record before the crash window, then arm and hit the site.
  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p1";
  seq.seq = 18;
  ASSERT_TRUE(store.Append(seq).ok());
  faults.Arm(CrashPlan{c.point, 0, ""});
  seq.pid = "p9";
  seq.seq = 44;
  if (c.point == CrashPoint::kTornCheckpointTmp ||
      c.point == CrashPoint::kTornCheckpointSwap) {
    ASSERT_TRUE(store.Append(seq).ok());
    (void)store.WriteCheckpoint(MakeCheckpoint());
  } else {
    (void)store.Append(seq);
  }
  EXPECT_TRUE(faults.crashed());
  // The dead process writes nothing more.
  WalRecord after;
  after.type = WalRecordType::kSeq;
  after.pid = "p1";
  after.seq = 100;
  ASSERT_TRUE(store.Append(after).ok());

  auto loaded =
      LoadSession(store.CheckpointPath(), store.WalPath(), &counters);
  if (c.point == CrashPoint::kTornCheckpointSwap) {
    // The worst defined crash: the old checkpoint was overwritten by a torn
    // one. Recovery rejects the session as a unit — and only the session.
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(counters.checkpoints_rejected, 1u);
    return;
  }
  ASSERT_TRUE(loaded.ok()) << CrashPointName(c.point) << ": "
                           << loaded.status();
  EXPECT_EQ(loaded->wal_tail_discarded, c.tail_discarded)
      << CrashPointName(c.point);
  const AgentStateExport& state = loaded->checkpoint.state;
  const ParticipantExport* p9 = nullptr;
  for (const ParticipantExport& participant : state.participants) {
    if (participant.pid == "p9") {
      p9 = &participant;
    }
  }
  EXPECT_EQ(p9 != nullptr && p9->last_seq == 44, c.seq_survives)
      << CrashPointName(c.point);
  // The pre-crash record is durable in every aftermath.
  EXPECT_EQ(state.participants[0].pid, "p1");
  EXPECT_EQ(state.participants[0].last_seq, 18u);
  // Nothing after the kill instant reached disk.
  EXPECT_NE(state.participants[0].last_seq, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCrashPoints, CrashPointTest,
    ::testing::Values(
        // Durable append, lost ack: the record survives.
        CrashCase{CrashPoint::kAfterWalAppend, true, false},
        // Buffered, never flushed: the record is simply gone, file is clean.
        CrashCase{CrashPoint::kBeforeWalFlush, false, false},
        // Died mid-frame: half the record on disk, recovery cuts the tail.
        CrashCase{CrashPoint::kTornWalFrame, false, true},
        // Flush cut at an arbitrary byte: prefix replays, tail cut.
        CrashCase{CrashPoint::kPartialFlush, false, true},
        // Torn staging file: previous checkpoint + full WAL intact.
        CrashCase{CrashPoint::kTornCheckpointTmp, true, false},
        // Torn in-place swap: checkpoint rejected (asserted separately).
        CrashCase{CrashPoint::kTornCheckpointSwap, false, false}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return std::string(CrashPointName(info.param.point));
    });

TEST(CrashPointTest, SessionFilterOnlyCountsTheTargetSession) {
  PersistOptions options;
  options.dir = MakePersistDir("filter");
  PersistCounters counters;
  ProcessFaultInjector faults;
  faults.Arm(CrashPlan{CrashPoint::kAfterWalAppend, 0, "beta"});
  SessionStore alpha("alpha", options, &counters, &faults);
  SessionStore beta("beta", options, &counters, &faults);
  ASSERT_TRUE(alpha.WriteCheckpoint(MakeCheckpoint()).ok());
  WalRecord seq;
  seq.type = WalRecordType::kSeq;
  seq.pid = "p1";
  seq.seq = 1;
  ASSERT_TRUE(alpha.Append(seq).ok());
  EXPECT_FALSE(faults.crashed());  // alpha's stream never matched
  ASSERT_TRUE(beta.Append(seq).ok());
  EXPECT_TRUE(faults.crashed());
  EXPECT_EQ(faults.metrics().crashes, 1u);
}

}  // namespace
}  // namespace persist
}  // namespace rcb
