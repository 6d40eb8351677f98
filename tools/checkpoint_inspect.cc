// Inspects the durability artifacts of src/persist (DESIGN.md §13):
// checkpoint files ("RCBCKPT1") and write-ahead logs ("RCBWAL01").
//
// Usage:
//   checkpoint_inspect [--json] dump FILE...     decode and print contents
//   checkpoint_inspect [--json] verify FILE...   run every integrity gate;
//                                                exit 0 iff all files pass
//   checkpoint_inspect make-sample DIR           write a deterministic
//                                                sample.ckpt + sample.wal
//                                                (CI builds its torn-write
//                                                corpus by truncating them)
//
// verify never crashes on hostile input — a torn, truncated, or bit-flipped
// file is reported as INVALID with the gate that fired. A WAL whose tail is
// torn is still OK (recovery cuts the tail); a WAL with a bad magic or
// header is INVALID (recovery drops the whole log).
//
// --json emits one machine-readable report object (schema_version 1):
//   {"schema_version":1,"tool":"checkpoint_inspect","files":[
//     {"path":...,"kind":"checkpoint"|"wal"|"unknown","valid":bool,
//      "error":"..."?,                         // when !valid
//      "session_id":...,"epoch":N,             // decoded kinds
//      checkpoint: "doc_time_ms":N,"participants":N,"pending_actions":N,
//                  "document_bytes":N,"port":N,
//      wal:        "base_doc_time_ms":N,"records":N,"tail_discarded":bool,
//                  "bytes_replayed":N}]}
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/persist/checkpoint.h"
#include "src/persist/session_store.h"
#include "src/persist/wal.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace {

using rcb::persist::DecodeCheckpoint;
using rcb::persist::DecodeWal;
using rcb::persist::SessionCheckpoint;
using rcb::persist::WalReplay;

constexpr int kSchemaVersion = 1;

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  if (!*ok) {
    return "";
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

const char* WalRecordTypeName(rcb::persist::WalRecordType type) {
  switch (type) {
    case rcb::persist::WalRecordType::kHeader:
      return "header";
    case rcb::persist::WalRecordType::kDocVersion:
      return "doc_version";
    case rcb::persist::WalRecordType::kSeq:
      return "seq";
    case rcb::persist::WalRecordType::kAction:
      return "action";
    case rcb::persist::WalRecordType::kJoin:
      return "join";
    case rcb::persist::WalRecordType::kLeave:
      return "leave";
  }
  return "unknown";
}

// One file's inspection outcome, shared by dump/verify and both output
// modes.
struct FileReport {
  std::string path;
  std::string kind = "unknown";  // checkpoint | wal | unknown
  bool valid = false;
  std::string error;
  SessionCheckpoint checkpoint;  // kind == checkpoint && valid
  WalReplay wal;                 // kind == wal && valid
};

FileReport Inspect(const std::string& path) {
  FileReport report;
  report.path = path;
  bool ok = false;
  std::string bytes = ReadFile(path, &ok);
  if (!ok) {
    report.error = "cannot open file";
    return report;
  }
  if (bytes.rfind(rcb::persist::kCheckpointMagic, 0) == 0) {
    report.kind = "checkpoint";
    auto decoded = DecodeCheckpoint(bytes);
    if (decoded.ok()) {
      report.valid = true;
      report.checkpoint = std::move(*decoded);
    } else {
      report.error = decoded.status().ToString();
    }
    return report;
  }
  if (bytes.rfind(rcb::persist::kWalMagic, 0) == 0) {
    report.kind = "wal";
    auto decoded = DecodeWal(bytes);
    if (decoded.ok()) {
      report.valid = true;  // a torn tail is recoverable, not invalid
      report.wal = std::move(*decoded);
    } else {
      report.error = decoded.status().ToString();
    }
    return report;
  }
  report.error = "unrecognized magic (not a checkpoint or WAL)";
  return report;
}

void PrintHuman(const FileReport& report, bool dump) {
  if (!report.valid) {
    std::printf("INVALID %-10s %s: %s\n", report.kind.c_str(),
                report.path.c_str(), report.error.c_str());
    return;
  }
  if (report.kind == "checkpoint") {
    const SessionCheckpoint& c = report.checkpoint;
    std::printf(
        "ok      checkpoint %s: session=%s epoch=%llu doc_time_ms=%lld "
        "participants=%zu pending=%zu document_bytes=%zu port=%u\n",
        report.path.c_str(), c.session_id.c_str(),
        static_cast<unsigned long long>(c.epoch),
        static_cast<long long>(c.state.doc_time_ms), c.state.participants.size(),
        c.state.pending_actions.size(), c.state.document_html.size(),
        c.config.port);
    if (dump) {
      std::printf("  config: poll_interval_ms=%lld cache_mode=%d "
                  "enable_delta=%d enable_trace=%d key_bytes=%zu\n",
                  static_cast<long long>(c.config.poll_interval_ms),
                  c.config.cache_mode ? 1 : 0, c.config.enable_delta ? 1 : 0,
                  c.config.enable_trace ? 1 : 0,
                  c.config.session_key.size());
      for (const auto& participant : c.state.participants) {
        std::printf("  participant %s: doc_time_ms=%lld last_seq=%llu "
                    "polls=%llu\n",
                    participant.pid.c_str(),
                    static_cast<long long>(participant.doc_time_ms),
                    static_cast<unsigned long long>(participant.last_seq),
                    static_cast<unsigned long long>(participant.polls));
      }
      for (const auto& pending : c.state.pending_actions) {
        std::printf("  pending %s: action\n", pending.pid.c_str());
      }
    }
    return;
  }
  const WalReplay& w = report.wal;
  std::printf(
      "ok      wal        %s: session=%s epoch=%llu base_doc_time_ms=%lld "
      "records=%zu tail_discarded=%d bytes_replayed=%zu\n",
      report.path.c_str(), w.session_id.c_str(),
      static_cast<unsigned long long>(w.epoch),
      static_cast<long long>(w.base_doc_time_ms), w.records.size(),
      w.tail_discarded ? 1 : 0, w.bytes_replayed);
  if (dump) {
    for (const auto& record : w.records) {
      std::printf("  record %-11s pid=%s seq=%llu doc_time_ms=%lld\n",
                  WalRecordTypeName(record.type), record.pid.c_str(),
                  static_cast<unsigned long long>(record.seq),
                  static_cast<long long>(record.doc_time_ms));
    }
  }
}

std::string ToJson(const std::vector<FileReport>& reports) {
  std::string out = "{\"schema_version\":" + std::to_string(kSchemaVersion) +
                    ",\"tool\":\"checkpoint_inspect\",\"files\":[";
  bool first = true;
  for (const FileReport& report : reports) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"path\":\"" + rcb::JsonEscape(report.path) + "\",\"kind\":\"" +
           report.kind + "\",\"valid\":" + (report.valid ? "true" : "false");
    if (!report.valid) {
      out += ",\"error\":\"" + rcb::JsonEscape(report.error) + "\"";
    } else if (report.kind == "checkpoint") {
      const SessionCheckpoint& c = report.checkpoint;
      out += ",\"session_id\":\"" + rcb::JsonEscape(c.session_id) +
             "\",\"epoch\":" + std::to_string(c.epoch) +
             ",\"doc_time_ms\":" + std::to_string(c.state.doc_time_ms) +
             ",\"participants\":" +
             std::to_string(c.state.participants.size()) +
             ",\"pending_actions\":" +
             std::to_string(c.state.pending_actions.size()) +
             ",\"document_bytes\":" +
             std::to_string(c.state.document_html.size()) +
             ",\"port\":" + std::to_string(c.config.port);
    } else if (report.kind == "wal") {
      const WalReplay& w = report.wal;
      out += ",\"session_id\":\"" + rcb::JsonEscape(w.session_id) +
             "\",\"epoch\":" + std::to_string(w.epoch) +
             ",\"base_doc_time_ms\":" + std::to_string(w.base_doc_time_ms) +
             ",\"records\":" + std::to_string(w.records.size()) +
             ",\"tail_discarded\":" +
             (w.tail_discarded ? "true" : "false") +
             ",\"bytes_replayed\":" + std::to_string(w.bytes_replayed);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

// Deterministic sample artifacts for the CI recovery gate: a checkpoint with
// a roster + pending action and a WAL with one record of every replayable
// type. CI truncates and bit-flips copies of these to build its torn-write
// corpus.
int WriteSample(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);

  SessionCheckpoint checkpoint;
  checkpoint.session_id = "sample";
  checkpoint.epoch = 3;
  checkpoint.created_at_us = 1234567;
  checkpoint.config.session_key = "sample&key=1";
  checkpoint.config.poll_interval_ms = 250;
  checkpoint.config.cache_mode = true;
  checkpoint.config.enable_delta = true;
  checkpoint.config.port = 3004;
  checkpoint.state.doc_time_ms = 9001;
  checkpoint.state.has_version = true;
  checkpoint.state.next_pid = 3;
  checkpoint.state.document_html =
      "<html><head><title>Sample</title></head>"
      "<body><p id=\"status\">durable</p></body></html>";
  checkpoint.state.document_url = "http://host-pc:3004/doc";
  rcb::ParticipantExport p1;
  p1.pid = "p1";
  p1.doc_time_ms = 9001;
  p1.last_seq = 17;
  p1.polls = 42;
  checkpoint.state.participants.push_back(p1);
  rcb::ParticipantExport p2;
  p2.pid = "p2";
  p2.doc_time_ms = -1;
  p2.last_seq = 5;
  checkpoint.state.participants.push_back(p2);
  rcb::PendingActionExport pending;
  pending.pid = "p1";
  pending.action.type = rcb::ActionType::kNavigate;
  pending.action.data = "http://example.com/next";
  checkpoint.state.pending_actions.push_back(pending);

  std::string wal =
      rcb::persist::EncodeWalFileHeader("sample", checkpoint.epoch, 9001);
  rcb::persist::WalRecord doc_version;
  doc_version.type = rcb::persist::WalRecordType::kDocVersion;
  doc_version.doc_time_ms = 9500;
  wal += rcb::persist::EncodeWalRecord(doc_version);
  rcb::persist::WalRecord seq;
  seq.type = rcb::persist::WalRecordType::kSeq;
  seq.pid = "p1";
  seq.seq = 18;
  wal += rcb::persist::EncodeWalRecord(seq);
  rcb::persist::WalRecord join;
  join.type = rcb::persist::WalRecordType::kJoin;
  join.pid = "p3";
  wal += rcb::persist::EncodeWalRecord(join);
  rcb::persist::WalRecord leave;
  leave.type = rcb::persist::WalRecordType::kLeave;
  leave.pid = "p2";
  wal += rcb::persist::EncodeWalRecord(leave);

  const std::string ckpt_path = dir + "/sample.ckpt";
  const std::string wal_path = dir + "/sample.wal";
  std::ofstream ckpt_out(ckpt_path, std::ios::binary | std::ios::trunc);
  ckpt_out << rcb::persist::EncodeCheckpoint(checkpoint);
  std::ofstream wal_out(wal_path, std::ios::binary | std::ios::trunc);
  wal_out << wal;
  if (!ckpt_out || !wal_out) {
    std::fprintf(stderr, "checkpoint_inspect: cannot write samples in %s\n",
                 dir.c_str());
    return 2;
  }
  std::printf("wrote %s\nwrote %s\n", ckpt_path.c_str(), wal_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool json = false;
  if (!args.empty() && args[0] == "--json") {
    json = true;
    args.erase(args.begin());
  }
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: %s [--json] dump|verify FILE... | make-sample DIR\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = args[0];
  if (mode == "make-sample") {
    return WriteSample(args[1]);
  }
  if (mode != "dump" && mode != "verify") {
    std::fprintf(stderr, "checkpoint_inspect: unknown mode '%s'\n",
                 mode.c_str());
    return 2;
  }

  std::vector<FileReport> reports;
  int failures = 0;
  for (size_t i = 1; i < args.size(); ++i) {
    reports.push_back(Inspect(args[i]));
    if (!reports.back().valid) {
      ++failures;
    }
  }
  if (json) {
    std::printf("%s\n", ToJson(reports).c_str());
  } else {
    for (const FileReport& report : reports) {
      PrintHuman(report, mode == "dump");
    }
  }
  return failures == 0 ? 0 : 1;
}
