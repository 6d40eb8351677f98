#include "src/obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "src/obs/trace_export.h"
#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rcb {
namespace obs {

std::string FlightRecorder::ResolveDir(std::string dir) {
  if (const char* env = std::getenv("RCB_FLIGHT_DIR");
      dir.empty() && env != nullptr) {
    dir = env;
  }
  return dir;
}

FlightRecorder::Options FlightRecorder::Options::For(std::string component,
                                                     std::string dir) {
  Options options;
  options.component = std::move(component);
  options.dir = ResolveDir(std::move(dir));
  return options;
}

void FlightRecorder::Trigger(std::string_view reason, int64_t sim_now_us) {
  ++total_triggers_;
  bool found = false;
  for (auto& [name, count] : trigger_counts_) {
    if (name == reason) {
      ++count;
      found = true;
      break;
    }
  }
  if (!found) {
    trigger_counts_.emplace_back(std::string(reason), 1);
  }
  if (options_.dir.empty() || dumps_written_ >= kMaxDumps) {
    return;
  }

  std::string path = StrFormat(
      "%s/FLIGHT_%s_%llu_%s.jsonl", options_.dir.c_str(),
      options_.component.c_str(),
      static_cast<unsigned long long>(dumps_written_ + 1),
      std::string(reason).c_str());
  std::string body = StrFormat(
      "{\"type\":\"flight\",\"component\":\"%s\",\"reason\":\"%s\","
      "\"sim_now_us\":%lld,\"trigger_seq\":%llu,\"trace_retained\":%zu,"
      "\"trace_dropped\":%llu}\n",
      JsonEscape(options_.component).c_str(),
      JsonEscape(reason).c_str(), static_cast<long long>(sim_now_us),
      static_cast<unsigned long long>(total_triggers_),
      trace_ != nullptr ? trace_->size() : size_t{0},
      static_cast<unsigned long long>(trace_ != nullptr ? trace_->dropped()
                                                        : 0));
  if (trace_ != nullptr) {
    body += ExportTraceJsonl(*trace_, options_.component);
  }
  if (registry_ != nullptr) {
    RenderOptions render;
    render.include_wall = false;  // deterministic snapshot
    body += "{\"type\":\"metrics\",\"view\":\"sim\",\"prometheus\":\"";
    body += JsonEscape(registry_->RenderPrometheus(render));
    body += "\"}\n";
  }
  // Truncate-then-write: a re-fired trigger index never appends to a stale
  // artifact from an earlier process in the same directory.
  std::error_code ignored;
  std::filesystem::create_directories(options_.dir, ignored);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    RCB_LOG(kWarning) << "flight-recorder: cannot write " << path;
    return;
  }
  size_t written = std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  if (written != body.size()) {
    RCB_LOG(kWarning) << "flight-recorder: short write to " << path;
    return;
  }
  ++dumps_written_;
  last_dump_path_ = path;
}

uint64_t FlightRecorder::triggers(std::string_view reason) const {
  for (const auto& [name, count] : trigger_counts_) {
    if (name == reason) {
      return count;
    }
  }
  return 0;
}

}  // namespace obs
}  // namespace rcb
