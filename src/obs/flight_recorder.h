// Anomaly-triggered flight recorder (DESIGN.md §11).
//
// A component (RCB-Agent, Ajax-Snippet) registers its trace ring and, when
// it has one, its metrics registry here; when an anomaly fires — resync,
// HMAC failure, overload shedding, poll deadline miss — Trigger() freezes
// the moment: it counts the trigger (always, deterministically) and, when a
// dump directory is configured, writes a JSONL artifact holding the
// retained trace window plus a deterministic metrics snapshot. The counting happens whether or not
// dumping is enabled, so trigger counters stay bit-identical between a run
// that records artifacts and one that does not.
//
// Dump layout (FLIGHT_<component>_<n>_<reason>.jsonl):
//   {"type":"flight","component":...,"reason":...,"sim_now_us":...,...}
//   {"type":"span",...}            one line per retained trace event
//   {"type":"metrics","view":"sim","prometheus":"..."}
// The metrics line renders the sim-provenance registry subset (the
// /metrics?view=sim body), so the whole artifact is reproducible except for
// wall-provenance span durations. A component without a registry (the
// participant's snippet) dumps the header and the spans only.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace rcb {
namespace obs {

class FlightRecorder {
 public:
  struct Options {
    // Dump directory; empty counts triggers without writing artifacts.
    std::string dir;
    // Component tag used in artifact names and span lines.
    std::string component = "component";

    // `component` dumping into ResolveDir(dir).
    static Options For(std::string component, std::string dir);
  };

  // Hard cap on artifacts per recorder, so a trigger storm (an overloaded
  // agent shedding every poll) cannot fill the disk.
  static constexpr uint64_t kMaxDumps = 16;

  // `dir`, or $RCB_FLIGHT_DIR when `dir` is empty: the shared fallback.
  static std::string ResolveDir(std::string dir);

  FlightRecorder(const TraceLog* trace, const MetricsRegistry* registry,
                 Options options)
      : trace_(trace), registry_(registry), options_(std::move(options)) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The component tag is often only known after a handshake (a snippet
  // learns its participant id when it joins).
  void set_component(std::string component) {
    options_.component = std::move(component);
  }
  const std::string& component() const { return options_.component; }

  // Records one anomaly. Counting is unconditional; the JSONL artifact is
  // written only when a dump directory is set and kMaxDumps not yet reached.
  // A missing dump directory is created on the first dump.
  void Trigger(std::string_view reason, int64_t sim_now_us);

  uint64_t total_triggers() const { return total_triggers_; }
  uint64_t dumps_written() const { return dumps_written_; }
  uint64_t triggers(std::string_view reason) const;
  const std::string& last_dump_path() const { return last_dump_path_; }

 private:
  const TraceLog* trace_;
  const MetricsRegistry* registry_;
  Options options_;
  uint64_t total_triggers_ = 0;
  uint64_t dumps_written_ = 0;
  // (reason, count), in first-trigger order.
  std::vector<std::pair<std::string, uint64_t>> trigger_counts_;
  std::string last_dump_path_;
};

}  // namespace obs
}  // namespace rcb

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
