// Lightweight span tracing over a bounded ring buffer.
//
// Request handling in the discrete-event simulation consumes zero simulated
// time, so a span records *where on the simulated timeline* work happened
// (sim_start_us, always deterministic) plus *how long it took*:
//   * Provenance::kSim  — duration measured on the simulated clock (e.g. a
//     poll round trip); bit-reproducible,
//   * Provenance::kWall — duration measured on the CPU clock (Fig. 3 / Fig. 5
//     pipeline stages, HMAC verification); machine-dependent.
// The log keeps the most recent `capacity` events and counts what it
// dropped, so tracing can stay always-on without unbounded growth.
//
// Causal model (DESIGN.md §11): a span may additionally carry a trace id —
// the identity of one poll round trip, stamped by Ajax-Snippet and
// propagated over the wire — plus a span id / parent span id pair forming a
// tree within that trace, and a small key=value attribute set (participant
// id, doc_time, bytes). Span ids are reserved from a per-log monotone
// counter, so id assignment is a pure function of the simulated schedule and
// trace-derived critical paths stay bit-reproducible. Spans appended without
// a context (TraceContext::active() == false) are exactly the pre-causal
// flat spans: no ids, no attrs, unchanged wire and metrics behavior.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace rcb {
namespace obs {

// Small ordered attribute set carried by a causal span.
using TraceAttrs = std::vector<std::pair<std::string, std::string>>;

// The causal chain a new span joins: the trace id of the round trip and the
// span id of the parent span (0 = the new span is the trace root). An empty
// trace id means "no causal context" and spans append exactly as before.
struct TraceContext {
  std::string trace_id;
  uint64_t parent_span_id = 0;

  bool active() const { return !trace_id.empty(); }
};

struct TraceEvent {
  std::string name;       // dotted path, e.g. "agent.generate.extract"
  Provenance provenance;  // what duration_us was measured with
  int64_t sim_start_us;   // simulated instant the span began
  int64_t duration_us;
  uint64_t seq;           // global append order (monotone, never wraps)
  // --- Causal fields (empty / 0 for context-free spans). ---
  std::string trace_id;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  TraceAttrs attrs;
};

class TraceLog {
 public:
  explicit TraceLog(size_t capacity = 1024);

  void Append(std::string name, Provenance provenance, int64_t sim_start_us,
              int64_t duration_us);

  // Causal append: stamps the event with `context` and a span id (the
  // reserved one when non-zero, else a freshly reserved id). Returns the
  // span id used, so callers can parent further children to this span.
  // An inactive context degrades to the flat Append above (returns 0).
  uint64_t Append(std::string name, Provenance provenance,
                  int64_t sim_start_us, int64_t duration_us,
                  const TraceContext& context, TraceAttrs attrs = {},
                  uint64_t reserved_span_id = 0);

  // Hands out the next span id (1-based, monotone). Reserving ahead of the
  // append lets an enclosing span parent its children before it closes.
  uint64_t ReserveSpanId() { return ++last_span_id_; }

  size_t capacity() const { return capacity_; }
  size_t size() const { return events_.size(); }
  uint64_t total_appended() const { return next_seq_; }
  uint64_t dropped() const {
    return next_seq_ - static_cast<uint64_t>(events_.size());
  }

  // Oldest-to-newest copy of the retained window.
  std::vector<TraceEvent> Events() const;

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;  // ring; head_ is the oldest slot
  size_t head_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t last_span_id_ = 0;
};

// RAII wall-clock span: measures CPU time from construction to destruction,
// then appends a kWall trace event (when `log` is non-null) and records the
// elapsed microseconds into `histogram` (when non-null). With a non-null
// active `context` the span id is reserved at construction — read it with
// span_id() to parent child spans created while this one is open.
class WallSpan {
 public:
  WallSpan(TraceLog* log, const char* name, int64_t sim_now_us,
           Histogram* histogram = nullptr,
           const TraceContext* context = nullptr, TraceAttrs attrs = {})
      : log_(log),
        name_(name),
        sim_now_us_(sim_now_us),
        histogram_(histogram),
        context_(context),
        attrs_(std::move(attrs)),
        start_(std::chrono::steady_clock::now()) {
    if (log_ != nullptr && context_ != nullptr && context_->active()) {
      span_id_ = log_->ReserveSpanId();
    }
  }
  ~WallSpan() {
    int64_t elapsed = ElapsedUs();
    if (histogram_ != nullptr) {
      histogram_->Record(elapsed);
    }
    if (log_ == nullptr) {
      return;
    }
    if (span_id_ != 0) {
      log_->Append(name_, Provenance::kWall, sim_now_us_, elapsed, *context_,
                   std::move(attrs_), span_id_);
    } else {
      log_->Append(name_, Provenance::kWall, sim_now_us_, elapsed);
    }
  }
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

  int64_t ElapsedUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  // 0 unless an active context was supplied at construction.
  uint64_t span_id() const { return span_id_; }

 private:
  TraceLog* log_;
  const char* name_;
  int64_t sim_now_us_;
  Histogram* histogram_;
  const TraceContext* context_;
  TraceAttrs attrs_;
  uint64_t span_id_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace rcb

#endif  // SRC_OBS_TRACE_H_
