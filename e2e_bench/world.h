// Shared pieces of the end-to-end update benchmark: run options, the
// per-phase sample sets and counters, the metric arithmetic, the seeded plan
// (site order, think times, edits) the workloads and the traced replay
// follow, and the convergence digests.
#ifndef E2E_BENCH_WORLD_H_
#define E2E_BENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "src/browser/browser.h"
#include "src/core/ajax_snippet.h"
#include "src/core/rcb_agent.h"
#include "src/sites/corpus.h"
#include "src/util/rand.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_dir;  // where the traced run writes its spans
};

// Samples of one timed phase, on the measurement clock (NowNs). `updates`
// holds every delivery of the phase, from the mutation call to the update
// listener; `stretches` the timed stretches (passes, blocks of rounds) the
// throughput divides by. The sim-provenance figures cover only the
// deterministic sim window (the first pass / first rounds), so they are
// bit-identical for a seed however fast the machine runs.
struct Phase {
  std::vector<Interval> updates;
  std::vector<Interval> stretches;
  std::vector<double> sim_ms;
  uint64_t window_bytes = 0;
  double wall_s = 0;  // wall time of the stretches, to end the run
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t events = 0;    // summed EventLoop::RunUntil/RunFor return values
  uint64_t messages = 0;  // Network::total_messages() over the phase
  uint64_t deliveries() const { return updates.size(); }
};

// Mean delivery time of `phase` in microseconds, unscaled (the traced run,
// which samples no reference kernel).
double MeanUpdateUs(const Phase& phase);

// One line on the reference kernel's samples and the unscaled delivery time,
// for the human-readable part of the output.
std::string SpeedSummary(const Phase& phase);

// Program counters the per-layer metrics divide, summed over agents and
// snippets; a phase takes the difference of two readings.
struct LayerCounters {
  uint64_t doc_updates = 0;
  uint64_t generations = 0;
  uint64_t snapshot_reuses = 0;
  uint64_t content_polls = 0;  // polls answered with content
  uint64_t polls_sent = 0;
  uint64_t wasted_polls = 0;
  uint64_t resyncs = 0;
  uint64_t frame_bytes = 0;
  uint64_t heartbeats = 0;

  void Add(const rcb::AgentMetrics& metrics);
  void Add(const rcb::SnippetMetrics& metrics);
  LayerCounters operator-(const LayerCounters& earlier) const;
  LayerCounters& operator+=(const LayerCounters& other);
};

// Writes the counter-based per-layer metrics of `phase` into `metrics`.
void AddCounterMetrics(const Phase& phase, const LayerCounters& counters,
                       std::map<std::string, double>* metrics);

// What a workload hands back to main(): metric name -> value (units live in
// main's catalogue), the delivery tallies, and the convergence verdict.
struct WorkloadOutput {
  bool converged = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::string summary;  // human-readable lines printed before the result
};

// Fills the end-to-end metrics every workload reports from its untraced
// phase and its set-ups, every time in reference nanoseconds (speed.h);
// false when a percentile lacks the samples the rule requires.
bool AddEndToEndMetrics(const Phase& phase, const std::vector<Interval>& setups,
                        std::map<std::string, double>* metrics);


WorkloadOutput RunEditWorkload(const Options& options, bool delta);
WorkloadOutput RunFanoutWorkload(const Options& options);

// ---------------------------------------------------------------------------
// Seeded plan.
// ---------------------------------------------------------------------------

// Every Table 1 site, shuffled by the seed.
std::vector<const rcb::SiteSpec*> SeededSiteOrder(uint64_t seed);

// A per-(seed, salt) stream for think times and picks.
uint64_t Mix(uint64_t seed, uint64_t salt);

// Think times for `count` rounds: one per equal slice of `interval`, at a
// seeded offset inside its slice, in seeded order. A block meets every poll
// phase equally often, which keeps a pass's sim percentiles steady across
// seeds while the seed still decides every value.
std::vector<rcb::Duration> StratifiedThinks(rcb::Rng* rng, size_t count,
                                            rcb::Duration interval);

// The two single-field host edits of the edit workloads, as the repo's
// small-update benches make them: a text edit of an inserted status element
// alternating with a form co-fill (the `value` attribute of one seed-picked
// input; pages without an input get a body data attribute instead).
class EditTargets {
 public:
  // Inserts the status element and resolves the co-fill target. The
  // pointers stay valid until the document is replaced by a navigation.
  static EditTargets Prepare(rcb::Document* document, uint64_t field_pick);

  // Edit number `k` (1-based): odd k edits the status text, even k fills.
  void Apply(rcb::Document* document, int k, uint64_t version) const;

 private:
  rcb::Element* status_ = nullptr;
  rcb::Element* field_ = nullptr;
};

// ---------------------------------------------------------------------------
// Convergence (the ROADMAP invariant): a participant's canonical document
// digest equals the digest of the materialized snapshot a fresh generator
// produces from the host document.
// ---------------------------------------------------------------------------

std::string HostDigest(rcb::Browser* host_browser, const rcb::Url& agent_url);
std::string ParticipantDigest(const rcb::Document& document);

// ---------------------------------------------------------------------------
// Misc.
// ---------------------------------------------------------------------------

// ru_maxrss of this process in MiB.
double PeakRssMb();
double Median(std::vector<double> values);
// Writes the recorder's spans to <dir>/<workload>-<seed>.jsonl (best effort).
void WriteSpans(const Options& options, const SpanRecorder& recorder);

// The session key used when auth is on (deterministic per seed and session).
std::string BenchSessionKey(uint64_t seed, uint64_t session);

}  // namespace e2e

#endif  // E2E_BENCH_WORLD_H_
