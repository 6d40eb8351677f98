// edit_full and edit_delta: one CoBrowsingSession per Table 1 site, each
// with one participant on 1 s polling over LAN, cache mode, HMAC auth on;
// delta off or on. Each session's host has co-navigated to its site during
// set-up. A pass makes single-field edits (status text edit alternating
// with a form co-fill) round-robin over the sites in seed order, so every
// site's deliveries are spread over the whole pass and a slow second of the
// machine touches every site a little instead of one site a lot.
#include <cstdio>
#include <memory>

#include "src/core/session.h"
#include "src/net/profiles.h"
#include "src/util/rand.h"
#include "src/util/strings.h"
#include "replay.h"
#include "world.h"

namespace e2e {
namespace {

using namespace rcb;

constexpr int kEditsPerSite = 50;  // 20 sites -> 1000 deliveries per pass
constexpr int kTracedEditsPerSite = 20;  // per world, in the traced run
constexpr int kWarmupEdits = 2;    // per site, during set-up
constexpr int kSetups = 5;         // set-ups per untraced run (median)
constexpr size_t kThinkStrata = 1000;  // think-time slices in the traced run
const Duration kPollInterval = Duration::Seconds(1.0);
const Duration kRoundDeadline = Duration::Seconds(10.0);
const Duration kStep = Duration::Millis(1);

// One site's session: its own event loop, network and origin server.
class EditWorld {
 public:
  EditWorld(const SiteSpec& spec, bool delta, bool trace, uint64_t seed)
      : spec_(spec), seed_(seed), network_(&loop_) {
    network_.set_slow_start_enabled(true);
    SessionOptions options;
    options.profile = LanProfile();
    options.cache_mode = true;
    options.poll_interval = kPollInterval;
    options.enable_auth = true;
    options.enable_delta = delta;
    options.enable_trace = trace;
    AddOriginServer(&network_, options.profile, spec.host, spec.server_bps,
                    spec.server_latency, options.host_machine,
                    options.participant_machine_prefix + "-1");
    server_ = InstallSite(&loop_, &network_, spec);
    session_ = std::make_unique<CoBrowsingSession>(&loop_, &network_, options);
  }

  // Untimed: starts the session, co-navigates to the site, inserts the
  // status element, and waits until the participant holds that version.
  Status Start() {
    RCB_RETURN_IF_ERROR(session_->Start());
    session_->snippet(0)->SetUpdateListener([this](int64_t) {
      delivered_ = true;
      delivered_ns_ = NowNs();
      delivered_sim_ = loop_.now();
    });
    RCB_RETURN_IF_ERROR(
        session_->CoNavigate(Url::Make("http", spec_.host, 80, "/")).status());
    delivered_ = false;
    session_->host_browser()->MutateDocument([&](Document* document) {
      targets_ = EditTargets::Prepare(document, Mix(seed_, 100 + spec_.index));
    });
    SimTime deadline = loop_.now() + kRoundDeadline;
    while (!delivered_ && loop_.now() < deadline) {
      loop_.RunFor(kStep);
    }
    return delivered_ ? Status::Ok()
                      : DeadlineExceededError("status insert not delivered");
  }

  // One closed-loop round: the think time, the next edit, and the wait for
  // the participant's update listener. Sim latency and wire bytes (think
  // time included) go into `phase` only when `window` is set.
  void Edit(Duration think, bool window, Phase* phase) {
    const uint64_t bytes = network_.total_bytes_transferred();
    const uint64_t messages = network_.total_messages();
    phase->events += loop_.RunFor(think);
    TickReference();
    const int k = ++edits_;
    ++phase->attempted;
    delivered_ = false;
    const SimTime sim_start = loop_.now();
    const int64_t start_ns = NowNs();
    session_->host_browser()->MutateDocument([&](Document* document) {
      targets_.Apply(document, k, static_cast<uint64_t>(k));
    });
    const SimTime deadline = sim_start + kRoundDeadline;
    while (!delivered_ && loop_.now() < deadline) {
      phase->events += loop_.RunFor(kStep);
    }
    phase->messages += network_.total_messages() - messages;
    if (!delivered_) {
      ++phase->failed;
      return;
    }
    phase->updates.push_back(Interval{start_ns, delivered_ns_});
    if (window) {
      phase->sim_ms.push_back(
          static_cast<double>((delivered_sim_ - sim_start).micros()) / 1e3);
      phase->window_bytes += network_.total_bytes_transferred() - bytes;
    }
  }

  bool Converged() {
    return ParticipantDigest(*session_->participant_browser(0)->document()) ==
           HostDigest(session_->host_browser(), session_->agent()->AgentUrl());
  }

  LayerCounters ReadCounters() const {
    LayerCounters counters;
    counters.Add(session_->agent()->metrics());
    counters.Add(session_->snippet(0)->metrics());
    return counters;
  }

  const SiteSpec& spec() const { return spec_; }

 private:
  const SiteSpec& spec_;
  uint64_t seed_;
  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<CoBrowsingSession> session_;
  EditTargets targets_;
  int edits_ = 0;
  bool delivered_ = false;
  int64_t delivered_ns_ = 0;
  SimTime delivered_sim_;
};

using Worlds = std::vector<std::unique_ptr<EditWorld>>;

// One pass: `edits` rounds, each editing every site once in seed order, with
// one stratified think time per edit. The pass is one timed stretch.
void Pass(Worlds& worlds, int edits, bool window, Rng* think_rng,
          Phase* phase) {
  std::vector<Duration> thinks = StratifiedThinks(
      think_rng, worlds.size() * static_cast<size_t>(edits), kPollInterval);
  const int64_t start = NowNs();
  const int64_t wall_start = WallNs();
  for (int k = 0; k < edits; ++k) {
    for (auto& world : worlds) {
      world->Edit(thinks.back(), window, phase);
      thinks.pop_back();
    }
  }
  phase->stretches.push_back(Interval{start, NowNs()});
  phase->wall_s += static_cast<double>(WallNs() - wall_start) / 1e9;
}

bool Converged(Worlds& worlds) {
  for (auto& world : worlds) {
    if (!world->Converged()) {
      std::fprintf(stderr, "%s diverged\n", world->spec().name.c_str());
      return false;
    }
  }
  return true;
}

// Builds, joins and warms one world per site (a few edits each); empty when
// any of them fails.
Worlds SetUp(bool delta, bool trace, uint64_t seed,
             const std::vector<const SiteSpec*>& order) {
  Worlds worlds;
  for (const SiteSpec* spec : order) {
    TickReference();
    worlds.push_back(std::make_unique<EditWorld>(*spec, delta, trace, seed));
    if (Status status = worlds.back()->Start(); !status.ok()) {
      std::fprintf(stderr, "%s: session set-up failed: %s\n",
                   spec->name.c_str(), status.ToString().c_str());
      return {};
    }
  }
  Rng think_rng(Mix(seed, 5));
  Phase warmup;
  Pass(worlds, kWarmupEdits, /*window=*/false, &think_rng, &warmup);
  if (warmup.failed > 0) {
    std::fprintf(stderr, "warm-up failed %llu of %llu edits\n",
                 static_cast<unsigned long long>(warmup.failed),
                 static_cast<unsigned long long>(warmup.attempted));
    return {};
  }
  return worlds;
}

}  // namespace

WorkloadOutput RunEditWorkload(const Options& options, bool delta) {
  WorkloadOutput out;
  const std::vector<const SiteSpec*> order = SeededSiteOrder(options.seed);

  if (!options.trace) {
    EnableReference();
    std::vector<Interval> setups;
    Worlds worlds;
    for (int i = 0; i < kSetups; ++i) {
      worlds.clear();
      const int64_t start = NowNs();
      worlds = SetUp(delta, /*trace=*/false, options.seed, order);
      setups.push_back(Interval{start, NowNs()});
      if (worlds.empty()) {
        out.converged = false;
        return out;
      }
    }
    // The first pass is the deterministic sim window; single rounds (one
    // edit per site) follow until the run's seconds are spent.
    Rng think_rng(Mix(options.seed, 2));
    Phase phase;
    int rounds = 0;
    while (rounds < kEditsPerSite || phase.wall_s < options.seconds) {
      const int edits = rounds == 0 ? kEditsPerSite : 1;
      Pass(worlds, edits, rounds == 0, &think_rng, &phase);
      rounds += edits;
    }
    out.converged = Converged(worlds);
    out.attempted = phase.attempted;
    out.failed = phase.failed + (out.converged ? 0 : 1);
    if (!AddEndToEndMetrics(phase, setups, &out.metrics)) {
      out.summary += "too few deliveries for the percentile rule\n";
      out.converged = false;
    }
    out.summary += StrFormat("rounds %d, deliveries %zu, window %zu\n", rounds,
                             static_cast<size_t>(phase.deliveries()),
                             phase.sim_ms.size());
    out.summary += SpeedSummary(phase);
    return out;
  }

  // Traced run. Site by site, three worlds take turns on the same edits:
  // the program with tracing off (the untraced mean and the layer
  // counters), with its own enable_trace on both sides (the tracing
  // overhead), and the replay through each layer's public functions (the
  // spans). Taking turns keeps machine drift out of their differences.
  Worlds off = SetUp(delta, false, options.seed, order);
  Worlds on = SetUp(delta, true, options.seed, order);
  if (off.empty() || on.empty()) {
    out.converged = false;
    return out;
  }
  SpanRecorder recorder;
  EditReplay replay(delta, options.seed, &recorder);
  Rng think_rng(Mix(options.seed, 2));
  std::vector<Duration> thinks;
  auto next_think = [&] {
    if (thinks.empty()) {
      thinks = StratifiedThinks(&think_rng, kThinkStrata, kPollInterval);
    }
    const Duration think = thinks.back();
    thinks.pop_back();
    return think;
  };
  Phase phase_off;
  Phase phase_on;
  LayerCounters counters;
  const int64_t start = WallNs();
  do {
    for (size_t i = 0; i < order.size(); ++i) {
      const LayerCounters before = off[i]->ReadCounters();
      for (int k = 0; k < kTracedEditsPerSite; ++k) {
        off[i]->Edit(next_think(), false, &phase_off);
      }
      counters += off[i]->ReadCounters() - before;
      for (int k = 0; k < kTracedEditsPerSite; ++k) {
        on[i]->Edit(next_think(), false, &phase_on);
      }
      replay.Site(*order[i], kTracedEditsPerSite);
    }
  } while (static_cast<double>(WallNs() - start) / 1e9 < options.seconds);
  out.converged = Converged(off) && Converged(on);
  const ReplayResult replayed = replay.Result();
  WriteSpans(options, recorder);

  const double mean_off = MeanUpdateUs(phase_off);
  const double mean_on = MeanUpdateUs(phase_on);
  AddCounterMetrics(phase_off, counters, &out.metrics);
  AddReplayMetrics(replayed, mean_off, &out.metrics);
  out.metrics["obs.trace_overhead_share"] =
      mean_off > 0 ? (mean_on - mean_off) / mean_off : 0;
  out.attempted = phase_off.attempted + phase_on.attempted + replayed.updates;
  out.failed = phase_off.failed + phase_on.failed + replayed.failed +
               (out.converged ? 0 : 1);
  out.summary += StrFormat(
      "untraced mean %.1f us, traced mean %.1f us, replayed %llu updates\n",
      mean_off, mean_on, static_cast<unsigned long long>(replayed.updates));
  return out;
}

}  // namespace e2e
