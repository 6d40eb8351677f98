// host_fanout: one RcbHost serving 64 sessions x 8 participants, every
// session on the smallest Table 1 page (google.com, 6.8 KB), HMAC auth on.
// Participants are split in thirds: classic 500 ms polling, long-poll, and
// framed streams. Rounds alternate:
//   read   the host edits every session; no actions are pending, so the
//          shared broadcast buffer serves identical bytes to everyone;
//   write  in each session one rotating participant co-fills the search form
//          (AjaxSnippet::FillFormField) and participants send SendMouseMove;
//          the agent merges them, applies the fill to the host DOM, and fans
//          actions out through per-participant outboxes.
//
// Two properties of the program at this commit shape the workload so that
// no delivery fails (README.md, "Known limits"):
//   * links are unconstrained (1 ms latency), as in bench_scale: on a
//     bandwidth-limited link the network model delivers a small message
//     ahead of a larger one sent earlier on the same connection, and a
//     framed stream then fails its sequence check;
//   * framed-stream participants only receive in write rounds: their own
//     actions go out on a side POST whose response, when it carries the new
//     version, the snippet discards, so that participant would never hold it.
#include <cstdio>
#include <memory>

#include "replay.h"
#include "src/core/ajax_snippet.h"
#include "src/crypto/hmac.h"
#include "src/host/rcb_host.h"
#include "src/net/profiles.h"
#include "src/transport/capabilities.h"
#include "src/util/rand.h"
#include "src/util/strings.h"
#include "world.h"

namespace e2e {
namespace {

using namespace rcb;

constexpr size_t kSessions = 64;
constexpr size_t kParticipants = 8;
constexpr int kWindowRounds = 40;    // deterministic sim window
constexpr int kWarmupRounds = 2;     // one read + one write, in set-up
constexpr int kSetups = 3;           // set-ups per untraced run (median)
constexpr int kBlockRounds = 2;      // one read + one write: 1024 deliveries
constexpr int kReplayEditsPerBlock = 20;
constexpr int kRouteProbesPerKind = 10;
const Duration kPollInterval = Duration::Millis(500);
const Duration kRoundDeadline = Duration::Seconds(30.0);
const Duration kStep = Duration::Millis(1);
const Duration kLinkLatency = Duration::Millis(1);
constexpr char kHostMachine[] = "host-pc";
constexpr char kSite[] = "google.com";

std::string PollerMachine(size_t p) {
  return StrFormat("poller-pc-%zu", p + 1);
}

// Participant p of every session: classic polling, long-poll, framed
// stream, in turn.
uint32_t StreamMode(size_t p) {
  constexpr uint32_t kModes[] = {transport::kStreamNone,
                                 transport::kStreamLongPoll,
                                 transport::kStreamFrames};
  return kModes[p % 3];
}

// The participants that act in write rounds (see the file comment).
std::vector<size_t> Actors() {
  std::vector<size_t> actors;
  for (size_t p = 0; p < kParticipants; ++p) {
    if (StreamMode(p) != transport::kStreamFrames) {
      actors.push_back(p);
    }
  }
  return actors;
}

class FanoutWorld {
 public:
  FanoutWorld(bool trace, uint64_t seed)
      : trace_(trace), seed_(seed), network_(&loop_), rng_(Mix(seed, 3)) {}
  FanoutWorld(const FanoutWorld&) = delete;
  FanoutWorld& operator=(const FanoutWorld&) = delete;

  // Creates the sessions, loads the page in each, joins every participant
  // and runs the warm-up rounds.
  Status Start() {
    network_.AddHost(kHostMachine, {});
    for (size_t p = 0; p < kParticipants; ++p) {
      network_.AddHost(PollerMachine(p), {});
      network_.SetLatency(kHostMachine, PollerMachine(p), kLinkLatency);
    }
    const SiteSpec* spec = FindSite(kSite);
    AddOriginServer(&network_, LanProfile(), spec->host, spec->server_bps,
                    spec->server_latency, kHostMachine, PollerMachine(0));
    site_ = InstallSite(&loop_, &network_, *spec);

    HostConfig config;
    config.machine = kHostMachine;
    config.limits.max_sessions = 0;
    config.agent_defaults.cache_mode = true;
    config.agent_defaults.poll_interval = kPollInterval;
    config.agent_defaults.transport.enable_stream = true;
    config.agent_defaults.enable_trace = trace_;
    host_ = std::make_unique<RcbHost>(&loop_, &network_, config);
    RCB_RETURN_IF_ERROR(host_->Start());

    size_t loaded = 0;
    for (size_t s = 0; s < kSessions; ++s) {
      TickReference();
      AgentConfig agent = config.agent_defaults;
      agent.session_key = BenchSessionKey(seed_, s);
      RCB_ASSIGN_OR_RETURN(HostSession * session,
                           host_->CreateSession(StrFormat("s%zu", s), agent));
      sessions_.push_back(session);
      session->browser->Navigate(
          Url::Make("http", spec->host, 80, "/"),
          [&loaded](const Status& status, const PageLoadStats&) {
            loaded += status.ok() ? 1 : 0;
          });
    }
    loop_.RunUntilCondition([&] { return loaded == kSessions; });
    if (loaded != kSessions) {
      return InternalError("session pages failed to load");
    }
    for (HostSession* session : sessions_) {
      session->browser->MutateDocument([&](Document* document) {
        targets_.push_back(EditTargets::Prepare(document, 0));
      });
    }

    // Joins are spread over one poll interval so the classic pollers' poll
    // phases are spread too, as independent users' would be. Each
    // participant position (and so each stream mode) takes one equal slice
    // of it per session; the seed decides which session takes which slice.
    std::vector<std::vector<Duration>> joins;
    for (size_t p = 0; p < kParticipants; ++p) {
      joins.push_back(StratifiedThinks(&rng_, kSessions, kPollInterval));
    }
    size_t joined = 0;
    for (size_t s = 0; s < kSessions; ++s) {
      TickReference();
      for (size_t p = 0; p < kParticipants; ++p) {
        auto poller = std::make_unique<Poller>();
        poller->session = s;
        poller->browser =
            std::make_unique<Browser>(&loop_, &network_, PollerMachine(p));
        SnippetConfig snippet;
        snippet.session_key = BenchSessionKey(seed_, s);
        snippet.fetch_objects = false;
        snippet.enable_trace = trace_;
        snippet.stream_mode = StreamMode(p);
        poller->snippet =
            std::make_unique<AjaxSnippet>(poller->browser.get(), snippet);
        const size_t index = pollers_.size();
        poller->snippet->SetUpdateListener(
            [this, index](int64_t) { OnDelivery(index); });
        AjaxSnippet* joiner = poller->snippet.get();
        const Url agent_url = sessions_[s]->agent->AgentUrl();
        loop_.Schedule(
            joins[p][s],
            [joiner, agent_url, &joined] {
              joiner->Join(agent_url, [&joined](Status status) {
                joined += status.ok() ? 1 : 0;
              });
            });
        pollers_.push_back(std::move(poller));
      }
    }
    loop_.RunUntilCondition([&] { return joined == pollers_.size(); });
    if (joined != pollers_.size()) {
      return InternalError("participants failed to join");
    }
    // Let every participant take its first content and settle on its grant.
    loop_.RunFor(Duration::Seconds(3.0));
    Phase warmup;
    for (int r = 0; r < kWarmupRounds; ++r) {
      Round(r, /*window=*/false, &warmup);
    }
    thinks_.clear();  // the timed phase starts on a fresh think-time plan
    return warmup.failed == 0
               ? Status::Ok()
               : DeadlineExceededError("warm-up rounds missed deliveries");
  }

  // `count` rounds, alternating read and write, appended to `phase` as one
  // timed stretch.
  void Rounds(int count, bool window, Phase* phase, LayerCounters* counters) {
    const LayerCounters before = ReadCounters();
    const uint64_t bytes = network_.total_bytes_transferred();
    const uint64_t messages = network_.total_messages();
    const int64_t start = NowNs();
    const int64_t wall_start = WallNs();
    for (int i = 0; i < count; ++i) {
      Round(next_round_++, window, phase);
    }
    phase->stretches.push_back(Interval{start, NowNs()});
    phase->wall_s += static_cast<double>(WallNs() - wall_start) / 1e9;
    phase->messages += network_.total_messages() - messages;
    if (window) {
      phase->window_bytes += network_.total_bytes_transferred() - bytes;
    }
    if (counters != nullptr) {
      *counters += ReadCounters() - before;
    }
  }

  bool Converged() {
    for (size_t s = 0; s < kSessions; ++s) {
      const std::string host_digest = HostDigest(
          sessions_[s]->browser.get(), sessions_[s]->agent->AgentUrl());
      for (size_t p = 0; p < kParticipants; ++p) {
        const Poller& poller = *pollers_[s * kParticipants + p];
        if (ParticipantDigest(*poller.browser->document()) != host_digest) {
          std::fprintf(stderr, "session %zu participant %zu diverged\n", s, p);
          return false;
        }
      }
    }
    return true;
  }

  RcbHost* host() { return host_.get(); }
  EventLoop* loop() { return &loop_; }

 private:
  struct Poller {
    size_t session = 0;
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
    bool waiting = false;  // has not yet taken this round's version
  };

  // One closed-loop round: seeded think time, one mutation per session (a
  // host edit, or a participant co-fill plus the actors' pointer moves), then
  // the wait until every participant holds its session's new version.
  void Round(int r, bool window, Phase* phase) {
    // Think times are stratified per kWindowRounds rounds, so the sim window
    // and every stretch of that many rounds meet each poll phase equally.
    if (thinks_.empty()) {
      thinks_ = StratifiedThinks(&rng_, kWindowRounds, kPollInterval);
    }
    phase->events += loop_.RunFor(thinks_.back());
    thinks_.pop_back();
    phase_ = phase;
    window_ = window;
    for (auto& poller : pollers_) {
      poller->waiting = true;
    }
    waiting_ = pollers_.size();
    phase->attempted += pollers_.size();
    const uint64_t actor_offset = Mix(seed_, 4);
    for (size_t s = 0; s < kSessions; ++s) {
      const uint64_t version = ++edits_;
      mutated_ns_[s] = NowNs();
      mutated_sim_[s] = loop_.now();
      if (r % 2 == 0) {
        sessions_[s]->browser->MutateDocument([&](Document* document) {
          targets_[s].Apply(document, 1, version);
        });
        continue;
      }
      const size_t actor =
          actors_[(actor_offset + static_cast<uint64_t>(r / 2) + s) %
                  actors_.size()];
      Poller& filler = *pollers_[s * kParticipants + actor];
      Element* form = filler.browser->document()->ById("search");
      Status status =
          form == nullptr
              ? NotFoundError("no search form")
              : filler.snippet->FillFormField(
                    form, "q", StrFormat("query %llu",
                                         static_cast<unsigned long long>(
                                             version)));
      if (!status.ok()) {
        std::fprintf(stderr, "co-fill failed: %s\n",
                     status.ToString().c_str());
      }
      for (size_t p : actors_) {
        pollers_[s * kParticipants + p]->snippet->SendMouseMove(
            static_cast<int>(rng_.NextBelow(1024)),
            static_cast<int>(rng_.NextBelow(768)));
      }
    }
    const SimTime deadline = loop_.now() + kRoundDeadline;
    while (waiting_ > 0 && loop_.now() < deadline) {
      phase->events += loop_.RunFor(kStep);
      TickReference();
    }
    phase->failed += waiting_;
    for (auto& poller : pollers_) {
      poller->waiting = false;
    }
    waiting_ = 0;
    phase_ = nullptr;
  }

  void OnDelivery(size_t index) {
    const int64_t now_ns = NowNs();
    Poller& poller = *pollers_[index];
    if (!poller.waiting || phase_ == nullptr) {
      return;
    }
    poller.waiting = false;
    --waiting_;
    phase_->updates.push_back(Interval{mutated_ns_[poller.session], now_ns});
    if (window_) {
      phase_->sim_ms.push_back(
          static_cast<double>(
              (loop_.now() - mutated_sim_[poller.session]).micros()) /
          1e3);
    }
  }

  LayerCounters ReadCounters() const {
    LayerCounters counters;
    for (HostSession* session : sessions_) {
      counters.Add(session->agent->metrics());
    }
    for (const auto& poller : pollers_) {
      counters.Add(poller->snippet->metrics());
    }
    return counters;
  }

  bool trace_;
  uint64_t seed_;
  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> site_;
  std::unique_ptr<RcbHost> host_;
  std::vector<HostSession*> sessions_;
  std::vector<EditTargets> targets_;
  // Declared after host_: snippets say goodbye to their agents on teardown.
  std::vector<std::unique_ptr<Poller>> pollers_;
  Rng rng_;
  std::vector<Duration> thinks_;  // planned think times, used from the back
  const std::vector<size_t> actors_ = Actors();
  int next_round_ = kWarmupRounds;
  uint64_t edits_ = 0;
  int64_t mutated_ns_[kSessions] = {};
  SimTime mutated_sim_[kSessions];
  size_t waiting_ = 0;
  Phase* phase_ = nullptr;
  bool window_ = false;
};

// A dedicated ledger participant in session s0 that talks to the host
// through RcbHost::Route, timing signed polls of three kinds: empty (acks
// the current version, no actions), content-due (acks an older version),
// and action-carrying (one pointer move, fanned out to the session).
class RouteProbe {
 public:
  RouteProbe(FanoutWorld* world, uint64_t seed, SpanRecorder* recorder)
      : world_(world),
        key_(BenchSessionKey(seed, 0)),
        recorder_(recorder),
        empty_(recorder->NameId("host.route.empty_poll")),
        content_(recorder->NameId("host.route.content_poll")),
        action_(recorder->NameId("host.route.action_poll")) {}

  bool Join() {
    HttpRequest request;
    request.method = HttpMethod::kGet;
    request.target = "/s/s0/";
    HttpResponse response = world_->host()->Route(request);
    const std::string marker = "name=\"rcb-pid\" content=\"";
    size_t at = response.body.find(marker);
    if (response.status_code != 200 || at == std::string::npos) {
      return false;
    }
    at += marker.size();
    pid_ = response.body.substr(at, response.body.find('"', at) - at);
    return true;
  }

  // One block: a drain poll (untimed) learns the version and empties the
  // outbox, then kRouteProbesPerKind timed polls of each kind.
  bool Block() {
    StatusOr<Snapshot> latest =
        ParseSnapshotXml(world_->host()->Route(Signed(-1, false)).body);
    if (!latest.ok() || !latest->has_content) {
      return false;
    }
    const int64_t version = latest->doc_time_ms;
    for (int i = 0; i < kRouteProbesPerKind; ++i) {
      Timed(content_, version - 1, false);
      Timed(action_, version, true);
      Timed(empty_, version, false);
      world_->loop()->RunFor(kStep);  // let the fan-out drain
    }
    return true;
  }

  void Fill(std::map<std::string, double>* metrics) const {
    const std::pair<const char*, uint32_t> kinds[] = {
        {"host.route.empty_poll_us", empty_},
        {"host.route.content_poll_us", content_},
        {"host.route.action_poll_us", action_}};
    for (const auto& [name, id] : kinds) {
      double total_ns = 0;
      double count = 0;
      for (const Span& span : recorder_->spans()) {
        if (span.name == id) {
          total_ns += static_cast<double>(span.end_ns - span.start_ns);
          ++count;
        }
      }
      (*metrics)[name] = count > 0 ? total_ns / count / 1e3 : 0;
    }
  }

 private:
  HttpRequest Signed(int64_t doc_time, bool action) const {
    PollRequest poll;
    poll.participant_id = pid_;
    poll.doc_time_ms = doc_time;
    if (action) {
      UserAction move;
      move.type = ActionType::kMouseMove;
      move.x = 10;
      move.y = 20;
      poll.actions.push_back(move);
    }
    HttpRequest request;
    request.method = HttpMethod::kPost;
    request.body = EncodePollRequest(poll);
    request.target =
        "/s/s0/?hmac=" + HmacSha256Hex(key_, "POST /\n" + request.body);
    return request;
  }

  void Timed(uint32_t name, int64_t doc_time, bool action) {
    HttpRequest request = Signed(doc_time, action);
    ScopedSpan span(recorder_, name, kNoParent, ++probes_);
    world_->host()->Route(request);
  }

  FanoutWorld* world_;
  std::string key_;
  SpanRecorder* recorder_;
  uint32_t empty_;
  uint32_t content_;
  uint32_t action_;
  std::string pid_;
  uint64_t probes_ = 0;
};

std::unique_ptr<FanoutWorld> SetUp(bool trace, uint64_t seed) {
  auto world = std::make_unique<FanoutWorld>(trace, seed);
  if (Status status = world->Start(); !status.ok()) {
    std::fprintf(stderr, "fan-out set-up failed: %s\n",
                 status.ToString().c_str());
    return nullptr;
  }
  return world;
}

}  // namespace

WorkloadOutput RunFanoutWorkload(const Options& options) {
  WorkloadOutput out;
  if (!options.trace) {
    EnableReference();
    std::vector<Interval> setups;
    std::unique_ptr<FanoutWorld> world;
    for (int i = 0; i < kSetups; ++i) {
      world.reset();
      const int64_t start = NowNs();
      world = SetUp(false, options.seed);
      setups.push_back(Interval{start, NowNs()});
      if (world == nullptr) {
        out.converged = false;
        return out;
      }
    }
    // The sim window, then read/write pairs until the seconds are spent.
    Phase phase;
    int rounds = 0;
    while (rounds < kWindowRounds || phase.wall_s < options.seconds) {
      world->Rounds(kBlockRounds, rounds < kWindowRounds, &phase, nullptr);
      rounds += kBlockRounds;
    }
    out.converged = world->Converged();
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

  // Traced run: blocks of rounds on the untraced and the traced host take
  // turns with the Route probe and a replay of single-field edits on the
  // same page, until the seconds are spent.
  std::unique_ptr<FanoutWorld> off = SetUp(false, options.seed);
  std::unique_ptr<FanoutWorld> on = SetUp(true, options.seed);
  if (off == nullptr || on == nullptr) {
    out.converged = false;
    return out;
  }
  SpanRecorder recorder;
  RouteProbe probe(off.get(), options.seed, &recorder);
  EditReplay replay(/*delta=*/false, options.seed, &recorder);
  if (!probe.Join()) {
    out.converged = false;
    out.summary += "route probe could not join\n";
    return out;
  }
  Phase phase_off;
  Phase phase_on;
  LayerCounters counters;
  uint64_t probe_failures = 0;
  const int64_t start = WallNs();
  do {
    off->Rounds(kBlockRounds, false, &phase_off, &counters);
    on->Rounds(kBlockRounds, false, &phase_on, nullptr);
    probe_failures += probe.Block() ? 0 : 1;
    replay.Site(*FindSite(kSite), kReplayEditsPerBlock);
  } while (static_cast<double>(WallNs() - start) / 1e9 < options.seconds);
  out.converged = off->Converged() && on->Converged();
  const ReplayResult replayed = replay.Result();
  WriteSpans(options, recorder);

  const double mean_off = MeanUpdateUs(phase_off);
  const double mean_on = MeanUpdateUs(phase_on);
  AddCounterMetrics(phase_off, counters, &out.metrics);
  AddReplayMetrics(replayed, mean_off, &out.metrics);
  probe.Fill(&out.metrics);
  out.metrics["obs.trace_overhead_share"] =
      mean_off > 0 ? (mean_on - mean_off) / mean_off : 0;
  out.attempted = phase_off.attempted + phase_on.attempted + replayed.updates;
  out.failed = phase_off.failed + phase_on.failed + replayed.failed +
               probe_failures + (out.converged ? 0 : 1);
  out.summary += StrFormat(
      "untraced mean %.1f us, traced mean %.1f us, replayed %llu updates\n",
      mean_off, mean_on, static_cast<unsigned long long>(replayed.updates));
  return out;
}

}  // namespace e2e
