// RcbHost: a multi-session agent host on one event loop.
//
// The paper runs one RCB-Agent inside one host browser; the production gap
// (ROADMAP item 1) is a host that serves many concurrent co-browsing
// sessions. RcbHost owns a registry of sessions keyed by session id — each
// session gets its own Browser + RcbAgent (state fully isolated: actions,
// HMAC keys, doc_time, rosters never cross sessions) listening on its own
// port of the host machine, so unmodified Ajax-Snippets join a session by
// URL. Shared across sessions:
//   * one ObjectCache (Browser::UseSharedCache) under a host byte budget,
//   * the event loop and network.
// Each agent keeps its own MetricsRegistry; /host/metrics renders the host's
// with every session's, labelled session="<id>".
//
// Inside each session the generate-once broadcast buffer (src/core/
// broadcast.h) amortizes the Fig. 3 pipeline across the session's N pollers:
// generate + delta-diff run once per doc_time, and the identical encoded
// bytes fan out to every matching poller. Host-level admission limits layer
// on PR 2's per-agent caps: past max_sessions, session creation sheds with
// 503 + Retry-After.
//
// A front door listens on base_port and routes:
//   * POST /host/sessions?id=<id>   create a session (503/409/400 on
//                                   cap/collision/invalid id),
//   * /s/<id>/<rest>                forward <rest> to that session's agent
//                                   (404 unknown, 410 reaped, 400 invalid),
//   * GET /host/status              session table + the registry's sim
//                                   counters and gauges,
//   * GET /host/metrics             host + per-session Prometheus exposition.
// Long-polls are never parked through the front door (it answers each
// request synchronously); a long-poll client connects to the session's own
// port directly.
#ifndef SRC_HOST_RCB_HOST_H_
#define SRC_HOST_RCB_HOST_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/rcb_agent.h"
#include "src/persist/session_store.h"

namespace rcb {

class RcbHost;

// The durability binding for one hosted session (DESIGN.md §13): implements
// the agent's AgentStateObserver by appending each reported transition to
// the session's WAL, and schedules a host checkpoint (zero-delay, so it runs
// between events with the agent quiescent) once the store crosses its dirty
// thresholds. Owned by the HostSession; destroying it cancels any scheduled
// checkpoint, so a torn-down session never leaves a dangling event.
class SessionPersist : public AgentStateObserver {
 public:
  SessionPersist(RcbHost* host, std::string session_id,
                 std::unique_ptr<persist::SessionStore> store);
  ~SessionPersist() override;

  persist::SessionStore* store() { return store_.get(); }

  void OnDocVersion(int64_t doc_time_ms) override;
  void OnSeqAdvance(const std::string& pid, uint64_t seq) override;
  void OnActionMerged(const std::string& pid,
                      const UserAction& action) override;
  void OnParticipantJoined(const std::string& pid) override;
  void OnParticipantLeft(const std::string& pid) override;

 private:
  void Append(persist::WalRecord record);

  RcbHost* host_;
  std::string session_id_;
  std::unique_ptr<persist::SessionStore> store_;
  bool checkpoint_scheduled_ = false;
  uint64_t checkpoint_event_id_ = 0;
};

// Host-level admission limits, layered on the per-agent AgentLimits.
struct HostLimits {
  // Concurrent sessions; creation past the cap sheds with 503 + Retry-After.
  // 0 disables the cap.
  size_t max_sessions = 256;
  // A session with no request activity for this long is reaped (lazily, on
  // create/route/ReapIdleSessions — a recurring timer would keep the event
  // loop's pending count nonzero and break drain-based waits). Zero: never.
  Duration session_idle_timeout = Duration::Zero();
  // Byte budget for the host-wide shared ObjectCache. 0 = unbounded.
  uint64_t shared_cache_byte_budget = 0;
  // Retry-After hint on 503s.
  Duration retry_after = Duration::Seconds(1.0);
  // Deterministic jitter added to front-door Retry-After values (same scheme
  // as AgentLimits::retry_after_jitter), keyed per rejected request, so shed
  // creators do not retry in lockstep. Zero() disables.
  Duration retry_after_jitter = Duration::Seconds(3.0);
};

struct HostConfig {
  // Network host the front door and every session listen on. Must be
  // registered with the Network before Start().
  std::string machine = "host-pc";
  // Front door port; sessions get base_port+1, base_port+2, ... (reaped
  // ports are reused).
  uint16_t base_port = 3000;
  HostLimits limits;
  // Template for per-session agents: CreateSession(id) copies this and
  // overrides the port; a flight_dir (or $RCB_FLIGHT_DIR) becomes
  // <dir>/<id>/ per session. Per-session keys, policies and delta
  // knobs go through CreateSession(id, config) or apply host-wide when set
  // here. Its limits.max_request_{head,body}_bytes also cap requests on the
  // front door (413, then close), and its limits.idle_read_timeout is the
  // front door's read deadline too.
  AgentConfig agent_defaults;
  // --- Durability (src/persist, DESIGN.md §13). persist.dir empty keeps the
  // host fully in-memory (the pre-PR-7 behavior, byte for byte). With a dir
  // set, every session checkpoints + WALs its protocol state there, Start()
  // recovers whatever a previous host left behind, and Stop() writes a final
  // checkpoint per session so a clean shutdown is recoverable too. ---
  persist::PersistOptions persist;
  // Recovered sessions stagger resync readmission across this window: each
  // gets a deterministic slot hash(session_id) % window, and polls before
  // its slot get 503 + jittered Retry-After through the overload layer.
  // Zero() admits everyone immediately.
  Duration recovery_storm_window = Duration::Seconds(5.0);
  // Host flight-recorder dump directory (anomaly: host_recovery). Empty
  // falls back to $RCB_FLIGHT_DIR; with neither, triggers only count.
  std::string flight_dir;
  // Crash-point injector driving the process-fault chaos matrix (not owned;
  // may be null). Sessions consult it on every persist write.
  ProcessFaultInjector* process_faults = nullptr;
};

// Host-level counters (all sim-provenance), exported as rcb_host_*.
struct HostMetrics {
  uint64_t sessions_created = 0;
  uint64_t sessions_closed = 0;    // explicit CloseSession
  uint64_t sessions_reaped = 0;    // idle-timeout reaps
  uint64_t sessions_rejected = 0;  // 503s at the session cap
  uint64_t session_id_collisions = 0;   // 409s creating an existing id
  uint64_t invalid_session_ids = 0;     // 400s for malformed ids
  uint64_t unknown_session_requests = 0;  // 404s routing to absent ids
  uint64_t expired_session_requests = 0;  // 410s routing to reaped ids
  uint64_t front_door_requests = 0;       // every request Route() saw
  // --- Recovery (DESIGN.md §13) ---
  uint64_t sessions_recovered = 0;      // restored from checkpoint on Start
  uint64_t sessions_unrecoverable = 0;  // quarantined: failed integrity gates
  uint64_t wal_tails_discarded = 0;     // torn log tails cut during recovery
  uint64_t doc_versions_lost = 0;       // post-checkpoint versions not restored
};

// One hosted co-browsing session: an isolated Browser + RcbAgent pair on its
// own port. The browser's document is the session's shared state; drive it
// with Navigate/MutateDocument exactly like a standalone host browser.
struct HostSession {
  std::string id;
  uint16_t port = 0;
  bool recovered = false;  // restored from a checkpoint on host Start
  // Declared before browser/agent so it is destroyed last: the agent holds a
  // raw AgentStateObserver pointer into it. nullptr when persistence is off.
  std::unique_ptr<SessionPersist> persist;
  std::unique_ptr<Browser> browser;
  std::unique_ptr<RcbAgent> agent;
};

class RcbHost {
 public:
  RcbHost(EventLoop* loop, Network* network, HostConfig config);
  ~RcbHost();
  RcbHost(const RcbHost&) = delete;
  RcbHost& operator=(const RcbHost&) = delete;

  // Opens the front door and applies the shared-cache budget.
  Status Start();
  void Stop();
  bool running() const { return running_; }

  // Creates a session under the default agent template. Fails with
  // kInvalidArgument (malformed id), kAlreadyExists (live id collision), or
  // kUnavailable (session cap, after attempting an idle reap).
  StatusOr<HostSession*> CreateSession(const std::string& id);
  // Same, with an explicit per-session agent config (the host overrides its
  // port and flight_dir as for the template).
  StatusOr<HostSession*> CreateSession(const std::string& id,
                                       AgentConfig config);
  // nullptr when absent.
  HostSession* FindSession(const std::string& id);
  // Stops and destroys the session; its id answers 410 until it ages out of
  // the reaped-id memory (or is re-created).
  Status CloseSession(const std::string& id);
  // Reaps every session idle past session_idle_timeout; returns the count.
  // Runs implicitly before admission checks in CreateSession and on every
  // routed request.
  size_t ReapIdleSessions();

  size_t session_count() const { return sessions_.size(); }
  std::vector<std::string> SessionIds() const;

  // The front-door router, also callable in-process (tests fuzz it
  // directly; bench harnesses skip the HTTP hop).
  HttpResponse Route(const HttpRequest& request);

  const HostMetrics& metrics() const { return host_metrics_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  ObjectCache& shared_cache() { return shared_cache_; }
  const HostConfig& config() const { return config_; }

  // True iff `id` is nonempty, at most 64 chars, all [A-Za-z0-9_-].
  static bool IsValidSessionId(const std::string& id);

  // --- Durability (DESIGN.md §13) ---
  // Writes a checkpoint for one session (truncating its WAL). No-op when the
  // session is absent or persistence is off. SessionPersist schedules this
  // lazily on dirty thresholds; tests call it to force a baseline.
  Status CheckpointSession(const std::string& id);
  // Checkpoints every live session (Stop() does this before teardown).
  void CheckpointAllSessions();
  const persist::PersistCounters& persist_counters() const {
    return persist_counters_;
  }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  const obs::TraceLog& trace_log() const { return trace_; }
  EventLoop* loop() { return loop_; }

 private:
  // AgentMetrics totals of destroyed sessions, folded into the rcb_host_*
  // aggregates so they stay monotone across reaps.
  struct RetiredTotals {
    uint64_t doc_updates = 0;
    uint64_t generations = 0;
    uint64_t snapshot_reuses = 0;
    uint64_t polls_received = 0;
    uint64_t polls_with_content = 0;
    uint64_t content_bytes_sent = 0;
    Duration total_generation_time;
  };

  HttpResponse HandleCreateSession(const HttpRequest& request);
  HttpResponse HandleSessionRequest(const HttpRequest& request);
  HttpResponse HandleHostStatus() const;
  // GET /host/metrics: the host's registry, then every session's under
  // session="<id>".
  HttpResponse HandleHostMetrics(const HttpRequest& request) const;
  // GET /host/health: health-plane snapshot over every live session, worst
  // first (DESIGN.md §16). Route() HMAC-gates both with the agent template's
  // session key, like the agents' /metrics.
  HttpResponse HandleHostHealth();

  // Tears down one session and folds its counters into retired_. Persist
  // files are removed when the session ends on purpose (close/reap) and kept
  // when the host is merely shutting down (Stop checkpoints first).
  void DestroySession(const std::string& id, bool remove_persist);
  // The one hosted-session builder behind CreateSession and RecoverOne: a
  // browser on the shared cache and a started agent on `port` dumping into
  // <flight dir>/<id>/, persisted when persistence is on and restored from
  // `recovered` unless null. On failure the session's port is released.
  StatusOr<std::unique_ptr<HostSession>> StartSession(
      const std::string& id, uint16_t port, AgentConfig agent_config,
      const persist::LoadResult* recovered);
  void RememberReaped(const std::string& id);
  uint16_t AllocatePort();

  // Recovery-on-start (DESIGN.md §13): scans persist.dir for checkpoints,
  // runs the integrity ladder on each, resurrects the survivors, and
  // quarantines the rest — degradation is always per-session.
  void RecoverSessions();
  Status RecoverOne(const std::string& checkpoint_path,
                    const std::string& wal_path);
  // Builds the checkpoint payload for a live session.
  persist::SessionCheckpoint BuildCheckpoint(HostSession* session) const;

  void RegisterHostMetrics();
  // Sums `field` over live sessions (plus the retired base).
  uint64_t SumAgents(uint64_t AgentMetrics::*field, uint64_t retired) const;

  EventLoop* loop_;
  Network* network_;
  HostConfig config_;
  bool running_ = false;

  std::map<std::string, std::unique_ptr<HostSession>> sessions_;
  std::vector<uint16_t> free_ports_;  // reaped session ports, reusable
  uint16_t next_port_offset_ = 1;

  // Reaped/closed session ids remembered for 410 Gone answers (FIFO).
  static constexpr size_t kReapedIdMemory = 256;
  std::deque<std::string> reaped_order_;  // FIFO for 410 memory
  std::set<std::string> reaped_ids_;

  ObjectCache shared_cache_;
  obs::MetricsRegistry registry_;
  HostMetrics host_metrics_;
  RetiredTotals retired_;
  persist::PersistCounters persist_counters_;
  // Host-level observability: recovery spans land in the trace ring, and
  // every recovery (clean or degraded) fires the host_recovery anomaly.
  obs::TraceLog trace_;
  obs::FlightRecorder flight_;
  // The front door on base_port (Route() behind the shared HttpServer loop).
  HttpServer front_door_;
};

}  // namespace rcb

#endif  // SRC_HOST_RCB_HOST_H_
