// RCB-Agent: the in-browser HTTP server that hosts a co-browsing session.
//
// The agent listens on an open TCP port of the host browser's machine and
// processes three request types (Fig. 2):
//   * new connection requests (GET /)            -> initial HTML page with
//                                                   Ajax-Snippet embedded,
//   * object requests (GET /obj/<cache-key>)     -> cached supplementary
//                                                   objects, cache mode only,
//   * Ajax polling requests (POST /)             -> data merge, timestamp
//                                                   inspection, response
//                                                   sending (§4.1.1).
// Content generation (Fig. 3) runs once per document change and the result
// is reused for every participant (§4.1.2). Requests from Ajax-Snippet are
// authenticated with an HMAC over the request when a session key is set
// (§3.4). Action coordination policies (§3.3) decide whether participant
// clicks/submits are applied immediately, held for host confirmation, or
// denied.
#ifndef SRC_CORE_RCB_AGENT_H_
#define SRC_CORE_RCB_AGENT_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/browser/browser.h"
#include "src/core/agent_state.h"
#include "src/core/broadcast.h"
#include "src/core/content_generator.h"
#include "src/core/protocol.h"
#include "src/delta/patch_codec.h"
#include "src/http/http_server.h"
#include "src/net/network.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/transport/capabilities.h"
#include "src/util/token_bucket.h"

namespace rcb {

// What the agent does with a participant-initiated action class (§3.3).
enum class ActionPolicy { kAutoApply, kConfirm, kDeny };

struct AgentPolicies {
  ActionPolicy click = ActionPolicy::kAutoApply;
  ActionPolicy form_submit = ActionPolicy::kAutoApply;
  ActionPolicy form_fill = ActionPolicy::kAutoApply;
  ActionPolicy navigate = ActionPolicy::kAutoApply;
  // Mirror pointer movement to the other participants.
  bool broadcast_mouse = true;
  // §3.3: "it is up to the high-level policy enforced on RCB-Agent to decide
  // whom are allowed to perform certain interactions". When set, actions from
  // participants this predicate rejects are denied before the per-type
  // policies run. nullptr allows everyone.
  std::function<bool(const std::string& pid, const UserAction& action)>
      participant_filter;
};

// Overload-protection knobs. The agent is an HTTP server inside one host
// browser, so a handful of misbehaving or merely numerous participants can
// exhaust it long before the network fails; these limits make it shed load
// deterministically instead of stalling the event loop. Defaults are generous
// enough that a well-behaved session never hits them; 0 (or Zero()) disables
// an individual limit.
struct AgentLimits {
  // Admission control.
  size_t max_connections = 256;   // concurrent sockets, parked polls incl.
  size_t max_participants = 64;   // roster size; excess joins/polls get 503
  size_t max_request_head_bytes = 64 * 1024;   // request-line + headers
  size_t max_request_body_bytes = 1 << 20;     // declared Content-Length
  // Slow-loris read deadline (HttpServerLimits::read_timeout).
  Duration idle_read_timeout = Duration::Zero();
  // Per-participant token buckets, refilled deterministically from sim time.
  // rate <= 0 disables the bucket. Rejected polls get 429 + Retry-After;
  // rejected piggybacked actions are dropped (and counted).
  double poll_rate_per_sec = 0.0;
  double poll_burst = 8.0;
  double action_rate_per_sec = 0.0;
  double action_burst = 32.0;
  // Bounded queues, reject-newest: once full, new entries are shed and the
  // queued ones kept (the oldest actions are closest to delivery).
  size_t max_outbox_actions = 1024;   // per-participant broadcast outbox
  size_t max_pending_actions = 256;   // host confirmation queue (kConfirm)
  // Byte budget applied to the host browser's ObjectCache on Start();
  // exceeding it evicts least-recently-used objects. 0 = unbounded.
  uint64_t cache_byte_budget = 0;
  // Deterministic jitter added to every Retry-After this agent sends (503s
  // and 429s): base + StableHash64(key) % (jitter + 1ms), keyed per rejected
  // participant. Spreads retries so one overload burst does not come back as
  // one synchronized retry burst. Zero() disables (exact base values).
  Duration retry_after_jitter = Duration::Seconds(3.0);
};

// `base` plus a deterministic jitter in [0, jitter] keyed by `key` (same key
// -> same delay, different keys spread): the Retry-After value of every 503
// and 429 the agent and the host front door answer. Zero() jitter returns
// `base` exactly.
Duration JitteredRetryAfter(Duration base, Duration jitter,
                            std::string_view key);

// The socket rows of `limits` (DESIGN.md §8.1) as HttpServer limits: the
// agent's own port, and the host's front door without the connection cap.
HttpServerLimits SocketLimits(const AgentLimits& limits);

struct AgentConfig {
  uint16_t port = 3000;
  bool cache_mode = true;
  // Non-empty key enables HMAC request authentication for Ajax polls.
  std::string session_key;
  // Poll interval advertised to participants in the initial page.
  Duration poll_interval = Duration::Seconds(1.0);
  // Optional per-object cache-mode selection (§4.1.2); see
  // ContentGenOptions::cache_object_filter.
  std::function<bool(const Url& url, const std::string& kind)>
      cache_object_filter;
  // Optional per-participant cache-mode selection (§4.1.2: "allow different
  // participant browsers to use different modes"). Overrides `cache_mode`
  // for the given pid; the agent keeps one generated snapshot per mode, so
  // reuse still holds within each mode.
  std::function<bool(const std::string& pid)> participant_cache_mode;
  AgentPolicies policies;
  AgentLimits limits;
  // --- Delta snapshots (src/delta). Off by default: unless BOTH the agent
  // enables delta and the participant advertises patch support on its polls,
  // behavior (and wire bytes) stay identical to full snapshots. ---
  bool enable_delta = false;
  // --- Causal tracing (DESIGN.md §11). Off by default: the agent ignores
  // the optional trace= poll field and appends exactly the pre-causal flat
  // spans, so responses, counters, and the trace ring stay unchanged. ---
  bool enable_trace = false;
  // --- Streamed transport (src/transport, DESIGN.md §15). Off by default:
  // the agent ignores the optional stream= poll field and never adds the
  // RCB-Transport response header — responses stay byte-identical to
  // classic polling. Grants apply to requests on the agent's own port;
  // front-door (RcbHost) requests are answered but never granted, since
  // the synchronous router cannot hold a connection. ---
  transport::TransportConfig transport;
  // Flight-recorder dump directory. Empty falls back to $RCB_FLIGHT_DIR;
  // with neither set, triggers are counted but no artifact is written.
  std::string flight_dir;
  // --- Health plane (src/obs/slo.h, DESIGN.md §16). SLO targets and window
  // geometry for the always-on per-session health tracker behind GET /health
  // and /host/health. ---
  obs::SloConfig health_slo;
  // --- Durability (src/persist, DESIGN.md §13). When set, the agent reports
  // every persistent-state transition (document version, anti-replay seq
  // advance, merged action, roster change) before acking the request that
  // caused it. Not owned; must outlive the agent. nullptr = no reporting. ---
  AgentStateObserver* state_observer = nullptr;
};

struct AgentMetrics {
  uint64_t polls_received = 0;
  uint64_t polls_with_content = 0;
  uint64_t polls_empty = 0;
  uint64_t object_requests = 0;
  uint64_t object_bytes_served = 0;
  uint64_t new_connections = 0;
  uint64_t auth_failures = 0;
  uint64_t doc_updates = 0;            // document versions observed
  uint64_t generations = 0;            // Fig. 3 pipeline executions
  uint64_t snapshot_reuses = 0;        // content served without regeneration
  uint64_t actions_applied = 0;
  uint64_t actions_held = 0;
  uint64_t actions_denied = 0;
  // --- Recovery counters (§3.2.3) ---
  uint64_t poll_timeouts = 0;          // abandoned polls reported by snippets
  uint64_t reconnects = 0;             // resume re-handshakes served
  uint64_t resyncs = 0;                // full snapshots served to resync polls
  uint64_t participants_reaped = 0;    // silent participants removed
  // --- Overload counters (AgentLimits) ---
  uint64_t connections_rejected = 0;   // 503s at accept (connection cap)
  uint64_t participants_rejected = 0;  // 503s at join/poll (roster cap)
  uint64_t polls_rate_limited = 0;     // 429s from the poll token bucket
  uint64_t actions_rate_limited = 0;   // piggybacked actions dropped by bucket
  uint64_t actions_shed = 0;           // reject-newest drops at a full queue
  uint64_t snapshots_shed = 0;         // parked-poll versions superseded
  uint64_t idle_read_timeouts = 0;     // slow-loris connections closed
  uint64_t oversized_rejected = 0;     // 413s for head/body over the caps
  uint64_t recovery_deferrals = 0;     // 503s staggering post-recovery resync
  // --- Delta snapshots (src/delta) ---
  uint64_t patches_served = 0;         // newPatch responses sent
  uint64_t patch_fallback_no_base = 0; // base version outside the history
  uint64_t patch_fallback_oversize = 0;// patch exceeded kPatchSizeCutoff
  uint64_t patch_bytes_sent = 0;       // cumulative patch response bytes
  uint64_t patch_snapshot_bytes = 0;   // snapshot bytes those patches replaced
  // Cumulative bytes of document-content-bearing response bodies (full
  // snapshots and patches, poll replies and long-poll releases) — the
  // bytes-on-wire-per-update numerator the delta benchmarks read.
  uint64_t content_bytes_sent = 0;
  // --- Streamed transport (src/transport, DESIGN.md §15) ---
  // Framed streams are retired, so these two always read 0; they stay
  // because the end-to-end benchmark still reads them.
  uint64_t transport_heartbeats_sent = 0;
  uint64_t transport_frame_bytes_sent = 0;
  uint64_t transport_long_polls_parked = 0;   // polls held awaiting content
  uint64_t transport_long_poll_flushes = 0;   // parked polls answered w/ data
  uint64_t transport_long_poll_expiries = 0;  // parked polls released empty
  uint64_t transport_capacity_denials = 0;    // grants denied by max_held
  // --- escape() accounting (M2): cumulative CDATA payload bytes before and
  // after JsEscape across all generations. Their ratio is the inflation the
  // paper's transmission sizes absorb. ---
  uint64_t snapshot_bytes_raw = 0;
  uint64_t snapshot_bytes_escaped = 0;
  Duration last_generation_time;       // M5, real CPU time
  Duration total_generation_time;
  size_t last_snapshot_bytes = 0;
};

// An action waiting for host confirmation under ActionPolicy::kConfirm.
struct PendingAction {
  std::string participant_id;
  UserAction action;
};

// Registers the six rcb_cache_* families (hits, misses, evictions,
// evicted_bytes counters; bytes, objects gauges) over `cache`: a standalone
// agent over its host browser's cache, RcbHost once over its shared one.
void RegisterObjectCacheMetrics(const ObjectCache* cache,
                                obs::MetricsRegistry* registry);

class RcbAgent {
 public:
  // The agent runs inside `host_browser` (shares its event loop, network,
  // document, and cache).
  RcbAgent(Browser* host_browser, AgentConfig config);
  ~RcbAgent();
  RcbAgent(const RcbAgent&) = delete;
  RcbAgent& operator=(const RcbAgent&) = delete;

  // Opens the listening port (§3.1 step 1) and hooks document changes.
  Status Start();
  void Stop();
  bool running() const { return running_; }

  // The URL participants type into their address bars (§3.1 step 2).
  Url AgentUrl() const;

  const AgentConfig& config() const { return config_; }
  const AgentMetrics& metrics() const { return metrics_; }

  // Simulated instant of the last request this agent handled (any class,
  // including rejected ones). RcbHost's idle reaper reads it.
  SimTime last_activity() const { return last_activity_; }

  // In-process entry point for RcbHost's front-door router: handles one
  // already-parsed request exactly as if it had arrived on the agent's own
  // port (same classification, auth, metrics, and trace behavior) — except
  // that transport grants are suppressed: Route() is synchronous, so a
  // front-door poll can never be parked (DESIGN.md §15; long-polls connect
  // to the session's own port).
  HttpResponse HandleHostRequest(const HttpRequest& request);

  // Observability (DESIGN.md §9). The registry carries every AgentMetrics
  // counter (callback-backed, same names), the ObjectCache counters, and the
  // stage/request histograms; /metrics renders it in the Prometheus text
  // format. The trace log keeps the most recent spans (generation stages,
  // request handling, HMAC checks). The registry is the agent's own, also
  // when hosted: RcbHost labels it session="<id>" only in /host/metrics.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  const obs::TraceLog& trace_log() const { return trace_; }
  // Anomaly flight recorder (DESIGN.md §11): triggers on resync, HMAC
  // failure, and overload shedding; dumps the trace ring + a deterministic
  // metrics snapshot when a dump directory is configured.
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  // Health plane (DESIGN.md §16): windowed SLO state behind GET /health.
  // Non-const: window reads advance the rings to the query instant.
  obs::SessionHealth& session_health() { return health_; }

  // Connected participants (have completed a poll recently enough to be
  // considered live); the agent "knows exactly which participants are
  // connected" (§3.3).
  std::vector<std::string> ConnectedParticipants() const;
  size_t participant_count() const { return participants_.size(); }
  // Parked long-polls (DESIGN.md §15).
  size_t parked_poll_count() const { return parked_.size(); }

  // Host-originated action broadcast (e.g. host mouse mirroring).
  void BroadcastAction(UserAction action);

  // Confirmation queue (ActionPolicy::kConfirm).
  const std::vector<PendingAction>& pending_actions() const {
    return pending_actions_;
  }
  // Applies / discards pending_actions()[index].
  Status ApprovePending(size_t index);
  Status RejectPending(size_t index);

  // --- Durability (src/persist, DESIGN.md §13) ---
  // Snapshot of the protocol state a checkpoint captures: document content +
  // version, roster with anti-replay marks, confirmation queue.
  AgentStateExport ExportState() const;
  // Rehydrates a stopped agent from a checkpoint (call before Start()).
  // Participants come back with doc_time_ms = -1 so their first poll takes
  // the full-snapshot resync path; their last_seq marks survive, so replayed
  // pre-crash polls still bounce off anti-replay.
  Status RestoreState(const AgentStateExport& state);
  // Restart-storm protection: until `at`, polls from existing participants
  // are answered 503 + jittered Retry-After instead of a full resync, so a
  // recovering host readmits its flock staggered, not all at once. Resume
  // handshakes are NOT deferred (identity re-establishment is cheap).
  void DeferResyncAdmissionUntil(SimTime at) { resync_admission_at_ = at; }

  // Exposed for tests: the current snapshot the agent would serve.
  const Snapshot& CurrentSnapshotForTest();

 private:
  struct ParticipantState {
    int64_t doc_time_ms = -1;      // content version the participant holds
    SimTime last_poll;
    uint64_t polls = 0;
    std::vector<UserAction> outbox;  // broadcast actions awaiting delivery
    // Recovery bookkeeping (§3.2.3): highest poll seq seen (anti-replay) and
    // the high-water mark of the snippet's cumulative timeout counter.
    uint64_t last_seq = 0;
    uint64_t timeouts_reported = 0;
    // Overload protection: per-participant admission buckets (AgentLimits).
    TokenBucket poll_bucket;
    TokenBucket action_bucket;
    // Streamed transport (DESIGN.md §15): true when the previous poll
    // response carried an RCB-Transport grant, so the client is known to
    // have extended its poll timeout before the agent may park its poll.
    bool transport_granted = false;
    // The version held before a parked release sent content, until the next
    // poll: if that poll still acks it, it crossed the release on the wire.
    std::optional<int64_t> released_from;
  };
  // The HttpServer handlers: a request on the agent's own port (holdable);
  // the 503 + jittered Retry-After of a socket past max_connections; a
  // connection gone, which forgets a long-poll held on it.
  std::optional<HttpResponse> OnRequest(HttpServer::ConnId conn,
                                        const HttpRequest& request);
  HttpResponse RejectConnection();
  void OnConnectionClosed(HttpServer::ConnId conn);
  void OnDocumentChange();

  // A poll the agent holds open instead of answering empty: the pid and the
  // patch base for its release (BuildContentBody's `acked`).
  struct ParkIntent {
    std::string pid;
    int64_t acked_doc_time_ms = -1;
  };
  // One request's transport state: a value owned by the caller that read the
  // request (OnRequest / HandleHostRequest) and handed down HandleRequest ->
  // DispatchRequest -> HandlePoll, so nothing outlives the request.
  struct RequestScope {
    // In: the request arrived on the agent's own port, so its connection can
    // be held. Front-door (RcbHost) requests cannot: no grant, no parking.
    bool holdable = false;
    // Out: a 200 poll reply carries the RCB-Transport grant (DESIGN.md §15).
    bool granted = false;
    // Out: hold the connection instead of sending the reply.
    std::optional<ParkIntent> park;
  };

  // HandleRequest wraps DispatchRequest with end-of-request health sampling
  // (the deterministic event site where counter deltas enter the windows).
  HttpResponse HandleRequest(const HttpRequest& request, RequestScope& scope);
  HttpResponse DispatchRequest(const HttpRequest& request, RequestScope& scope);
  HttpResponse HandleNewConnection(const HttpRequest& request);
  HttpResponse HandleObjectRequest(const HttpRequest& request);
  HttpResponse HandlePoll(const HttpRequest& request, RequestScope& scope);
  // GET /status: the host-side session dashboard (roster, freshness,
  // counters) — the connection/status indicator suggested in §5.2.3.
  HttpResponse HandleStatusPage() const;
  // GET /metrics: Prometheus text exposition of the registry. Authenticated
  // like polls; ?view=sim renders only the deterministic (sim-provenance)
  // families, which are byte-identical across identical simulated runs.
  HttpResponse HandleMetrics(const HttpRequest& request);
  // GET /health: windowed SLO health JSON (score, burn rates, sync window
  // percentiles, trace exemplars). Authenticated like /metrics; every value
  // is sim-provenance, so the body is deterministic.
  HttpResponse HandleHealth(const HttpRequest& request);

  // --- Streamed transport (src/transport, DESIGN.md §15) ---
  // A long-poll the agent is holding until content arrives or the hold
  // deadline fires: a held server connection (the connection cap still
  // applies), forgotten by OnConnectionClosed when it goes away.
  struct ParkedPoll {
    HttpServer::ConnId conn = 0;
    int64_t acked_doc_time_ms = -1;  // ParkIntent's patch base
    uint64_t deadline_id = 0;     // hold-expiry timer
  };
  void ParkPoll(HttpServer::ConnId conn, ParkIntent intent);
  // The RCB-Transport value of every grant: `longpoll; hold=<ms>`.
  std::string GrantHeader() const;
  // Forgets `pid`'s park and cancels its hold timer; nullopt when none.
  std::optional<ParkedPoll> Unpark(const std::string& pid);
  // Answers `pid`'s parked poll, if any: newest content / pending actions
  // when available, else empty (the hold deadline's release).
  void ReleaseParkedPoll(const std::string& pid);
  // Defers FlushTransport by one zero-delay event so every document change
  // in the same event-loop turn collapses into one delivery (drop-oldest
  // shedding: a superseded version is never serialized, and counts as shed).
  void ScheduleTransportFlush();
  void FlushTransport();
  // Immediate outbox delivery to a parked long-poll.
  void KickTransport(const std::string& pid);
  // The one content body builder behind poll replies and long-poll releases,
  // for one participant at the current version: a patch when
  // `acked` names a base (>= 0) and delta is on, else the shared snapshot
  // (with the outbox folded in via override_actions when non-empty).
  // `exemplar` is the trace id the sync-latency observation carries.
  struct ContentBody {
    std::string xml;
    bool patch = false;
  };
  ContentBody BuildContentBody(const std::string& pid, int64_t acked,
                               std::vector<UserAction> outbox,
                               std::string_view exemplar);
  // The one drain behind poll replies and parked releases:
  // what `participant` is owed right now — content at the current version
  // (outbox folded in) when it is behind, else its outbox alone, stamped
  // with the version it holds; nullopt when there is nothing to send.
  // `acked` and `exemplar` are passed to BuildContentBody.
  std::optional<ContentBody> TakeDelivery(const std::string& pid,
                                          ParticipantState& participant,
                                          int64_t acked,
                                          std::string_view exemplar);
  // Exemplar of a parked release: the traced poll in flight (a kick from its
  // merge), else the synthetic transport-<pid> chain.
  std::string TransportExemplar(const std::string& pid) const;
  // A body with no document content: only broadcast actions, stamped
  // `doc_time_ms` (the version the participant already holds).
  static std::string ActionsOnlyXml(int64_t doc_time_ms,
                                    std::vector<UserAction> actions);

  // Health plane: records one content-sync latency observation (document
  // version stamp -> content serve, sim time) into the windowed tracker and
  // the exemplar histogram. Called at every content-serve site.
  void RecordContentServed(std::string_view trace_id);

  // §3.4: verifies the hmac request-URI parameter over the canonical request.
  // Non-const: records the verification's CPU time (rcb_agent_hmac_verify_us).
  bool VerifyRequestAuth(const HttpRequest& request);

  // --- The admission ladder (DESIGN.md §8.1). Every entry point climbs the
  // rungs it needs in a fixed order; each rung returns the rejection to send,
  // or nullopt to admit. One copy of each check, counter and flight trigger.
  // Authenticate (§3.4): a failed MAC is rejected 403 with `body`.
  std::optional<HttpResponse> AdmitAuth(const HttpRequest& request,
                                        std::string_view body);
  // The shared 403: counts an auth failure, fires the auth_failure trigger
  // and marks the traced request rejected (`reason` optional). Anti-replay
  // rejections come through here too.
  HttpResponse RejectAuth(std::string_view body, std::string_view reason = "");
  // Roster cap (AgentLimits::max_participants): 503 unless `pid` is already
  // on the roster or the roster has room. A fresh join has no pid yet: it
  // passes nullptr and its Retry-After jitter is keyed join<n>.
  std::optional<HttpResponse> AdmitRoster(const std::string* pid);
  // Restart-storm deferral (DESIGN.md §13): 503 for a known pid while the
  // recovery window is open; the rejection still counts as liveness.
  std::optional<HttpResponse> AdmitRecovery(const std::string& pid);

  // Data merging: routes one participant action through the policies.
  void ApplyAction(const std::string& pid, const UserAction& action);
  void PerformAction(const std::string& pid, const UserAction& action);

  // Presence bookkeeping: removes `pid` and notifies the other participants;
  // ReapStaleParticipants does the same for silent ones (run on each poll).
  void RemoveParticipant(const std::string& pid);
  void ReapStaleParticipants();

  // Creates the participant on first use with token buckets initialized from
  // the configured limits.
  ParticipantState& EnsureParticipant(const std::string& pid);
  // Appends to a broadcast outbox, shedding the newest action (and counting
  // it) when the queue is at max_outbox_actions.
  void EnqueueOutbox(ParticipantState& state, const UserAction& action);
  // Enqueues `action` to every participant except `skip_pid`, then kicks
  // each one's parked poll so long-poll receivers get it at once.
  void BroadcastToRoster(const UserAction& action,
                         const std::string& skip_pid = "");

  // The generate-once pipeline state lives in broadcast_ (src/core/
  // broadcast.h); the agent-side aliases keep call sites readable.
  using SnapshotSlot = SnapshotBroadcast::Slot;

  // True if participant `pid` co-browses in cache mode.
  bool CacheModeFor(const std::string& pid) const;
  // Ensures the slot for `cache_mode` matches the current document version
  // and returns it (delegates to broadcast_, which counts into metrics_).
  SnapshotSlot& RefreshSlot(bool cache_mode, bool count_reuse);

  std::string BuildInitialPage(const std::string& pid) const;

  // Registers every family on registry_ (constructor-time; callback
  // counters read metrics_ and the browser cache at render time).
  void RegisterMetrics();

  // Appends a zero-duration sim marker carrying `attrs` to the current
  // request's causal chain; no-op when the request carried no trace id.
  // Every poll passes here, so a caller that formats its attrs checks
  // trace_ctx_.active() first.
  void TraceMarker(const char* name, obs::TraceAttrs attrs);

  Browser* browser_;
  AgentConfig config_;
  ContentGenerator generator_;
  bool running_ = false;

  int64_t current_doc_time_ms_ = 0;
  bool has_version_ = false;  // set once the first completed load is observed
  SimTime last_activity_;
  // True while RestoreState replaces the document: the change listener (if
  // any) must not stamp a fresh version over the checkpointed one.
  bool restoring_ = false;
  // Restart-storm admission gate; polls before this instant are deferred.
  SimTime resync_admission_at_;
  // Generate-once broadcast state; constructed after RegisterMetrics so its
  // instrument pointers are final (std::optional defers construction only).
  std::optional<SnapshotBroadcast> broadcast_;

  std::map<std::string, ParticipantState> participants_;
  std::vector<PendingAction> pending_actions_;
  AgentMetrics metrics_;
  uint64_t next_pid_ = 1;

  // --- Streamed transport state (DESIGN.md §15) ---
  std::map<std::string, ParkedPoll> parked_;        // pid -> held long-poll
  bool transport_flush_pending_ = false;

  // --- Observability state (see metrics_registry()/trace_log()). ---
  obs::MetricsRegistry registry_;
  obs::TraceLog trace_;
  // Fig. 3 stage histograms, one per gen_stage label, in pipeline order:
  // extract, serialize.
  obs::Histogram* stage_hist_[2] = {};
  // Delta stages, in order: materialize, digest, diff.
  obs::Histogram* delta_stage_hist_[3] = {};
  obs::Histogram* generation_us_ = nullptr;   // whole pipeline, wall
  obs::Histogram* snapshot_bytes_ = nullptr;  // serialized XML size, sim
  obs::Histogram* hmac_verify_us_ = nullptr;  // wall
  obs::Histogram* patch_ops_ = nullptr;       // ops per served patch, sim
  obs::Histogram* patch_bytes_ = nullptr;     // bytes per served patch, sim
  // Request handling CPU time by Fig. 2 class:
  // poll, new_connection, object, status, metrics, other.
  obs::Histogram* request_hist_[6] = {};
  // Causal chain of the poll currently being handled (DESIGN.md §11):
  // trace id from the poll's trace= field, parent = the request root span.
  // Inactive outside HandlePoll or when tracing is off on either side.
  obs::TraceContext trace_ctx_;
  obs::FlightRecorder flight_;
  // Sync-latency registry histogram (document update -> content served).
  // The windowed view of the same observations, with trace exemplars, lives
  // in health_.
  obs::Histogram* sync_latency_us_ = nullptr;
  // Declared after flight_: alert edges fire it. Every request the agent
  // handles samples the cumulative counters into the windows. Mutable:
  // window reads advance the rings, and the const status page reads it.
  mutable obs::SessionHealth health_;
  uint64_t requests_handled_ = 0;  // HealthSample.requests denominator
  HttpServer server_;  // on config.port, limits from SocketLimits()
};

}  // namespace rcb

#endif  // SRC_CORE_RCB_AGENT_H_
