// Ajax-Snippet: the participant-side half of RCB.
//
// The snippet arrives embedded in the agent's initial HTML page and then
// (1) polls RCB-Agent with XMLHttpRequest POSTs on a fixed interval,
//     piggybacking queued user actions (§4.2.1),
// (2) applies received newContent snapshots to the live document with the
//     result of the Fig. 5 four-step procedure — clean the head but keep
//     itself, set the new head children, drop stale top-level elements, set
//     body/frameset content via innerHTML — reconciled in place, and
// (3) triggers the download of the page's supplementary objects, which go to
//     the origin servers (non-cache mode) or to RCB-Agent (cache mode).
//
// This class implements that behaviour natively against a simulated Browser;
// the equivalent JavaScript source ships in the initial page for fidelity.
#ifndef SRC_CORE_AJAX_SNIPPET_H_
#define SRC_CORE_AJAX_SNIPPET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/browser/browser.h"
#include "src/core/content_generator.h"
#include "src/core/protocol.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/transport/capabilities.h"
#include "src/util/rand.h"

namespace rcb {

struct SnippetConfig {
  // Shared one-time session secret (§3.4); empty disables request signing.
  std::string session_key;
  // Overrides the poll interval advertised by the initial page when > 0.
  Duration poll_interval_override = Duration::Zero();
  // Download supplementary objects after each applied update.
  bool fetch_objects = true;

  // --- Recovery (§3.2.3). Zero poll_timeout disables all of it, keeping the
  // seed behavior: a poll waits forever and transport failures retry on the
  // plain interval. ---
  // Abandon a poll that has not answered within this budget.
  Duration poll_timeout = Duration::Zero();
  // Exponential backoff after consecutive failures: base * 2^(n-1), capped
  // at backoff_max, plus a deterministic seeded draw in [0, backoff_jitter].
  Duration backoff_base = Duration::Millis(500);
  Duration backoff_max = Duration::Seconds(8.0);
  Duration backoff_jitter = Duration::Zero();
  uint64_t backoff_seed = 0x5EED;
  // After this many consecutive failures, re-handshake with the agent
  // (GET /?resume=<pid>, HMAC-signed when a key is set). 0 disables.
  uint32_t reconnect_after = 0;

  // Advertise the delta-snapshot capability (src/delta): polls carry patch=1
  // and newPatch responses are applied with integrity checks. Off keeps the
  // seed wire format byte-for-byte.
  bool enable_delta = false;

  // Causal tracing (DESIGN.md §11): every poll is stamped with a fresh
  // trace=<pid>-<seq> wire field and the Fig. 5 apply pipeline parents its
  // spans to that poll's round trip. Negotiated like patch=1: off keeps the
  // wire byte-for-byte identical, and the agent ignores the field unless its
  // own enable_trace is set.
  bool enable_trace = false;
  // Flight-recorder dump directory; empty falls back to $RCB_FLIGHT_DIR, and
  // when both are unset triggers are counted but nothing is written.
  std::string flight_dir;

  // --- Streamed transport (DESIGN.md §15). stream_mode 0 keeps the classic
  // polling wire byte-for-byte; the agent side must also opt in via
  // AgentConfig::transport.enable_stream, same contract as patch=/trace=. ---
  // Capability advertised on polls (transport::kStream*): 0 = classic
  // polling, 1 or 2 = long-poll capable (2 is a wire alias of 1). A gesture
  // queued while the granted poll is in flight supersedes it with a fresh
  // poll carrying the gesture.
  uint32_t stream_mode = 0;
};

struct SnippetMetrics {
  uint64_t polls_sent = 0;
  uint64_t content_updates = 0;     // snapshots with document content applied
  uint64_t empty_responses = 0;
  uint64_t actions_sent = 0;
  uint64_t broadcasts_received = 0;
  uint64_t auth_rejections = 0;
  // --- Recovery counters (§3.2.3) ---
  uint64_t poll_timeouts = 0;          // polls abandoned after poll_timeout
  uint64_t transport_failures = 0;     // polls whose transport failed outright
  uint64_t reconnects = 0;             // successful resume re-handshakes
  uint64_t reconnect_failures = 0;     // resume attempts that failed
  uint64_t resyncs = 0;                // full snapshots applied after recovery
  // --- Delta snapshots (src/delta) ---
  uint64_t patches_applied = 0;         // newPatch responses committed
  uint64_t patches_stale_ignored = 0;   // patch target <= current doc time
  uint64_t patch_base_mismatches = 0;   // base doc time != ours -> resync
  uint64_t patch_digest_mismatches = 0; // base/target digest check failed
  uint64_t patch_apply_errors = 0;      // malformed patch or op failure
  // --- Overload degradation ---
  // 429/503 answers honored: the poll loop slowed down instead of treating
  // the response as a failure (no backoff escalation, no reconnect).
  uint64_t overload_deferrals = 0;
  Duration last_retry_after;           // most recent Retry-After hint honored
  // M2: poll request -> content response fully received (content polls only).
  Duration last_content_download;
  // M6: real CPU time spent applying the snapshot (or patch) to the
  // document; the same reading the snippet.apply(_patch) trace span carries.
  Duration last_apply_time;
  Duration total_apply_time;
  // Fig. 5 payloads, by how the apply took them (ReconcileSnapshotTree):
  // changed payloads rebuilt below their root, and payloads whose whole
  // content was rebuilt (a join, a local edit such as the participant's own
  // co-fill, or a change the splice could not contain).
  uint64_t payloads_spliced = 0;
  uint64_t payloads_rebuilt = 0;
  // M3/M4: simulated time to download the supplementary objects the last
  // applied update brought in: every object of the page after a join or a
  // resync, else only those on elements it inserted or re-attributed (see
  // AjaxSnippet::object_watermark()). Zero time and count when it brought
  // none.
  Duration last_object_time;
  size_t last_object_count = 0;
  size_t last_objects_from_host = 0;  // of those, served by RCB-Agent
  uint64_t object_fetch_failures = 0;
  // --- Streamed transport (DESIGN.md §15) ---
  uint64_t wasted_polls = 0;       // classic empty round trips (no grant held)
  uint64_t wasted_poll_bytes = 0;  // request+response bytes of those
  // Granted polls superseded by a fresh poll carrying gestures.
  uint64_t polls_superseded = 0;
};

class AjaxSnippet {
 public:
  AjaxSnippet(Browser* participant_browser, SnippetConfig config);
  ~AjaxSnippet();
  AjaxSnippet(const AjaxSnippet&) = delete;
  AjaxSnippet& operator=(const AjaxSnippet&) = delete;

  // §3.1 step 2: types the agent URL into the address bar. On success the
  // initial page is loaded, the participant id and poll interval are read
  // from it, and the poll loop starts.
  void Join(const Url& agent_url, std::function<void(Status)> joined);
  // Sends the goodbye poll when joined, then tears down as below.
  void Leave();
  // Tears down without the goodbye poll — simulates a participant crash or
  // abrupt network loss; the agent notices via its liveness timeout. A join
  // still loading is dropped: its callback never fires and no poll starts.
  void AbortWithoutGoodbye();
  bool joined() const { return joined_; }

  const std::string& participant_id() const { return pid_; }
  int64_t doc_time_ms() const { return doc_time_ms_; }
  // Peer participants currently known to this snippet, built from the
  // agent's presence broadcasts (excludes self; empty until peers join or
  // leave after this snippet joined).
  const std::vector<std::string>& known_peers() const { return peers_; }
  const SnippetMetrics& metrics() const { return metrics_; }
  // The canonical memo of the live document the patch gates digest through
  // (src/delta/tree_diff.h); its hits() count the gates it answered without
  // a walk, the document unchanged since the one before.
  const delta::CanonicalMemo& patch_digest_memo() const { return patch_memo_; }
  // The document rev() at the end of the last object walk (0 after a join,
  // Leave() or a resync): the next applied update fetches objects only from
  // the subtrees restamped after it (CollectResources' since_rev).
  uint64_t object_watermark() const { return object_watermark_; }
  // Observability (DESIGN.md §9): the snippet has no HTTP server, so its
  // counters are the plain SnippetMetrics above, read in-process (benches,
  // tests). The trace ring holds the Fig. 5 apply spans; flight dumps carry
  // the header and the retained spans.
  const obs::TraceLog& trace_log() const { return trace_; }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  Duration poll_interval() const { return interval_; }
  // Streamed transport state (DESIGN.md §15).
  bool long_poll_active() const { return longpoll_active_; }

  // Fired after each applied content update (argument: new doc time).
  void SetUpdateListener(std::function<void(int64_t)> listener) {
    update_listener_ = std::move(listener);
  }
  // Fired once per applied update, when the objects it brought in finished
  // downloading (at once, with Duration::Zero(), when it brought none).
  void SetObjectsLoadedListener(std::function<void(Duration)> listener) {
    objects_listener_ = std::move(listener);
  }
  // Fired for each broadcast action received (other users' pointer moves...).
  void SetActionListener(std::function<void(const UserAction&)> listener) {
    action_listener_ = std::move(listener);
  }

  // ---- Participant gestures (queued, piggybacked on the next poll) --------
  // Click an element of the synchronized page (anchor/button rewritten by the
  // agent; identified by its data-rcb-id attribute).
  Status ClickElement(Element* element);
  // Type into the named field of `form`: updates the local DOM and queues a
  // co-fill action.
  Status FillFormField(Element* form, std::string_view name,
                       std::string_view value);
  // Submit `form` with its currently-filled fields.
  Status SubmitForm(Element* form);
  // Pointer mirroring.
  void SendMouseMove(int x, int y);
  // Ask the host to navigate to a URL (participant typed a destination).
  void RequestNavigate(const std::string& url);

  // Sends a poll immediately instead of waiting for the timer.
  void PollNow();

  // Fig. 5: applies a full snapshot's escaped payloads to a participant's
  // `document` in place (ReconcileSnapshotTree, src/core/content_generator.h,
  // splicing against `applied`, what the document took from its last
  // apply), keeping the bootstrap script at the front of the head; one is
  // made there when the document has none. `spliced` and `rebuilt` as in
  // ReconcileSnapshotTree.
  static void ApplySnapshot(Document* document, const SnapshotEscaped& payloads,
                            AppliedSnapshot* applied,
                            uint64_t* spliced = nullptr,
                            uint64_t* rebuilt = nullptr);

 private:
  std::weak_ptr<const int> Alive() const { return alive_; }
  void SchedulePoll(Duration delay);
  void PollOnce();
  // Builds and sends one signed poll; used by the regular loop and the
  // fire-and-forget goodbye in Leave().
  void SendPoll(PollRequest poll, FetchCallback callback);
  // Applies a non-empty 200 reply body to a poll, or to a superseded poll
  // whose reply raced in: a patch, a full snapshot or an actions-only
  // document. False when it does not parse (a bad patch also flags
  // need_resync_).
  bool ApplyReplyBody(const std::string& body, Duration transport_time);
  // Applies a received newContent document. `transport_time` is recorded
  // as last_content_download when content was applied.
  void ProcessSnapshot(const SnapshotReply& reply, Duration transport_time);
  // Applies a received newPatch delta (src/delta) with integrity checks; any
  // mismatch flags need_resync_ so the next poll requests a full snapshot.
  void ProcessPatch(const delta::PatchEnvelope& envelope,
                    Duration transport_time);
  // A patch that must not apply (`result` names why): flags need_resync_,
  // marks the traced poll and fires the patch_resync flight trigger.
  void RejectPatch(std::string_view result);
  // Presence bookkeeping + action listener dispatch for broadcast actions
  // (shared by the snapshot and patch paths).
  void HandleBroadcastActions(const std::vector<UserAction>& actions);
  // Queues one gesture for the next poll; with the transport capability on,
  // also schedules the pre-empt of a parked poll.
  void QueueAction(UserAction action);
  // Long-poll: one zero-delay event per event-loop turn (so a burst of
  // gestures rides one poll) that supersedes the granted poll in flight
  // with a fresh poll carrying the queued gestures.
  void SchedulePreempt();
  void OnPollResponse(FetchResult result, SimTime sent_at);
  // --- Recovery (§3.2.3) ---
  bool recovery_enabled() const {
    return config_.poll_timeout > Duration::Zero();
  }
  // base * 2^(failures-1) capped at backoff_max, plus seeded jitter.
  Duration BackoffDelay();
  // Shared failure path for timeouts and transport errors: backs off, and
  // after reconnect_after consecutive failures re-handshakes instead.
  void OnPollFailure();
  void OnPollTimeout(uint64_t seq);
  // Re-handshake: abort wedged connections, GET /?resume=<pid> (signed),
  // then resume the sync loop with a forced full-snapshot resync.
  void Reconnect();
  // --- Streamed transport (DESIGN.md §15) ---
  // Next poll after a 200: at once under a long-poll grant, else after the
  // advertised interval.
  void ScheduleNextPoll();
  void FetchSupplementaryObjects();
  // Zero-duration sim event parented to the in-flight poll's root span;
  // no-op when that poll was not traced.
  void TraceMarker(const char* name, obs::TraceAttrs attrs);
  // Starts the queue-latency stopwatch the first time an action is queued
  // (or re-queued) while no poll is carrying it.
  void NoteActionQueued();
  // Puts the in-flight poll's gestures back at the front of the queue: the
  // agent never applied them (timeout, transport failure, overload, resume).
  void RequeueInFlightActions();
  // Collects a form's current field values from the participant DOM.
  static std::vector<std::pair<std::string, std::string>> FormFields(
      Element* form);

  Browser* browser_;
  SnippetConfig config_;
  Url agent_url_;
  std::string pid_;
  Duration interval_ = Duration::Seconds(1.0);
  int64_t doc_time_ms_ = -1;

  std::vector<UserAction> action_queue_;
  // Actions riding the in-flight poll; re-queued if the transport fails so
  // gestures survive agent restarts.
  std::vector<UserAction> in_flight_actions_;
  std::vector<std::string> peers_;
  bool joined_ = false;
  bool poll_in_flight_ = false;
  uint64_t poll_timer_ = 0;
  // The liveness token of the current join. Every async callback holds it
  // weakly (Alive()) and returns at once when it expired: Join and
  // AbortWithoutGoodbye replace it, and destruction drops it, so a callback
  // that resolves late never reads a left or a freed snippet.
  std::shared_ptr<const int> alive_ = std::make_shared<const int>();

  // Recovery state. poll_seq_ numbers every poll; a response or timeout for
  // an older seq than the current one is ignored (the poll was abandoned).
  uint64_t poll_seq_ = 0;
  uint64_t timeout_timer_ = 0;
  uint32_t consecutive_failures_ = 0;
  // Highest poll seq abandoned by a timeout or a reconnect: a late reply to
  // it is discarded. A later stale seq was superseded, and its reply is
  // applied.
  uint64_t abandoned_seq_ = 0;
  bool need_resync_ = false;
  bool reconnect_in_flight_ = false;
  uint64_t object_watermark_ = 0;  // see object_watermark()
  Rng backoff_rng_;
  uint64_t preempt_timer_ = 0;  // pending SchedulePreempt() event, or 0

  // --- Streamed transport state (DESIGN.md §15) ---
  bool longpoll_active_ = false;       // last poll response granted longpoll
  int64_t longpoll_hold_ms_ = 0;
  size_t in_flight_poll_bytes_ = 0;  // request body bytes of the last poll

  SnippetMetrics metrics_;

  // --- Observability state (see trace_log()). ---
  obs::TraceLog trace_;
  // Context of the traced poll currently in flight (trace id + reserved root
  // span id); inactive when tracing is off.
  obs::TraceContext poll_ctx_;
  // Queue-latency stopwatch: when the oldest still-unsent action was queued.
  SimTime action_queue_since_;
  bool action_queue_waiting_ = false;
  obs::FlightRecorder flight_;

  std::function<void(int64_t)> update_listener_;
  std::function<void(Duration)> objects_listener_;
  std::function<void(const UserAction&)> action_listener_;

  // The live document's canonical memo (delta only; cold otherwise).
  delta::CanonicalMemo patch_memo_;
  // What the live document took from its last full snapshot (the escaped
  // payloads and their span tables the next one splices against).
  AppliedSnapshot applied_;
};

}  // namespace rcb

#endif  // SRC_CORE_AJAX_SNIPPET_H_
