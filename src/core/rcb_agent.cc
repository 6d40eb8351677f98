#include "src/core/rcb_agent.h"

#include <chrono>

#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/http/form.h"
#include "src/util/escape.h"
#include "src/util/logging.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// Representative Ajax-Snippet source embedded in the initial page's head.
// The behaviour it describes is implemented natively by the AjaxSnippet class
// (src/core/ajax_snippet.h); shipping the source keeps the initial page
// faithful to the paper's architecture (Fig. 1).
constexpr char kSnippetSource[] = R"JS(
var rcb = {ts: -1, pid: null, key: null, interval: 1000};
function rcbConfig() {
  var metas = document.getElementsByTagName('meta');
  for (var i = 0; i < metas.length; i++) {
    if (metas[i].name == 'rcb-pid') rcb.pid = metas[i].content;
    if (metas[i].name == 'rcb-poll-interval') rcb.interval = +metas[i].content;
  }
}
function rcbPoll() {
  var xhr = new XMLHttpRequest();
  var body = 'pid=' + rcb.pid + '&ts=' + rcb.ts + '&actions=' + rcbActions();
  var uri = '/' + (rcb.key ? '?hmac=' + rcbHmac('POST /\n' + body) : '');
  xhr.open('POST', uri, true);
  xhr.onreadystatechange = function() {
    if (xhr.readyState == 4 && xhr.status == 200) {
      if (xhr.responseXML) rcbApply(xhr.responseXML);
      setTimeout(rcbPoll, rcb.interval);
    }
  };
  xhr.setRequestHeader('Content-Type', 'application/x-www-form-urlencoded');
  xhr.send(body);
}
function rcbApply(doc) { /* Fig. 5: clean head (keep this script), set head
  children, drop stale top elements, set body/frameset via innerHTML */ }
function rcbClick(el) { rcbQueue('click', el); return false; }
function rcbSubmit(el) { rcbQueue('submit', el); return false; }
function rcbFill(el) { rcbQueue('fill', el); }
)JS";

constexpr std::string_view kAuthFailed = "request authentication failed";

std::string_view StripPrefixView(std::string_view s, size_t n) {
  return s.substr(n);
}

// Extracts the trace= field from a poll body without decoding the rest
// (classification happens before DecodePollRequest; a malformed body simply
// yields no trace id and the request stays uncorrelated).
std::string PeekTraceField(std::string_view body) {
  for (const auto& [name, value] : ParseFormUrlEncodedOrdered(body)) {
    if (name == "trace") {
      return value;
    }
  }
  return "";
}

}  // namespace

HttpServerLimits SocketLimits(const AgentLimits& limits) {
  HttpServerLimits server;
  server.request = {limits.max_request_head_bytes,
                    limits.max_request_body_bytes};
  server.max_connections = limits.max_connections;
  server.read_timeout = limits.idle_read_timeout;
  return server;
}

Duration JitteredRetryAfter(Duration base, Duration jitter,
                            std::string_view key) {
  int64_t window_ms = jitter.millis();
  if (window_ms <= 0) {
    return base;
  }
  return base + Duration::Millis(static_cast<int64_t>(
                    StableHash64(key) %
                    static_cast<uint64_t>(window_ms + 1)));
}

RcbAgent::RcbAgent(Browser* host_browser, AgentConfig config)
    : browser_(host_browser),
      config_(std::move(config)),
      generator_(host_browser),
      flight_(&trace_, &registry_,
              obs::FlightRecorder::Options::For("agent", config_.flight_dir)),
      health_(config_.health_slo, &flight_),
      server_(browser_->loop(), browser_->network(), "rcb-agent",
              SocketLimits(config_.limits),
              {.on_request =
                   [this](HttpServer::ConnId conn, const HttpRequest& request) {
                     return OnRequest(conn, request);
                   },
               .over_capacity = [this] { return RejectConnection(); },
               .on_oversized = [this] { ++metrics_.oversized_rejected; },
               .on_read_timeout = [this] { ++metrics_.idle_read_timeouts; },
               .on_close =
                   [this](HttpServer::ConnId conn) {
                     OnConnectionClosed(conn);
                   }}) {
  RegisterMetrics();
  BroadcastOptions broadcast_options;
  broadcast_options.enable_delta = config_.enable_delta;
  broadcast_options.cache_object_filter = config_.cache_object_filter;
  BroadcastInstruments instruments;
  instruments.metrics = &metrics_;
  instruments.trace = &trace_;
  for (size_t i = 0; i < 2; ++i) {
    instruments.stage_hist[i] = stage_hist_[i];
  }
  instruments.generation_us = generation_us_;
  instruments.snapshot_bytes = snapshot_bytes_;
  instruments.patch_ops = patch_ops_;
  for (size_t i = 0; i < 3; ++i) {
    instruments.delta_stage_hist[i] = delta_stage_hist_[i];
  }
  broadcast_.emplace(&generator_, browser_->loop(),
                     std::move(broadcast_options), instruments);
}

void RcbAgent::TraceMarker(const char* name, obs::TraceAttrs attrs) {
  if (!trace_ctx_.active()) {
    return;
  }
  trace_.Append(name, obs::Provenance::kSim, browser_->loop()->now().micros(),
                0, trace_ctx_, std::move(attrs));
}

void RegisterObjectCacheMetrics(const ObjectCache* cache,
                                obs::MetricsRegistry* registry) {
  registry->AddCallbackCounter("rcb_cache_hits", "Object cache lookup hits",
                               obs::Provenance::kSim,
                               [cache] { return cache->hits(); });
  registry->AddCallbackCounter("rcb_cache_misses", "Object cache lookup misses",
                               obs::Provenance::kSim,
                               [cache] { return cache->misses(); });
  registry->AddCallbackCounter("rcb_cache_evictions",
                               "Objects evicted by the cache byte budget",
                               obs::Provenance::kSim,
                               [cache] { return cache->evictions(); });
  registry->AddCallbackCounter("rcb_cache_evicted_bytes",
                               "Bytes evicted by the cache byte budget",
                               obs::Provenance::kSim,
                               [cache] { return cache->evicted_bytes(); });
  registry->AddCallbackGauge(
      "rcb_cache_bytes", "Bytes currently held by the object cache",
      obs::Provenance::kSim,
      [cache] { return static_cast<double>(cache->total_bytes()); });
  registry->AddCallbackGauge(
      "rcb_cache_objects", "Objects currently held by the object cache",
      obs::Provenance::kSim,
      [cache] { return static_cast<double>(cache->size()); });
}

void RcbAgent::RegisterMetrics() {
  obs::MetricsRegistry* reg = &registry_;
  // Counters: every AgentMetrics field, callback-backed so the struct stays
  // the single source of truth; /metrics and /status both read them here.
  // All of them are sim-provenance: they count simulated protocol events.
  auto field = [reg](std::string_view name, std::string_view help,
                     const uint64_t& source) {
    reg->AddCallbackCounter(name, help, obs::Provenance::kSim,
                            [&source] { return source; });
  };
  field("rcb_agent_polls_received", "Ajax polling requests received",
        metrics_.polls_received);
  field("rcb_agent_polls_with_content", "Poll responses carrying a snapshot",
        metrics_.polls_with_content);
  field("rcb_agent_polls_empty", "Poll responses with no new content",
        metrics_.polls_empty);
  field("rcb_agent_object_requests", "GET /obj/<key> requests served",
        metrics_.object_requests);
  field("rcb_agent_object_bytes_served", "Cached object bytes served",
        metrics_.object_bytes_served);
  field("rcb_agent_new_connections", "Initial pages served to new participants",
        metrics_.new_connections);
  field("rcb_agent_auth_failures", "Requests failing HMAC verification",
        metrics_.auth_failures);
  field("rcb_agent_doc_updates", "Document versions observed by the agent",
        metrics_.doc_updates);
  field("rcb_agent_generations", "Fig. 3 content-generation pipeline runs",
        metrics_.generations);
  field("rcb_agent_snapshot_reuses", "Snapshots served without regeneration",
        metrics_.snapshot_reuses);
  field("rcb_agent_actions_applied", "Participant actions applied on the host",
        metrics_.actions_applied);
  field("rcb_agent_actions_held", "Actions queued for host confirmation",
        metrics_.actions_held);
  field("rcb_agent_actions_denied", "Actions rejected by policy",
        metrics_.actions_denied);
  field("rcb_agent_poll_timeouts", "Abandoned polls reported by snippets",
        metrics_.poll_timeouts);
  field("rcb_agent_reconnects", "Resume re-handshakes served",
        metrics_.reconnects);
  field("rcb_agent_resyncs", "Full snapshots served to resync polls",
        metrics_.resyncs);
  field("rcb_agent_participants_reaped", "Silent participants removed",
        metrics_.participants_reaped);
  field("rcb_agent_connections_rejected", "503s at accept (connection cap)",
        metrics_.connections_rejected);
  field("rcb_agent_participants_rejected", "503s at join/poll (roster cap)",
        metrics_.participants_rejected);
  field("rcb_agent_polls_rate_limited", "429s from the poll token bucket",
        metrics_.polls_rate_limited);
  field("rcb_agent_actions_rate_limited",
        "Piggybacked actions dropped by the action token bucket",
        metrics_.actions_rate_limited);
  field("rcb_agent_actions_shed", "Reject-newest drops at a full action queue",
        metrics_.actions_shed);
  field("rcb_agent_snapshots_shed",
        "Parked-poll versions superseded before send",
        metrics_.snapshots_shed);
  field("rcb_agent_idle_read_timeouts", "Slow-loris connections closed",
        metrics_.idle_read_timeouts);
  field("rcb_agent_oversized_rejected", "413s for head/body over the caps",
        metrics_.oversized_rejected);
  field("rcb_agent_recovery_deferrals",
        "503s staggering post-recovery resync admission",
        metrics_.recovery_deferrals);
  field("rcb_agent_patches_served", "newPatch delta responses sent",
        metrics_.patches_served);
  field("rcb_agent_patch_fallback_no_base",
        "Patch fallbacks because the acked base left the history window",
        metrics_.patch_fallback_no_base);
  field("rcb_agent_patch_fallback_oversize",
        "Patch fallbacks because the patch exceeded the size cutoff",
        metrics_.patch_fallback_oversize);
  field("rcb_agent_patch_bytes_sent", "Cumulative patch response bytes",
        metrics_.patch_bytes_sent);
  field("rcb_agent_patch_snapshot_bytes",
        "Snapshot bytes the served patches replaced",
        metrics_.patch_snapshot_bytes);
  field("rcb_agent_content_bytes_sent",
        "Bytes of document-content-bearing response bodies (snapshot or patch)",
        metrics_.content_bytes_sent);
  field("rcb_agent_snapshot_bytes_raw",
        "CDATA payload bytes before JsEscape, across all generations",
        metrics_.snapshot_bytes_raw);
  field("rcb_agent_snapshot_bytes_escaped",
        "CDATA payload bytes after JsEscape, across all generations",
        metrics_.snapshot_bytes_escaped);

  // Streamed transport (DESIGN.md §15): long-poll counters plus a gauge for
  // the currently-held sockets the overload cap reasons about.
  field("rcb_transport_long_polls_parked", "Empty polls held as long-polls",
        metrics_.transport_long_polls_parked);
  field("rcb_transport_long_poll_flushes",
        "Held long-polls released with content or actions",
        metrics_.transport_long_poll_flushes);
  field("rcb_transport_long_poll_expiries",
        "Held long-polls released empty at the hold deadline",
        metrics_.transport_long_poll_expiries);
  field("rcb_transport_capacity_denials",
        "Long-poll grants refused at the held-socket cap",
        metrics_.transport_capacity_denials);
  reg->AddCallbackGauge(
      "rcb_transport_polls_parked", "Long-polls currently held open",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(parked_.size()); });

  // ObjectCache counters/gauges (shared with the host browser). A browser on
  // a shared cache skips them: RcbHost's cache is host-wide and registered
  // once by the host.
  if (!browser_->uses_shared_cache()) {
    RegisterObjectCacheMetrics(&browser_->cache(), reg);
  }

  // Serialization cache (docs/PERF_MODEL.md). Same budget-metric convention
  // as rcb_cache_*: {hits,misses,evictions,evicted_bytes} counters plus a
  // current-bytes gauge and a current-entry-count gauge (`spans` here,
  // `objects` above). Per-agent, unlike the host-wide object cache.
  const ContentGenerator* gen = &generator_;
  reg->AddCallbackCounter(
      "rcb_serialize_cache_hits", "Serialization cache subtree hits",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().hits; });
  reg->AddCallbackCounter(
      "rcb_serialize_cache_misses", "Serialization cache subtree misses",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().misses; });
  reg->AddCallbackCounter(
      "rcb_serialize_cache_evictions",
      "Spans evicted by the serialization cache byte budget",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().evictions; });
  reg->AddCallbackCounter(
      "rcb_serialize_cache_evicted_bytes",
      "Bytes evicted by the serialization cache byte budget",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().evicted_bytes; });
  reg->AddCallbackCounter(
      "rcb_serialize_cache_hit_bytes",
      "Raw payload bytes served by splicing cached spans",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().hit_bytes; });
  reg->AddCallbackCounter(
      "rcb_serialize_cache_miss_bytes",
      "Raw payload bytes serialized without a cached span",
      obs::Provenance::kSim,
      [gen] { return gen->serialize_cache_stats().miss_bytes; });
  reg->AddCallbackGauge(
      "rcb_serialize_cache_bytes",
      "Bytes currently held by the serialization cache (raw + escaped)",
      obs::Provenance::kSim,
      [gen] {
        return static_cast<double>(gen->serialize_cache_stats().bytes);
      });
  reg->AddCallbackGauge(
      "rcb_serialize_cache_spans",
      "Spans currently held by the serialization cache",
      obs::Provenance::kSim,
      [gen] {
        return static_cast<double>(gen->serialize_cache_stats().spans);
      });

  // Session shape gauges.
  reg->AddCallbackGauge(
      "rcb_agent_participants", "Participants on the roster",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(participants_.size()); });
  reg->AddCallbackGauge(
      "rcb_agent_pending_actions", "Actions awaiting host confirmation",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(pending_actions_.size()); });
  reg->AddCallbackGauge(
      "rcb_agent_last_snapshot_bytes", "Serialized size of the last snapshot",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(metrics_.last_snapshot_bytes); });
  reg->AddCallbackGauge(
      "rcb_agent_last_generation_us",
      "CPU time of the last Fig. 3 pipeline run (M5)", obs::Provenance::kWall,
      [this] {
        return static_cast<double>(metrics_.last_generation_time.micros());
      });
  reg->AddCallbackGauge(
      "rcb_agent_total_generation_us",
      "Cumulative CPU time of all Fig. 3 pipeline runs",
      obs::Provenance::kWall, [this] {
        return static_cast<double>(metrics_.total_generation_time.micros());
      });

  // Trace-log health: span counts are a pure function of the simulated
  // schedule even though span durations are wall time.
  reg->AddCallbackCounter("rcb_agent_trace_spans",
                          "Spans appended to the trace ring",
                          obs::Provenance::kSim,
                          [this] { return trace_.total_appended(); });
  reg->AddCallbackCounter("rcb_trace_dropped_total",
                          "Spans evicted from the trace ring",
                          obs::Provenance::kSim,
                          [this] { return trace_.dropped(); });
  reg->AddCallbackGauge(
      "rcb_trace_retained", "Spans currently retained by the trace ring",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(trace_.size()); });
  // Flight recorder (DESIGN.md §11): per-trigger counts plus artifacts
  // actually written (0 unless a dump directory is configured).
  static constexpr const char* kAgentTriggers[3] = {"resync", "auth_failure",
                                                    "overload"};
  for (const char* trigger : kAgentTriggers) {
    reg->AddCallbackCounter(
        "rcb_flight_triggers_total", "Flight-recorder trigger firings",
        obs::Provenance::kSim,
        [this, trigger] { return flight_.triggers(trigger); },
        StrFormat("trigger=\"%s\"", trigger));
  }
  reg->AddCallbackCounter("rcb_flight_dumps_written",
                          "Flight-recorder JSONL artifacts written",
                          obs::Provenance::kSim,
                          [this] { return flight_.dumps_written(); });

  // Histograms. Stage and request CPU times are wall provenance; the
  // serialized snapshot size is sim provenance (deterministic bytes).
  static constexpr const char* kStageLabels[2] = {"stage=\"extract\"",
                                                  "stage=\"serialize\""};
  for (size_t i = 0; i < 2; ++i) {
    stage_hist_[i] = reg->AddHistogram(
        "rcb_agent_gen_stage_us",
        "CPU microseconds per Fig. 3 snapshot-pipeline stage",
        obs::Provenance::kWall, obs::LatencyBoundsUs(),
        kStageLabels[i]);
  }
  // Only a delta-enabled agent runs the delta stages.
  static constexpr const char* kDeltaStageLabels[3] = {
      "stage=\"materialize\"", "stage=\"digest\"", "stage=\"diff\""};
  for (size_t i = 0; config_.enable_delta && i < 3; ++i) {
    delta_stage_hist_[i] = reg->AddHistogram(
        "rcb_agent_delta_stage_us",
        "CPU microseconds per delta-path stage on the host",
        obs::Provenance::kWall, obs::LatencyBoundsUs(),
        kDeltaStageLabels[i]);
  }
  generation_us_ = reg->AddHistogram(
      "rcb_agent_generation_us",
      "CPU microseconds per whole Fig. 3 pipeline run (M5)",
      obs::Provenance::kWall, obs::LatencyBoundsUs());
  snapshot_bytes_ = reg->AddHistogram(
      "rcb_agent_snapshot_bytes", "Serialized snapshot XML bytes (M2)",
      obs::Provenance::kSim, obs::SizeBoundsBytes());
  hmac_verify_us_ = reg->AddHistogram(
      "rcb_agent_hmac_verify_us",
      "CPU microseconds per HMAC request verification (§3.4)",
      obs::Provenance::kWall, obs::LatencyBoundsUs());
  patch_ops_ = reg->AddHistogram(
      "rcb_agent_patch_ops", "Tree-diff ops per served patch",
      obs::Provenance::kSim, obs::CountBounds());
  patch_bytes_ = reg->AddHistogram(
      "rcb_agent_patch_bytes", "Serialized bytes per served patch response",
      obs::Provenance::kSim, obs::SizeBoundsBytes());
  sync_latency_us_ = reg->AddHistogram(
      "rcb_agent_sync_latency_us",
      "Simulated microseconds from document version stamp to content served",
      obs::Provenance::kSim, obs::LatencyBoundsUs());
  static constexpr const char* kRequestLabels[6] = {
      "type=\"poll\"",   "type=\"new_connection\"", "type=\"object\"",
      "type=\"status\"", "type=\"metrics\"",        "type=\"other\""};
  for (size_t i = 0; i < 6; ++i) {
    request_hist_[i] = reg->AddHistogram(
        "rcb_agent_request_us",
        "CPU microseconds handling one request, by Fig. 2 class",
        obs::Provenance::kWall, obs::LatencyBoundsUs(),
        kRequestLabels[i]);
  }
}

RcbAgent::~RcbAgent() { Stop(); }

Status RcbAgent::Start() {
  if (running_) {
    return FailedPreconditionError("agent already running");
  }
  RCB_RETURN_IF_ERROR(server_.Listen(browser_->machine(), config_.port));
  browser_->SetDocumentChangeListener([this] { OnDocumentChange(); });
  if (config_.limits.cache_byte_budget > 0) {
    browser_->cache().set_byte_budget(config_.limits.cache_byte_budget);
  }
  last_activity_ = browser_->loop()->now();
  running_ = true;
  // A restored agent (RestoreState set has_version_) keeps its checkpointed
  // version instead of stamping a fresh one over it.
  if (browser_->has_page() && !has_version_) {
    OnDocumentChange();
  }
  return Status::Ok();
}

void RcbAgent::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  browser_->SetDocumentChangeListener(nullptr);
  // Parked long-polls are held server connections; cancel their hold timers
  // before the server's teardown below closes the sockets.
  for (auto& [pid, parked] : parked_) {
    browser_->loop()->Cancel(parked.deadline_id);
  }
  parked_.clear();
  server_.Stop();
}

HttpResponse RcbAgent::HandleHostRequest(const HttpRequest& request) {
  // The front-door router is synchronous: it cannot hold this connection, so
  // its requests are never granted a long-poll nor parked.
  RequestScope scope;
  return HandleRequest(request, scope);
}

Url RcbAgent::AgentUrl() const {
  return Url::Make("http", browser_->machine(), config_.port, "/");
}

AgentStateExport RcbAgent::ExportState() const {
  AgentStateExport state;
  state.doc_time_ms = current_doc_time_ms_;
  state.has_version = has_version_;
  state.next_pid = next_pid_;
  if (browser_->has_page()) {
    state.document_html = SerializeNode(*browser_->document());
    state.document_url = browser_->current_url().ToString();
  }
  for (const auto& [pid, participant] : participants_) {
    state.participants.push_back(ParticipantExport{
        pid, participant.doc_time_ms, participant.last_seq,
        participant.timeouts_reported, participant.polls});
  }
  for (const PendingAction& pending : pending_actions_) {
    state.pending_actions.push_back(
        PendingActionExport{pending.participant_id, pending.action});
  }
  return state;
}

Status RcbAgent::RestoreState(const AgentStateExport& state) {
  if (running_) {
    return FailedPreconditionError("restore requires a stopped agent");
  }
  restoring_ = true;
  if (!state.document_html.empty()) {
    auto url = Url::Parse(state.document_url);
    if (!url.ok()) {
      restoring_ = false;
      return InvalidArgumentError("restore: bad document url");
    }
    browser_->ReplaceDocument(ParseDocument(state.document_html), *url);
  }
  current_doc_time_ms_ = state.doc_time_ms;
  has_version_ = state.has_version;
  next_pid_ = state.next_pid;
  broadcast_->Invalidate();
  participants_.clear();
  for (const ParticipantExport& exported : state.participants) {
    ParticipantState& participant = EnsureParticipant(exported.pid);
    // The participant's DOM is untrusted after the gap: -1 forces the
    // full-snapshot resync path on its first post-recovery poll. The
    // anti-replay mark and counters come back exactly.
    participant.doc_time_ms = -1;
    participant.last_seq = exported.last_seq;
    participant.timeouts_reported = exported.timeouts_reported;
    participant.polls = exported.polls;
    participant.last_poll = browser_->loop()->now();  // reap grace period
  }
  pending_actions_.clear();
  for (const PendingActionExport& pending : state.pending_actions) {
    pending_actions_.push_back(PendingAction{pending.pid, pending.action});
  }
  restoring_ = false;
  return Status::Ok();
}

std::optional<HttpResponse> RcbAgent::OnRequest(HttpServer::ConnId conn,
                                                const HttpRequest& request) {
  RequestScope scope;
  scope.holdable = true;
  HttpResponse response = HandleRequest(request, scope);
  if (scope.park.has_value()) {
    // The poll found nothing to send and both sides hold the long-poll
    // capability: hold the connection instead of answering (DESIGN.md §15).
    ParkPoll(conn, std::move(*scope.park));
    return std::nullopt;
  }
  return response;
}

HttpResponse RcbAgent::RejectConnection() {
  ++metrics_.connections_rejected;
  return HttpResponse::ServiceUnavailable(
      JitteredRetryAfter(
          config_.poll_interval, config_.limits.retry_after_jitter,
          StrFormat("conn%llu", static_cast<unsigned long long>(
                                    metrics_.connections_rejected))),
      "connection limit reached");
}

void RcbAgent::OnConnectionClosed(HttpServer::ConnId conn) {
  // A client-side drop of a held long-poll forgets the hold.
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->second.conn == conn) {
      browser_->loop()->Cancel(it->second.deadline_id);
      parked_.erase(it);
      return;
    }
  }
}

void RcbAgent::OnDocumentChange() {
  if (restoring_) {
    return;  // RestoreState installs the checkpointed version itself
  }
  int64_t now_ms = browser_->loop()->now().millis();
  current_doc_time_ms_ =
      now_ms > current_doc_time_ms_ ? now_ms : current_doc_time_ms_ + 1;
  broadcast_->Invalidate();
  has_version_ = true;
  ++metrics_.doc_updates;
  if (config_.state_observer != nullptr) {
    config_.state_observer->OnDocVersion(current_doc_time_ms_);
  }
  if (!parked_.empty()) {
    ScheduleTransportFlush();
  }
}

// ---------------------------------------------------------------------------
// Streamed transport (DESIGN.md §15): held long-polls.
// ---------------------------------------------------------------------------

void RcbAgent::ParkPoll(HttpServer::ConnId conn, ParkIntent intent) {
  const std::string pid = intent.pid;
  ParkedPoll parked;
  parked.conn = conn;
  parked.acked_doc_time_ms = intent.acked_doc_time_ms;
  parked.deadline_id = browser_->loop()->Schedule(
      config_.transport.long_poll_hold,
      [this, pid] { ReleaseParkedPoll(pid); });
  parked_[pid] = std::move(parked);
}

std::optional<RcbAgent::ParkedPoll> RcbAgent::Unpark(const std::string& pid) {
  auto it = parked_.find(pid);
  if (it == parked_.end()) {
    return std::nullopt;
  }
  ParkedPoll parked = it->second;
  parked_.erase(it);
  browser_->loop()->Cancel(parked.deadline_id);  // no-op once it has fired
  return parked;
}

void RcbAgent::ReleaseParkedPoll(const std::string& pid) {
  std::optional<ParkedPoll> parked = Unpark(pid);
  if (!parked.has_value()) {
    return;
  }
  std::optional<ContentBody> body;
  auto participant_it = participants_.find(pid);
  if (participant_it != participants_.end()) {
    ParticipantState& participant = participant_it->second;
    participant.last_poll = browser_->loop()->now();
    const int64_t held = participant.doc_time_ms;
    body = TakeDelivery(pid, participant, parked->acked_doc_time_ms,
                        TransportExemplar(pid));
    if (participant.doc_time_ms != held) {
      participant.released_from = held;
    }
  }
  if (body.has_value()) {
    ++metrics_.transport_long_poll_flushes;
  } else {
    // Counted as a transport expiry only — disjoint from polls_empty
    // (classic empty replies), so transport::WastedPolls sums each wasted
    // round trip exactly once.
    ++metrics_.transport_long_poll_expiries;
  }
  HttpResponse response = HttpResponse::Ok(
      "application/xml", body.has_value() ? std::move(body->xml) : "");
  response.headers.Set("RCB-Transport", GrantHeader());
  server_.Answer(parked->conn, response);
}

std::string RcbAgent::GrantHeader() const {
  return transport::FormatTransportGrant(
      {config_.transport.long_poll_hold.millis()});
}

void RcbAgent::RecordContentServed(std::string_view trace_id) {
  // Health-plane sync latency: document version stamp -> content on the
  // wire, in sim time. Fed to the registry histogram and to the windowed
  // tracker, whose exemplars let a p99 spike name the trace that caused it.
  int64_t now_us = browser_->loop()->now().micros();
  int64_t latency_us = now_us - current_doc_time_ms_ * 1000;
  if (latency_us < 0) {
    latency_us = 0;
  }
  health_.RecordSyncLatency(latency_us, now_us, trace_id);
  sync_latency_us_->Record(latency_us);
}

RcbAgent::ContentBody RcbAgent::BuildContentBody(
    const std::string& pid, int64_t acked, std::vector<UserAction> outbox,
    std::string_view exemplar) {
  SnapshotSlot& slot = RefreshSlot(CacheModeFor(pid), /*count_reuse=*/true);
  RecordContentServed(exemplar);
  // Delta path (§4.1.1 guarded): only when the receiver acks a concrete
  // version it advertised patch= for — and only when the patch is genuinely
  // smaller than the snapshot (MaybeBuildPatchResponse returns nullopt
  // otherwise, falling through to the full snapshot).
  if (config_.enable_delta && acked >= 0) {
    std::optional<std::string> patch_xml =
        broadcast_->MaybeBuildPatchResponse(slot, acked, &outbox, trace_ctx_);
    if (patch_xml) {
      ++metrics_.patches_served;
      metrics_.patch_bytes_sent += patch_xml->size();
      metrics_.patch_snapshot_bytes += slot.xml.size();
      metrics_.content_bytes_sent += patch_xml->size();
      patch_bytes_->Record(static_cast<int64_t>(patch_xml->size()));
      return {std::move(*patch_xml), /*patch=*/true};
    }
  }
  if (outbox.empty()) {
    // Fast path: the serialized snapshot is shared across participants
    // co-browsing in the same mode.
    metrics_.content_bytes_sent += slot.xml.size();
    return {slot.xml};
  }
  // Per-participant flavour of the shared snapshot: prescaped slot spans are
  // spliced and the outbox rides along via override_actions, so the page
  // bytes are never re-escaped or copied per receiver.
  std::string xml =
      SerializeSnapshotXml(slot.snapshot, nullptr, &slot.escaped, &outbox);
  metrics_.content_bytes_sent += xml.size();
  return {std::move(xml)};
}

std::optional<RcbAgent::ContentBody> RcbAgent::TakeDelivery(
    const std::string& pid, ParticipantState& participant, int64_t acked,
    std::string_view exemplar) {
  std::vector<UserAction> outbox = std::move(participant.outbox);
  participant.outbox.clear();
  if (has_version_ && participant.doc_time_ms < current_doc_time_ms_) {
    ContentBody body =
        BuildContentBody(pid, acked, std::move(outbox), exemplar);
    participant.doc_time_ms = current_doc_time_ms_;
    ++metrics_.polls_with_content;
    return body;
  }
  if (outbox.empty()) {
    return std::nullopt;
  }
  ++metrics_.polls_with_content;
  return ContentBody{
      ActionsOnlyXml(participant.doc_time_ms, std::move(outbox))};
}

std::string RcbAgent::TransportExemplar(const std::string& pid) const {
  if (!trace_ctx_.active() && config_.enable_trace) {
    return "transport-" + pid;
  }
  return trace_ctx_.trace_id;
}

std::string RcbAgent::ActionsOnlyXml(int64_t doc_time_ms,
                                     std::vector<UserAction> actions) {
  Snapshot actions_only;
  actions_only.doc_time_ms = doc_time_ms;
  actions_only.has_content = false;
  actions_only.user_actions = std::move(actions);
  return SerializeSnapshotXml(actions_only);
}

void RcbAgent::ScheduleTransportFlush() {
  if (transport_flush_pending_) {
    // Drop-oldest: the superseded version was never serialized for these
    // receivers; only the newest one will go out.
    ++metrics_.snapshots_shed;
    return;
  }
  transport_flush_pending_ = true;
  browser_->loop()->Schedule(Duration::Zero(), [this] {
    transport_flush_pending_ = false;
    if (running_) {
      FlushTransport();
    }
  });
}

void RcbAgent::FlushTransport() {
  // Releasing a parked poll erases it from parked_: snapshot the keys first.
  std::vector<std::string> held;
  held.reserve(parked_.size());
  for (const auto& [pid, parked] : parked_) {
    held.push_back(pid);
  }
  for (const std::string& pid : held) {
    ReleaseParkedPoll(pid);
  }
}

void RcbAgent::KickTransport(const std::string& pid) {
  auto participant_it = participants_.find(pid);
  if (participant_it == participants_.end() ||
      participant_it->second.outbox.empty()) {
    return;
  }
  ReleaseParkedPoll(pid);
}

bool RcbAgent::CacheModeFor(const std::string& pid) const {
  if (config_.participant_cache_mode) {
    return config_.participant_cache_mode(pid);
  }
  return config_.cache_mode;
}

RcbAgent::SnapshotSlot& RcbAgent::RefreshSlot(bool cache_mode, bool count_reuse) {
  return broadcast_->Refresh(cache_mode, count_reuse, current_doc_time_ms_,
                             AgentUrl(), trace_ctx_);
}

const Snapshot& RcbAgent::CurrentSnapshotForTest() {
  // Introspection must not skew the reuse metric benchmarks report.
  return RefreshSlot(config_.cache_mode, /*count_reuse=*/false).snapshot;
}

HttpResponse RcbAgent::HandleRequest(const HttpRequest& request,
                                     RequestScope& scope) {
  ++requests_handled_;
  HttpResponse response = DispatchRequest(request, scope);
  // End-of-request health sampling: every counter delta this request caused
  // lands in the current window bucket, and alert edges fire here — a
  // deterministic event site, so windowed state double-runs bit-identically.
  obs::HealthSample sample;
  sample.requests = requests_handled_;
  sample.polls_received = metrics_.polls_received;
  sample.wasted_polls = transport::WastedPolls(
      {metrics_.polls_empty, metrics_.transport_long_poll_expiries});
  sample.resyncs = metrics_.resyncs;
  sample.auth_failures = metrics_.auth_failures;
  health_.Sample(sample, browser_->loop()->now().micros());
  return response;
}

HttpResponse RcbAgent::DispatchRequest(const HttpRequest& request,
                                       RequestScope& scope) {
  last_activity_ = browser_->loop()->now();
  int64_t sim_now_us = last_activity_.micros();
  // Fig. 2: classify by method token and request-URI token. Each class gets
  // a wall span over its handler (request handling consumes zero simulated
  // time, so the sim timestamp only records *where* on the timeline it ran).
  if (request.method == HttpMethod::kPost) {
    // Causal root (DESIGN.md §11): with tracing enabled and a trace-stamped
    // poll, the classification span becomes the root of the agent-side chain
    // and everything below (HMAC verify, merge, generation, diff, response
    // markers) parents to it. Otherwise root_ctx stays inactive and this is
    // exactly the flat pre-causal span.
    obs::TraceContext root_ctx;
    if (config_.enable_trace) {
      root_ctx.trace_id = PeekTraceField(request.body);
    }
    obs::WallSpan span(&trace_, "agent.request.poll", sim_now_us,
                       request_hist_[0], &root_ctx);
    trace_ctx_ = obs::TraceContext{root_ctx.trace_id, span.span_id()};
    HttpResponse response = HandlePoll(request, scope);
    trace_ctx_ = obs::TraceContext{};
    // Capability answer (DESIGN.md §15): only successful poll responses
    // carry the grant; error paths stay byte-identical to classic polling.
    if (scope.granted && response.status_code == 200) {
      response.headers.Set("RCB-Transport", GrantHeader());
    }
    return response;
  }
  if (request.method == HttpMethod::kGet) {
    std::string path = request.Path();
    if (path == "/") {
      obs::WallSpan span(&trace_, "agent.request.new_connection", sim_now_us,
                         request_hist_[1]);
      return HandleNewConnection(request);
    }
    if (StartsWith(path, "/obj/")) {
      obs::WallSpan span(&trace_, "agent.request.object", sim_now_us,
                         request_hist_[2]);
      return HandleObjectRequest(request);
    }
    if (path == "/status") {
      obs::WallSpan span(&trace_, "agent.request.status", sim_now_us,
                         request_hist_[3]);
      return HandleStatusPage();
    }
    if (path == "/metrics") {
      obs::WallSpan span(&trace_, "agent.request.metrics", sim_now_us,
                         request_hist_[4]);
      return HandleMetrics(request);
    }
    if (path == "/health") {
      obs::WallSpan span(&trace_, "agent.request.health", sim_now_us,
                         request_hist_[4]);
      return HandleHealth(request);
    }
    obs::WallSpan span(&trace_, "agent.request.other", sim_now_us,
                       request_hist_[5]);
    return HttpResponse::NotFound(path);
  }
  obs::WallSpan span(&trace_, "agent.request.other", sim_now_us,
                     request_hist_[5]);
  return HttpResponse::BadRequest("unsupported method");
}

HttpResponse RcbAgent::HandleMetrics(const HttpRequest& request) {
  // The exposition names participants and counts their behaviour, so it is
  // authenticated exactly like polls (§3.4): anyone holding the session key
  // may scrape it.
  if (auto rejection = AdmitAuth(request, kAuthFailed)) {
    return std::move(*rejection);
  }
  obs::RenderOptions options;
  auto params = request.QueryParams();
  auto view = params.find("view");
  if (view != params.end() && view->second == "sim") {
    options.include_wall = false;  // deterministic subset only
  }
  return HttpResponse::Ok("text/plain; version=0.0.4; charset=utf-8",
                          registry_.RenderPrometheus(options));
}

HttpResponse RcbAgent::HandleHealth(const HttpRequest& request) {
  // Same trust boundary as /metrics: the body names SLO state and trace ids.
  if (auto rejection = AdmitAuth(request, kAuthFailed)) {
    return std::move(*rejection);
  }
  return HttpResponse::Ok(
      "application/json",
      health_.ToJson(browser_->loop()->now().micros()) + "\n");
}

std::string RcbAgent::BuildInitialPage(const std::string& pid) const {
  std::string head;
  head += "<title>RCB co-browsing session</title>";
  head += "<script id=\"rcb-snippet\">";
  head += kSnippetSource;
  head += "</script>";
  head += StrFormat("<meta name=\"rcb-pid\" content=\"%s\">", pid.c_str());
  head += StrFormat("<meta name=\"rcb-poll-interval\" content=\"%lld\">",
                    static_cast<long long>(config_.poll_interval.millis()));
  head += StrFormat("<meta name=\"rcb-cache-mode\" content=\"%s\">",
                    config_.cache_mode ? "1" : "0");
  // Kept for wire compatibility: content is always delivered by polling or
  // by the streamed transport a poll negotiates.
  head += "<meta name=\"rcb-sync-model\" content=\"poll\">";
  std::string body;
  body += "<h1>RCB co-browsing</h1>";
  body += "<form id=\"rcb-join\" onsubmit=\"return rcbJoin(this)\">";
  body += "<input type=\"password\" name=\"key\" value=\"\"> session key ";
  body += "<input type=\"submit\" name=\"join\" value=\"Join\"></form>";
  body += "<div id=\"rcb-status\">connected; waiting for host content</div>";
  return "<!DOCTYPE html><html><head>" + head + "</head><body onload=\"rcbConfig();rcbPoll()\">" +
         body + "</body></html>";
}

HttpResponse RcbAgent::HandleNewConnection(const HttpRequest& request) {
  // §3.2.3 recovery: a returning participant re-handshakes with
  // GET /?resume=<pid> and keeps its identity. Unlike a fresh join (where the
  // key is entered into the join form afterwards), the participant already
  // holds the session key, so the resume request must carry a valid HMAC.
  auto params = request.QueryParams();
  auto resume_it = params.find("resume");
  if (resume_it != params.end() && !resume_it->second.empty()) {
    // Resumes climb auth and roster only: re-establishing an identity is
    // cheap, so the recovery window does not defer them.
    if (auto rejection = AdmitAuth(request, "resume authentication failed")) {
      return std::move(*rejection);
    }
    const std::string& pid = resume_it->second;
    if (auto rejection = AdmitRoster(&pid)) {
      return std::move(*rejection);
    }
    if (!participants_.contains(pid)) {
      // Reaped while away: treat as a (re)join and announce it.
      UserAction joined;
      joined.type = ActionType::kPresence;
      joined.data = "joined";
      joined.origin = pid;
      BroadcastToRoster(joined);
    }
    ParticipantState& participant = EnsureParticipant(pid);
    participant.last_poll = browser_->loop()->now();
    // Force a full snapshot on the next poll regardless of what the
    // participant claims to hold — its DOM state is untrusted after a gap.
    participant.doc_time_ms = -1;
    ++metrics_.reconnects;
    return HttpResponse::Ok("text/html", BuildInitialPage(pid));
  }

  if (auto rejection = AdmitRoster(/*pid=*/nullptr)) {
    return std::move(*rejection);
  }
  std::string pid = StrFormat("p%llu", static_cast<unsigned long long>(next_pid_++));
  // Announce the newcomer to everyone already in the session (§5.2.3: users
  // asked for indicators of the other person's connection and status).
  UserAction joined;
  joined.type = ActionType::kPresence;
  joined.data = "joined";
  joined.origin = pid;
  BroadcastToRoster(joined);
  ParticipantState& participant = EnsureParticipant(pid);
  participant.last_poll = browser_->loop()->now();
  ++metrics_.new_connections;
  return HttpResponse::Ok("text/html", BuildInitialPage(pid));
}

void RcbAgent::RemoveParticipant(const std::string& pid) {
  auto it = participants_.find(pid);
  if (it == participants_.end()) {
    return;
  }
  participants_.erase(it);
  if (config_.state_observer != nullptr) {
    config_.state_observer->OnParticipantLeft(pid);
  }
  if (std::optional<ParkedPoll> parked = Unpark(pid)) {
    server_.Close(parked->conn);
  }
  UserAction left;
  left.type = ActionType::kPresence;
  left.data = "left";
  left.origin = pid;
  BroadcastToRoster(left);
}

RcbAgent::ParticipantState& RcbAgent::EnsureParticipant(const std::string& pid) {
  auto [it, inserted] = participants_.try_emplace(pid);
  if (inserted) {
    it->second.poll_bucket = TokenBucket(config_.limits.poll_rate_per_sec,
                                         config_.limits.poll_burst);
    it->second.action_bucket = TokenBucket(config_.limits.action_rate_per_sec,
                                           config_.limits.action_burst);
    // Checkpoint rehydration is not a new transition — only live joins log.
    if (config_.state_observer != nullptr && !restoring_) {
      config_.state_observer->OnParticipantJoined(pid);
    }
  }
  return it->second;
}

std::optional<HttpResponse> RcbAgent::AdmitAuth(const HttpRequest& request,
                                                std::string_view body) {
  if (VerifyRequestAuth(request)) {
    return std::nullopt;
  }
  return RejectAuth(body);
}

HttpResponse RcbAgent::RejectAuth(std::string_view body,
                                  std::string_view reason) {
  ++metrics_.auth_failures;
  flight_.Trigger("auth_failure", browser_->loop()->now().micros());
  obs::TraceAttrs attrs = {{"code", "403"}};
  if (!reason.empty()) {
    attrs.emplace_back("reason", reason);
  }
  TraceMarker("agent.response.rejected", std::move(attrs));
  return HttpResponse::Forbidden(body);
}

std::optional<HttpResponse> RcbAgent::AdmitRoster(const std::string* pid) {
  const size_t cap = config_.limits.max_participants;
  if ((pid != nullptr && participants_.contains(*pid)) || cap == 0 ||
      participants_.size() < cap) {
    return std::nullopt;
  }
  ++metrics_.participants_rejected;
  flight_.Trigger("overload", browser_->loop()->now().micros());
  TraceMarker("agent.response.rejected", {{"code", "503"}});
  const std::string key =
      pid != nullptr ? *pid
                     : StrFormat("join%llu",
                                 static_cast<unsigned long long>(
                                     metrics_.participants_rejected));
  return HttpResponse::ServiceUnavailable(
      JitteredRetryAfter(config_.poll_interval,
                         config_.limits.retry_after_jitter, key),
      "participant limit reached");
}

std::optional<HttpResponse> RcbAgent::AdmitRecovery(const std::string& pid) {
  const SimTime now = browser_->loop()->now();
  if (now >= resync_admission_at_) {
    return std::nullopt;
  }
  auto it = participants_.find(pid);
  if (it == participants_.end()) {
    return std::nullopt;  // first contact: nothing to resync yet
  }
  it->second.last_poll = now;
  ++metrics_.recovery_deferrals;
  flight_.Trigger("overload", now.micros());
  TraceMarker("agent.response.rejected",
              {{"code", "503"}, {"reason", "recovery_defer"}});
  return HttpResponse::ServiceUnavailable(
      JitteredRetryAfter(resync_admission_at_ - now,
                         config_.limits.retry_after_jitter, pid),
      "recovering: resync admission deferred");
}

void RcbAgent::EnqueueOutbox(ParticipantState& state, const UserAction& action) {
  if (config_.limits.max_outbox_actions > 0 &&
      state.outbox.size() >= config_.limits.max_outbox_actions) {
    ++metrics_.actions_shed;  // reject-newest: keep what is already queued
    return;
  }
  state.outbox.push_back(action);
}

void RcbAgent::BroadcastToRoster(const UserAction& action,
                                 const std::string& skip_pid) {
  for (auto& [pid, state] : participants_) {
    if (pid != skip_pid) {
      EnqueueOutbox(state, action);
    }
  }
  for (const auto& [pid, state] : participants_) {
    if (pid != skip_pid) {
      KickTransport(pid);
    }
  }
}

void RcbAgent::ReapStaleParticipants() {
  SimTime now = browser_->loop()->now();
  Duration liveness = config_.poll_interval * 5;
  std::vector<std::string> stale;
  for (const auto& [pid, state] : participants_) {
    // A parked long-poll signals liveness by itself: its hold may
    // legitimately outlast the liveness window.
    if (!parked_.contains(pid) && state.polls > 0 &&
        now - state.last_poll > liveness) {
      stale.push_back(pid);
    }
  }
  for (const std::string& pid : stale) {
    RemoveParticipant(pid);
    ++metrics_.participants_reaped;
  }
}

HttpResponse RcbAgent::HandleObjectRequest(const HttpRequest& request) {
  ++metrics_.object_requests;
  if (!config_.cache_mode && !config_.participant_cache_mode) {
    return HttpResponse::NotFound("cache mode disabled");
  }
  std::string key(StripPrefixView(request.Path(), std::string("/obj/").size()));
  const CacheEntry* entry = browser_->cache().LookupByKey(key);
  if (entry == nullptr) {
    return HttpResponse::NotFound("no cached object for key " + key);
  }
  metrics_.object_bytes_served += entry->body.size();
  // Stream the cached object straight out (the paper writes the cache input
  // stream into the socket output stream; our value copy is the analogue).
  return HttpResponse::Ok(entry->content_type, entry->body);
}

HttpResponse RcbAgent::HandleStatusPage() const {
  // The host-side session indicator the usability subjects asked for
  // (§5.2.3): who is connected, how fresh they are, what the agent has done.
  std::string body = "<h1>RCB session status</h1>";
  body += StrFormat("<p id=\"mode\">mode: %s / poll | trace: %s</p>",
                    config_.cache_mode ? "cache" : "non-cache",
                    config_.enable_trace ? "on" : "off");
  body += "<table id=\"participants\"><tr><th>participant</th><th>doc version"
          "</th><th>polls</th><th>last seen</th></tr>";
  SimTime now = browser_->loop()->now();
  for (const auto& [pid, state] : participants_) {
    body += StrFormat(
        "<tr><td>%s</td><td>%lld</td><td>%llu</td><td>%.1fs ago</td></tr>",
        pid.c_str(), static_cast<long long>(state.doc_time_ms),
        static_cast<unsigned long long>(state.polls),
        (now - state.last_poll).seconds());
  }
  body += "</table>";
  body += "<pre id=\"metrics\">" + obs::RenderSimValueLines(registry_) +
          "</pre>";
  {
    obs::HealthStatus health =
        health_.Evaluate(browser_->loop()->now().micros());
    std::string alerts;
    for (std::string_view alert : health.ActiveAlerts()) {
      if (!alerts.empty()) {
        alerts += ",";
      }
      alerts += alert;
    }
    body += StrFormat(
        "<p id=\"health\">health: %s | sync window n=%llu p50 %.0f us "
        "p99 %.0f us | alerts: %s</p>",
        std::string(HealthScoreName(health.score)).c_str(),
        static_cast<unsigned long long>(health.sync_count),
        health.sync_p50_us, health.sync_p99_us,
        alerts.empty() ? "none" : alerts.c_str());
  }
  return HttpResponse::Ok(
      "text/html", "<!DOCTYPE html><html><head><title>RCB status</title>"
                   "</head><body>" +
                       body + "</body></html>");
}

bool RcbAgent::VerifyRequestAuth(const HttpRequest& request) {
  if (config_.session_key.empty()) {
    return true;
  }
  obs::WallSpan span(&trace_, "agent.auth.hmac_verify",
                     browser_->loop()->now().micros(), hmac_verify_us_,
                     &trace_ctx_);
  return VerifyRequestMac(config_.session_key, request);
}

HttpResponse RcbAgent::HandlePoll(const HttpRequest& request,
                                  RequestScope& scope) {
  ++metrics_.polls_received;
  // The poll ladder: auth, decode, anti-replay, roster, recovery; then the
  // per-poll token bucket once the participant is known to be admitted.
  if (auto rejection = AdmitAuth(request, kAuthFailed)) {
    return std::move(*rejection);
  }
  auto poll_or = DecodePollRequest(request.body);
  if (!poll_or.ok()) {
    return HttpResponse::BadRequest(poll_or.status().message());
  }
  PollRequest poll = std::move(*poll_or);
  if (trace_ctx_.active()) {
    TraceMarker("agent.poll.request",
                {{"pid", poll.participant_id},
                 {"ts", StrFormat("%lld",
                                  static_cast<long long>(poll.doc_time_ms))},
                 {"actions", StrFormat("%zu", poll.actions.size())},
                 {"resync", poll.resync ? "1" : "0"},
                 {"patch", poll.patch ? "1" : "0"}});
  }

  // Anti-replay (§3.4): signed polls carry a monotonically increasing seq;
  // an equal-or-older value is a replayed (or abandoned and re-delivered)
  // request and must not be re-applied.
  if (!config_.session_key.empty() && poll.seq != 0) {
    auto it = participants_.find(poll.participant_id);
    if (it != participants_.end() && poll.seq <= it->second.last_seq) {
      return RejectAuth("stale poll seq (replay?)", "stale_seq");
    }
  }
  // Overload protection: a full roster sheds unknown pollers, and a
  // just-recovered session staggers its known ones (DESIGN.md §13), both
  // with 503 before any merge or content work.
  if (auto rejection = AdmitRoster(&poll.participant_id)) {
    return std::move(*rejection);
  }
  if (auto rejection = AdmitRecovery(poll.participant_id)) {
    return std::move(*rejection);
  }

  // Presence housekeeping: drop participants that stopped polling, and
  // handle an explicit goodbye before anything else.
  ReapStaleParticipants();
  for (const UserAction& action : poll.actions) {
    if (action.type == ActionType::kPresence && action.data == "left") {
      RemoveParticipant(poll.participant_id);
      return HttpResponse::Ok("application/xml", "");
    }
  }

  ParticipantState& participant = EnsureParticipant(poll.participant_id);
  // A rate-limited poll still counts as a liveness signal (otherwise a
  // throttled participant would eventually be reaped), but does no work:
  // 429 + Retry-After, and the snippet slows down instead of backing off.
  participant.last_poll = browser_->loop()->now();
  if (!participant.poll_bucket.TryTake(browser_->loop()->now())) {
    ++metrics_.polls_rate_limited;
    flight_.Trigger("overload", browser_->loop()->now().micros());
    TraceMarker("agent.response.rejected", {{"code", "429"}});
    return HttpResponse::TooManyRequests(
        JitteredRetryAfter(
            participant.poll_bucket.TimeUntilAvailable(browser_->loop()->now()),
            config_.limits.retry_after_jitter, poll.participant_id),
        "poll rate limit");
  }
  ++participant.polls;
  if (poll.seq != 0) {
    participant.last_seq = poll.seq;
    if (config_.state_observer != nullptr) {
      // WAL the anti-replay advance before any work this poll causes — a
      // recovered agent must keep rejecting replays of polls it acked.
      config_.state_observer->OnSeqAdvance(poll.participant_id, poll.seq);
    }
  }
  // The snippet reports its cumulative timeout count; fold the delta into
  // the session-wide counter (idempotent across repeated reports).
  if (poll.timeouts > participant.timeouts_reported) {
    metrics_.poll_timeouts += poll.timeouts - participant.timeouts_reported;
    participant.timeouts_reported = poll.timeouts;
  }

  // A fresh poll while a long-poll is still held means the client superseded
  // or abandoned that hold: answer it with an empty 200 (no grant, no counter)
  // that the snippet discards, so its connection stays open for reuse.
  if (std::optional<ParkedPoll> stale = Unpark(poll.participant_id)) {
    server_.Answer(stale->conn, HttpResponse::Ok("application/xml", ""));
  }

  // Transport negotiation (DESIGN.md §15): grant a long-poll only when both
  // sides opted in and the request arrived on a holdable connection — the
  // synchronous front door cannot park, so its polls are answered
  // classically. stream=1 and stream=2 get the same grant.
  const bool was_granted = participant.transport_granted;
  participant.transport_granted = false;
  if (config_.transport.enable_stream &&
      poll.stream != transport::kStreamNone && scope.holdable) {
    if (parked_.size() < config_.transport.max_held) {
      scope.granted = true;
      participant.transport_granted = true;
    } else {
      ++metrics_.transport_capacity_denials;  // graceful: classic poll reply
    }
  }

  // Step 1 (Fig. 2 poll path): data merging.
  {
    // The merge span exists only on traced polls that actually carried
    // actions; an idle traced poll (and every untraced one) appends nothing.
    const bool traced_merge = trace_ctx_.active() && !poll.actions.empty();
    obs::WallSpan merge_span(
        traced_merge ? &trace_ : nullptr, "agent.merge.actions",
        browser_->loop()->now().micros(), nullptr,
        traced_merge ? &trace_ctx_ : nullptr,
        {{"count", StrFormat("%zu", poll.actions.size())}});
    for (const UserAction& action : poll.actions) {
      ApplyAction(poll.participant_id, action);
    }
  }

  // Step 2: timestamp inspection. Content exists only once a completed page
  // load (or scripted mutation) has stamped a version — a page whose
  // supplementary objects are still downloading is not served yet (the paper
  // generates content "when the webpage is loaded").
  //
  // Send-once (DESIGN.md §15): a poll that still acks the version a parked
  // release just replaced crossed that release on the wire (a gesture
  // pre-empted the park as the agent released it). The snippet applies the
  // racing release, so the version is not sent again: the poll gets its
  // outbox or an empty granted reply, and is never parked. Should the
  // release have been lost, the snippet's immediate re-poll acks the old
  // version once more and gets the content then — one round trip, not a
  // hold.
  const bool release_crossed =
      !poll.resync && participant.released_from == poll.doc_time_ms &&
      participant.doc_time_ms == current_doc_time_ms_;
  participant.released_from.reset();
  if (!release_crossed) {
    participant.doc_time_ms = poll.doc_time_ms;
  }
  const bool needs_content =
      has_version_ && participant.doc_time_ms < current_doc_time_ms_;
  const size_t outbox_size = participant.outbox.size();

  // Step 3: response sending, through the drain transport deliveries share.
  // A patch needs a capability-advertising poll that acks a concrete
  // version and is not resyncing; -1 asks the builder for a full snapshot.
  // The exemplar is this poll's own trace id ("" when untraced).
  const int64_t acked = poll.patch && !poll.resync ? poll.doc_time_ms : -1;
  std::optional<ContentBody> body = TakeDelivery(
      poll.participant_id, participant, acked, trace_ctx_.trace_id);
  if (body.has_value() && needs_content) {
    if (poll.resync) {
      ++metrics_.resyncs;  // full snapshot served to a recovering participant
      flight_.Trigger("resync", browser_->loop()->now().micros());
    }
    if (trace_ctx_.active()) {
      const std::string bytes = StrFormat("%zu", body->xml.size());
      const std::string ts =
          StrFormat("%lld", static_cast<long long>(current_doc_time_ms_));
      if (body->patch) {
        TraceMarker("agent.response.patch",
                    {{"bytes", bytes},
                     {"base_ts", StrFormat("%lld", static_cast<long long>(
                                                       poll.doc_time_ms))},
                     {"target_ts", ts}});
      } else {
        TraceMarker("agent.response.snapshot", {{"bytes", bytes}, {"ts", ts}});
      }
    }
    return HttpResponse::Ok("application/xml", std::move(body->xml));
  }
  if (body.has_value()) {
    if (trace_ctx_.active()) {
      TraceMarker("agent.response.actions",
                  {{"count", StrFormat("%zu", outbox_size)}});
    }
    return HttpResponse::Ok("application/xml", std::move(body->xml));
  }
  // Long-poll park (DESIGN.md §15): nothing to send and both sides already
  // hold the capability (the client saw a grant on its previous poll, so its
  // timeout budget covers the hold) — keep the request open instead of
  // answering empty. OnRequest parks the socket; the grant rides the release.
  if (was_granted && participant.transport_granted && !release_crossed) {
    scope.park = ParkIntent{poll.participant_id, acked};
    ++metrics_.transport_long_polls_parked;
    TraceMarker("agent.response.parked", {});
    return HttpResponse::Ok("application/xml", "");
  }
  // "No new content": an empty response avoids hanging the request.
  ++metrics_.polls_empty;
  TraceMarker("agent.response.empty", {});
  return HttpResponse::Ok("application/xml", "");
}

void RcbAgent::ApplyAction(const std::string& pid, const UserAction& action) {
  if (action.type == ActionType::kPresence) {
    return;  // handled by the poll pipeline
  }
  // Piggybacked-action rate limiting: drained deterministically from the
  // participant's bucket; excess actions are dropped, not queued.
  if (auto self = participants_.find(pid);
      self != participants_.end() &&
      !self->second.action_bucket.TryTake(browser_->loop()->now())) {
    ++metrics_.actions_rate_limited;
    return;
  }
  if (config_.policies.participant_filter &&
      !config_.policies.participant_filter(pid, action)) {
    ++metrics_.actions_denied;
    return;
  }
  if (action.type == ActionType::kMouseMove) {
    if (config_.policies.broadcast_mouse) {
      UserAction broadcast = action;
      broadcast.origin = pid;
      BroadcastToRoster(broadcast, /*skip_pid=*/pid);
      ++metrics_.actions_applied;
    }
    return;
  }
  ActionPolicy policy = ActionPolicy::kAutoApply;
  switch (action.type) {
    case ActionType::kClick:
      policy = config_.policies.click;
      break;
    case ActionType::kFormSubmit:
      policy = config_.policies.form_submit;
      break;
    case ActionType::kFormFill:
      policy = config_.policies.form_fill;
      break;
    case ActionType::kNavigate:
      policy = config_.policies.navigate;
      break;
    case ActionType::kMouseMove:
    case ActionType::kPresence:
      break;
  }
  switch (policy) {
    case ActionPolicy::kAutoApply:
      if (config_.state_observer != nullptr) {
        // Audit record, written before the action mutates the document (and
        // before any version it produces is logged).
        config_.state_observer->OnActionMerged(pid, action);
      }
      PerformAction(pid, action);
      ++metrics_.actions_applied;
      break;
    case ActionPolicy::kConfirm:
      if (config_.limits.max_pending_actions > 0 &&
          pending_actions_.size() >= config_.limits.max_pending_actions) {
        ++metrics_.actions_shed;  // reject-newest at a full confirm queue
        break;
      }
      pending_actions_.push_back(PendingAction{pid, action});
      ++metrics_.actions_held;
      break;
    case ActionPolicy::kDeny:
      ++metrics_.actions_denied;
      break;
  }
}

void RcbAgent::PerformAction(const std::string& pid, const UserAction& action) {
  auto log_nav = [pid](const Status& status, const PageLoadStats&) {
    if (!status.ok()) {
      RCB_LOG(kWarning) << "rcb-agent: action navigation for " << pid
                        << " failed: " << status;
    }
  };

  if (action.type == ActionType::kNavigate) {
    auto url = Url::Parse(action.data);
    if (!url.ok()) {
      RCB_LOG(kWarning) << "rcb-agent: bad navigate URL from " << pid;
      return;
    }
    browser_->Navigate(*url, log_nav);
    return;
  }

  if (action.target < 0 || browser_->document() == nullptr) {
    return;
  }
  std::vector<Element*> interactive =
      ContentGenerator::InteractiveElements(browser_->document());
  if (static_cast<size_t>(action.target) >= interactive.size()) {
    RCB_LOG(kWarning) << "rcb-agent: stale action target " << action.target
                      << " from " << pid;
    return;
  }
  Element* element = interactive[static_cast<size_t>(action.target)];

  switch (action.type) {
    case ActionType::kClick: {
      if (element->tag_name() == "a") {
        Status status = browser_->ClickLink(element, log_nav);
        if (!status.ok()) {
          RCB_LOG(kWarning) << "rcb-agent: click failed: " << status;
        }
      }
      break;
    }
    case ActionType::kFormFill: {
      Element* form = element->tag_name() == "form" ? element : nullptr;
      if (form == nullptr) {
        return;
      }
      for (const auto& [name, value] : action.fields) {
        Status status = Browser::FillField(form, name, value);
        if (!status.ok()) {
          RCB_LOG(kWarning) << "rcb-agent: co-fill failed: " << status;
        }
      }
      // The fill mutates the live document, so participants re-sync it.
      browser_->MutateDocument([](Document*) {});
      break;
    }
    case ActionType::kFormSubmit: {
      Element* form = element->tag_name() == "form" ? element : nullptr;
      if (form == nullptr) {
        return;
      }
      for (const auto& [name, value] : action.fields) {
        Status status = Browser::FillField(form, name, value);
        if (!status.ok()) {
          RCB_LOG(kWarning) << "rcb-agent: co-fill failed: " << status;
        }
      }
      Status status = browser_->SubmitForm(form, log_nav);
      if (!status.ok()) {
        RCB_LOG(kWarning) << "rcb-agent: submit failed: " << status;
      }
      break;
    }
    default:
      break;
  }
}

void RcbAgent::BroadcastAction(UserAction action) {
  action.origin = "host";
  BroadcastToRoster(action);
}

std::vector<std::string> RcbAgent::ConnectedParticipants() const {
  std::vector<std::string> out;
  SimTime now = browser_->loop()->now();
  Duration liveness = config_.poll_interval * 5;
  for (const auto& [pid, state] : participants_) {
    // A parked long-poll counts as live regardless of poll counters.
    if (parked_.contains(pid) ||
        (state.polls > 0 && now - state.last_poll <= liveness)) {
      out.push_back(pid);
    }
  }
  return out;
}

Status RcbAgent::ApprovePending(size_t index) {
  if (index >= pending_actions_.size()) {
    return OutOfRangeError("no pending action at index");
  }
  PendingAction pending = pending_actions_[index];
  pending_actions_.erase(pending_actions_.begin() + static_cast<ptrdiff_t>(index));
  PerformAction(pending.participant_id, pending.action);
  ++metrics_.actions_applied;
  return Status::Ok();
}

Status RcbAgent::RejectPending(size_t index) {
  if (index >= pending_actions_.size()) {
    return OutOfRangeError("no pending action at index");
  }
  pending_actions_.erase(pending_actions_.begin() + static_cast<ptrdiff_t>(index));
  ++metrics_.actions_denied;
  return Status::Ok();
}

}  // namespace rcb
