#include "src/core/ajax_snippet.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "src/browser/resources.h"
#include "src/core/content_generator.h"
#include "src/crypto/hmac.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// Reads a <meta name=... content=...> value from the document head.
std::string MetaContent(Document* document, std::string_view name) {
  std::string out;
  document->ForEachElement([&](Element* element) {
    if (element->tag_name() == "meta" && element->AttrOr("name") == name) {
      out = element->AttrOr("content");
      return false;
    }
    return true;
  });
  return out;
}

obs::FlightRecorder::Options SnippetFlightOptions(const SnippetConfig& config) {
  obs::FlightRecorder::Options options;
  options.component = "snippet";
  options.dir = config.flight_dir;
  if (options.dir.empty()) {
    if (const char* env = std::getenv("RCB_FLIGHT_DIR")) {
      options.dir = env;
    }
  }
  return options;
}

}  // namespace

AjaxSnippet::AjaxSnippet(Browser* participant_browser, SnippetConfig config)
    : browser_(participant_browser),
      config_(std::move(config)),
      backoff_rng_(config_.backoff_seed),
      flight_(&trace_, &registry_, SnippetFlightOptions(config_)) {
  RegisterMetrics();
}

void AjaxSnippet::TraceMarker(const char* name, obs::TraceAttrs attrs) {
  if (!poll_ctx_.active()) {
    return;
  }
  trace_.Append(name, obs::Provenance::kSim, browser_->loop()->now().micros(),
                0, poll_ctx_, std::move(attrs));
}

void AjaxSnippet::NoteActionQueued() {
  if (!action_queue_waiting_) {
    action_queue_waiting_ = true;
    action_queue_since_ = browser_->loop()->now();
  }
  if (adaptive_.has_value()) {
    // Local input counts as activity: snap the poll interval back so the
    // action (and whatever it triggers) round-trips promptly.
    adaptive_->OnActivity();
  }
}

void AjaxSnippet::RegisterMetrics() {
  // Callback counters over SnippetMetrics: the struct stays the source of
  // truth (same migration pattern as RcbAgent's AgentMetrics).
  auto field = [this](std::string_view name, std::string_view help,
                      const uint64_t& source) {
    registry_.AddCallbackCounter(name, help, obs::Provenance::kSim,
                                 [&source] { return source; });
  };
  field("rcb_snippet_polls_sent", "Ajax polls sent", metrics_.polls_sent);
  field("rcb_snippet_content_updates", "Snapshots with content applied",
        metrics_.content_updates);
  field("rcb_snippet_empty_responses", "Polls answered with no new content",
        metrics_.empty_responses);
  field("rcb_snippet_actions_sent", "User actions piggybacked on polls",
        metrics_.actions_sent);
  field("rcb_snippet_broadcasts_received", "Broadcast actions received",
        metrics_.broadcasts_received);
  field("rcb_snippet_auth_rejections", "Polls rejected by the agent (403)",
        metrics_.auth_rejections);
  field("rcb_snippet_poll_timeouts", "Polls abandoned after poll_timeout",
        metrics_.poll_timeouts);
  field("rcb_snippet_transport_failures", "Polls whose transport failed",
        metrics_.transport_failures);
  field("rcb_snippet_reconnects", "Successful resume re-handshakes",
        metrics_.reconnects);
  field("rcb_snippet_reconnect_failures", "Resume attempts that failed",
        metrics_.reconnect_failures);
  field("rcb_snippet_resyncs", "Full snapshots applied after recovery",
        metrics_.resyncs);
  field("rcb_snippet_patches_applied", "newPatch deltas committed",
        metrics_.patches_applied);
  field("rcb_snippet_patches_stale_ignored",
        "newPatch deltas dropped as stale (target <= current doc time)",
        metrics_.patches_stale_ignored);
  field("rcb_snippet_patch_base_mismatches",
        "newPatch deltas rejected on base doc-time mismatch",
        metrics_.patch_base_mismatches);
  field("rcb_snippet_patch_digest_mismatches",
        "newPatch deltas rejected on base/target digest mismatch",
        metrics_.patch_digest_mismatches);
  field("rcb_snippet_patch_apply_errors",
        "newPatch deltas that were malformed or failed to apply",
        metrics_.patch_apply_errors);
  field("rcb_snippet_overload_deferrals", "429/503 Retry-After hints honored",
        metrics_.overload_deferrals);
  field("rcb_snippet_object_fetch_failures", "Supplementary fetches that failed",
        metrics_.object_fetch_failures);

  // Streamed transport (DESIGN.md §15). The wasted-poll pair quantifies the
  // idle tax of classic polling that the transport exists to remove.
  field("rcb_snippet_wasted_polls_total",
        "Classic empty poll round trips (no transport grant held)",
        metrics_.wasted_polls);
  field("rcb_snippet_wasted_poll_bytes_total",
        "Request+response bytes moved by classic empty polls",
        metrics_.wasted_poll_bytes);
  field("rcb_snippet_polls_superseded_total",
        "Parked long-polls superseded by a fresh poll carrying gestures",
        metrics_.polls_superseded);
  registry_.AddCallbackCounter(
      "rcb_snippet_adaptive_snapbacks_total",
      "Adaptive poll intervals snapped back to base on activity",
      obs::Provenance::kSim,
      [this] { return adaptive_.has_value() ? adaptive_->snapbacks() : 0; });
  registry_.AddCallbackGauge(
      "rcb_snippet_adaptive_interval_ms",
      "Poll interval the adaptive policy will use next",
      obs::Provenance::kSim, [this] {
        return static_cast<double>(adaptive_.has_value()
                                       ? adaptive_->Current().millis()
                                       : interval_.millis());
      });

  // Trace-ring health + flight recorder, under the same canonical names the
  // agent registry exposes (separate registries, so no collision).
  registry_.AddCallbackCounter("rcb_trace_dropped_total",
                               "Spans evicted from the trace ring",
                               obs::Provenance::kSim,
                               [this] { return trace_.dropped(); });
  registry_.AddCallbackGauge(
      "rcb_trace_retained", "Spans currently retained by the trace ring",
      obs::Provenance::kSim,
      [this] { return static_cast<double>(trace_.size()); });
  static constexpr const char* kSnippetTriggers[3] = {"poll_timeout",
                                                      "patch_resync", "overload"};
  for (const char* trigger : kSnippetTriggers) {
    registry_.AddCallbackCounter(
        "rcb_flight_triggers_total", "Flight-recorder trigger firings",
        obs::Provenance::kSim,
        [this, trigger] { return flight_.triggers(trigger); },
        StrFormat("trigger=\"%s\"", trigger));
  }
  registry_.AddCallbackCounter("rcb_flight_dumps_written",
                               "Flight-recorder JSONL artifacts written",
                               obs::Provenance::kSim,
                               [this] { return flight_.dumps_written(); });

  // Only a delta-capable snippet ever applies a patch.
  static constexpr const char* kPatchStageLabels[3] = {
      "stage=\"verify_base\"", "stage=\"apply\"", "stage=\"verify_target\""};
  for (size_t i = 0; config_.enable_delta && i < 3; ++i) {
    patch_stage_hist_[i] = registry_.AddHistogram(
        "rcb_snippet_patch_stage_us",
        "CPU microseconds per newPatch apply stage", obs::Provenance::kWall,
        obs::LatencyBoundsUs(), kPatchStageLabels[i]);
  }
  apply_us_ = registry_.AddHistogram(
      "rcb_snippet_apply_us",
      "CPU microseconds per whole Fig. 5 snapshot apply (M6)",
      obs::Provenance::kWall, obs::LatencyBoundsUs());
  content_download_us_ = registry_.AddHistogram(
      "rcb_snippet_content_download_us",
      "Simulated microseconds from poll send to content received (M2)",
      obs::Provenance::kSim, obs::LatencyBoundsUs());
  object_fetch_us_ = registry_.AddHistogram(
      "rcb_snippet_object_fetch_us",
      "Simulated microseconds to download an update's supplementary objects "
      "(M3/M4)",
      obs::Provenance::kSim, obs::LatencyBoundsUs());
}

AjaxSnippet::~AjaxSnippet() { Leave(); }

void AjaxSnippet::Join(const Url& agent_url, std::function<void(Status)> joined) {
  agent_url_ = agent_url;
  uint64_t epoch = ++epoch_;
  browser_->Navigate(
      agent_url,
      [this, epoch, joined = std::move(joined)](const Status& status,
                                                const PageLoadStats&) {
        if (epoch != epoch_) {
          return;
        }
        if (!status.ok()) {
          joined(status);
          return;
        }
        Document* document = browser_->document();
        pid_ = MetaContent(document, "rcb-pid");
        if (pid_.empty()) {
          joined(InternalError("initial page carries no participant id"));
          return;
        }
        std::string interval_ms = MetaContent(document, "rcb-poll-interval");
        if (IsDigits(interval_ms)) {
          interval_ = Duration::Millis(std::atoll(interval_ms.c_str()));
        }
        if (config_.poll_interval_override > Duration::Zero()) {
          interval_ = config_.poll_interval_override;
        }
        joined_ = true;
        doc_time_ms_ = -1;
        object_watermark_ = 0;
        if (config_.adaptive_poll) {
          transport::AdaptivePollConfig adaptive_config;
          adaptive_config.base = interval_;
          adaptive_config.max = config_.adaptive_max;
          adaptive_config.growth = config_.adaptive_growth;
          adaptive_config.idle_threshold = config_.adaptive_idle_threshold;
          adaptive_.emplace(adaptive_config);
        }
        // Per-participant dump filenames, so snippets sharing a flight dir
        // do not clobber each other's artifacts.
        flight_.set_component("snippet-" + pid_);
        // The first Ajax request goes out as soon as the initial page loads.
        PollOnce();
        joined(Status::Ok());
      });
}

void AjaxSnippet::Leave() {
  if (!joined_) {
    return;
  }
  // Fire-and-forget goodbye so the agent can notify the others immediately
  // instead of waiting for the liveness timeout.
  PollRequest goodbye;
  goodbye.participant_id = pid_;
  goodbye.doc_time_ms = doc_time_ms_;
  UserAction left;
  left.type = ActionType::kPresence;
  left.data = "left";
  goodbye.actions.push_back(std::move(left));
  SendPoll(std::move(goodbye), [](FetchResult) {});
  AbortWithoutGoodbye();
}

void AjaxSnippet::AbortWithoutGoodbye() {
  if (!joined_) {
    return;
  }
  joined_ = false;
  ++epoch_;
  if (poll_timer_ != 0) {
    browser_->loop()->Cancel(poll_timer_);
    poll_timer_ = 0;
  }
  if (timeout_timer_ != 0) {
    browser_->loop()->Cancel(timeout_timer_);
    timeout_timer_ = 0;
  }
  if (preempt_timer_ != 0) {
    browser_->loop()->Cancel(preempt_timer_);
    preempt_timer_ = 0;
  }
  longpoll_active_ = false;
  longpoll_hold_ms_ = 0;
  adaptive_.reset();  // re-seeded from the advertised interval on next Join
  peers_.clear();
  poll_in_flight_ = false;
  reconnect_in_flight_ = false;
  consecutive_failures_ = 0;
  need_resync_ = false;
  object_watermark_ = 0;
  poll_ctx_ = obs::TraceContext{};
  action_queue_waiting_ = false;
}

void AjaxSnippet::SchedulePoll(Duration delay) {
  if (!joined_) {
    return;
  }
  uint64_t epoch = epoch_;
  poll_timer_ = browser_->loop()->Schedule(delay, [this, epoch] {
    if (epoch != epoch_) {
      return;
    }
    poll_timer_ = 0;
    PollOnce();
  });
}

void AjaxSnippet::PollNow() {
  if (!joined_ || poll_in_flight_) {
    return;
  }
  if (poll_timer_ != 0) {
    browser_->loop()->Cancel(poll_timer_);
    poll_timer_ = 0;
  }
  PollOnce();
}

void AjaxSnippet::SendPoll(PollRequest poll, FetchCallback callback) {
  std::string body = EncodePollRequest(poll);
  in_flight_poll_bytes_ = body.size();
  // §3.4: the HMAC over the request rides as a request-URI parameter.
  Url target = agent_url_;
  if (!config_.session_key.empty()) {
    std::string message = "POST " + agent_url_.path() + "\n" + body;
    std::string mac = HmacSha256Hex(config_.session_key, message);
    target = Url::Make(agent_url_.scheme(), agent_url_.host(), agent_url_.port(),
                       agent_url_.path(), "hmac=" + mac);
  }
  ++metrics_.polls_sent;
  browser_->Fetch(HttpMethod::kPost, target, std::move(body),
                  "application/x-www-form-urlencoded", std::move(callback));
}

void AjaxSnippet::PollOnce() {
  if (!joined_ || poll_in_flight_ || reconnect_in_flight_) {
    return;
  }
  poll_in_flight_ = true;
  uint64_t seq = ++poll_seq_;

  PollRequest poll;
  poll.participant_id = pid_;
  poll.doc_time_ms = doc_time_ms_;
  poll.actions = std::move(action_queue_);
  action_queue_.clear();
  in_flight_actions_ = poll.actions;
  metrics_.actions_sent += poll.actions.size();
  if (recovery_enabled()) {
    poll.seq = seq;
    poll.timeouts = metrics_.poll_timeouts;
  }
  // need_resync_ is only ever set by recovery or by a failed patch apply, so
  // with both features off this stays false and the wire bytes are unchanged.
  poll.resync = need_resync_;
  // A resyncing participant must get the full snapshot, not a delta.
  poll.patch = config_.enable_delta && !need_resync_;
  // Streamed-transport capability (DESIGN.md §15): absent when the feature is
  // off, so the wire stays byte-identical.
  poll.stream = config_.stream_mode;
  if (config_.enable_trace) {
    // poll_seq_ never resets, so trace ids stay unique across reconnects and
    // resumes. The root span id is reserved now but appended only when the
    // round trip resolves (response or timeout), so in-between children can
    // already parent to it.
    poll.trace = StrFormat("%s-%llu", pid_.c_str(),
                           static_cast<unsigned long long>(seq));
    poll_ctx_ = obs::TraceContext{poll.trace, trace_.ReserveSpanId()};
    if (!poll.actions.empty() && action_queue_waiting_) {
      SimTime now = browser_->loop()->now();
      trace_.Append("snippet.action_queue", obs::Provenance::kSim,
                    action_queue_since_.micros(),
                    (now - action_queue_since_).micros(), poll_ctx_,
                    {{"count", StrFormat("%zu", poll.actions.size())}});
    }
  } else {
    poll_ctx_ = obs::TraceContext{};
  }
  action_queue_waiting_ = false;

  SimTime sent_at = browser_->loop()->now();
  uint64_t epoch = epoch_;
  SendPoll(std::move(poll), [this, epoch, seq, sent_at](FetchResult result) {
    if (epoch != epoch_) {
      return;
    }
    if (!poll_in_flight_ || seq != poll_seq_) {
      // Abandoned on timeout or superseded by a gesture (SchedulePreempt): a
      // newer poll owns the loop now. A superseded park's reply can still
      // race in with content or peer actions the agent will not send again.
      if (seq > abandoned_seq_ && result.status.ok() &&
          result.response.status_code == 200 && !result.response.body.empty()) {
        ApplyReplyBody(result.response.body, browser_->loop()->now() - sent_at);
      }
      return;
    }
    poll_in_flight_ = false;
    if (timeout_timer_ != 0) {
      browser_->loop()->Cancel(timeout_timer_);
      timeout_timer_ = 0;
    }
    OnPollResponse(std::move(result), sent_at);
  });
  // A refused connection fails the fetch synchronously, so the poll may
  // already be resolved here — only arm the timeout for one still in flight.
  if (recovery_enabled() && poll_in_flight_ && seq == poll_seq_) {
    // A granted long-poll is legitimately held by the agent: the deadline
    // budget covers the advertised hold on top of the normal timeout.
    Duration budget = config_.poll_timeout;
    if (longpoll_active_) {
      budget += Duration::Millis(longpoll_hold_ms_);
    }
    uint64_t timer_epoch = epoch_;
    timeout_timer_ =
        browser_->loop()->Schedule(budget, [this, timer_epoch, seq] {
          if (timer_epoch != epoch_) {
            return;
          }
          timeout_timer_ = 0;
          OnPollTimeout(seq);
        });
  }
}

void AjaxSnippet::OnPollTimeout(uint64_t seq) {
  if (!joined_ || !poll_in_flight_ || seq != poll_seq_) {
    return;
  }
  // Abandon the outstanding request: responses for this seq are discarded if
  // they ever arrive, and the piggybacked gestures ride the next poll.
  poll_in_flight_ = false;
  abandoned_seq_ = seq;
  ++metrics_.poll_timeouts;
  if (poll_ctx_.active()) {
    // The reserved root span id closes this trace as a deadline miss instead
    // of a round trip.
    SimTime now = browser_->loop()->now();
    trace_.Append("snippet.poll_timeout", obs::Provenance::kSim,
                  now.micros() - config_.poll_timeout.micros(),
                  config_.poll_timeout.micros(),
                  obs::TraceContext{poll_ctx_.trace_id, 0}, {},
                  poll_ctx_.parent_span_id);
  }
  flight_.Trigger("poll_timeout", browser_->loop()->now().micros());
  if (!in_flight_actions_.empty()) {
    action_queue_.insert(action_queue_.begin(), in_flight_actions_.begin(),
                         in_flight_actions_.end());
    in_flight_actions_.clear();
    NoteActionQueued();
  }
  RCB_LOG(kWarning) << "ajax-snippet: poll " << seq << " timed out after "
                    << config_.poll_timeout;
  OnPollFailure();
}

void AjaxSnippet::OnPollFailure() {
  ++consecutive_failures_;
  if (config_.reconnect_after > 0 &&
      consecutive_failures_ >= config_.reconnect_after) {
    Reconnect();
    return;
  }
  Duration delay = BackoffDelay();
  if (poll_ctx_.active()) {
    trace_.Append("snippet.backoff", obs::Provenance::kSim,
                  browser_->loop()->now().micros(), delay.micros(), poll_ctx_,
                  {{"failures", StrFormat("%u", consecutive_failures_)}});
  }
  SchedulePoll(delay);
}

Duration AjaxSnippet::BackoffDelay() {
  uint32_t exponent = consecutive_failures_ > 0 ? consecutive_failures_ - 1 : 0;
  if (exponent > 16) {
    exponent = 16;  // the cap below has long since kicked in
  }
  Duration delay = config_.backoff_base * (int64_t{1} << exponent);
  if (delay > config_.backoff_max) {
    delay = config_.backoff_max;
  }
  if (config_.backoff_jitter > Duration::Zero()) {
    delay += Duration::Micros(static_cast<int64_t>(
        backoff_rng_.NextBelow(config_.backoff_jitter.micros() + 1)));
  }
  return delay;
}

void AjaxSnippet::Reconnect() {
  if (!joined_ || reconnect_in_flight_) {
    return;
  }
  reconnect_in_flight_ = true;
  if (poll_timer_ != 0) {
    browser_->loop()->Cancel(poll_timer_);
    poll_timer_ = 0;
  }
  if (timeout_timer_ != 0) {
    browser_->loop()->Cancel(timeout_timer_);
    timeout_timer_ = 0;
  }
  poll_in_flight_ = false;
  abandoned_seq_ = poll_seq_;
  if (!in_flight_actions_.empty()) {
    action_queue_.insert(action_queue_.begin(), in_flight_actions_.begin(),
                         in_flight_actions_.end());
    in_flight_actions_.clear();
    NoteActionQueued();
  }
  longpoll_active_ = false;
  // Connections wedged on the dead link would swallow the re-handshake.
  browser_->AbortOriginConnections(agent_url_);

  // §3.2.3 + §3.4: resume under the old pid; with a session key the resume
  // request is signed like any other, so a reconnecting participant
  // re-authenticates.
  std::string query = "resume=" + pid_;
  if (!config_.session_key.empty()) {
    std::string message = "GET " + agent_url_.path() + "?" + query + "\n";
    query += "&hmac=" + HmacSha256Hex(config_.session_key, message);
  }
  Url target = Url::Make(agent_url_.scheme(), agent_url_.host(),
                         agent_url_.port(), agent_url_.path(), query);
  uint64_t epoch = epoch_;
  browser_->Navigate(target, [this, epoch](const Status& status,
                                           const PageLoadStats&) {
    if (epoch != epoch_) {
      return;
    }
    reconnect_in_flight_ = false;
    if (!status.ok()) {
      ++metrics_.reconnect_failures;
      ++consecutive_failures_;
      RCB_LOG(kWarning) << "ajax-snippet: reconnect failed: " << status;
      uint64_t retry_epoch = epoch_;
      poll_timer_ = browser_->loop()->Schedule(BackoffDelay(),
                                               [this, retry_epoch] {
                                                 if (retry_epoch != epoch_) {
                                                   return;
                                                 }
                                                 poll_timer_ = 0;
                                                 Reconnect();
                                               });
      return;
    }
    std::string pid = MetaContent(browser_->document(), "rcb-pid");
    if (!pid.empty()) {
      pid_ = pid;
    }
    ++metrics_.reconnects;
    consecutive_failures_ = 0;
    // Closes the failing trace: the next poll opens a fresh one whose id
    // still embeds the (unchanged) pid and the ever-growing poll seq.
    TraceMarker("snippet.reconnect", {{"pid", pid_}});
    // The gap may have eaten updates; force a full snapshot regardless of
    // what our DOM claims to hold.
    need_resync_ = true;
    doc_time_ms_ = -1;
    PollOnce();
  });
}

void AjaxSnippet::OnPollResponse(FetchResult result, SimTime sent_at) {
  if (poll_ctx_.active()) {
    // The round-trip root span, appended under the id reserved when the poll
    // left so the children recorded in between already point at it.
    SimTime now = browser_->loop()->now();
    int status = result.status.ok() ? result.response.status_code : 0;
    size_t bytes = result.status.ok() ? result.response.body.size() : 0;
    trace_.Append("snippet.poll_rtt", obs::Provenance::kSim, sent_at.micros(),
                  (now - sent_at).micros(),
                  obs::TraceContext{poll_ctx_.trace_id, 0},
                  {{"status", StrFormat("%d", status)},
                   {"bytes", StrFormat("%zu", bytes)}},
                  poll_ctx_.parent_span_id);
  }
  if (!result.status.ok()) {
    RCB_LOG(kWarning) << "ajax-snippet: poll transport failure: "
                      << result.status;
    // The piggybacked gestures never reached the agent — put them back at
    // the front of the queue so the next successful poll retries them.
    if (!in_flight_actions_.empty()) {
      action_queue_.insert(action_queue_.begin(), in_flight_actions_.begin(),
                           in_flight_actions_.end());
      in_flight_actions_.clear();
      NoteActionQueued();
    }
    if (recovery_enabled()) {
      ++metrics_.transport_failures;
      OnPollFailure();
    } else {
      SchedulePoll(interval_);
    }
    return;
  }
  consecutive_failures_ = 0;  // the transport works; any HTTP status proves it
  if (result.response.status_code == 429 || result.response.status_code == 503) {
    // The agent shed this poll (rate limit or admission control). That is
    // graceful degradation, not a failure: no backoff escalation and no
    // reconnect — just slow the poll loop down by the agent's Retry-After
    // hint. The piggybacked gestures were not applied, so requeue them.
    if (!in_flight_actions_.empty()) {
      action_queue_.insert(action_queue_.begin(), in_flight_actions_.begin(),
                           in_flight_actions_.end());
      in_flight_actions_.clear();
      NoteActionQueued();
    }
    ++metrics_.overload_deferrals;
    Duration delay = interval_;
    if (auto hint = result.response.RetryAfter(); hint.has_value()) {
      metrics_.last_retry_after = *hint;
      if (*hint > delay) {
        delay = *hint;
      }
    }
    TraceMarker("snippet.overload_deferral",
                {{"code", StrFormat("%d", result.response.status_code)},
                 {"delay_ms", StrFormat("%lld", static_cast<long long>(
                                                    delay.millis()))}});
    flight_.Trigger("overload", browser_->loop()->now().micros());
    SchedulePoll(delay);
    return;
  }
  in_flight_actions_.clear();
  if (result.response.status_code == 403) {
    ++metrics_.auth_rejections;
    TraceMarker("snippet.auth_rejected", {{"code", "403"}});
    RCB_LOG(kWarning) << "ajax-snippet: agent rejected request authentication";
    // Keep polling: the user may re-enter the session key out of band.
    SchedulePoll(interval_);
    return;
  }
  if (result.response.status_code != 200) {
    RCB_LOG(kWarning) << "ajax-snippet: poll HTTP " << result.response.status_code;
    SchedulePoll(interval_);
    return;
  }
  // Transport negotiation (DESIGN.md §15): each successful poll response
  // refreshes the grant; a response without the header (agent opted out,
  // capacity denial, front-door route) drops back to classic polling.
  longpoll_active_ = false;
  if (config_.stream_mode != transport::kStreamNone) {
    if (auto header = result.response.headers.Get("RCB-Transport")) {
      if (auto grant = transport::ParseTransportGrant(*header)) {
        longpoll_active_ = true;
        longpoll_hold_ms_ = grant->hold_ms;
      }
    }
  }
  if (result.response.body.empty()) {
    // "No new content": schedule the next poll after the interval.
    ++metrics_.empty_responses;
    if (!longpoll_active_) {
      // The whole round trip moved no payload — the idle tax the streamed
      // transport exists to remove (wasted-poll accounting, DESIGN.md §15).
      ++metrics_.wasted_polls;
      metrics_.wasted_poll_bytes +=
          in_flight_poll_bytes_ + result.response.Serialize().size();
    }
    TraceMarker("snippet.response.empty", {});
    ScheduleNextPoll(/*activity=*/false);
    return;
  }
  if (!ApplyReplyBody(result.response.body,
                      browser_->loop()->now() - sent_at)) {
    SchedulePoll(interval_);
    return;
  }
  ScheduleNextPoll(/*activity=*/true);
}

bool AjaxSnippet::ApplyReplyBody(const std::string& body,
                                 Duration transport_time) {
  if (config_.enable_delta && delta::LooksLikePatchXml(body)) {
    auto envelope_or = delta::ParsePatchXml(body);
    if (!envelope_or.ok()) {
      RCB_LOG(kWarning) << "ajax-snippet: bad patch: " << envelope_or.status();
      ++metrics_.patch_apply_errors;
      need_resync_ = true;  // next poll demands a full snapshot
      return false;
    }
    ProcessPatch(*envelope_or, transport_time);
    return true;
  }
  auto snapshot_or = ParseSnapshotXml(body);
  if (!snapshot_or.ok()) {
    RCB_LOG(kWarning) << "ajax-snippet: bad snapshot: " << snapshot_or.status();
    return false;
  }
  ProcessSnapshot(*snapshot_or, transport_time);
  return true;
}

void AjaxSnippet::ScheduleNextPoll(bool activity) {
  if (adaptive_.has_value()) {
    if (activity) {
      adaptive_->OnActivity();
    } else {
      adaptive_->OnEmpty();
    }
  }
  if (longpoll_active_) {
    // Keep one request parked at the agent at all times: the next poll goes
    // out immediately and the agent holds it until there is something to
    // say (or the hold deadline passes). No busy loop: each round trip is
    // either held for long_poll_hold or carries payload.
    SchedulePoll(Duration::Zero());
    return;
  }
  if (adaptive_.has_value()) {
    SchedulePoll(adaptive_->Current());
    return;
  }
  SchedulePoll(interval_);
}

void AjaxSnippet::HandleBroadcastActions(
    const std::vector<UserAction>& actions) {
  for (const UserAction& action : actions) {
    ++metrics_.broadcasts_received;
    if (action.type == ActionType::kPresence && !action.origin.empty()) {
      if (action.data == "joined") {
        if (std::find(peers_.begin(), peers_.end(), action.origin) ==
            peers_.end()) {
          peers_.push_back(action.origin);
        }
      } else if (action.data == "left") {
        std::erase(peers_, action.origin);
      }
    }
    if (action_listener_) {
      action_listener_(action);
    }
  }
}

void AjaxSnippet::ProcessSnapshot(const Snapshot& snapshot,
                                  Duration transport_time) {
  HandleBroadcastActions(snapshot.user_actions);

  if (snapshot.has_content && snapshot.doc_time_ms > doc_time_ms_) {
    int64_t sim_now_us = browser_->loop()->now().micros();
    const bool traced = poll_ctx_.active();
    metrics_.last_content_download = transport_time;
    content_download_us_->Record(transport_time.micros());
    trace_.Append("snippet.content_download", obs::Provenance::kSim,
                  sim_now_us - transport_time.micros(),
                  transport_time.micros(), poll_ctx_);
    auto start = std::chrono::steady_clock::now();
    {
      obs::WallSpan span(&trace_, "snippet.apply", sim_now_us, apply_us_,
                         traced ? &poll_ctx_ : nullptr,
                         {{"ts", StrFormat("%lld", static_cast<long long>(
                                                       snapshot.doc_time_ms))}});
      ApplySnapshot(browser_->document(), snapshot);
    }
    auto end = std::chrono::steady_clock::now();
    metrics_.last_apply_time = Duration::Micros(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count());
    metrics_.total_apply_time += metrics_.last_apply_time;
    doc_time_ms_ = snapshot.doc_time_ms;
    ++metrics_.content_updates;
    if (need_resync_) {
      // The full snapshot that re-converges us after a reconnect; its
      // objects are rediscovered from the whole page.
      ++metrics_.resyncs;
      need_resync_ = false;
      object_watermark_ = 0;
      TraceMarker("snippet.resync_applied",
                  {{"ts", StrFormat("%lld", static_cast<long long>(
                                                snapshot.doc_time_ms))}});
    }
    if (update_listener_) {
      update_listener_(doc_time_ms_);
    }
    if (config_.fetch_objects) {
      FetchSupplementaryObjects();
    }
  }
}

void AjaxSnippet::ProcessPatch(const delta::PatchEnvelope& envelope,
                               Duration transport_time) {
  HandleBroadcastActions(envelope.user_actions);

  int64_t sim_now_us = browser_->loop()->now().micros();
  const bool traced = poll_ctx_.active();
  auto start = std::chrono::steady_clock::now();
  delta::ApplyResult result;
  {
    obs::WallSpan span(
        &trace_, "snippet.apply_patch", sim_now_us, apply_us_,
        traced ? &poll_ctx_ : nullptr,
        {{"base_ts", StrFormat("%lld", static_cast<long long>(
                                           envelope.patch.base_doc_time_ms))},
         {"target_ts",
          StrFormat("%lld",
                    static_cast<long long>(envelope.patch.target_doc_time_ms))}});
    delta::ApplyStageTimes times;
    result = delta::ApplyPatchToDocument(browser_->document(), doc_time_ms_,
                                         envelope.patch, &patch_memo_, &times);
    const int64_t stage_us[3] = {times.verify_base_us, times.apply_us,
                                 times.verify_target_us};
    for (size_t i = 0; i < 3; ++i) {
      if (stage_us[i] >= 0) {
        patch_stage_hist_[i]->Record(stage_us[i]);
      }
    }
  }
  auto end = std::chrono::steady_clock::now();
  switch (result) {
    case delta::ApplyResult::kApplied:
      metrics_.last_content_download = transport_time;
      content_download_us_->Record(transport_time.micros());
      trace_.Append("snippet.content_download", obs::Provenance::kSim,
                    sim_now_us - transport_time.micros(),
                    transport_time.micros(), poll_ctx_);
      metrics_.last_apply_time = Duration::Micros(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start)
              .count());
      metrics_.total_apply_time += metrics_.last_apply_time;
      doc_time_ms_ = envelope.patch.target_doc_time_ms;
      ++metrics_.content_updates;
      ++metrics_.patches_applied;
      if (update_listener_) {
        update_listener_(doc_time_ms_);
      }
      if (config_.fetch_objects) {
        FetchSupplementaryObjects();
      }
      break;
    case delta::ApplyResult::kStaleIgnored:
      // Out-of-order or duplicate delivery of a patch we already passed; the
      // document is untouched and no resync is needed.
      ++metrics_.patches_stale_ignored;
      break;
    case delta::ApplyResult::kBaseTimeMismatch:
      ++metrics_.patch_base_mismatches;
      break;
    case delta::ApplyResult::kBaseDigestMismatch:
    case delta::ApplyResult::kTargetDigestMismatch:
      ++metrics_.patch_digest_mismatches;
      break;
    case delta::ApplyResult::kApplyError:
      ++metrics_.patch_apply_errors;
      break;
  }
  if (delta::NeedsResync(result)) {
    RCB_LOG(kWarning) << "ajax-snippet: patch rejected ("
                      << delta::ApplyResultName(result)
                      << "), requesting full resync";
    need_resync_ = true;
    TraceMarker("snippet.patch_rejected",
                {{"result", std::string(delta::ApplyResultName(result))}});
    flight_.Trigger("patch_resync", browser_->loop()->now().micros());
  }
}

void AjaxSnippet::ApplySnapshot(Document* document, const Snapshot& snapshot) {
  Element* root = document->document_element();
  if (root == nullptr) {
    return;
  }
  ReconcileSnapshotTree(snapshot, nullptr, root);
  // Arriving via an agent page guarantees the snippet script exists, but
  // re-create it defensively so the invariant holds for any document.
  Element* head = root->first_child()->AsElement();
  if (head->child_count() == 0 ||
      !delta::IsSnippetBootstrapScript(*head->first_child())) {
    auto script = MakeElement("script");
    script->SetAttribute("id", "rcb-snippet");
    head->InsertChildAt(0, std::move(script));
  }
}

void AjaxSnippet::FetchSupplementaryObjects() {
  Document* document = browser_->document();
  std::vector<ResourceRef> resources = CollectResources(
      document, browser_->current_url(), object_watermark_);
  object_watermark_ = document->rev();
  metrics_.last_object_count = resources.size();
  metrics_.last_objects_from_host = 0;
  if (resources.empty()) {
    metrics_.last_object_time = Duration::Zero();
    if (objects_listener_) {
      objects_listener_(Duration::Zero());
    }
    return;
  }
  auto remaining = std::make_shared<size_t>(resources.size());
  SimTime start = browser_->loop()->now();
  uint64_t epoch = epoch_;
  // Captured by value: the fetches resolve after the poll that triggered
  // them, by which time poll_ctx_ may already describe a newer poll.
  obs::TraceContext fetch_ctx = poll_ctx_;
  size_t object_count = resources.size();
  for (const ResourceRef& resource : resources) {
    if (resource.url.host() == agent_url_.host() &&
        resource.url.port() == agent_url_.port()) {
      ++metrics_.last_objects_from_host;
    }
    browser_->FetchCached(
        resource.url,
        [this, epoch, remaining, start, fetch_ctx,
         object_count](FetchResult result) {
          if (epoch != epoch_) {
            return;
          }
          if (!result.status.ok() || result.response.status_code != 200) {
            ++metrics_.object_fetch_failures;
          }
          if (--*remaining == 0) {
            metrics_.last_object_time = browser_->loop()->now() - start;
            object_fetch_us_->Record(metrics_.last_object_time.micros());
            if (fetch_ctx.active()) {
              trace_.Append("snippet.object_fetch", obs::Provenance::kSim,
                            start.micros(),
                            metrics_.last_object_time.micros(), fetch_ctx,
                            {{"count", StrFormat("%zu", object_count)}});
            } else {
              trace_.Append("snippet.object_fetch", obs::Provenance::kSim,
                            start.micros(),
                            metrics_.last_object_time.micros());
            }
            if (objects_listener_) {
              objects_listener_(metrics_.last_object_time);
            }
          }
        });
  }
}

std::vector<std::pair<std::string, std::string>> AjaxSnippet::FormFields(
    Element* form) {
  std::vector<std::pair<std::string, std::string>> fields;
  form->ForEachElement([&](Element* element) {
    const std::string& tag = element->tag_name();
    std::string name = element->AttrOr("name");
    if (name.empty()) {
      return true;
    }
    if (tag == "input") {
      std::string type = AsciiToLower(element->AttrOr("type", "text"));
      if (type == "submit" || type == "button" || type == "image") {
        return true;
      }
      fields.emplace_back(name, element->AttrOr("value"));
    } else if (tag == "textarea") {
      fields.emplace_back(name, element->TextContent());
    }
    return true;
  });
  return fields;
}

namespace {

StatusOr<int> RcbIdOf(Element* element) {
  if (element == nullptr) {
    return InvalidArgumentError("null element");
  }
  std::string id = element->AttrOr("data-rcb-id");
  if (!IsDigits(id)) {
    return FailedPreconditionError(
        "element carries no data-rcb-id (not part of a synchronized page?)");
  }
  return std::atoi(id.c_str());
}

}  // namespace

void AjaxSnippet::QueueAction(UserAction action) {
  action_queue_.push_back(std::move(action));
  NoteActionQueued();
  if (config_.stream_mode >= transport::kStreamFrames) {
    SchedulePreempt();
  }
}

void AjaxSnippet::SchedulePreempt() {
  if (preempt_timer_ != 0 || !joined_) {
    return;
  }
  // Zero-delay deferral coalesces a burst of gestures into one poll.
  preempt_timer_ = browser_->loop()->Schedule(Duration::Zero(), [this] {
    preempt_timer_ = 0;
    // Only a granted poll can be parked; any other poll in flight is
    // answered promptly and its successor carries the gestures.
    if (action_queue_.empty() || !poll_in_flight_ || !longpoll_active_) {
      return;
    }
    // The agent drops the stale park when the fresh poll arrives, and the
    // callback of the superseded seq no longer drives scheduling. Its
    // gestures reached the agent with it, so they are not re-queued.
    poll_in_flight_ = false;
    in_flight_actions_.clear();
    if (timeout_timer_ != 0) {
      browser_->loop()->Cancel(timeout_timer_);
      timeout_timer_ = 0;
    }
    ++metrics_.polls_superseded;
    if (poll_ctx_.active()) {
      // Closes the superseded poll's trace under its reserved root span id.
      trace_.Append("snippet.poll_superseded", obs::Provenance::kSim,
                    browser_->loop()->now().micros(), 0,
                    obs::TraceContext{poll_ctx_.trace_id, 0}, {},
                    poll_ctx_.parent_span_id);
    }
    PollOnce();
  });
}

Status AjaxSnippet::ClickElement(Element* element) {
  RCB_ASSIGN_OR_RETURN(int target, RcbIdOf(element));
  UserAction action;
  action.type = ActionType::kClick;
  action.target = target;
  QueueAction(std::move(action));
  return Status::Ok();
}

Status AjaxSnippet::FillFormField(Element* form, std::string_view name,
                                  std::string_view value) {
  RCB_ASSIGN_OR_RETURN(int target, RcbIdOf(form));
  // Update the local DOM so the participant sees their own input.
  RCB_RETURN_IF_ERROR(Browser::FillField(form, name, value));
  UserAction action;
  action.type = ActionType::kFormFill;
  action.target = target;
  action.fields.emplace_back(std::string(name), std::string(value));
  QueueAction(std::move(action));
  return Status::Ok();
}

Status AjaxSnippet::SubmitForm(Element* form) {
  RCB_ASSIGN_OR_RETURN(int target, RcbIdOf(form));
  UserAction action;
  action.type = ActionType::kFormSubmit;
  action.target = target;
  action.fields = FormFields(form);
  QueueAction(std::move(action));
  return Status::Ok();
}

void AjaxSnippet::SendMouseMove(int x, int y) {
  UserAction action;
  action.type = ActionType::kMouseMove;
  action.x = x;
  action.y = y;
  QueueAction(std::move(action));
}

void AjaxSnippet::RequestNavigate(const std::string& url) {
  UserAction action;
  action.type = ActionType::kNavigate;
  action.data = url;
  QueueAction(std::move(action));
}

}  // namespace rcb
