#include "src/core/session.h"

#include "src/crypto/session_key.h"
#include "src/util/strings.h"

namespace rcb {

CoBrowsingSession::CoBrowsingSession(EventLoop* loop, Network* network,
                                     SessionOptions options)
    : loop_(loop), network_(network), options_(std::move(options)) {
  network_->AddHost(options_.host_machine, options_.profile.host_interface);
  host_browser_ = std::make_unique<Browser>(loop_, network_, options_.host_machine);

  for (size_t i = 0; i < options_.participant_count; ++i) {
    auto participant = std::make_unique<Participant>();
    participant->machine =
        StrFormat("%s-%zu", options_.participant_machine_prefix.c_str(), i + 1);
    network_->AddHost(participant->machine, options_.profile.participant_interface);
    network_->SetLatency(options_.host_machine, participant->machine,
                         options_.profile.host_participant_latency);
    participant->browser =
        std::make_unique<Browser>(loop_, network_, participant->machine);
    participants_.push_back(std::move(participant));
  }

  if (options_.enable_auth) {
    SessionKeyGenerator generator(0xCB0B5 + options_.participant_count);
    session_key_ = generator.Generate();
  }

  AgentConfig agent_config;
  agent_config.port = options_.agent_port;
  agent_config.cache_mode = options_.cache_mode;
  agent_config.session_key = session_key_;
  agent_config.poll_interval = options_.poll_interval;
  agent_config.limits = options_.agent_limits;
  agent_config.enable_delta = options_.enable_delta;
  agent_config.transport.enable_stream = options_.enable_transport;
  agent_config.transport.long_poll_hold = options_.transport_hold;
  agent_config.transport.max_held = options_.max_held_streams;
  agent_config.enable_trace = options_.enable_trace;
  agent_config.flight_dir = options_.flight_dir;
  agent_ = std::make_unique<RcbAgent>(host_browser_.get(), agent_config);

  uint64_t participant_index = 0;
  for (auto& participant : participants_) {
    SnippetConfig snippet_config;
    snippet_config.session_key = session_key_;
    snippet_config.poll_interval_override = options_.poll_interval;
    snippet_config.poll_timeout = options_.poll_timeout;
    snippet_config.reconnect_after = options_.reconnect_after;
    snippet_config.backoff_base = options_.backoff_base;
    snippet_config.backoff_max = options_.backoff_max;
    snippet_config.backoff_jitter = options_.backoff_jitter;
    snippet_config.backoff_seed = options_.backoff_seed + participant_index++;
    snippet_config.enable_delta = options_.enable_delta;
    snippet_config.stream_mode = options_.snippet_stream_mode;
    snippet_config.adaptive_poll = options_.adaptive_poll;
    snippet_config.adaptive_max = options_.adaptive_max;
    snippet_config.adaptive_growth = options_.adaptive_growth;
    snippet_config.adaptive_idle_threshold = options_.adaptive_idle_threshold;
    snippet_config.enable_trace = options_.enable_trace;
    snippet_config.flight_dir = options_.flight_dir;
    participant->snippet = std::make_unique<AjaxSnippet>(
        participant->browser.get(), snippet_config);
  }
}

CoBrowsingSession::~CoBrowsingSession() {
  for (auto& participant : participants_) {
    participant->snippet->Leave();
  }
  if (agent_ != nullptr) {
    agent_->Stop();
  }
}

Status CoBrowsingSession::Start() {
  RCB_RETURN_IF_ERROR(agent_->Start());
  size_t joined = 0;
  Status join_error;
  for (auto& participant : participants_) {
    participant->snippet->Join(agent_->AgentUrl(),
                               [&joined, &join_error](Status status) {
                                 if (!status.ok()) {
                                   join_error = status;
                                 }
                                 ++joined;
                               });
  }
  bool all_joined = loop_->RunUntilCondition(
      [&] { return joined == participants_.size(); });
  if (!all_joined) {
    return DeadlineExceededError("event loop drained before all joins completed");
  }
  return join_error;
}

StatusOr<CoBrowsingSession::CoNavStats> CoBrowsingSession::CoNavigate(
    const Url& url, Duration timeout) {
  CoNavStats stats;
  stats.participant_content_time.resize(participants_.size());
  stats.participant_objects_time.resize(participants_.size());
  stats.participant_objects_from_host.resize(participants_.size());

  SimTime start = loop_->now();
  SimTime deadline = start + timeout;

  bool host_loaded = false;
  Status host_status;
  std::vector<bool> participant_done(participants_.size(), false);
  SimTime last_done = start;

  for (size_t i = 0; i < participants_.size(); ++i) {
    AjaxSnippet* snippet = participants_[i]->snippet.get();
    snippet->SetObjectsLoadedListener(
        [this, i, &stats, &participant_done, &last_done,
         snippet](Duration object_time) {
          stats.participant_content_time[i] =
              snippet->metrics().last_content_download;
          stats.participant_objects_time[i] = object_time;
          stats.participant_objects_from_host[i] =
              snippet->metrics().last_objects_from_host;
          participant_done[i] = true;
          last_done = loop_->now();
        });
  }

  host_browser_->Navigate(url, [&](const Status& status,
                                   const PageLoadStats& load_stats) {
    host_status = status;
    host_loaded = true;
    stats.host_html_time = load_stats.html_time;
    stats.host_objects_time = load_stats.objects_time;
  });

  auto all_done = [&] {
    if (!host_loaded) {
      return false;
    }
    if (!host_status.ok()) {
      return true;  // abort the wait on navigation failure
    }
    for (bool done : participant_done) {
      if (!done) {
        return false;
      }
    }
    return true;
  };
  while (!all_done() && loop_->now() < deadline && loop_->pending_events() > 0) {
    loop_->RunFor(Duration::Millis(50));
  }
  for (auto& participant : participants_) {
    participant->snippet->SetObjectsLoadedListener(nullptr);
  }
  if (!host_loaded) {
    return DeadlineExceededError("host navigation did not complete");
  }
  if (!host_status.ok()) {
    return host_status;
  }
  if (!all_done()) {
    return DeadlineExceededError("participants did not synchronize in time");
  }
  stats.total_sync_time = last_done - start;
  return stats;
}

Status CoBrowsingSession::WaitForSync(Duration timeout) {
  SimTime deadline = loop_->now() + timeout;
  // Run until every snippet's doc time reaches the agent's current snapshot
  // version.
  while (loop_->now() < deadline) {
    int64_t agent_time = agent_->CurrentSnapshotForTest().doc_time_ms;
    bool all = true;
    for (auto& participant : participants_) {
      if (participant->snippet->doc_time_ms() < agent_time) {
        all = false;
        break;
      }
    }
    if (all) {
      return Status::Ok();
    }
    if (loop_->pending_events() == 0) {
      return DeadlineExceededError("event loop drained before sync");
    }
    loop_->RunFor(Duration::Millis(50));
  }
  return DeadlineExceededError("participants did not reach the host version");
}

}  // namespace rcb
