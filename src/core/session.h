// Co-browsing session orchestration.
//
// Wires a complete RCB deployment together on one simulated network: a host
// machine running a Browser + RcbAgent, N participant machines each running a
// Browser + AjaxSnippet, and the host<->participant links configured from a
// NetworkProfile (LAN or WAN, §5.1). Origin servers are installed separately
// (sites/) and shared by all sessions on the network.
//
// The facade also provides the synchronized-navigation measurement used by
// the benchmarks: host navigates, and we wait until every participant has
// applied the new content and finished downloading its supplementary
// objects, collecting the paper's M1/M2/M3/M4 readings.
#ifndef SRC_CORE_SESSION_H_
#define SRC_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/ajax_snippet.h"
#include "src/core/rcb_agent.h"
#include "src/net/profiles.h"

namespace rcb {

struct SessionOptions {
  NetworkProfile profile = LanProfile();
  size_t participant_count = 1;
  bool cache_mode = true;
  Duration poll_interval = Duration::Seconds(1.0);
  // Enables HMAC request authentication with a generated session key.
  bool enable_auth = false;
  std::string host_machine = "host-pc";
  std::string participant_machine_prefix = "participant-pc";

  // --- Recovery knobs forwarded to every participant's SnippetConfig
  // (§3.2.3). Defaults keep recovery off, matching the original snippet. ---
  Duration poll_timeout = Duration::Zero();
  uint32_t reconnect_after = 0;
  Duration backoff_base = Duration::Millis(500);
  Duration backoff_max = Duration::Seconds(8.0);
  Duration backoff_jitter = Duration::Zero();
  // Per-participant streams are derived from this (seed + index) so backoff
  // jitter never synchronizes participants into a retry stampede.
  uint64_t backoff_seed = 0xC0FFEE;

  // Overload-protection knobs forwarded to AgentConfig::limits. Defaults are
  // generous enough that a well-behaved session never hits them.
  AgentLimits agent_limits;

  // Delta snapshots (src/delta) on both sides: the agent keeps per-version
  // base trees and answers capability-advertising polls with newPatch deltas;
  // every snippet advertises and applies them. Off keeps the seed wire
  // behavior byte-for-byte.
  bool enable_delta = false;

  // --- Streamed transport (DESIGN.md §15). Off keeps the wire byte-for-byte
  // with classic polling: no stream= field, no RCB-Transport header. ---
  // Agent side: answer capability-advertising polls with a transport grant.
  bool enable_transport = false;
  // Snippet side: what each participant advertises (transport::kStreamNone /
  // kStreamLongPoll; see SnippetConfig::stream_mode).
  uint32_t snippet_stream_mode = 0;

  // Causal tracing (DESIGN.md §11) on both sides: snippets stamp each poll
  // with trace=<pid>-<seq> and the agent threads that id through merge,
  // generation, diff, and response spans. Off keeps the wire byte-for-byte.
  bool enable_trace = false;
  // Flight-recorder dump directory for the agent and every snippet; empty
  // falls back to $RCB_FLIGHT_DIR (triggers are counted either way).
  std::string flight_dir;
};

class CoBrowsingSession {
 public:
  // Registers the host/participant machines in `network` per the profile.
  CoBrowsingSession(EventLoop* loop, Network* network, SessionOptions options);
  ~CoBrowsingSession();
  CoBrowsingSession(const CoBrowsingSession&) = delete;
  CoBrowsingSession& operator=(const CoBrowsingSession&) = delete;

  // Starts the agent and joins every participant; runs the loop until all
  // joins complete.
  Status Start();

  Browser* host_browser() { return host_browser_.get(); }
  RcbAgent* agent() { return agent_.get(); }
  size_t participant_count() const { return participants_.size(); }
  Browser* participant_browser(size_t i) { return participants_[i]->browser.get(); }
  AjaxSnippet* snippet(size_t i) { return participants_[i]->snippet.get(); }
  const std::string& session_key() const { return session_key_; }
  EventLoop* loop() { return loop_; }

  // One synchronized navigation measurement.
  struct CoNavStats {
    Duration host_html_time;                         // M1
    Duration host_objects_time;
    std::vector<Duration> participant_content_time;  // M2 per participant
    std::vector<Duration> participant_objects_time;  // M3 (non-cache) / M4 (cache)
    std::vector<size_t> participant_objects_from_host;
    Duration total_sync_time;  // nav start -> last participant fully loaded
  };

  // Host navigates to `url`; waits (in simulated time) until every
  // participant applied the resulting content and fetched its objects.
  StatusOr<CoNavStats> CoNavigate(const Url& url,
                                  Duration timeout = Duration::Seconds(120.0));

  // Runs the loop until every participant's doc time matches the host's
  // current version (used after scripted mutations / co-fills).
  Status WaitForSync(Duration timeout = Duration::Seconds(120.0));

 private:
  struct Participant {
    std::string machine;
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };

  EventLoop* loop_;
  Network* network_;
  SessionOptions options_;
  std::string session_key_;
  std::unique_ptr<Browser> host_browser_;
  std::unique_ptr<RcbAgent> agent_;
  std::vector<std::unique_ptr<Participant>> participants_;
};

}  // namespace rcb

#endif  // SRC_CORE_SESSION_H_
