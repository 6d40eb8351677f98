// health_chaos: deterministic scenario driver for the health plane
// (DESIGN.md §16). Builds a small multi-session RcbHost on a simulated
// network, runs one fault scenario, and writes the host's /host/health
// snapshot — scripts/ci.sh check_health asserts the calm run double-runs
// bit-identically and that each fault scenario trips exactly the SLO burn
// alert it injects.
//
// Usage: health_chaos --scenario calm|delay|auth|waste [--out FILE]
//   calm   long-poll transport, regular mutations: parked polls flush the
//          instant content exists, so sync latency is ~network RTT and every
//          session stays green. On every other round the pollers gesture
//          in the mutation's instant, so each gesture pre-empts a parked
//          poll while the mutation's release is leaving: on one such round
//          one poller per session co-fills a field, on the next every poller
//          moves its pointer, and the agent answers those crossed polls
//          without re-sending the released version (the send-once rule,
//          DESIGN.md §15).
//   delay  classic 500 ms interval polling against the same mutation load:
//          content waits for the next poll, so serve latency is interval-
//          bound (~250 ms mean >> the 20 ms target) -> sync_p99 burn alert.
//   auth   pollers sign every request with the wrong key -> auth_failure_rate
//          burn alert (and the per-session flight recorder fires).
//   waste  idle classic polling under a streamed-transport waste budget
//          (10%): every poll comes back empty -> wasted_poll_ratio alert.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/ajax_snippet.h"
#include "src/crypto/hmac.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/util/strings.h"

using namespace rcb;

namespace {

constexpr size_t kSessions = 4;
constexpr size_t kParticipants = 2;
constexpr int kFirstRoundMs = 2000;
constexpr int kRoundSpacingMs = 1500;
constexpr int64_t kRunMs = 70'000;  // > the slow window, so slow burns settle
// Mutations run the whole scenario so the final fast window is never idle.
constexpr int kRounds = (kRunMs - kFirstRoundMs) / kRoundSpacingMs;
constexpr const char* kSessionKey = "chaos-session-key";

struct Scenario {
  bool long_poll = false;      // snippet advertises stream=1, agent grants
  bool mutations = false;      // document rounds (content to sync)
  bool bad_auth = false;       // raw wrongly-signed polls instead of snippets
  bool tight_waste_budget = false;  // wasted_poll_budget 0.90 -> 0.10
  bool gestures = false;       // pollers co-fill and move the pointer
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "health_chaos: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--scenario" && i + 1 < argc) {
      scenario_name = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s --scenario calm|delay|auth|waste [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  Scenario scenario;
  if (scenario_name == "calm") {
    scenario.long_poll = true;
    scenario.mutations = true;
    scenario.gestures = true;
  } else if (scenario_name == "delay") {
    scenario.mutations = true;
  } else if (scenario_name == "auth") {
    scenario.bad_auth = true;
  } else if (scenario_name == "waste") {
    scenario.tight_waste_budget = true;
  } else {
    std::fprintf(stderr,
                 "usage: %s --scenario calm|delay|auth|waste [--out FILE]\n",
                 argv[0]);
    return 2;
  }

  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  for (size_t p = 0; p < kParticipants; ++p) {
    std::string machine = "poller-pc-" + std::to_string(p + 1);
    network.AddHost(machine, {});
    network.SetLatency("host-pc", machine, Duration::Millis(1));
  }

  HostConfig config;
  config.base_port = 3000;
  config.limits.max_sessions = 0;
  config.agent_defaults.poll_interval = Duration::Millis(500);
  if (scenario.long_poll) {
    config.agent_defaults.transport.enable_stream = true;
  }
  if (scenario.bad_auth) {
    config.agent_defaults.session_key = kSessionKey;
  }
  if (scenario.tight_waste_budget) {
    // A deployment that opted into streamed-transport efficiency: classic
    // idle polling wastes ~100% of round trips, burning this budget ~10x.
    config.agent_defaults.health_slo.wasted_poll_budget = 0.10;
  }
  RcbHost host(&loop, &network, config);
  if (Status status = host.Start(); !status.ok()) {
    return Fail(status.ToString());
  }

  std::vector<HostSession*> hosted(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    auto session = host.CreateSession("s" + std::to_string(s));
    if (!session.ok()) {
      return Fail(session.status().ToString());
    }
    hosted[s] = *session;
    hosted[s]->browser->ReplaceDocument(
        ParseDocument(StrFormat(
            "<html><head><title>chaos %zu</title></head>"
            "<body><p id=\"status\">round 0</p>%s</body></html>", s,
            scenario.gestures ? "<form id=\"f\"><input name=\"q\"></form>"
                              : "")),
        Url::Make("http", "host-pc", hosted[s]->port, "/doc"));
  }

  struct Poller {
    std::unique_ptr<Browser> browser;
    std::unique_ptr<AjaxSnippet> snippet;
  };
  std::vector<Poller> pollers;
  size_t joined = 0;
  if (!scenario.bad_auth) {
    pollers.reserve(kSessions * kParticipants);
    for (size_t s = 0; s < kSessions; ++s) {
      for (size_t p = 0; p < kParticipants; ++p) {
        Poller poller;
        poller.browser = std::make_unique<Browser>(
            &loop, &network, "poller-pc-" + std::to_string(p + 1));
        SnippetConfig snippet_config;
        snippet_config.fetch_objects = false;
        if (scenario.long_poll) {
          snippet_config.stream_mode = transport::kStreamLongPoll;
        }
        poller.snippet = std::make_unique<AjaxSnippet>(poller.browser.get(),
                                                       snippet_config);
        poller.snippet->Join(hosted[s]->agent->AgentUrl(),
                             [&joined](Status status) {
                               if (status.ok()) {
                                 ++joined;
                               }
                             });
        pollers.push_back(std::move(poller));
      }
    }
    loop.RunUntilCondition(
        [&] { return joined == kSessions * kParticipants; });
    if (joined != kSessions * kParticipants) {
      return Fail("pollers never joined");
    }
  } else {
    // Wrongly-signed polls straight at the front door, on the poll cadence:
    // every one is counted, 403'd, and sampled into the auth-failure window.
    for (int64_t at_ms = 1000; at_ms < kRunMs; at_ms += 500) {
      loop.Schedule(Duration::Millis(at_ms) - (loop.now() - SimTime()),
                    [&host] {
        for (size_t s = 0; s < kSessions; ++s) {
          HttpRequest request;
          request.method = HttpMethod::kPost;
          request.target = StrFormat("/s/s%zu/poll?hmac=%s", s,
                                     std::string(64, '0').c_str());
          request.body = "pid=intruder&docTime=0";
          host.Route(request);
        }
      });
    }
  }

  size_t fill_errors = 0;
  if (scenario.mutations) {
    const SimTime epoch;
    for (int round = 1; round <= kRounds; ++round) {
      SimTime fire = epoch + Duration::Millis(kFirstRoundMs +
                                              (round - 1) * kRoundSpacingMs);
      loop.Schedule(fire - loop.now(), [&hosted, round] {
        for (HostSession* session : hosted) {
          session->browser->MutateDocument([round](Document* document) {
            Element* status = document->ById("status");
            status->RemoveAllChildren();
            status->AppendChild(MakeText("round " + std::to_string(round)));
          });
        }
      });
      if (scenario.gestures && round % 4 == 0) {
        loop.Schedule(fire - loop.now(), [&pollers, &fill_errors, round] {
          for (size_t i = 0; i < pollers.size(); i += kParticipants) {
            Element* form = pollers[i].browser->document()->ById("f");
            if (form == nullptr ||
                !pollers[i]
                     .snippet->FillFormField(form, "q",
                                             "round " + std::to_string(round))
                     .ok()) {
              ++fill_errors;
            }
          }
        });
      } else if (scenario.gestures && round % 4 == 2) {
        loop.Schedule(fire - loop.now(), [&pollers, round] {
          for (size_t i = 0; i < pollers.size(); ++i) {
            pollers[i].snippet->SendMouseMove(round, static_cast<int>(i));
          }
        });
      }
    }
  }

  loop.RunUntil(SimTime() + Duration::Millis(kRunMs));
  if (fill_errors > 0) {
    return Fail(StrFormat("%zu co-fills failed", fill_errors));
  }

  HttpRequest health_request;
  health_request.method = HttpMethod::kGet;
  health_request.target = "/host/health";
  if (scenario.bad_auth) {
    // The host shares the agents' key; sign the snapshot request properly.
    std::string mac =
        HmacSha256Hex(kSessionKey, "GET /host/health\n");
    health_request.target += "?hmac=" + mac;
  }
  HttpResponse response = host.Route(health_request);
  if (response.status_code != 200) {
    return Fail(StrFormat("/host/health -> %d: %s", response.status_code,
                          response.body.c_str()));
  }
  if (out_path.empty()) {
    std::fputs(response.body.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail("cannot open " + out_path);
    }
    out << response.body;
    if (!out.good()) {
      return Fail("short write to " + out_path);
    }
  }
  host.Stop();
  return 0;
}
