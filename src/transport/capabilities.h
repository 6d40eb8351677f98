// Transport capability negotiation (DESIGN.md §15).
//
// The negotiation rides the existing poll exchange, following the patch=/
// trace= downgrade contract exactly:
//
//  - A streaming-capable snippet adds `stream=<mode>` to its poll body
//    (1, or its alias 2; see kStreamFrames). A snippet with the capability
//    off sends nothing — byte-identical to the pre-transport wire.
//  - An agent with the transport enabled answers a capable poll with an
//    `RCB-Transport:` response header naming the granted mode; with the
//    transport off (or the client silent) the header is never added, so the
//    response bytes are untouched.
//
// Grant wire format (parsed leniently, emitted canonically):
//
//   RCB-Transport: longpoll; hold=<max hold ms>
//
// Any other mode, including the retired `frames; hb=<ms>`, parses as no
// grant: the client stays on classic polling.
#ifndef SRC_TRANSPORT_CAPABILITIES_H_
#define SRC_TRANSPORT_CAPABILITIES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/util/sim_time.h"

namespace rcb {
namespace transport {

// Poll-body `stream=` capability values.
inline constexpr uint32_t kStreamNone = 0;
inline constexpr uint32_t kStreamLongPoll = 1;
// Only a wire alias of kStreamLongPoll, kept because the end-to-end
// benchmark (e2e_bench/) still advertises it: framed streams are retired,
// and a stream=2 poll is granted, held and pre-empted exactly like a
// stream=1 poll (DESIGN.md §15).
inline constexpr uint32_t kStreamFrames = 2;

// The one granted mode: the agent may hold a poll for up to `hold_ms`.
struct TransportGrant {
  int64_t hold_ms = 0;
};

std::string FormatTransportGrant(const TransportGrant& grant);

// Parses an RCB-Transport header value; nullopt on anything malformed (the
// client then stays on classic polling — downgrade, never an error).
std::optional<TransportGrant> ParseTransportGrant(std::string_view value);

// Agent-side transport knobs (AgentConfig::transport). Everything defaults
// off/conservative so the seed wire behavior is untouched until a deployment
// opts in on both sides.
struct TransportConfig {
  // Master switch: off never grants and never parks.
  bool enable_stream = false;
  // Longest a long-poll is parked before an empty response is released.
  Duration long_poll_hold = Duration::Seconds(10.0);
  // Cap on concurrently parked long-polls (overload discipline, DESIGN.md
  // §8); over the cap new grants are denied and the client gracefully stays
  // on classic polling.
  size_t max_held = 64;
};

// --- Wasted-poll accounting (health plane, DESIGN.md §16) ---
// The transport layer owns the definition of a *wasted* poll — a round trip
// that moved no content: an empty classic poll reply, or a parked long-poll
// released empty by its hold deadline. A parked poll that flushes with data
// is NOT wasted (that is the point of parking), so the transport's win shows
// up directly in the wasted_poll_ratio SLO (src/obs/slo.h).
struct WastedPollInputs {
  uint64_t polls_empty = 0;         // classic empty replies
  uint64_t long_poll_expiries = 0;  // parked polls released empty
};

inline uint64_t WastedPolls(const WastedPollInputs& inputs) {
  return inputs.polls_empty + inputs.long_poll_expiries;
}

}  // namespace transport
}  // namespace rcb

#endif  // SRC_TRANSPORT_CAPABILITIES_H_
