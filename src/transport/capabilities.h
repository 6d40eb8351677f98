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

#include <cstddef>
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

// Longest a long-poll is parked before an empty response is released.
inline constexpr Duration kLongPollHold = Duration::Seconds(10.0);
// Cap on concurrently parked long-polls per agent (overload discipline,
// DESIGN.md §8); over the cap new grants are denied and the client gracefully
// stays on classic polling.
inline constexpr size_t kMaxHeldPolls = 64;

// Agent-side transport switch (AgentConfig::transport). Off by default so the
// seed wire behavior is untouched until a deployment opts in on both sides.
struct TransportConfig {
  // Master switch: off never grants and never parks.
  bool enable_stream = false;
};

}  // namespace transport
}  // namespace rcb

#endif  // SRC_TRANSPORT_CAPABILITIES_H_
