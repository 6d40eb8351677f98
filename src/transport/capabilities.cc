#include "src/transport/capabilities.h"

#include "src/util/strings.h"

namespace rcb {
namespace transport {

std::string FormatTransportGrant(const TransportGrant& grant) {
  return StrFormat("longpoll; hold=%lld",
                   static_cast<long long>(grant.hold_ms));
}

std::optional<TransportGrant> ParseTransportGrant(std::string_view value) {
  std::vector<std::string> parts = StrSplitSkipEmpty(value, ';');
  if (parts.empty() || StripWhitespace(parts[0]) != "longpoll") {
    return std::nullopt;
  }
  TransportGrant grant;
  for (size_t i = 1; i < parts.size(); ++i) {
    std::string_view param = StripWhitespace(parts[i]);
    size_t eq = param.find('=');
    if (eq == std::string_view::npos) {
      continue;  // unknown bare token: ignore for forward compatibility
    }
    std::string_view name = param.substr(0, eq);
    uint64_t number = 0;
    if (!ParseUint64(param.substr(eq + 1), &number)) {
      return std::nullopt;
    }
    if (name == "hold") {
      grant.hold_ms = static_cast<int64_t>(number);
    }
  }
  if (grant.hold_ms <= 0) {
    return std::nullopt;
  }
  return grant;
}

}  // namespace transport
}  // namespace rcb
