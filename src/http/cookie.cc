#include "src/http/cookie.h"

#include <algorithm>

#include "src/util/strings.h"

namespace rcb {

bool CookieJar::PathMatches(const std::string& cookie_path,
                            const std::string& request_path) {
  if (cookie_path == request_path) {
    return true;
  }
  if (!StartsWith(request_path, cookie_path)) {
    return false;
  }
  // "/shop" matches "/shop/cart" and (with trailing slash) "/shop/"; it must
  // not match "/shopping".
  return cookie_path.back() == '/' || request_path[cookie_path.size()] == '/';
}

void CookieJar::ApplySetCookie(const Url& origin, std::string_view set_cookie_value,
                               SimTime now) {
  auto pieces = StrSplitSkipEmpty(set_cookie_value, ';');
  if (pieces.empty()) {
    return;
  }
  std::string_view pair = pieces[0];
  size_t eq = pair.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return;  // malformed; browsers drop these too
  }
  Cookie cookie;
  cookie.name = std::string(StripWhitespace(pair.substr(0, eq)));
  cookie.value = std::string(StripWhitespace(pair.substr(eq + 1)));

  for (size_t i = 1; i < pieces.size(); ++i) {
    std::string_view attribute = pieces[i];
    size_t attr_eq = attribute.find('=');
    std::string name = AsciiToLower(StripWhitespace(
        attr_eq == std::string_view::npos ? attribute
                                          : attribute.substr(0, attr_eq)));
    std::string value =
        attr_eq == std::string_view::npos
            ? ""
            : std::string(StripWhitespace(attribute.substr(attr_eq + 1)));
    if (name == "path" && !value.empty() && value[0] == '/') {
      cookie.path = value;
    } else if (name == "secure") {
      cookie.secure = true;
    } else if (name == "max-age") {
      // RFC 6265 §5.2.2: a Max-Age that is not an integer is ignored.
      int64_t seconds = 0;
      if (!ParseInt64(value, &seconds)) {
        continue;
      }
      cookie.has_expiry = true;
      if (seconds <= 0) {
        cookie.expires_at = now;  // expires immediately = deletion
      } else {
        cookie.expires_at = now + Duration::Seconds(static_cast<double>(seconds));
      }
    }
  }

  std::vector<Cookie>& host_cookies = cookies_[origin.host()];
  // Replace an existing cookie with the same (name, path).
  std::erase_if(host_cookies, [&](const Cookie& existing) {
    return existing.name == cookie.name && existing.path == cookie.path;
  });
  // A cookie expiring now-or-earlier is a deletion order; don't store it.
  if (cookie.has_expiry && cookie.expires_at <= now) {
    return;
  }
  host_cookies.push_back(std::move(cookie));
}

std::string CookieJar::CookieHeaderFor(const Url& url, SimTime now) const {
  auto it = cookies_.find(url.host());
  if (it == cookies_.end()) {
    return "";
  }
  std::vector<const Cookie*> matching;
  for (const Cookie& cookie : it->second) {
    if (!Usable(cookie, now)) {
      continue;
    }
    if (cookie.secure && !url.is_https()) {
      continue;
    }
    if (!PathMatches(cookie.path, url.path())) {
      continue;
    }
    matching.push_back(&cookie);
  }
  // RFC 6265 §5.4: longer paths first; ties keep insertion order.
  std::stable_sort(matching.begin(), matching.end(),
                   [](const Cookie* a, const Cookie* b) {
                     return a->path.size() > b->path.size();
                   });
  std::string out;
  for (const Cookie* cookie : matching) {
    if (!out.empty()) {
      out += "; ";
    }
    out += cookie->name;
    out += '=';
    out += cookie->value;
  }
  return out;
}

std::string CookieJar::Get(const Url& origin, std::string_view name,
                           SimTime now) const {
  auto it = cookies_.find(origin.host());
  if (it == cookies_.end()) {
    return "";
  }
  for (const Cookie& cookie : it->second) {
    if (cookie.name == name && Usable(cookie, now)) {
      return cookie.value;
    }
  }
  return "";
}

size_t CookieJar::CountFor(const Url& origin, SimTime now) const {
  auto it = cookies_.find(origin.host());
  if (it == cookies_.end()) {
    return 0;
  }
  size_t count = 0;
  for (const Cookie& cookie : it->second) {
    if (Usable(cookie, now)) {
      ++count;
    }
  }
  return count;
}

}  // namespace rcb
