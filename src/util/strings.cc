#include "src/util/strings.h"

#include <cctype>
#include <climits>
#include <cstdarg>
#include <cstdio>

namespace rcb {

std::vector<std::string> StrSplit(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> StrSplitSkipEmpty(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (auto& piece : StrSplit(input, sep)) {
    std::string_view trimmed = StripWhitespace(piece);
    if (!trimmed.empty()) {
      out.emplace_back(trimmed);
    }
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string AsciiToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         EqualsIgnoreCase(s.substr(0, prefix.size()), prefix);
}

std::string StrReplaceAll(std::string_view input, std::string_view from,
                          std::string_view to) {
  if (from.empty()) {
    return std::string(input);
  }
  std::string out;
  out.reserve(input.size());
  size_t start = 0;
  while (true) {
    size_t pos = input.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(input.substr(start));
      break;
    }
    out.append(input.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return false;  // overflow
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  const bool negative = !s.empty() && s.front() == '-';
  uint64_t magnitude = 0;
  if (!ParseUint64(negative ? s.substr(1) : s, &magnitude) ||
      magnitude > static_cast<uint64_t>(INT64_MAX)) {
    return false;
  }
  *out = negative ? -static_cast<int64_t>(magnitude)
                  : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseInt(std::string_view s, int* out) {
  int64_t value = 0;
  if (!ParseInt64(s, &value) || value < INT_MIN || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace rcb
