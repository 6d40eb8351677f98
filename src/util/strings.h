// String helpers shared across the RCB stack.
#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcb {

// Splits `input` on `sep`. Adjacent separators yield empty pieces; an empty
// input yields a single empty piece (matching the common absl::StrSplit shape).
std::vector<std::string> StrSplit(std::string_view input, char sep);

// Splits on `sep` and drops empty pieces after trimming whitespace.
std::vector<std::string> StrSplitSkipEmpty(std::string_view input, char sep);

// Joins `parts` with `sep` between elements.
std::string StrJoin(const std::vector<std::string>& parts, std::string_view sep);

// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view input);

// ASCII case mapping (locale-independent).
std::string AsciiToLower(std::string_view input);
std::string AsciiToUpper(std::string_view input);

// Case-insensitive ASCII comparison (header names, tag names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool StartsWithIgnoreCase(std::string_view s, std::string_view prefix);

// Replaces every occurrence of `from` (must be non-empty) with `to`.
std::string StrReplaceAll(std::string_view input, std::string_view from,
                          std::string_view to);

// Parses a non-negative decimal integer; returns false on any non-digit or
// overflow. Used by the HTTP parser (Content-Length) where leniency is a bug.
bool ParseUint64(std::string_view s, uint64_t* out);

// ParseUint64 with an optional leading '-': a decimal int64 in
// (INT64_MIN, INT64_MAX]; false on anything else. The wire decoders and the
// persistence codecs read signed fields with it.
bool ParseInt64(std::string_view s, int64_t* out);
// ParseInt64 narrowed to int: false also when the value does not fit.
bool ParseInt(std::string_view s, int* out);

// Formats with printf semantics into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace rcb

#endif  // SRC_UTIL_STRINGS_H_
