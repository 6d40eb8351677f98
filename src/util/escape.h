// Encoding helpers used by the RCB wire formats.
//
// JsEscape/JsUnescape mirror the semantics of the legacy JavaScript
// escape()/unescape() functions that the paper's Ajax-Snippet relies on to
// carry innerHTML payloads inside CDATA sections (Fig. 4). PercentEncode
// implements RFC 3986 component encoding for request-URIs; HtmlEscape covers
// attribute/text emission in the HTML serializer.
#ifndef SRC_UTIL_ESCAPE_H_
#define SRC_UTIL_ESCAPE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcb {

// JavaScript escape(): alphanumerics and @*_+-./ pass through; other bytes
// become %XX; code points above 0xFF become %uXXXX. Our transport is byte
// oriented, so input is treated as Latin-1 bytes (matching how the original
// snippet saw single-byte document encodings).
//
// Both escapes are stateless per byte, so escaping a concatenation equals
// concatenating the escapes. The serialization cache (src/core) depends on
// that to splice cached pre-escaped spans byte-identically.
std::string JsEscape(std::string_view input);
void JsEscapeAppend(std::string_view input, std::string* out);

// Inverse of JsEscape. Malformed %-sequences are passed through verbatim,
// matching browser behaviour.
std::string JsUnescape(std::string_view input);

// Decodes the one JsEscape unit at input[pos] (a byte, "%XX" or "%uXXXX",
// or a stray '%') onto `*out` and returns the offset after it. JsUnescape is
// these units left to right.
size_t JsUnescapeUnit(std::string_view input, size_t pos, std::string* out);

// JsUnescape for input without "%u" units, which can then map each decoded
// offset back to the input: every decoded byte stands for one input byte,
// or for three when it came from "%XX".
class JsUnescapeMap {
 public:
  // Overwrites `*out` with JsUnescape(input) and returns true, or returns
  // false (`*out` unspecified) when a '%' in `input` is followed by 'u' or
  // 'U'.
  bool Decode(std::string_view input, std::string* out);
  // The input offset where decoded offset `offset` (at most the decoded
  // size) starts, after a successful Decode.
  size_t EscapedOffset(size_t offset) const;

 private:
  std::vector<uint64_t> wide_;   // bit i: decoded byte i came from "%XX"
  std::vector<uint32_t> below_;  // set bits in the words before wide_[i]
};

// RFC 3986 percent-encoding of a URI component (keeps unreserved chars).
std::string PercentEncode(std::string_view input);

// Percent-decoding; '+' optionally decodes to space (form-urlencoded mode).
std::string PercentDecode(std::string_view input, bool plus_as_space = false);

// Escapes &<>"' for HTML text/attribute contexts.
std::string HtmlEscape(std::string_view input);
void HtmlEscapeAppend(std::string_view input, std::string* out);

// Decodes the five named entities produced by HtmlEscape plus decimal/hex
// numeric character references for the Latin-1 range.
std::string HtmlUnescape(std::string_view input);
// HtmlUnescape into `*out`, overwriting it and reusing its capacity.
void HtmlUnescapeInto(std::string_view input, std::string* out);

}  // namespace rcb

#endif  // SRC_UTIL_ESCAPE_H_
