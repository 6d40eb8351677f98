#include "tests/support/js_unescape_oracle.h"

#include <cstdint>

namespace rcb {
namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

// A raw byte for the Latin-1 range, UTF-8 above it.
void AppendCodePoint(uint32_t cp, std::string* out) {
  if (cp <= 0xFF) {
    out->push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// The code point of a "%uXXXX" at input[i], or -1.
int UnicodeEscapeAt(std::string_view input, size_t i) {
  if (i + 5 >= input.size() || input[i] != '%' ||
      (input[i + 1] != 'u' && input[i + 1] != 'U')) {
    return -1;
  }
  int cp = 0;
  for (size_t k = i + 2; k < i + 6; ++k) {
    int v = HexValue(input[k]);
    if (v < 0) {
      return -1;
    }
    cp = (cp << 4) | v;
  }
  return cp;
}

}  // namespace

std::string ReferenceJsUnescape(std::string_view input) {
  std::string out;
  for (size_t i = 0; i < input.size();) {
    if (input[i] == '%') {
      if (i + 2 < input.size()) {
        int hi = HexValue(input[i + 1]);
        int lo = HexValue(input[i + 2]);
        if (hi >= 0 && lo >= 0) {
          out.push_back(static_cast<char>((hi << 4) | lo));
          i += 3;
          continue;
        }
      }
      if (int cp = UnicodeEscapeAt(input, i); cp >= 0) {
        size_t used = 6;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          int low = UnicodeEscapeAt(input, i + used);
          if (low >= 0xDC00 && low <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            used += 6;
          }
        }
        AppendCodePoint(static_cast<uint32_t>(cp), &out);
        i += used;
        continue;
      }
    }
    out.push_back(input[i]);
    ++i;
  }
  return out;
}

}  // namespace rcb
