#include "src/util/escape.h"

#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>

#include "src/util/strings.h"

namespace rcb {
namespace {

constexpr char kHexDigits[] = "0123456789ABCDEF";

bool IsJsSafe(unsigned char c) {
  if (std::isalnum(c)) {
    return true;
  }
  switch (c) {
    case '@':
    case '*':
    case '_':
    case '+':
    case '-':
    case '.':
    case '/':
      return true;
    default:
      return false;
  }
}

bool IsUnreserved(unsigned char c) {
  return std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~';
}

// Hex digit value per byte, -1 for a byte that is no hex digit.
constexpr std::array<int8_t, 256> kHexValue = [] {
  std::array<int8_t, 256> table{};
  table.fill(-1);
  for (int i = 0; i < 10; ++i) {
    table['0' + i] = static_cast<int8_t>(i);
  }
  for (int i = 0; i < 6; ++i) {
    table['a' + i] = static_cast<int8_t>(10 + i);
    table['A' + i] = static_cast<int8_t>(10 + i);
  }
  return table;
}();

int HexValue(char c) { return kHexValue[static_cast<unsigned char>(c)]; }

// Emits a code point: a raw byte for the Latin-1 range (our DOM stores
// bytes), UTF-8 for anything above it.
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

// The code point of a JS escape() "%uXXXX" at input[i], or -1.
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

// Decodes the "%uXXXX" at input[i] into `out`, joining a UTF-16 surrogate
// pair (how escape() writes an astral code point) into one code point.
// Returns the bytes consumed: 0 when input[i] starts no such escape.
size_t AppendUnicodeEscape(std::string_view input, size_t i, std::string* out) {
  int cp = UnicodeEscapeAt(input, i);
  if (cp < 0) {
    return 0;
  }
  size_t used = 6;
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    int low = UnicodeEscapeAt(input, i + used);
    if (low >= 0xDC00 && low <= 0xDFFF) {
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      used += 6;
    }
  }
  AppendCodePoint(static_cast<uint32_t>(cp), out);
  return used;
}

}  // namespace

size_t JsUnescapeUnit(std::string_view input, size_t pos, std::string* out) {
  if (input[pos] == '%') {
    // "%XX" first: it is the common form, and 'u' is no hex digit.
    if (pos + 2 < input.size()) {
      int hi = HexValue(input[pos + 1]);
      int lo = HexValue(input[pos + 2]);
      if (hi >= 0 && lo >= 0) {
        out->push_back(static_cast<char>((hi << 4) | lo));
        return pos + 3;
      }
    }
    if (size_t used = AppendUnicodeEscape(input, pos, out); used > 0) {
      return pos + used;
    }
  }
  out->push_back(input[pos]);
  return pos + 1;
}

namespace {

// The unit-at-a-time JsUnescape loop, appending to `out`. JsUnescape runs it
// only from the first "%u" on, where a code point may need UTF-8 bytes.
void JsUnescapeGeneral(std::string_view input, std::string* out) {
  for (size_t i = 0; i < input.size();) {
    i = JsUnescapeUnit(input, i, out);
  }
}

}  // namespace

std::string JsEscape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  JsEscapeAppend(input, &out);
  return out;
}

void JsEscapeAppend(std::string_view input, std::string* out) {
  for (char ch : input) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (IsJsSafe(c)) {
      out->push_back(ch);
    } else {
      out->push_back('%');
      out->push_back(kHexDigits[c >> 4]);
      out->push_back(kHexDigits[c & 0xF]);
    }
  }
}

namespace {

// JsUnescape's fast loop: sizes `*out` once (decoding never lengthens),
// copies the runs between '%'s whole and decodes "%XX" by table, calling
// wide(offset) for each output byte decoded from "%XX". Stops at a "%u"
// candidate and returns its input offset with `*out` holding what came
// before it, or returns input.size().
template <typename Wide>
size_t JsUnescapeUntilUnicode(std::string_view input, std::string* out,
                              Wide wide) {
  out->resize(input.size());
  char* const begin = out->data();
  char* dst = begin;
  const char* p = input.data();
  const char* end = p + input.size();
  while (p < end) {
    const char* percent =
        static_cast<const char*>(std::memchr(p, '%', static_cast<size_t>(end - p)));
    if (percent == nullptr) {
      percent = end;
    }
    std::memcpy(dst, p, static_cast<size_t>(percent - p));
    dst += percent - p;
    p = percent;
    if (p == end) {
      break;
    }
    if (end - p > 2) {
      int hi = HexValue(p[1]);
      int lo = HexValue(p[2]);
      if ((hi | lo) >= 0) {
        wide(static_cast<size_t>(dst - begin));
        *dst++ = static_cast<char>((hi << 4) | lo);
        p += 3;
        continue;
      }
    }
    if (end - p > 1 && (p[1] == 'u' || p[1] == 'U')) {
      break;  // a "%uXXXX" candidate
    }
    *dst++ = '%';  // a stray '%' passes through
    ++p;
  }
  out->resize(static_cast<size_t>(dst - begin));
  return static_cast<size_t>(p - input.data());
}

}  // namespace

std::string JsUnescape(std::string_view input) {
  std::string out;
  const size_t done = JsUnescapeUntilUnicode(input, &out, [](size_t) {});
  // The rare "%u" rest goes through the unit loop, which decodes code
  // points to UTF-8.
  JsUnescapeGeneral(input.substr(done), &out);
  return out;
}

bool JsUnescapeMap::Decode(std::string_view input, std::string* out) {
  wide_.assign(input.size() / 64 + 1, 0);
  const size_t done = JsUnescapeUntilUnicode(input, out, [this](size_t at) {
    wide_[at / 64] |= uint64_t{1} << (at % 64);
  });
  if (done != input.size()) {
    return false;
  }
  below_.resize(wide_.size());
  uint32_t count = 0;
  for (size_t w = 0; w < wide_.size(); ++w) {
    below_[w] = count;
    count += static_cast<uint32_t>(__builtin_popcountll(wide_[w]));
  }
  return true;
}

size_t JsUnescapeMap::EscapedOffset(size_t offset) const {
  const size_t word = offset / 64;
  const uint64_t before = wide_[word] & ((uint64_t{1} << (offset % 64)) - 1);
  return offset + 2 * (below_[word] +
                       static_cast<size_t>(__builtin_popcountll(before)));
}

std::string PercentEncode(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char ch : input) {
    unsigned char c = static_cast<unsigned char>(ch);
    if (IsUnreserved(c)) {
      out.push_back(ch);
    } else {
      out.push_back('%');
      out.push_back(kHexDigits[c >> 4]);
      out.push_back(kHexDigits[c & 0xF]);
    }
  }
  return out;
}

std::string PercentDecode(std::string_view input, bool plus_as_space) {
  std::string out;
  out.reserve(input.size());
  for (size_t i = 0; i < input.size();) {
    if (input[i] == '%' && i + 2 < input.size()) {
      int hi = HexValue(input[i + 1]);
      int lo = HexValue(input[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 3;
        continue;
      }
    }
    if (plus_as_space && input[i] == '+') {
      out.push_back(' ');
    } else {
      out.push_back(input[i]);
    }
    ++i;
  }
  return out;
}

std::string HtmlEscape(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  HtmlEscapeAppend(input, &out);
  return out;
}

void HtmlEscapeAppend(std::string_view input, std::string* out) {
  // Copy each run between escapable bytes in one append.
  size_t run = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    std::string_view entity;
    switch (input[i]) {
      case '&':
        entity = "&amp;";
        break;
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '"':
        entity = "&quot;";
        break;
      case '\'':
        entity = "&#39;";
        break;
      default:
        continue;
    }
    out->append(input.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(input.data() + run, input.size() - run);
}

namespace {

// Common named character references of 2009-era HTML (HTML 4.01 subset).
// Code points map to Latin-1 bytes when <= 0xFF, UTF-8 otherwise, matching
// the numeric-reference behaviour below.
struct NamedEntity {
  std::string_view name;
  uint32_t code_point;
};
constexpr NamedEntity kNamedEntities[] = {
    {"nbsp", 0xA0},    {"iexcl", 0xA1},  {"cent", 0xA2},   {"pound", 0xA3},
    {"curren", 0xA4},  {"yen", 0xA5},    {"brvbar", 0xA6}, {"sect", 0xA7},
    {"uml", 0xA8},     {"copy", 0xA9},   {"ordf", 0xAA},   {"laquo", 0xAB},
    {"not", 0xAC},     {"shy", 0xAD},    {"reg", 0xAE},    {"macr", 0xAF},
    {"deg", 0xB0},     {"plusmn", 0xB1}, {"sup2", 0xB2},   {"sup3", 0xB3},
    {"acute", 0xB4},   {"micro", 0xB5},  {"para", 0xB6},   {"middot", 0xB7},
    {"cedil", 0xB8},   {"sup1", 0xB9},   {"ordm", 0xBA},   {"raquo", 0xBB},
    {"frac14", 0xBC},  {"frac12", 0xBD}, {"frac34", 0xBE}, {"iquest", 0xBF},
    {"Agrave", 0xC0},  {"Aacute", 0xC1}, {"Auml", 0xC4},   {"Aring", 0xC5},
    {"AElig", 0xC6},   {"Ccedil", 0xC7}, {"Egrave", 0xC8}, {"Eacute", 0xC9},
    {"Ntilde", 0xD1},  {"Ouml", 0xD6},   {"times", 0xD7},  {"Oslash", 0xD8},
    {"Uuml", 0xDC},    {"szlig", 0xDF},  {"agrave", 0xE0}, {"aacute", 0xE1},
    {"auml", 0xE4},    {"aring", 0xE5},  {"aelig", 0xE6},  {"ccedil", 0xE7},
    {"egrave", 0xE8},  {"eacute", 0xE9}, {"iuml", 0xEF},   {"ntilde", 0xF1},
    {"ouml", 0xF6},    {"divide", 0xF7}, {"oslash", 0xF8}, {"uuml", 0xFC},
    {"euro", 0x20AC},  {"ndash", 0x2013},{"mdash", 0x2014},{"lsquo", 0x2018},
    {"rsquo", 0x2019}, {"ldquo", 0x201C},{"rdquo", 0x201D},{"bull", 0x2022},
    {"hellip", 0x2026},{"dagger", 0x2020},{"permil", 0x2030},{"trade", 0x2122},
    {"larr", 0x2190},  {"uarr", 0x2191}, {"rarr", 0x2192}, {"darr", 0x2193},
};

}  // namespace

std::string HtmlUnescape(std::string_view input) {
  std::string out;
  HtmlUnescapeInto(input, &out);
  return out;
}

void HtmlUnescapeInto(std::string_view input, std::string* out) {
  size_t first = input.find('&');
  if (first == std::string_view::npos) {
    out->assign(input);
    return;
  }
  out->reserve(input.size());
  out->assign(input.substr(0, first));
  for (size_t i = first; i < input.size();) {
    // Copy everything up to the next '&' in one append.
    size_t amp = input.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(input.substr(i));
      break;
    }
    out->append(input.substr(i, amp - i));
    i = amp;
    size_t semi = input.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out->push_back(input[i]);
      ++i;
      continue;
    }
    std::string_view entity = input.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out->push_back('&');
    } else if (entity == "lt") {
      out->push_back('<');
    } else if (entity == "gt") {
      out->push_back('>');
    } else if (entity == "quot") {
      out->push_back('"');
    } else if (entity == "apos") {
      out->push_back('\'');
    } else if (const NamedEntity* named = [&]() -> const NamedEntity* {
                 for (const NamedEntity& candidate : kNamedEntities) {
                   if (candidate.name == entity) {
                     return &candidate;
                   }
                 }
                 return nullptr;
               }()) {
      AppendCodePoint(named->code_point, out);
    } else if (!entity.empty() && entity[0] == '#') {
      int cp = 0;
      bool valid = false;
      if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
        for (size_t k = 2; k < entity.size(); ++k) {
          int v = HexValue(entity[k]);
          if (v < 0) {
            cp = -1;
            break;
          }
          cp = cp * 16 + v;
        }
        valid = entity.size() > 2 && cp >= 0;
      } else {
        valid = entity.size() > 1;
        for (size_t k = 1; k < entity.size(); ++k) {
          if (entity[k] < '0' || entity[k] > '9') {
            valid = false;
            break;
          }
          cp = cp * 10 + (entity[k] - '0');
        }
      }
      if (valid && cp >= 0 && cp <= 0x10FFFF) {
        AppendCodePoint(static_cast<uint32_t>(cp), out);
      } else {
        out->append(input.substr(i, semi - i + 1));
      }
    } else {
      out->append(input.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
}

}  // namespace rcb
