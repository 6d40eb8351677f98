// Unit tests for src/util: status, strings, escape, base64, rand, sim_time.
#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/base64.h"
#include "src/util/escape.h"
#include "src/util/rand.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "tests/support/js_unescape_oracle.h"

namespace rcb {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllConstructorsMapToTheirCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(UnauthenticatedError("").code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(FailedPreconditionError("").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(DeadlineExceededError("").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(AbortedError("").code(), StatusCode::kAborted);
  EXPECT_EQ(ResourceExhaustedError("").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 42);
  EXPECT_EQ(value.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> value = InvalidArgumentError("nope");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(value.value_or(7), 7);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgumentError("odd");
  }
  return x / 2;
}

Status UseAssignOrReturn(int input, int* out) {
  RCB_ASSIGN_OR_RETURN(int half, Half(input));
  *out = half;
  return Status::Ok();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(3, &out).code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, StrSplitBasics) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, StrSplitSkipEmptyTrims) {
  EXPECT_EQ(StrSplitSkipEmpty(" a ; ;b;", ';'),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringsTest, CaseMapping) {
  EXPECT_EQ(AsciiToLower("MiXeD123"), "mixed123");
  EXPECT_EQ(AsciiToUpper("MiXeD123"), "MIXED123");
  EXPECT_TRUE(EqualsIgnoreCase("Content-Type", "content-type"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
  EXPECT_FALSE(EqualsIgnoreCase("abc", "abd"));
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/obj/key", "/obj/"));
  EXPECT_FALSE(StartsWith("/o", "/obj/"));
  EXPECT_TRUE(EndsWith("file.png", ".png"));
  EXPECT_FALSE(EndsWith("png", "file.png"));
  EXPECT_TRUE(StartsWithIgnoreCase("HTTP/1.1", "http/"));
}

TEST(StringsTest, StrReplaceAll) {
  EXPECT_EQ(StrReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(StrReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(StrReplaceAll("abc", "", "x"), "abc");
  EXPECT_EQ(StrReplaceAll("", "a", "x"), "");
}

TEST(StringsTest, ParseUint64) {
  uint64_t value = 0;
  EXPECT_TRUE(ParseUint64("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("18446744073709551616", &value));  // overflow
  EXPECT_FALSE(ParseUint64("", &value));
  EXPECT_FALSE(ParseUint64("-1", &value));
  EXPECT_FALSE(ParseUint64("12a", &value));
  EXPECT_FALSE(ParseUint64(" 1", &value));
}

TEST(StringsTest, ParseInt64) {
  int64_t value = 0;
  EXPECT_TRUE(ParseInt64("-1", &value));
  EXPECT_EQ(value, -1);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775807", &value));
  EXPECT_EQ(value, -INT64_MAX);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &value));  // overflow
  for (const char* bad :
       {"", "-", "+1", "12x", "x", " 1", "1 ", "--1", "1.5"}) {
    EXPECT_FALSE(ParseInt64(bad, &value)) << bad;
  }
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%05.1f", 2.25), "002.2");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, ParseInt) {
  int value = 7;
  EXPECT_TRUE(ParseInt("0123", &value));
  EXPECT_EQ(value, 123);
  EXPECT_TRUE(ParseInt("-2147483648", &value));
  EXPECT_EQ(value, INT_MIN);
  EXPECT_TRUE(ParseInt("2147483647", &value));
  EXPECT_EQ(value, INT_MAX);
  for (const char* bad : {"", "12x", "+1", "2147483648", "-2147483649"}) {
    value = 7;
    EXPECT_FALSE(ParseInt(bad, &value)) << bad;
    EXPECT_EQ(value, 7) << bad;
  }
}

// ---------------------------------------------------------------- Escape --

TEST(EscapeTest, JsEscapeKeepsSafeChars) {
  EXPECT_EQ(JsEscape("abcXYZ019@*_+-./"), "abcXYZ019@*_+-./");
}

TEST(EscapeTest, JsEscapeEncodesUnsafeBytes) {
  EXPECT_EQ(JsEscape(" "), "%20");
  EXPECT_EQ(JsEscape("<a href=\"x\">"), "%3Ca%20href%3D%22x%22%3E");
  EXPECT_EQ(JsEscape("\n"), "%0A");
  EXPECT_EQ(JsEscape(std::string(1, '\0')), "%00");
}

TEST(EscapeTest, JsUnescapeInverse) {
  EXPECT_EQ(JsUnescape("%3Ca%20b%3E"), "<a b>");
  EXPECT_EQ(JsUnescape("plain"), "plain");
}

TEST(EscapeTest, JsUnescapeHandlesUnicodeForm) {
  EXPECT_EQ(JsUnescape("%u0041"), "A");
  // Above U+07FF: three UTF-8 bytes, like HtmlUnescape("&#x20AC;").
  EXPECT_EQ(JsUnescape("%u20AC"), "\xE2\x82\xAC");
  EXPECT_EQ(JsUnescape("%u0800"), "\xE0\xA0\x80");
  // A UTF-16 surrogate pair, as escape() writes U+1F600: one 4-byte sequence.
  EXPECT_EQ(JsUnescape("%uD83D%uDE00"), "\xF0\x9F\x98\x80");
  // Malformed sequences pass through.
  EXPECT_EQ(JsUnescape("%zz"), "%zz");
  EXPECT_EQ(JsUnescape("%"), "%");
  EXPECT_EQ(JsUnescape("%u00"), "%u00");
}

TEST(EscapeTest, JsRoundTripAllBytes) {
  std::string all;
  for (int i = 0; i < 256; ++i) {
    all.push_back(static_cast<char>(i));
  }
  EXPECT_EQ(JsUnescape(JsEscape(all)), all);
}

TEST(EscapeTest, PercentEncodeDecode) {
  EXPECT_EQ(PercentEncode("a b&c=d"), "a%20b%26c%3Dd");
  EXPECT_EQ(PercentDecode("a%20b%26c%3Dd"), "a b&c=d");
  EXPECT_EQ(PercentDecode("a+b", /*plus_as_space=*/true), "a b");
  EXPECT_EQ(PercentDecode("a+b", /*plus_as_space=*/false), "a+b");
  EXPECT_EQ(PercentDecode("%GG"), "%GG");  // malformed passes through
}

TEST(EscapeTest, HtmlEscapeUnescape) {
  EXPECT_EQ(HtmlEscape("<b>&\"'"), "&lt;b&gt;&amp;&quot;&#39;");
  EXPECT_EQ(HtmlUnescape("&lt;b&gt;&amp;&quot;&apos;"), "<b>&\"'");
  EXPECT_EQ(HtmlUnescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(HtmlUnescape("&bogus;"), "&bogus;");
  EXPECT_EQ(HtmlUnescape("&#xZZ;"), "&#xZZ;");
  EXPECT_EQ(HtmlUnescape("no entities"), "no entities");
}

TEST(EscapeTest, NamedEntities) {
  EXPECT_EQ(HtmlUnescape("a&nbsp;b"), "a\xA0"
                                      "b");
  EXPECT_EQ(HtmlUnescape("&copy;&reg;&deg;"), "\xA9\xAE\xB0");
  EXPECT_EQ(HtmlUnescape("caf&eacute;"), "caf\xE9");
  // Above Latin-1: UTF-8 bytes.
  EXPECT_EQ(HtmlUnescape("&euro;"), "\xE2\x82\xAC");
  EXPECT_EQ(HtmlUnescape("&mdash;"), "\xE2\x80\x94");
  EXPECT_EQ(HtmlUnescape("&hellip;"), "\xE2\x80\xA6");
  // Case-sensitive, like the spec: &COPY; is not defined here.
  EXPECT_EQ(HtmlUnescape("&COPY;"), "&COPY;");
}

TEST(EscapeTest, NumericEntitiesAboveLatin1) {
  EXPECT_EQ(HtmlUnescape("&#8364;"), "\xE2\x82\xAC");   // euro
  EXPECT_EQ(HtmlUnescape("&#x20AC;"), "\xE2\x82\xAC");
  EXPECT_EQ(HtmlUnescape("&#128578;"), "\xF0\x9F\x99\x82");  // emoji, 4-byte
}

TEST(EscapeTest, HtmlRoundTrip) {
  std::string text = "if (a < b && c > d) { print(\"x'\"); }";
  EXPECT_EQ(HtmlUnescape(HtmlEscape(text)), text);
}

// Byte-at-a-time HtmlEscapeAppend and HtmlUnescape as they were before the
// run-copy kernels: the oracles for the differential tests below.
void ReferenceHtmlEscapeAppend(std::string_view input, std::string* out) {
  for (char c : input) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      case '"':
        out->append("&quot;");
        break;
      case '\'':
        out->append("&#39;");
        break;
      default:
        out->push_back(c);
    }
  }
}

// Entity decoding is delegated to HtmlUnescape one reference at a time, so
// the oracle pins the run-copy scan (what is copied verbatim, where each
// reference starts and ends) and not the unchanged entity table.
std::string ReferenceHtmlUnescape(std::string_view input) {
  std::string out;
  for (size_t i = 0; i < input.size();) {
    if (input[i] != '&') {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    size_t semi = input.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(input[i]);
      ++i;
      continue;
    }
    out += HtmlUnescape(input.substr(i, semi - i + 1));
    i = semi + 1;
  }
  return out;
}

std::string AllBytes() {
  std::string all;
  for (int i = 0; i < 256; ++i) {
    all.push_back(static_cast<char>(i));
  }
  return all;
}

// Random strings over `alphabet`, dense in the bytes the codecs act on.
std::string RandomOver(std::string_view alphabet, size_t n, Rng* rng) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(alphabet[rng->NextBelow(alphabet.size())]);
  }
  return out;
}

TEST(EscapeKernelTest, HtmlEscapeAppendMatchesByteLoop) {
  Rng rng(39);
  std::vector<std::string> inputs = {"", AllBytes(), "&<>\"'", "plain"};
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(RandomOver("&<>\"'ab", rng.NextBelow(64), &rng));
    inputs.push_back(rng.NextBytes(rng.NextBelow(300)));
  }
  for (const std::string& input : inputs) {
    for (std::string prefix : {"", "already here & <kept>"}) {
      std::string expected = prefix;
      ReferenceHtmlEscapeAppend(input, &expected);
      std::string actual = prefix;
      HtmlEscapeAppend(input, &actual);
      EXPECT_EQ(actual, expected) << HexEncode(input);
    }
  }
}

TEST(EscapeKernelTest, HtmlUnescapeMatchesByteLoop) {
  Rng rng(59);
  std::vector<std::string> inputs = {
      "", AllBytes(), "&", "x&", "&;", "&#;", "&#x;", "&amp", "a&amp",
      "&verylongentity;", "&amp;&lt;&#65;&#x42;&euro;&bogus;", "&&amp;;",
      "&#x110000;", "&#99999999999;", "tail &copy"};
  for (int i = 0; i < 300; ++i) {
    inputs.push_back(RandomOver("&;#xamp1lt", rng.NextBelow(64), &rng));
    inputs.push_back(rng.NextBytes(rng.NextBelow(300)));
  }
  for (const std::string& input : inputs) {
    EXPECT_EQ(HtmlUnescape(input), ReferenceHtmlUnescape(input))
        << HexEncode(input);
  }
  EXPECT_EQ(HtmlUnescape("&"), "&");
  EXPECT_EQ(HtmlUnescape("&;"), "&;");
  EXPECT_EQ(HtmlUnescape("&#;"), "&#;");
  EXPECT_EQ(HtmlUnescape("&#x;"), "&#x;");
  EXPECT_EQ(HtmlUnescape("a &amp"), "a &amp");
  EXPECT_EQ(HtmlUnescape("&verylongentity;"), "&verylongentity;");
  EXPECT_EQ(HtmlUnescape(HtmlEscape(AllBytes())), AllBytes());
}

TEST(EscapeKernelTest, HtmlUnescapeIntoOverwritesAndMatches) {
  std::string out = "stale content that must go";
  HtmlUnescapeInto("plain", &out);
  EXPECT_EQ(out, "plain");
  HtmlUnescapeInto("a &amp; b &#65;", &out);
  EXPECT_EQ(out, "a & b A");
  HtmlUnescapeInto("", &out);
  EXPECT_EQ(out, "");
}

// Random strings dense in what the decoder branches on: '%', 'u'/'U', hex
// and non-hex bytes and the 0x80-0xFF range, plus whole escapes spliced in
// (surrogate pairs, lone surrogates, code points above U+00FF).
std::string RandomJsEscaped(Rng* rng) {
  static constexpr std::string_view kPieces[] = {
      "%", "u", "U", "0", "9", "a", "F", "D8", "DC", "g", "z", " ", "\x80",
      "\xFF", "\xC3", "%41", "%3c", "%u0041", "%U00e9", "%u20AC",
      "%uD83D%uDE00", "%uD83D", "%uDE00", "%uD83Dx", "%uFFFF", "%u00FF",
      "%u0100", "%u07FF", "%u0800", "%uZZZZ"};
  std::string out;
  size_t pieces = rng->NextBelow(24);
  for (size_t i = 0; i < pieces; ++i) {
    out += kPieces[rng->NextBelow(std::size(kPieces))];
  }
  // Half the inputs end in a truncated escape.
  static constexpr std::string_view kTails[] = {"%", "%4", "%u", "%uD", "%uD8",
                                                "%uD83", "%uD83D%u", "%uD83D%uDE0"};
  if (rng->NextBelow(2) == 0) {
    out += kTails[rng->NextBelow(std::size(kTails))];
  }
  return out;
}

TEST(EscapeKernelTest, JsUnescapeMatchesByteLoop) {
  Rng rng(71);
  std::vector<std::string> inputs = {
      "", "%", "%%", "%4", "%41", "%u", "%u004", "%u0041", "%uD83D%uDE00",
      "%uD83D", "%uDE00", "%uD83D%u0041", "%u20AC%41%zz", "%41%u20AC%41",
      AllBytes(), JsEscape(AllBytes())};
  for (int i = 0; i < 2000; ++i) {
    inputs.push_back(RandomJsEscaped(&rng));
  }
  for (int i = 0; i < 100; ++i) {
    inputs.push_back(RandomOver("%uU0123456789abcdefABCDEFgG\x80\xFF",
                                rng.NextBelow(80), &rng));
  }
  for (const std::string& input : inputs) {
    EXPECT_EQ(JsUnescape(input), ReferenceJsUnescape(input)) << HexEncode(input);
    // The mapped decode: the same bytes unless a '%' is followed by u/U,
    // and each decoded byte maps back to the start of the unit it came
    // from, one JsUnescapeUnit long.
    JsUnescapeMap map;
    std::string decoded;
    const bool mapped = map.Decode(input, &decoded);
    EXPECT_EQ(mapped, input.find("%u") == std::string::npos &&
                          input.find("%U") == std::string::npos)
        << HexEncode(input);
    if (!mapped) {
      continue;
    }
    ASSERT_EQ(decoded, ReferenceJsUnescape(input)) << HexEncode(input);
    for (size_t i = 0; i < decoded.size(); ++i) {
      std::string unit;
      const size_t at = map.EscapedOffset(i);
      ASSERT_EQ(JsUnescapeUnit(input, at, &unit), map.EscapedOffset(i + 1))
          << HexEncode(input) << " at " << i;
      ASSERT_EQ(unit, decoded.substr(i, 1)) << HexEncode(input) << " at " << i;
    }
    EXPECT_EQ(map.EscapedOffset(decoded.size()), input.size());
  }
}

TEST(EscapeKernelTest, JsUnescapeInvertsJsEscape) {
  Rng rng(73);
  for (int i = 0; i < 300; ++i) {
    std::string blob = rng.NextBytes(rng.NextBelow(600));
    EXPECT_EQ(JsUnescape(JsEscape(blob)), blob) << HexEncode(blob);
  }
}

// Property sweep: JsEscape/JsUnescape round-trips random binary blobs.
class EscapeRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EscapeRoundTripTest, JsEscapeRoundTripsRandomBytes) {
  Rng rng(GetParam());
  std::string blob = rng.NextBytes(rng.NextBelow(2048) + 1);
  EXPECT_EQ(JsUnescape(JsEscape(blob)), blob);
}

TEST_P(EscapeRoundTripTest, PercentRoundTripsRandomBytes) {
  Rng rng(GetParam() ^ 0xDEADBEEF);
  std::string blob = rng.NextBytes(rng.NextBelow(512) + 1);
  EXPECT_EQ(PercentDecode(PercentEncode(blob)), blob);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EscapeRoundTripTest,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------- Base64 --

TEST(Base64Test, Rfc4648Vectors) {
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foob"), "Zm9vYg==");
  EXPECT_EQ(Base64Encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, DecodeVectors) {
  EXPECT_EQ(Base64Decode("Zm9vYmFy").value(), "foobar");
  EXPECT_EQ(Base64Decode("Zg==").value(), "f");
  EXPECT_EQ(Base64Decode("").value(), "");
}

TEST(Base64Test, DecodeRejectsBadInput) {
  EXPECT_FALSE(Base64Decode("abc").ok());       // bad length
  EXPECT_FALSE(Base64Decode("ab!d").ok());      // bad char
  EXPECT_FALSE(Base64Decode("=abc").ok());      // padding in front
  EXPECT_FALSE(Base64Decode("a=bc").ok());      // data after padding
}

TEST(Base64Test, HexRoundTrip) {
  EXPECT_EQ(HexEncode("\x01\xab\xff"), "01abff");
  EXPECT_EQ(HexDecode("01abff").value(), "\x01\xab\xff");
  EXPECT_EQ(HexDecode("01ABFF").value(), "\x01\xab\xff");
  EXPECT_FALSE(HexDecode("abc").ok());
  EXPECT_FALSE(HexDecode("zz").ok());
}

class Base64RoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Base64RoundTripTest, RandomBlobs) {
  Rng rng(GetParam());
  std::string blob = rng.NextBytes(rng.NextBelow(1024));
  auto decoded = Base64Decode(Base64Encode(blob));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, blob);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Base64RoundTripTest,
                         ::testing::Range<uint64_t>(1, 13));

// ------------------------------------------------------------------- Rng --

TEST(RngTest, Deterministic) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextBytesLength) {
  Rng rng(3);
  EXPECT_EQ(rng.NextBytes(0).size(), 0u);
  EXPECT_EQ(rng.NextBytes(7).size(), 7u);
  EXPECT_EQ(rng.NextBytes(64).size(), 64u);
}

TEST(RngTest, NextTokenAlphanumeric) {
  Rng rng(5);
  std::string token = rng.NextToken(32);
  EXPECT_EQ(token.size(), 32u);
  for (char c : token) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) << c;
  }
}

// -------------------------------------------------------------- SimTime --

TEST(SimTimeTest, DurationConversions) {
  EXPECT_EQ(Duration::Millis(3).micros(), 3000);
  EXPECT_EQ(Duration::Seconds(1.5).millis(), 1500);
  EXPECT_DOUBLE_EQ(Duration::Micros(250).seconds(), 0.00025);
}

TEST(SimTimeTest, Arithmetic) {
  Duration a = Duration::Millis(10);
  Duration b = Duration::Millis(4);
  EXPECT_EQ((a + b).millis(), 14);
  EXPECT_EQ((a - b).millis(), 6);
  EXPECT_EQ((a * 3).millis(), 30);
  a += b;
  EXPECT_EQ(a.millis(), 14);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_EQ(Duration::Millis(1000), Duration::Seconds(1.0));
  SimTime t0;
  SimTime t1 = t0 + Duration::Millis(5);
  EXPECT_GT(t1, t0);
  EXPECT_EQ((t1 - t0).millis(), 5);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(Duration::Seconds(2.0).ToString(), "2s");
  EXPECT_EQ(Duration::Millis(12).ToString(), "12ms");
  EXPECT_EQ(Duration::Micros(1500).ToString(), "1.500ms");
}

}  // namespace
}  // namespace rcb
