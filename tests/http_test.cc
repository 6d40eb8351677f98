// Unit tests for the HTTP substrate: URLs (incl. RFC 3986 resolution),
// headers, messages, the incremental parser, forms, and cookies.
#include <gtest/gtest.h>

#include "src/http/cookie.h"
#include "src/http/form.h"
#include "src/http/http_parser.h"
#include "src/http/http_server.h"
#include "src/http/message.h"
#include "src/http/url.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// ------------------------------------------------------------------- URL --

TEST(UrlTest, ParseBasic) {
  auto url = Url::Parse("http://www.example.com/a/b?x=1#frag");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme(), "http");
  EXPECT_EQ(url->host(), "www.example.com");
  EXPECT_EQ(url->port(), 80);
  EXPECT_EQ(url->path(), "/a/b");
  EXPECT_EQ(url->query(), "x=1");
  EXPECT_EQ(url->fragment(), "frag");
}

TEST(UrlTest, ParsePortAndHttps) {
  auto url = Url::Parse("https://host:8443/p");
  ASSERT_TRUE(url.ok());
  EXPECT_TRUE(url->is_https());
  EXPECT_EQ(url->port(), 8443);
  EXPECT_FALSE(url->IsDefaultPort());
  EXPECT_EQ(url->Authority(), "host:8443");

  auto default_port = Url::Parse("https://host/");
  ASSERT_TRUE(default_port.ok());
  EXPECT_EQ(default_port->port(), 443);
  EXPECT_TRUE(default_port->IsDefaultPort());
  EXPECT_EQ(default_port->Authority(), "host");
}

TEST(UrlTest, ParseHostOnly) {
  auto url = Url::Parse("http://example.com");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path(), "/");
  EXPECT_EQ(url->ToString(), "http://example.com/");
}

TEST(UrlTest, HostCaseNormalized) {
  auto url = Url::Parse("HTTP://ExAmPlE.CoM/Path");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->host(), "example.com");
  EXPECT_EQ(url->path(), "/Path");  // path case preserved
}

TEST(UrlTest, ParseRejectsBadInput) {
  EXPECT_FALSE(Url::Parse("").ok());
  EXPECT_FALSE(Url::Parse("not a url").ok());
  EXPECT_FALSE(Url::Parse("ftp://host/").ok());
  EXPECT_FALSE(Url::Parse("http://").ok());
  EXPECT_FALSE(Url::Parse("http://host:0/").ok());
  EXPECT_FALSE(Url::Parse("http://host:99999/").ok());
  EXPECT_FALSE(Url::Parse("http://host:abc/").ok());
}

TEST(UrlTest, MakeNormalizesPath) {
  Url url = Url::Make("http", "h", 3000, "obj/1");
  EXPECT_EQ(url.path(), "/obj/1");
  Url empty = Url::Make("http", "h", 80, "");
  EXPECT_EQ(empty.path(), "/");
}

TEST(UrlTest, SameOrigin) {
  Url a = Url::Make("http", "h", 80, "/x");
  Url b = Url::Make("http", "h", 80, "/y");
  Url c = Url::Make("http", "h", 81, "/x");
  EXPECT_TRUE(a.SameOrigin(b));
  EXPECT_FALSE(a.SameOrigin(c));
}

TEST(UrlTest, RemoveDotSegments) {
  EXPECT_EQ(RemoveDotSegments("/a/b/c/./../../g"), "/a/g");
  EXPECT_EQ(RemoveDotSegments("/./"), "/");
  EXPECT_EQ(RemoveDotSegments("/../x"), "/x");
  EXPECT_EQ(RemoveDotSegments("/a/.."), "/");
  EXPECT_EQ(RemoveDotSegments("/a/b/"), "/a/b/");
  EXPECT_EQ(RemoveDotSegments("/a//b"), "/a/b");
  EXPECT_EQ(RemoveDotSegments(""), "/");
}

// RFC 3986 §5.4 reference resolution examples (base from the RFC).
class UrlResolveTest
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {};

TEST_P(UrlResolveTest, Rfc3986Examples) {
  auto base = Url::Parse("http://a/b/c/d;p?q");
  ASSERT_TRUE(base.ok());
  const auto& [reference, expected] = GetParam();
  auto resolved = base->Resolve(reference);
  ASSERT_TRUE(resolved.ok()) << reference;
  EXPECT_EQ(resolved->ToStringWithFragment(), expected) << "ref: " << reference;
}

INSTANTIATE_TEST_SUITE_P(
    Rfc3986, UrlResolveTest,
    ::testing::Values(
        std::pair<std::string, std::string>{"g", "http://a/b/c/g"},
        std::pair<std::string, std::string>{"./g", "http://a/b/c/g"},
        std::pair<std::string, std::string>{"g/", "http://a/b/c/g/"},
        std::pair<std::string, std::string>{"/g", "http://a/g"},
        std::pair<std::string, std::string>{"//g", "http://g/"},
        std::pair<std::string, std::string>{"?y", "http://a/b/c/d;p?y"},
        std::pair<std::string, std::string>{"g?y", "http://a/b/c/g?y"},
        std::pair<std::string, std::string>{"#s", "http://a/b/c/d;p?q#s"},
        std::pair<std::string, std::string>{"g#s", "http://a/b/c/g#s"},
        std::pair<std::string, std::string>{";x", "http://a/b/c/;x"},
        std::pair<std::string, std::string>{".", "http://a/b/c/"},
        std::pair<std::string, std::string>{"..", "http://a/b/"},
        std::pair<std::string, std::string>{"../g", "http://a/b/g"},
        std::pair<std::string, std::string>{"../..", "http://a/"},
        std::pair<std::string, std::string>{"../../g", "http://a/g"},
        std::pair<std::string, std::string>{"../../../g", "http://a/g"},
        std::pair<std::string, std::string>{"g/../h", "http://a/b/c/h"},
        std::pair<std::string, std::string>{"g;x=1/./y", "http://a/b/c/g;x=1/y"}));

TEST(UrlTest, ResolveAbsoluteReference) {
  auto base = Url::Parse("http://a/b");
  auto resolved = base->Resolve("https://other:444/x?q=1");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->ToString(), "https://other:444/x?q=1");
}

TEST(UrlTest, ResolveEmptyReferenceIsBase) {
  auto base = Url::Parse("http://a/b/c?q");
  auto resolved = base->Resolve("");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->ToString(), "http://a/b/c?q");
}

TEST(UrlTest, IsAbsoluteUrl) {
  EXPECT_TRUE(IsAbsoluteUrl("http://x/"));
  EXPECT_TRUE(IsAbsoluteUrl("https://x/"));
  EXPECT_FALSE(IsAbsoluteUrl("/path"));
  EXPECT_FALSE(IsAbsoluteUrl("path"));
  EXPECT_FALSE(IsAbsoluteUrl("a:b"));  // path segment with colon, no "//"
  EXPECT_FALSE(IsAbsoluteUrl("://x"));
}

// --------------------------------------------------------------- Headers --

TEST(HeadersTest, SetGetCaseInsensitive) {
  Headers headers;
  headers.Set("Content-Type", "text/html");
  EXPECT_EQ(headers.Get("content-type").value(), "text/html");
  EXPECT_TRUE(headers.Has("CONTENT-TYPE"));
  EXPECT_FALSE(headers.Has("content-length"));
}

TEST(HeadersTest, SetReplacesAddAppends) {
  Headers headers;
  headers.Add("Set-Cookie", "a=1");
  headers.Add("Set-Cookie", "b=2");
  EXPECT_EQ(headers.GetAll("set-cookie").size(), 2u);
  headers.Set("Set-Cookie", "c=3");
  EXPECT_EQ(headers.GetAll("set-cookie"), std::vector<std::string>{"c=3"});
}

TEST(HeadersTest, RemoveAndSerialize) {
  Headers headers;
  headers.Set("A", "1");
  headers.Set("B", "2");
  headers.Remove("a");
  EXPECT_EQ(headers.Serialize(), "B: 2\r\n");
}

// -------------------------------------------------------------- Messages --

TEST(HttpMessageTest, RequestSerializeBasics) {
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/x?q=1";
  request.headers.Set("Host", "h");
  std::string wire = request.Serialize();
  EXPECT_TRUE(wire.starts_with("GET /x?q=1 HTTP/1.1\r\nHost: h\r\n"));
  EXPECT_TRUE(wire.ends_with("\r\n\r\n"));
}

TEST(HttpMessageTest, PostAlwaysHasContentLength) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.target = "/";
  request.body = "abc";
  std::string wire = request.Serialize();
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
}

TEST(HttpMessageTest, QueryHelpers) {
  HttpRequest request;
  request.target = "/p?a=1&b=two%20words";
  EXPECT_EQ(request.Path(), "/p");
  EXPECT_EQ(request.QueryString(), "a=1&b=two%20words");
  auto params = request.QueryParams();
  EXPECT_EQ(params["a"], "1");
  EXPECT_EQ(params["b"], "two words");
}

TEST(HttpMessageTest, ResponseHelpers) {
  HttpResponse ok = HttpResponse::Ok("text/html", "body");
  EXPECT_EQ(ok.status_code, 200);
  EXPECT_EQ(ok.headers.Get("Content-Type").value(), "text/html");
  EXPECT_EQ(HttpResponse::NotFound().status_code, 404);
  EXPECT_EQ(HttpResponse::BadRequest().status_code, 400);
  EXPECT_EQ(HttpResponse::Forbidden().status_code, 403);
  EXPECT_EQ(HttpResponse::InternalError().status_code, 500);
}

// ---------------------------------------------------------------- Parser --

TEST(HttpParserTest, ParseSimpleRequest) {
  auto request = ParseHttpRequest("GET / HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, HttpMethod::kGet);
  EXPECT_EQ(request->target, "/");
  EXPECT_EQ(request->headers.Get("Host").value(), "h");
}

TEST(HttpParserTest, ParsePostWithBody) {
  auto request = ParseHttpRequest(
      "POST /poll HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->body, "hello");
}

TEST(HttpParserTest, RequestRoundTrip) {
  HttpRequest request;
  request.method = HttpMethod::kPost;
  request.target = "/a?b=c";
  request.headers.Set("Host", "x");
  request.body = "payload bytes";
  auto parsed = ParseHttpRequest(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, HttpMethod::kPost);
  EXPECT_EQ(parsed->target, "/a?b=c");
  EXPECT_EQ(parsed->body, "payload bytes");
}

TEST(HttpParserTest, ResponseRoundTrip) {
  HttpResponse response = HttpResponse::Ok("application/xml", "<x/>");
  auto parsed = ParseHttpResponse(response.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status_code, 200);
  EXPECT_EQ(parsed->body, "<x/>");
  EXPECT_EQ(parsed->headers.Get("Content-Type").value(), "application/xml");
}

TEST(HttpParserTest, IncrementalByteByByte) {
  std::string wire = "POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  HttpRequestParser parser;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    auto result = parser.Feed(wire.substr(i, 1));
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->has_value()) << "completed early at byte " << i;
  }
  auto result = parser.Feed(wire.substr(wire.size() - 1));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->has_value());
  EXPECT_EQ((*result)->body, "abcd");
}

TEST(HttpParserTest, PipelinedRequests) {
  std::string two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  HttpRequestParser parser;
  auto first = parser.Feed(two);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->target, "/a");
  auto second = parser.Feed("");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->target, "/b");
}

// A body that arrives after its head, in its own chunks, is body even where
// it holds the blank line that ends a head.
TEST(HttpParserTest, BodyChunksAfterTheHeadAreNeverAHead) {
  const std::string body = "\r\n\r\nGET /x HTTP/1.1\r\n\r\n";
  const std::string head = StrFormat(
      "HTTP/1.1 200 OK\r\nContent-Length: %zu\r\n\r\n", body.size());
  HttpResponseParser parser;
  auto first = parser.Feed(head);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->has_value());
  auto partial = parser.Feed(body.substr(0, 4));
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->has_value());
  auto rest = parser.Feed(body.substr(4));
  ASSERT_TRUE(rest.ok());
  ASSERT_TRUE(rest->has_value());
  EXPECT_EQ((*rest)->body, body);
}

// One chunk holding a whole response and the start of the next: the first
// completes, and the leftover stays buffered until the second's bytes come.
TEST(HttpParserTest, PipelinedResponsesAcrossChunks) {
  const std::string one = HttpResponse::Ok("text/plain", "first").Serialize();
  const std::string two = HttpResponse::Ok("text/plain", "second").Serialize();
  const std::string wire = one + two;
  HttpResponseParser parser;
  auto first = parser.Feed(wire.substr(0, one.size() + 10));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->body, "first");
  auto none = parser.Feed("");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
  auto second = parser.Feed(wire.substr(one.size() + 10));
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->body, "second");
}

TEST(HttpParserTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseHttpRequest("BOGUS / HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET / HTTP/2.0\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET nopath HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n").ok());
}

TEST(HttpParserTest, RejectsOversizedContentLength) {
  EXPECT_FALSE(
      ParseHttpRequest(
          "POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n")
          .ok());
}

TEST(HttpParserTest, ResponseStatusLineParsing) {
  auto response = ParseHttpResponse("HTTP/1.1 404 Not Found\r\n\r\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 404);
  EXPECT_EQ(response->reason, "Not Found");
  EXPECT_FALSE(ParseHttpResponse("HTTP/1.1 99 Bad\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpResponse("NOTHTTP 200 OK\r\n\r\n").ok());
}

TEST(HttpParserTest, AbsoluteFormTargetAccepted) {
  auto request =
      ParseHttpRequest("GET http://h/p HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->target, "http://h/p");
}

// ------------------------------------------------------------------ Form --

TEST(FormTest, EncodeDecodeRoundTrip) {
  std::vector<std::pair<std::string, std::string>> fields = {
      {"a", "1"}, {"name", "two words & more"}, {"empty", ""}, {"a", "dup"}};
  std::string encoded = EncodeFormUrlEncoded(fields);
  auto decoded = ParseFormUrlEncodedOrdered(encoded);
  EXPECT_EQ(decoded, fields);
}

TEST(FormTest, MapDecodeLastWins) {
  auto decoded = ParseFormUrlEncoded("a=1&a=2&b=x");
  EXPECT_EQ(decoded["a"], "2");
  EXPECT_EQ(decoded["b"], "x");
}

TEST(FormTest, PlusDecodesToSpace) {
  auto decoded = ParseFormUrlEncoded("q=hello+world");
  EXPECT_EQ(decoded["q"], "hello world");
}

TEST(FormTest, KeyWithoutValue) {
  auto decoded = ParseFormUrlEncoded("flag&x=1");
  EXPECT_EQ(decoded.count("flag"), 1u);
  EXPECT_EQ(decoded["flag"], "");
}

TEST(FormTest, EmptyBody) {
  EXPECT_TRUE(ParseFormUrlEncoded("").empty());
  EXPECT_EQ(EncodeFormUrlEncoded(std::map<std::string, std::string>{}), "");
}

// ---------------------------------------------------------------- Cookie --

TEST(CookieTest, SetAndSend) {
  CookieJar jar;
  Url origin = Url::Make("http", "shop.test", 80, "/");
  jar.ApplySetCookie(origin, "session=abc123; Path=/; HttpOnly");
  EXPECT_EQ(jar.Get(origin, "session"), "abc123");
  EXPECT_EQ(jar.CookieHeaderFor(origin), "session=abc123");
}

TEST(CookieTest, PerHostIsolation) {
  CookieJar jar;
  Url a = Url::Make("http", "a.test", 80, "/");
  Url b = Url::Make("http", "b.test", 80, "/");
  jar.ApplySetCookie(a, "x=1");
  EXPECT_EQ(jar.CookieHeaderFor(b), "");
  EXPECT_EQ(jar.CountFor(a), 1u);
  EXPECT_EQ(jar.CountFor(b), 0u);
}

TEST(CookieTest, MultipleCookiesJoined) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1");
  jar.ApplySetCookie(origin, "b=2");
  EXPECT_EQ(jar.CookieHeaderFor(origin), "a=1; b=2");
}

TEST(CookieTest, OverwriteSameName) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1");
  jar.ApplySetCookie(origin, "a=2");
  EXPECT_EQ(jar.Get(origin, "a"), "2");
  EXPECT_EQ(jar.CountFor(origin), 1u);
}

TEST(CookieTest, MalformedDropped) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "=broken");
  jar.ApplySetCookie(origin, "noequals");
  EXPECT_EQ(jar.CountFor(origin), 0u);
}

TEST(CookieTest, Clear) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1");
  jar.Clear();
  EXPECT_EQ(jar.CountFor(origin), 0u);
}

TEST(CookieTest, PathScoping) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "root=1; Path=/");
  jar.ApplySetCookie(origin, "shop=2; Path=/shop");
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/other")), "root=1");
  // More specific path listed first (RFC 6265 §5.4).
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/shop/cart")),
            "shop=2; root=1");
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/shop")),
            "shop=2; root=1");
  // "/shop" must not match "/shopping".
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/shopping")),
            "root=1");
}

TEST(CookieTest, SameNameDifferentPathsCoexist) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "x=root; Path=/");
  jar.ApplySetCookie(origin, "x=sub; Path=/sub");
  EXPECT_EQ(jar.CountFor(origin), 2u);
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/sub/page")),
            "x=sub; x=root");
}

TEST(CookieTest, MaxAgeExpiry) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  SimTime t0 = SimTime::FromMicros(0);
  jar.ApplySetCookie(origin, "session=s; Max-Age=60", t0);
  SimTime before = t0 + Duration::Seconds(59.0);
  SimTime after = t0 + Duration::Seconds(61.0);
  EXPECT_EQ(jar.CookieHeaderFor(origin, before), "session=s");
  EXPECT_EQ(jar.CookieHeaderFor(origin, after), "");
  EXPECT_EQ(jar.CountFor(origin, after), 0u);
}

TEST(CookieTest, MaxAgeZeroDeletes) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1");
  EXPECT_EQ(jar.CountFor(origin), 1u);
  jar.ApplySetCookie(origin, "a=gone; Max-Age=0");
  EXPECT_EQ(jar.CountFor(origin), 0u);
}

TEST(CookieTest, MalformedMaxAgeIsIgnored) {
  // RFC 6265 §5.2.2: a Max-Age that is not an integer is ignored, so the
  // cookie stays a session cookie instead of being deleted or mis-timed.
  for (const char* max_age :
       {"abc", "60x", "", "1.5", "+60", "99999999999999999999"}) {
    CookieJar jar;
    Url origin = Url::Make("http", "h", 80, "/");
    SimTime t0 = SimTime::FromMicros(0);
    jar.ApplySetCookie(origin, std::string("a=1; Max-Age=") + max_age, t0);
    EXPECT_EQ(jar.CookieHeaderFor(origin, t0 + Duration::Seconds(3600.0)),
              "a=1")
        << max_age;
  }
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1; Max-Age=-1");
  EXPECT_EQ(jar.CountFor(origin), 0u);  // a valid non-positive age deletes
}

TEST(CookieTest, SecureCookieOnlyOverHttps) {
  CookieJar jar;
  Url https_origin = Url::Make("https", "h", 443, "/");
  jar.ApplySetCookie(https_origin, "token=t; Secure");
  EXPECT_EQ(jar.CookieHeaderFor(Url::Make("http", "h", 80, "/")), "");
  EXPECT_EQ(jar.CookieHeaderFor(https_origin), "token=t");
}

TEST(CookieTest, UnknownAttributesIgnored) {
  CookieJar jar;
  Url origin = Url::Make("http", "h", 80, "/");
  jar.ApplySetCookie(origin, "a=1; HttpOnly; SameSite=Lax; Domain=h");
  EXPECT_EQ(jar.CookieHeaderFor(origin), "a=1");
}

// ---------------------------------------------------------------------------
// HttpServer: the one accept/parse/respond loop.

class HttpServerTest : public ::testing::Test {
 protected:
  HttpServerTest() : network_(&loop_) {
    network_.AddHost("srv", {});
    network_.AddHost("cli", {});
    network_.SetLatency("cli", "srv", Duration::Millis(5));
  }

  static std::string Get(const std::string& target) {
    HttpRequest request;
    request.method = HttpMethod::kGet;
    request.target = target;
    request.headers.Set("Host", "srv");
    return request.Serialize();
  }

  // A raw client connection collecting every response it receives.
  struct Client {
    NetEndpoint* endpoint = nullptr;
    HttpResponseParser parser;
    std::vector<HttpResponse> responses;
  };
  void Connect(Client* client) {
    auto endpoint = network_.Connect("cli", "srv", 80);
    ASSERT_TRUE(endpoint.ok()) << endpoint.status();
    client->endpoint = *endpoint;
    client->endpoint->SetDataHandler([client](std::string_view data) {
      for (auto response = client->parser.Feed(data);
           response.ok() && response->has_value();
           response = client->parser.Feed("")) {
        client->responses.push_back(std::move(**response));
      }
    });
  }

  EventLoop loop_;
  Network network_;
};

TEST_F(HttpServerTest, HeldConnectionIsAnsweredLaterAndReadsNothingMeanwhile) {
  std::vector<std::string> seen;
  std::optional<HttpServer::ConnId> held;
  HttpServer server(
      &loop_, &network_, "test", {},
      {.on_request = [&](HttpServer::ConnId conn, const HttpRequest& request)
           -> std::optional<HttpResponse> {
        seen.push_back(request.target);
        if (request.target == "/hold") {
          held = conn;
          return std::nullopt;
        }
        return HttpResponse::Ok("text/plain", request.target);
      }});
  ASSERT_TRUE(server.Listen("srv", 80).ok());
  Client client;
  Connect(&client);
  // Two pipelined requests: the second waits behind the hold.
  client.endpoint->Send(Get("/hold") + Get("/next"));
  loop_.Run();
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(seen, std::vector<std::string>{"/hold"});
  EXPECT_TRUE(client.responses.empty());
  server.Answer(*held, HttpResponse::Ok("text/plain", "released"));
  loop_.Run();
  ASSERT_EQ(client.responses.size(), 1u);
  EXPECT_EQ(client.responses[0].body, "released");
  // The buffered request is read when more bytes arrive.
  client.endpoint->Send(Get("/last"));
  loop_.Run();
  EXPECT_EQ(seen, (std::vector<std::string>{"/hold", "/next", "/last"}));
  ASSERT_EQ(client.responses.size(), 3u);
  EXPECT_EQ(client.responses[2].body, "/last");
}

TEST_F(HttpServerTest, CloseIsReportedAndLaterAnswersAreDropped) {
  std::vector<HttpServer::ConnId> closed;
  std::optional<HttpServer::ConnId> held;
  HttpServer server(
      &loop_, &network_, "test", {},
      {.on_request = [&](HttpServer::ConnId conn, const HttpRequest&)
           -> std::optional<HttpResponse> {
         held = conn;
         return std::nullopt;
       },
       .on_close = [&](HttpServer::ConnId conn) { closed.push_back(conn); }});
  ASSERT_TRUE(server.Listen("srv", 80).ok());
  Client client;
  Connect(&client);
  client.endpoint->Send(Get("/hold"));
  loop_.Run();
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(server.connection_count(), 1u);
  client.endpoint->Close();
  loop_.Run();
  EXPECT_EQ(closed, std::vector<HttpServer::ConnId>{*held});
  EXPECT_EQ(server.connection_count(), 0u);
  server.Answer(*held, HttpResponse::Ok("text/plain", "late"));  // no-op
  loop_.Run();
  EXPECT_TRUE(client.responses.empty());
}

TEST_F(HttpServerTest, LimitsAnswerAndClose) {
  int oversized = 0;
  int timeouts = 0;
  HttpServerLimits limits;
  limits.request.max_body_bytes = 16;
  limits.max_connections = 2;
  limits.read_timeout = Duration::Seconds(1.0);
  HttpServer server(
      &loop_, &network_, "test", limits,
      {.on_request =
           [](HttpServer::ConnId, const HttpRequest&) {
             return std::optional<HttpResponse>(
                 HttpResponse::Ok("text/plain", "ok"));
           },
       .over_capacity =
           [] {
             return HttpResponse::ServiceUnavailable(Duration::Seconds(1.0),
                                                     "full");
           },
       .on_oversized = [&] { ++oversized; },
       .on_read_timeout = [&] { ++timeouts; }});
  ASSERT_TRUE(server.Listen("srv", 80).ok());
  Client big;
  Connect(&big);
  HttpRequest post;
  post.method = HttpMethod::kPost;
  post.target = "/";
  post.body = std::string(64, 'x');
  big.endpoint->Send(post.Serialize());
  Client slow;
  Connect(&slow);
  slow.endpoint->Send("GET / HTTP/1.1\r\nHo");
  loop_.RunFor(Duration::Millis(100));
  ASSERT_EQ(big.responses.size(), 1u);
  EXPECT_EQ(big.responses[0].status_code, 413);
  EXPECT_EQ(oversized, 1);
  EXPECT_EQ(server.connection_count(), 1u);  // the slow one
  Client second;
  Connect(&second);
  Client third;  // past max_connections
  Connect(&third);
  loop_.RunFor(Duration::Millis(100));
  ASSERT_EQ(third.responses.size(), 1u);
  EXPECT_EQ(third.responses[0].status_code, 503);
  EXPECT_TRUE(third.endpoint->closed());
  loop_.RunFor(Duration::Seconds(1.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_TRUE(slow.endpoint->closed());
  EXPECT_EQ(server.connection_count(), 1u);  // `second`, idle: no deadline
}

}  // namespace
}  // namespace rcb
