// Fuzz/property suites: every parser in the stack must reject or tolerate
// arbitrary and mutated input without crashing, and the structured codecs
// must be closed under round trips.
#include <gtest/gtest.h>

#include "src/core/protocol.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/host/rcb_host.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/http/http_parser.h"
#include "src/http/url.h"
#include "src/util/rand.h"
#include "src/xml/xml_parser.h"

namespace rcb {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  return rng->NextBytes(rng->NextBelow(max_len) + 1);
}

// Mutates a valid input: flip bytes, truncate, duplicate a slice.
std::string Mutate(Rng* rng, std::string input) {
  if (input.empty()) {
    return input;
  }
  switch (rng->NextBelow(4)) {
    case 0: {  // flip random bytes
      for (int i = 0; i < 4; ++i) {
        input[rng->NextBelow(input.size())] =
            static_cast<char>(rng->NextBelow(256));
      }
      break;
    }
    case 1:  // truncate
      input.resize(rng->NextBelow(input.size()));
      break;
    case 2: {  // duplicate a slice into the middle
      size_t from = rng->NextBelow(input.size());
      size_t len = rng->NextBelow(input.size() - from) + 1;
      input.insert(rng->NextBelow(input.size()), input.substr(from, len));
      break;
    }
    case 3:  // append garbage
      input += RandomBytes(rng, 32);
      break;
  }
  return input;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, HttpRequestParserToleratesGarbage) {
  Rng rng(GetParam());
  HttpRequestParser parser;
  for (int i = 0; i < 20; ++i) {
    auto result = parser.Feed(RandomBytes(&rng, 256));
    if (!result.ok()) {
      return;  // rejected cleanly — rebuild would be required, as in prod
    }
  }
}

TEST_P(FuzzTest, HttpRequestParserToleratesMutatedRequests) {
  Rng rng(GetParam() ^ 0xA5A5);
  HttpRequest valid;
  valid.method = HttpMethod::kPost;
  valid.target = "/?hmac=abc";
  valid.headers.Set("Host", "h");
  valid.body = "pid=p1&ts=5&actions=";
  for (int i = 0; i < 20; ++i) {
    HttpRequestParser parser;
    auto result = parser.Feed(Mutate(&rng, valid.Serialize()));
    (void)result;  // any Status/optional outcome is fine; crashing is not
  }
}

TEST_P(FuzzTest, HttpRequestParserToleratesTruncatedThenFreshRequest) {
  // A mid-transfer connection reset (FaultInjector kReset) truncates a
  // request at an arbitrary byte. A parser that saw the fragment must either
  // reject the follow-up bytes cleanly or keep producing well-formed
  // requests — never crash, never hang.
  Rng rng(GetParam() ^ 0xDDDD);
  HttpRequest valid;
  valid.method = HttpMethod::kPost;
  valid.target = "/?hmac=abc";
  valid.headers.Set("Host", "h");
  valid.body = "pid=p1&ts=5&seq=9&timeouts=2&resync=1&actions=";
  std::string wire = valid.Serialize();
  for (int i = 0; i < 20; ++i) {
    HttpRequestParser parser;
    size_t cut = rng.NextBelow(wire.size() + 1);
    auto first = parser.Feed(wire.substr(0, cut));
    if (!first.ok()) {
      continue;  // fragment already rejected; prod would rebuild the parser
    }
    auto second = parser.Feed(wire);
    (void)second;  // any Status outcome is fine; crashing is not
  }
}

TEST_P(FuzzTest, HttpRequestParserToleratesInterleavedFragments) {
  // Two requests chopped into random fragments and interleaved on one
  // connection — the byte soup a reset mid-pipeline can leave behind.
  Rng rng(GetParam() ^ 0xEEEE);
  HttpRequest a;
  a.method = HttpMethod::kPost;
  a.target = "/";
  a.headers.Set("Host", "h");
  a.body = "pid=p1&ts=5&actions=";
  HttpRequest b;
  b.method = HttpMethod::kGet;
  b.target = "/?resume=p1&hmac=feed";
  b.headers.Set("Host", "h");
  std::string wires[2] = {a.Serialize(), b.Serialize()};
  for (int i = 0; i < 20; ++i) {
    size_t offsets[2] = {0, 0};
    HttpRequestParser parser;
    bool dead = false;
    while (!dead && (offsets[0] < wires[0].size() ||
                     offsets[1] < wires[1].size())) {
      size_t which = rng.NextBelow(2);
      if (offsets[which] >= wires[which].size()) {
        which = 1 - which;
      }
      size_t remaining = wires[which].size() - offsets[which];
      size_t len = rng.NextBelow(remaining) + 1;
      auto result = parser.Feed(wires[which].substr(offsets[which], len));
      offsets[which] += len;
      dead = !result.ok();  // clean rejection ends the connection, as in prod
    }
  }
}

TEST_P(FuzzTest, HttpRequestParserBoundsHeadBuffering) {
  // Slow-loris style drip-feed: an endless header section arrives one small
  // fragment at a time. With a head cap the parser must fail with
  // kResourceExhausted instead of buffering without bound.
  Rng rng(GetParam() ^ 0xB10C);
  constexpr size_t kHeadCap = 512;
  HttpRequestParser parser;
  parser.set_limits({kHeadCap, 0});
  std::string pending = "POST / HTTP/1.1\r\n";
  size_t fed = 0;
  while (fed < 64 * 1024) {
    while (pending.size() < 8) {
      pending += "X-Pad: " + std::string(rng.NextBelow(24) + 1, 'a') + "\r\n";
    }
    size_t take = rng.NextBelow(pending.size()) + 1;
    auto result = parser.Feed(pending.substr(0, take));
    pending.erase(0, take);
    fed += take;
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      // The buffer never grew past the cap plus one in-flight fragment.
      EXPECT_LE(parser.buffered_bytes(), kHeadCap + take);
      return;
    }
    ASSERT_FALSE(result->has_value()) << "drip-feed never completes a head";
  }
  FAIL() << "parser buffered " << fed << " bytes without tripping the cap";
}

TEST_P(FuzzTest, HttpRequestParserRejectsOversizedDeclaredBody) {
  // A Content-Length above the body cap must be rejected as soon as the head
  // completes — before any body fragment is buffered.
  Rng rng(GetParam() ^ 0x0B0D);
  constexpr size_t kBodyCap = 4096;
  for (int i = 0; i < 20; ++i) {
    HttpRequestParser parser;
    parser.set_limits({0, kBodyCap});
    size_t declared = kBodyCap + 1 + rng.NextBelow(1 << 20);
    std::string head = "POST / HTTP/1.1\r\nContent-Length: " +
                       std::to_string(declared) + "\r\n\r\n";
    // Deliver the head in random fragments, as a real connection would.
    Status failure = Status::Ok();
    size_t offset = 0;
    while (offset < head.size()) {
      size_t take = rng.NextBelow(head.size() - offset) + 1;
      auto result = parser.Feed(head.substr(offset, take));
      offset += take;
      if (!result.ok()) {
        failure = result.status();
        break;
      }
      EXPECT_FALSE(result->has_value());
    }
    EXPECT_EQ(failure.code(), StatusCode::kResourceExhausted)
        << "declared length " << declared << " accepted";
    // A request within the cap still parses on a fresh parser.
    HttpRequestParser ok_parser;
    ok_parser.set_limits({0, kBodyCap});
    std::string body(rng.NextBelow(kBodyCap) + 1, 'b');
    auto ok = ok_parser.Feed("POST / HTTP/1.1\r\nContent-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
    ASSERT_TRUE(ok.ok()) << ok.status();
    ASSERT_TRUE(ok->has_value());
    EXPECT_EQ((*ok)->body.size(), body.size());
  }
}

TEST_P(FuzzTest, HttpRequestParserCapsOversizedBodyFragments) {
  // An in-cap Content-Length with caps disabled vs a malicious one: feeding
  // oversized random body fragments after a valid head must never make the
  // parser crash or mis-frame the following pipelined request.
  Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 20; ++i) {
    HttpRequestParser parser;
    parser.set_limits({256, 256});
    std::string head_ok = "POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\n";
    auto first = parser.Feed(head_ok + RandomBytes(&rng, 8));
    if (!first.ok()) {
      continue;  // random "body" bytes may legally be rejected later
    }
    // Now drip random oversized fragments; the parser either rejects them
    // cleanly (head cap) or keeps waiting — it must never grow unboundedly.
    for (int j = 0; j < 16; ++j) {
      auto result = parser.Feed(RandomBytes(&rng, 128));
      if (!result.ok()) {
        break;
      }
      EXPECT_LE(parser.buffered_bytes(), 256u + 128u);
    }
  }
}

TEST_P(FuzzTest, HttpResponseParserToleratesGarbage) {
  Rng rng(GetParam() ^ 0x1111);
  HttpResponseParser parser;
  for (int i = 0; i < 20; ++i) {
    auto result = parser.Feed(RandomBytes(&rng, 256));
    if (!result.ok()) {
      return;
    }
  }
}

TEST_P(FuzzTest, XmlParserToleratesGarbage) {
  Rng rng(GetParam() ^ 0x2222);
  for (int i = 0; i < 50; ++i) {
    auto result = ParseXml(RandomBytes(&rng, 512));
    (void)result;
  }
}

TEST_P(FuzzTest, XmlParserToleratesMutatedSnapshots) {
  Rng rng(GetParam() ^ 0x3333);
  Snapshot snapshot;
  snapshot.doc_time_ms = 42;
  snapshot.has_content = true;
  ElementPayload body;
  body.tag = "body";
  body.inner_html = "<div id=\"x\"><p>text</p></div>";
  snapshot.body = body;
  std::string valid = SerializeSnapshotXml(snapshot);
  for (int i = 0; i < 50; ++i) {
    auto result = ParseSnapshotXml(Mutate(&rng, valid));
    (void)result;
  }
}

TEST_P(FuzzTest, HtmlParserNeverFails) {
  // Browsers never reject HTML; neither do we. Any byte soup must yield a
  // scaffolded document.
  Rng rng(GetParam() ^ 0x4444);
  for (int i = 0; i < 30; ++i) {
    auto document = ParseDocument(RandomBytes(&rng, 1024));
    ASSERT_NE(document, nullptr);
    ASSERT_NE(document->document_element(), nullptr);
    // And the result serializes without crashing.
    std::string out = SerializeNode(*document);
    (void)out;
  }
}

TEST_P(FuzzTest, HtmlParserToleratesMutatedMarkup) {
  Rng rng(GetParam() ^ 0x5555);
  std::string valid =
      "<!DOCTYPE html><html><head><title>T</title><script>if(a<b){}</script>"
      "</head><body onload=\"x()\"><div id=\"d\" class=\"c\">"
      "<img src=\"/i.png\"><a href=\"/x?a=1&amp;b=2\">link</a>"
      "<form action=\"/f\"><input name=\"q\" value=\"v\"></form>"
      "</div></body></html>";
  for (int i = 0; i < 30; ++i) {
    auto document = ParseDocument(Mutate(&rng, valid));
    ASSERT_NE(document->document_element(), nullptr);
  }
}

TEST_P(FuzzTest, HtmlParseSerializeIsIdempotentOnGarbage) {
  // parse(serialize(parse(x))) == parse(serialize(...)) — normalization
  // reaches a fixed point even for byte soup, which is what guarantees
  // innerHTML round trips stabilize on the participant browser.
  Rng rng(GetParam() ^ 0x6666);
  std::string soup = RandomBytes(&rng, 512);
  auto first = ParseDocument(soup);
  std::string one = SerializeNode(*first);
  auto second = ParseDocument(one);
  std::string two = SerializeNode(*second);
  EXPECT_EQ(one, two);
}

TEST_P(FuzzTest, UrlParserToleratesGarbage) {
  Rng rng(GetParam() ^ 0x7777);
  for (int i = 0; i < 50; ++i) {
    auto url = Url::Parse(RandomBytes(&rng, 128));
    if (url.ok()) {
      // Whatever parsed must re-serialize to something parseable.
      auto again = Url::Parse(url->ToString());
      EXPECT_TRUE(again.ok());
    }
  }
}

TEST_P(FuzzTest, UrlResolveToleratesGarbageReferences) {
  Rng rng(GetParam() ^ 0x8888);
  auto base = Url::Parse("http://host/a/b/c?q=1");
  ASSERT_TRUE(base.ok());
  for (int i = 0; i < 50; ++i) {
    auto resolved = base->Resolve(RandomBytes(&rng, 64));
    if (resolved.ok()) {
      EXPECT_FALSE(resolved->host().empty());
      EXPECT_TRUE(resolved->path().empty() || resolved->path()[0] == '/');
    }
  }
}

TEST_P(FuzzTest, ActionDecoderToleratesGarbage) {
  Rng rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 50; ++i) {
    auto actions = DecodeActions(RandomBytes(&rng, 256));
    (void)actions;
  }
}

TEST_P(FuzzTest, PollRequestDecoderToleratesGarbage) {
  Rng rng(GetParam() ^ 0xAAAA);
  for (int i = 0; i < 50; ++i) {
    auto poll = DecodePollRequest(RandomBytes(&rng, 256));
    (void)poll;
  }
}

TEST_P(FuzzTest, PollRequestRecoveryFieldsRoundTrip) {
  // seq/timeouts/resync are zero-omitted on the wire; any combination must
  // survive an encode/decode round trip.
  Rng rng(GetParam() ^ 0xCCCC);
  for (int i = 0; i < 20; ++i) {
    PollRequest poll;
    poll.participant_id = "p" + std::to_string(rng.NextBelow(100));
    poll.doc_time_ms = static_cast<int64_t>(rng.NextBelow(1000)) - 1;
    poll.seq = rng.NextBelow(1 << 20);
    poll.timeouts = rng.NextBelow(64);
    poll.resync = rng.NextBelow(2) == 1;
    auto decoded = DecodePollRequest(EncodePollRequest(poll));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->participant_id, poll.participant_id);
    EXPECT_EQ(decoded->doc_time_ms, poll.doc_time_ms);
    EXPECT_EQ(decoded->seq, poll.seq);
    EXPECT_EQ(decoded->timeouts, poll.timeouts);
    EXPECT_EQ(decoded->resync, poll.resync);
  }
}

TEST_P(FuzzTest, ElementPayloadDecoderToleratesGarbage) {
  Rng rng(GetParam() ^ 0xBBBB);
  for (int i = 0; i < 50; ++i) {
    auto payload = DecodeElementPayload(RandomBytes(&rng, 256));
    (void)payload;
  }
}

TEST_P(FuzzTest, PatchOpDecoderToleratesGarbage) {
  Rng rng(GetParam() ^ 0xD417A);
  for (int i = 0; i < 50; ++i) {
    auto ops = delta::DecodePatchOps(RandomBytes(&rng, 256));
    (void)ops;
  }
}

// A valid patch envelope, the fuzzing seed for the wire-format tests below.
delta::PatchEnvelope ValidPatchEnvelope() {
  delta::PatchEnvelope envelope;
  envelope.patch.base_doc_time_ms = 1000;
  envelope.patch.target_doc_time_ms = 2000;
  envelope.patch.base_digest = std::string(64, 'a');
  envelope.patch.target_digest = std::string(64, 'b');
  delta::PatchOp op;
  op.type = delta::PatchOpType::kSetAttr;
  op.path = {1, 2};
  op.name = "value";
  op.value = "x&y=z";
  envelope.patch.ops.push_back(op);
  op = {};
  op.type = delta::PatchOpType::kInsert;
  op.path = {1};
  op.index = 3;
  op.html = "<p class=\"q\">text</p>";
  envelope.patch.ops.push_back(op);
  return envelope;
}

TEST_P(FuzzTest, PatchXmlParserToleratesMutatedPatches) {
  // Truncations, bit flips, duplicated slices (which can duplicate whole op
  // lines), and appended garbage must all parse cleanly or fail cleanly —
  // and anything that parses must survive a re-serialize round trip.
  Rng rng(GetParam() ^ 0xF00D);
  std::string valid = delta::SerializePatchXml(ValidPatchEnvelope());
  for (int i = 0; i < 40; ++i) {
    auto parsed = delta::ParsePatchXml(Mutate(&rng, valid));
    if (parsed.ok()) {
      auto reparsed = delta::ParsePatchXml(delta::SerializePatchXml(*parsed));
      ASSERT_TRUE(reparsed.ok()) << reparsed.status();
      EXPECT_EQ(*reparsed, *parsed);
    }
  }
}

TEST_P(FuzzTest, PatchXmlParserToleratesGarbage) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 50; ++i) {
    std::string garbage = RandomBytes(&rng, 512);
    auto parsed = delta::ParsePatchXml(garbage);
    (void)parsed;
    (void)delta::LooksLikePatchXml(garbage);
  }
}

TEST_P(FuzzTest, MutatedPatchOpsNeverCorruptATreeSilently) {
  // Ops that decode are applied to a scratch tree; any Status outcome is
  // fine, crashing or corrupting memory is not (run under RCB_SANITIZE too).
  Rng rng(GetParam() ^ 0x0905);
  std::string valid = delta::EncodePatchOps(ValidPatchEnvelope().patch.ops);
  for (int i = 0; i < 40; ++i) {
    auto ops = delta::DecodePatchOps(Mutate(&rng, valid));
    if (!ops.ok()) {
      continue;
    }
    auto root = MakeElement("html");
    root->SetInnerHtml("<head><title>t</title></head>"
                       "<body><p>one</p><p>two</p></body>");
    (void)delta::ApplyPatchOps(root.get(), *ops);
  }
}

// ------------------------------------------------- host request router -----

// Stamps a one-paragraph document titled `title` into a hosted session.
void StampHostDoc(HostSession* session, const std::string& title) {
  session->browser->ReplaceDocument(
      ParseDocument("<html><head><title>" + title + "</title></head>"
                    "<body><p>" + title + "</p></body></html>"),
      Url::Make("http", "host-pc", session->port, "/doc"));
}

TEST_P(FuzzTest, HostRouterToleratesGarbageRequests) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 7);
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  HostConfig config;
  config.limits.max_sessions = 4;
  RcbHost host(&loop, &network, config);
  ASSERT_TRUE(host.Start().ok());
  auto session_a = host.CreateSession("a");
  auto session_b = host.CreateSession("b");
  ASSERT_TRUE(session_a.ok());
  ASSERT_TRUE(session_b.ok());
  StampHostDoc(*session_a, "DocA");
  StampHostDoc(*session_b, "DocB");

  const std::vector<std::string> valid_targets = {
      "/",           "/s/a/",        "/s/b/status",        "/s/a/metrics",
      "/host/status", "/host/metrics", "/host/sessions?id=c", "/s/a/obj/x",
      "/s/b/",       "/s/a/frames",  "/s//",               "/s/a"};
  for (int i = 0; i < 64; ++i) {
    HttpRequest request;
    request.method =
        rng.NextBelow(2) == 0 ? HttpMethod::kGet : HttpMethod::kPost;
    request.target =
        rng.NextBelow(2) == 0
            ? Mutate(&rng, valid_targets[rng.NextBelow(valid_targets.size())])
            : RandomBytes(&rng, 48);
    if (rng.NextBelow(2) == 0) {
      PollRequest poll;
      poll.participant_id = RandomBytes(&rng, 8);
      poll.doc_time_ms = static_cast<int64_t>(rng.NextU64());
      request.body = Mutate(&rng, EncodePollRequest(poll));
    } else {
      request.body = RandomBytes(&rng, 64);
    }
    HttpResponse response = host.Route(request);
    EXPECT_TRUE(response.status_code == 200 ||
                (response.status_code >= 400 && response.status_code <= 503))
        << "unexpected status " << response.status_code << " for "
        << request.target;
  }

  // The registry survived the abuse: the admission cap held, the seeded
  // sessions are intact, and garbage traffic never mutated their documents.
  EXPECT_LE(host.session_count(), 4u);
  ASSERT_NE(host.FindSession("a"), nullptr);
  ASSERT_NE(host.FindSession("b"), nullptr);
  EXPECT_EQ((*session_a)->browser->document()->Title(), "DocA");
  EXPECT_EQ((*session_b)->browser->document()->Title(), "DocB");
  EXPECT_EQ((*session_a)->agent->metrics().doc_updates, 1u);
  EXPECT_EQ((*session_b)->agent->metrics().doc_updates, 1u);
}

TEST_P(FuzzTest, HostRouterKeepsInterleavedSessionsIsolated) {
  Rng rng(GetParam() * 0xD1B54A32D192ED03ULL + 3);
  EventLoop loop;
  Network network(&loop);
  network.AddHost("host-pc", {});
  RcbHost host(&loop, &network, HostConfig{});
  ASSERT_TRUE(host.Start().ok());
  std::vector<HostSession*> sessions;
  for (int s = 0; s < 3; ++s) {
    auto session = host.CreateSession("iso" + std::to_string(s));
    ASSERT_TRUE(session.ok());
    StampHostDoc(*session, "Iso" + std::to_string(s));
    sessions.push_back(*session);
  }
  // A reaped id that must keep answering 410, never a live session's data.
  ASSERT_TRUE(host.CreateSession("dead").ok());
  ASSERT_TRUE(host.CloseSession("dead").ok());

  // Pid strings deliberately overlap across sessions: participant state must
  // be keyed per agent, never by pid globally.
  std::set<std::string> polled[3];
  for (int i = 0; i < 96; ++i) {
    int s = static_cast<int>(rng.NextBelow(3));
    switch (rng.NextBelow(6)) {
      case 0: {  // expired id
        HttpRequest request;
        request.method = HttpMethod::kGet;
        request.target = "/s/dead/";
        EXPECT_EQ(host.Route(request).status_code, 410);
        break;
      }
      case 1: {  // unknown / malformed ids
        HttpRequest request;
        request.method = HttpMethod::kGet;
        request.target = rng.NextBelow(2) == 0 ? "/s/nosuch/"
                                               : "/s/" + RandomBytes(&rng, 12) + "/";
        int status = host.Route(request).status_code;
        EXPECT_TRUE(status == 400 || status == 404 || status == 410)
            << request.target << " -> " << status;
        break;
      }
      case 2: {  // id collision with a live session
        HttpRequest request;
        request.method = HttpMethod::kPost;
        request.target = "/host/sessions?id=iso" + std::to_string(s);
        EXPECT_EQ(host.Route(request).status_code, 409);
        break;
      }
      default: {  // interleaved poll: content must come from session s only
        PollRequest poll;
        poll.participant_id = "pid" + std::to_string(rng.NextBelow(4));
        poll.doc_time_ms = -1;  // always wants the current content
        polled[s].insert(poll.participant_id);
        HttpRequest request;
        request.method = HttpMethod::kPost;
        request.target = "/s/iso" + std::to_string(s) + "/";
        request.body = EncodePollRequest(poll);
        HttpResponse response = host.Route(request);
        EXPECT_EQ(response.status_code, 200);
        EXPECT_NE(response.body.find("Iso" + std::to_string(s)),
                  std::string::npos);
        for (int other = 0; other < 3; ++other) {
          if (other != s) {
            EXPECT_EQ(response.body.find("Iso" + std::to_string(other)),
                      std::string::npos)
                << "session iso" << s << " leaked iso" << other
                << " content";
          }
        }
        break;
      }
    }
  }

  // No session's roster holds a participant that never polled it, and no
  // session's own document moved.
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(sessions[s]->browser->document()->Title(),
              "Iso" + std::to_string(s));
    EXPECT_EQ(sessions[s]->agent->metrics().doc_updates, 1u);
    EXPECT_EQ(sessions[s]->agent->metrics().auth_failures, 0u);
    for (const std::string& pid :
         sessions[s]->agent->ConnectedParticipants()) {
      EXPECT_TRUE(polled[s].contains(pid))
          << "session iso" << s << " holds foreign participant " << pid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(1, 13));

// --------------------------------------------------------- DOM properties --

class DomPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  // Builds a random but WELL-FORMED tree of depth <= 4. Tags are chosen from
  // the set with no implied-end-tag interactions, so any nesting the DOM can
  // express survives a serialize/parse round trip (p/ul/li combinations can
  // legitimately re-parse differently, as in real browsers).
  std::unique_ptr<Element> RandomTree(Rng* rng, int depth = 0) {
    static const char* kTags[] = {"div", "span", "section", "em", "i", "b"};
    auto element = MakeElement(kTags[rng->NextBelow(std::size(kTags))]);
    size_t attrs = rng->NextBelow(3);
    for (size_t i = 0; i < attrs; ++i) {
      element->SetAttribute(std::string("a") + std::to_string(i),
                            rng->NextToken(rng->NextBelow(8) + 1));
    }
    if (depth < 4) {
      size_t children = rng->NextBelow(4);
      for (size_t i = 0; i < children; ++i) {
        if (rng->NextBelow(3) == 0) {
          element->AppendChild(MakeText(rng->NextToken(rng->NextBelow(12) + 1)));
        } else {
          element->AppendChild(RandomTree(rng, depth + 1));
        }
      }
    }
    return element;
  }
};

TEST_P(DomPropertyTest, CloneSerializesIdentically) {
  Rng rng(GetParam());
  auto tree = RandomTree(&rng);
  auto clone = tree->Clone();
  EXPECT_EQ(SerializeNode(*tree), SerializeNode(*clone));
}

TEST_P(DomPropertyTest, SerializeParseRoundTrip) {
  Rng rng(GetParam() ^ 0xC0DE);
  auto tree = RandomTree(&rng);
  std::string html = SerializeNode(*tree);
  auto nodes = ParseFragment(html);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(SerializeNode(*nodes[0]), html);
}

TEST_P(DomPropertyTest, InnerHtmlSetGetRoundTrip) {
  Rng rng(GetParam() ^ 0xFACE);
  auto tree = RandomTree(&rng);
  std::string inner = SerializeChildren(*tree);
  auto target = MakeElement("div");
  target->SetInnerHtml(inner);
  EXPECT_EQ(target->InnerHtml(), inner);
}

TEST_P(DomPropertyTest, DetachedCloneSharesNoState) {
  Rng rng(GetParam() ^ 0xBEEF);
  auto tree = RandomTree(&rng);
  std::string before = SerializeNode(*tree);
  auto clone = tree->Clone();
  // Scorch the clone.
  clone->AsElement()->SetAttribute("mutated", "yes");
  clone->RemoveAllChildren();
  EXPECT_EQ(SerializeNode(*tree), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace rcb
