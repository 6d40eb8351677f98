// Tests for the RCB wire protocol: element payloads, user actions, the
// Fig. 4 snapshot XML, and poll request bodies.
#include <gtest/gtest.h>

#include <climits>

#include "src/core/protocol.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// --------------------------------------------------------- ElementPayload --

TEST(ElementPayloadTest, RoundTrip) {
  ElementPayload payload;
  payload.tag = "body";
  payload.attributes = {{"class", "main"}, {"onload", "init()"}};
  payload.inner_html = "<div id=\"d\">x &amp; y</div>";
  auto decoded = DecodeElementPayload(EncodeElementPayload(payload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(ElementPayloadTest, EmptyAttributesAndHtml) {
  ElementPayload payload;
  payload.tag = "head";
  auto decoded = DecodeElementPayload(EncodeElementPayload(payload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
}

TEST(ElementPayloadTest, InnerHtmlMayContainSeparators) {
  ElementPayload payload;
  payload.tag = "div";
  payload.inner_html = std::string("a\x1f b\x1f c");  // separators in content
  auto decoded = DecodeElementPayload(EncodeElementPayload(payload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->inner_html, payload.inner_html);
}

TEST(ElementPayloadTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(DecodeElementPayload("").ok());
  EXPECT_FALSE(DecodeElementPayload("noseparators").ok());
  EXPECT_FALSE(DecodeElementPayload("tagonly\x1f").ok());
  EXPECT_FALSE(DecodeElementPayload("\x1f\x1f").ok());  // empty tag
}

// ------------------------------------------------------------ UserActions --

TEST(ActionsTest, TypeNamesRoundTrip) {
  for (ActionType type : {ActionType::kClick, ActionType::kFormFill,
                          ActionType::kFormSubmit, ActionType::kMouseMove,
                          ActionType::kNavigate}) {
    auto parsed = ParseActionType(ActionTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(ParseActionType("bogus").ok());
}

TEST(ActionsTest, EncodeDecodeRoundTrip) {
  std::vector<UserAction> actions;
  UserAction click;
  click.type = ActionType::kClick;
  click.target = 7;
  actions.push_back(click);

  UserAction fill;
  fill.type = ActionType::kFormFill;
  fill.target = 2;
  fill.fields = {{"q", "macbook air"}, {"note", "a&b=c"}};
  actions.push_back(fill);

  UserAction mouse;
  mouse.type = ActionType::kMouseMove;
  mouse.x = 120;
  mouse.y = -4;
  actions.push_back(mouse);

  UserAction navigate;
  navigate.type = ActionType::kNavigate;
  navigate.data = "http://www.shop.test/product/mba13";
  navigate.origin = "p2";
  actions.push_back(navigate);

  auto decoded = DecodeActions(EncodeActions(actions));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, actions);
}

TEST(ActionsTest, EmptyListRoundTrip) {
  auto decoded = DecodeActions(EncodeActions({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
  EXPECT_TRUE(DecodeActions("")->empty());
  EXPECT_TRUE(DecodeActions("  \n ")->empty());
}

TEST(ActionsTest, DecodeRejectsMissingType) {
  EXPECT_FALSE(DecodeActions("target=3").ok());
  EXPECT_FALSE(DecodeActions("type=warp").ok());
  EXPECT_FALSE(DecodeActions("type=click&target=abc").ok());
}

TEST(ActionsTest, DecodeRejectsMalformedIntegerFields) {
  // Each integer field reads strictly: no numeric prefix, no overflow, and
  // no value an int cannot hold.
  for (const char* line :
       {"type=click&target=3x", "type=click&target=4294967297",
        "type=click&target=2147483648", "type=mouse&x=12x",
        "type=mouse&x=", "type=mouse&x=%2B5", "type=mouse&y=4294967297",
        "type=mouse&y=-2147483649", "type=mouse&x=1.5"}) {
    auto decoded = DecodeActions(line);
    ASSERT_FALSE(decoded.ok()) << line;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << line;
  }
  auto valid = DecodeActions(
      "type=mouse&target=2147483647&x=-2147483648&y=2147483647");
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ((*valid)[0].target, INT_MAX);
  EXPECT_EQ((*valid)[0].x, INT_MIN);
  EXPECT_EQ((*valid)[0].y, INT_MAX);
}

TEST(ActionsTest, FieldValuesWithNewlines) {
  UserAction fill;
  fill.type = ActionType::kFormFill;
  fill.target = 0;
  fill.fields = {{"addr", "line1\nline2"}};
  auto decoded = DecodeActions(EncodeActions({fill}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].fields[0].second, "line1\nline2");
}

// --------------------------------------------------------------- Snapshot --

Snapshot MakeTestSnapshot() {
  Snapshot snapshot;
  snapshot.doc_time_ms = 123456789;
  snapshot.has_content = true;
  ElementPayload title;
  title.tag = "title";
  title.inner_html = "Example & <Page>";
  snapshot.head_children.push_back(title);
  ElementPayload style;
  style.tag = "style";
  style.inner_html = ".a{color:red}";
  snapshot.head_children.push_back(style);
  ElementPayload body;
  body.tag = "body";
  body.attributes = {{"class", "main"}};
  body.inner_html = "<div id=\"x\"><p>hello]]>there</p></div>";
  snapshot.body = body;
  return snapshot;
}

TEST(SnapshotTest, XmlShapeMatchesFig4) {
  std::string xml = SerializeSnapshotXml(MakeTestSnapshot());
  EXPECT_TRUE(xml.starts_with("<?xml version='1.0' encoding='utf-8'?>"));
  EXPECT_NE(xml.find("<newContent>"), std::string::npos);
  EXPECT_NE(xml.find("<docTime>123456789</docTime>"), std::string::npos);
  EXPECT_NE(xml.find("<docContent>"), std::string::npos);
  EXPECT_NE(xml.find("<docHead>"), std::string::npos);
  EXPECT_NE(xml.find("<hChild1>"), std::string::npos);
  EXPECT_NE(xml.find("<hChild2>"), std::string::npos);
  EXPECT_NE(xml.find("<docBody>"), std::string::npos);
  EXPECT_NE(xml.find("<![CDATA["), std::string::npos);
}

TEST(SnapshotTest, RoundTrip) {
  Snapshot original = MakeTestSnapshot();
  auto parsed = ParseSnapshotXml(SerializeSnapshotXml(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->doc_time_ms, original.doc_time_ms);
  EXPECT_TRUE(parsed->has_content);
  ASSERT_EQ(parsed->head_children.size(), 2u);
  EXPECT_EQ(parsed->head_children[0], original.head_children[0]);
  EXPECT_EQ(parsed->head_children[1], original.head_children[1]);
  ASSERT_TRUE(parsed->body.has_value());
  EXPECT_EQ(*parsed->body, *original.body);
  EXPECT_FALSE(parsed->frameset.has_value());
}

TEST(SnapshotTest, FramesetRoundTrip) {
  Snapshot snapshot;
  snapshot.doc_time_ms = 99;
  snapshot.has_content = true;
  ElementPayload frameset;
  frameset.tag = "frameset";
  frameset.attributes = {{"cols", "50%,50%"}};
  frameset.inner_html = "<frame src=\"http://h/a\"><frame src=\"http://h/b\">";
  snapshot.frameset = frameset;
  ElementPayload noframes;
  noframes.tag = "noframes";
  noframes.inner_html = "<p>sorry</p>";
  snapshot.noframes = noframes;

  auto parsed = ParseSnapshotXml(SerializeSnapshotXml(snapshot));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->frameset.has_value());
  EXPECT_EQ(*parsed->frameset, frameset);
  ASSERT_TRUE(parsed->noframes.has_value());
  EXPECT_EQ(*parsed->noframes, noframes);
  EXPECT_FALSE(parsed->body.has_value());
}

TEST(SnapshotTest, ActionsOnlySnapshot) {
  Snapshot snapshot;
  snapshot.doc_time_ms = 5;
  snapshot.has_content = false;
  UserAction mouse;
  mouse.type = ActionType::kMouseMove;
  mouse.x = 1;
  mouse.y = 2;
  mouse.origin = "host";
  snapshot.user_actions.push_back(mouse);

  EXPECT_FALSE(snapshot.empty());
  auto parsed = ParseSnapshotXml(SerializeSnapshotXml(snapshot));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->has_content);
  ASSERT_EQ(parsed->user_actions.size(), 1u);
  EXPECT_EQ(parsed->user_actions[0], mouse);
}

TEST(SnapshotTest, EmptySnapshotDetection) {
  Snapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  snapshot.has_content = true;
  EXPECT_FALSE(snapshot.empty());
}

TEST(SnapshotTest, ParseRejectsWrongRoot) {
  EXPECT_FALSE(ParseSnapshotXml("<other/>").ok());
  EXPECT_FALSE(ParseSnapshotXml("<newContent/>").ok());  // missing docTime
  EXPECT_FALSE(ParseSnapshotXml("not xml").ok());
}

// Property: snapshots with random binary innerHTML survive the full
// escape -> CDATA -> XML -> parse -> unescape pipeline.
class SnapshotRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRoundTripTest, RandomPayloads) {
  Rng rng(GetParam());
  Snapshot snapshot;
  snapshot.doc_time_ms = static_cast<int64_t>(rng.NextBelow(1u << 30));
  snapshot.has_content = true;
  size_t head_children = rng.NextBelow(4);
  for (size_t i = 0; i < head_children; ++i) {
    ElementPayload payload;
    payload.tag = "meta";
    payload.attributes = {{"name", rng.NextToken(5)},
                          {"content", rng.NextBytes(rng.NextBelow(64))}};
    payload.inner_html = rng.NextBytes(rng.NextBelow(256));
    snapshot.head_children.push_back(std::move(payload));
  }
  ElementPayload body;
  body.tag = "body";
  body.inner_html = rng.NextBytes(rng.NextBelow(2048));
  snapshot.body = body;

  auto parsed = ParseSnapshotXml(SerializeSnapshotXml(snapshot));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->doc_time_ms, snapshot.doc_time_ms);
  ASSERT_EQ(parsed->head_children.size(), snapshot.head_children.size());
  for (size_t i = 0; i < head_children; ++i) {
    EXPECT_EQ(parsed->head_children[i], snapshot.head_children[i]);
  }
  EXPECT_EQ(*parsed->body, *snapshot.body);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTripTest,
                         ::testing::Range<uint64_t>(1, 25));

// ------------------------------------------------------------ PollRequest --

TEST(PollRequestTest, RoundTrip) {
  PollRequest request;
  request.participant_id = "p3";
  request.doc_time_ms = 42;
  UserAction click;
  click.type = ActionType::kClick;
  click.target = 1;
  request.actions.push_back(click);

  auto decoded = DecodePollRequest(EncodePollRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->participant_id, "p3");
  EXPECT_EQ(decoded->doc_time_ms, 42);
  ASSERT_EQ(decoded->actions.size(), 1u);
  EXPECT_EQ(decoded->actions[0], click);
}

TEST(PollRequestTest, NegativeDocTime) {
  PollRequest request;
  request.participant_id = "p1";
  request.doc_time_ms = -1;
  auto decoded = DecodePollRequest(EncodePollRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->doc_time_ms, -1);
}

TEST(PollRequestTest, RejectsMissingFields) {
  EXPECT_FALSE(DecodePollRequest("").ok());
  EXPECT_FALSE(DecodePollRequest("pid=p1").ok());
  EXPECT_FALSE(DecodePollRequest("ts=1").ok());
}

// Integer fields are read strictly: a malformed value is an error, never a
// silently truncated number (ts=12x used to read as 12, seq=x as "no seq").
TEST(PollRequestTest, RejectsMalformedIntegerFields) {
  for (const char* body :
       {"pid=p1&ts=12x", "pid=p1&ts=", "pid=p1&ts=x", "pid=p1&ts=1.5",
        "pid=p1&ts=%2B1", "pid=p1&ts=99999999999999999999", "pid=p1&ts=1&seq=x",
        "pid=p1&ts=1&seq=-1", "pid=p1&ts=1&seq=3x", "pid=p1&ts=1&seq=",
        "pid=p1&ts=1&timeouts=x", "pid=p1&ts=1&timeouts=-2"}) {
    auto decoded = DecodePollRequest(body);
    ASSERT_FALSE(decoded.ok()) << body;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << body;
  }
  auto valid =
      DecodePollRequest("pid=p1&ts=-1&seq=18446744073709551615&timeouts=0");
  ASSERT_TRUE(valid.ok()) << valid.status();
  EXPECT_EQ(valid->doc_time_ms, -1);
  EXPECT_EQ(valid->seq, UINT64_MAX);
}

TEST(PollRequestTest, MalformedStreamLevelReadsAsClassicPolling) {
  // stream= is an optional capability: a value that is not a uint32 reads
  // as the field's absence, never as a truncated or prefix level.
  const std::pair<const char*, uint32_t> cases[] = {
      {"stream=1", 1},          {"stream=2", 2},
      {"stream=4294967295", UINT32_MAX},
      {"stream=4294967297", 0}, {"stream=1x", 0},
      {"stream=-1", 0},         {"stream=", 0},
      {"stream=%2B1", 0}};
  for (const auto& [field, level] : cases) {
    auto decoded = DecodePollRequest(std::string("pid=p1&ts=3&") + field);
    ASSERT_TRUE(decoded.ok()) << field << ": " << decoded.status();
    EXPECT_EQ(decoded->stream, level) << field;
  }
}

TEST(SnapshotTest, RejectsMalformedDocTime) {
  Snapshot snapshot;
  snapshot.doc_time_ms = 42;
  const std::string xml = SerializeSnapshotXml(snapshot);
  ASSERT_NE(xml.find("<docTime>42</docTime>"), std::string::npos);
  for (const char* doc_time : {"42x", "x", "", "4 2"}) {
    std::string bad = StrReplaceAll(xml, "<docTime>42</docTime>",
                                    std::string("<docTime>") + doc_time +
                                        "</docTime>");
    auto parsed = ParseSnapshotXml(bad);
    ASSERT_FALSE(parsed.ok()) << doc_time;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
  auto parsed = ParseSnapshotXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->doc_time_ms, 42);
}

TEST(PollRequestTest, TraceFieldRoundTrips) {
  PollRequest request;
  request.participant_id = "p2";
  request.doc_time_ms = 7;
  request.trace = "p2-19";
  auto decoded = DecodePollRequest(EncodePollRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace, "p2-19");
}

TEST(PollRequestTest, EmptyTraceLeavesWireByteIdentical) {
  // The capability-negotiation contract (mirrors patch=1): a snippet with
  // tracing off must emit exactly the pre-trace wire bytes.
  PollRequest request;
  request.participant_id = "p1";
  request.doc_time_ms = 3;
  std::string untraced = EncodePollRequest(request);
  EXPECT_EQ(untraced.find("trace"), std::string::npos);
  request.trace = "p1-1";
  std::string traced = EncodePollRequest(request);
  EXPECT_NE(traced.find("trace=p1-1"), std::string::npos);
  request.trace.clear();
  EXPECT_EQ(EncodePollRequest(request), untraced);
}

TEST(PollRequestTest, StreamFieldRoundTrips) {
  PollRequest request;
  request.participant_id = "p3";
  request.doc_time_ms = 11;
  request.stream = 2;
  auto decoded = DecodePollRequest(EncodePollRequest(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->stream, 2u);
}

TEST(PollRequestTest, ZeroStreamLeavesWireByteIdentical) {
  // Same capability-negotiation contract as patch=/trace=: a snippet with
  // the streamed transport off emits exactly the pre-transport wire bytes.
  PollRequest request;
  request.participant_id = "p1";
  request.doc_time_ms = 3;
  std::string classic = EncodePollRequest(request);
  EXPECT_EQ(classic.find("stream"), std::string::npos);
  request.stream = 2;
  std::string streaming = EncodePollRequest(request);
  EXPECT_NE(streaming.find("stream=2"), std::string::npos);
  request.stream = 0;
  EXPECT_EQ(EncodePollRequest(request), classic);
}

TEST(PollRequestTest, UnknownStreamFieldIgnoredByOldDecoder) {
  auto decoded = DecodePollRequest("pid=p1&ts=3&stream=2");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->participant_id, "p1");
  auto classic = DecodePollRequest("pid=p1&ts=3");
  ASSERT_TRUE(classic.ok());
  EXPECT_EQ(classic->stream, 0u);
}

TEST(PollRequestTest, UnknownTraceFieldIgnoredByOldDecoder) {
  // A traced request still decodes when the receiver predates the field...
  auto decoded = DecodePollRequest("pid=p1&ts=3&trace=p1-9");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->participant_id, "p1");
  // ...and an untraced request decodes to an empty trace id.
  auto untraced = DecodePollRequest("pid=p1&ts=3");
  ASSERT_TRUE(untraced.ok());
  EXPECT_TRUE(untraced->trace.empty());
}

}  // namespace
}  // namespace rcb
