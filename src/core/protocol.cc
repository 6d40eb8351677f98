#include "src/core/protocol.h"

#include "src/crypto/hmac.h"
#include "src/http/form.h"
#include "src/util/escape.h"
#include "src/util/strings.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace rcb {
namespace {

constexpr char kUnitSep = '\x1f';

// Room in a newContent document for all but its payloads: the declaration,
// the tags, docTime and a few user actions.
constexpr size_t kXmlFrameBytes = 1024;

size_t EscapedBytes(const SnapshotEscaped& escaped) {
  size_t bytes = 0;
  for (const EscapedPayload& child : escaped.head_children) {
    bytes += child.escaped.size();
  }
  for (const auto* payload : {&escaped.body, &escaped.frameset,
                              &escaped.noframes}) {
    bytes += payload->has_value() ? (*payload)->escaped.size() : 0;
  }
  return bytes;
}

}  // namespace

std::string EncodeElementPayload(const ElementPayload& payload) {
  std::string out = EncodeElementPayloadPrefix(payload);
  out += payload.inner_html;
  return out;
}

std::string EncodeElementPayloadPrefix(const ElementPayload& payload) {
  std::string out = payload.tag;
  out += kUnitSep;
  out += EncodeFormUrlEncoded(payload.attributes);
  out += kUnitSep;
  return out;
}

StatusOr<ElementPayload> DecodeElementPayload(std::string_view encoded) {
  size_t first = encoded.find(kUnitSep);
  if (first == std::string_view::npos) {
    return InvalidArgumentError("element payload missing separators");
  }
  size_t second = encoded.find(kUnitSep, first + 1);
  if (second == std::string_view::npos) {
    return InvalidArgumentError("element payload missing innerHTML separator");
  }
  ElementPayload payload;
  payload.tag = std::string(encoded.substr(0, first));
  if (payload.tag.empty()) {
    return InvalidArgumentError("element payload has empty tag");
  }
  payload.attributes =
      ParseFormUrlEncodedOrdered(encoded.substr(first + 1, second - first - 1));
  payload.inner_html = std::string(encoded.substr(second + 1));
  return payload;
}

StatusOr<size_t> DecodeEscapedPayloadHead(std::string_view escaped,
                                          ElementPayload* payload) {
  // Unit by unit up to the second separator: the head is a few bytes of a
  // page-sized payload.
  std::string head;
  size_t pos = 0;
  int separators = 0;
  while (pos < escaped.size() && separators < 2) {
    pos = JsUnescapeUnit(escaped, pos, &head);
    separators += head.back() == kUnitSep ? 1 : 0;
  }
  RCB_ASSIGN_OR_RETURN(*payload, DecodeElementPayload(head));
  return pos;
}

bool SnapshotEscaped::Matches(const Snapshot& snapshot) const {
  return has_content == snapshot.has_content &&
         head_children.size() == snapshot.head_children.size() &&
         body.has_value() == snapshot.body.has_value() &&
         frameset.has_value() == snapshot.frameset.has_value() &&
         noframes.has_value() == snapshot.noframes.has_value();
}

SnapshotEscaped EscapeSnapshot(const Snapshot& snapshot) {
  auto escape = [](const ElementPayload& payload) {
    const std::string raw = EncodeElementPayload(payload);
    return EscapedPayload{JsEscape(raw), raw.size()};
  };
  SnapshotEscaped out;
  out.has_content = snapshot.has_content;
  for (const ElementPayload& payload : snapshot.head_children) {
    out.head_children.push_back(escape(payload));
  }
  if (snapshot.body.has_value()) {
    out.body = escape(*snapshot.body);
  }
  if (snapshot.frameset.has_value()) {
    out.frameset = escape(*snapshot.frameset);
  }
  if (snapshot.noframes.has_value()) {
    out.noframes = escape(*snapshot.noframes);
  }
  return out;
}

std::string SerializeSnapshotXml(const Snapshot& snapshot) {
  return SerializeSnapshotXml(snapshot, nullptr, nullptr, nullptr);
}

std::string SerializeSnapshotXml(const Snapshot& snapshot,
                                 SnapshotSerializeStats* stats) {
  return SerializeSnapshotXml(snapshot, stats, nullptr, nullptr);
}

std::string SerializeSnapshotXml(
    const Snapshot& snapshot, SnapshotSerializeStats* stats,
    const SnapshotEscaped* prescaped,
    const std::vector<UserAction>* override_actions) {
  // One write path: payloads without a matching pre-escaped image (none
  // given, or its shape drifted from the snapshot) are escaped here first.
  std::optional<SnapshotEscaped> fresh;
  if (snapshot.has_content &&
      (prescaped == nullptr || !prescaped->Matches(snapshot))) {
    prescaped = &fresh.emplace(EscapeSnapshot(snapshot));
  }
  XmlWriter writer;
  if (snapshot.has_content) {
    writer.Reserve(EscapedBytes(*prescaped) + kXmlFrameBytes);
  }
  writer.WriteDeclaration();
  writer.StartElement("newContent");
  writer.WriteTextElement("docTime", StrFormat("%lld", static_cast<long long>(
                                                            snapshot.doc_time_ms)));
  // Escaped CDATA text is spliced in verbatim; JsEscape output contains no
  // ']' byte, so XmlWriter's "]]>" splitting never fires and the bytes match
  // an escape in place exactly. Returned by reference: the page-sized
  // escaped image goes straight into the writer, uncopied.
  auto spliced = [stats](const EscapedPayload& pre) -> const std::string& {
    if (stats != nullptr) {
      stats->payload_raw_bytes += pre.raw_bytes;
      stats->payload_escaped_bytes += pre.escaped.size();
    }
    return pre.escaped;
  };
  if (snapshot.has_content) {
    writer.StartElement("docContent");
    writer.StartElement("docHead");
    for (size_t i = 0; i < prescaped->head_children.size(); ++i) {
      writer.WriteCdataElement(StrFormat("hChild%zu", i + 1),
                               spliced(prescaped->head_children[i]));
    }
    writer.EndElement();  // docHead
    if (prescaped->body.has_value()) {
      writer.WriteCdataElement("docBody", spliced(*prescaped->body));
    }
    if (prescaped->frameset.has_value()) {
      writer.WriteCdataElement("docFrameSet", spliced(*prescaped->frameset));
    }
    if (prescaped->noframes.has_value()) {
      writer.WriteCdataElement("docNoFrames", spliced(*prescaped->noframes));
    }
    writer.EndElement();  // docContent
  }
  const std::vector<UserAction>& actions =
      override_actions != nullptr ? *override_actions : snapshot.user_actions;
  if (!actions.empty()) {
    const std::string raw = EncodeActions(actions);
    const EscapedPayload escaped{JsEscape(raw), raw.size()};
    writer.WriteCdataElement("userActions", spliced(escaped));
  }
  writer.EndElement();  // newContent
  return writer.TakeString();
}

StatusOr<SnapshotReply> ParseSnapshotReply(std::string_view xml) {
  RCB_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseXml(xml));
  if (root->name != "newContent") {
    return InvalidArgumentError("expected newContent root, got " + root->name);
  }
  SnapshotReply reply;
  const XmlNode* doc_time = root->FindChild("docTime");
  if (doc_time == nullptr) {
    return InvalidArgumentError("snapshot missing docTime");
  }
  if (!ParseInt64(doc_time->text, &reply.doc_time_ms)) {
    return InvalidArgumentError("snapshot docTime is not an integer");
  }

  // The CDATA text is moved out of the parsed XML, not copied.
  auto take = [](XmlNode* node) -> StatusOr<EscapedPayload> {
    EscapedPayload payload{std::move(node->text), 0};
    ElementPayload head;
    RCB_RETURN_IF_ERROR(
        DecodeEscapedPayloadHead(payload.escaped, &head).status());
    return payload;
  };
  SnapshotEscaped& payloads = reply.payloads;
  if (XmlNode* content = root->FindChild("docContent")) {
    payloads.has_content = true;
    if (XmlNode* head = content->FindChild("docHead")) {
      for (const auto& child : head->children) {
        RCB_ASSIGN_OR_RETURN(EscapedPayload payload, take(child.get()));
        payloads.head_children.push_back(std::move(payload));
      }
    }
    if (XmlNode* body = content->FindChild("docBody")) {
      RCB_ASSIGN_OR_RETURN(payloads.body, take(body));
    }
    if (XmlNode* frameset = content->FindChild("docFrameSet")) {
      RCB_ASSIGN_OR_RETURN(payloads.frameset, take(frameset));
    }
    if (XmlNode* noframes = content->FindChild("docNoFrames")) {
      RCB_ASSIGN_OR_RETURN(payloads.noframes, take(noframes));
    }
  }
  if (const XmlNode* actions = root->FindChild("userActions")) {
    RCB_ASSIGN_OR_RETURN(reply.user_actions,
                         DecodeActions(JsUnescape(actions->text)));
  }
  return reply;
}

StatusOr<Snapshot> ParseSnapshotXml(std::string_view xml) {
  RCB_ASSIGN_OR_RETURN(SnapshotReply reply, ParseSnapshotReply(xml));
  Snapshot snapshot;
  snapshot.doc_time_ms = reply.doc_time_ms;
  snapshot.has_content = reply.payloads.has_content;
  snapshot.user_actions = std::move(reply.user_actions);
  // Each payload's head was checked by the parse, so the decode succeeds.
  auto decode = [](const EscapedPayload& payload) {
    return DecodeElementPayload(JsUnescape(payload.escaped)).value();
  };
  for (const EscapedPayload& payload : reply.payloads.head_children) {
    snapshot.head_children.push_back(decode(payload));
  }
  if (reply.payloads.body.has_value()) {
    snapshot.body = decode(*reply.payloads.body);
  }
  if (reply.payloads.frameset.has_value()) {
    snapshot.frameset = decode(*reply.payloads.frameset);
  }
  if (reply.payloads.noframes.has_value()) {
    snapshot.noframes = decode(*reply.payloads.noframes);
  }
  return snapshot;
}

std::string EncodePollRequest(const PollRequest& request) {
  std::vector<std::pair<std::string, std::string>> fields;
  fields.emplace_back("pid", request.participant_id);
  fields.emplace_back("ts", StrFormat("%lld",
                                      static_cast<long long>(request.doc_time_ms)));
  fields.emplace_back("actions", EncodeActions(request.actions));
  if (request.seq != 0) {
    fields.emplace_back("seq",
                        StrFormat("%llu", static_cast<unsigned long long>(request.seq)));
  }
  if (request.timeouts != 0) {
    fields.emplace_back(
        "timeouts", StrFormat("%llu", static_cast<unsigned long long>(request.timeouts)));
  }
  if (request.resync) {
    fields.emplace_back("resync", "1");
  }
  if (request.patch) {
    fields.emplace_back("patch", "1");
  }
  if (!request.trace.empty()) {
    fields.emplace_back("trace", request.trace);
  }
  if (request.stream != 0) {
    fields.emplace_back("stream", StrFormat("%u", request.stream));
  }
  return EncodeFormUrlEncoded(fields);
}

StatusOr<PollRequest> DecodePollRequest(std::string_view body) {
  PollRequest request;
  bool have_pid = false;
  bool have_ts = false;
  for (const auto& [name, value] : ParseFormUrlEncodedOrdered(body)) {
    if (name == "pid") {
      request.participant_id = value;
      have_pid = true;
    } else if (name == "ts") {
      if (!ParseInt64(value, &request.doc_time_ms)) {
        return InvalidArgumentError("poll ts is not an integer");
      }
      have_ts = true;
    } else if (name == "actions") {
      RCB_ASSIGN_OR_RETURN(request.actions, DecodeActions(value));
    } else if (name == "seq") {
      if (!ParseUint64(value, &request.seq)) {
        return InvalidArgumentError("poll seq is not an unsigned integer");
      }
    } else if (name == "timeouts") {
      if (!ParseUint64(value, &request.timeouts)) {
        return InvalidArgumentError("poll timeouts is not an unsigned integer");
      }
    } else if (name == "resync") {
      request.resync = value == "1";
    } else if (name == "patch") {
      request.patch = value == "1";
    } else if (name == "trace") {
      request.trace = value;
    } else if (name == "stream") {
      // A malformed or out-of-range level reads as absent: classic polling.
      uint64_t stream = 0;
      request.stream = ParseUint64(value, &stream) && stream <= UINT32_MAX
                           ? static_cast<uint32_t>(stream)
                           : 0;
    }
  }
  if (!have_pid || !have_ts) {
    return InvalidArgumentError("poll request missing pid/ts");
  }
  return request;
}

bool VerifyRequestMac(std::string_view key, const HttpRequest& request) {
  if (key.empty()) {
    return true;
  }
  std::string provided;
  std::vector<std::pair<std::string, std::string>> rest;
  for (auto& [name, value] : ParseFormUrlEncodedOrdered(request.QueryString())) {
    if (name == "hmac") {
      provided = std::move(value);
    } else {
      rest.emplace_back(std::move(name), std::move(value));
    }
  }
  if (provided.empty()) {
    return false;
  }
  std::string message = std::string(HttpMethodName(request.method)) + " " +
                        request.Path();
  if (!rest.empty()) {
    message += "?" + EncodeFormUrlEncoded(rest);
  }
  message += "\n";
  message += request.body;
  return ConstantTimeEquals(HmacSha256Hex(key, message), provided);
}

}  // namespace rcb
