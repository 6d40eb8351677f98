#include "src/delta/patch_codec.h"

#include "src/http/form.h"
#include "src/util/escape.h"
#include "src/util/strings.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace rcb::delta {
namespace {

// Sanity caps applied while decoding: far above anything a real diff
// produces, low enough that garbage op lists cannot drive quadratic work or
// absurd allocations in the applier.
constexpr size_t kMaxPathDepth = 512;
constexpr uint64_t kMaxIndex = 1000000;

bool ParseBoundedUint32(std::string_view s, uint32_t* out) {
  uint64_t value = 0;
  if (!ParseUint64(s, &value) || value > kMaxIndex) {
    return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

Status ParsePath(std::string_view encoded, std::vector<uint32_t>* out) {
  out->clear();
  if (encoded.empty()) {
    return Status::Ok();
  }
  for (const auto& part : StrSplit(encoded, '.')) {
    uint32_t component = 0;
    if (!ParseBoundedUint32(part, &component)) {
      return InvalidArgumentError("bad patch path component: " + part);
    }
    out->push_back(component);
    if (out->size() > kMaxPathDepth) {
      return InvalidArgumentError("patch path too deep");
    }
  }
  return Status::Ok();
}

std::string EncodePath(const std::vector<uint32_t>& path) {
  std::vector<std::string> parts;
  parts.reserve(path.size());
  for (uint32_t component : path) {
    parts.push_back(StrFormat("%u", component));
  }
  return StrJoin(parts, ".");
}

bool ValidAttributeName(std::string_view name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_' || c == ':' ||
              c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ValidHexDigest(std::string_view digest) {
  if (digest.size() != 64) {
    return false;
  }
  for (char c : digest) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
      return false;
    }
  }
  return true;
}

// Field-presence bits used to decode ops strictly: every field may appear at
// most once, and only the fields meaningful for the op type may appear at
// all. Anything looser would make decoding lossy — extraneous fields would
// parse into the op but be dropped on re-encode, so a patch would no longer
// round-trip through its own codec.
enum FieldBit : uint32_t {
  kFieldOp = 1u << 0,
  kFieldPath = 1u << 1,
  kFieldIndex = 1u << 2,
  kFieldFrom = 1u << 3,
  kFieldTo = 1u << 4,
  kFieldName = 1u << 5,
  kFieldValue = 1u << 6,
  kFieldHtml = 1u << 7,
};

uint32_t RequiredFieldsFor(PatchOpType type) {
  switch (type) {
    case PatchOpType::kInsert:
      return kFieldIndex | kFieldHtml;
    case PatchOpType::kRemove:
      return kFieldIndex;
    case PatchOpType::kMove:
      return kFieldFrom | kFieldTo;
    case PatchOpType::kReplace:
      return kFieldHtml;
    case PatchOpType::kSetAttr:
      return kFieldName | kFieldValue;
    case PatchOpType::kRemoveAttr:
      return kFieldName;
    case PatchOpType::kSetText:
      return kFieldValue;
  }
  return 0;
}

// Per-op structural validation after field parsing.
Status ValidateOp(const PatchOp& op) {
  switch (op.type) {
    case PatchOpType::kInsert:
    case PatchOpType::kReplace:
      if (op.html.empty()) {
        return InvalidArgumentError("patch op missing html payload");
      }
      break;
    case PatchOpType::kMove:
      if (op.from < op.to) {
        return InvalidArgumentError("patch move must be backward (from >= to)");
      }
      break;
    case PatchOpType::kSetAttr:
    case PatchOpType::kRemoveAttr:
      if (!ValidAttributeName(op.name)) {
        return InvalidArgumentError("bad patch attribute name: " + op.name);
      }
      break;
    case PatchOpType::kRemove:
    case PatchOpType::kSetText:
      break;
  }
  return Status::Ok();
}

}  // namespace

std::string_view PatchOpTypeName(PatchOpType type) {
  switch (type) {
    case PatchOpType::kInsert:
      return "insert";
    case PatchOpType::kRemove:
      return "remove";
    case PatchOpType::kMove:
      return "move";
    case PatchOpType::kReplace:
      return "replace";
    case PatchOpType::kSetAttr:
      return "setattr";
    case PatchOpType::kRemoveAttr:
      return "rmattr";
    case PatchOpType::kSetText:
      return "settext";
  }
  return "insert";
}

StatusOr<PatchOpType> ParsePatchOpType(std::string_view name) {
  if (name == "insert") {
    return PatchOpType::kInsert;
  }
  if (name == "remove") {
    return PatchOpType::kRemove;
  }
  if (name == "move") {
    return PatchOpType::kMove;
  }
  if (name == "replace") {
    return PatchOpType::kReplace;
  }
  if (name == "setattr") {
    return PatchOpType::kSetAttr;
  }
  if (name == "rmattr") {
    return PatchOpType::kRemoveAttr;
  }
  if (name == "settext") {
    return PatchOpType::kSetText;
  }
  return InvalidArgumentError("unknown patch op: " + std::string(name));
}

std::string EncodePatchOps(const std::vector<PatchOp>& ops) {
  std::vector<std::string> lines;
  lines.reserve(ops.size());
  for (const PatchOp& op : ops) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.emplace_back("op", std::string(PatchOpTypeName(op.type)));
    if (!op.path.empty()) {
      fields.emplace_back("path", EncodePath(op.path));
    }
    switch (op.type) {
      case PatchOpType::kInsert:
        fields.emplace_back("index", StrFormat("%u", op.index));
        fields.emplace_back("html", op.html);
        break;
      case PatchOpType::kRemove:
        fields.emplace_back("index", StrFormat("%u", op.index));
        break;
      case PatchOpType::kMove:
        fields.emplace_back("from", StrFormat("%u", op.from));
        fields.emplace_back("to", StrFormat("%u", op.to));
        break;
      case PatchOpType::kReplace:
        fields.emplace_back("html", op.html);
        break;
      case PatchOpType::kSetAttr:
        fields.emplace_back("name", op.name);
        fields.emplace_back("value", op.value);
        break;
      case PatchOpType::kRemoveAttr:
        fields.emplace_back("name", op.name);
        break;
      case PatchOpType::kSetText:
        fields.emplace_back("value", op.value);
        break;
    }
    lines.push_back(EncodeFormUrlEncoded(fields));
  }
  return StrJoin(lines, "\n");
}

StatusOr<std::vector<PatchOp>> DecodePatchOps(std::string_view encoded) {
  std::vector<PatchOp> ops;
  if (StripWhitespace(encoded).empty()) {
    return ops;
  }
  for (const auto& line : StrSplit(encoded, '\n')) {
    if (line.empty()) {
      continue;
    }
    PatchOp op;
    uint32_t seen = 0;
    for (const auto& [name, value] : ParseFormUrlEncodedOrdered(line)) {
      uint32_t bit = 0;
      if (name == "op") {
        bit = kFieldOp;
        RCB_ASSIGN_OR_RETURN(op.type, ParsePatchOpType(value));
      } else if (name == "path") {
        bit = kFieldPath;
        RCB_RETURN_IF_ERROR(ParsePath(value, &op.path));
      } else if (name == "index") {
        bit = kFieldIndex;
        if (!ParseBoundedUint32(value, &op.index)) {
          return InvalidArgumentError("bad patch index: " + value);
        }
      } else if (name == "from") {
        bit = kFieldFrom;
        if (!ParseBoundedUint32(value, &op.from)) {
          return InvalidArgumentError("bad patch from: " + value);
        }
      } else if (name == "to") {
        bit = kFieldTo;
        if (!ParseBoundedUint32(value, &op.to)) {
          return InvalidArgumentError("bad patch to: " + value);
        }
      } else if (name == "name") {
        bit = kFieldName;
        op.name = value;
      } else if (name == "value") {
        bit = kFieldValue;
        op.value = value;
      } else if (name == "html") {
        bit = kFieldHtml;
        op.html = value;
      } else {
        return InvalidArgumentError("unknown patch op field: " + name);
      }
      if (seen & bit) {
        return InvalidArgumentError("duplicate patch op field: " + name);
      }
      seen |= bit;
    }
    if (!(seen & kFieldOp)) {
      return InvalidArgumentError("patch op line missing op: " + line);
    }
    const uint32_t required = RequiredFieldsFor(op.type);
    const uint32_t allowed = required | kFieldOp | kFieldPath;
    if ((seen & required) != required || (seen & ~allowed) != 0) {
      return InvalidArgumentError("patch op fields do not match type: " + line);
    }
    RCB_RETURN_IF_ERROR(ValidateOp(op));
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string SerializePatchXml(const PatchEnvelope& envelope) {
  const Patch& patch = envelope.patch;
  XmlWriter writer;
  writer.WriteDeclaration();
  writer.StartElement("newPatch");
  writer.WriteTextElement("version", StrFormat("%d", patch.version));
  writer.WriteTextElement(
      "baseTime",
      StrFormat("%lld", static_cast<long long>(patch.base_doc_time_ms)));
  writer.WriteTextElement(
      "docTime",
      StrFormat("%lld", static_cast<long long>(patch.target_doc_time_ms)));
  writer.WriteTextElement("baseDigest", patch.base_digest);
  writer.WriteTextElement("docDigest", patch.target_digest);
  writer.WriteCdataElement("patchOps", JsEscape(EncodePatchOps(patch.ops)));
  if (!envelope.user_actions.empty()) {
    writer.WriteCdataElement("userActions",
                             JsEscape(EncodeActions(envelope.user_actions)));
  }
  writer.EndElement();  // newPatch
  return writer.TakeString();
}

StatusOr<PatchEnvelope> ParsePatchXml(std::string_view xml) {
  RCB_ASSIGN_OR_RETURN(auto root, ParseXml(xml));
  if (root->name != "newPatch") {
    return InvalidArgumentError("expected newPatch root, got " + root->name);
  }
  PatchEnvelope envelope;
  Patch& patch = envelope.patch;
  const XmlNode* version = root->FindChild("version");
  if (version == nullptr) {
    return InvalidArgumentError("patch missing version");
  }
  int64_t format = 0;
  if (!ParseInt64(version->text, &format) || format != kPatchFormatVersion) {
    return InvalidArgumentError("unsupported patch version: " + version->text);
  }
  const XmlNode* base_time = root->FindChild("baseTime");
  const XmlNode* doc_time = root->FindChild("docTime");
  if (base_time == nullptr || doc_time == nullptr) {
    return InvalidArgumentError("patch missing baseTime/docTime");
  }
  if (!ParseInt64(base_time->text, &patch.base_doc_time_ms) ||
      !ParseInt64(doc_time->text, &patch.target_doc_time_ms)) {
    return InvalidArgumentError("patch baseTime/docTime is not an integer");
  }
  const XmlNode* base_digest = root->FindChild("baseDigest");
  const XmlNode* doc_digest = root->FindChild("docDigest");
  if (base_digest == nullptr || doc_digest == nullptr) {
    return InvalidArgumentError("patch missing digests");
  }
  if (!ValidHexDigest(base_digest->text) || !ValidHexDigest(doc_digest->text)) {
    return InvalidArgumentError("patch digest is not 64 hex chars");
  }
  patch.base_digest = base_digest->text;
  patch.target_digest = doc_digest->text;
  if (const XmlNode* ops = root->FindChild("patchOps")) {
    RCB_ASSIGN_OR_RETURN(patch.ops, DecodePatchOps(JsUnescape(ops->text)));
  }
  if (const XmlNode* actions = root->FindChild("userActions")) {
    RCB_ASSIGN_OR_RETURN(envelope.user_actions,
                         DecodeActions(JsUnescape(actions->text)));
  }
  return envelope;
}

bool LooksLikePatchXml(std::string_view body) {
  return body.substr(0, 256).find("<newPatch>") != std::string_view::npos;
}

}  // namespace rcb::delta
