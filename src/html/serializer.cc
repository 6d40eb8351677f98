#include "src/html/serializer.h"

#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb {
namespace {

void SerializeInto(const Node& node, std::string* out);

void SerializeChildrenInto(const Node& node, std::string* out,
                           bool raw_text_parent) {
  for (const auto& child : node.children()) {
    if (raw_text_parent && child->type() == NodeType::kText) {
      // Script/style content is emitted verbatim.
      out->append(static_cast<const Text*>(child.get())->data());
    } else {
      SerializeInto(*child, out);
    }
  }
}

void SerializeInto(const Node& node, std::string* out) {
  switch (node.type()) {
    case NodeType::kDocument:
      SerializeChildrenInto(node, out, /*raw_text_parent=*/false);
      break;
    case NodeType::kText:
      HtmlEscapeAppend(static_cast<const Text&>(node).data(), out);
      break;
    case NodeType::kComment:
      out->append("<!--");
      out->append(static_cast<const Comment&>(node).data());
      out->append("-->");
      break;
    case NodeType::kDoctype:
      out->append("<!");
      out->append(static_cast<const Doctype&>(node).data());
      out->append(">");
      break;
    case NodeType::kElement: {
      const Element& element = static_cast<const Element&>(node);
      out->push_back('<');
      out->append(element.tag_name());
      for (const auto& [name, value] : element.attributes()) {
        out->push_back(' ');
        out->append(name);
        out->append("=\"");
        HtmlEscapeAppend(value, out);
        out->push_back('"');
      }
      out->push_back('>');
      if (IsVoidElement(element.tag_name())) {
        return;
      }
      SerializeChildrenInto(element, out,
                            HtmlTokenizer::IsRawTextElement(element.tag_name()));
      out->append("</");
      out->append(element.tag_name());
      out->push_back('>');
      break;
    }
  }
}

}  // namespace

std::string SerializeNode(const Node& node) {
  std::string out;
  SerializeInto(node, &out);
  return out;
}

std::string SerializeChildren(const Node& node) {
  std::string out;
  bool raw = false;
  if (const Element* element = node.AsElement()) {
    raw = HtmlTokenizer::IsRawTextElement(element->tag_name());
  }
  SerializeChildrenInto(node, &out, raw);
  return out;
}

}  // namespace rcb
