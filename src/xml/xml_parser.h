// Small DOM-style XML parser for the Fig. 4 response payloads.
//
// Ajax-Snippet receives an "application/xml" body (responseXML in the paper)
// and walks it as a tree: newContent -> docTime / docContent / userActions.
// This parser supports exactly the XML subset our writer emits: elements,
// attributes, text with the five standard entities, and CDATA sections.
// It rejects malformed input with a Status rather than guessing.
#ifndef SRC_XML_XML_PARSER_H_
#define SRC_XML_XML_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace rcb {

struct XmlNode {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;  // concatenated character data + CDATA, in document order
  std::vector<std::unique_ptr<XmlNode>> children;

  // First child with the given element name, or nullptr.
  const XmlNode* FindChild(std::string_view child_name) const;
  XmlNode* FindChild(std::string_view child_name);

  // All children with the given element name.
  std::vector<const XmlNode*> FindChildren(std::string_view child_name) const;

  // Attribute lookup; returns empty view if absent.
  std::string_view Attr(std::string_view attr_name) const;
};

// Parses a complete XML document, returning its root element.
StatusOr<std::unique_ptr<XmlNode>> ParseXml(std::string_view input);

}  // namespace rcb

#endif  // SRC_XML_XML_PARSER_H_
