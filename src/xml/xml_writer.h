// Streaming XML writer producing the "application/xml" payloads of Fig. 4.
//
// The writer is deliberately small: elements, attributes, text, and CDATA
// sections are all RCB needs. CDATA payloads are split on "]]>" per the XML
// spec so arbitrary escaped innerHTML can be carried.
#ifndef SRC_XML_XML_WRITER_H_
#define SRC_XML_XML_WRITER_H_

#include <string>
#include <string_view>
#include <vector>

namespace rcb {

class XmlWriter {
 public:
  XmlWriter();

  // Emits the <?xml version='1.0' encoding='utf-8'?> declaration.
  void WriteDeclaration();

  void StartElement(std::string_view name);
  void WriteAttribute(std::string_view name, std::string_view value);
  void WriteText(std::string_view text);    // XML-escaped
  void WriteCdata(std::string_view data);   // raw, "]]>"-safe
  void EndElement();

  // Convenience: <name>text</name> / <name><![CDATA[data]]></name>.
  void WriteTextElement(std::string_view name, std::string_view text);
  void WriteCdataElement(std::string_view name, std::string_view data);

  // Makes room for `bytes` of output up front, so a document with a large
  // CDATA section is not copied again as it grows past it.
  void Reserve(size_t bytes) { out_.reserve(bytes); }

  // Finishes the document (all elements must be closed) and returns it.
  std::string TakeString();

  // Number of currently open elements.
  size_t depth() const { return open_.size(); }

 private:
  void CloseStartTagIfOpen();

  std::string out_;
  std::vector<std::string> open_;
  bool start_tag_open_ = false;
};

}  // namespace rcb

#endif  // SRC_XML_XML_WRITER_H_
