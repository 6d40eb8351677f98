// HTML serialization (outerHTML / innerHTML string production).
#ifndef SRC_HTML_SERIALIZER_H_
#define SRC_HTML_SERIALIZER_H_

#include <string>

#include "src/html/dom.h"

namespace rcb {

// Serializes a node and its subtree (outerHTML for elements).
std::string SerializeNode(const Node& node);

// Serializes only the children (innerHTML).
std::string SerializeChildren(const Node& node);

}  // namespace rcb

#endif  // SRC_HTML_SERIALIZER_H_
