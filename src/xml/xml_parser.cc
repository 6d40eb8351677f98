#include "src/xml/xml_parser.h"

#include <cctype>
#include <utility>

#include "src/util/escape.h"
#include "src/util/strings.h"

namespace rcb {

const XmlNode* XmlNode::FindChild(std::string_view child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) {
      return child.get();
    }
  }
  return nullptr;
}

XmlNode* XmlNode::FindChild(std::string_view child_name) {
  return const_cast<XmlNode*>(std::as_const(*this).FindChild(child_name));
}

std::vector<const XmlNode*> XmlNode::FindChildren(std::string_view child_name) const {
  std::vector<const XmlNode*> out;
  for (const auto& child : children) {
    if (child->name == child_name) {
      out.push_back(child.get());
    }
  }
  return out;
}

std::string_view XmlNode::Attr(std::string_view attr_name) const {
  for (const auto& [name, value] : attributes) {
    if (name == attr_name) {
      return value;
    }
  }
  return {};
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  StatusOr<std::unique_ptr<XmlNode>> Parse() {
    SkipProlog();
    RCB_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseElement());
    SkipWhitespace();
    if (pos_ != input_.size()) {
      return InvalidArgumentError("trailing content after XML root element");
    }
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Consume(std::string_view token) {
    if (input_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  void SkipProlog() {
    SkipWhitespace();
    if (Consume("<?")) {
      size_t end = input_.find("?>", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    }
    SkipWhitespace();
    // Skip comments between prolog and root.
    while (Consume("<!--")) {
      size_t end = input_.find("-->", pos_);
      pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
      SkipWhitespace();
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
           c == ':' || c == '.';
  }

  StatusOr<std::string> ParseName() {
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) {
      ++pos_;
    }
    if (pos_ == start) {
      return InvalidArgumentError(
          StrFormat("expected XML name at offset %zu", start));
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  Status ParseAttributes(XmlNode* node) {
    while (true) {
      SkipWhitespace();
      if (AtEnd()) {
        return InvalidArgumentError("unterminated start tag");
      }
      if (Peek() == '>' || Peek() == '/') {
        return Status::Ok();
      }
      RCB_ASSIGN_OR_RETURN(std::string name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) {
        return InvalidArgumentError("attribute missing '='");
      }
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return InvalidArgumentError("attribute value not quoted");
      }
      char quote = Peek();
      ++pos_;
      size_t end = input_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return InvalidArgumentError("unterminated attribute value");
      }
      node->attributes.emplace_back(std::move(name),
                                    HtmlUnescape(input_.substr(pos_, end - pos_)));
      pos_ = end + 1;
    }
  }

  StatusOr<std::unique_ptr<XmlNode>> ParseElement() {
    if (!Consume("<")) {
      return InvalidArgumentError("expected '<' to open element");
    }
    auto node = std::make_unique<XmlNode>();
    RCB_ASSIGN_OR_RETURN(node->name, ParseName());
    RCB_RETURN_IF_ERROR(ParseAttributes(node.get()));
    if (Consume("/>")) {
      return node;
    }
    if (!Consume(">")) {
      return InvalidArgumentError("malformed start tag for <" + node->name + ">");
    }
    // Content loop.
    while (true) {
      if (AtEnd()) {
        return InvalidArgumentError("unexpected end inside <" + node->name + ">");
      }
      if (Consume("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return InvalidArgumentError("unterminated CDATA section");
        }
        node->text.append(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (Consume("<!--")) {
        size_t end = input_.find("-->", pos_);
        if (end == std::string_view::npos) {
          return InvalidArgumentError("unterminated comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (input_.substr(pos_, 2) == "</") {
        pos_ += 2;
        RCB_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != node->name) {
          return InvalidArgumentError("mismatched close tag </" + close_name +
                                      "> for <" + node->name + ">");
        }
        SkipWhitespace();
        if (!Consume(">")) {
          return InvalidArgumentError("malformed close tag");
        }
        return node;
      }
      if (Peek() == '<') {
        RCB_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child, ParseElement());
        node->children.push_back(std::move(child));
        continue;
      }
      // Character data until the next markup.
      size_t end = input_.find('<', pos_);
      if (end == std::string_view::npos) {
        return InvalidArgumentError("unexpected end in character data");
      }
      node->text.append(HtmlUnescape(input_.substr(pos_, end - pos_)));
      pos_ = end;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<std::unique_ptr<XmlNode>> ParseXml(std::string_view input) {
  return Parser(input).Parse();
}

}  // namespace rcb
