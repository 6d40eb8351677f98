// HTML tokenizer.
//
// Produces a flat token stream (start tags with attributes, end tags, text,
// comments, doctype) from HTML source. Raw-text elements (script, style,
// textarea, title) swallow their content verbatim until the matching close
// tag, which is what lets RCB ship inline JavaScript through innerHTML
// without executing or corrupting it (§4.2.2).
#ifndef SRC_HTML_TOKENIZER_H_
#define SRC_HTML_TOKENIZER_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rcb {

struct HtmlToken {
  enum class Type { kStartTag, kEndTag, kText, kComment, kDoctype, kEndOfFile };

  Type type = Type::kEndOfFile;
  std::string tag_name;  // lowercase, for tag tokens
  bool self_closing = false;
  std::string data;  // text/comment/doctype payload
  // Start-tag attributes (lowercase names, source order, duplicates kept):
  // the first `attribute_count` slots. Slots past the count are spare and
  // keep their strings' capacity for the next tag.
  std::vector<std::pair<std::string, std::string>> attribute_slots;
  size_t attribute_count = 0;

  std::span<const std::pair<std::string, std::string>> attributes() const {
    return {attribute_slots.data(), attribute_count};
  }
};

class HtmlTokenizer {
 public:
  explicit HtmlTokenizer(std::string_view input) : input_(input) {}

  // Overwrites `*token` with the next token (kEndOfFile forever once
  // exhausted). Reusing one token across calls reuses its strings' and
  // vector's capacity.
  void Next(HtmlToken* token);

  // Offset of the next token in the input: where the token Next() returns
  // starts when called before it, and where it ended when called after.
  size_t pos() const { return pos_; }
  // True when the last token ran into the end of the input before its
  // terminator (an unclosed comment, tag or raw-text run): in a longer input
  // it would have read on.
  bool truncated() const { return truncated_; }

  // True for elements whose content is raw text (no markup inside).
  static bool IsRawTextElement(std::string_view tag);

 private:
  void LexTag(HtmlToken* token);
  void LexComment(HtmlToken* token);
  void LexDoctypeOrBogus(HtmlToken* token);
  void LexText(HtmlToken* token);
  void LexRawText(HtmlToken* token);
  void LexAttributes(HtmlToken* token);

  std::string_view input_;
  size_t pos_ = 0;
  bool truncated_ = false;
  // Set after a raw-text start tag; the next token is its text content.
  std::string pending_raw_text_tag_;
};

}  // namespace rcb

#endif  // SRC_HTML_TOKENIZER_H_
