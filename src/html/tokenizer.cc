#include "src/html/tokenizer.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>

#include "src/util/escape.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

// Byte classes for the scanning loops, one table lookup per byte:
// whitespace (C-locale isspace), tag-name bytes ([A-Za-z0-9:-]) and bytes
// that end an attribute name (whitespace and = > / " ').
enum : uint8_t { kSpace = 1, kTagName = 2, kAttrNameEnd = 4 };
constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> table{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) {
    table[c] |= kSpace | kAttrNameEnd;
  }
  for (unsigned char c : std::string_view("=>/\"'")) {
    table[c] |= kAttrNameEnd;
  }
  for (int c = 0; c < 256; ++c) {
    if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
        (c >= 'A' && c <= 'Z') || c == '-' || c == ':') {
      table[c] |= kTagName;
    }
  }
  return table;
}();

bool Is(char c, uint8_t byte_class) {
  return (kByteClass[static_cast<unsigned char>(c)] & byte_class) != 0;
}

void AsciiLowerInPlace(std::string* s) {
  for (char& c : *s) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
}

}  // namespace

bool HtmlTokenizer::IsRawTextElement(std::string_view tag) {
  return tag == "script" || tag == "style" || tag == "textarea" || tag == "title";
}

void HtmlTokenizer::Next(HtmlToken* token) {
  token->type = HtmlToken::Type::kEndOfFile;
  token->tag_name.clear();
  token->self_closing = false;
  token->data.clear();
  token->attribute_count = 0;
  truncated_ = false;
  if (!pending_raw_text_tag_.empty()) {
    LexRawText(token);
    pending_raw_text_tag_.clear();
    return;
  }
  if (pos_ >= input_.size()) {
    return;
  }
  if (input_[pos_] == '<') {
    if (input_.substr(pos_, 4) == "<!--") {
      return LexComment(token);
    }
    if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '!') {
      return LexDoctypeOrBogus(token);
    }
    if (pos_ + 1 < input_.size() &&
        (std::isalpha(static_cast<unsigned char>(input_[pos_ + 1])) ||
         input_[pos_ + 1] == '/')) {
      return LexTag(token);
    }
    // Stray '<' treated as text.
  }
  LexText(token);
}

void HtmlTokenizer::LexText(HtmlToken* token) {
  // Text runs to the first '<' that opens markup (a stray '<' at pos_ never
  // does: Next() lexes markup itself).
  size_t end = input_.size();
  for (size_t lt = input_.find('<', pos_); lt != std::string_view::npos;
       lt = input_.find('<', lt + 1)) {
    if (lt + 1 < input_.size() &&
        (std::isalpha(static_cast<unsigned char>(input_[lt + 1])) ||
         input_[lt + 1] == '/' || input_[lt + 1] == '!')) {
      end = lt;
      break;
    }
  }
  token->type = HtmlToken::Type::kText;
  HtmlUnescapeInto(input_.substr(pos_, end - pos_), &token->data);
  pos_ = end;
}

void HtmlTokenizer::LexComment(HtmlToken* token) {
  pos_ += 4;  // consume "<!--"
  size_t end = input_.find("-->", pos_);
  token->type = HtmlToken::Type::kComment;
  if (end == std::string_view::npos) {
    token->data.assign(input_.substr(pos_));
    pos_ = input_.size();
    truncated_ = true;
  } else {
    token->data.assign(input_.substr(pos_, end - pos_));
    pos_ = end + 3;
  }
}

void HtmlTokenizer::LexDoctypeOrBogus(HtmlToken* token) {
  // "<!DOCTYPE ...>" or any other "<!...>" construct.
  size_t end = input_.find('>', pos_);
  token->type = HtmlToken::Type::kDoctype;
  if (end == std::string_view::npos) {
    token->data.assign(input_.substr(pos_ + 2));
    pos_ = input_.size();
    truncated_ = true;
  } else {
    token->data.assign(input_.substr(pos_ + 2, end - pos_ - 2));
    pos_ = end + 1;
  }
}

void HtmlTokenizer::LexTag(HtmlToken* token) {
  ++pos_;  // consume '<'
  if (input_[pos_] == '/') {
    token->type = HtmlToken::Type::kEndTag;
    ++pos_;
  } else {
    token->type = HtmlToken::Type::kStartTag;
  }
  size_t name_start = pos_;
  while (pos_ < input_.size() && Is(input_[pos_], kTagName)) {
    ++pos_;
  }
  token->tag_name.assign(input_.substr(name_start, pos_ - name_start));
  AsciiLowerInPlace(&token->tag_name);

  if (token->type == HtmlToken::Type::kStartTag) {
    LexAttributes(token);
  } else {
    // Skip anything up to '>'.
    while (pos_ < input_.size() && input_[pos_] != '>') {
      ++pos_;
    }
  }
  if (pos_ < input_.size() && input_[pos_] == '>') {
    ++pos_;
  } else {
    truncated_ = true;
  }
  if (token->type == HtmlToken::Type::kStartTag && !token->self_closing &&
      IsRawTextElement(token->tag_name)) {
    pending_raw_text_tag_ = token->tag_name;
  }
}

void HtmlTokenizer::LexAttributes(HtmlToken* token) {
  while (pos_ < input_.size()) {
    while (pos_ < input_.size() &&
           Is(input_[pos_], kSpace)) {
      ++pos_;
    }
    if (pos_ >= input_.size()) {
      return;
    }
    if (input_[pos_] == '>') {
      return;
    }
    if (input_[pos_] == '/') {
      ++pos_;
      // "/>" marks self-closing; a stray '/' is skipped.
      if (pos_ < input_.size() && input_[pos_] == '>') {
        token->self_closing = true;
        return;
      }
      continue;
    }
    size_t name_start = pos_;
    while (pos_ < input_.size() && !Is(input_[pos_], kAttrNameEnd)) {
      ++pos_;
    }
    if (pos_ == name_start) {
      ++pos_;  // defensive: never stall
      continue;
    }
    if (token->attribute_count == token->attribute_slots.size()) {
      token->attribute_slots.emplace_back();
    }
    auto& [name, value] = token->attribute_slots[token->attribute_count++];
    name.assign(input_.substr(name_start, pos_ - name_start));
    AsciiLowerInPlace(&name);
    value.clear();
    while (pos_ < input_.size() &&
           Is(input_[pos_], kSpace)) {
      ++pos_;
    }
    if (pos_ < input_.size() && input_[pos_] == '=') {
      ++pos_;
      while (pos_ < input_.size() &&
             Is(input_[pos_], kSpace)) {
        ++pos_;
      }
      if (pos_ < input_.size() && (input_[pos_] == '"' || input_[pos_] == '\'')) {
        char quote = input_[pos_++];
        size_t value_start = pos_;
        pos_ = std::min(input_.find(quote, pos_), input_.size());
        HtmlUnescapeInto(input_.substr(value_start, pos_ - value_start), &value);
        if (pos_ < input_.size()) {
          ++pos_;  // closing quote
        }
      } else {
        size_t value_start = pos_;
        while (pos_ < input_.size() &&
               !Is(input_[pos_], kSpace) &&
               input_[pos_] != '>') {
          ++pos_;
        }
        HtmlUnescapeInto(input_.substr(value_start, pos_ - value_start), &value);
      }
    }
  }
}

void HtmlTokenizer::LexRawText(HtmlToken* token) {
  // Scan for "</tag" case-insensitively.
  const std::string& tag = pending_raw_text_tag_;
  size_t found = std::string_view::npos;
  for (size_t lt = input_.find("</", pos_); lt != std::string_view::npos;
       lt = input_.find("</", lt + 1)) {
    if (lt + 2 + tag.size() > input_.size()) {
      break;
    }
    if (EqualsIgnoreCase(input_.substr(lt + 2, tag.size()), tag)) {
      found = lt;
      break;
    }
  }
  token->type = HtmlToken::Type::kText;
  if (found == std::string_view::npos) {
    token->data.assign(input_.substr(pos_));
    pos_ = input_.size();
    truncated_ = true;
  } else {
    token->data.assign(input_.substr(pos_, found - pos_));
    pos_ = found;  // the end tag is lexed by the next Next() call
  }
}

}  // namespace rcb
