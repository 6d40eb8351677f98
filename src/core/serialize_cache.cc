#include "src/core/serialize_cache.h"

#include <algorithm>
#include <utility>

#include "src/core/content_generator.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/util/escape.h"

namespace rcb {

// The raw side of this walk must stay byte-for-byte the serializer's
// (src/html/serializer.cc SerializeInto); serialize_cache_test pins the two
// together over the corpus and random mutation schedules.

void SerializeCache::AppendChildrenHtml(const Element& element,
                                        uint64_t config_fingerprint,
                                        AttributeRewriter* rewriter,
                                        size_t* interactive_counter,
                                        std::string* raw,
                                        std::string* escaped) {
  const bool raw_text =
      HtmlTokenizer::IsRawTextElement(element.tag_name());
  const auto& children = element.children();
  for (size_t i = 0; i < children.size(); ++i) {
    // Start loading the next child's index slot while this child is
    // serialized, so consecutive lookups do not each wait on memory.
    if (i + 1 < children.size() && !index_.empty()) {
      const Key next{children[i + 1]->rev(), config_fingerprint};
      __builtin_prefetch(&index_[KeyHash{}(next) & (index_.size() - 1)]);
    }
    AppendNode(*children[i], raw_text, config_fingerprint, rewriter,
               interactive_counter, raw, escaped);
  }
}

void SerializeCache::AppendNode(const Node& node, bool raw_text_parent,
                                uint64_t fingerprint,
                                AttributeRewriter* rewriter, size_t* counter,
                                std::string* raw, std::string* escaped) {
  switch (node.type()) {
    case NodeType::kDocument:
      for (const auto& child : node.children()) {
        AppendNode(*child, /*raw_text_parent=*/false, fingerprint, rewriter,
                   counter, raw, escaped);
      }
      break;
    case NodeType::kText: {
      // Large text spans are cached too: a big text node (or the padding
      // comment below) can sit directly under <body>, whose own span misses
      // on every update — without this, its escape cost would be paid per
      // update. Text carries no data-rcb-ids, so hits ignore the counter.
      // Spans under the size floor skip the cache entirely (no lookup, no
      // stats): they are cheaper to re-serialize than to hash.
      const std::string& data = static_cast<const Text&>(node).data();
      const bool cacheable = data.size() >= kMinSpanBytes;
      const Key key{node.rev(), fingerprint};
      if (cacheable && TryAppendHit(key, counter, raw, escaped)) {
        break;
      }
      const size_t raw_start = raw->size();
      const size_t escaped_start = escaped->size();
      if (raw_text_parent) {
        raw->append(data);  // script/style content is emitted verbatim
      } else {
        HtmlEscapeAppend(data, raw);
      }
      JsEscapeAppend(std::string_view(*raw).substr(raw_start), escaped);
      if (cacheable) {
        RecordMissSpan(node, key, raw_start, escaped_start, *counter, counter,
                       raw, escaped);
      }
      break;
    }
    case NodeType::kComment: {
      const std::string& data = static_cast<const Comment&>(node).data();
      const bool cacheable = data.size() >= kMinSpanBytes;
      const Key key{node.rev(), fingerprint};
      if (cacheable && TryAppendHit(key, counter, raw, escaped)) {
        break;
      }
      const size_t raw_start = raw->size();
      const size_t escaped_start = escaped->size();
      raw->append("<!--");
      raw->append(data);
      raw->append("-->");
      JsEscapeAppend(std::string_view(*raw).substr(raw_start), escaped);
      if (cacheable) {
        RecordMissSpan(node, key, raw_start, escaped_start, *counter, counter,
                       raw, escaped);
      }
      break;
    }
    case NodeType::kDoctype: {
      size_t start = raw->size();
      raw->append("<!");
      raw->append(static_cast<const Doctype&>(node).data());
      raw->append(">");
      JsEscapeAppend(std::string_view(*raw).substr(start), escaped);
      break;
    }
    case NodeType::kElement:
      AppendElement(static_cast<const Element&>(node), fingerprint, rewriter,
                    counter, raw, escaped);
      break;
  }
}

void SerializeCache::AppendElement(const Element& element,
                                   uint64_t fingerprint,
                                   AttributeRewriter* rewriter,
                                   size_t* counter, std::string* raw,
                                   std::string* escaped) {
  const Key key{element.rev(), fingerprint};
  if (TryAppendHit(key, counter, raw, escaped)) {
    return;
  }
  // Miss (or an id-shifted entry, which will be overwritten with the current
  // numbering): rewrite and serialize this subtree, then keep the produced
  // spans.
  const size_t raw_start = raw->size();
  const size_t escaped_start = escaped->size();
  const size_t id_base = *counter;
  if (ContentGenerator::IsInteractive(element)) {
    ++*counter;
  }
  {
    AttributeList rewritten;
    const AttributeList& attributes =
        rewriter->Rewrite(element, id_base, &rewritten) ? rewritten
                                                        : element.attributes();
    size_t tag_start = raw->size();
    raw->push_back('<');
    raw->append(element.tag_name());
    for (const auto& [name, value] : attributes) {
      raw->push_back(' ');
      raw->append(name);
      raw->append("=\"");
      HtmlEscapeAppend(value, raw);
      raw->push_back('"');
    }
    raw->push_back('>');
    JsEscapeAppend(std::string_view(*raw).substr(tag_start), escaped);
  }
  if (!IsVoidElement(element.tag_name())) {
    AppendChildrenHtml(element, fingerprint, rewriter, counter, raw, escaped);
    size_t close_start = raw->size();
    raw->append("</");
    raw->append(element.tag_name());
    raw->push_back('>');
    JsEscapeAppend(std::string_view(*raw).substr(close_start), escaped);
  }
  RecordMissSpan(element, key, raw_start, escaped_start, id_base, counter,
                 raw, escaped);
}

size_t SerializeCache::Probe(const Key& key) const {
  const size_t mask = index_.size() - 1;
  size_t pos = KeyHash{}(key) & mask;
  while (index_[pos].entry != kNoEntry && !(index_[pos].key == key)) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

SerializeCache::Entry* SerializeCache::Find(const Key& key) {
  if (index_.empty()) {
    return nullptr;
  }
  const Slot& slot = index_[Probe(key)];
  return slot.entry == kNoEntry ? nullptr : &entries_[slot.entry];
}

void SerializeCache::EraseSlot(size_t pos) {
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; index_[next].entry != kNoEntry;
       next = (next + 1) & mask) {
    // The slot at `next` may fill the hole when the hole lies in its probe
    // run, from its home slot up to it.
    const size_t home = KeyHash{}(index_[next].key) & mask;
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = Slot{};
  --index_used_;
}

bool SerializeCache::TryAppendHit(const Key& key, size_t* counter,
                                  std::string* raw, std::string* escaped) {
  Entry* found = Find(key);
  if (found == nullptr) {
    return false;
  }
  Entry& entry = *found;
  // A span containing no interactive elements embeds no data-rcb-ids, so its
  // bytes are independent of the counter; only id-bearing spans must match.
  if (entry.interactive_count != 0 && entry.id_base != *counter) {
    return false;
  }
  raw->append(entry.raw);
  escaped->append(entry.escaped);
  *counter += entry.interactive_count;
  ++stats_.hits;
  stats_.hit_bytes += entry.raw.size();
  lru_.splice(lru_.begin(), lru_, entry.lru);
  return true;
}

void SerializeCache::RecordMissSpan(const Node& node, const Key& key,
                                    size_t raw_start, size_t escaped_start,
                                    size_t id_base, const size_t* counter,
                                    const std::string* raw,
                                    const std::string* escaped) {
  ++stats_.misses;
  const size_t span_bytes = raw->size() - raw_start;
  stats_.miss_bytes += span_bytes;
  if (span_bytes < kMinSpanBytes || span_bytes > kBudgetBytes) {
    return;
  }
  Entry entry;
  entry.raw = raw->substr(raw_start);
  entry.escaped = escaped->substr(escaped_start);
  entry.id_base = id_base;
  entry.interactive_count = *counter - id_base;
  entry.node = &node;
  Insert(key, std::move(entry));
}

void SerializeCache::Insert(Key key, Entry entry) {
  // Same subtree state re-serialized under a shifted id_base: replace. The
  // node restamped since its last span: that span is superseded.
  Erase(key);
  auto [newest, fresh] = key_of_node_.try_emplace(entry.node, key);
  if (!fresh) {
    if (newest->second.fingerprint == key.fingerprint) {
      Erase(newest->second);
    }
    newest->second = key;
  }
  stats_.bytes += entry.raw.size() + entry.escaped.size();
  ++stats_.spans;
  lru_.push_front(key);
  entry.lru = lru_.begin();
  uint32_t number;
  if (free_entries_.empty()) {
    number = static_cast<uint32_t>(entries_.size());
    entries_.push_back(std::move(entry));
  } else {
    number = free_entries_.back();
    free_entries_.pop_back();
    entries_[number] = std::move(entry);
  }
  if (2 * (index_used_ + 1) > index_.size()) {
    // Grow to keep the index at most half full, re-placing every slot.
    std::vector<Slot> old = std::exchange(
        index_, std::vector<Slot>(std::max<size_t>(1024, 2 * index_.size())));
    for (const Slot& slot : old) {
      if (slot.entry != kNoEntry) {
        index_[Probe(slot.key)] = slot;
      }
    }
  }
  index_[Probe(key)] = Slot{key, number};
  ++index_used_;
  EvictToBudget();
}

void SerializeCache::Erase(const Key& key) {
  if (index_.empty()) {
    return;
  }
  const size_t pos = Probe(key);
  const uint32_t number = index_[pos].entry;
  if (number == kNoEntry) {
    return;
  }
  Entry& entry = entries_[number];
  stats_.bytes -= entry.raw.size() + entry.escaped.size();
  lru_.erase(entry.lru);
  --stats_.spans;
  entry = Entry{};  // releases the span's bytes
  free_entries_.push_back(number);
  EraseSlot(pos);
}

void SerializeCache::EvictToBudget() {
  while (stats_.bytes > kBudgetBytes && !lru_.empty()) {
    Key victim = lru_.back();
    const Entry& entry = *Find(victim);
    size_t victim_bytes = entry.raw.size() + entry.escaped.size();
    stats_.evicted_bytes += victim_bytes;
    ++stats_.evictions;
    auto newest = key_of_node_.find(entry.node);
    if (newest != key_of_node_.end() && newest->second == victim) {
      key_of_node_.erase(newest);
    }
    Erase(victim);
  }
}

}  // namespace rcb
