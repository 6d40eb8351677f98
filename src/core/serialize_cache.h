// SerializeCache: dirty-subtree incremental serialization for the Fig. 3
// extract step (docs/PERF_MODEL.md).
//
// Extraction is the page-proportional tail of the pipeline: innerHTML
// serialization of the whole body plus a JsEscape of every byte, repeated on
// every document version even when one text node changed. This cache makes
// that cost proportional to the change.
//
// It serializes the *live* document: the Fig. 3 rewrites (absolutize,
// cache-URL, event/data-rcb-id) are applied by an AttributeRewriter
// (content_generator.h) to each element serialized on a miss, so hits cost
// no rewrite and nothing is cloned.
//
// How it stays byte-identical to the reference (clone + whole-tree rewrite +
// cold serialization, tests/support/reference_generator.h):
//
//   * Identity. Every Node carries a revision (src/html/dom.h): mutations
//     restamp the node and its ancestors with fresh, globally unique values.
//     A rev uniquely identifies one (node, subtree state), so a cache entry
//     keyed by the live node's rev can never alias a different state. The
//     cache never writes the DOM, so serializing does not restamp anything.
//     A miss is always safe; the bet is only on hit *rate*, never on
//     correctness of a hit... except for the two inputs below, which the key
//     must also cover.
//
//   * Generation config. The rewritten bytes also depend on the absolutize
//     base URL, the cache mode, the agent URL, the ObjectCache contents
//     (which URLs map to /obj/<key>), and the presence of a cache-object
//     filter. The caller folds all of those into `config_fingerprint`; it is
//     part of the key. The filter itself must be pure and stable for a given
//     fingerprint (AgentConfig sets it once at construction).
//
//   * data-rcb-id numbering. Interactive elements are numbered by global
//     pre-order position, so an *unchanged* subtree serializes differently if
//     an interactive element was inserted before it. Each entry records the
//     pre-order interactive counter at its start (`id_base`) plus how many
//     interactive elements it contains; a hit requires the running counter to
//     equal the recorded base. Within a subtree ids are contiguous in
//     pre-order, so base equality implies every embedded id matches.
//
//   * Escape splicing. JsEscape and HtmlEscape are stateless per byte
//     (src/util/escape.h), so each entry stores the raw span *and* its
//     JsEscape image, built in lockstep; splicing cached escaped spans is
//     byte-identical to escaping the full serialization.
//
// Entries are plain string copies (never pointers into the DOM), LRU
// evicted against a byte budget (kBudgetBytes). Spans smaller than
// kMinSpanBytes are not cached: they are cheaper to re-serialize than to
// track. A node's span recorded under a new rev replaces the one under its
// old rev, which can never hit again, so the cache holds about one span per
// node instead of filling its budget with the spans of past edits.
#ifndef SRC_CORE_SERIALIZE_CACHE_H_
#define SRC_CORE_SERIALIZE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/html/dom.h"

namespace rcb {

class AttributeRewriter;

class SerializeCache {
 public:
  // Bytes of cached spans (raw + escaped) per generator.
  static constexpr size_t kBudgetBytes = 4 * 1024 * 1024;
  // Spans below this are not cached.
  static constexpr size_t kMinSpanBytes = 64;

  // Mirrors ObjectCache::Stats: the shared budget-metric convention
  // (DESIGN.md §14) is {hits, misses, evictions, evicted_bytes} counters plus
  // a current-bytes and a current-entry-count gauge per cache.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t hit_bytes = 0;   // raw bytes served by splicing cached spans
    uint64_t miss_bytes = 0;  // raw bytes serialized the slow way
    size_t bytes = 0;         // current footprint (raw + escaped spans)
    size_t spans = 0;         // current entry count
  };

  SerializeCache() = default;
  SerializeCache(const SerializeCache&) = delete;
  SerializeCache& operator=(const SerializeCache&) = delete;

  // Serializes `element`'s children (its innerHTML) through the cache,
  // appending the raw bytes to `raw` and their JsEscape image to `escaped`.
  // Each element serialized on a miss gets `rewriter`'s attribute list
  // instead of its own. Byte-identical to SerializeChildren + JsEscape of the
  // rewritten clone — asserted by serialize_cache_test over random mutation
  // schedules.
  //
  // `interactive_counter` is the running pre-order data-rcb-id counter; the
  // caller threads one counter through the whole document in DOM order (see
  // ContentGenerator::Generate). It is read for hit validity and advanced
  // past every element either way.
  void AppendChildrenHtml(const Element& element, uint64_t config_fingerprint,
                          AttributeRewriter* rewriter,
                          size_t* interactive_counter, std::string* raw,
                          std::string* escaped);

  const Stats& stats() const { return stats_; }

 private:
  struct Key {
    uint64_t rev;
    uint64_t fingerprint;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix-style mix; revs are sequential so spread them.
      uint64_t x = k.rev * 0x9E3779B97F4A7C15ull ^ k.fingerprint;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    std::string raw;
    std::string escaped;
    size_t id_base = 0;            // interactive counter at span start
    size_t interactive_count = 0;  // interactive elements inside the span
    const Node* node = nullptr;    // identity only, never dereferenced
    std::list<Key>::iterator lru;
  };

  void AppendNode(const Node& node, bool raw_text_parent, uint64_t fingerprint,
                  AttributeRewriter* rewriter, size_t* counter,
                  std::string* raw, std::string* escaped);
  void AppendElement(const Element& element, uint64_t fingerprint,
                     AttributeRewriter* rewriter, size_t* counter,
                     std::string* raw, std::string* escaped);
  // Appends the cached span for `key` if present and id-valid; advances the
  // counter past its interactive elements.
  bool TryAppendHit(const Key& key, size_t* counter, std::string* raw,
                    std::string* escaped);
  // Accounts a freshly serialized span [raw_start, raw->size()) and caches it
  // when it clears the size floor and fits the budget.
  void RecordMissSpan(const Node& node, const Key& key, size_t raw_start,
                      size_t escaped_start, size_t id_base,
                      const size_t* counter, const std::string* raw,
                      const std::string* escaped);
  void Insert(Key key, Entry entry);
  // Drops the entry under `key`, if any, leaving key_of_node_ to the caller.
  void Erase(const Key& key);
  void EvictToBudget();

  // The index: open addressing with linear probing over a power-of-two
  // table of (key, entry number) slots. A lookup reads one or two adjacent
  // slots, where a node-based map chases a bucket and its chain through the
  // heap; generation looks up every element it passes, so this is the
  // cache's hot path.
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  struct Slot {
    Key key{};
    uint32_t entry = kNoEntry;
  };
  // The slot holding `key`, or the empty slot where it would go.
  size_t Probe(const Key& key) const;
  Entry* Find(const Key& key);
  // Removes the occupied slot `pos`, shifting later slots of its probe run
  // back so no lookup stops short of them.
  void EraseSlot(size_t pos);

  Stats stats_;
  std::vector<Entry> entries_;       // by entry number; free ones are empty
  std::vector<uint32_t> free_entries_;
  std::vector<Slot> index_;          // at most half full
  size_t index_used_ = 0;
  std::list<Key> lru_;  // front = most recent
  // The key of each node's newest entry. A node address may be reused after
  // the node is freed; that only drops a span no live node carries.
  std::unordered_map<const Node*, Key> key_of_node_;
};

}  // namespace rcb

#endif  // SRC_CORE_SERIALIZE_CACHE_H_
