// String interning for tag and attribute names (docs/PERF_MODEL.md).
//
// A page has thousands of elements but a few dozen distinct tag/attribute
// names. Interning maps each distinct name to a stable `const std::string*`
// that lives for the process, so Element can hold a pointer instead of an
// owned copy, tag comparisons become pointer-width memcmps of short strings
// already in cache, and Clone copies 8 bytes instead of re-allocating.
//
// The table is capped (kDefaultMaxEntries, 4096 names): hostile or
// fuzzed input with unbounded distinct tag names cannot grow it past the cap.
// Past the cap Intern() returns nullptr and the caller falls back to an owned
// string — correctness is unchanged, only the speed win is lost.
//
// Interned pointers are never invalidated (entries are heap-allocated and the
// table is append-only), so they are safe to hold across documents and in
// the serialization cache.
#ifndef SRC_HTML_INTERN_H_
#define SRC_HTML_INTERN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

namespace rcb {

class StringInterner {
 public:
  explicit StringInterner(size_t max_entries = kDefaultMaxEntries);

  // Stable pointer for `s`, or nullptr when the table is full and `s` is not
  // already present. The pointee is immutable and lives for the interner's
  // lifetime (for TagInterner(): the process).
  const std::string* Intern(std::string_view s);

  size_t size() const { return table_.size(); }
  size_t max_entries() const { return max_entries_; }

  static constexpr size_t kDefaultMaxEntries = 4096;

 private:
  const size_t max_entries_;
  // Keys view into the heap-allocated values, so each name is stored once.
  std::unordered_map<std::string_view, std::unique_ptr<std::string>> table_;
};

// Process-wide interner used by the parser and DOM for tag/attribute names.
// Intentionally leaked so interned pointers stay valid during static
// destruction. Not synchronized: all DOM work is single-threaded per process
// (the host is an event loop), matching the rest of src/html.
StringInterner& TagInterner();

}  // namespace rcb

#endif  // SRC_HTML_INTERN_H_
