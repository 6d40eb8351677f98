#include "src/html/intern.h"

namespace rcb {

StringInterner::StringInterner(size_t max_entries)
    : max_entries_(max_entries) {}

const std::string* StringInterner::Intern(std::string_view s) {
  auto it = table_.find(s);
  if (it != table_.end()) return it->second.get();
  if (table_.size() >= max_entries_) return nullptr;
  auto owned = std::make_unique<std::string>(s);
  const std::string* stable = owned.get();
  table_.emplace(std::string_view(*stable), std::move(owned));
  return stable;
}

StringInterner& TagInterner() {
  static StringInterner* interner = new StringInterner();
  return *interner;
}

}  // namespace rcb
