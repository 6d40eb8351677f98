// Byte-at-a-time JsUnescape: the oracle for the table-driven decoder in
// src/util/escape.cc.
//
// This is the decode loop as it stood before the run-copy kernel, with its
// own hex and UTF-8 helpers, so a differential test against it checks the
// kernel's run copy, %XX table and %uXXXX hand-off, not shared code.
#ifndef TESTS_SUPPORT_JS_UNESCAPE_ORACLE_H_
#define TESTS_SUPPORT_JS_UNESCAPE_ORACLE_H_

#include <string>
#include <string_view>

namespace rcb {

std::string ReferenceJsUnescape(std::string_view input);

}  // namespace rcb

#endif  // TESTS_SUPPORT_JS_UNESCAPE_ORACLE_H_
