// Incremental HTTP/1.1 message parsers.
//
// RCB-Agent receives request bytes asynchronously (the paper's
// nsIStreamListener); these parsers accept arbitrary byte chunks and emit
// complete messages once the head and Content-Length-delimited body have
// arrived. Pipelined messages on one connection are handled: each Feed may
// complete at most one message, and leftover bytes stay buffered.
#ifndef SRC_HTTP_HTTP_PARSER_H_
#define SRC_HTTP_HTTP_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/http/message.h"
#include "src/util/status.h"

namespace rcb {

namespace http_internal {

// Shared head-then-body state machine. A message that arrives in one chunk
// has its body copied once, into the string TakeBodyIfComplete hands out;
// leftover bytes of pipelined messages stay buffered.
class MessageAssembler {
 public:
  // Buffers `data`. When nothing is buffered and `data` holds a whole head,
  // the head is split off here, so only the bytes after it are copied.
  void Append(std::string_view data);

  // Looks for the end-of-head marker; returns the head (without the blank
  // line) once present.
  std::optional<std::string> TakeHeadIfComplete();

  // After the head is consumed, extracts `length` body bytes when available.
  std::optional<std::string> TakeBodyIfComplete(size_t length);

  size_t buffered_bytes() const { return head_.size() + buffer_.size(); }

 private:
  std::string head_;       // a head Append split off, until it is taken
  bool head_ready_ = false;
  bool in_body_ = false;   // a head was taken and its body is not yet
  std::string buffer_;     // bytes after the last head taken or split off
};

}  // namespace http_internal

// Size caps enforced while a request is assembled. 0 disables a cap (the
// absolute 64MiB Content-Length ceiling always applies). Violations surface
// as kResourceExhausted so the server can answer 413 instead of buffering
// unboundedly.
struct HttpParserLimits {
  size_t max_head_bytes = 0;
  size_t max_body_bytes = 0;
};

class HttpRequestParser {
 public:
  // Feeds bytes from the connection. Returns:
  //  - a complete HttpRequest once one is fully buffered,
  //  - std::nullopt if more bytes are needed,
  //  - an error Status on malformed input (connection should be dropped);
  //    kResourceExhausted specifically means a configured size cap was hit.
  StatusOr<std::optional<HttpRequest>> Feed(std::string_view data);

  void set_limits(HttpParserLimits limits) { limits_ = limits; }

  // Bytes buffered for the in-progress message (0 when idle between
  // pipelined requests). mid_message() lets HttpServer arm a read deadline
  // only while a partial request is pending.
  size_t buffered_bytes() const { return assembler_.buffered_bytes(); }
  bool mid_message() const {
    return pending_.has_value() || assembler_.buffered_bytes() > 0;
  }

 private:
  http_internal::MessageAssembler assembler_;
  HttpParserLimits limits_;
  std::optional<HttpRequest> pending_;  // head parsed, waiting for body
  size_t pending_body_length_ = 0;
};

class HttpResponseParser {
 public:
  StatusOr<std::optional<HttpResponse>> Feed(std::string_view data);

 private:
  http_internal::MessageAssembler assembler_;
  std::optional<HttpResponse> pending_;
  size_t pending_body_length_ = 0;
};

// One-shot conveniences for tests.
StatusOr<HttpRequest> ParseHttpRequest(std::string_view wire);
StatusOr<HttpResponse> ParseHttpResponse(std::string_view wire);

}  // namespace rcb

#endif  // SRC_HTTP_HTTP_PARSER_H_
