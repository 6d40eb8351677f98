#include "src/http/http_parser.h"

#include <utility>

#include "src/http/url.h"
#include "src/util/strings.h"

namespace rcb {
namespace http_internal {

namespace {
constexpr std::string_view kHeadEnd = "\r\n\r\n";
}  // namespace

void MessageAssembler::Append(std::string_view data) {
  if (buffer_.empty() && !head_ready_ && !in_body_) {
    size_t pos = data.find(kHeadEnd);
    if (pos != std::string_view::npos) {
      head_.assign(data.substr(0, pos));
      head_ready_ = true;
      buffer_.assign(data.substr(pos + kHeadEnd.size()));
      return;
    }
  }
  buffer_.append(data);
}

std::optional<std::string> MessageAssembler::TakeHeadIfComplete() {
  if (head_ready_) {
    head_ready_ = false;
    in_body_ = true;
    return std::exchange(head_, std::string());
  }
  size_t pos = buffer_.find(kHeadEnd);
  if (pos == std::string::npos) {
    return std::nullopt;
  }
  std::string head = buffer_.substr(0, pos);
  buffer_.erase(0, pos + kHeadEnd.size());
  in_body_ = true;
  return head;
}

std::optional<std::string> MessageAssembler::TakeBodyIfComplete(size_t length) {
  if (buffer_.size() < length) {
    return std::nullopt;
  }
  in_body_ = false;
  if (buffer_.size() == length) {
    return std::exchange(buffer_, std::string());
  }
  std::string body = buffer_.substr(0, length);
  buffer_.erase(0, length);
  return body;
}

}  // namespace http_internal

namespace {

// Parses "Name: value" lines into `headers`.
Status ParseHeaderLines(const std::vector<std::string>& lines, size_t first,
                        Headers* headers) {
  for (size_t i = first; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) {
      continue;
    }
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      return InvalidArgumentError("malformed header line: " + line);
    }
    std::string_view name = StripWhitespace(std::string_view(line).substr(0, colon));
    std::string_view value = StripWhitespace(std::string_view(line).substr(colon + 1));
    headers->Add(std::string(name), std::string(value));
  }
  return Status::Ok();
}

StatusOr<size_t> BodyLengthFrom(const Headers& headers) {
  auto cl = headers.Get("Content-Length");
  if (!cl.has_value()) {
    return size_t{0};
  }
  uint64_t length = 0;
  if (!ParseUint64(StripWhitespace(*cl), &length)) {
    return InvalidArgumentError("bad Content-Length: " + *cl);
  }
  if (length > (64ull << 20)) {
    return ResourceExhaustedError("Content-Length exceeds 64MiB limit");
  }
  return static_cast<size_t>(length);
}

}  // namespace

StatusOr<std::optional<HttpRequest>> HttpRequestParser::Feed(std::string_view data) {
  assembler_.Append(data);
  if (!pending_.has_value()) {
    auto head = assembler_.TakeHeadIfComplete();
    if (!head.has_value()) {
      // Cap what an unterminated head may buffer: without this a client can
      // drip header bytes forever and grow the buffer unboundedly.
      if (limits_.max_head_bytes > 0 &&
          assembler_.buffered_bytes() > limits_.max_head_bytes) {
        return ResourceExhaustedError(
            StrFormat("request head exceeds %zu bytes", limits_.max_head_bytes));
      }
      return std::optional<HttpRequest>{};
    }
    if (limits_.max_head_bytes > 0 && head->size() > limits_.max_head_bytes) {
      return ResourceExhaustedError(
          StrFormat("request head exceeds %zu bytes", limits_.max_head_bytes));
    }
    std::vector<std::string> lines = StrSplit(*head, '\n');
    for (auto& line : lines) {
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
    }
    if (lines.empty()) {
      return InvalidArgumentError("empty request head");
    }
    // Request-line: METHOD SP request-URI SP HTTP-version.
    std::vector<std::string> parts = StrSplitSkipEmpty(lines[0], ' ');
    if (parts.size() != 3) {
      return InvalidArgumentError("malformed request line: " + lines[0]);
    }
    HttpRequest request;
    RCB_ASSIGN_OR_RETURN(request.method, ParseHttpMethod(parts[0]));
    request.target = parts[1];
    if (request.target.empty() ||
        (request.target[0] != '/' && !IsAbsoluteUrl(request.target))) {
      return InvalidArgumentError("malformed request target: " + request.target);
    }
    if (!StartsWith(parts[2], "HTTP/1.")) {
      return InvalidArgumentError("unsupported HTTP version: " + parts[2]);
    }
    RCB_RETURN_IF_ERROR(ParseHeaderLines(lines, 1, &request.headers));
    RCB_ASSIGN_OR_RETURN(pending_body_length_, BodyLengthFrom(request.headers));
    // Reject an oversized declared body before buffering a single byte of it;
    // the caller answers 413 instead of waiting for data it will discard.
    if (limits_.max_body_bytes > 0 &&
        pending_body_length_ > limits_.max_body_bytes) {
      return ResourceExhaustedError(
          StrFormat("Content-Length %zu exceeds body limit of %zu bytes",
                    pending_body_length_, limits_.max_body_bytes));
    }
    pending_ = std::move(request);
  }
  auto body = assembler_.TakeBodyIfComplete(pending_body_length_);
  if (!body.has_value()) {
    return std::optional<HttpRequest>{};
  }
  HttpRequest complete = std::move(*pending_);
  complete.body = std::move(*body);
  pending_.reset();
  pending_body_length_ = 0;
  return std::optional<HttpRequest>(std::move(complete));
}

StatusOr<std::optional<HttpResponse>> HttpResponseParser::Feed(std::string_view data) {
  assembler_.Append(data);
  if (!pending_.has_value()) {
    auto head = assembler_.TakeHeadIfComplete();
    if (!head.has_value()) {
      return std::optional<HttpResponse>{};
    }
    std::vector<std::string> lines = StrSplit(*head, '\n');
    for (auto& line : lines) {
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
    }
    if (lines.empty()) {
      return InvalidArgumentError("empty response head");
    }
    // Status-line: HTTP-version SP status-code SP reason-phrase.
    const std::string& status_line = lines[0];
    if (!StartsWith(status_line, "HTTP/1.")) {
      return InvalidArgumentError("malformed status line: " + status_line);
    }
    size_t sp1 = status_line.find(' ');
    if (sp1 == std::string::npos || sp1 + 4 > status_line.size()) {
      return InvalidArgumentError("malformed status line: " + status_line);
    }
    std::string code_str = status_line.substr(sp1 + 1, 3);
    uint64_t code = 0;
    if (!ParseUint64(code_str, &code) || code < 100 || code > 599) {
      return InvalidArgumentError("bad status code: " + code_str);
    }
    HttpResponse response;
    response.status_code = static_cast<int>(code);
    size_t reason_start = sp1 + 4;
    response.reason = reason_start < status_line.size()
                          ? std::string(StripWhitespace(
                                std::string_view(status_line).substr(reason_start)))
                          : "";
    RCB_RETURN_IF_ERROR(ParseHeaderLines(lines, 1, &response.headers));
    RCB_ASSIGN_OR_RETURN(pending_body_length_, BodyLengthFrom(response.headers));
    pending_ = std::move(response);
  }
  auto body = assembler_.TakeBodyIfComplete(pending_body_length_);
  if (!body.has_value()) {
    return std::optional<HttpResponse>{};
  }
  HttpResponse complete = std::move(*pending_);
  complete.body = std::move(*body);
  pending_.reset();
  pending_body_length_ = 0;
  return std::optional<HttpResponse>(std::move(complete));
}

StatusOr<HttpRequest> ParseHttpRequest(std::string_view wire) {
  HttpRequestParser parser;
  RCB_ASSIGN_OR_RETURN(std::optional<HttpRequest> request, parser.Feed(wire));
  if (!request.has_value()) {
    return InvalidArgumentError("incomplete HTTP request");
  }
  return std::move(*request);
}

StatusOr<HttpResponse> ParseHttpResponse(std::string_view wire) {
  HttpResponseParser parser;
  RCB_ASSIGN_OR_RETURN(std::optional<HttpResponse> response, parser.Feed(wire));
  if (!response.has_value()) {
    return InvalidArgumentError("incomplete HTTP response");
  }
  return std::move(*response);
}

}  // namespace rcb
