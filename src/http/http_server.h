// The one HTTP/1.1 server loop over the simulated network, behind RCB-Agent
// ("a browser extension on the host browser that runs an HTTP server"), the
// multi-session host's front door and the origin Web servers: listen and
// accept, one HttpRequestParser per connection, the socket limits and close
// bookkeeping. The owner sees complete requests and either answers at once or
// holds the connection and answers it later (a parked long-poll, a server's
// processing delay).
#ifndef SRC_HTTP_HTTP_SERVER_H_
#define SRC_HTTP_HTTP_SERVER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "src/http/http_parser.h"
#include "src/http/message.h"
#include "src/net/network.h"

namespace rcb {

// 0 (or Zero()) disables a limit.
struct HttpServerLimits {
  HttpParserLimits request;    // over a cap: 413, then close
  size_t max_connections = 0;  // held ones included; past it: refuse
  // Slow-loris defense: armed by a request's first byte, NOT extended by
  // later ones; the connection closes unless the request completes in time.
  Duration read_timeout = Duration::Zero();
};

class HttpServer {
 public:
  using ConnId = uint64_t;  // never reused by one server

  struct Handlers {
    // The response to send now, or nullopt to hold the connection and
    // Answer() it later; a held connection reads no further buffered request
    // until more bytes arrive.
    std::function<std::optional<HttpResponse>(ConnId, const HttpRequest&)>
        on_request;
    // Sent to a socket refused at max_connections before it is closed.
    std::function<HttpResponse()> over_capacity;
    std::function<void()> on_oversized;     // a 413 was sent
    std::function<void()> on_read_timeout;  // the deadline closed a socket
    // A connection is gone (peer close or reset, a limit, or Close()); Stop()
    // closes without calling it.
    std::function<void(ConnId)> on_close;
  };

  // `name` prefixes the malformed-request log line.
  HttpServer(EventLoop* loop, Network* network, std::string name,
             HttpServerLimits limits, Handlers handlers);
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  Status Listen(const std::string& host, uint16_t port);
  // Stops listening and closes every connection.
  void Stop();

  // Sends `response` on `id` after `delay` (Zero(): now); a no-op once `id`
  // is closed.
  void Answer(ConnId id, const HttpResponse& response,
              Duration delay = Duration::Zero());
  void Close(ConnId id) { Drop(id, /*close=*/true); }

  size_t connection_count() const { return connections_.size(); }

 private:
  struct Connection {
    NetEndpoint* endpoint = nullptr;
    HttpRequestParser parser;
    uint64_t read_deadline_id = 0;  // 0 = unarmed
  };

  void OnAccept(NetEndpoint* endpoint);
  void OnData(ConnId id, Connection* conn, std::string_view data);
  // Forgets `id` (cancelling its read deadline), closes its endpoint when
  // `close` is set, and reports it to on_close.
  void Drop(ConnId id, bool close);

  EventLoop* loop_;
  Network* network_;
  std::string name_;
  HttpServerLimits limits_;
  Handlers handlers_;
  std::string host_;
  uint16_t port_ = 0;
  bool listening_ = false;
  ConnId next_id_ = 1;
  // Ordered by id, i.e. accept order: Stop() closes in accept order.
  std::map<ConnId, std::unique_ptr<Connection>> connections_;
};

}  // namespace rcb

#endif  // SRC_HTTP_HTTP_SERVER_H_
