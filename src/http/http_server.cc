#include "src/http/http_server.h"

#include "src/util/logging.h"

namespace rcb {

HttpServer::HttpServer(EventLoop* loop, Network* network, std::string name,
                       HttpServerLimits limits, Handlers handlers)
    : loop_(loop),
      network_(network),
      name_(std::move(name)),
      limits_(limits),
      handlers_(std::move(handlers)) {}

Status HttpServer::Listen(const std::string& host, uint16_t port) {
  RCB_RETURN_IF_ERROR(network_->Listen(
      host, port, [this](NetEndpoint* endpoint) { OnAccept(endpoint); }));
  host_ = host;
  port_ = port;
  listening_ = true;
  return Status::Ok();
}

void HttpServer::Stop() {
  if (listening_) {
    network_->StopListening(host_, port_);
    listening_ = false;
  }
  for (auto& [id, conn] : connections_) {
    loop_->Cancel(conn->read_deadline_id);  // 0 (unarmed) is a no-op
    conn->endpoint->Close();
  }
  connections_.clear();
}

void HttpServer::Answer(ConnId id, const HttpResponse& response,
                        Duration delay) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  NetEndpoint* endpoint = it->second->endpoint;
  if (delay > Duration::Zero()) {
    // The network owns the endpoint, so the event outlives this server
    // safely; a closed endpoint drops the bytes.
    loop_->Schedule(delay, [endpoint, wire = response.Serialize()] {
      endpoint->Send(wire);
    });
  } else {
    endpoint->Send(response.Serialize());
  }
}

void HttpServer::OnAccept(NetEndpoint* endpoint) {
  // Admission: past the connection cap, answer and close instead of
  // dedicating parser/timer state to the socket.
  if (limits_.max_connections > 0 &&
      connections_.size() >= limits_.max_connections) {
    if (handlers_.over_capacity) {
      endpoint->Send(handlers_.over_capacity().Serialize());
    }
    endpoint->Close();
    return;
  }
  const ConnId id = next_id_++;
  auto conn = std::make_unique<Connection>();
  conn->endpoint = endpoint;
  conn->parser.set_limits(limits_.request);
  Connection* raw = conn.get();
  endpoint->SetDataHandler(
      [this, id, raw](std::string_view data) { OnData(id, raw, data); });
  endpoint->SetCloseHandler([this, id] { Drop(id, /*close=*/false); });
  connections_.emplace(id, std::move(conn));
}

void HttpServer::Drop(ConnId id, bool close) {
  auto it = connections_.find(id);
  if (it == connections_.end()) {
    return;
  }
  std::unique_ptr<Connection> conn = std::move(it->second);
  connections_.erase(it);
  loop_->Cancel(conn->read_deadline_id);
  if (close) {
    conn->endpoint->Close();
  }
  if (handlers_.on_close) {
    handlers_.on_close(id);
  }
}

void HttpServer::OnData(ConnId id, Connection* conn, std::string_view data) {
  std::string_view remaining = data;
  while (true) {
    auto result = conn->parser.Feed(remaining);
    remaining = {};
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kResourceExhausted) {
        // Oversized head or declared body: reject cleanly with 413 instead
        // of buffering toward it.
        conn->endpoint->Send(
            HttpResponse::PayloadTooLarge(result.status().message())
                .Serialize());
        if (handlers_.on_oversized) {
          handlers_.on_oversized();
        }
      } else {
        RCB_LOG(kWarning) << name_ << ": malformed request: "
                          << result.status();
      }
      Drop(id, /*close=*/true);
      return;
    }
    if (!result->has_value()) {
      // A partial request is buffered: arm its read deadline once, and never
      // re-arm it for later fragments, so a drip cannot keep the socket.
      if (limits_.read_timeout > Duration::Zero() &&
          conn->parser.mid_message() && conn->read_deadline_id == 0) {
        conn->read_deadline_id =
            loop_->Schedule(limits_.read_timeout, [this, id, conn] {
              conn->read_deadline_id = 0;
              if (handlers_.on_read_timeout) {
                handlers_.on_read_timeout();
              }
              Drop(id, /*close=*/true);
            });
      }
      return;
    }
    loop_->Cancel(conn->read_deadline_id);
    conn->read_deadline_id = 0;
    std::optional<HttpResponse> response = handlers_.on_request(id, **result);
    if (!response.has_value() || !connections_.contains(id)) {
      return;  // held for a later Answer(), or the handler closed it
    }
    conn->endpoint->Send(response->Serialize());
  }
}

}  // namespace rcb
