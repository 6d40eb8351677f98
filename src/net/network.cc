#include "src/net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/net/fault_injector.h"
#include "src/util/strings.h"

namespace rcb {

void NetEndpoint::Send(std::string data) {
  if (closed_ || data.empty()) {
    return;
  }
  bytes_sent_ += data.size();
  network_->DeliverData(this, std::move(data));
}

void NetEndpoint::Close() {
  if (closed_) {
    return;
  }
  closed_ = true;
  NetEndpoint* peer = peer_;
  if (peer == nullptr || peer->closed_) {
    return;
  }
  Network* network = network_;
  Duration latency = network->LatencyBetween(local_host_, peer_host_);
  network->loop()->Schedule(latency, [peer] {
    if (peer->closed_) {
      return;
    }
    peer->closed_ = true;
    if (peer->close_handler_) {
      peer->close_handler_();
    }
  });
}

void Network::AddHost(const std::string& name, HostInterface interface) {
  Host& host = hosts_[name];
  host.interface = interface;
}

void Network::SetLatency(const std::string& a, const std::string& b,
                         Duration latency) {
  directed_latency_[{a, b}] = latency;
  directed_latency_[{b, a}] = latency;
}

Duration Network::LatencyBetween(const std::string& from,
                                 const std::string& to) const {
  auto it = directed_latency_.find({from, to});
  if (it != directed_latency_.end()) {
    return it->second;
  }
  return default_latency_;
}

Status Network::Listen(const std::string& host, uint16_t port,
                       AcceptHandler on_accept) {
  auto it = hosts_.find(host);
  if (it == hosts_.end()) {
    return NotFoundError("unknown host: " + host);
  }
  auto [listener_it, inserted] =
      it->second.listeners.emplace(port, std::move(on_accept));
  if (!inserted) {
    return AlreadyExistsError(
        StrFormat("port %u already listening on %s", port, host.c_str()));
  }
  (void)listener_it;
  return Status::Ok();
}

void Network::StopListening(const std::string& host, uint16_t port) {
  auto it = hosts_.find(host);
  if (it != hosts_.end()) {
    it->second.listeners.erase(port);
  }
}

void Network::SetBehindNat(const std::string& host, const std::string& gateway) {
  nat_gateway_[host] = gateway;
}

void Network::AddPortForward(const std::string& gateway, uint16_t public_port,
                             const std::string& private_host,
                             uint16_t private_port) {
  port_forwards_[{gateway, public_port}] = {private_host, private_port};
}

void Network::MarkTlsPort(const std::string& host, uint16_t port) {
  tls_ports_.insert({host, port});
}

StatusOr<NetEndpoint*> Network::Connect(const std::string& client_host,
                                        const std::string& server_host_in,
                                        uint16_t port_in) {
  auto client_it = hosts_.find(client_host);
  if (client_it == hosts_.end()) {
    return NotFoundError("unknown client host: " + client_host);
  }

  // Resolve port forwarding: a connection to a NAT gateway's forwarded port
  // lands on the private host's listener.
  std::string server_host = server_host_in;
  uint16_t port = port_in;
  auto forward_it = port_forwards_.find({server_host_in, port_in});
  if (forward_it != port_forwards_.end()) {
    server_host = forward_it->second.first;
    port = forward_it->second.second;
  } else {
    // Direct connections to a host behind NAT are impossible from outside
    // its gateway's LAN (same-LAN peers, i.e. hosts sharing the gateway,
    // still work).
    auto nat_it = nat_gateway_.find(server_host_in);
    if (nat_it != nat_gateway_.end()) {
      auto client_nat = nat_gateway_.find(client_host);
      bool same_lan = client_nat != nat_gateway_.end() &&
                      client_nat->second == nat_it->second;
      if (!same_lan) {
        return UnavailableError("host is behind NAT: " + server_host_in);
      }
    }
  }

  auto server_it = hosts_.find(server_host);
  if (server_it == hosts_.end()) {
    return UnavailableError("no route to host: " + server_host);
  }
  if (blocked_routes_.contains({client_host, server_host}) ||
      blocked_routes_.contains({client_host, server_host_in})) {
    return UnavailableError("route blocked: " + client_host + " -> " + server_host);
  }
  if (fault_injector_ != nullptr &&
      fault_injector_->ConnectBlocked(client_host, server_host, loop_->now())) {
    return UnavailableError("link partitioned: " + client_host + " -> " +
                            server_host);
  }
  auto listener_it = server_it->second.listeners.find(port);
  if (listener_it == server_it->second.listeners.end()) {
    return UnavailableError(
        StrFormat("connection refused: %s:%u", server_host.c_str(), port));
  }

  ++total_connections_;
  auto client_end = std::make_unique<NetEndpoint>();
  auto server_end = std::make_unique<NetEndpoint>();
  NetEndpoint* client = client_end.get();
  NetEndpoint* server = server_end.get();
  client->network_ = this;
  server->network_ = this;
  client->peer_ = server;
  server->peer_ = client;
  client->local_host_ = client_host;
  client->peer_host_ = server_host;
  server->local_host_ = server_host;
  server->peer_host_ = client_host;

  // TCP-style handshake: SYN reaches the server after one-way latency (accept
  // fires), and the connection is usable at the client after a full RTT.
  // A TLS endpoint (on the original or forwarded address) adds two more
  // round trips for the TLS handshake.
  Duration one_way = LatencyBetween(client_host, server_host);
  Duration rtt = one_way + LatencyBetween(server_host, client_host);
  Duration tls_extra = Duration::Zero();
  if (tls_ports_.contains({server_host_in, port_in}) ||
      tls_ports_.contains({server_host, port})) {
    tls_extra = rtt * 2;
  }
  SimTime accept_time = loop_->now() + one_way + tls_extra;
  SimTime established = loop_->now() + rtt + tls_extra;
  client->established_at_ = established;
  server->established_at_ = accept_time;

  // The SYN is "in flight" until accept_time; if the listener goes away in
  // the meantime the connection is reset instead of silently accepted.
  loop_->ScheduleAt(accept_time, [this, server, server_host, port] {
    auto host_it = hosts_.find(server_host);
    if (host_it == hosts_.end()) {
      server->Close();
      return;
    }
    auto live_listener = host_it->second.listeners.find(port);
    if (live_listener == host_it->second.listeners.end()) {
      server->Close();
      return;
    }
    if (live_listener->second) {
      live_listener->second(server);
    }
  });

  endpoints_.push_back(std::move(client_end));
  endpoints_.push_back(std::move(server_end));
  return client;
}

size_t Network::ResetConnections(const std::string& a, const std::string& b) {
  // Two passes: close handlers may Connect() and grow endpoints_, which would
  // invalidate iterators, so collect the victims before firing anything.
  std::vector<NetEndpoint*> victims;
  for (const auto& endpoint : endpoints_) {
    if (endpoint->closed_) {
      continue;
    }
    const std::string& local = endpoint->local_host_;
    const std::string& peer = endpoint->peer_host_;
    bool match = b.empty() ? (local == a || peer == a)
                           : ((local == a && peer == b) ||
                              (local == b && peer == a));
    if (match) {
      endpoint->closed_ = true;
      victims.push_back(endpoint.get());
    }
  }
  for (NetEndpoint* endpoint : victims) {
    if (endpoint->close_handler_) {
      endpoint->close_handler_();
    }
  }
  // Both sides of a matching connection match, so victims come in pairs.
  return victims.size() / 2;
}

HostInterface Network::HostInterfaceOf(const std::string& host) const {
  auto it = hosts_.find(host);
  return it != hosts_.end() ? it->second.interface : HostInterface{};
}

void Network::SetHostInterface(const std::string& host,
                               HostInterface interface) {
  auto it = hosts_.find(host);
  if (it != hosts_.end()) {
    it->second.interface = interface;
  }
}

void Network::BlockRoute(const std::string& from, const std::string& to) {
  blocked_routes_.insert({from, to});
}

void Network::UnblockRoute(const std::string& from, const std::string& to) {
  blocked_routes_.erase({from, to});
}

SimTime Network::ScheduleTransfer(const std::string& from, const std::string& to,
                                  size_t size, SimTime earliest) {
  // Messages that fit in one MTU interleave with bulk transfers instead of
  // queueing behind them (requests, ACK-sized polls). DeliverData still
  // keeps each connection's messages in send order.
  constexpr size_t kSmallMessage = 1500;
  // TCP slow-start initial congestion window approximation.
  constexpr double kInitialWindow = 4096.0;

  Host& src = hosts_.at(from);
  Host& dst = hosts_.at(to);

  bool small = size <= kSmallMessage;
  SimTime start = loop_->now();
  if (earliest > start) {
    start = earliest;
  }
  if (!small) {
    if (src.uplink_free > start) {
      start = src.uplink_free;
    }
    if (dst.downlink_free > start) {
      start = dst.downlink_free;
    }
  }

  // Bottleneck serialization rate: min of sender uplink and receiver
  // downlink; 0 means unconstrained.
  int64_t up = src.interface.uplink_bps;
  int64_t down = dst.interface.downlink_bps;
  int64_t bottleneck = 0;
  if (up > 0 && down > 0) {
    bottleneck = up < down ? up : down;
  } else if (up > 0) {
    bottleneck = up;
  } else {
    bottleneck = down;
  }

  Duration tx = Duration::Zero();
  if (bottleneck > 0) {
    double seconds = static_cast<double>(size) * 8.0 / static_cast<double>(bottleneck);
    tx = Duration::Seconds(seconds);
  }
  SimTime tx_end = start + tx;
  if (!small) {
    src.uplink_free = tx_end;
    dst.downlink_free = tx_end;
  }

  Duration latency = LatencyBetween(from, to);
  Duration slow_start_extra = Duration::Zero();
  if (slow_start_enabled_ && static_cast<double>(size) > kInitialWindow) {
    double rounds = std::log2(static_cast<double>(size) / kInitialWindow);
    slow_start_extra =
        Duration::Micros(static_cast<int64_t>(rounds * 2.0 *
                                              static_cast<double>(latency.micros())));
  }

  total_bytes_ += size;
  ++total_messages_;
  return tx_end + latency + slow_start_extra;
}

void Network::DeliverData(NetEndpoint* from, std::string data) {
  NetEndpoint* to = from->peer_;
  assert(to != nullptr);
  SimTime deliver_at = ScheduleTransfer(from->local_host_, from->peer_host_,
                                        data.size(), from->established_at_);
  // In-order transfer per connection, like TCP: a small message may share
  // the link with an earlier bulk transfer but must not overtake it (equal
  // times keep send order, the event loop breaks ties FIFO). Injected
  // per-message penalties below are the fault model's and may still reorder.
  deliver_at = std::max(deliver_at, from->last_delivery_at_);
  from->last_delivery_at_ = deliver_at;
  if (fault_injector_ != nullptr) {
    deliver_at = deliver_at + fault_injector_->TransferPenalty(
                                  from->local_host_, from->peer_host_,
                                  loop_->now());
  }
  loop_->ScheduleAt(deliver_at,
                    [to, payload = std::move(data)] {
                      if (!to->closed_ && to->data_handler_) {
                        to->data_handler_(payload);
                      }
                    });
}

}  // namespace rcb
