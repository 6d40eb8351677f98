// Simulated TCP-style network.
//
// Hosts are named endpoints with interface bandwidths (uplink/downlink) and
// pairwise propagation latencies. A Connection carries ordered, reliable byte
// messages; delivery time models serialization at the bottleneck of the
// sender's uplink and the receiver's downlink (with queueing: consecutive
// transfers contend for the interface) plus the one-way propagation latency.
// Connection establishment costs one round trip, like a TCP handshake.
//
// This is the substrate substitute for real LAN/WAN TCP in the paper's
// evaluation (§5.1); its parameters are set by the profiles in profiles.h.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/net/event_loop.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace rcb {

// Interface speeds in bits per second; 0 means "infinitely fast".
struct HostInterface {
  int64_t uplink_bps = 0;
  int64_t downlink_bps = 0;
};

class Network;
class FaultInjector;

// One side of an established connection. Owned by the Network; users keep
// non-owning pointers that remain valid until the Network is destroyed.
class NetEndpoint {
 public:
  using DataHandler = std::function<void(std::string_view)>;
  using CloseHandler = std::function<void()>;

  // Queues `data` for delivery to the peer. Silently drops if closed.
  void Send(std::string data);

  void SetDataHandler(DataHandler handler) { data_handler_ = std::move(handler); }
  void SetCloseHandler(CloseHandler handler) { close_handler_ = std::move(handler); }

  // Closes both directions; the peer's close handler fires after one-way
  // latency.
  void Close();

  bool closed() const { return closed_; }
  const std::string& local_host() const { return local_host_; }

  // Total payload bytes sent from this side (for traffic accounting).
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  friend class Network;

  Network* network_ = nullptr;
  NetEndpoint* peer_ = nullptr;
  std::string local_host_;
  std::string peer_host_;
  DataHandler data_handler_;
  CloseHandler close_handler_;
  bool closed_ = false;
  uint64_t bytes_sent_ = 0;
  // Connection becomes usable at this time (end of handshake).
  SimTime established_at_;
  // Scheduled arrival of the last message sent from this side, before any
  // fault penalty: a later message is never scheduled to arrive before it.
  SimTime last_delivery_at_;
};

class Network {
 public:
  explicit Network(EventLoop* loop) : loop_(loop) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers a host; hosts unknown at Connect() time are an error.
  void AddHost(const std::string& name, HostInterface interface = {});
  bool HasHost(const std::string& name) const { return hosts_.contains(name); }

  // Propagation latency: a pair's SetLatency value, else the default.
  void SetDefaultLatency(Duration latency) { default_latency_ = latency; }
  void SetLatency(const std::string& a, const std::string& b, Duration latency);
  Duration LatencyBetween(const std::string& from, const std::string& to) const;

  using AcceptHandler = std::function<void(NetEndpoint*)>;

  // Starts listening on host:port.
  Status Listen(const std::string& host, uint16_t port, AcceptHandler on_accept);
  void StopListening(const std::string& host, uint16_t port);

  // Initiates a connection from `client_host` to `server_host:port`.
  // Returns the client endpoint immediately; it becomes usable after the
  // simulated handshake. kUnavailable if nobody is listening.
  StatusOr<NetEndpoint*> Connect(const std::string& client_host,
                                 const std::string& server_host, uint16_t port);

  // Firewalls `from` off from `to` (directed): subsequent Connect calls fail
  // with kUnavailable. Models participants with no route to origin servers,
  // for whom cache mode is the only way to fetch objects (§3.1 step 8).
  void BlockRoute(const std::string& from, const std::string& to);
  void UnblockRoute(const std::string& from, const std::string& to);

  // --- NAT / port forwarding (§3.2.1) --------------------------------------
  // Marks `host` as sitting on a private address behind `gateway`: nobody
  // can Connect() to it directly. A port-forwarding rule on the gateway
  // makes a selected port reachable again: connections to
  // gateway:public_port are handed to private_host:private_port's listener
  // (data then flows gateway<->client with the gateway's latency, plus the
  // gateway<->private hop which is assumed to be a fast home LAN).
  void SetBehindNat(const std::string& host, const std::string& gateway);
  void AddPortForward(const std::string& gateway, uint16_t public_port,
                      const std::string& private_host, uint16_t private_port);

  // --- TLS (HTTPS origins, §3.1 "Arbitrary co-browsing") -------------------
  // Marks host:port as a TLS endpoint: connections pay two extra round trips
  // of handshake before becoming usable. The content path is unchanged (we
  // model cost, not confidentiality).
  void MarkTlsPort(const std::string& host, uint16_t port);

  EventLoop* loop() { return loop_; }

  // TCP slow-start emulation: when enabled, transfers larger than the
  // initial congestion window pay ~log2(size / 4 KiB) extra round trips of
  // delivery latency, approximating the window ramp-up that dominated
  // wide-area transfers of 2009-era pages. Off by default so small-scale
  // unit tests keep exact closed-form timings; the corpus benchmarks and the
  // WAN environments enable it.
  void set_slow_start_enabled(bool enabled) { slow_start_enabled_ = enabled; }

  // Traffic counters (payload bytes scheduled for transfer).
  uint64_t total_bytes_transferred() const { return total_bytes_; }
  uint64_t total_messages() const { return total_messages_; }
  // Connections opened (every Connect that returned an endpoint).
  uint64_t total_connections() const { return total_connections_; }

  // --- Fault injection (fault_injector.h) ----------------------------------
  // At most one injector; it is consulted on every Connect (partitions) and
  // every message delivery (jitter / loss / hold penalties). Pass nullptr to
  // detach.
  void SetFaultInjector(FaultInjector* injector) { fault_injector_ = injector; }

  // Tears down every established connection between hosts `a` and `b`
  // (`b` empty = every connection touching `a`). Close handlers on both ends
  // fire synchronously, at the current event time. Returns the number of
  // connections reset.
  size_t ResetConnections(const std::string& a, const std::string& b);

  // Live interface speeds (for bandwidth flaps that must restore the
  // original values).
  HostInterface HostInterfaceOf(const std::string& host) const;
  void SetHostInterface(const std::string& host, HostInterface interface);

 private:
  friend class NetEndpoint;

  struct Host {
    HostInterface interface;
    // Interface occupancy horizons for serialization queueing.
    SimTime uplink_free;
    SimTime downlink_free;
    std::map<uint16_t, AcceptHandler> listeners;
  };

  // Computes delivery time for `size` bytes from -> to and advances the
  // interface occupancy horizons. `earliest` lower-bounds the start (e.g.
  // handshake completion).
  SimTime ScheduleTransfer(const std::string& from, const std::string& to,
                           size_t size, SimTime earliest);

  void DeliverData(NetEndpoint* from, std::string data);

  EventLoop* loop_;
  std::map<std::string, Host> hosts_;
  std::set<std::pair<std::string, std::string>> blocked_routes_;
  std::map<std::string, std::string> nat_gateway_;  // private host -> gateway
  // (gateway, public port) -> (private host, private port)
  std::map<std::pair<std::string, uint16_t>, std::pair<std::string, uint16_t>>
      port_forwards_;
  std::set<std::pair<std::string, uint16_t>> tls_ports_;
  Duration default_latency_ = Duration::Millis(1);
  std::map<std::pair<std::string, std::string>, Duration> directed_latency_;
  std::vector<std::unique_ptr<NetEndpoint>> endpoints_;
  FaultInjector* fault_injector_ = nullptr;
  bool slow_start_enabled_ = false;
  uint64_t total_bytes_ = 0;
  uint64_t total_messages_ = 0;
  uint64_t total_connections_ = 0;
};

}  // namespace rcb

#endif  // SRC_NET_NETWORK_H_
