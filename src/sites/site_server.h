// Generic simulated origin Web server.
//
// A SiteServer listens on a Network host through the shared HttpServer loop
// and dispatches each request to registered routes. Static resources and
// dynamic handlers coexist; a configurable per-request processing delay
// models server-side think time.
#ifndef SRC_SITES_SITE_SERVER_H_
#define SRC_SITES_SITE_SERVER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/http/http_server.h"
#include "src/http/message.h"
#include "src/net/network.h"
#include "src/util/sim_time.h"
#include "src/util/status.h"

namespace rcb {

class SiteServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Registers `host` (must already exist in the network) and starts
  // listening on `port`.
  SiteServer(EventLoop* loop, Network* network, std::string host,
             uint16_t port = 80);
  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  // Exact-path route. The handler sees the full request.
  void Route(const std::string& path, Handler handler);
  // Prefix route ("/img/" matches "/img/a.png"); exact routes win.
  void RoutePrefix(const std::string& prefix, Handler handler);
  // Fallback for unmatched paths (default: 404).
  void SetDefaultHandler(Handler handler) { default_handler_ = std::move(handler); }

  // Convenience: serve fixed bytes at `path`.
  void ServeStatic(const std::string& path, std::string content_type,
                   std::string body);

  // Server-side processing latency added before each response.
  void set_processing_delay(Duration delay) { processing_delay_ = delay; }
  // Per-path override (e.g. an expensive dynamically-generated homepage vs
  // cheap static objects). Exact path match wins over the default delay.
  void SetPathDelay(const std::string& path, Duration delay) {
    path_delays_[path] = delay;
  }

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  uint64_t requests_served() const { return requests_served_; }
  // Connections currently open; a closed one leaves no record.
  size_t open_connections() const { return server_.connection_count(); }

 private:
  // The HttpServer request handler: dispatches, then answers now or after
  // the path's processing delay.
  std::optional<HttpResponse> Serve(HttpServer::ConnId conn,
                                    const HttpRequest& request);
  HttpResponse Dispatch(const HttpRequest& request);

  std::string host_;
  uint16_t port_;
  Duration processing_delay_;
  std::map<std::string, Duration> path_delays_;
  std::map<std::string, Handler> routes_;
  std::map<std::string, Handler> prefix_routes_;
  Handler default_handler_;
  uint64_t requests_served_ = 0;
  HttpServer server_;
};

}  // namespace rcb

#endif  // SRC_SITES_SITE_SERVER_H_
