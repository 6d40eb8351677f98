#include "src/sites/site_server.h"

#include <cassert>

namespace rcb {

SiteServer::SiteServer(EventLoop* loop, Network* network, std::string host,
                       uint16_t port)
    : host_(std::move(host)),
      port_(port),
      server_(loop, network, host_, HttpServerLimits{},
              {.on_request = [this](HttpServer::ConnId conn,
                                    const HttpRequest& request) {
                return Serve(conn, request);
              }}) {
  assert(network->HasHost(host_) && "site host must be registered first");
  Status status = server_.Listen(host_, port_);
  assert(status.ok());
  (void)status;
}

void SiteServer::Route(const std::string& path, Handler handler) {
  routes_[path] = std::move(handler);
}

void SiteServer::RoutePrefix(const std::string& prefix, Handler handler) {
  prefix_routes_[prefix] = std::move(handler);
}

void SiteServer::ServeStatic(const std::string& path, std::string content_type,
                             std::string body) {
  Route(path, [content_type = std::move(content_type),
               body = std::move(body)](const HttpRequest&) {
    return HttpResponse::Ok(content_type, body);
  });
}

std::optional<HttpResponse> SiteServer::Serve(HttpServer::ConnId conn,
                                              const HttpRequest& request) {
  HttpResponse response = Dispatch(request);
  ++requests_served_;
  auto delay_it = path_delays_.find(request.Path());
  Duration delay =
      delay_it != path_delays_.end() ? delay_it->second : processing_delay_;
  if (delay <= Duration::Zero()) {
    return response;
  }
  // Server think time: hold the connection and answer it after the delay.
  server_.Answer(conn, response, delay);
  return std::nullopt;
}

HttpResponse SiteServer::Dispatch(const HttpRequest& request) {
  std::string path = request.Path();
  auto it = routes_.find(path);
  if (it != routes_.end()) {
    return it->second(request);
  }
  for (const auto& [prefix, handler] : prefix_routes_) {
    if (path.size() >= prefix.size() && path.compare(0, prefix.size(), prefix) == 0) {
      return handler(request);
    }
  }
  if (default_handler_) {
    return default_handler_(request);
  }
  return HttpResponse::NotFound(path);
}

}  // namespace rcb
