// Direct tests for the generic origin SiteServer: routing, per-path delays,
// connection handling.
#include <gtest/gtest.h>

#include "src/browser/browser.h"
#include "src/sites/site_server.h"

namespace rcb {
namespace {

class SiteServerTest : public ::testing::Test {
 protected:
  SiteServerTest() : network_(&loop_) {
    network_.AddHost("srv", {});
    network_.AddHost("cli", {});
    network_.SetLatency("cli", "srv", Duration::Millis(5));
    server_ = std::make_unique<SiteServer>(&loop_, &network_, "srv");
    client_ = std::make_unique<Browser>(&loop_, &network_, "cli");
  }

  FetchResult Get(const std::string& path, const std::string& query = "") {
    FetchResult out;
    bool done = false;
    client_->Fetch(HttpMethod::kGet, Url::Make("http", "srv", 80, path, query),
                   "", "", [&](FetchResult result) {
                     out = std::move(result);
                     done = true;
                   });
    loop_.RunUntilCondition([&] { return done; });
    return out;
  }

  EventLoop loop_;
  Network network_;
  std::unique_ptr<SiteServer> server_;
  std::unique_ptr<Browser> client_;
};

TEST_F(SiteServerTest, ExactRouteDispatch) {
  server_->Route("/a", [](const HttpRequest&) {
    return HttpResponse::Ok("text/plain", "A");
  });
  server_->Route("/b", [](const HttpRequest&) {
    return HttpResponse::Ok("text/plain", "B");
  });
  EXPECT_EQ(Get("/a").response.body, "A");
  EXPECT_EQ(Get("/b").response.body, "B");
  EXPECT_EQ(Get("/c").response.status_code, 404);
}

TEST_F(SiteServerTest, PrefixRouteAndPrecedence) {
  server_->RoutePrefix("/img/", [](const HttpRequest& request) {
    return HttpResponse::Ok("text/plain", "prefix:" + request.Path());
  });
  server_->Route("/img/special.png", [](const HttpRequest&) {
    return HttpResponse::Ok("text/plain", "exact");
  });
  EXPECT_EQ(Get("/img/a.png").response.body, "prefix:/img/a.png");
  EXPECT_EQ(Get("/img/special.png").response.body, "exact");  // exact wins
  EXPECT_EQ(Get("/imgs/a.png").response.status_code, 404);
}

TEST_F(SiteServerTest, DefaultHandler) {
  server_->SetDefaultHandler([](const HttpRequest& request) {
    return HttpResponse::Ok("text/plain", "fallback:" + request.Path());
  });
  EXPECT_EQ(Get("/anything").response.body, "fallback:/anything");
}

TEST_F(SiteServerTest, ServeStaticContentType) {
  server_->ServeStatic("/s.css", "text/css", ".x{}");
  FetchResult result = Get("/s.css");
  EXPECT_EQ(result.response.headers.Get("Content-Type").value(), "text/css");
  EXPECT_EQ(result.response.body, ".x{}");
}

TEST_F(SiteServerTest, QueryStringReachesHandler) {
  server_->Route("/search", [](const HttpRequest& request) {
    return HttpResponse::Ok("text/plain", request.QueryParams()["q"]);
  });
  EXPECT_EQ(Get("/search", "q=hello%20there").response.body, "hello there");
}

TEST_F(SiteServerTest, ProcessingDelayDefersResponse) {
  server_->ServeStatic("/x", "text/plain", "x");
  server_->set_processing_delay(Duration::Millis(200));
  FetchResult result = Get("/x");
  // handshake 10 + request 5 + delay 200 + response 5 = 220 ms.
  EXPECT_EQ(result.elapsed.millis(), 220);
}

TEST_F(SiteServerTest, PerPathDelayOverridesDefault) {
  server_->ServeStatic("/fast", "text/plain", "f");
  server_->ServeStatic("/slow", "text/plain", "s");
  server_->set_processing_delay(Duration::Millis(10));
  server_->SetPathDelay("/slow", Duration::Millis(500));
  Duration fast = Get("/fast").elapsed;
  Duration slow = Get("/slow").elapsed;
  EXPECT_GT(slow - fast, Duration::Millis(400));
}

TEST_F(SiteServerTest, RequestCounter) {
  server_->ServeStatic("/x", "text/plain", "x");
  EXPECT_EQ(server_->requests_served(), 0u);
  Get("/x");
  Get("/x");
  Get("/missing");
  EXPECT_EQ(server_->requests_served(), 3u);
}

TEST_F(SiteServerTest, SequentialRequestsOnOneConnection) {
  server_->ServeStatic("/1", "text/plain", "one");
  server_->ServeStatic("/2", "text/plain", "two");
  // The browser reuses its connection; the server must keep parsing
  // subsequent requests on it.
  EXPECT_EQ(Get("/1").response.body, "one");
  EXPECT_EQ(Get("/2").response.body, "two");
  EXPECT_EQ(Get("/1").response.body, "one");
}

TEST_F(SiteServerTest, MalformedRequestDropsConnectionOnly) {
  server_->ServeStatic("/x", "text/plain", "x");
  auto endpoint = network_.Connect("cli", "srv", 80);
  ASSERT_TRUE(endpoint.ok());
  (*endpoint)->Send("NOT AN HTTP REQUEST\r\n\r\n");
  loop_.Run();
  // The bad connection is dropped; a fresh well-formed request still works.
  EXPECT_EQ(Get("/x").response.body, "x");
}

TEST_F(SiteServerTest, ClosedConnectionsLeaveNoRecord) {
  server_->ServeStatic("/x", "text/plain", "x");
  auto endpoint = network_.Connect("cli", "srv", 80);
  ASSERT_TRUE(endpoint.ok());
  std::string received;
  (*endpoint)->SetDataHandler(
      [&](std::string_view data) { received.append(data); });
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/x";
  request.headers.Set("Host", "srv");
  (*endpoint)->Send(request.Serialize());
  loop_.Run();
  EXPECT_NE(received.find("\r\n\r\nx"), std::string::npos);
  EXPECT_EQ(server_->open_connections(), 1u);
  // The client hangs up: the server forgets the connection.
  (*endpoint)->Close();
  loop_.Run();
  EXPECT_EQ(server_->open_connections(), 0u);
  // A connection the server drops for a malformed request is forgotten too.
  auto bad = network_.Connect("cli", "srv", 80);
  ASSERT_TRUE(bad.ok());
  (*bad)->Send("NOT AN HTTP REQUEST\r\n\r\n");
  loop_.Run();
  EXPECT_EQ(server_->open_connections(), 0u);
}

TEST_F(SiteServerTest, StopsListeningOnDestruction) {
  server_->ServeStatic("/x", "text/plain", "x");
  EXPECT_EQ(Get("/x").response.status_code, 200);
  server_.reset();
  FetchResult result = Get("/x");
  EXPECT_FALSE(result.status.ok());
}

TEST_F(SiteServerTest, CustomPort) {
  SiteServer alt(&loop_, &network_, "srv", 8080);
  alt.ServeStatic("/p", "text/plain", "alt");
  FetchResult out;
  bool done = false;
  client_->Fetch(HttpMethod::kGet, Url::Make("http", "srv", 8080, "/p"), "", "",
                 [&](FetchResult result) {
                   out = std::move(result);
                   done = true;
                 });
  loop_.RunUntilCondition([&] { return done; });
  EXPECT_EQ(out.response.body, "alt");
}

}  // namespace
}  // namespace rcb
