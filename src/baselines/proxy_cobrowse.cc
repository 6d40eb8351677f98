#include "src/baselines/proxy_cobrowse.h"

#include "src/browser/resources.h"
#include "src/html/parser.h"
#include "src/http/form.h"
#include "src/util/escape.h"
#include "src/html/serializer.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rcb {

CoBrowseProxy::CoBrowseProxy(EventLoop* loop, Network* network,
                             std::string proxy_machine, uint16_t port)
    : loop_(loop), machine_(std::move(proxy_machine)), port_(port) {
  fetcher_ = std::make_unique<Browser>(loop_, network, machine_);
  server_ = std::make_unique<SiteServer>(loop_, network, machine_, port_);
  server_->Route("/navigate",
                 [this](const HttpRequest& r) { return HandleNavigate(r); });
  server_->Route("/page", [this](const HttpRequest& r) { return HandlePage(r); });
}

Url CoBrowseProxy::ProxyUrl() const {
  return Url::Make("http", machine_, port_, "/");
}

HttpResponse CoBrowseProxy::HandleNavigate(const HttpRequest& request) {
  auto params = ParseFormUrlEncoded(request.body);
  auto it = params.find("url");
  if (it == params.end()) {
    return HttpResponse::BadRequest("missing url");
  }
  auto target = Url::Parse(it->second);
  if (!target.ok()) {
    return HttpResponse::BadRequest(target.status().message());
  }
  if (fetch_in_flight_) {
    return HttpResponse::Ok("text/plain", "busy");
  }
  fetch_in_flight_ = true;
  ++origin_fetches_;
  fetcher_->Navigate(*target, [this, url = target->ToString()](
                                  const Status& status, const PageLoadStats&) {
    fetch_in_flight_ = false;
    if (!status.ok()) {
      RCB_LOG(kWarning) << "cobrowse-proxy: origin fetch failed: " << status;
      return;
    }
    // Store the rendered copy with absolutized resource URLs so members can
    // fetch objects from the origins directly.
    Document* document = fetcher_->document();
    std::unique_ptr<Document> clone = document->CloneDocument();
    Url base = fetcher_->current_url();
    clone->ForEachElement([&](Element* element) {
      std::string attr;
      if (UrlAttributeFor(*element, &attr)) {
        std::string value = element->AttrOr(attr);
        if (!value.empty() && !IsAbsoluteUrl(value) &&
            !StartsWith(value, "javascript:") && !StartsWith(value, "#")) {
          auto resolved = base.Resolve(value);
          if (resolved.ok()) {
            element->SetAttribute(attr, resolved->ToStringWithFragment());
          }
        }
      }
      return true;
    });
    current_html_ = SerializeNode(*clone);
    current_url_ = url;
    ++version_;
  });
  return HttpResponse::Ok("text/plain", "accepted");
}

HttpResponse CoBrowseProxy::HandlePage(const HttpRequest& request) {
  auto params = request.QueryParams();
  // An absent or malformed v= holds no version: the page is sent.
  int64_t have = -1;
  auto it = params.find("v");
  if (it != params.end() && !ParseInt64(it->second, &have)) {
    have = -1;
  }
  if (version_ == 0 || have >= version_) {
    return HttpResponse::Ok("text/plain", "");
  }
  HttpResponse response = HttpResponse::Ok("text/html", current_html_);
  response.headers.Set("X-CoBrowse-Version", StrFormat("%lld",
                                                       static_cast<long long>(version_)));
  response.headers.Set("X-CoBrowse-Url", current_url_);
  bytes_relayed_ += current_html_.size();
  return response;
}

ProxyCoBrowseClient::ProxyCoBrowseClient(Browser* browser, Url proxy_url,
                                         Duration poll_interval)
    : browser_(browser), proxy_url_(std::move(proxy_url)), interval_(poll_interval) {}

ProxyCoBrowseClient::~ProxyCoBrowseClient() { Stop(); }

void ProxyCoBrowseClient::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++epoch_;
  PollOnce();
}

void ProxyCoBrowseClient::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  ++epoch_;
  if (timer_ != 0) {
    browser_->loop()->Cancel(timer_);
    timer_ = 0;
  }
}

void ProxyCoBrowseClient::Navigate(const Url& target,
                                   std::function<void(Status)> done) {
  Url navigate_url = Url::Make(proxy_url_.scheme(), proxy_url_.host(),
                               proxy_url_.port(), "/navigate");
  browser_->Fetch(HttpMethod::kPost, navigate_url,
                  "url=" + PercentEncode(target.ToString()),
                  "application/x-www-form-urlencoded",
                  [done = std::move(done)](FetchResult result) {
                    done(result.status);
                  });
}

void ProxyCoBrowseClient::SchedulePoll() {
  if (!running_) {
    return;
  }
  uint64_t epoch = epoch_;
  timer_ = browser_->loop()->Schedule(interval_, [this, epoch] {
    if (epoch != epoch_) {
      return;
    }
    timer_ = 0;
    PollOnce();
  });
}

void ProxyCoBrowseClient::PollOnce() {
  Url page_url =
      Url::Make(proxy_url_.scheme(), proxy_url_.host(), proxy_url_.port(), "/page",
                StrFormat("v=%lld", static_cast<long long>(version_)));
  SimTime sent = browser_->loop()->now();
  uint64_t epoch = epoch_;
  browser_->Fetch(
      HttpMethod::kGet, page_url, "", "",
      [this, epoch, sent](FetchResult result) {
        if (epoch != epoch_) {
          return;
        }
        if (!result.status.ok() || result.response.status_code != 200 ||
            result.response.body.empty()) {
          SchedulePoll();
          return;
        }
        // An absent or malformed version header counts one version on.
        auto version_header = result.response.headers.Get("X-CoBrowse-Version");
        int64_t new_version = 0;
        if (!version_header || !ParseInt64(*version_header, &new_version)) {
          new_version = version_ + 1;
        }
        auto url_header = result.response.headers.Get("X-CoBrowse-Url");
        Url page_base = proxy_url_;
        if (url_header.has_value()) {
          auto parsed = Url::Parse(*url_header);
          if (parsed.ok()) {
            page_base = *parsed;
          }
        }
        browser_->ReplaceDocument(ParseDocument(result.response.body), page_base);
        version_ = new_version;
        last_sync_time_ = browser_->loop()->now() - sent;
        ++updates_received_;
        SchedulePoll();
      });
}

}  // namespace rcb
