#include "src/browser/browser.h"

#include <cassert>

#include "src/http/form.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rcb {

// Book-keeping for one in-flight page load.
struct PageLoadContext {
  Url url;
  SimTime nav_start;
  SimTime objects_start;
  PageLoadStats stats;
  size_t outstanding = 0;
  uint64_t epoch = 0;
  NavigateCallback callback;
};

Browser::Browser(EventLoop* loop, Network* network, std::string machine)
    : loop_(loop), network_(network), machine_(std::move(machine)) {
  assert(network_->HasHost(machine_) && "browser machine must be a network host");
}

Browser::~Browser() {
  for (auto& [origin, pool] : pools_) {
    for (auto& conn : pool.connections) {
      if (conn->endpoint != nullptr) {
        conn->endpoint->Close();
      }
    }
  }
}

void Browser::DispatchQueued(const std::string& origin) {
  auto it = pools_.find(origin);
  if (it == pools_.end()) {
    return;
  }
  OriginPool& pool = it->second;
  while (!pool.queue.empty()) {
    // Prefer an idle existing connection.
    Connection* idle = nullptr;
    for (auto& conn : pool.connections) {
      if (!conn->in_flight.has_value()) {
        idle = conn.get();
        break;
      }
    }
    if (idle == nullptr) {
      if (pool.connections.size() >= kMaxConnectionsPerOrigin) {
        return;  // all busy; requests stay queued
      }
      // Open a new connection for this origin.
      const Url& url = pool.queue.front().url;
      auto endpoint_or = network_->Connect(machine_, url.host(), url.port());
      if (!endpoint_or.ok()) {
        // Connection refused: fail the whole queue.
        std::deque<PendingFetch> failed = std::move(pool.queue);
        pool.queue.clear();
        Status error = endpoint_or.status();
        for (auto& pending : failed) {
          FetchResult result;
          result.status = error;
          result.final_url = pending.url;
          result.elapsed = loop_->now() - pending.start;
          pending.callback(std::move(result));
        }
        return;
      }
      auto conn_owned = std::make_unique<Connection>();
      conn_owned->endpoint = *endpoint_or;
      Connection* conn = conn_owned.get();
      conn->endpoint->SetDataHandler([this, origin, conn](std::string_view data) {
        OnConnectionData(origin, conn, data);
      });
      conn->endpoint->SetCloseHandler(
          [this, origin, conn] { OnConnectionClosed(origin, conn); });
      pool.connections.push_back(std::move(conn_owned));
      idle = conn;
    }
    PendingFetch pending = std::move(pool.queue.front());
    pool.queue.pop_front();
    std::string wire = std::move(pending.wire);
    idle->in_flight = std::move(pending);
    idle->endpoint->Send(std::move(wire));
  }
}

void Browser::OnConnectionData(const std::string& origin, Connection* conn,
                               std::string_view data) {
  auto result = conn->parser.Feed(data);
  if (!result.ok()) {
    RCB_LOG(kWarning) << machine_ << ": bad response from " << origin << ": "
                      << result.status();
    conn->endpoint->Close();
    OnConnectionClosed(origin, conn);
    return;
  }
  if (!result->has_value()) {
    return;  // need more bytes
  }
  if (!conn->in_flight.has_value()) {
    RCB_LOG(kWarning) << machine_ << ": unsolicited response from " << origin;
    return;
  }
  PendingFetch pending = std::move(*conn->in_flight);
  conn->in_flight.reset();

  HttpResponse response = std::move(**result);
  // Store cookies before handing the response to the caller.
  for (const auto& set_cookie : response.headers.GetAll("Set-Cookie")) {
    cookies_.ApplySetCookie(pending.url, set_cookie, loop_->now());
  }
  FetchResult fetch_result;
  fetch_result.status = Status::Ok();
  fetch_result.response = std::move(response);
  fetch_result.final_url = pending.url;
  fetch_result.elapsed = loop_->now() - pending.start;
  pending.callback(std::move(fetch_result));
  // The connection is idle again; hand it the next queued request (the
  // callback may have enqueued more work or torn the pool down).
  DispatchQueued(origin);
}

void Browser::OnConnectionClosed(const std::string& origin, Connection* conn) {
  auto it = pools_.find(origin);
  if (it == pools_.end()) {
    return;
  }
  OriginPool& pool = it->second;
  std::optional<PendingFetch> failed;
  bool found = false;
  for (size_t i = 0; i < pool.connections.size(); ++i) {
    if (pool.connections[i].get() == conn) {
      failed = std::move(conn->in_flight);
      pool.connections.erase(pool.connections.begin() + static_cast<ptrdiff_t>(i));
      found = true;
      break;
    }
  }
  if (!found) {
    return;  // already removed
  }
  if (failed.has_value()) {
    FetchResult result;
    result.status = UnavailableError("connection to " + origin + " closed");
    result.final_url = failed->url;
    result.elapsed = loop_->now() - failed->start;
    failed->callback(std::move(result));
  }
  DispatchQueued(origin);
}

void Browser::AbortOriginConnections(const Url& url) {
  std::string origin = url.scheme() + "://" + url.Authority();
  auto it = pools_.find(origin);
  if (it == pools_.end()) {
    return;
  }
  // Detach the pool first: closing endpoints must not re-enter
  // OnConnectionClosed and the failed callbacks may immediately Fetch again,
  // which deserves a fresh pool.
  OriginPool pool = std::move(it->second);
  pools_.erase(it);
  std::vector<PendingFetch> failed;
  for (auto& conn : pool.connections) {
    if (conn->in_flight.has_value()) {
      failed.push_back(std::move(*conn->in_flight));
      conn->in_flight.reset();
    }
    if (conn->endpoint != nullptr) {
      conn->endpoint->SetDataHandler(nullptr);
      conn->endpoint->SetCloseHandler(nullptr);
      conn->endpoint->Close();
    }
  }
  for (auto& pending : pool.queue) {
    failed.push_back(std::move(pending));
  }
  pool.queue.clear();
  for (auto& pending : failed) {
    FetchResult result;
    result.status = AbortedError("connection to " + origin + " aborted");
    result.final_url = pending.url;
    result.elapsed = loop_->now() - pending.start;
    pending.callback(std::move(result));
  }
}

void Browser::Fetch(HttpMethod method, const Url& url, std::string body,
                    std::string content_type, FetchCallback callback) {
  HttpRequest request;
  request.method = method;
  request.target = url.PathAndQuery();
  request.headers.Set("Host", url.Authority());
  request.headers.Set("User-Agent", "rcb-sim-browser/1.0");
  std::string cookie = cookies_.CookieHeaderFor(url, loop_->now());
  if (!cookie.empty()) {
    request.headers.Set("Cookie", cookie);
  }
  if (!content_type.empty()) {
    request.headers.Set("Content-Type", content_type);
  }
  request.body = std::move(body);

  std::string origin = url.scheme() + "://" + url.Authority();
  PendingFetch pending;
  pending.callback = std::move(callback);
  pending.start = loop_->now();
  pending.url = url;
  pending.wire = request.Serialize();
  pools_[origin].queue.push_back(std::move(pending));
  DispatchQueued(origin);
}

void Browser::FetchCached(const Url& url, FetchCallback callback) {
  if (cache_enabled_) {
    const CacheEntry* entry = cache().Lookup(url);
    if (entry != nullptr) {
      FetchResult result;
      result.status = Status::Ok();
      result.response = HttpResponse::Ok(entry->content_type, entry->body);
      result.final_url = url;
      result.from_cache = true;
      result.elapsed = Duration::Zero();
      loop_->Schedule(Duration::Zero(),
                      [callback = std::move(callback),
                       result = std::move(result)]() mutable {
                        callback(std::move(result));
                      });
      return;
    }
  }
  Fetch(HttpMethod::kGet, url, "", "",
        [this, url, callback = std::move(callback)](FetchResult result) {
          if (result.status.ok() && result.response.status_code == 200 &&
              cache_enabled_) {
            std::string content_type =
                result.response.headers.Get("Content-Type").value_or(
                    "application/octet-stream");
            cache().Put(url, content_type, result.response.body);
          }
          callback(std::move(result));
        });
}

void Browser::FetchFollowingRedirects(const Url& url, int redirects_left,
                                      SimTime started, FetchCallback callback) {
  Fetch(HttpMethod::kGet, url, "", "",
        [this, url, redirects_left, started,
         callback = std::move(callback)](FetchResult result) {
          if (result.status.ok() &&
              (result.response.status_code == 301 ||
               result.response.status_code == 302)) {
            auto location = result.response.headers.Get("Location");
            if (location.has_value() && redirects_left > 0) {
              auto next = url.Resolve(*location);
              if (next.ok()) {
                FetchFollowingRedirects(*next, redirects_left - 1, started,
                                        std::move(callback));
                return;
              }
            }
            result.status = InternalError("bad redirect from " + url.ToString());
          }
          result.elapsed = loop_->now() - started;
          callback(std::move(result));
        });
}

void Browser::Navigate(const Url& url, NavigateCallback callback) {
  uint64_t epoch = ++navigation_epoch_;
  auto context = std::make_shared<PageLoadContext>();
  context->url = url;
  context->nav_start = loop_->now();
  context->epoch = epoch;
  context->callback = std::move(callback);

  FetchFollowingRedirects(
      url, /*redirects_left=*/5, loop_->now(),
      [this, context](FetchResult result) {
        if (context->epoch != navigation_epoch_) {
          return;  // superseded by a newer navigation
        }
        if (!result.status.ok()) {
          context->callback(result.status, context->stats);
          return;
        }
        if (result.response.status_code != 200) {
          context->callback(
              InternalError(StrFormat("HTTP %d for %s",
                                      result.response.status_code,
                                      context->url.ToString().c_str())),
              context->stats);
          return;
        }
        context->stats.html_time = loop_->now() - context->nav_start;
        context->stats.html_bytes = result.response.body.size();
        document_ = ParseDocument(result.response.body);
        current_url_ = result.final_url;
        recorded_resources_.clear();
        context->objects_start = loop_->now();
        LoadObjects(context);
      });
}

void Browser::LoadObjects(std::shared_ptr<PageLoadContext> context) {
  std::vector<ResourceRef> resources =
      CollectResources(document_.get(), current_url_, 0);
  context->outstanding = resources.size();
  context->stats.object_count = resources.size();

  auto finish = [this, context] {
    context->stats.objects_time = loop_->now() - context->objects_start;
    last_load_stats_ = context->stats;
    NotifyChange();
    context->callback(Status::Ok(), context->stats);
  };

  if (resources.empty()) {
    finish();
    return;
  }
  for (const ResourceRef& resource : resources) {
    recorded_resources_.push_back(resource);
    FetchCached(resource.url,
                [this, context, finish](FetchResult result) {
                  if (context->epoch != navigation_epoch_) {
                    return;
                  }
                  if (result.status.ok()) {
                    context->stats.object_bytes += result.response.body.size();
                  }
                  if (result.from_cache) {
                    ++context->stats.objects_from_cache;
                  }
                  if (--context->outstanding == 0) {
                    finish();
                  }
                });
  }
}

void Browser::MutateDocument(const std::function<void(Document*)>& mutator) {
  assert(document_ != nullptr);
  mutator(document_.get());
  NotifyChange();
}

void Browser::ReplaceDocument(std::unique_ptr<Document> document, const Url& url) {
  document_ = std::move(document);
  current_url_ = url;
  NotifyChange();
}

void Browser::NotifyChange() {
  if (change_listener_) {
    change_listener_();
  }
}

Status Browser::ClickLink(Element* anchor, NavigateCallback callback) {
  if (anchor == nullptr || anchor->tag_name() != "a") {
    return InvalidArgumentError("ClickLink target is not an anchor");
  }
  std::string href = anchor->AttrOr("href");
  if (href.empty()) {
    return FailedPreconditionError("anchor has no href");
  }
  RCB_ASSIGN_OR_RETURN(Url target, current_url_.Resolve(href));
  Navigate(target, std::move(callback));
  return Status::Ok();
}

Status Browser::FillField(Element* form, std::string_view name,
                          std::string_view value) {
  if (form == nullptr) {
    return InvalidArgumentError("null form");
  }
  Element* found = nullptr;
  form->ForEachElement([&](Element* element) {
    const std::string& tag = element->tag_name();
    if ((tag == "input" || tag == "textarea" || tag == "select") &&
        element->AttrOr("name") == name) {
      found = element;
      return false;
    }
    return true;
  });
  if (found == nullptr) {
    return NotFoundError("no form field named " + std::string(name));
  }
  if (found->tag_name() == "textarea") {
    found->RemoveAllChildren();
    found->AppendChild(MakeText(std::string(value)));
  } else {
    found->SetAttribute("value", value);
  }
  return Status::Ok();
}

Status Browser::SubmitForm(Element* form, NavigateCallback callback) {
  if (form == nullptr || form->tag_name() != "form") {
    return InvalidArgumentError("SubmitForm target is not a form");
  }
  // Collect named fields in document order (buttons excluded).
  std::vector<std::pair<std::string, std::string>> fields;
  form->ForEachElement([&](Element* element) {
    const std::string& tag = element->tag_name();
    std::string name = element->AttrOr("name");
    if (name.empty()) {
      return true;
    }
    if (tag == "input") {
      std::string type = AsciiToLower(element->AttrOr("type", "text"));
      if (type == "submit" || type == "button" || type == "image") {
        return true;
      }
      if ((type == "checkbox" || type == "radio") &&
          !element->HasAttribute("checked")) {
        return true;
      }
      fields.emplace_back(name, element->AttrOr("value"));
    } else if (tag == "textarea") {
      fields.emplace_back(name, element->TextContent());
    } else if (tag == "select") {
      std::string selected;
      element->ForEachElement([&](Element* option) {
        if (option->tag_name() == "option" &&
            (selected.empty() || option->HasAttribute("selected"))) {
          selected = option->AttrOr("value", option->TextContent());
        }
        return true;
      });
      fields.emplace_back(name, selected);
    }
    return true;
  });

  std::string action = form->AttrOr("action");
  RCB_ASSIGN_OR_RETURN(Url target,
                       current_url_.Resolve(action.empty() ? "" : action));
  std::string method = AsciiToLower(form->AttrOr("method", "get"));
  std::string encoded = EncodeFormUrlEncoded(fields);

  if (method == "post") {
    uint64_t epoch = ++navigation_epoch_;
    auto context = std::make_shared<PageLoadContext>();
    context->url = target;
    context->nav_start = loop_->now();
    context->epoch = epoch;
    context->callback = std::move(callback);
    Fetch(HttpMethod::kPost, target, encoded, "application/x-www-form-urlencoded",
          [this, context, target](FetchResult result) {
            if (context->epoch != navigation_epoch_) {
              return;
            }
            if (!result.status.ok()) {
              context->callback(result.status, context->stats);
              return;
            }
            // Follow a post-redirect-get if the server asks for it.
            if (result.response.status_code == 301 ||
                result.response.status_code == 302) {
              auto location = result.response.headers.Get("Location");
              if (location.has_value()) {
                auto next = target.Resolve(*location);
                if (next.ok()) {
                  // Delegate to Navigate; restore epoch ownership to it.
                  Navigate(*next, std::move(context->callback));
                  return;
                }
              }
            }
            if (result.response.status_code != 200) {
              context->callback(InternalError(StrFormat(
                                    "HTTP %d on form submit",
                                    result.response.status_code)),
                                context->stats);
              return;
            }
            context->stats.html_time = loop_->now() - context->nav_start;
            context->stats.html_bytes = result.response.body.size();
            document_ = ParseDocument(result.response.body);
            current_url_ = result.final_url;
            recorded_resources_.clear();
            context->objects_start = loop_->now();
            LoadObjects(context);
          });
    return Status::Ok();
  }

  // GET: encode fields into the query string.
  Url get_target = Url::Make(target.scheme(), target.host(), target.port(),
                             target.path(), encoded);
  Navigate(get_target, std::move(callback));
  return Status::Ok();
}

}  // namespace rcb
