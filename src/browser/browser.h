// Simulated Web browser.
//
// This is the substitute for Firefox in the paper's artifact: it loads pages
// over the simulated network, parses them into a DOM, fetches supplementary
// objects through an object cache, maintains cookies per origin, records
// every resource download (the nsIObserverService analogue RCB-Agent relies
// on for URL rewriting), and exposes the user-gesture and scripted-mutation
// hooks that RCB instruments.
//
// All I/O is asynchronous on the shared EventLoop; callbacks fire in
// simulated time.
#ifndef SRC_BROWSER_BROWSER_H_
#define SRC_BROWSER_BROWSER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/browser/object_cache.h"
#include "src/browser/resources.h"
#include "src/html/dom.h"
#include "src/html/parser.h"
#include "src/http/cookie.h"
#include "src/http/http_parser.h"
#include "src/http/message.h"
#include "src/http/url.h"
#include "src/net/network.h"
#include "src/util/status.h"

namespace rcb {

// Outcome of a single resource fetch.
struct FetchResult {
  Status status;          // transport-level outcome
  HttpResponse response;  // valid when status.ok()
  Url final_url;          // after redirects
  bool from_cache = false;
  Duration elapsed;       // request issued -> response complete
};
using FetchCallback = std::function<void(FetchResult)>;

// Timing breakdown of a completed page load. html_time corresponds to the
// paper's M1 (document load) and objects_time to M3 (supplementary objects)
// when measured on a direct-to-origin load.
struct PageLoadStats {
  Duration html_time;
  Duration objects_time;
  size_t object_count = 0;
  size_t objects_from_cache = 0;
  uint64_t html_bytes = 0;
  uint64_t object_bytes = 0;
};
using NavigateCallback = std::function<void(const Status&, const PageLoadStats&)>;

class Browser {
 public:
  // `machine` must be a host registered in `network`.
  Browser(EventLoop* loop, Network* network, std::string machine);
  ~Browser();
  Browser(const Browser&) = delete;
  Browser& operator=(const Browser&) = delete;

  // -- Navigation ----------------------------------------------------------
  // Loads `url` as the current page: fetches the HTML document, parses it,
  // then fetches all supplementary objects (through the cache when enabled).
  // Follows up to 5 redirects. The callback fires when the page and all its
  // objects are loaded.
  void Navigate(const Url& url, NavigateCallback callback);

  // -- Raw fetches ---------------------------------------------------------
  // Issues a request on the per-origin persistent connection. Used by page
  // loads, by Ajax (XMLHttpRequest equivalent), and by form submission.
  void Fetch(HttpMethod method, const Url& url, std::string body,
             std::string content_type, FetchCallback callback);

  // GET that consults the object cache first; on miss, fetches and caches.
  void FetchCached(const Url& url, FetchCallback callback);

  // Tears down every connection to `url`'s origin and fails its in-flight
  // and queued fetches with kAborted. Used by recovery paths that must stop
  // waiting on a wedged link before re-handshaking.
  void AbortOriginConnections(const Url& url);

  // -- Current page --------------------------------------------------------
  Document* document() { return document_.get(); }
  const Url& current_url() const { return current_url_; }
  bool has_page() const { return document_ != nullptr; }
  const PageLoadStats& last_load_stats() const { return last_load_stats_; }

  // Resource downloads recorded during the current page's load, in request
  // order with absolute URLs — what RCB-Agent's observer consumes (Fig. 3
  // step 2).
  const std::vector<ResourceRef>& recorded_resources() const {
    return recorded_resources_;
  }

  // -- Scripted DOM mutation -----------------------------------------------
  // Runs `mutator` against the live document and fires the change listener;
  // models JavaScript/Ajax updating the page (Google-Maps-style DHTML).
  void MutateDocument(const std::function<void(Document*)>& mutator);

  // Replaces the whole document without any network activity (used by
  // Ajax-Snippet applying a snapshot on a participant browser).
  void ReplaceDocument(std::unique_ptr<Document> document, const Url& url);

  // Fires after every completed navigation and scripted mutation.
  void SetDocumentChangeListener(std::function<void()> listener) {
    change_listener_ = std::move(listener);
  }

  // -- User gestures (host side) -------------------------------------------
  // Click an anchor: resolves its href against the page URL and navigates.
  Status ClickLink(Element* anchor, NavigateCallback callback);
  // Fill a named input/textarea/select in `form` with `value`.
  static Status FillField(Element* form, std::string_view name,
                          std::string_view value);
  // Submit a form: collects its fields, applies method/action, navigates.
  Status SubmitForm(Element* form, NavigateCallback callback);

  // -- State ---------------------------------------------------------------
  CookieJar& cookies() { return cookies_; }
  ObjectCache& cache() {
    return shared_cache_ != nullptr ? *shared_cache_ : cache_;
  }
  // Redirects every cache access to `shared` (not owned; must outlive this
  // browser). RcbHost points all session browsers at one host-wide cache so
  // supplementary objects fetched for one session serve every session.
  // nullptr restores the built-in per-browser cache.
  void UseSharedCache(ObjectCache* shared) { shared_cache_ = shared; }
  bool uses_shared_cache() const { return shared_cache_ != nullptr; }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  bool cache_enabled() const { return cache_enabled_; }

  EventLoop* loop() { return loop_; }
  Network* network() { return network_; }
  const std::string& machine() const { return machine_; }

  // Per-origin connection limit, matching the HTTP/1.1 guidance the paper's
  // browser generation followed (RFC 2616 §8.1.4: two connections). Requests
  // beyond the limit queue; each connection carries one request at a time.
  static constexpr size_t kMaxConnectionsPerOrigin = 2;

 private:
  struct PendingFetch {
    FetchCallback callback;
    SimTime start;
    Url url;
    std::string wire;  // serialized request, kept until dispatched
  };
  struct Connection {
    NetEndpoint* endpoint = nullptr;
    HttpResponseParser parser;
    std::optional<PendingFetch> in_flight;
  };
  struct OriginPool {
    std::vector<std::unique_ptr<Connection>> connections;
    std::deque<PendingFetch> queue;
  };

  // Assigns queued requests to idle (or newly opened) connections.
  void DispatchQueued(const std::string& origin);
  void OnConnectionData(const std::string& origin, Connection* conn,
                        std::string_view data);
  void OnConnectionClosed(const std::string& origin, Connection* conn);
  void FetchFollowingRedirects(const Url& url, int redirects_left,
                               SimTime started, FetchCallback callback);
  void LoadObjects(std::shared_ptr<struct PageLoadContext> context);
  void NotifyChange();

  EventLoop* loop_;
  Network* network_;
  std::string machine_;

  std::map<std::string, OriginPool> pools_;  // keyed by origin string

  std::unique_ptr<Document> document_;
  Url current_url_;
  PageLoadStats last_load_stats_;
  std::vector<ResourceRef> recorded_resources_;

  CookieJar cookies_;
  ObjectCache cache_;
  ObjectCache* shared_cache_ = nullptr;  // overrides cache_ when non-null
  bool cache_enabled_ = true;

  std::function<void()> change_listener_;
  uint64_t navigation_epoch_ = 0;  // invalidates in-flight loads
};

}  // namespace rcb

#endif  // SRC_BROWSER_BROWSER_H_
