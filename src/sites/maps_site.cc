#include "src/sites/maps_site.h"

#include <memory>

#include "src/util/escape.h"
#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

std::string TilePath(int z, int x, int y) {
  return StrFormat("/tile/%d/%d/%d.png", z, x, y);
}

// The 3x3 grid markup for a given center/zoom.
std::string GridHtml(int cx, int cy, int z) {
  std::string out = StrFormat(
      "<div id=\"map\" data-x=\"%d\" data-y=\"%d\" data-z=\"%d\">", cx, cy, z);
  for (int row = -1; row <= 1; ++row) {
    out += "<div class=\"tilerow\">";
    for (int col = -1; col <= 1; ++col) {
      out += StrFormat("<img class=\"tile\" src=\"%s\" alt=\"t\">",
                       TilePath(z, cx + col, cy + row).c_str());
    }
    out += "</div>";
  }
  out += "</div>";
  return out;
}

}  // namespace

MapsSite::MapsSite(EventLoop* loop, Network* network, std::string host)
    : host_(std::move(host)) {
  server_ = std::make_unique<SiteServer>(loop, network, host_);
  server_->Route("/", [this](const HttpRequest& r) { return MapPage(r); });
  server_->RoutePrefix("/tile/", [this](const HttpRequest& r) { return Tile(r); });
  server_->Route("/geocode",
                 [this](const HttpRequest& r) { return GeocodeHandler(r); });
  server_->ServeStatic("/static/maps.css", "text/css",
                       ".tile{width:256px;height:256px}.tilerow{height:256px}");
  server_->ServeStatic("/static/streetview.swf", "application/x-shockwave-flash",
                       std::string(64 * 1024, 'F'));
}

Url MapsSite::PageUrl() const { return Url::Make("http", host_, 80, "/"); }

std::pair<int, int> MapsSite::Geocode(const std::string& query) {
  uint64_t hash = 14695981039346656037ull;
  for (char c : query) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  int x = static_cast<int>(hash % 4096);
  int y = static_cast<int>((hash >> 16) % 4096);
  return {x, y};
}

HttpResponse MapsSite::MapPage(const HttpRequest&) {
  std::string body =
      "<h1>web maps</h1>"
      "<form id=\"mapsearch\" action=\"/geocode\" method=\"get\">"
      "<input type=\"text\" name=\"q\" value=\"\">"
      "<input type=\"submit\" name=\"go\" value=\"Search Maps\"></form>"
      "<div id=\"controls\"><a href=\"#\" id=\"zoomin\">+</a> "
      "<a href=\"#\" id=\"zoomout\">-</a> "
      "<a href=\"#\" id=\"streetview\">Street view</a></div>" +
      GridHtml(1000, 1000, kDefaultZoom) +
      "<div id=\"status\">drag the map or search for a place</div>";
  std::string page = StrFormat(
      "<!DOCTYPE html><html><head><title>web maps</title>"
      "<link rel=\"stylesheet\" href=\"/static/maps.css\">"
      "<script>var map={};</script></head><body>%s</body></html>",
      body.c_str());
  return HttpResponse::Ok("text/html", page);
}

HttpResponse MapsSite::Tile(const HttpRequest& request) {
  // Deterministic tile payload seeded by the tile coordinates.
  uint64_t seed = 0;
  for (char c : request.Path()) {
    seed = seed * 131 + static_cast<unsigned char>(c);
  }
  Rng rng(seed);
  return HttpResponse::Ok("image/png", rng.NextBytes(kTileBytes));
}

HttpResponse MapsSite::GeocodeHandler(const HttpRequest& request) {
  auto params = request.QueryParams();
  std::string query = params.count("q") ? params.at("q") : "";
  auto [x, y] = Geocode(query);
  return HttpResponse::Ok("text/plain", StrFormat("%d %d", x, y));
}

void MapsApp::Open(const Url& page_url, std::function<void(Status)> done) {
  page_url_ = page_url;
  browser_->Navigate(page_url,
                     [done = std::move(done)](const Status& status,
                                              const PageLoadStats&) {
                       done(status);
                     });
}

void MapsApp::ReloadTiles(std::function<void(Status)> done) {
  // Ajax phase: fetch the 9 tiles (cache-aware), then mutate the DOM grid in
  // place — the page URL is untouched.
  auto remaining = std::make_shared<int>(MapsSite::kGridSize * MapsSite::kGridSize);
  auto failed = std::make_shared<bool>(false);
  auto done_shared = std::make_shared<std::function<void(Status)>>(std::move(done));
  for (int row = -1; row <= 1; ++row) {
    for (int col = -1; col <= 1; ++col) {
      auto tile_url =
          page_url_.Resolve(TilePath(zoom_, center_x_ + col, center_y_ + row));
      if (!tile_url.ok()) {
        (*done_shared)(tile_url.status());
        return;
      }
      browser_->FetchCached(
          *tile_url, [this, remaining, failed, done_shared](FetchResult result) {
            if (!result.status.ok()) {
              *failed = true;
            }
            if (--*remaining > 0) {
              return;
            }
            if (*failed) {
              (*done_shared)(UnavailableError("tile fetch failed"));
              return;
            }
            int cx = center_x_;
            int cy = center_y_;
            int z = zoom_;
            browser_->MutateDocument([cx, cy, z](Document* document) {
              Element* map = document->ById("map");
              if (map == nullptr) {
                return;
              }
              std::string html = GridHtml(cx, cy, z);
              Node* parent = map->parent();
              auto fragment = ParseFragment(html);
              if (fragment.empty()) {
                return;
              }
              parent->InsertBefore(std::move(fragment[0]), map);
              parent->RemoveChild(map);
              Element* status = document->ById("status");
              if (status != nullptr) {
                status->RemoveAllChildren();
                status->AppendChild(MakeText(
                    StrFormat("view %d,%d @z%d", cx, cy, z)));
              }
            });
            (*done_shared)(Status::Ok());
          });
    }
  }
}

void MapsApp::Search(const std::string& query, std::function<void(Status)> done) {
  auto geocode_url = page_url_.Resolve("/geocode?q=" + PercentEncode(query));
  if (!geocode_url.ok()) {
    done(geocode_url.status());
    return;
  }
  browser_->Fetch(HttpMethod::kGet, *geocode_url, "", "",
                  [this, done = std::move(done)](FetchResult result) mutable {
                    if (!result.status.ok()) {
                      done(result.status);
                      return;
                    }
                    std::vector<std::string> xy =
                        StrSplit(result.response.body, ' ');
                    int x = 0;
                    int y = 0;
                    if (xy.size() != 2 || !ParseInt(xy[0], &x) ||
                        !ParseInt(xy[1], &y)) {
                      done(InternalError("bad geocode response"));
                      return;
                    }
                    center_x_ = x;
                    center_y_ = y;
                    zoom_ = MapsSite::kDefaultZoom;
                    ReloadTiles(std::move(done));
                  });
}

void MapsApp::ZoomIn(std::function<void(Status)> done) {
  ++zoom_;
  ReloadTiles(std::move(done));
}

void MapsApp::ZoomOut(std::function<void(Status)> done) {
  --zoom_;
  ReloadTiles(std::move(done));
}

void MapsApp::Pan(int dx, int dy, std::function<void(Status)> done) {
  center_x_ += dx;
  center_y_ += dy;
  ReloadTiles(std::move(done));
}

void MapsApp::ShowStreetView(std::function<void(Status)> done) {
  auto swf_url = page_url_.Resolve("/static/streetview.swf");
  if (!swf_url.ok()) {
    done(swf_url.status());
    return;
  }
  browser_->FetchCached(
      *swf_url, [this, done = std::move(done)](FetchResult result) mutable {
        if (!result.status.ok()) {
          done(result.status);
          return;
        }
        int cx = center_x_;
        int cy = center_y_;
        browser_->MutateDocument([cx, cy](Document* document) {
          Element* map = document->ById("map");
          if (map == nullptr) {
            return;
          }
          map->RemoveAllChildren();
          auto embed = MakeElement("embed");
          embed->SetAttribute("id", "svflash");
          embed->SetAttribute("src", "/static/streetview.swf");
          embed->SetAttribute("type", "application/x-shockwave-flash");
          map->AppendChild(std::move(embed));
          auto caption = MakeElement("p");
          caption->SetAttribute("id", "svcaption");
          caption->AppendChild(MakeText(StrFormat(
              "street view near %d,%d: Cartier store, four red roof "
              "show-windows on the Fifth Avenue side",
              cx, cy)));
          map->AppendChild(std::move(caption));
        });
        done(Status::Ok());
      });
}

}  // namespace rcb
