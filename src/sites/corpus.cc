#include "src/sites/corpus.h"

#include <cassert>

#include "src/util/rand.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

constexpr int64_t kMbps = 1'000'000;

std::vector<SiteSpec> BuildTable1() {
  // index, name, host, page_kb (Table 1), object_count, object_total_kb,
  // one-way latency ms, server bandwidth.
  // Object weights approximate 2009-era page compositions; latencies follow
  // rough geography from a US campus (yahoo.co.jp / mail.ru / free.fr far).
  struct Row {
    int index;
    const char* name;
    const char* host;
    double page_kb;
    int objects;
    double object_kb;
    int latency_ms;
    int64_t bps;
    int page_delay_ms;    // homepage generation time at the origin
    int object_delay_ms;  // per-object time to first byte
  };
  // page_delay reflects how slow the big 2009 front pages were to generate
  // and deliver their first byte from a home connection; the values are
  // calibrated so the WAN M1/M2 relationship of Fig. 7 reproduces (17/20
  // sites sync faster through RCB than a direct download, the three largest
  // pages — yahoo, amazon, nytimes — being the exceptions).
  static const Row kRows[] = {
      {1, "yahoo.com", "www.yahoo.com", 130.3, 28, 147.0, 24, 10 * kMbps, 2200, 180},
      {2, "google.com", "www.google.com", 6.8, 4, 36.0, 14, 12 * kMbps, 500, 120},
      {3, "youtube.com", "www.youtube.com", 69.2, 26, 92.0, 18, 10 * kMbps, 2400, 160},
      {4, "live.com", "www.live.com", 20.9, 8, 49.0, 28, 8 * kMbps, 1000, 160},
      {5, "msn.com", "www.msn.com", 49.6, 22, 75.0, 26, 8 * kMbps, 1800, 170},
      {6, "myspace.com", "www.myspace.com", 53.2, 24, 78.0, 34, 6 * kMbps, 1800, 190},
      {7, "wikipedia.org", "www.wikipedia.org", 51.7, 14, 77.0, 38, 7 * kMbps, 1700, 170},
      {8, "facebook.com", "www.facebook.com", 23.2, 10, 51.0, 24, 10 * kMbps, 900, 150},
      {9, "yahoo.co.jp", "www.yahoo.co.jp", 101.4, 30, 121.0, 88, 7 * kMbps, 2500, 200},
      {10, "ebay.com", "www.ebay.com", 50.5, 20, 75.0, 30, 8 * kMbps, 1700, 170},
      {11, "aol.com", "www.aol.com", 71.3, 24, 94.0, 33, 7 * kMbps, 2200, 180},
      {12, "mail.ru", "www.mail.ru", 83.8, 26, 105.0, 112, 5 * kMbps, 1600, 200},
      {13, "amazon.com", "www.amazon.com", 228.5, 40, 236.0, 29, 9 * kMbps, 3000, 170},
      {14, "cnn.com", "www.cnn.com", 109.4, 32, 128.0, 32, 8 * kMbps, 3300, 180},
      {15, "espn.go.com", "espn.go.com", 110.9, 30, 130.0, 31, 8 * kMbps, 3400, 180},
      {16, "free.fr", "www.free.fr", 70.0, 22, 93.0, 96, 6 * kMbps, 1300, 200},
      {17, "adobe.com", "www.adobe.com", 37.3, 14, 64.0, 23, 9 * kMbps, 1300, 160},
      {18, "apple.com", "www.apple.com", 10.0, 9, 39.0, 21, 10 * kMbps, 500, 140},
      {19, "about.com", "www.about.com", 35.8, 16, 62.0, 27, 8 * kMbps, 1200, 160},
      {20, "nytimes.com", "www.nytimes.com", 120.0, 34, 138.0, 28, 8 * kMbps, 2000, 180},
  };
  std::vector<SiteSpec> sites;
  sites.reserve(std::size(kRows));
  for (const Row& row : kRows) {
    SiteSpec spec;
    spec.index = row.index;
    spec.name = row.name;
    spec.host = row.host;
    spec.page_kb = row.page_kb;
    spec.object_count = row.objects;
    spec.object_total_kb = row.object_kb;
    spec.server_latency = Duration::Millis(row.latency_ms);
    spec.server_bps = row.bps;
    spec.page_delay = Duration::Millis(row.page_delay_ms);
    spec.object_delay = Duration::Millis(row.object_delay_ms);
    sites.push_back(std::move(spec));
  }
  return sites;
}

// Deterministic filler prose.
const char* const kWords[] = {
    "news",    "world",   "today",   "video",  "search",  "home",   "online",
    "service", "free",    "sign",    "account","market",  "sports", "weather",
    "travel",  "music",   "photo",   "share",  "friend",  "update", "local",
    "mobile",  "health",  "money",   "games",  "movies",  "style",  "tech",
    "science", "business","politics","culture","review",  "offer",  "deal",
    "shop",    "member",  "profile", "message","contact"};

std::string FillerSentence(Rng* rng, int words) {
  std::string out;
  for (int i = 0; i < words; ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += kWords[rng->NextBelow(std::size(kWords))];
  }
  out += '.';
  return out;
}

std::string FillerCss(Rng* rng, int rules) {
  std::string out;
  for (int i = 0; i < rules; ++i) {
    out += StrFormat(".c%d{margin:%dpx;padding:%dpx;color:#%06x}", i,
                     static_cast<int>(rng->NextBelow(20)),
                     static_cast<int>(rng->NextBelow(12)),
                     static_cast<unsigned>(rng->NextBelow(0xFFFFFF)));
  }
  return out;
}

// Pseudo-binary payload of exactly `bytes` bytes.
std::string ObjectPayload(Rng* rng, size_t bytes) {
  return rng->NextBytes(bytes);
}

uint64_t SeedFor(const SiteSpec& spec) {
  uint64_t seed = 0x5e55;
  for (char c : spec.host) {
    seed = seed * 131 + static_cast<unsigned char>(c);
  }
  return seed + static_cast<uint64_t>(spec.index);
}

}  // namespace

const std::vector<SiteSpec>& Table1Sites() {
  static const std::vector<SiteSpec>* sites = new std::vector<SiteSpec>(BuildTable1());
  return *sites;
}

const SiteSpec* FindSite(const std::string& name) {
  for (const SiteSpec& spec : Table1Sites()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

GeneratedSite GenerateHomepage(const SiteSpec& spec) {
  Rng rng(SeedFor(spec));
  GeneratedSite site;

  // --- Supplementary objects -------------------------------------------
  // Mix: 2 stylesheets, 2-3 scripts, the rest images. Sizes split around the
  // mean with +-50% jitter, then the last object absorbs the remainder.
  size_t object_budget = static_cast<size_t>(spec.object_total_kb * 1024.0);
  int stylesheets = spec.object_count >= 6 ? 2 : 1;
  int scripts = spec.object_count >= 10 ? 3 : 1;
  int images = spec.object_count - stylesheets - scripts;
  if (images < 0) {
    images = 0;
  }
  size_t mean = object_budget / static_cast<size_t>(spec.object_count);
  size_t used = 0;
  auto next_size = [&](bool last) {
    if (last) {
      return object_budget > used ? object_budget - used : size_t{128};
    }
    size_t lo = mean / 2 > 64 ? mean / 2 : 64;
    size_t size = lo + rng.NextBelow(mean);
    return size;
  };
  int emitted = 0;
  for (int i = 0; i < stylesheets; ++i, ++emitted) {
    GeneratedObject object;
    object.path = StrFormat("/static/style%d.css", i);
    object.content_type = "text/css";
    size_t size = next_size(emitted + 1 == spec.object_count);
    object.body = FillerCss(&rng, 8);
    if (object.body.size() < size) {
      object.body += FillerCss(&rng, static_cast<int>((size - object.body.size()) / 44 + 1));
    }
    object.body.resize(size, ' ');
    used += object.body.size();
    site.objects.push_back(std::move(object));
  }
  for (int i = 0; i < scripts; ++i, ++emitted) {
    GeneratedObject object;
    object.path = StrFormat("/static/app%d.js", i);
    object.content_type = "application/javascript";
    size_t size = next_size(emitted + 1 == spec.object_count);
    object.body = StrFormat("/* %s */ function f%d(){return %d;}",
                            spec.name.c_str(), i,
                            static_cast<int>(rng.NextBelow(1000)));
    object.body.resize(size, ';');
    used += object.body.size();
    site.objects.push_back(std::move(object));
  }
  for (int i = 0; i < images; ++i, ++emitted) {
    GeneratedObject object;
    object.path = StrFormat("/static/img%d.png", i);
    object.content_type = "image/png";
    size_t size = next_size(emitted + 1 == spec.object_count);
    object.body = ObjectPayload(&rng, size);
    used += object.body.size();
    site.objects.push_back(std::move(object));
  }

  // --- HTML document -----------------------------------------------------
  size_t html_target = static_cast<size_t>(spec.page_kb * 1024.0);
  std::string head;
  head += StrFormat("<title>%s - homepage</title>", spec.name.c_str());
  head += "<meta http-equiv=\"content-type\" content=\"text/html; charset=utf-8\">";
  head += StrFormat("<meta name=\"description\" content=\"%s front page\">",
                    spec.name.c_str());
  for (int i = 0; i < stylesheets; ++i) {
    head += StrFormat("<link rel=\"stylesheet\" href=\"/static/style%d.css\">", i);
  }
  head += "<style>";
  head += FillerCss(&rng, 12);
  head += "</style>";
  head += "<script>var page={loaded:false};function init(){page.loaded=true;}</script>";

  std::string body;
  body += "<div id=\"hdr\"><h1>";
  body += spec.name;
  body += "</h1><ul id=\"nav\">";
  for (int i = 0; i < 8; ++i) {
    body += StrFormat("<li><a href=\"/section%d\">%s</a></li>", i,
                      kWords[rng.NextBelow(std::size(kWords))]);
  }
  body += "</ul></div>";
  body += "<form id=\"search\" action=\"/search\" method=\"get\">"
          "<input type=\"text\" name=\"q\" value=\"\">"
          "<input type=\"submit\" name=\"go\" value=\"Search\"></form>";

  // Interleave images into content sections, round-robin.
  int image_index = 0;
  int section = 0;
  auto add_section = [&] {
    body += StrFormat("<div class=\"c%d\" id=\"sec%d\"><h2>%s</h2>", section % 12,
                      section, kWords[rng.NextBelow(std::size(kWords))]);
    body += "<p>";
    body += FillerSentence(&rng, 18);
    body += ' ';
    body += FillerSentence(&rng, 14);
    body += "</p>";
    if (image_index < images) {
      body += StrFormat("<img src=\"/static/img%d.png\" alt=\"im%d\">",
                        image_index, image_index);
      ++image_index;
    }
    body += StrFormat("<p><a href=\"/story/%d\">%s</a> %s</p>", section,
                      kWords[rng.NextBelow(std::size(kWords))],
                      FillerSentence(&rng, 10).c_str());
    body += "</div>";
    ++section;
  };

  // Assemble until the target size is (nearly) reached, then pad exactly.
  auto assemble = [&](const std::string& head_html, const std::string& body_html,
                      const std::string& scripts_html) {
    std::string out = "<!DOCTYPE html><html><head>";
    out += head_html;
    out += "</head><body onload=\"init()\">";
    out += body_html;
    out += scripts_html;
    out += "</body></html>";
    return out;
  };
  std::string scripts_html;
  for (int i = 0; i < scripts; ++i) {
    scripts_html += StrFormat("<script src=\"/static/app%d.js\"></script>", i);
  }

  // The page's length without assembling it: the frame plus the three parts.
  const size_t frame_bytes = assemble("", "", "").size();
  while (frame_bytes + head.size() + body.size() + scripts_html.size() + 400 <
         html_target) {
    add_section();
    if (image_index >= images && section > 400) {
      break;  // degenerate target guard
    }
  }
  // Make sure every image is referenced even on tiny pages.
  while (image_index < images) {
    body += StrFormat("<img src=\"/static/img%d.png\" alt=\"im%d\">", image_index,
                      image_index);
    ++image_index;
  }
  std::string html = assemble(head, body, scripts_html);
  if (html.size() < html_target) {
    // Exact-size pad via a comment before </body></html>.
    size_t pad = html_target - html.size();
    std::string filler = pad > 9 ? std::string(pad - 9, 'x') : std::string();
    std::string comment = "<!--" + filler + "-->";
    size_t insert_at = html.rfind("</body>");
    html.insert(insert_at, comment);
  }
  site.html = std::move(html);
  return site;
}

std::unique_ptr<SiteServer> InstallSite(EventLoop* loop, Network* network,
                                        const SiteSpec& spec) {
  GeneratedSite generated = GenerateHomepage(spec);
  auto server = std::make_unique<SiteServer>(loop, network, spec.host);
  server->set_processing_delay(spec.object_delay);
  server->SetPathDelay("/", spec.page_delay);
  server->ServeStatic("/", "text/html", std::move(generated.html));
  for (auto& object : generated.objects) {
    server->ServeStatic(object.path, object.content_type, std::move(object.body));
  }
  // Section/story links resolve to small secondary pages so click-through
  // navigation works during co-browsing sessions.
  server->SetDefaultHandler([name = spec.name](const HttpRequest& request) {
    std::string page = StrFormat(
        "<html><head><title>%s%s</title></head><body><h1>%s</h1>"
        "<p>secondary page</p><p><a href=\"/\">back</a></p></body></html>",
        name.c_str(), request.Path().c_str(), request.Path().c_str());
    return HttpResponse::Ok("text/html", page);
  });
  return server;
}

}  // namespace rcb
