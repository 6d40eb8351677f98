// Hot-path benchmark: per-update serialization cost, incremental vs full
// (docs/PERF_MODEL.md).
//
// The serialization cache makes producing snapshot bytes proportional to the
// change instead of the page. This bench quantifies that: for each corpus
// site it drives repeated single-field updates (the paper's motivating small
// mutations) through the live generator (warm cache) and the reference
// generator (tests/support/reference_generator.h: clone, three rewrite
// passes, cold serialization — the pre-cache full path) over one host
// document, and compares the real CPU time of one update's serialization:
// the Fig. 3 extract stage plus the Fig. 4 snapshot XML encode. The encode
// step belongs in the measurement because that is where the full path pays
// its JsEscape of every payload byte; the incremental path splices
// pre-escaped CDATA there. Each update also asserts the two XML outputs are
// byte-identical, so the speedup never comes from diverging bytes.
//
// BENCH_hotpath.json carries the distributions plus `speedup_median`, the
// corpus-median full/incremental ratio with its 5x acceptance floor, and
// `incremental_ref_median_us`, the incremental path's own time per update
// (mutation, live generate and snapshot XML encode) in the reference-machine
// microseconds of e2e_bench/speed.h: thread CPU time scaled by a fixed
// reference kernel interleaved between updates, so machine-speed drift
// mostly cancels. scripts/ci.sh ratchets that time against the committed
// artifact (the fastest of three runs, speed within 0.8x). The ratio is not
// ratcheted: the reference path's speed moves with the compiler's code for
// functions no change touched.
//
// RCB_HOTPATH_SITES=<n> caps the corpus subset (sanitized CI runs use a
// reduced sweep); default is the full Table 1 corpus.
#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench/common.h"
#include "e2e_bench/speed.h"
#include "src/core/content_generator.h"
#include "src/core/protocol.h"
#include "src/html/dom.h"
#include "tests/support/reference_generator.h"

using namespace rcb;
using namespace rcb::benchutil;

namespace {

constexpr int kRounds = 9;            // odd: p50 is a real sample
constexpr int kUpdatesPerRound = 8;   // averaged per round for sub-us signal

double Percentile50(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

struct SiteHotpath {
  // Measurement-clock stretch of each round's warm block: kUpdatesPerRound
  // single-field updates, each a mutation, a live generate and an XML
  // encode. Normalized once every kernel sample is in (e2e::SpeedTimeline).
  std::vector<e2e::Interval> incremental_blocks;
  double incremental_p50_us = 0;  // extract + XML encode per update, warm
  double full_p50_us = 0;         // extract + XML encode, reference path
  double speedup = 0;             // full / incremental
  double hit_rate = 0;            // serialize-cache hits / lookups
  double generate_p50_us = 0;     // whole pipeline per update, incremental
};

int64_t MicrosBetween(std::chrono::steady_clock::time_point begin,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
      .count();
}

// One single-field update against the bench's status element.
void MutateStatus(Browser* browser, int64_t doc_time) {
  browser->MutateDocument([&](Document* document) {
    Element* status = document->ById("rcb-bench-status");
    status->RemoveAllChildren();
    status->AppendChild(MakeText("tick " + std::to_string(doc_time)));
  });
}

SiteHotpath MeasureHotpath(const SiteSpec& spec) {
  EventLoop loop;
  Network network(&loop);
  network.AddHost(spec.host, {});
  network.AddHost("host-pc", {});
  auto server = InstallSite(&loop, &network, spec);
  Browser browser(&loop, &network, "host-pc");
  bool done = false;
  browser.Navigate(Url::Make("http", spec.host, 80, "/"),
                   [&](const Status&, const PageLoadStats&) { done = true; });
  loop.RunUntilCondition([&] { return done; });

  // The single field the updates touch, inserted once before measuring.
  browser.MutateDocument([](Document* document) {
    auto status = MakeElement("div");
    status->SetAttribute("id", "rcb-bench-status");
    status->AppendChild(MakeText("tick 0"));
    document->body()->AppendChild(std::move(status));
  });

  ContentGenerator incremental(&browser);
  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");

  // Warm-up plus byte-identity gate (untimed): the incremental XML must equal
  // the full path's on every warmup update, or the speedup is meaningless.
  int64_t doc_time = 1;
  for (int update = 0; update < 3; ++update) {
    ++doc_time;
    MutateStatus(&browser, doc_time);
    GenerationResult warm = incremental.Generate(doc_time, options);
    GenerationResult cold = ReferenceGenerate(&browser, doc_time, options);
    std::string warm_xml =
        SerializeSnapshotXml(warm.snapshot, nullptr, &warm.escaped, nullptr);
    if (warm_xml != SerializeSnapshotXml(cold.snapshot)) {
      std::fprintf(stderr,
                   "FAIL: %s update %lld: incremental snapshot XML diverged "
                   "from the full path\n",
                   spec.name.c_str(), static_cast<long long>(doc_time));
      std::exit(2);
    }
  }

  // Each round measures one block of warm updates then one block of cold
  // updates. Blocks (not per-update interleaving) keep each path in the
  // steady state it would have in a deployed agent — one generator per
  // session, its cache entries resident; the first update after a block
  // switch pays the cache transition and goes uncounted. Adjacent blocks
  // share their timing epoch, so the per-round ratio cancels the machine's
  // epoch-scale noise and the site speedup is the median of paired ratios.
  SiteHotpath out;
  std::vector<double> incremental_us, full_us, generate_us, ratios;
  for (int round = 0; round < kRounds; ++round) {
    ++doc_time;
    MutateStatus(&browser, doc_time);
    incremental.Generate(doc_time, options);  // uncounted transition update
    int64_t incremental_serialize = 0, generate_total = 0;
    e2e::TickReference();
    e2e::Interval block{e2e::NowNs(), 0};
    for (int update = 0; update < kUpdatesPerRound; ++update) {
      ++doc_time;
      MutateStatus(&browser, doc_time);
      GenerationResult warm = incremental.Generate(doc_time, options);
      auto t0 = std::chrono::steady_clock::now();
      std::string warm_xml = SerializeSnapshotXml(
          warm.snapshot, nullptr, &warm.escaped, nullptr);
      auto t1 = std::chrono::steady_clock::now();
      incremental_serialize +=
          warm.stage_extract.micros() + MicrosBetween(t0, t1);
      generate_total += warm.wall_time.micros() + MicrosBetween(t0, t1);
    }
    block.end_ns = e2e::NowNs();
    out.incremental_blocks.push_back(block);
    e2e::TickReference();
    ++doc_time;
    MutateStatus(&browser, doc_time);
    ReferenceGenerate(&browser, doc_time, options);  // uncounted transition
    int64_t full_serialize = 0;
    for (int update = 0; update < kUpdatesPerRound; ++update) {
      ++doc_time;
      MutateStatus(&browser, doc_time);
      GenerationResult cold = ReferenceGenerate(&browser, doc_time, options);
      auto t0 = std::chrono::steady_clock::now();
      std::string cold_xml = SerializeSnapshotXml(cold.snapshot);
      auto t1 = std::chrono::steady_clock::now();
      full_serialize += cold.stage_extract.micros() + MicrosBetween(t0, t1);
      e2e::TickReference();
    }
    double incremental_avg =
        static_cast<double>(incremental_serialize) / kUpdatesPerRound;
    double full_avg = static_cast<double>(full_serialize) / kUpdatesPerRound;
    incremental_us.push_back(incremental_avg);
    full_us.push_back(full_avg);
    generate_us.push_back(static_cast<double>(generate_total) /
                          kUpdatesPerRound);
    ratios.push_back(incremental_avg > 0 ? full_avg / incremental_avg : 0.0);
  }

  out.incremental_p50_us = Percentile50(incremental_us);
  out.full_p50_us = Percentile50(full_us);
  out.speedup = Percentile50(ratios);
  const SerializeCache::Stats& stats = incremental.serialize_cache_stats();
  uint64_t lookups = stats.hits + stats.misses;
  out.hit_rate = lookups > 0 ? static_cast<double>(stats.hits) /
                                   static_cast<double>(lookups)
                             : 0.0;
  out.generate_p50_us = Percentile50(generate_us);
  if (std::getenv("RCB_HOTPATH_DEBUG") != nullptr) {
    std::fprintf(stderr,
                 "dbg %s: hits=%llu misses=%llu evictions=%llu spans=%zu "
                 "bytes=%zu hit_bytes=%llu miss_bytes=%llu\n",
                 spec.name.c_str(), (unsigned long long)stats.hits,
                 (unsigned long long)stats.misses,
                 (unsigned long long)stats.evictions, stats.spans, stats.bytes,
                 (unsigned long long)stats.hit_bytes,
                 (unsigned long long)stats.miss_bytes);
  }
  return out;
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Hot path — per-update serialize cost, incremental vs full (real CPU)",
      "single-field updates against a warm serialization cache; per-update "
      "serialize\n(extract + snapshot XML encode) p50 over 9 rounds x 8 "
      "updates; speedup = full /\nincremental (CI floor 5x on the median)");

  size_t max_sites = Table1Sites().size();
  if (const char* env = std::getenv("RCB_HOTPATH_SITES"); env != nullptr) {
    max_sites = std::min<size_t>(max_sites, std::strtoul(env, nullptr, 10));
  }

  std::printf("%-3s %-15s %9s %14s %14s %9s %8s\n", "#", "site", "size(KB)",
              "full p50(us)", "incr p50(us)", "speedup", "hit%");
  std::vector<double> incremental_p50, full_p50, speedups, hit_rates,
      generate_p50;
  std::vector<std::vector<e2e::Interval>> incremental_blocks;
  e2e::EnableReference();
  for (size_t i = 0; i < max_sites; ++i) {
    const SiteSpec& spec = Table1Sites()[i];
    SiteHotpath site = MeasureHotpath(spec);
    incremental_blocks.push_back(std::move(site.incremental_blocks));
    incremental_p50.push_back(site.incremental_p50_us);
    full_p50.push_back(site.full_p50_us);
    speedups.push_back(site.speedup);
    hit_rates.push_back(site.hit_rate);
    generate_p50.push_back(site.generate_p50_us);
    std::printf("%-3d %-15s %9.1f %14.1f %14.1f %8.1fx %7.1f%%\n", spec.index,
                spec.name.c_str(), spec.page_kb, site.full_p50_us,
                site.incremental_p50_us, site.speedup, 100.0 * site.hit_rate);
  }
  PrintRule();
  double speedup_median = Percentile50(speedups);
  std::printf("corpus median speedup %.1fx (acceptance floor 5x); cache hit "
              "rate median %.1f%%\n",
              speedup_median, 100.0 * Percentile50(hit_rates));
  // Per site, the p50 over rounds of one warm update in reference us.
  const e2e::SpeedTimeline timeline = e2e::ReferenceTimeline();
  std::vector<double> incremental_ref;
  for (const std::vector<e2e::Interval>& blocks : incremental_blocks) {
    std::vector<double> per_update_us;
    for (const e2e::Interval& block : blocks) {
      per_update_us.push_back(timeline.Normalize(block) / 1e3 /
                              kUpdatesPerRound);
    }
    incremental_ref.push_back(Percentile50(per_update_us));
  }
  double incremental_ref_median = Percentile50(incremental_ref);
  std::printf("incremental update median %.1f reference us (kernel median "
              "%.0f us on this machine)\n",
              incremental_ref_median, timeline.MedianKernelNs() / 1e3);

  obs::BenchReport report = MakeReport("hotpath", "none", /*cache_mode=*/true,
                                       /*repetitions=*/kRounds);
  report.SetConfig("updates_per_round", std::to_string(kUpdatesPerRound));
  report.SetConfig("sites", std::to_string(incremental_p50.size()));
  report.AddDistribution("serialize_full_p50_us", "us", obs::Provenance::kWall,
                         full_p50);
  report.AddDistribution("serialize_incremental_p50_us", "us",
                         obs::Provenance::kWall, incremental_p50);
  report.AddDistribution("incremental_speedup", "ratio",
                         obs::Provenance::kWall, speedups);
  report.AddDistribution("generate_incremental_p50_us", "us",
                         obs::Provenance::kWall, generate_p50);
  report.AddDistribution("serialize_cache_hit_rate", "ratio",
                         obs::Provenance::kSim, hit_rates);
  report.AddValue("speedup_median", "ratio", obs::Provenance::kWall,
                  speedup_median);
  report.AddDistribution("incremental_ref_us", "us", obs::Provenance::kWall,
                         incremental_ref);
  report.AddValue("incremental_ref_median_us", "us", obs::Provenance::kWall,
                  incremental_ref_median);
  WriteReport(report);

  // Acceptance floor, overridable for instrumented builds (the sanitized CI
  // pass slows both paths but not equally; scripts/ci.sh passes a lower bar).
  double floor = 5.0;
  if (const char* env = std::getenv("RCB_HOTPATH_FLOOR"); env != nullptr) {
    floor = std::strtod(env, nullptr);
  }
  if (speedup_median < floor) {
    std::fprintf(stderr,
                 "FAIL: corpus median incremental speedup %.2fx below the "
                 "%.1fx acceptance floor\n",
                 speedup_median, floor);
    return 1;
  }
  return 0;
}
