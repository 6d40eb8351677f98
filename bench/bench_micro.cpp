// Microbenchmarks (google-benchmark) of RCB's hot paths: HTML parse and
// serialize over the Table 1 corpus sizes, the Fig. 3 content-generation
// pipeline, Fig. 4 snapshot serialize/parse, the Fig. 5 apply procedure's
// innerHTML set and its snapshot splice, and HMAC request authentication.
#include <benchmark/benchmark.h>

#include <cctype>

#include "src/core/ajax_snippet.h"
#include "src/core/content_generator.h"
#include "src/core/protocol.h"
#include "src/obs/bench_report.h"
#include "src/crypto/hmac.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/sites/corpus.h"
#include "src/sites/site_server.h"
#include "src/util/escape.h"
#include "tests/support/reference_generator.h"

namespace rcb {
namespace {

const SiteSpec& SiteByRangeIndex(int64_t index) {
  return Table1Sites()[static_cast<size_t>(index)];
}

void BM_HtmlParse(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  for (auto _ : state) {
    auto document = ParseDocument(site.html);
    benchmark::DoNotOptimize(document);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * site.html.size()));
  state.SetLabel(spec.name);
}
BENCHMARK(BM_HtmlParse)->Arg(1)->Arg(7)->Arg(12)->Arg(19);  // google..nytimes

void BM_HtmlSerialize(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  auto document = ParseDocument(site.html);
  for (auto _ : state) {
    std::string out = SerializeNode(*document);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_HtmlSerialize)->Arg(1)->Arg(12);

// The Fig. 5 body set as edit_full drives it: the live body holds one
// payload and receives the next, which differs by one text edit, so each
// iteration reconciles one changed field in place.
void BM_InnerHtmlSet(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  auto document = ParseDocument(site.html);
  Element* body = document->body();
  const std::string payloads[2] = {body->InnerHtml(), [&] {
    std::vector<Text*> texts;
    body->ForEachElement([&](Element* element) {
      for (const auto& child : element->children()) {
        if (child->type() == NodeType::kText) {
          texts.push_back(static_cast<Text*>(child.get()));
        }
      }
      return true;
    });
    Text* edited = texts[texts.size() / 2];
    edited->set_data(edited->data() + " edited");
    return body->InnerHtml();
  }()};
  auto target = MakeElement("body");
  target->SetInnerHtml(payloads[0]);
  size_t next = 1;
  for (auto _ : state) {
    target->SetInnerHtml(payloads[next]);
    next ^= 1;
    benchmark::DoNotOptimize(target);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_InnerHtmlSet)->Arg(1)->Arg(12);

// The build path: the same set into an empty element (first apply, or a
// participant joining), including the teardown of the built subtree.
void BM_InnerHtmlSetFresh(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  auto document = ParseDocument(site.html);
  std::string body_html = document->body()->InnerHtml();
  for (auto _ : state) {
    auto target = MakeElement("body");
    target->SetInnerHtml(body_html);
    benchmark::DoNotOptimize(target);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_InnerHtmlSetFresh)->Arg(1)->Arg(12);

// The participant's whole Fig. 5 path for a full snapshot as edit_full
// drives it: the snippet's parse of the reply (escaped payloads) plus the
// apply, over two newContent documents whose bodies differ by one text
// edit, alternating on one page, so each iteration splices one change.
void BM_SnapshotApplyEdit(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  auto source = ParseDocument(site.html);
  Element* body = source->body();
  std::vector<Text*> texts;
  body->ForEachElement([&](Element* element) {
    for (const auto& child : element->children()) {
      if (child->type() == NodeType::kText) {
        texts.push_back(static_cast<Text*>(child.get()));
      }
    }
    return true;
  });
  Snapshot snapshot;
  snapshot.has_content = true;
  snapshot.body = ElementPayload{"body", {}, body->InnerHtml()};
  std::string xml[2];
  xml[0] = SerializeSnapshotXml(snapshot);
  Text* edited = texts[texts.size() / 2];
  edited->set_data(edited->data() + " edited");
  snapshot.body->inner_html = body->InnerHtml();
  xml[1] = SerializeSnapshotXml(snapshot);
  auto page = ParseDocument("<html><head></head><body></body></html>");
  AppliedSnapshot applied;
  AjaxSnippet::ApplySnapshot(page.get(), ParseSnapshotReply(xml[0])->payloads,
                             &applied);
  size_t next = 1;
  for (auto _ : state) {
    StatusOr<SnapshotReply> reply = ParseSnapshotReply(xml[next]);
    AjaxSnippet::ApplySnapshot(page.get(), reply->payloads, &applied);
    next ^= 1;
    benchmark::DoNotOptimize(page);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_SnapshotApplyEdit)->Arg(1)->Arg(12);

// Full Fig. 3 pipeline against a live browser holding a corpus page, run by
// the reference generator (clone, three rewrite passes, cold serialization)
// so the series keeps measuring the full per-generation cost across commits;
// the incremental path has its own benchmark below and a dedicated artifact
// (bench_hotpath).
void BM_ContentGeneration(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
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

  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");
  for (auto _ : state) {
    GenerationResult result = ReferenceGenerate(&browser, 1, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_ContentGeneration)->Arg(1)->Arg(7)->Arg(12);

// Same pipeline with the serialization cache warm and one single-field
// update per iteration — the change-proportional path (docs/PERF_MODEL.md).
void BM_ContentGenerationIncremental(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
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
  browser.MutateDocument([](Document* document) {
    auto status = MakeElement("div");
    status->SetAttribute("id", "bench-status");
    status->AppendChild(MakeText("tick"));
    document->body()->AppendChild(std::move(status));
  });

  ContentGenerator generator(&browser);
  ContentGenOptions options;
  options.cache_mode = true;
  options.agent_url = Url::Make("http", "host-pc", 3000, "/");
  generator.Generate(0, options);  // warm the cache
  int64_t doc_time = 0;
  for (auto _ : state) {
    ++doc_time;
    browser.MutateDocument([&](Document* document) {
      Element* status = document->ById("bench-status");
      status->RemoveAllChildren();
      status->AppendChild(MakeText("tick " + std::to_string(doc_time)));
    });
    GenerationResult result = generator.Generate(doc_time, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_ContentGenerationIncremental)->Arg(1)->Arg(7)->Arg(12);

void BM_SnapshotSerializeParse(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(state.range(0));
  GeneratedSite site = GenerateHomepage(spec);
  auto document = ParseDocument(site.html);
  Snapshot snapshot;
  snapshot.doc_time_ms = 1;
  snapshot.has_content = true;
  ElementPayload body;
  body.tag = "body";
  body.inner_html = document->body()->InnerHtml();
  snapshot.body = body;
  for (auto _ : state) {
    std::string xml = SerializeSnapshotXml(snapshot);
    auto parsed = ParseSnapshotXml(xml);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_SnapshotSerializeParse)->Arg(1)->Arg(12);

void BM_HmacSign(benchmark::State& state) {
  std::string key = "sessionkey0123456789";
  std::string body(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    std::string mac = HmacSha256Hex(key, body);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSign)->Arg(128)->Arg(1024)->Arg(16384);

void BM_JsEscapeRoundTrip(benchmark::State& state) {
  const SiteSpec& spec = SiteByRangeIndex(1);
  GeneratedSite site = GenerateHomepage(spec);
  for (auto _ : state) {
    std::string escaped = JsEscape(site.html);
    std::string back = JsUnescape(escaped);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * site.html.size()));
}
BENCHMARK(BM_JsEscapeRoundTrip);

// Console output stays google-benchmark's; this reporter additionally captures
// every per-iteration run so main() can emit the BENCH_micro.json artifact.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_ns = 0;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      Captured captured;
      captured.name = run.benchmark_name();
      captured.real_ns = run.GetAdjustedRealTime();
      captured.iterations = run.iterations;
      captured_.push_back(std::move(captured));
    }
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  std::vector<Captured> captured_;
};

// "BM_HtmlParse/12" -> "BM_HtmlParse_12": metric names share the Prometheus
// character set, so everything outside [A-Za-z0-9_] folds to '_'.
std::string MetricName(const std::string& benchmark_name) {
  std::string out = benchmark_name;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      c = '_';
    }
  }
  return out;
}

}  // namespace
}  // namespace rcb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  rcb::ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  rcb::obs::BenchReport report("micro");
  report.SetConfig("profile", "none");
  report.SetConfig("cache_mode", "1");
  report.SetConfig("repetitions", "1");
  report.SetConfig("sites", "corpus-subset");
  for (const auto& captured : reporter.captured()) {
    std::string name = rcb::MetricName(captured.name);
    report.AddValue(name + "_real_ns", "ns", rcb::obs::Provenance::kWall,
                    captured.real_ns);
    report.AddValue(name + "_iterations", "iterations",
                    rcb::obs::Provenance::kWall,
                    static_cast<double>(captured.iterations));
  }
  rcb::Status written = report.WriteFile();
  if (!written.ok()) {
    std::fprintf(stderr, "warning: bench artifact not written: %s\n",
                 written.ToString().c_str());
  }
  benchmark::Shutdown();
  return 0;
}
