#include "replay.h"

#include "src/core/protocol.h"
#include "src/crypto/hmac.h"
#include "src/delta/patch_applier.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/parser.h"
#include "src/http/http_parser.h"
#include "src/net/profiles.h"

namespace e2e {

using namespace rcb;

namespace {

constexpr char kHost[] = "host-pc";
constexpr char kParticipant[] = "participant-pc-1";

constexpr char kParticipantPage[] =
    "<html><head><script id=\"rcb-snippet\"></script></head>"
    "<body></body></html>";

// The Fig. 5 apply procedure, as Ajax-Snippet runs it on a full snapshot:
// keep the bootstrap script, rebuild the head children, drop stale
// top-level elements, and set body/frameset/noframes via innerHTML.
void ApplySnapshotFig5(Document* document, const Snapshot& snapshot) {
  Element* root = document->document_element();
  Element* head = root->ChildByTag("head");
  std::vector<Node*> drop;
  for (const auto& child : head->children()) {
    if (!delta::IsSnippetBootstrapScript(*child)) {
      drop.push_back(child.get());
    }
  }
  for (Node* node : drop) {
    head->RemoveChild(node);
  }
  for (const ElementPayload& payload : snapshot.head_children) {
    auto element = MakeElement(payload.tag);
    for (const auto& [name, value] : payload.attributes) {
      element->SetAttribute(name, value);
    }
    element->SetInnerHtml(payload.inner_html);
    head->AppendChild(std::move(element));
  }
  auto wanted = [&](const std::string& tag) {
    return tag == "head" || (tag == "body" && snapshot.body) ||
           (tag == "frameset" && snapshot.frameset) ||
           (tag == "noframes" && snapshot.noframes);
  };
  drop.clear();
  for (const auto& child : root->children()) {
    const Element* element = child->AsElement();
    if (element == nullptr || !wanted(element->tag_name())) {
      drop.push_back(child.get());
    }
  }
  for (Node* node : drop) {
    root->RemoveChild(node);
  }
  for (const auto* payload : {&snapshot.body, &snapshot.frameset,
                              &snapshot.noframes}) {
    if (!payload->has_value()) {
      continue;
    }
    Element* element = root->ChildByTag((*payload)->tag);
    if (element == nullptr) {
      element = root->AppendChild(MakeElement((*payload)->tag))->AsElement();
    }
    auto old_attributes = element->attributes();
    for (const auto& attribute : old_attributes) {
      element->RemoveAttribute(attribute.first);
    }
    for (const auto& [name, value] : (*payload)->attributes) {
      element->SetAttribute(name, value);
    }
    element->SetInnerHtml((*payload)->inner_html);
  }
}

// Span names, in pipeline order. The ledger flag says whether the span's
// self time is part of the per-update ledger: probes re-run work a ledger
// span already contains and are reported but not summed.
struct SpanName {
  const char* name;
  bool ledger;
};
constexpr SpanName kSpanNames[] = {
    {"update", false},
    {"host.mutate", true},
    {"host.generate", true},
    {"host.encode", true},
    {"host.delta.materialize", true},
    {"host.delta.digest", true},
    {"host.delta.diff", true},
    {"host.delta.patch_encode", true},
    {"participant.poll_encode", true},
    {"participant.poll_sign", true},
    {"participant.request_serialize", true},
    {"host.http_parse", true},
    {"host.hmac_verify", true},
    {"host.poll_decode", true},
    {"host.response_encode", true},
    {"participant.http_parse", true},
    {"participant.snapshot_parse", true},
    {"participant.apply", true},
    {"participant.patch_parse", true},
    {"participant.canonicalize", false},  // probe: patch_apply runs it too
    {"participant.patch_apply", true},
};

enum SpanIndex : size_t {
  kUpdate,
  kMutate,
  kGenerate,
  kEncode,
  kMaterialize,
  kDigest,
  kDiff,
  kPatchEncode,
  kPollEncode,
  kPollSign,
  kRequestSerialize,
  kHttpParse,
  kHmacVerify,
  kPollDecode,
  kResponseEncode,
  kParticipantHttpParse,
  kSnapshotParse,
  kApply,
  kPatchParse,
  kCanonicalize,
  kPatchApply,
};

}  // namespace

EditReplay::EditReplay(bool delta, uint64_t seed, SpanRecorder* recorder)
    : delta_(delta),
      seed_(seed),
      key_(BenchSessionKey(seed, 0)),
      network_(&loop_),
      recorder_(recorder) {
  for (const SpanName& name : kSpanNames) {
    ids_.push_back(recorder_->NameId(name.name));
  }
  network_.AddHost(kHost, LanProfile().host_interface);
  network_.AddHost(kParticipant, LanProfile().participant_interface);
  network_.SetLatency(kHost, kParticipant,
                      LanProfile().host_participant_latency);
  host_ = std::make_unique<Browser>(&loop_, &network_, kHost);
  generator_ = std::make_unique<ContentGenerator>(host_.get());
  options_.cache_mode = true;
  options_.agent_url = Url::Make("http", kHost, 3000, "/");
}

void EditReplay::Site(const SiteSpec& spec, int edits) {
  if (!Visit(spec)) {
    ++failed_;
    return;
  }
  for (int k = 1; k <= edits; ++k) {
    if (!Update(k)) {
      ++failed_;
    }
  }
  // Convergence: the participant document digests like the materialization
  // of the host's last snapshot.
  if (ParticipantDigest(*participant_) !=
      delta::TreeDigest(*MaterializeSnapshotTree(last_snapshot_))) {
    ++failed_;
  }
}

bool EditReplay::Visit(const SiteSpec& spec) {
  if (!network_.HasHost(spec.host)) {
    AddOriginServer(&network_, LanProfile(), spec.host, spec.server_bps,
                    spec.server_latency, kHost, kParticipant);
    servers_.push_back(InstallSite(&loop_, &network_, spec));
  }
  bool loaded = false;
  Status status;
  host_->Navigate(Url::Make("http", spec.host, 80, "/"),
                  [&](const Status& s, const PageLoadStats&) {
                    status = s;
                    loaded = true;
                  });
  loop_.RunUntilCondition([&] { return loaded; });
  if (!loaded || !status.ok()) {
    return false;
  }
  host_->MutateDocument([&](Document* document) {
    targets_ = EditTargets::Prepare(document, Mix(seed_, 100 + spec.index));
  });
  GenerationResult first = generator_->Generate(++doc_time_, options_);
  participant_ = ParseDocument(kParticipantPage);
  ApplySnapshotFig5(participant_.get(), first.snapshot);
  held_ = doc_time_;
  last_snapshot_ = std::move(first.snapshot);
  if (delta_) {
    base_tree_ = MaterializeSnapshotTree(last_snapshot_);
    base_digest_ = delta::TreeDigest(*base_tree_);
  }
  return true;
}

bool EditReplay::Update(int k) {
  const uint64_t update = ++updates_;
  ScopedSpan root(recorder_, id(kUpdate), kNoParent, update);
  const uint32_t parent = root.id();
  const uint64_t version = ++doc_time_;
  {
    ScopedSpan span(recorder_, id(kMutate), parent, update);
    host_->MutateDocument([&](Document* document) {
      targets_.Apply(document, k, version);
    });
  }
  const SerializeCache::Stats before = generator_->serialize_cache_stats();
  GenerationResult result;
  {
    ScopedSpan span(recorder_, id(kGenerate), parent, update);
    result = generator_->Generate(static_cast<int64_t>(version), options_);
  }
  const SerializeCache::Stats& after = generator_->serialize_cache_stats();
  cache_hits_ += after.hits - before.hits;
  cache_misses_ += after.misses - before.misses;
  stage_clone_us_ += result.stage_clone.micros();
  stage_rewrite_us_ += result.stage_absolutize.micros() +
                       result.stage_cache_rewrite.micros() +
                       result.stage_event_rewrite.micros();
  stage_extract_us_ += result.stage_extract.micros();
  std::string snapshot_xml;
  {
    ScopedSpan span(recorder_, id(kEncode), parent, update);
    snapshot_xml = SerializeSnapshotXml(
        result.snapshot, nullptr,
        result.escaped.has_content ? &result.escaped : nullptr, nullptr);
  }
  std::string body;
  bool patched = false;
  if (delta_) {
    std::unique_ptr<Element> tree;
    {
      ScopedSpan span(recorder_, id(kMaterialize), parent, update);
      tree = MaterializeSnapshotTree(result.snapshot);
    }
    std::string digest;
    {
      ScopedSpan span(recorder_, id(kDigest), parent, update);
      digest = delta::TreeDigest(*tree);
    }
    delta::PatchEnvelope envelope;
    envelope.patch.base_doc_time_ms = static_cast<int64_t>(held_);
    envelope.patch.target_doc_time_ms = static_cast<int64_t>(version);
    envelope.patch.base_digest = base_digest_;
    envelope.patch.target_digest = digest;
    {
      ScopedSpan span(recorder_, id(kDiff), parent, update);
      envelope.patch.ops = delta::DiffTrees(*base_tree_, *tree);
    }
    std::string patch_xml;
    {
      ScopedSpan span(recorder_, id(kPatchEncode), parent, update);
      patch_xml = delta::SerializePatchXml(envelope);
    }
    // The agent's size cutoff (AgentConfig::patch_size_cutoff default).
    if (static_cast<double>(patch_xml.size()) <=
        0.6 * static_cast<double>(snapshot_xml.size())) {
      patch_bytes_ += patch_xml.size();
      patch_snapshot_bytes_ += snapshot_xml.size();
      ++patches_;
      body = std::move(patch_xml);
      patched = true;
    }
    base_tree_ = std::move(tree);
    base_digest_ = std::move(digest);
  }
  if (!patched) {
    body = std::move(snapshot_xml);
  }

  // The poll that fetches the update: encode, sign, send, parse, verify,
  // decode on the host.
  PollRequest poll;
  poll.participant_id = "p1";
  poll.doc_time_ms = static_cast<int64_t>(held_);
  poll.patch = delta_;
  std::string poll_body;
  {
    ScopedSpan span(recorder_, id(kPollEncode), parent, update);
    poll_body = EncodePollRequest(poll);
  }
  std::string mac;
  {
    ScopedSpan span(recorder_, id(kPollSign), parent, update);
    mac = HmacSha256Hex(key_, "POST /\n" + poll_body);
  }
  std::string request_wire;
  {
    ScopedSpan span(recorder_, id(kRequestSerialize), parent, update);
    HttpRequest request;
    request.method = HttpMethod::kPost;
    request.target = "/?hmac=" + mac;
    request.headers.Set("Host", std::string(kHost) + ":3000");
    request.headers.Set("Content-Type", "application/x-www-form-urlencoded");
    request.body = std::move(poll_body);
    request_wire = request.Serialize();
  }
  StatusOr<HttpRequest> parsed_request = InternalError("unparsed");
  {
    ScopedSpan span(recorder_, id(kHttpParse), parent, update);
    parsed_request = ParseHttpRequest(request_wire);
  }
  if (!parsed_request.ok()) {
    return false;
  }
  bool verified = false;
  {
    ScopedSpan span(recorder_, id(kHmacVerify), parent, update);
    std::string expected = HmacSha256Hex(
        key_, "POST " + parsed_request->Path() + "\n" + parsed_request->body);
    verified = ConstantTimeEquals(
        expected, parsed_request->QueryParams()["hmac"]);
  }
  {
    ScopedSpan span(recorder_, id(kPollDecode), parent, update);
    verified = verified && DecodePollRequest(parsed_request->body).ok();
  }
  std::string response_wire;
  {
    ScopedSpan span(recorder_, id(kResponseEncode), parent, update);
    response_wire =
        HttpResponse::Ok("application/xml", std::move(body)).Serialize();
  }
  StatusOr<HttpResponse> response = InternalError("unparsed");
  {
    ScopedSpan span(recorder_, id(kParticipantHttpParse), parent, update);
    response = ParseHttpResponse(response_wire);
  }
  if (!verified || !response.ok()) {
    return false;
  }

  bool ok = true;
  if (patched) {
    StatusOr<delta::PatchEnvelope> envelope = InternalError("unparsed");
    {
      ScopedSpan span(recorder_, id(kPatchParse), parent, update);
      envelope = delta::ParsePatchXml(response->body);
    }
    {
      ScopedSpan span(recorder_, id(kCanonicalize), parent, update);
      delta::CanonicalizeDocument(*participant_);
    }
    {
      ScopedSpan span(recorder_, id(kPatchApply), parent, update);
      ok = envelope.ok() &&
           delta::ApplyPatchToDocument(participant_.get(),
                                       static_cast<int64_t>(held_),
                                       envelope->patch) ==
               delta::ApplyResult::kApplied;
    }
  } else {
    StatusOr<Snapshot> snapshot = InternalError("unparsed");
    {
      ScopedSpan span(recorder_, id(kSnapshotParse), parent, update);
      snapshot = ParseSnapshotXml(response->body);
    }
    ok = snapshot.ok();
    if (ok) {
      ScopedSpan span(recorder_, id(kApply), parent, update);
      ApplySnapshotFig5(participant_.get(), *snapshot);
    }
  }
  held_ = version;
  last_snapshot_ = std::move(result.snapshot);
  return ok;
}

ReplayResult EditReplay::Result() const {
  ReplayResult out;
  out.updates = updates_;
  out.failed = failed_;
  const double n = updates_ > 0 ? static_cast<double>(updates_) : 1.0;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.metrics["host.generate.clone_us"] = stage_clone_us_ / n;
  out.metrics["host.generate.rewrite_us"] = stage_rewrite_us_ / n;
  out.metrics["host.generate.extract_us"] = stage_extract_us_ / n;
  out.metrics["host.serialize_cache.hit_rate"] =
      ratio(static_cast<double>(cache_hits_),
            static_cast<double>(cache_hits_ + cache_misses_));
  out.metrics["host.delta.patch_bytes"] = ratio(
      static_cast<double>(patch_bytes_), static_cast<double>(patches_));
  out.metrics["host.patch_ratio"] =
      ratio(static_cast<double>(patch_bytes_),
            static_cast<double>(patch_snapshot_bytes_));

  // Per-update means of every span, and the ledger sums of self times.
  std::map<uint32_t, double> inclusive_ns;
  std::map<uint32_t, size_t> span_index;
  for (size_t i = 0; i < ids_.size(); ++i) {
    span_index[ids_[i]] = i;
  }
  const std::vector<int64_t> self_ns = recorder_->SelfTimesNs();
  double host_ns = 0;
  double participant_ns = 0;
  for (size_t i = 0; i < recorder_->spans().size(); ++i) {
    const Span& span = recorder_->spans()[i];
    inclusive_ns[span.name] += static_cast<double>(span.end_ns - span.start_ns);
    auto index = span_index.find(span.name);
    if (index == span_index.end()) {
      continue;  // not a replay span
    }
    const SpanName& name = kSpanNames[index->second];
    if (!name.ledger) {
      continue;
    }
    if (std::string_view(name.name).starts_with("host.")) {
      host_ns += static_cast<double>(self_ns[i]);
    } else {
      participant_ns += static_cast<double>(self_ns[i]);
    }
  }
  for (size_t i = 0; i < ids_.size(); ++i) {
    out.metrics[std::string(kSpanNames[i].name) + "_us"] =
        inclusive_ns[ids_[i]] / n / 1e3;
  }
  out.host_us = host_ns / n / 1e3;
  out.participant_us = participant_ns / n / 1e3;
  return out;
}

void AddReplayMetrics(const ReplayResult& replay, double untraced_mean_us,
                      std::map<std::string, double>* metrics) {
  for (const auto& [name, value] : replay.metrics) {
    (*metrics)[name] = value;
  }
  Ledger ledger = ComputeLedger(untraced_mean_us, replay.host_us,
                                replay.participant_us);
  (*metrics)["ledger.host_us"] = ledger.host_us;
  (*metrics)["ledger.participant_us"] = ledger.participant_us;
  (*metrics)["ledger.unattributed_us"] = ledger.unattributed_us;
  (*metrics)["ledger.unattributed_share"] = ledger.unattributed_share;
}

}  // namespace e2e
