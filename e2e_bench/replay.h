// Traced replay of the edit workloads' update sequence (README.md, "Traced
// run"): each update goes through the public function of every layer in
// pipeline order, one span per call, with no event loop in between:
//
//   host         Browser::MutateDocument, ContentGenerator::Generate,
//                SerializeSnapshotXml
//   host, delta  MaterializeSnapshotTree, delta::TreeDigest,
//                delta::DiffTrees, delta::SerializePatchXml
//   poll         EncodePollRequest, HmacSha256Hex, HttpRequest::Serialize,
//                ParseHttpRequest, HMAC verify, DecodePollRequest
//   response     HttpResponse::Serialize, ParseHttpResponse
//   participant  ParseSnapshotXml + the Fig. 5 apply (Element::SetInnerHtml
//                per payload), or delta::ParsePatchXml,
//                delta::CanonicalizeDocument, delta::ApplyPatchToDocument
#ifndef E2E_BENCH_REPLAY_H_
#define E2E_BENCH_REPLAY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "src/browser/browser.h"
#include "src/core/content_generator.h"
#include "src/sites/corpus.h"
#include "world.h"

namespace e2e {

struct ReplayResult {
  std::map<std::string, double> metrics;  // per-layer name -> value
  double host_us = 0;         // per update, sum of host self times
  double participant_us = 0;  // per update, sum of participant self times
  uint64_t updates = 0;
  uint64_t failed = 0;        // rejected patches and digest mismatches
};

class EditReplay {
 public:
  EditReplay(bool delta, uint64_t seed, SpanRecorder* recorder);
  EditReplay(const EditReplay&) = delete;
  EditReplay& operator=(const EditReplay&) = delete;

  // Navigates the host to `spec` and syncs the participant document
  // (untimed), replays `edits` edits (traced), then checks convergence.
  void Site(const rcb::SiteSpec& spec, int edits);

  // Per-update means of every span, the counters, and the ledger sums.
  ReplayResult Result() const;

 private:
  bool Visit(const rcb::SiteSpec& spec);
  bool Update(int k);
  uint32_t id(size_t index) const { return ids_[index]; }

  bool delta_;
  uint64_t seed_;
  std::string key_;
  rcb::EventLoop loop_;
  rcb::Network network_;
  std::vector<std::unique_ptr<rcb::SiteServer>> servers_;
  std::unique_ptr<rcb::Browser> host_;
  std::unique_ptr<rcb::ContentGenerator> generator_;
  rcb::ContentGenOptions options_;
  SpanRecorder* recorder_;
  std::vector<uint32_t> ids_;

  EditTargets targets_;
  std::unique_ptr<rcb::Document> participant_;
  uint64_t doc_time_ = 0;
  uint64_t held_ = 0;
  rcb::Snapshot last_snapshot_;
  std::unique_ptr<rcb::Element> base_tree_;
  std::string base_digest_;

  uint64_t updates_ = 0;
  uint64_t failed_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  int64_t stage_clone_us_ = 0;
  int64_t stage_rewrite_us_ = 0;
  int64_t stage_extract_us_ = 0;
  uint64_t patches_ = 0;
  uint64_t patch_bytes_ = 0;
  uint64_t patch_snapshot_bytes_ = 0;
};

// Copies the replay's per-layer metrics and adds the ledger against the
// untraced mean delivery time.
void AddReplayMetrics(const ReplayResult& replay, double untraced_mean_us,
                      std::map<std::string, double>* metrics);

}  // namespace e2e

#endif  // E2E_BENCH_REPLAY_H_
