// SnapshotBroadcast: the shareable generate-once half of the Fig. 3 pipeline.
//
// The paper's reuse argument (§4.1.2) — generate content once per document
// version, serve the identical bytes to every participant — used to live
// inline in RcbAgent. RcbHost runs many agents on one event loop, so the
// state that makes reuse work (per-cache-mode snapshot slots, the delta base
// history, the memoized patch cache) is factored out here as a standalone
// component: one SnapshotBroadcast per session owns the encoded broadcast
// buffer (`Slot::xml`) that fans out to all N pollers of that session.
//
// Fallback rules (DESIGN.md §12): the shared buffer is served verbatim only
// when the poller's capabilities match what the buffer encodes. A poller
// with pending per-participant actions, a patch-capable poller whose acked
// base is in the history window, or a traced poller all take per-participant
// paths — byte-identical to what a dedicated single-participant agent would
// produce.
#ifndef SRC_CORE_BROADCAST_H_
#define SRC_CORE_BROADCAST_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/content_generator.h"
#include "src/core/protocol.h"
#include "src/delta/patch_codec.h"
#include "src/delta/tree_diff.h"
#include "src/html/dom.h"
#include "src/net/event_loop.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace rcb {

struct AgentMetrics;  // src/core/rcb_agent.h

// The AgentConfig knobs the broadcast pipeline acts on (copied at agent
// construction; the agent remains the single owner of its config).
struct BroadcastOptions {
  bool enable_delta = false;
  std::function<bool(const Url& url, const std::string& kind)>
      cache_object_filter;
};

// Observability sinks threaded through by the owning agent, none of them
// null: the pipeline counts generations, reuses, patch fallbacks and escape
// bytes straight into the agent's AgentMetrics and records its stages into
// the agent's registry and trace ring. The delta-stage and patch-op
// histograms are read only with BroadcastOptions::enable_delta on.
struct BroadcastInstruments {
  AgentMetrics* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
  // Fig. 3 stage histograms in pipeline order: extract, serialize.
  obs::Histogram* stage_hist[2] = {};
  obs::Histogram* generation_us = nullptr;   // whole pipeline, wall
  obs::Histogram* snapshot_bytes = nullptr;  // serialized XML size, sim
  obs::Histogram* patch_ops = nullptr;       // ops per served patch, sim
  // Delta stage histograms: materialize, digest, diff (wall).
  obs::Histogram* delta_stage_hist[3] = {};
};

class SnapshotBroadcast {
 public:
  // Base versions retained per cache-mode slot for patch generation; a poll
  // acking an older version than the window holds gets a full snapshot.
  static constexpr size_t kDeltaHistory = 8;
  // Fall back to the full snapshot when the serialized patch exceeds this
  // fraction of the snapshot XML (a patch barely smaller than the snapshot
  // is not worth the apply risk).
  static constexpr double kPatchSizeCutoff = 0.6;

  // One materialized canonical tree (src/delta), the CanonicalMemo that
  // holds its digest and subtree hashes, and what the tree took from its
  // last Fig. 5 apply. A slot keeps two and reconciles each new version
  // into the older one by splicing (ReconcileSnapshotTree), so both stay
  // O(page) in memory and a version costs O(change) beyond a memcmp of the
  // escaped payloads.
  struct MaterializedTree {
    int64_t doc_time_ms = -1;
    std::unique_ptr<Element> root;
    delta::CanonicalMemo memo;
    AppliedSnapshot applied;
  };
  // A previously served version, kept as the snapshot it was generated as
  // and its digest. A base neither tree holds any more is materialized from
  // it once, for its cached patch.
  struct BaseVersion {
    int64_t doc_time_ms = -1;
    Snapshot snapshot;
    std::string digest;
  };
  // A memoized diff against one base version, shared by every participant
  // that acked that version (the §4.1.2 reuse argument, applied to patches).
  struct CachedPatch {
    bool fallback = false;  // patch not profitable; serve the full snapshot
    delta::PatchEnvelope envelope;  // actions-free
    std::string xml;                // serialized envelope without actions
  };
  // Cache-mode flavour of the generated snapshot — the broadcast buffer. One
  // entry per mode in use; both flavours share the document version and are
  // invalidated together.
  struct Slot {
    bool valid = false;
    Snapshot snapshot;
    // Pre-escaped payload CDATA for `snapshot`. Per-participant
    // serializations (actions appended) splice these spans instead of
    // re-escaping the whole page — the fan-out half of the serialization-cache
    // win (docs/PERF_MODEL.md).
    SnapshotEscaped escaped;
    std::string xml;  // the encoded bytes fanned out to matching pollers
    // --- Delta state (BroadcastOptions::enable_delta only) ---
    MaterializedTree trees[2];  // trees[current] materializes `snapshot`,
    int current = 0;            // the other the version served before it
    std::deque<BaseVersion> history;          // previously served versions
    std::map<int64_t, CachedPatch> patch_cache;  // keyed by base doc time
  };

  // `generator` and `loop` must outlive this object; `instruments` is copied.
  SnapshotBroadcast(ContentGenerator* generator, EventLoop* loop,
                    BroadcastOptions options, BroadcastInstruments instruments)
      : generator_(generator),
        loop_(loop),
        options_(std::move(options)),
        instruments_(instruments) {}
  SnapshotBroadcast(const SnapshotBroadcast&) = delete;
  SnapshotBroadcast& operator=(const SnapshotBroadcast&) = delete;

  // The document changed: both slots are stale and must regenerate on the
  // next Refresh (the history/patch cache rotate there, not here).
  void Invalidate() { dirty_ = true; }

  // Ensures the slot for `cache_mode` encodes document version `doc_time_ms`
  // and returns it — running the Fig. 3 pipeline exactly once per version
  // per mode no matter how many pollers ask. `trace_ctx` is the caller's
  // causal chain (inactive outside traced polls).
  Slot& Refresh(bool cache_mode, bool count_reuse, int64_t doc_time_ms,
                const Url& agent_url, const obs::TraceContext& trace_ctx);

  // Delta path: returns the serialized newPatch response for a participant
  // acking `base_time`, or nullopt when the full snapshot must be served (no
  // delta state, base outside the kDeltaHistory window, or patch over
  // kPatchSizeCutoff of the snapshot). Consumes `outbox` only when a patch
  // is returned.
  std::optional<std::string> MaybeBuildPatchResponse(
      Slot& slot, int64_t base_time, std::vector<UserAction>* outbox,
      const obs::TraceContext& trace_ctx);

 private:
  // Records one delta stage (0 materialize, 1 digest, 2 diff) into its
  // histogram.
  void RecordDeltaStage(size_t stage, int64_t micros);

  ContentGenerator* generator_;
  EventLoop* loop_;
  BroadcastOptions options_;
  BroadcastInstruments instruments_;
  bool dirty_ = true;
  Slot slots_[2];  // [0] non-cache mode, [1] cache mode
};

}  // namespace rcb

#endif  // SRC_CORE_BROADCAST_H_
