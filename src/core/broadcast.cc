#include "src/core/broadcast.h"

#include <chrono>
#include <utility>

#include "src/core/rcb_agent.h"
#include "src/delta/tree_diff.h"
#include "src/util/strings.h"

namespace rcb {
namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void SnapshotBroadcast::RecordDeltaStage(size_t stage, int64_t micros) {
  instruments_.delta_stage_hist[stage]->Record(micros);
}

SnapshotBroadcast::Slot& SnapshotBroadcast::Refresh(
    bool cache_mode, bool count_reuse, int64_t doc_time_ms,
    const Url& agent_url, const obs::TraceContext& trace_ctx) {
  if (dirty_) {
    slots_[0].valid = false;
    slots_[1].valid = false;
    dirty_ = false;
  }
  Slot& slot = slots_[cache_mode ? 1 : 0];
  if (slot.valid) {
    if (count_reuse) {
      ++instruments_.metrics->snapshot_reuses;
    }
    return slot;
  }
  ContentGenOptions options;
  options.cache_mode = cache_mode;
  options.agent_url = agent_url;
  options.cache_object_filter = options_.cache_object_filter;
  int64_t sim_now_us = loop_->now().micros();
  // When the generation happens inside a traced poll, the extract and
  // serialize stage events parent to one "agent.generate" span whose id is
  // reserved up front so children can reference it before it is appended.
  obs::TraceLog* trace = instruments_.trace;
  const bool traced_gen = trace_ctx.active();
  const uint64_t gen_span_id = traced_gen ? trace->ReserveSpanId() : 0;
  const obs::TraceContext stage_ctx{trace_ctx.trace_id, gen_span_id};
  GenerationResult result = generator_->Generate(doc_time_ms, options);
  Snapshot previous = std::exchange(slot.snapshot, std::move(result.snapshot));
  // The replaced version's escaped payloads live only through the delta
  // trees' reconcile, not into the page-sized XML built after it.
  SnapshotEscaped replaced =
      std::exchange(slot.escaped, std::move(result.escaped));
  if (options_.enable_delta) {
    // The new version goes into the tree that does not hold the current one
    // (into the current one when only its bytes were regenerated), so the
    // other tree keeps the predecessor the usual patch diffs from. The
    // materialization reads what a participant's live document will look
    // like after applying it, so digests agree by construction.
    auto stage_start = std::chrono::steady_clock::now();
    MaterializedTree* tree = &slot.trees[slot.current];
    if (tree->root != nullptr && tree->doc_time_ms != doc_time_ms) {
      slot.history.push_back(
          {tree->doc_time_ms, std::move(previous), tree->memo.digest()});
      while (slot.history.size() > kDeltaHistory) {
        slot.history.pop_front();
      }
      slot.current ^= 1;
      tree = &slot.trees[slot.current];
      if (tree->root != nullptr) {
        // That tree holds the version before the replaced one: step it
        // through the replaced version first, so each splice spans one
        // version's change.
        ReconcileSnapshotTree(replaced, &tree->applied, tree->root.get());
      }
    }
    if (tree->root == nullptr) {
      tree->root = MakeElement("html");
    }
    ReconcileSnapshotTree(slot.escaped, &tree->applied, tree->root.get());
    tree->doc_time_ms = doc_time_ms;
    RecordDeltaStage(0, MicrosSince(stage_start));
    stage_start = std::chrono::steady_clock::now();
    tree->memo.Digest(tree->root.get());
    RecordDeltaStage(1, MicrosSince(stage_start));
    slot.patch_cache.clear();
  }
  replaced = SnapshotEscaped{};
  SnapshotSerializeStats serialize_stats;
  {
    obs::WallSpan span(trace, "agent.generate.serialize", sim_now_us,
                       instruments_.stage_hist[1],
                       traced_gen ? &stage_ctx : nullptr);
    slot.xml = SerializeSnapshotXml(slot.snapshot, &serialize_stats,
                                    &slot.escaped, nullptr);
  }
  slot.valid = true;
  AgentMetrics& metrics = *instruments_.metrics;
  ++metrics.generations;
  metrics.last_generation_time = result.wall_time;
  metrics.total_generation_time += result.wall_time;
  metrics.last_snapshot_bytes = slot.xml.size();
  metrics.snapshot_bytes_raw += serialize_stats.payload_raw_bytes;
  metrics.snapshot_bytes_escaped += serialize_stats.payload_escaped_bytes;
  // Feed the generator's extract stage into its histogram and the trace
  // ring (the generator itself stays observability-free).
  instruments_.stage_hist[0]->Record(result.stage_extract.micros());
  trace->Append("agent.generate.extract", obs::Provenance::kWall, sim_now_us,
                result.stage_extract.micros(), stage_ctx);
  if (traced_gen) {
    trace->Append(
        "agent.generate", obs::Provenance::kWall, sim_now_us,
        result.wall_time.micros(), trace_ctx,
        {{"ts", StrFormat("%lld", static_cast<long long>(doc_time_ms))},
         {"cache_mode", cache_mode ? "1" : "0"},
         {"bytes", StrFormat("%zu", slot.xml.size())}},
        gen_span_id);
  }
  instruments_.generation_us->Record(result.wall_time.micros());
  instruments_.snapshot_bytes->Record(static_cast<int64_t>(slot.xml.size()));
  return slot;
}

std::optional<std::string> SnapshotBroadcast::MaybeBuildPatchResponse(
    Slot& slot, int64_t base_time, std::vector<UserAction>* outbox,
    const obs::TraceContext& trace_ctx) {
  const MaterializedTree& current = slot.trees[slot.current];
  if (current.root == nullptr || base_time >= current.doc_time_ms) {
    return std::nullopt;  // nothing newer than what the participant acks
  }
  auto cached_it = slot.patch_cache.find(base_time);
  if (cached_it == slot.patch_cache.end()) {
    CachedPatch cached;
    const BaseVersion* base = nullptr;
    for (const BaseVersion& version : slot.history) {
      if (version.doc_time_ms == base_time) {
        base = &version;
        break;
      }
    }
    if (base == nullptr) {
      // The acked version aged out of the history (or predates delta being
      // enabled): only a full snapshot can resynchronize the participant.
      ++instruments_.metrics->patch_fallback_no_base;
      cached.fallback = true;
    } else {
      cached.envelope.patch.version = delta::kPatchFormatVersion;
      cached.envelope.patch.base_doc_time_ms = base->doc_time_ms;
      cached.envelope.patch.target_doc_time_ms = current.doc_time_ms;
      cached.envelope.patch.base_digest = base->digest;
      cached.envelope.patch.target_digest = current.memo.digest();
      const MaterializedTree& predecessor = slot.trees[slot.current ^ 1];
      std::unique_ptr<Element> lagged;
      delta::TreeHashes lagged_hashes;
      if (predecessor.root == nullptr ||
          predecessor.doc_time_ms != base_time) {
        // A base older than the predecessor: materialized once, here.
        auto materialize_start = std::chrono::steady_clock::now();
        lagged = MaterializeSnapshotTree(base->snapshot);
        lagged_hashes = delta::HashTree(*lagged);
        RecordDeltaStage(0, MicrosSince(materialize_start));
      }
      auto diff_start = std::chrono::steady_clock::now();
      cached.envelope.patch.ops =
          lagged != nullptr
              ? delta::DiffTrees(*lagged, lagged_hashes, *current.root,
                                 current.memo.hashes())
              : delta::DiffTrees(*predecessor.root, predecessor.memo.hashes(),
                                 *current.root, current.memo.hashes());
      const int64_t diff_us = MicrosSince(diff_start);
      RecordDeltaStage(2, diff_us);
      cached.xml = delta::SerializePatchXml(cached.envelope);
      if (trace_ctx.active()) {
        instruments_.trace->Append(
            "agent.delta.diff", obs::Provenance::kWall, loop_->now().micros(),
            diff_us, trace_ctx,
            {{"base_ts", StrFormat("%lld", static_cast<long long>(base_time))},
             {"target_ts",
              StrFormat("%lld",
                        static_cast<long long>(current.doc_time_ms))},
             {"ops", delta::SummarizeOps(cached.envelope.patch.ops)},
             {"bytes", StrFormat("%zu", cached.xml.size())}});
      }
      if (cached.xml.size() >
          kPatchSizeCutoff * static_cast<double>(slot.xml.size())) {
        // A patch near snapshot size buys nothing but apply-time risk.
        ++instruments_.metrics->patch_fallback_oversize;
        cached.fallback = true;
      }
    }
    cached_it = slot.patch_cache.emplace(base_time, std::move(cached)).first;
  }
  const CachedPatch& cached = cached_it->second;
  if (cached.fallback) {
    return std::nullopt;
  }
  instruments_.patch_ops->Record(
      static_cast<int64_t>(cached.envelope.patch.ops.size()));
  if (outbox == nullptr || outbox->empty()) {
    return cached.xml;
  }
  // Pending broadcast actions ride along in the patch envelope, exactly as
  // they would in the full snapshot's userActions element.
  delta::PatchEnvelope with_actions = cached.envelope;
  with_actions.user_actions = std::move(*outbox);
  outbox->clear();
  return delta::SerializePatchXml(with_actions);
}

}  // namespace rcb
