#include "src/core/broadcast.h"

#include <chrono>
#include <utility>

#include "src/core/rcb_agent.h"
#include "src/delta/tree_diff.h"
#include "src/util/strings.h"

namespace rcb {

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
  const bool traced_gen = trace != nullptr && trace_ctx.active();
  const uint64_t gen_span_id = traced_gen ? trace->ReserveSpanId() : 0;
  const obs::TraceContext stage_ctx{trace_ctx.trace_id, gen_span_id};
  GenerationResult result = generator_->Generate(doc_time_ms, options);
  slot.snapshot = std::move(result.snapshot);
  slot.escaped = std::move(result.escaped);
  SnapshotSerializeStats serialize_stats;
  {
    obs::WallSpan span(trace, "agent.generate.serialize", sim_now_us,
                       instruments_.stage_hist[1],
                       traced_gen ? &stage_ctx : nullptr);
    slot.xml = SerializeSnapshotXml(slot.snapshot, &serialize_stats,
                                    &slot.escaped, nullptr);
  }
  slot.valid = true;
  if (options_.enable_delta) {
    // Retire the previous materialized tree into the base history and
    // materialize the new version the same way a participant's live document
    // will look after applying it (so digests agree by construction).
    BaseVersion previous = std::move(slot.current);
    slot.current.doc_time_ms = doc_time_ms;
    slot.current.tree = MaterializeSnapshotTree(slot.snapshot);
    slot.current.digest = delta::TreeDigest(*slot.current.tree);
    slot.current.hashes = delta::HashTree(*slot.current.tree);
    slot.patch_cache.clear();
    if (previous.tree != nullptr &&
        previous.doc_time_ms != slot.current.doc_time_ms) {
      slot.history.push_back(std::move(previous));
      while (slot.history.size() > kDeltaHistory) {
        slot.history.pop_front();
      }
    }
  }
  AgentMetrics& metrics = *instruments_.metrics;
  ++metrics.generations;
  metrics.last_generation_time = result.wall_time;
  metrics.total_generation_time += result.wall_time;
  metrics.last_snapshot_bytes = slot.xml.size();
  metrics.snapshot_bytes_raw += serialize_stats.payload_raw_bytes;
  metrics.snapshot_bytes_escaped += serialize_stats.payload_escaped_bytes;
  // Feed the generator's extract stage into its histogram and the trace
  // ring (the generator itself stays observability-free).
  if (instruments_.stage_hist[0] != nullptr) {
    instruments_.stage_hist[0]->Record(result.stage_extract.micros());
  }
  if (trace != nullptr) {
    trace->Append("agent.generate.extract", obs::Provenance::kWall, sim_now_us,
                  result.stage_extract.micros(), stage_ctx);
  }
  if (traced_gen) {
    trace->Append(
        "agent.generate", obs::Provenance::kWall, sim_now_us,
        result.wall_time.micros(), trace_ctx,
        {{"ts", StrFormat("%lld", static_cast<long long>(doc_time_ms))},
         {"cache_mode", cache_mode ? "1" : "0"},
         {"bytes", StrFormat("%zu", slot.xml.size())}},
        gen_span_id);
  }
  if (instruments_.generation_us != nullptr) {
    instruments_.generation_us->Record(result.wall_time.micros());
  }
  if (instruments_.snapshot_bytes != nullptr) {
    instruments_.snapshot_bytes->Record(static_cast<int64_t>(slot.xml.size()));
  }
  return slot;
}

std::optional<std::string> SnapshotBroadcast::MaybeBuildPatchResponse(
    Slot& slot, int64_t base_time, std::vector<UserAction>* outbox,
    const obs::TraceContext& trace_ctx) {
  if (slot.current.tree == nullptr || base_time >= slot.current.doc_time_ms) {
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
      cached.envelope.patch.target_doc_time_ms = slot.current.doc_time_ms;
      cached.envelope.patch.base_digest = base->digest;
      cached.envelope.patch.target_digest = slot.current.digest;
      auto diff_start = std::chrono::steady_clock::now();
      cached.envelope.patch.ops =
          delta::DiffTrees(*base->tree, base->hashes, *slot.current.tree,
                           slot.current.hashes);
      cached.xml = delta::SerializePatchXml(cached.envelope);
      if (instruments_.trace != nullptr && trace_ctx.active()) {
        auto diff_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - diff_start)
                           .count();
        instruments_.trace->Append(
            "agent.delta.diff", obs::Provenance::kWall, loop_->now().micros(),
            diff_us, trace_ctx,
            {{"base_ts", StrFormat("%lld", static_cast<long long>(base_time))},
             {"target_ts",
              StrFormat("%lld",
                        static_cast<long long>(slot.current.doc_time_ms))},
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
  if (instruments_.patch_ops != nullptr) {
    instruments_.patch_ops->Record(
        static_cast<int64_t>(cached.envelope.patch.ops.size()));
  }
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
