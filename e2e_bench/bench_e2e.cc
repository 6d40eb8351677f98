// bench_e2e: the end-to-end update benchmark (see README.md here).
//
//   bench_e2e --workload edit_full|edit_delta|host_fanout --seed N
//             --seconds S --trace 0|1 [--spans-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no tracing anywhere;
// --trace 1 is the separate traced run that yields the per-layer metrics.
// Prints a table of every metric with its unit, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// participant fails the end-of-run convergence check or a delivery fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ledger.h"
#include "world.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by the untraced run, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"update_us.p50", "us"},
    {"update_us.p99", "us"},
    {"deliveries_per_s", "1/s"},
    {"sync_sim_ms.p50", "ms"},
    {"sync_sim_ms.p99", "ms"},
    {"wire_bytes_per_delivery", "bytes"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

// Reported by the traced run. A layer a workload does not exercise reads 0
// (for example host.route.* off the multi-session host, host.delta.* with
// delta off).
constexpr MetricSpec kPerLayer[] = {
    {"host.mutate_us", "us"},
    {"host.generate_us", "us"},
    {"host.generate.clone_us", "us"},
    {"host.generate.rewrite_us", "us"},
    {"host.generate.extract_us", "us"},
    {"host.encode_us", "us"},
    {"host.serialize_cache.hit_rate", "ratio"},
    {"host.delta.materialize_us", "us"},
    {"host.delta.digest_us", "us"},
    {"host.delta.diff_us", "us"},
    {"host.delta.patch_encode_us", "us"},
    {"host.delta.patch_bytes", "bytes"},
    {"host.patch_ratio", "ratio"},
    {"host.http_parse_us", "us"},
    {"host.poll_decode_us", "us"},
    {"host.hmac_verify_us", "us"},
    {"host.response_encode_us", "us"},
    {"host.route.empty_poll_us", "us"},
    {"host.route.content_poll_us", "us"},
    {"host.route.action_poll_us", "us"},
    {"host.snapshot_reuse_ratio", "ratio"},
    {"host.generations_per_update", "ratio"},
    {"participant.http_parse_us", "us"},
    {"participant.snapshot_parse_us", "us"},
    {"participant.apply_us", "us"},
    {"participant.patch_parse_us", "us"},
    {"participant.canonicalize_us", "us"},
    {"participant.patch_apply_us", "us"},
    {"participant.wasted_poll_ratio", "ratio"},
    {"participant.resyncs", "count"},
    {"net.events_per_delivery", "events"},
    {"net.messages_per_delivery", "messages"},
    {"transport.frame_bytes_per_delivery", "bytes"},
    {"transport.heartbeats_per_delivery", "count"},
    {"ledger.host_us", "us"},
    {"ledger.participant_us", "us"},
    {"ledger.unattributed_us", "us"},
    {"ledger.unattributed_share", "ratio"},
    {"obs.trace_overhead_share", "ratio"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload "
               "edit_full|edit_delta|host_fanout --seed N --seconds S "
               "--trace 0|1 [--spans-dir DIR]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<int>(number);
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--spans-dir") {
      options.spans_dir = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_trace) {
    return Usage("--trace is required");
  }

  e2e::WorkloadOutput out;
  if (options.workload == "edit_full") {
    out = e2e::RunEditWorkload(options, /*delta=*/false);
  } else if (options.workload == "edit_delta") {
    out = e2e::RunEditWorkload(options, /*delta=*/true);
  } else if (options.workload == "host_fanout") {
    out = e2e::RunFanoutWorkload(options);
  } else {
    return Usage("unknown workload");
  }

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fputs(out.summary.c_str(), stdout);
  const double failed_ratio =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 0;
  std::printf("  %-36s %14.6g %s\n", "failed_ratio", failed_ratio, "ratio");

  std::vector<e2e::Metric> metrics;
  bool complete = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) {
      if (!options.trace) {
        std::fprintf(stderr, "error: metric %s was not measured\n", spec.name);
        complete = false;
      }
      it = out.metrics.emplace(spec.name, 0.0).first;
    }
    if (!e2e::IsValidMetricName(spec.name)) {
      std::fprintf(stderr, "error: invalid metric name %s\n", spec.name);
      complete = false;
    }
    std::printf("  %-36s %14.6g %s\n", spec.name, it->second, spec.unit);
    metrics.push_back(e2e::Metric{spec.name, it->second, spec.unit});
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      emit(spec);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      emit(spec);
    }
  }

  const bool correct = out.converged && out.failed == 0 && complete;
  if (!out.converged) {
    std::printf("convergence check FAILED\n");
  }
  const std::string result = e2e::ResultJson(
      correct, std::max<uint64_t>(out.attempted, 1), out.failed, metrics);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
