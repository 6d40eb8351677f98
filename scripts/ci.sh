#!/usr/bin/env bash
# Tier-1 verification gate: build and run the full test suite twice —
# once with the default toolchain flags, once under ASan + UBSan
# (-DRCB_SANITIZE=ON). Both must pass for a change to merge. Each pass also
# runs one fast bench in JSON-artifact mode and validates the emitted
# BENCH_*.json against the schema (C++ validator, plus jq if present).
#
# Every gate runs, each in its own process that stops at its own first
# failing command; a failing gate does not hide the ones after it. The
# script lists the gates that failed and exits 1 if any did.
#
# Usage: scripts/ci.sh [extra cmake args...]
set -euo pipefail
cd "$(dirname "$0")/.."

failed=()

# Runs gate function "$2" with the remaining arguments as its own process
# and records "$1" when it fails. The gate is a background job waited on at
# once: bash ignores set -e inside a function called from `if`, `||` or
# `&&` (and in every process that call starts), so a gate run that way
# would go on past its failing command. Call `gate` as a plain statement.
gate() {
  local name="$1"
  shift
  "$@" &
  if ! wait "$!"; then
    echo "=== gate failed: ${name} ===" >&2
    failed+=("${name}")
  fi
}

check_bench_json() {
  local build_dir="$1"
  local artifact_dir="${build_dir}/ci-bench-json"
  echo "=== ${build_dir}: bench JSON gate ==="
  rm -rf "${artifact_dir}"
  mkdir -p "${artifact_dir}"
  RCB_BENCH_JSON_DIR="${artifact_dir}" "${build_dir}/bench/bench_actions" \
      > /dev/null
  local artifacts=("${artifact_dir}"/BENCH_*.json)
  "${build_dir}/tools/validate_bench_json" "${artifacts[@]}"
  if command -v jq >/dev/null; then
    for artifact in "${artifacts[@]}"; do
      jq -e '.schema_version == 1 and (.bench | length > 0)
             and (.config_fingerprint | test("^[0-9a-f]{64}$"))
             and (.metrics | length > 0)' "${artifact}" > /dev/null
    done
  fi
}

check_scale_json() {
  local build_dir="$1"
  local artifact_dir="${build_dir}/ci-scale-json"
  echo "=== ${build_dir}: bench_scale JSON gate ==="
  rm -rf "${artifact_dir}"
  mkdir -p "${artifact_dir}"
  # A reduced sweep keeps the sanitized run fast; the bench still fails on a
  # generate-once shape violation at any point it runs.
  RCB_BENCH_JSON_DIR="${artifact_dir}" RCB_SCALE_MAX_SESSIONS=64 \
      "${build_dir}/bench/bench_scale" > /dev/null
  local artifact="${artifact_dir}/BENCH_scale.json"
  "${build_dir}/tools/validate_bench_json" "${artifact}"
  if command -v jq >/dev/null; then
    jq -e '.schema_version == 1 and .bench == "scale"
           and (.config_fingerprint | test("^[0-9a-f]{64}$"))
           and (.metrics | length > 0)
           and ([.metrics[].name] | index("n64_p99_sync_us") != null)
           and ([.metrics[].name] | index("n64_pipeline_runs") != null)' \
        "${artifact}" > /dev/null
  fi
}

check_hotpath() {
  local build_dir="$1"
  local artifact_dir="${build_dir}/ci-hotpath-json"
  echo "=== ${build_dir}: serialize hot-path gate ==="
  rm -rf "${artifact_dir}"
  mkdir -p "${artifact_dir}"
  # Byte-identity property suite by name: cached incremental serialization
  # must equal a cold full serialization over the corpus and random mutation
  # schedules even if test registration regresses.
  "${build_dir}/tests/serialize_cache_test" --gtest_brief=1
  # The bench itself enforces the speedup floor (exit 1 below it) and asserts
  # incremental XML output is byte-identical to the full path on every warmup
  # update. The plain build sweeps the full corpus so its median is
  # comparable with the committed artifact's; sanitizer instrumentation slows
  # the two paths unequally, so the sanitized build runs a reduced sweep
  # against a lower floor and skips the ratchet.
  local floor=5.0 sites=
  if [[ "${build_dir}" == *asan* ]]; then
    floor=2.0
    sites=8
  fi
  RCB_BENCH_JSON_DIR="${artifact_dir}" RCB_HOTPATH_SITES="${sites:-99}" \
      RCB_HOTPATH_FLOOR="${floor}" "${build_dir}/bench/bench_hotpath" \
      > /dev/null
  local artifact="${artifact_dir}/BENCH_hotpath.json"
  "${build_dir}/tools/validate_bench_json" "${artifact}"
  if command -v jq >/dev/null; then
    # The bench already enforced the build-appropriate floor on exit; the jq
    # pass re-checks it from the artifact (plain 5x, sanitized 2x).
    jq -e --argjson floor "${floor}" \
          '.schema_version == 1 and .bench == "hotpath"
           and (.config_fingerprint | test("^[0-9a-f]{64}$"))
           and ([.metrics[].name] | index("serialize_full_p50_us") != null)
           and ([.metrics[].name]
                | index("serialize_incremental_p50_us") != null)
           and ([.metrics[].name] | index("incremental_speedup") != null)
           and ([.metrics[].name] | index("serialize_cache_hit_rate") != null)
           and ([.metrics[].name] | index("incremental_ref_median_us") != null)
           and ([.metrics[] | select(.name == "speedup_median")
                 | .value >= $floor] == [true])' "${artifact}" > /dev/null
    # Ratchet against the committed artifact on a time the program owns: the
    # incremental path's per-update time in the reference-machine
    # microseconds of e2e_bench/speed.h (thread CPU scaled by a fixed kernel
    # run between updates, so machine-speed drift mostly cancels). The
    # full/incremental ratio is not ratcheted: the reference path's speed
    # moves with the compiler's code for functions no change touched. Other
    # load on the machine only ever adds time, so the fastest of three runs
    # is the repeatable reading; it must keep the path's speed within 0.8x
    # of the committed artifact's, itself the fastest of three runs (time <=
    # committed / 0.8). Wall-clock under sanitizers is not comparable, so
    # only the plain build ratchets.
    if [[ "${build_dir}" != *asan* ]]; then
      local committed="BENCH_hotpath.json"
      if [[ -f "${committed}" ]]; then
        local time_jq='[.metrics[] | select(.name == "incremental_ref_median_us")
                        | .value][0]'
        local times=() run fastest
        times+=("$(jq -e "${time_jq}" "${artifact}")")
        for run in 2 3; do
          RCB_BENCH_JSON_DIR="${artifact_dir}" RCB_HOTPATH_SITES=99 \
              RCB_HOTPATH_FLOOR="${floor}" "${build_dir}/bench/bench_hotpath" \
              > /dev/null
          times+=("$(jq -e "${time_jq}" "${artifact}")")
        done
        fastest="$(printf '%s\n' "${times[@]}" | sort -g | head -n 1)"
        echo "hotpath incremental update: ${times[*]} reference us" \
             "(fastest ${fastest})"
        jq -e --argjson current "${fastest}" \
              "(${time_jq}) as \$committed | \$current * 0.8 <= \$committed" \
              "${committed}" > /dev/null ||
          { echo "hotpath incremental time ${fastest} reference us is over" \
                 "the committed time / 0.8" >&2; return 1; }
      fi
      # The committed micro artifact must stay self-consistent: for every
      # measured page the incremental per-update generation series must be
      # no slower than the pinned full series it rides next to.
      local micro="BENCH_micro.json"
      if [[ -f "${micro}" ]]; then
        jq -e '[.metrics[] | select(.name | test("^BM_ContentGeneration(Incremental)?_[0-9]+_real_ns$"))
                | {name, value}] as $m
               | [$m[] | select(.name | test("Incremental"))] | length > 0
               and all($m[] | select(.name | test("Incremental"));
                       . as $inc
                       | ($m[] | select(.name ==
                           ($inc.name | sub("Incremental"; ""))) | .value)
                         >= $inc.value)' "${micro}" > /dev/null ||
          { echo "committed BENCH_micro.json: incremental generation series" \
                 "slower than the full series" >&2; return 1; }
      fi
    fi
  fi
}

check_recovery() {
  local build_dir="$1"
  local dir="${build_dir}/ci-recovery"
  echo "=== ${build_dir}: durability + recovery gate ==="
  rm -rf "${dir}"
  mkdir -p "${dir}"
  # Persist unit suite by name: codec round-trips, torn-tail decode, and the
  # store-level crash matrix must pass in this build even if test
  # registration regresses.
  "${build_dir}/tests/persist_test" --gtest_brief=1
  # Reduced crash-recovery sweep: kill the host mid WAL stream, restart,
  # and require every session recovered with every poller back via signed
  # resume (the bench exits 1 on any shape violation).
  local artifact_dir="${dir}/bench-json"
  mkdir -p "${artifact_dir}"
  RCB_BENCH_JSON_DIR="${artifact_dir}" RCB_RECOVERY_MAX_SESSIONS=16 \
      "${build_dir}/bench/bench_recovery" > /dev/null
  local artifact="${artifact_dir}/BENCH_recovery.json"
  "${build_dir}/tools/validate_bench_json" "${artifact}"
  if command -v jq >/dev/null; then
    jq -e '.schema_version == 1 and .bench == "recovery"
           and (.config_fingerprint | test("^[0-9a-f]{64}$"))
           and ([.metrics[].name] | index("n16_recovery_wall_ms") != null)
           and ([.metrics[] | select(.name == "n16_sessions_recovered")
                 | .value] == [16])
           and ([.metrics[] | select(.name == "n16_fresh_joins_after_recovery")
                 | .value] == [0])' "${artifact}" > /dev/null
  fi
  # Torn-write corpus: every truncated or bit-flipped checkpoint, and every
  # WAL with a damaged header, must be rejected with a clean exit 1 — never
  # accepted, never a crash (exit >= 126 means a signal killed the tool).
  local inspect="${build_dir}/tools/checkpoint_inspect"
  "${inspect}" make-sample "${dir}" > /dev/null
  "${inspect}" verify "${dir}/sample.ckpt" "${dir}/sample.wal" > /dev/null
  local corpus="${dir}/corpus"
  mkdir -p "${corpus}"
  local ckpt_size wal_size
  ckpt_size=$(wc -c < "${dir}/sample.ckpt")
  wal_size=$(wc -c < "${dir}/sample.wal")
  head -c $((ckpt_size / 4)) "${dir}/sample.ckpt" > "${corpus}/ckpt_torn_header"
  head -c $((ckpt_size / 2)) "${dir}/sample.ckpt" > "${corpus}/ckpt_torn_mid"
  head -c $((ckpt_size - 3)) "${dir}/sample.ckpt" > "${corpus}/ckpt_torn_tail"
  cp "${dir}/sample.ckpt" "${corpus}/ckpt_flip_payload"
  printf 'XXXX' | dd of="${corpus}/ckpt_flip_payload" bs=1 \
      seek=$((ckpt_size / 2)) conv=notrunc status=none
  cp "${dir}/sample.ckpt" "${corpus}/ckpt_flip_magic"
  printf 'Z' | dd of="${corpus}/ckpt_flip_magic" bs=1 seek=0 conv=notrunc \
      status=none
  head -c 6 "${dir}/sample.wal" > "${corpus}/wal_torn_header"
  cp "${dir}/sample.wal" "${corpus}/wal_flip_magic"
  printf 'Z' | dd of="${corpus}/wal_flip_magic" bs=1 seek=0 conv=notrunc \
      status=none
  local bad rc
  for bad in "${corpus}"/*; do
    rc=0
    "${inspect}" verify "${bad}" > /dev/null 2>&1 || rc=$?
    if [[ "${rc}" -eq 0 ]]; then
      echo "corrupt artifact accepted: ${bad}" >&2
      return 1
    fi
    if [[ "${rc}" -ge 126 ]]; then
      echo "checkpoint_inspect crashed (rc=${rc}) on: ${bad}" >&2
      return 1
    fi
  done
  # A WAL cut mid-record is the one sanctioned tear: the tail is discarded,
  # the prefix replays, and verify reports it valid rather than crashing.
  head -c $((wal_size - 5)) "${dir}/sample.wal" > "${dir}/wal_torn_tail"
  "${inspect}" verify "${dir}/wal_torn_tail" > /dev/null
  if command -v jq >/dev/null; then
    # The JSON report stays well-formed across the whole hostile corpus.
    rc=0
    "${inspect}" --json verify "${corpus}"/* "${dir}/wal_torn_tail" \
        > "${dir}/corpus.json" 2>/dev/null || rc=$?
    if [[ "${rc}" -ge 126 ]]; then
      echo "checkpoint_inspect --json crashed (rc=${rc})" >&2
      return 1
    fi
    jq -e '.schema_version == 1 and .tool == "checkpoint_inspect"
           and ([.files[] | select(.valid | not)] | length == 7)
           and ([.files[] | select(.valid)] | length == 1)' \
        "${dir}/corpus.json" > /dev/null
  fi
}

check_trace() {
  local build_dir="$1"
  local trace_dir="${build_dir}/ci-trace"
  echo "=== ${build_dir}: causal trace gate ==="
  rm -rf "${trace_dir}"
  mkdir -p "${trace_dir}"
  # A short deterministic session with tracing + auth on: drives the full
  # poll pipeline, then forges an unsigned poll so the agent's auth_failure
  # flight recorder dumps an artifact.
  "${build_dir}/tools/trace_session" "${trace_dir}" > /dev/null
  local flights=("${trace_dir}"/FLIGHT_*.jsonl)
  [[ -s "${flights[0]}" ]] || { echo "no flight dump written" >&2; return 1; }
  local report="${trace_dir}/report.json"
  # --fail-on-incomplete makes the tool itself the completeness gate: exit 3
  # when any content response cannot be chased down to a participant-side
  # apply, so the check holds even where jq is absent.
  "${build_dir}/tools/trace_report" --json --sim-only --fail-on-incomplete \
      "${trace_dir}/TRACE_session.jsonl" > "${report}"
  if command -v jq >/dev/null; then
    # Report schema: every traced round trip must close.
    jq -e '.schema_version == 1 and .traces >= 1
           and .content_traces >= 1
           and (.segments | length > 0)
           and (.sessions | length >= 1)' "${report}" > /dev/null
    # Every flight-dump line is standalone JSON with a typed header.
    for flight in "${flights[@]}"; do
      jq -es 'length > 0 and .[0].type == "flight"
              and all(.[1:][]; .type == "span" or .type == "metrics")' \
          "${flight}" > /dev/null ||
        { echo "flight artifact malformed: ${flight}" >&2; return 1; }
    done
    # The Chrome export is one valid JSON array.
    jq -e 'type == "array" and length > 0' \
        "${trace_dir}/TRACE_session_chrome.json" > /dev/null
  fi
}

check_transport() {
  local build_dir="$1"
  local artifact_dir="${build_dir}/ci-transport-json"
  echo "=== ${build_dir}: streamed transport gate ==="
  rm -rf "${artifact_dir}"
  mkdir -p "${artifact_dir}"
  # Grant negotiation, long-poll parking, the stream=2 gesture pre-empt,
  # signed-resume recovery, adaptive backoff, and the byte-identical
  # downgrade suite by name: a test-registration regression cannot silently
  # drop them.
  "${build_dir}/tests/transport_test" --gtest_brief=1
  "${build_dir}/tests/agent_test" \
      --gtest_filter='*StreamCapabilityDowngrade*' --gtest_brief=1
  # The bench enforces the floors on exit: WAN long-polls >= 2x median
  # latency cut vs 1 s polling, and the long-poll drop probe recovers via
  # signed resume on every profile. Every reading is simulated time, so the
  # floors hold under sanitizers too; the sanitized build just runs a
  # smaller sweep to bound wall time.
  local mutations=15 idle=60 fanout=8
  if [[ "${build_dir}" == *asan* ]]; then
    mutations=7
    idle=30
    fanout=4
  fi
  RCB_BENCH_JSON_DIR="${artifact_dir}" \
      RCB_TRANSPORT_MUTATIONS="${mutations}" \
      RCB_TRANSPORT_IDLE_SECONDS="${idle}" \
      RCB_TRANSPORT_FANOUT_SESSIONS="${fanout}" \
      "${build_dir}/bench/bench_transport" > /dev/null
  local artifact="${artifact_dir}/BENCH_transport.json"
  "${build_dir}/tools/validate_bench_json" "${artifact}"
  if command -v jq >/dev/null; then
    # Schema + in-artifact floors: the latency ratio and the per-profile
    # long-poll drop-recovery flags must hold in the artifact this build
    # wrote.
    jq -e '.schema_version == 1 and .bench == "transport"
           and (.config_fingerprint | test("^[0-9a-f]{64}$"))
           and ([.metrics[].name]
                | index("wan_poll_median_latency_us") != null)
           and ([.metrics[].name]
                | index("wan_longpoll_median_latency_us") != null)
           and ([.metrics[].name]
                | index("fanout_longpoll_median_latency_us") != null)
           and ([.metrics[] | select(.name == "wan_latency_improvement_x")
                 | .value >= 2] == [true])
           and ([.metrics[]
                 | select(.name | test("^(lan|wan|mobile)_longpoll_recovered_after_drop$"))
                 | .value] | length == 3 and all(. == 1))' \
        "${artifact}" > /dev/null
    # Against the committed artifact: long-polls must keep beating the
    # committed polling baseline's latency >= 2x, and WAN long-poll idle
    # bytes/min must not grow past the committed value. Sim time is
    # deterministic, but the gate still re-runs once before tripping so a
    # flaky environment cannot block a good change. The sanitized sweep is
    # reduced, so only the plain build compares with the committed artifact.
    if [[ "${build_dir}" != *asan* ]]; then
      local committed="BENCH_transport.json"
      if [[ -f "${committed}" ]]; then
        local floor_jq='def value($m; $name):
               [$m.metrics[] | select(.name == $name) | .value][0];
             value(.; "wan_poll_median_latency_us") as $poll
             | value($cur[0]; "wan_longpoll_median_latency_us") as $longpoll
             | value(.; "wan_longpoll_idle_bytes_per_minute") as $idle_cap
             | value($cur[0]; "wan_longpoll_idle_bytes_per_minute") as $idle
             | $longpoll * 2 <= $poll and $idle <= $idle_cap'
        if ! jq -e --slurpfile cur "${artifact}" "${floor_jq}" \
            "${committed}" > /dev/null; then
          echo "transport floors below bound; re-running once" >&2
          RCB_BENCH_JSON_DIR="${artifact_dir}" \
              "${build_dir}/bench/bench_transport" > /dev/null
          jq -e --slurpfile cur "${artifact}" "${floor_jq}" \
              "${committed}" > /dev/null ||
            { echo "long-polls no longer >= 2x faster than the committed" \
                   "polling baseline, or WAN idle bytes/min above the" \
                   "committed long-poll value (twice)" >&2; return 1; }
        fi
      fi
    fi
  fi
}

check_health() {
  local build_dir="$1"
  local dir="${build_dir}/ci-health"
  echo "=== ${build_dir}: health plane gate ==="
  rm -rf "${dir}"
  mkdir -p "${dir}"
  # Window engine, SLO burn evaluator, and endpoint suite by name: a
  # test-registration regression cannot silently drop the determinism pins.
  "${build_dir}/tests/health_test" --gtest_brief=1
  local chaos="${build_dir}/tools/health_chaos"
  # Determinism: two identical calm runs must produce byte-identical
  # /host/health snapshots (windowing is sim-clock pure).
  "${chaos}" --scenario calm --out "${dir}/calm.json"
  "${chaos}" --scenario calm --out "${dir}/calm_again.json"
  cmp -s "${dir}/calm.json" "${dir}/calm_again.json" ||
    { echo "calm health snapshot differs between identical runs" >&2
      return 1; }
  local scenario
  for scenario in delay auth waste; do
    "${chaos}" --scenario "${scenario}" --out "${dir}/${scenario}.json"
  done
  if command -v jq >/dev/null; then
    # Calm long-poll traffic stays green everywhere with no active alerts.
    jq -e '.sessions_total == 4 and .summary.green == 4
           and (.alerts | length == 0)' "${dir}/calm.json" > /dev/null ||
      { echo "calm scenario not all-green" >&2; return 1; }
    # Each fault scenario must trip exactly its own SLO on every session.
    local objective
    for scenario in delay:sync_p99 auth:auth_failure_rate \
        waste:wasted_poll_ratio; do
      objective="${scenario#*:}"
      scenario="${scenario%%:*}"
      jq -e --arg obj "${objective}" \
            '.summary.unhealthy == .sessions_total
             and (.alerts | length) == .sessions_total
             and (.alerts | all(endswith(":" + $obj)))' \
          "${dir}/${scenario}.json" > /dev/null ||
        { echo "${scenario} scenario did not trip ${objective} everywhere" \
               >&2; return 1; }
    done
  fi
  # Exemplar resolution: a reduced traced bench_scale embeds a health section
  # in its artifact; every exemplar trace id there must resolve against the
  # dumped span file via trace_report --trace-id.
  local bench_dir="${dir}/bench-json"
  mkdir -p "${bench_dir}"
  RCB_BENCH_JSON_DIR="${bench_dir}" RCB_TRACE_DIR="${dir}" \
      RCB_SCALE_MAX_SESSIONS=16 "${build_dir}/bench/bench_scale" > /dev/null
  local artifact="${bench_dir}/BENCH_scale.json"
  "${build_dir}/tools/validate_bench_json" "${artifact}"
  if command -v jq >/dev/null; then
    jq -e '.health.sessions | length > 0
           and all(.[]; .score == "green")' "${artifact}" > /dev/null ||
      { echo "traced bench_scale health section missing or not green" >&2
        return 1; }
    local ids id
    ids=$(jq -r '[.health.sessions[].exemplars[]?.trace_id
                  | select(. != "")] | unique | .[]' "${artifact}")
    [[ -n "${ids}" ]] ||
      { echo "no exemplar trace ids in the bench_scale health section" >&2
        return 1; }
    while read -r id; do
      "${build_dir}/tools/trace_report" --trace-id "${id}" \
          "${dir}/TRACE_scale.jsonl" > /dev/null ||
        { echo "health exemplar trace ${id} unresolvable in trace dump" >&2
          return 1; }
    done <<< "${ids}"
  fi
}

check_metrics_doc() {
  echo "=== metrics reference drift gate ==="
  local doc="docs/METRICS.md"
  [[ -f "${doc}" ]] || { echo "missing ${doc}" >&2; return 1; }
  # Both directions: every rcb_* family named in the sources must be
  # documented, and every documented family must still exist in the sources.
  local drift=0 name
  while read -r name; do
    grep -q "\`${name}\`" "${doc}" ||
      { echo "metric not documented in ${doc}: ${name}" >&2; drift=1; }
  done < <(grep -rhoE '"rcb_[a-z0-9_]+"' src | tr -d '"' | sort -u)
  while read -r name; do
    grep -rqF "\"${name}\"" src ||
      { echo "documented metric gone from src: ${name}" >&2; drift=1; }
  done < <(grep -hoE '`rcb_[a-z0-9_]+`' "${doc}" | tr -d '\`' | sort -u)
  [[ "${drift}" -eq 0 ]]
}

check_e2e_smoke() {
  echo "=== e2e smoke: ledger_test + edit_full/edit_delta/host_fanout convergence + delta wire bytes + committed baseline ==="
  # The benchmark's own CMake project (e2e_bench/README.md); run.py reuses
  # this build directory.
  local dir=".bench_build/e2e_bench"
  [[ -f "${dir}/CMakeCache.txt" ]] ||
    cmake -S e2e_bench -B "${dir}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${dir}" --target ledger_test
  "${dir}/ledger_test" --gtest_brief=1
  # End-to-end convergence oracle over the full-snapshot path (the clone-free
  # generator), the delta path and the multi-session host (every poll
  # HMAC-signed and verified): every participant digest must match the
  # host's, and no delivery may fail.
  local workload result full_result="" delta_result="" results=()
  for workload in edit_full edit_delta host_fanout; do
    result="$(python3 e2e_bench/run.py --workload "${workload}" --seed 1 \
        --seconds 3 --trace 0 | tail -n 1)"
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
        "${result}" ||
      { echo "e2e smoke failed (${workload}): ${result}" >&2; return 1; }
    case "${workload}" in
      edit_full) full_result="${result}" ;;
      edit_delta) delta_result="${result}" ;;
    esac
    results+=("${workload}=${result}")
  done
  # The committed baseline (BENCH_e2e.json, same seed and size): simulated
  # sync latency and wire bytes per delivery must equal it, and peak RSS stay
  # within BENCHMARK.json's bound. Rewrite it with
  # `python3 scripts/e2e_baseline.py write` when a change moves them on
  # purpose.
  python3 scripts/e2e_baseline.py check "${results[@]}" ||
    { echo "e2e smoke failed: results differ from BENCH_e2e.json" >&2
      return 1; }
  # A broken in-place patch apply falls back to full-snapshot resyncs and
  # still converges, so convergence alone would pass it: the delta path must
  # also keep its wire saving, at most 5% of edit_full's bytes per delivery
  # at the same seed.
  python3 -c 'import json, sys
full, delta = (json.loads(a)["metrics"]["wire_bytes_per_delivery"]["value"]
               for a in sys.argv[1:3])
print("edit_delta wire bytes per delivery: %.0f of edit_full %.0f (%.2f%%)"
      % (delta, full, 100.0 * delta / full))
sys.exit(0 if delta <= 0.05 * full else 1)' "${full_result}" "${delta_result}" ||
    { echo "e2e smoke failed: edit_delta wire bytes over 5% of edit_full" >&2
      return 1; }
}

build_tree() {
  local build_dir="$1"
  shift
  echo "=== ${build_dir}: configure ($*) ==="
  # No -G: reuse whatever generator an existing build dir was made with.
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${build_dir}: build ==="
  cmake --build "${build_dir}" -j "$(nproc)"
}

check_ctest() {
  local build_dir="$1"
  echo "=== ${build_dir}: ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
}

check_delta() {
  local build_dir="$1"
  # Explicit delta gate: the diff/patch round-trip suite and the patch-codec
  # fuzz cases must pass in this build (ctest already ran them; this re-runs
  # them by name so a test-registration regression cannot silently drop them).
  echo "=== ${build_dir}: delta + patch-codec fuzz gate ==="
  "${build_dir}/tests/delta_test" --gtest_brief=1
  "${build_dir}/tests/fuzz_test" --gtest_filter='*Patch*' --gtest_brief=1
}

check_host_fanout() {
  local build_dir="$1"
  # Host + fan-out gate: multi-session registry/isolation, broadcast
  # equivalence, and router fuzz must pass by name in this build.
  echo "=== ${build_dir}: host + fan-out gate ==="
  "${build_dir}/tests/host_test" --gtest_brief=1
  "${build_dir}/tests/fanout_equivalence_test" --gtest_brief=1
  "${build_dir}/tests/fuzz_test" --gtest_filter='*HostRouter*' --gtest_brief=1
}

run_suite() {
  local build_dir="$1"
  shift
  gate "${build_dir}: build" build_tree "${build_dir}" "$@"
  if [[ ${#failed[@]} -gt 0 && "${failed[-1]}" == "${build_dir}: build" ]]; then
    echo "=== ${build_dir}: not built, its other gates cannot run ===" >&2
    return 0
  fi
  local check
  for check in check_ctest check_delta check_host_fanout check_bench_json \
      check_hotpath check_scale_json check_recovery check_trace \
      check_transport check_health; do
    gate "${build_dir}: ${check}" "${check}" "${build_dir}"
  done
}

gate check_metrics_doc check_metrics_doc
gate check_e2e_smoke check_e2e_smoke
run_suite build "$@"
run_suite build-asan -DRCB_SANITIZE=ON "$@"

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "=== ci: ${#failed[@]} gate(s) failed ===" >&2
  printf '  %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "=== ci: every gate green in both suites ==="
