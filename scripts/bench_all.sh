#!/usr/bin/env bash
# Runs every bench binary and collects the machine-readable BENCH_<name>.json
# artifacts into one directory, then validates all of them against the
# schema (tools/validate_bench_json + a jq structural cross-check).
#
# Usage: scripts/bench_all.sh [build_dir] [artifact_dir]
#   build_dir     default: build
#   artifact_dir  default: build/bench-artifacts (created; existing JSON kept;
#                 git-ignored, the root BENCH_*.json are the committed copies)
#
# Every artifact carries a config_fingerprint; re-running with the same
# configuration overwrites in place, so the directory always holds one
# current artifact per bench. EXPERIMENTS.md documents the schema and how
# each paper figure/table is regenerated from these files.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
ARTIFACT_DIR="${2:-build/bench-artifacts}"

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 2
fi

mkdir -p "${ARTIFACT_DIR}"
export RCB_BENCH_JSON_DIR="${ARTIFACT_DIR}"

failures=0
ran=0
for bench in "${BUILD_DIR}"/bench/*; do
  [[ -x "${bench}" && -f "${bench}" ]] || continue
  name="$(basename "${bench}")"
  echo "=== ${name} ==="
  if ! "${bench}"; then
    echo "--- ${name}: NONZERO EXIT (shape check failed?)" >&2
    failures=$((failures + 1))
  fi
  ran=$((ran + 1))
done

echo
echo "=== validating ${ARTIFACT_DIR}/BENCH_*.json ==="
shopt -s nullglob
artifacts=("${ARTIFACT_DIR}"/BENCH_*.json)
if [[ ${#artifacts[@]} -eq 0 ]]; then
  echo "error: no artifacts produced" >&2
  exit 1
fi

if [[ -x "${BUILD_DIR}/tools/validate_bench_json" ]]; then
  "${BUILD_DIR}/tools/validate_bench_json" "${artifacts[@]}" || failures=$((failures + 1))
else
  echo "warning: ${BUILD_DIR}/tools/validate_bench_json missing; skipped" >&2
fi

if command -v jq >/dev/null; then
  for artifact in "${artifacts[@]}"; do
    jq -e '.schema_version == 1 and (.bench | length > 0)
           and (.config_fingerprint | test("^[0-9a-f]{64}$"))
           and (.metrics | length > 0)' "${artifact}" >/dev/null ||
      { echo "jq check failed: ${artifact}" >&2; failures=$((failures + 1)); }
  done
  echo "jq cross-check: ${#artifacts[@]} artifacts"
fi

if command -v jq >/dev/null; then
  echo
  echo "=== checking committed root copies against fresh artifacts ==="
  # Before refreshing, the committed root copy of each artifact must agree
  # with the fresh one on schema version and on the set of config keys — a
  # mismatch means a bench changed its recipe without the canonical numbers
  # (and EXPERIMENTS.md) being regenerated alongside it.
  for artifact in "${artifacts[@]}"; do
    committed="./$(basename "${artifact}")"
    [[ -f "${committed}" ]] || continue
    jq -e --slurpfile fresh "${artifact}" \
          '.schema_version == $fresh[0].schema_version' \
        "${committed}" >/dev/null ||
      { echo "schema_version drift vs committed: ${committed}" >&2
        failures=$((failures + 1)); }
    jq -e --slurpfile fresh "${artifact}" \
          '(.config | keys) == ($fresh[0].config | keys)' \
        "${committed}" >/dev/null ||
      { echo "config key drift vs committed: ${committed}" >&2
        failures=$((failures + 1)); }
  done
fi

echo
echo "=== refreshing canonical BENCH_*.json copies at the repo root ==="
# The repo root holds the committed, canonical copy of each artifact (the
# numbers cited by EXPERIMENTS.md); every run refreshes them in place.
for artifact in "${artifacts[@]}"; do
  cp -f "${artifact}" "./$(basename "${artifact}")"
done
echo "refreshed: ${#artifacts[@]} root copies"

echo
echo "benches run: ${ran}; artifacts: ${#artifacts[@]}; failures: ${failures}"
[[ ${failures} -eq 0 ]]
