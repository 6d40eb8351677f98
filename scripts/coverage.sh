#!/usr/bin/env bash
# Line coverage of src/**/*.cc under the ctest suite. Configures a
# `--coverage -O0` build (default build-coverage/, git-ignored through
# build-*/), runs ctest in it, and prints gcov's line coverage per source
# file and in total, with each file's count of unexecuted lines. The
# per-line gcov reports stay in <build-dir>/gcov/, one per source file at
# its repo path (gcov/src/html/dom.cc.gcov), so
#   grep -n '#####' build-coverage/gcov/src/host/rcb_host.cc.gcov
# lists the lines ctest never ran. Not part of scripts/ci.sh.
#
# Usage: scripts/coverage.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build-coverage}"

cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage -O0" > /dev/null
cmake --build "${build_dir}" -j "$(nproc)"
# Counts from this run only.
find "${build_dir}" -name '*.gcda' -delete
(cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")

repo_root="$(pwd)"
gcov_dir="${repo_root}/${build_dir}/gcov"
rm -rf "${gcov_dir}"
mkdir -p "${gcov_dir}"
# -s/-r keep the sources under the repo root, named by their relative path
# (-p mangles '/' to '#'); each report is then moved to that path.
find "${repo_root}/${build_dir}/src" -name '*.gcda' | sort | while read -r gcda; do
  (cd "${gcov_dir}" &&
     gcov -p -r -s "${repo_root}" -o "$(dirname "${gcda}")" "${gcda}" \
       2>/dev/null)
done | awk '
  /^File / {
    file = substr($0, 7, length($0) - 7)  # strip "File '"'"'" and the closing quote
    keep = file ~ /^src\/.*\.cc$/
    next
  }
  /^Lines executed:/ && keep {
    split(substr($0, 16), parts, "% of ")
    total = parts[2] + 0
    hit = int(parts[1] * total / 100 + 0.5)
    printf "%-40s %7.2f%% %6d/%-6d %5d unexecuted\n", file, parts[1], hit,
           total, total - hit
    all_hit += hit
    all_total += total
    keep = 0
  }
  END {
    if (all_total > 0) {
      printf "%-40s %7.2f%% %6d/%-6d %5d unexecuted\n", "TOTAL",
             100 * all_hit / all_total, all_hit, all_total,
             all_total - all_hit
    }
  }'
for report in "${gcov_dir}"/*.gcov; do
  name="$(basename "${report}" .gcov)"
  if [[ "${name}" == src#*.cc ]]; then
    dest="${gcov_dir}/${name//#//}.gcov"
    mkdir -p "$(dirname "${dest}")"
    mv "${report}" "${dest}"
  else
    rm "${report}"
  fi
done
echo "per-line reports: ${build_dir}/gcov/src/"
