#!/usr/bin/env bash
# Line coverage of src/**/*.cc under the ctest suite. Configures a
# `--coverage -O0` build (default build-coverage/, git-ignored through
# build-*/), runs ctest in it, and prints gcov's line coverage per source
# file and in total. Not part of scripts/ci.sh.
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

src_root="$(pwd)/src/"
find "${build_dir}/src" -name '*.gcda' | sort | while read -r gcda; do
  gcov -n -o "$(dirname "${gcda}")" "${gcda}" 2>/dev/null
done | awk -v root="${src_root}" '
  /^File / {
    file = substr($0, 7, length($0) - 7)  # strip "File '"'"'" and the closing quote
    keep = index(file, root) == 1 && file ~ /\.cc$/
    next
  }
  /^Lines executed:/ && keep {
    split(substr($0, 16), parts, "% of ")
    total = parts[2] + 0
    hit = int(parts[1] * total / 100 + 0.5)
    name = "src/" substr(file, length(root) + 1)
    printf "%-40s %7.2f%% %6d/%d\n", name, parts[1], hit, total
    all_hit += hit
    all_total += total
    keep = 0
  }
  END {
    if (all_total > 0) {
      printf "%-40s %7.2f%% %6d/%d\n", "TOTAL", 100 * all_hit / all_total,
             all_hit, all_total
    }
  }'
