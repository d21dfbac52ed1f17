#!/usr/bin/env bash
# Tier-1 verification in both plain and sanitized configurations:
#   tools/check.sh            # build + ctest, plain, -O3, then ASan+UBSan
#   tools/check.sh --fast     # plain config only
# After the plain config, the benchmark (yhbench/, its own CMake project over
# src/) is built in Release under .bench_build/yhbench, as CI's yhbench job
# builds it, and yhbench_test runs: a src/ change that breaks the benchmark
# fails here too. Then the reference fuzzers and the executor and runtime
# tests are built in Release (-O3 -DNDEBUG, the benchmark's flags) under
# build-release and run: the executor's run loop assumes the context's
# registers alias nothing, and what an optimizer makes of that can differ
# between -O2 and -O3.
# The sanitized config skips the `golden` bench and CLI output reruns
# (ctest -LE golden): they compare outputs, not memory safety, and take
# minutes under the sanitizers.
set -euo pipefail

cd "$(dirname "$0")/.."

run_config() {
  local dir="$1"
  local ctest_args="$2"
  shift 2
  echo "=== configure ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  echo "=== build ${dir} ==="
  cmake --build "${dir}" -j "$(nproc)"
  echo "=== ctest ${dir} ==="
  # shellcheck disable=SC2086
  ctest --test-dir "${dir}" --output-on-failure -j "$(nproc)" ${ctest_args}
}

run_config build ""

echo "=== configure + build .bench_build/yhbench (Release) ==="
cmake -S yhbench -B .bench_build/yhbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build .bench_build/yhbench -j "$(nproc)"
echo "=== yhbench_test ==="
.bench_build/yhbench/yhbench_test

if [[ "${1:-}" != "--fast" ]]; then
  release_tests=(executor_diff_test sim_diff_test pmu_diff_test sim_executor_test
                 runtime_test)
  echo "=== configure + build build-release (Release) ==="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-release -j "$(nproc)" --target "${release_tests[@]}"
  for test in "${release_tests[@]}"; do
    echo "=== build-release/tests/${test} ==="
    "build-release/tests/${test}"
  done

  run_config build-asan "-LE golden" -DYIELDHIDE_SANITIZE=address,undefined
fi

echo "all checks passed"
