#!/usr/bin/env bash
# Tier-1 verification in both plain and sanitized configurations:
#   tools/check.sh            # build + ctest, plain then ASan+UBSan
#   tools/check.sh --fast     # plain config only
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

if [[ "${1:-}" != "--fast" ]]; then
  run_config build-asan "-LE golden" -DYIELDHIDE_SANITIZE=address,undefined
fi

echo "all checks passed"
