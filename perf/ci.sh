#!/usr/bin/env bash
# Smoke-tests the benchmark: builds it, checks BENCHMARK.json against the
# metric table in the source, and takes every workload through one tiny
# untraced and one tiny traced repetition with all output checks on.
# Not wired into .github/workflows/ci.yml yet; a later PR may add a step
# that runs `perf/ci.sh` from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path perf/Cargo.toml -- --smoke "$@"
