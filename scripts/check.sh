#!/usr/bin/env bash
# Tier-1 verify + bench smoke. Fails on build error, test failure, or a
# bench crash. Usage: scripts/check.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j
# --timeout backstops the per-test TIMEOUT property: the robustness suites
# assert "never hang", so a wedged test must fail loudly.
(cd "$BUILD_DIR" && ctest --output-on-failure --timeout 300 -j"$(nproc)")

# Docs gate: every relative link/anchor in README.md and docs/ must
# resolve, and every top-level doc must be reachable from the README.
python3 scripts/check_docs.py

# Quick-mode bench smoke: one profile / one workload / all engines with a
# short timeout; writes BENCH_bench_fig5_count.json next to the binary.
if [[ -x "$BUILD_DIR/bench_fig5_count" ]]; then
  (cd "$BUILD_DIR" && ./bench_fig5_count --quick --benchmark_min_warmup_time=0)
else
  echo "warning: bench_fig5_count not built (google-benchmark missing?)" >&2
fi
# bench_parallel_scaling exits nonzero unless CLFTJ-P at 4 threads counts
# the wiki-Vote 5-cycle >= 1.3x faster than CLFTJ with an identical count
# (best of 5 arm-alternating trials; the speedup gate is skipped with a
# printed reason below 4 hardware threads) — self-gating.
if [[ -x "$BUILD_DIR/bench_parallel_scaling" ]]; then
  (cd "$BUILD_DIR" && ./bench_parallel_scaling --quick --benchmark_min_warmup_time=0)
fi
if [[ -x "$BUILD_DIR/bench_build" ]]; then
  (cd "$BUILD_DIR" && ./bench_build --quick --benchmark_min_warmup_time=0)
fi
# bench_dict exits nonzero on a string-vs-int parity violation (identical
# Value data must yield bit-identical counters), so this line is a gate in
# itself, not just a smoke run.
if [[ -x "$BUILD_DIR/bench_dict" ]]; then
  (cd "$BUILD_DIR" && ./bench_dict --quick --benchmark_min_warmup_time=0)
fi
# bench_service_warm exits nonzero unless a warm QueryService (plan cache,
# shared substrates, persistent caches) answers a repeated request >= 2x
# faster than a cold one with an identical count — another self-gating run.
if [[ -x "$BUILD_DIR/bench_service_warm" ]]; then
  (cd "$BUILD_DIR" && ./bench_service_warm --quick --benchmark_min_warmup_time=0)
fi
# bench_delta exits nonzero unless applying a small delta beats a full
# rebuild+Put by >= 5x with an identical count, and the post-delta warm
# query stays within 3x of the pre-write warm latency — self-gating.
if [[ -x "$BUILD_DIR/bench_delta" ]]; then
  (cd "$BUILD_DIR" && ./bench_delta --quick --benchmark_min_warmup_time=0)
fi
# bench_seek exits nonzero unless the AVX2 dispatch arm matches the scalar
# arm bit-for-bit (hits, checksums, charged probes, filter keep lists) AND
# beats it on wall clock (>= 1.2x sparse-intersection seek, >= 1.5x
# constant-filter; >= 1.5x sharded Normalize when >= 4 hardware threads).
# On hosts without AVX2 the speedup gates skip and only scalar records are
# written — the run stays green on the forced-scalar lane.
if [[ -x "$BUILD_DIR/bench_seek" ]]; then
  (cd "$BUILD_DIR" && ./bench_seek --quick --benchmark_min_warmup_time=0)
fi
# bench_batch exits nonzero unless batch admission answers a warm 8-burst
# of identical 5-cycle requests >= 2x faster than FIFO dispatch with
# identical counts, and the cold 8-burst resolves its plan exactly once
# and builds no more substrates than one lone cold request — self-gating.
if [[ -x "$BUILD_DIR/bench_batch" ]]; then
  (cd "$BUILD_DIR" && ./bench_batch --quick --benchmark_min_warmup_time=0)
fi

# Perf trajectory: when a baseline directory of BENCH_*.json sidecars is
# available (CLFTJ_BENCH_BASELINE, or as the second positional argument),
# diff the freshly written JSON against it and fail on memory-access
# regressions >10% (wall clock only warns; see scripts/bench_diff.py).
# The failure is handled explicitly — not left to `set -e` — so the gate
# still trips if this script is ever sourced or run with errexit disabled,
# and so the local gate visibly matches the CI bench-gate job.
BASELINE_DIR="${CLFTJ_BENCH_BASELINE:-${2:-}}"
if [[ -n "$BASELINE_DIR" && -d "$BASELINE_DIR" ]]; then
  if ! python3 scripts/bench_diff.py "$BASELINE_DIR" "$BUILD_DIR" \
      --skip-config "sharing=striped" --skip-config "racing"; then
    echo "check.sh: FAILED — bench_diff.py flagged a perf regression" >&2
    exit 1
  fi
fi

echo "check.sh: all green"
