#!/usr/bin/env bash
# Offline verification in 11 stages, each test run once:
#   1-2. tier-1: the release build and the root-package tests, which
#        include the parallel, POR, prefix-sharing, fork-resume,
#        exploration-kernel and semantic-sharing differential suites
#        (each compares an optimization on against the same checks with
#        it off, chosen through explicit `ExploreOptions` fields or, for
#        semantic sharing, a warm map against cold runs);
#   3.   every other workspace crate's tests (`--no-fail-fast`, so one
#        failing crate does not hide the others), including the
#        bytecode-tier and convergence-dedup differential suites and the
#        engine regression tests;
#   4-5. the forensics selftest and golden-corpus replay;
#   6-10. criterion-free benchmark smoke runs including the B5/B5d
#        (sharing on vs off), B6 (compiled ClightX bytecode VM), B7
#        (convergence dedup) and B8 (semantic sharing keys) step-ratio
#        gates;
#   11.  the certd service end-to-end script.
# No stage sets a `CCAL_*` variable: the library reads none but the
# `CCAL_WORKERS` default. Everything here works without network access —
# proptest/criterion resolve to the in-repo shim crates. Each stage
# reports its own wall time so perf regressions in the harness itself
# are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage DESCRIPTION COMMAND... — runs COMMAND and prints the stage's wall
# time.
stage() {
  local desc="$1"
  shift
  echo "== ${desc} =="
  local t0=$SECONDS
  "$@"
  echo "-- ${desc}: $((SECONDS - t0))s"
}

stage "tier-1: release build" \
  cargo build --release

stage "tier-1: root-package tests" \
  cargo test -q

stage "workspace tests (all crates but the root package)" \
  cargo test --workspace --exclude ccal -q --no-fail-fast

stage "forensics: shrink/replay selftest (all five checkers)" \
  cargo run -q --release -p ccal-forensics --bin ccal-replay -- --selftest

stage "forensics: golden corpus replay" \
  cargo run -q --release -p ccal-forensics --bin ccal-replay -- forensics/corpus

stage "bench smoke (no criterion): composition_scaling --quick" \
  cargo bench -p ccal-bench --no-default-features --bench composition_scaling -- --quick

stage "bench gate (no criterion): prefix_sharing --quick (asserts B5 share/off <= 0.3 and B5d share/off <= 0.45 at L=5; writes BENCH_5.json)" \
  cargo bench -p ccal-bench --no-default-features --bench prefix_sharing -- --quick

stage "bench gate (no criterion): bytecode_vm --quick (asserts B6 vm/interp prim-steps <= 0.6 and exact atom-step tier equality at L=5; writes BENCH_6.json)" \
  cargo bench -p ccal-bench --no-default-features --bench bytecode_vm -- --quick

stage "bench gate (no criterion): convergence --quick (asserts B7 dedup/base atom-steps <= 0.6 at L=5 + per-checker hits; writes BENCH_7.json)" \
  cargo bench -p ccal-bench --no-default-features --bench convergence -- --quick

stage "bench gate (no criterion): sharing --quick (asserts B8 semantic/cold atom-steps <= 0.5 at L=5 + per-unit family hits; writes BENCH_8.json)" \
  cargo bench -p ccal-bench --no-default-features --bench sharing -- --quick

stage "certd service e2e: sharded grid, zero-step cache hits, SIGKILL recovery, store persistence" \
  scripts/certd_e2e.sh

echo "verify: all green"
