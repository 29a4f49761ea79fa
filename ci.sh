#!/usr/bin/env sh
# The full verification gate, exactly as CI runs it. Any nonzero exit fails.
#
#   ./ci.sh
#
# 1. release build of every workspace member (warnings from the
#    [workspace.lints] table are part of the build),
# 2. the whole test suite (unit + integration + property + doc tests) —
#    which carries the end-to-end smokes: the Fig. 7 grid through the
#    sweep pool, fixed-seed chaos campaigns in every mode (library level
#    in crates/chaos/tests/chaos_e2e.rs, the built `repro chaos` in
#    crates/experiments/tests/cli_help.rs), each byte-identical across
#    worker counts — then the four release-only `#[ignore]`d tests: dense
#    SPF vs the reference Dijkstra at every root × every single
#    fabric-link failure of the k=16 F²Tree (~2 min on 2 cores; hopeless
#    in a debug build), every router's routes read out of one shared
#    SpfTable vs its own compute_routes after every single fabric-link
#    failure of the k=16 fat tree and F²Tree (~1 min on 2 cores), and
#    the failure map vs the loop nest it replaced on the k=16 fat tree
#    and F²Tree, intact and damaged (< 1 s), and the `repro fig6seeds
#    --quick` golden (about 14 s in a debug build, 1 s in release),
# 3. the lint pass: `cargo clippy` over the workspace with the
#    restriction lints of Cargo.toml's [workspace.lints.clippy] and the
#    bans of clippy.toml, plus the two token rules, under the strict
#    per-file ratchet of crates/xtask/lint-allow.toml (stale budgets and
#    any other compiler or clippy warning fail; see DESIGN.md §7),
# 4. the repo benchmark's own gate: `bench/run.sh --smoke` (offline
#    build, the API-allowlist grep, then all four BENCHMARK.json workloads
#    at shortened horizons — every pass must reproduce the product's own
#    results) and the benchmark's unit tests, `--locked`: bench/Cargo.lock
#    records every product crate's dependency list, so a product PR that
#    edits a [dependencies] table fails here instead of silently
#    re-resolving; timings are never asserted here (see bench/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (+ the release-only k=16 SPF, shared-table and failure-map equivalences and the fig6seeds golden)"
cargo test -q
cargo test --release -q -p dcn-routing --test spf_reference -- --ignored
cargo test --release -q -p dcn-routing --test spf_delta_reference -- --ignored
cargo test --release -q -p dcn-frr --test failure_map_reference -- --ignored
cargo test --release -q -p f2tree-experiments --test golden_tables -- --ignored

echo "==> cargo run -p xtask -- lint"
cargo run -q --release -p xtask -- lint

echo "==> bench/run.sh --smoke + bench unit tests (the repo benchmark builds, runs and checks itself)"
bench/run.sh --smoke --out target/bench-smoke
cargo test -q --offline --locked --manifest-path bench/Cargo.toml

echo "ci.sh: all gates passed"
