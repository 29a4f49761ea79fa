#!/usr/bin/env sh
# The full verification gate, exactly as CI runs it. Any nonzero exit fails.
#
#   ./ci.sh
#
# 1. release build of every workspace member (warnings from the
#    [workspace.lints] table are part of the build),
# 2. the whole test suite (unit + integration + property + doc tests),
#    then the one release-only `#[ignore]`d test: dense SPF vs the
#    reference Dijkstra at every root × every single fabric-link failure
#    of the k=16 F²Tree (~2 min on 2 cores; hopeless in a debug build),
# 3. the in-tree static-analysis pass (token rules plus the AST/dataflow
#    rule packs; see DESIGN.md §7 and crates/xtask/) — run twice in
#    --format json to prove the report is well-formed and byte-stable,
#    then once in text mode as the actual gate (strict ratchet: stale
#    allowlist budgets fail),
# 4. a parallel sweep smoke test: the Fig. 7 grid through the sweep
#    engine on 2 workers (exercises the worker pool end to end),
# 5. a fixed-seed chaos smoke campaign: 20 generated failure scenarios
#    under the runtime invariant oracles on 2 workers (exit 1 + minimal
#    reproducer if any oracle fires; see DESIGN.md §9),
# 6. the repo benchmark's own gate: `bench/run.sh --smoke` (offline
#    build, the API-allowlist grep, then all four BENCHMARK.json workloads
#    at shortened horizons — every pass must reproduce the product's own
#    results) and the benchmark's unit tests; timings are never asserted
#    here (see bench/README.md),
# 7. the fast-reroute chaos gate: the same fixed-seed campaign under
#    `--recovery frr` (single-failure preset, tightened blackhole bound —
#    detection + FIB update, no SPF terms; see DESIGN.md §11) must report
#    zero violations and be byte-identical across worker counts,
# 8. the quality-observer gate: a fixed-seed campaign with `--quality`
#    (per-FIB-epoch congestion scoring; see DESIGN.md §12) must render
#    byte-identical traces on 1 and 4 workers — the fixed-point scores
#    may not depend on scheduling,
# 9. the parallelism-safety audit: `xtask audit` statically proves the
#    sweep/chaos pipeline worker-count-invariant — every spawn site's
#    capture set is reported, the JSON report is well-formed and
#    byte-stable, and the gate fails on any unwaivered parallelism
#    diagnostic (the only waivers live on the two blessed seams: the
#    claim cursor and the ordered merge; see DESIGN.md §13).
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (+ the release-only k=16 SPF equivalence)"
cargo test -q
cargo test --release -q -p dcn-routing --test spf_reference -- --ignored

echo "==> cargo run -p xtask -- lint (json well-formed + byte-stable, then the gate)"
cargo run -q --release -p xtask -- lint --format json > target/lint-1.json || true
cargo run -q --release -p xtask -- lint --format json > target/lint-2.json || true
cargo run -q --release -p xtask -- check-json target/lint-1.json
cmp target/lint-1.json target/lint-2.json
cargo run -q --release -p xtask -- lint

echo "==> repro fig7 --workers 2 (sweep engine smoke test)"
cargo run -q --release -p f2tree-experiments --bin repro -- fig7 --workers 2

echo "==> repro chaos --seed 20150701 --campaigns 20 --workers 2 (invariant-oracle smoke test)"
cargo run -q --release -p f2tree-experiments --bin repro -- chaos --seed 20150701 --campaigns 20 --workers 2

echo "==> bench/run.sh --smoke + bench unit tests (the repo benchmark builds, runs and checks itself)"
bench/run.sh --smoke --out target/bench-smoke
cargo test -q --offline --manifest-path bench/Cargo.toml

echo "==> repro chaos --recovery frr (tightened-bound gate, worker-invariant)"
for workers in 1 2; do
    cargo run -q --release -p f2tree-experiments --bin repro -- \
        chaos --recovery frr --seed 20150701 --campaigns 20 --workers "$workers" \
        > "target/chaos-frr-w$workers.txt"
done
cmp target/chaos-frr-w1.txt target/chaos-frr-w2.txt

echo "==> repro chaos --quality (per-epoch congestion scoring, worker-invariant)"
for workers in 1 4; do
    cargo run -q --release -p f2tree-experiments --bin repro -- \
        chaos --quality --seed 20150701 --campaigns 10 --workers "$workers" \
        > "target/chaos-quality-w$workers.txt"
done
cmp target/chaos-quality-w1.txt target/chaos-quality-w4.txt

echo "==> cargo run -p xtask -- audit (parallelism-safety: byte-stable report, then the gate)"
cargo run -q --release -p xtask -- audit --format json > target/audit-1.json || true
cargo run -q --release -p xtask -- audit --format json > target/audit-2.json || true
cargo run -q --release -p xtask -- check-json target/audit-1.json
cmp target/audit-1.json target/audit-2.json
cargo run -q --release -p xtask -- audit

echo "ci.sh: all gates passed"
