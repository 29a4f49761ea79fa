//! Determinism regression: the simulator's credibility rests on identical
//! seeds replaying identical traces, so the Fig. 4 failure-condition
//! experiment must produce *byte-identical* metric output across repeated
//! runs in the same process. This is the end-to-end companion to the
//! `determinism` lint (`cargo run -p xtask -- lint`; the bans live in the
//! root `clippy.toml`), which keeps the usual sources of run-to-run drift
//! (hash iteration order, wall clocks, thread identity) out of every
//! crate statically.

use dcn_sweep::Workers;
use f2tree_experiments::conditions::{
    format_fig4, run_fig4_sweep, ConditionConfig, ConditionResult,
};

/// Renders everything a run measures — including the Fig. 5 delay series,
/// which `format_fig4` omits — so any nondeterminism shows up.
fn render(results: &[ConditionResult]) -> String {
    let mut out = format_fig4(results);
    for r in results {
        out.push_str(&format!(
            "{} {} delay_series={:?}\n",
            r.condition, r.design, r.delay_series
        ));
    }
    out
}

#[test]
fn fig4_sweep_is_byte_identical_across_runs() {
    // Shortened horizon: determinism does not depend on running the full
    // 2 s paper horizon, and the sweep covers 12 (design, condition) cells.
    let config = ConditionConfig {
        horizon_ms: 800,
        ..ConditionConfig::default()
    };
    let first = render(&run_fig4_sweep(&config, Workers::auto()));
    let second = render(&run_fig4_sweep(&config, Workers::auto()));
    assert!(
        first == second,
        "identical configs produced different metric output:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // Sanity: the render actually contains measurements, not just headers.
    assert!(first.contains("C1"), "unexpectedly empty sweep:\n{first}");
}

#[test]
fn fig4_sweep_is_byte_identical_across_worker_counts() {
    // The sweep engine's core contract: `--workers N` is pure throughput
    // configuration. One worker and four workers must render the exact
    // same bytes, cell for cell.
    let config = ConditionConfig {
        horizon_ms: 800,
        ..ConditionConfig::default()
    };
    let serial = render(&run_fig4_sweep(&config, Workers::SERIAL));
    let parallel = render(&run_fig4_sweep(&config, Workers::new(4)));
    assert!(
        serial == parallel,
        "worker count changed the output:\n--- 1 worker ---\n{serial}\n--- 4 workers ---\n{parallel}"
    );
    assert!(serial.contains("C7"), "unexpectedly empty sweep:\n{serial}");
}
