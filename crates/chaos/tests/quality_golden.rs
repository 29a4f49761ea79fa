//! Golden file of the quality observer: every `QualityReport` field —
//! max load, the oversubscription percentiles, path diversity, delivered
//! and undeliverable demand — at every FIB epoch of a fixed-seed chaos
//! campaign must match `tests/golden/quality_default.txt` byte-exactly.
//! The campaign's degraded k = 4 states (dead links, half-detected
//! failures, transient loops) pin the snapshot extraction and the whole
//! scoring kernel, not just the healthy fabric.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p dcn-chaos --test quality_golden`.

use std::path::Path;

use dcn_chaos::{run_chaos, ChaosConfig};
use dcn_sweep::Workers;

#[test]
fn quality_traces_match_golden() {
    let mut cfg = ChaosConfig {
        campaigns: 40,
        ..ChaosConfig::default()
    };
    cfg.engine.quality = true;
    let got = run_chaos(&cfg, Workers::new(2))
        .expect("campaign builds")
        .render_quality();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("quality_default.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "quality traces diverged from the golden file; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}
