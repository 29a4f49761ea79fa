//! Golden file of the campaign summary: `ChaosReport::render()` for 40
//! fixed-seed campaigns under `ChaosConfig::for_recovery` in each
//! recovery mode must match `tests/golden/report_<mode>.txt`
//! byte-exactly. Each line pins a campaign's epoch, broken-window,
//! excused-window, loop and retransmit counts and its longest window, so
//! a change to the packet path that moves any of them shows here.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p dcn-chaos --test report_golden`.

use std::path::Path;

use dcn_chaos::{run_chaos, ChaosConfig};
use dcn_routing::RecoveryMode;
use dcn_sweep::Workers;

#[test]
fn campaign_reports_match_golden() {
    for mode in RecoveryMode::ALL {
        let cfg = ChaosConfig {
            master_seed: 20150701,
            campaigns: 40,
            ..ChaosConfig::for_recovery(mode)
        };
        let got = run_chaos(&cfg, Workers::new(2))
            .expect("campaign builds")
            .render();
        let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join(format!("report_{mode}.txt"));
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&golden, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&golden)
            .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
        assert_eq!(
            got, want,
            "the {mode} campaign summary diverged from the golden file; if \
             the change is intended, regenerate with UPDATE_GOLDEN=1"
        );
    }
}
