//! Golden files of generated scenarios: the first four campaign cells of
//! the default master seed, on both designs, rendered in the scenario
//! file format, must match `tests/golden/scenarios_<preset>.txt`
//! byte-exactly. Any change to how a scenario draws from its cell's
//! stream — or to the stream itself — shows up here.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p dcn-chaos --test scenario_golden`.

use std::path::Path;

use dcn_chaos::{generate_scenario, CampaignConfig};
use dcn_sweep::cell_rng;
use f2tree::Design;

const MASTER_SEED: u64 = 20150701;

/// Cells 0..4 on each design, one `# design cell` header per scenario.
fn rendered(cfg: &CampaignConfig) -> String {
    let mut out = String::new();
    for design in [Design::FatTree, Design::F2Tree] {
        for cell in 0..4 {
            let spec = generate_scenario(design, &mut cell_rng(MASTER_SEED, cell), cfg)
                .expect("the preset's fabric builds");
            out.push_str(&format!("# {design} cell {cell}\n{}", spec.render()));
        }
    }
    out
}

fn check(preset: &str, cfg: &CampaignConfig) {
    let got = rendered(cfg);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("scenarios_{preset}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "generated scenarios diverged from the golden file; if the change is \
         intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn default_campaign_scenarios_match_golden() {
    check("default", &CampaignConfig::default());
}

#[test]
fn single_failure_scenarios_match_golden() {
    check("single_failure", &CampaignConfig::single_failure());
}
