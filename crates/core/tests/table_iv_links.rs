//! Table IV's failure conditions, pinned: for each condition the links
//! `TestBed::scenario_links` resolves against the probe's path, in order,
//! each with its endpoints. The beds are Table III's (k = 4, one host per
//! rack), Fig. 4's (k = 8, four hosts per rack) and the k = 12 F²Tree
//! with four across ports that `repro c7x` fails C7 on. The cells fail
//! these links at one instant, so their order fixes the order of the
//! same-instant link events too.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p f2tree --test table_iv_links`.

use std::fmt::Write as _;
use std::path::Path;

use dcn_emu::EmuConfig;
use dcn_failure::Condition;
use dcn_net::{FatTree, LinkId};
use dcn_sim::SimTime;
use f2tree::{rewire_fat_tree, Design, TestBed};

/// One line per condition: `C4: l3 n2 agg-p0-a0 n0 tor-p0-t0, ...`.
fn render(out: &mut String, title: &str, mut bed: TestBed, conditions: &[Condition]) {
    writeln!(out, "# {title}: {}", bed.topology().name()).expect("write to String");
    let (udp, _tcp) = bed.add_aligned_probes(SimTime::ZERO);
    let anatomy = bed.path_anatomy(udp);
    let topo = bed.topology();
    let show = |link: LinkId| {
        let (a, b) = topo.link(link).endpoints();
        let (na, nb) = (topo.node(a).name(), topo.node(b).name());
        format!("{link} {a} {na} {b} {nb}")
    };
    for &condition in conditions {
        let links: Vec<String> = bed
            .scenario_links(&anatomy, condition)
            .into_iter()
            .map(show)
            .collect();
        writeln!(out, "{condition}: {}", links.join(", ")).expect("write to String");
    }
}

#[test]
fn table_iv_links_match_golden() {
    const FAT: [Condition; 5] = [
        Condition::C1,
        Condition::C2,
        Condition::C3,
        Condition::C4,
        Condition::C5,
    ];
    let mut got = String::new();
    for (title, k, hosts) in [("Table III", 4, 1), ("Fig. 4", 8, 4)] {
        for (design, conditions) in [
            (Design::FatTree, &FAT[..]),
            (Design::F2Tree, &Condition::ALL[..]),
        ] {
            let bed = TestBed::build(design, k, hosts).expect("valid k");
            render(&mut got, title, bed, conditions);
        }
    }
    let wide = FatTree::new(12)
        .and_then(|fat| rewire_fat_tree(fat.build(), 4))
        .expect("feasible at k=12");
    let bed = TestBed::from_f2tree(wide, EmuConfig::default()).expect("addressable");
    render(&mut got, "C7 wide", bed, &[Condition::C7]);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("table_iv_links.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "a Table IV condition resolves to other links or another order; if the \
         change is intended, regenerate with UPDATE_GOLDEN=1"
    );
}
