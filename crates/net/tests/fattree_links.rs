//! The fat tree's node and link tables, pinned: every node's id and name
//! and every link's id, endpoints and class for k ∈ {4, 6, 8}, with one
//! host per rack and with the default `k/2`. Failure scenarios, goldens
//! and the benchmark name links by id, so a builder change that moves an
//! id shows up here first.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p dcn-net --test fattree_links`.

use std::fmt::Write as _;
use std::path::Path;

use dcn_net::{FatTree, Topology};

fn render(topo: &Topology) -> String {
    let mut out = format!("# {}, {} hosts\n", topo.name(), topo.host_count());
    for node in topo.nodes() {
        writeln!(out, "{} {}", node.id(), node.name()).expect("write to String");
    }
    for link in topo.links() {
        let (a, b) = link.endpoints();
        writeln!(out, "{} {a} {b} {:?}", link.id(), link.class()).expect("write to String");
    }
    out
}

#[test]
fn fat_tree_link_ids_match_golden() {
    let mut got = String::new();
    for k in [4, 6, 8] {
        let default = FatTree::new(k).expect("even k >= 4");
        for builder in [default.clone().hosts_per_tor(1), default] {
            got.push_str(&render(&builder.build()));
        }
    }
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("fattree_links.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden.parent().expect("has a parent")).expect("mkdir");
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file exists; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "the fat tree's node or link table moved; if the change is intended, \
         regenerate with UPDATE_GOLDEN=1"
    );
}
