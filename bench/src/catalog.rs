//! The metric catalog: every metric the benchmark reports, with its unit,
//! direction, how it is obtained and what it is expected to move.
//!
//! `BENCHMARK.json` lists the same names, units and directions (a unit
//! test keeps the two in step); the regression bounds live only there.

/// Which way is better.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is obtained.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured by the untraced run.
    EndToEnd,
    /// A span of the traced passes.
    Span,
    /// An isolated kernel, run once after the traced passes.
    Kernel,
    /// A public counter of the product; must repeat exactly.
    Counter,
}

/// One catalog entry.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name; per-layer names start with the crate they measure.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// How it is obtained.
    pub kind: Kind,
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move (no change is predicted on every other workload). For
    /// an end-to-end metric: its definition.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::EndToEnd,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        moves,
    }
}

/// The workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["recovery_k8", "flap_k16", "pa_k8", "chaos_w2"];

/// End-to-end metrics with a relative bound in `BENCHMARK.json`.
pub const END_TO_END: [MetricDef; 4] = [
    e2e(
        "setup_s",
        "s",
        "host time building every testbed of one pass; chaos_w2: serial replay of every generate_scenario; median over passes",
    ),
    e2e(
        "wall_s",
        "s",
        "host time of one pass excluding setup_s: flow/failure install + event loop + metric extraction; median over passes",
    ),
    e2e(
        "cpu_s",
        "s",
        "process user+sys CPU during the wall_s phase of one pass, all threads; median over passes",
    ),
    e2e("peak_rss_mb", "MB", "VmHWM of the workload's process at exit"),
];

/// Names of the two end-to-end metrics that carry an absolute bound and
/// therefore cannot be listed in `BENCHMARK.json` (its bounds are shares
/// of a median that must never be 0). `fail_share` is the result line's
/// `failed / attempted`; `paper_err_pct` is also reported per layer.
pub const FAIL_SHARE: &str = "fail_share";
/// See [`FAIL_SHARE`].
pub const PAPER_ERR_PCT: &str = "experiments.paper_err_pct";

/// Absolute bound on `fail_share`: any failure is a regression.
pub const FAIL_SHARE_BOUND: f64 = 0.0;
/// Absolute bound on `paper_err_pct`, in percentage points.
pub const PAPER_ERR_BOUND_PT: f64 = 0.1;

use Better::{Higher, Lower};
use Kind::{Counter, Kernel, Span};

/// Per-layer metrics; the layer is the crate name before the first dot.
#[rustfmt::skip] // one metric per line reads as the table it is
pub const PER_LAYER: &[MetricDef] = &[
    layer("net.topology_build_ms", "ms", Lower, Kernel, "setup_s on flap_k16, chaos_w2"),
    layer("core.rewire_build_ms", "ms", Lower, Kernel, "setup_s on all"),
    layer("core.testbed_build_ms", "ms", Lower, Span, "setup_s on all"),
    layer("emu.network_new_ms", "ms", Lower, Kernel, "setup_s on flap_k16"),
    layer("emu.build_rss_kb_per_switch", "kB", Lower, Kernel, "peak_rss_mb on flap_k16"),
    layer("emu.flow_install_ms", "ms", Lower, Span, "wall_s on pa_k8"),
    layer("emu.pre_ns_per_event", "ns", Lower, Span, "wall_s on recovery_k8 (data plane)"),
    layer("emu.recovery_ns_per_event", "ns", Lower, Span, "wall_s on flap_k16 (control plane)"),
    layer("emu.post_ns_per_event", "ns", Lower, Span, "wall_s on recovery_k8 (data plane)"),
    layer("emu.recovery_share", "ratio", Lower, Span, "wall_s on flap_k16 (control plane)"),
    layer("emu.events_per_sec", "1/s", Higher, Span, "wall_s on recovery_k8, pa_k8"),
    layer("emu.hops_per_sec", "1/s", Higher, Span, "wall_s on recovery_k8, pa_k8"),
    layer("emu.events_total", "count", Lower, Counter, "identity between commits"),
    layer("emu.pkt_hops", "count", Lower, Counter, "identity between commits"),
    layer("emu.delivered", "count", Higher, Counter, "identity between commits"),
    layer("emu.drops_total", "count", Lower, Counter, "identity between commits"),
    layer("emu.peak_queue_depth", "count", Lower, Counter, "identity between commits"),
    layer("emu.fib_epochs", "count", Lower, Counter, "identity between commits"),
    layer("sim.link_transmit_ns", "ns", Lower, Kernel, "wall_s on recovery_k8, pa_k8"),
    layer("routing.forward_ns", "ns", Lower, Kernel, "wall_s on recovery_k8, pa_k8"),
    layer("routing.forward_degraded_ns", "ns", Lower, Kernel, "wall_s on recovery_k8, pa_k8"),
    layer("routing.ecmp_hash_ns", "ns", Lower, Kernel, "wall_s on recovery_k8"),
    layer("routing.compute_routes_us", "us", Lower, Kernel, "wall_s, setup_s on flap_k16"),
    layer("routing.live_next_hops_ns", "ns", Lower, Kernel, "wall_s on recovery_k8 via metrics"),
    layer("routing.fib_routes", "count", Lower, Counter, "context for the kernels"),
    layer("routing.lsdb_lsas", "count", Lower, Counter, "context for the kernels"),
    layer("frr.failure_map_ms", "ms", Lower, Kernel, "setup_s on flap_k16, recovery_k8 (frr cells)"),
    layer("frr.protected_share", "ratio", Higher, Kernel, "context for frr.failure_map_ms"),
    layer("transport.tcp_segment_ns", "ns", Lower, Kernel, "wall_s on pa_k8"),
    layer("transport.workload_gen_ms", "ms", Lower, Span, "wall_s on pa_k8"),
    layer("transport.flows", "count", Lower, Counter, "identity between commits"),
    layer("transport.retransmits", "count", Lower, Counter, "identity between commits"),
    layer("transport.unfinished_transfers", "count", Lower, Counter, "identity between commits"),
    layer("failure.schedule_gen_ms", "ms", Lower, Span, "wall_s on pa_k8"),
    layer("failure.events", "count", Lower, Counter, "identity between commits"),
    layer("metrics.quality_compute_ms", "ms", Lower, Span, "wall_s on recovery_k8"),
    layer("metrics.probe_extract_ms", "ms", Lower, Span, "wall_s on recovery_k8"),
    layer("metrics.completion_extract_ms", "ms", Lower, Span, "wall_s on pa_k8"),
    layer("sweep.efficiency_w2", "ratio", Higher, Kernel, "wall_s, cpu_s on chaos_w2"),
    layer("sweep.dispatch_us_per_cell", "us", Lower, Kernel, "wall_s, cpu_s on chaos_w2"),
    layer("chaos.generate_us", "us", Lower, Span, "setup_s on chaos_w2"),
    layer("chaos.scenario_ms_p50", "ms", Lower, Span, "wall_s on chaos_w2"),
    layer("chaos.scenario_ms_p90", "ms", Lower, Span, "wall_s on chaos_w2"),
    layer("chaos.oracle_share", "ratio", Lower, Span, "wall_s on chaos_w2"),
    layer("chaos.epochs", "count", Lower, Counter, "identity between commits"),
    layer("chaos.windows", "count", Lower, Counter, "identity between commits"),
    layer("chaos.loops", "count", Lower, Counter, "identity between commits"),
    layer("chaos.violations", "count", Lower, Counter, "identity between commits"),
    layer("experiments.cell_ms_p50", "ms", Lower, Span, "the slowest cell bounds any parallel sweep"),
    layer("experiments.cell_ms_p90", "ms", Lower, Span, "the slowest cell bounds any parallel sweep"),
    layer("experiments.cell_tail_pct", "%", Higher, Span, "percentile cell_ms_p90 really is (needs 10 samples beyond it)"),
    layer(PAPER_ERR_PCT, "%", Lower, Counter, "max |loss - paper| / paper over the paper-measured cells; absolute bound 0.1 pt"),
    layer("trace.overhead_pct", "%", Lower, Span, "traced vs untraced wall_s of the same pass; must stay < 5"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogued(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), catalogued(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogued(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        assert!(PER_LAYER.len() <= 128);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }

    #[test]
    fn every_layer_metric_names_its_crate() {
        const LAYERS: [&str; 12] = [
            "net",
            "core",
            "emu",
            "sim",
            "routing",
            "frr",
            "transport",
            "failure",
            "metrics",
            "sweep",
            "chaos",
            "experiments",
        ];
        for m in PER_LAYER {
            let layer = m.name.split('.').next().expect("split yields one item");
            assert!(LAYERS.contains(&layer) || layer == "trace", "{}", m.name);
        }
    }
}
