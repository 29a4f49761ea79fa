//! Runs one workload in this process and turns its passes into metrics.
//!
//! Load model: a closed loop with one client. One untimed warm-up pass,
//! then timed passes back to back — a pass runs to completion before the
//! next starts — until `--seconds` of measuring have elapsed and at least
//! [`MIN_PASSES`] passes are in. Pass-level timings are floors: each unit
//! of a pass (cell, campaign, design) counts with its fastest time over
//! the passes (see `workloads::floor_sum`).

use std::time::{Duration, Instant};

use crate::catalog::{self, MetricDef, END_TO_END, PAPER_ERR_PCT, PER_LAYER};
use crate::json::Json;
use crate::kernels;
use crate::procfs::vm_hwm_kb;
use crate::span::{floor_per_cell, floor_total, Span, Tracer};
use crate::stats::{median, percentile, supported_tail};
use crate::workloads::cells::CellGrid;
use crate::workloads::chaos::Chaos;
use crate::workloads::partagg::PartAgg;
use crate::workloads::{
    floor_sum, floor_units, Counters, Pass, PhaseClock, Scale, Values, Workload,
};

/// Fewest timed passes of an untraced full-size run.
pub const MIN_PASSES: usize = 7;
/// Fewest (untraced, traced) pass pairs of a traced full-size run.
pub const MIN_TRACED_PAIRS: usize = 2;
/// Measuring stops here even if the minimum is not in, so that a run on a
/// badly overloaded host still ends inside the driver's time limit.
const MAX_MEASURE: Duration = Duration::from_secs(110);

/// Default seed of the seeded workloads (`pa_k8`, `chaos_w2`).
pub const DEFAULT_SEED: u64 = 20150701;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Workload name.
    pub workload: String,
    /// Seed of the seeded workloads; the other two are the paper's fixed
    /// scenarios and ignore it.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Full size or the shortened smoke run.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Catalog entry.
    pub def: &'static MetricDef,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (passes, cells, campaigns or kernel rounds).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// What was run.
    pub spec: RunSpec,
    /// Timed passes measured.
    pub passes: usize,
    /// Operations attempted over all timed passes.
    pub attempted: u64,
    /// Operations failed: oracle or tolerance failures, drift from the
    /// product's own results, and every operation of a pass whose
    /// deterministic counters differ from the first pass's.
    pub failed: u64,
    /// The contract's metrics: end-to-end when untraced, per-layer when
    /// traced.
    pub readings: Vec<Reading>,
    /// `experiments.paper_err_pct` when the workload has paper-measured
    /// cells (reported by both kinds of run).
    pub paper_err_pct: Option<f64>,
    /// Deterministic counters of the first pass.
    pub counters: Counters,
    /// Spans of the traced passes (empty when untraced).
    pub spans: Vec<Span>,
}

impl RunResult {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.readings.iter().map(|r| {
                    (
                        r.def.name,
                        Json::obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::str(r.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The run file `run.sh` collects: the result line's content plus
    /// sample counts, the two absolute-bound metrics and the counters.
    pub fn run_file(&self, set: u32) -> Json {
        Json::obj([
            ("workload", Json::str(&*self.spec.workload)),
            ("seed", Json::Num(self.spec.seed as f64)),
            ("set", Json::Num(f64::from(set))),
            ("trace", Json::Bool(self.spec.trace)),
            ("smoke", Json::Bool(self.spec.scale == Scale::Smoke)),
            ("passes", Json::Num(self.passes as f64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (catalog::FAIL_SHARE, Json::Num(self.fail_share())),
            (
                "paper_err_pct",
                self.paper_err_pct.map_or(Json::Null, Json::Num),
            ),
            (
                "metrics",
                Json::obj(self.readings.iter().map(|r| {
                    (
                        r.def.name,
                        Json::obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::str(r.def.unit)),
                            ("samples", Json::Num(r.samples as f64)),
                        ]),
                    )
                })),
            ),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(&k, &v)| (k, Json::Num(v as f64))),
                ),
            ),
        ])
    }
}

fn make_workload(spec: &RunSpec) -> Result<Box<dyn Workload>, String> {
    Ok(match spec.workload.as_str() {
        "recovery_k8" => Box::new(CellGrid::recovery_k8(spec.scale)),
        "flap_k16" => Box::new(CellGrid::flap_k16(spec.scale)),
        "pa_k8" => Box::new(PartAgg::new(spec.seed, spec.scale)),
        "chaos_w2" => Box::new(Chaos::new(spec.seed, spec.scale)),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of: {})",
                catalog::WORKLOADS.join(", ")
            ))
        }
    })
}

/// Operations failed over `passes`: each pass's own failures, or all of
/// its operations when its deterministic results differ from pass 0's.
fn count_failed(passes: &[Pass]) -> u64 {
    let Some(first) = passes.first() else {
        return 0;
    };
    passes
        .iter()
        .map(|p| {
            if p.counters == first.counters && p.digest == first.digest {
                p.failed
            } else {
                p.attempted
            }
        })
        .sum()
}

/// Runs `spec` to completion.
///
/// # Errors
///
/// Returns a message when the workload is unknown or the host cannot
/// provide a reading the contract requires (CPU clock, `VmHWM`).
pub fn run(spec: &RunSpec) -> Result<RunResult, String> {
    let mut workload = make_workload(spec)?;
    if spec.trace {
        run_traced(spec, workload.as_mut())
    } else {
        run_untraced(spec, workload.as_mut())
    }
}

fn keep_measuring(spec: &RunSpec, started: Instant, done: usize, min: usize) -> bool {
    if spec.scale == Scale::Smoke {
        return done < 1;
    }
    let elapsed = started.elapsed();
    elapsed < MAX_MEASURE && (done < min || elapsed.as_secs_f64() < spec.seconds)
}

fn run_untraced(spec: &RunSpec, workload: &mut dyn Workload) -> Result<RunResult, String> {
    workload.warm_up();

    let mut tracer = Tracer::new(false);
    let mut passes = Vec::new();
    let started = Instant::now();
    while keep_measuring(spec, started, passes.len(), MIN_PASSES) {
        passes.push(workload.pass(&mut tracer, false));
    }

    let floor = |pick: &dyn Fn(&PhaseClock) -> Option<Duration>| {
        floor_sum(&passes, pick).map(|d| d.as_secs_f64())
    };
    let setup_s = floor(&|u| Some(u.setup)).ok_or("no pass completed")?;
    let wall_s = floor(&|u| Some(u.run)).ok_or("no pass completed")?;
    let cpu_s = floor(&|u| u.run_cpu).ok_or("this host has no process CPU-time clock")?;
    let peak_rss_mb =
        vm_hwm_kb().ok_or("cannot read VmHWM from /proc/self/status")? as f64 / 1024.0;
    let n = passes.len();
    let measured = [
        ("setup_s", setup_s, n),
        ("wall_s", wall_s, n),
        ("cpu_s", cpu_s, n),
        ("peak_rss_mb", peak_rss_mb, 1),
    ];
    let readings = END_TO_END
        .iter()
        .zip(measured)
        .map(|(def, (name, value, samples))| {
            assert_eq!(def.name, name, "measurements follow the catalog's order");
            Reading {
                def,
                value,
                samples,
            }
        })
        .collect();

    Ok(RunResult {
        spec: spec.clone(),
        passes: n,
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: count_failed(&passes),
        readings,
        paper_err_pct: passes.first().and_then(|p| p.paper_err_pct),
        counters: passes
            .first()
            .map(|p| p.counters.clone())
            .unwrap_or_default(),
        spans: Vec::new(),
    })
}

fn run_traced(spec: &RunSpec, workload: &mut dyn Workload) -> Result<RunResult, String> {
    let (k, hosts_per_tor) = workload.fabric();
    let mut values = Values::new();
    // First thing in the process, while the heap is still untouched.
    if let Some(kb) = kernels::build_rss_kb_per_switch(k, hosts_per_tor) {
        values.insert("emu.build_rss_kb_per_switch", kb);
    }

    workload.warm_up();

    // Pairs of the same layered pass, spans off and spans on; the order
    // within a pair alternates so neither side always runs second.
    let mut tracer = Tracer::new(false);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while keep_measuring(spec, started, traced.len(), MIN_TRACED_PAIRS) {
        let pair = traced.len();
        for spans_on in [pair % 2 == 1, pair % 2 == 0] {
            tracer.set_enabled(spans_on);
            tracer.set_pass(pair as u32);
            let root = tracer.begin("pass");
            let pass = workload.pass(&mut tracer, true);
            tracer.end(root);
            (if spans_on { &mut traced } else { &mut plain }).push(pass);
        }
    }
    tracer.set_enabled(false);

    let first = traced.first().ok_or("no traced pass completed")?;
    let counters = first.counters.clone();
    layer_values(tracer.spans(), &counters, &mut values);
    if let Some(overhead) = trace_overhead_pct(&plain, &traced) {
        values.insert("trace.overhead_pct", overhead);
    }
    if let Some(err) = first.paper_err_pct {
        values.insert(PAPER_ERR_PCT, err);
    }
    for (&name, &count) in &counters {
        values.insert(name, count as f64);
    }

    kernels::fabric(k, hosts_per_tor, &mut values);
    workload.probes(&mut values);

    // A layer the workload does not call does no work in it: 0.
    let readings = PER_LAYER
        .iter()
        .map(|def| Reading {
            def,
            value: values.get(def.name).copied().unwrap_or(0.0),
            samples: match def.kind {
                catalog::Kind::Span => traced.len(),
                _ => 1,
            },
        })
        .collect();

    let paper_err_pct = first.paper_err_pct;
    let passes = traced.len();
    // Both halves of every pair ran the same work: check them together.
    traced.extend(plain);
    Ok(RunResult {
        spec: spec.clone(),
        passes,
        attempted: traced.iter().map(|p| p.attempted).sum(),
        failed: count_failed(&traced),
        readings,
        paper_err_pct,
        counters,
        spans: tracer.into_spans(),
    })
}

/// What recording spans cost: the median, over the units of a pass, of
/// how much slower the unit's floor is with spans on than with spans off.
/// The median over units rather than the ratio of the two sums, so that a
/// burst of host interference during a few units of one side does not
/// read as tracing cost.
fn trace_overhead_pct(plain: &[Pass], traced: &[Pass]) -> Option<f64> {
    let run = |u: &PhaseClock| Some(u.run);
    let ratios: Vec<f64> = floor_units(plain, run)?
        .into_iter()
        .zip(floor_units(traced, run)?)
        .filter(|(off, _)| !off.is_zero())
        .map(|(off, on)| (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0)
        .collect();
    median(&ratios)
}

/// Per-layer metrics that come from spans. Span totals are floors over
/// the traced passes, cell by cell (see [`floor_per_cell`]); per-cell and
/// per-campaign timings are distributions over the cells' floors.
fn layer_values(spans: &[Span], counters: &Counters, values: &mut Values) {
    const SUMMED: [(&str, &str); 7] = [
        ("core.testbed_build_ms", "core.testbed_build"),
        ("emu.flow_install_ms", "emu.flow_install"),
        ("transport.workload_gen_ms", "transport.workload_gen"),
        ("failure.schedule_gen_ms", "failure.schedule_gen"),
        ("metrics.quality_compute_ms", "metrics.quality_compute"),
        ("metrics.probe_extract_ms", "metrics.probe_extract"),
        (
            "metrics.completion_extract_ms",
            "metrics.completion_extract",
        ),
    ];
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            values.insert(name, v);
        }
    };
    let total = |name: &str| floor_total(spans, |n| n == name);

    for (metric, span_name) in SUMMED {
        let (ns, _) = total(span_name);
        put(metric, (ns > 0).then_some(ns as f64 / 1e6));
    }

    let (run_ns, run_events) = floor_total(spans, |n| n.starts_with("emu.run."));
    for (metric, span_name) in [
        ("emu.pre_ns_per_event", "emu.run.pre"),
        ("emu.recovery_ns_per_event", "emu.run.recovery"),
        ("emu.post_ns_per_event", "emu.run.post"),
    ] {
        let (ns, events) = total(span_name);
        put(metric, (events > 0).then(|| ns as f64 / events as f64));
    }
    let (recovery_ns, _) = total("emu.run.recovery");
    put(
        "emu.recovery_share",
        (recovery_ns > 0).then(|| recovery_ns as f64 / run_ns as f64),
    );
    let per_run_second = |count: u64| (run_ns > 0).then(|| count as f64 * 1e9 / run_ns as f64);
    put("emu.events_per_sec", per_run_second(run_events));
    put(
        "emu.hops_per_sec",
        per_run_second(counters.get("emu.pkt_hops").copied().unwrap_or(0)),
    );

    let floors_ms = |name: &str| -> Vec<f64> {
        floor_per_cell(spans, |n| n == name)
            .into_iter()
            .map(|(ns, _)| ns as f64 / 1e6)
            .collect()
    };
    put(
        "chaos.generate_us",
        median(&floors_ms("chaos.generate")).map(|ms| ms * 1e3),
    );
    let scenarios = floors_ms("chaos.run_scenario");
    put("chaos.scenario_ms_p50", median(&scenarios));
    put(
        "chaos.scenario_ms_p90",
        percentile(&scenarios, supported_tail(scenarios.len(), 90)),
    );
    let (checked_ns, _) = total("chaos.run_scenario");
    let (bare_ns, _) = total("chaos.bare_replay");
    put(
        "chaos.oracle_share",
        (checked_ns > 0).then(|| 1.0 - bare_ns as f64 / checked_ns as f64),
    );

    let cells = floors_ms("cell");
    let tail = supported_tail(cells.len(), 90);
    put("experiments.cell_ms_p50", median(&cells));
    put("experiments.cell_ms_p90", percentile(&cells, tail));
    put(
        "experiments.cell_tail_pct",
        (!cells.is_empty()).then_some(f64::from(tail)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(failed: u64, events: u64, digest: u64) -> Pass {
        Pass {
            units: vec![PhaseClock::default()],
            attempted: 10,
            failed,
            counters: Counters::from([("emu.events_total", events)]),
            digest,
            paper_err_pct: None,
        }
    }

    #[test]
    fn a_pass_that_differs_from_the_first_fails_whole() {
        assert_eq!(count_failed(&[]), 0);
        assert_eq!(count_failed(&[pass(0, 5, 1), pass(0, 5, 1)]), 0);
        assert_eq!(count_failed(&[pass(1, 5, 1), pass(2, 5, 1)]), 3);
        // Same counters, different digest; and different counters.
        assert_eq!(count_failed(&[pass(0, 5, 1), pass(0, 5, 2)]), 10);
        assert_eq!(
            count_failed(&[pass(0, 5, 1), pass(0, 6, 1), pass(1, 5, 1)]),
            11
        );
    }

    fn span(name: &'static str, pass: u32, start: u64, end: u64, count: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            pass,
            cell: 0,
            count,
        }
    }

    #[test]
    fn layer_values_split_the_run_into_its_windows() {
        let spans = [
            span("emu.run.pre", 0, 0, 1_000, 10),
            span("emu.run.recovery", 0, 1_000, 4_000, 10),
            span("emu.run.post", 0, 4_000, 5_000, 20),
            span("core.testbed_build", 0, 5_000, 2_005_000, 0),
            span("cell", 0, 0, 3_000_000, 0),
        ];
        let counters = Counters::from([("emu.pkt_hops", 80)]);
        let mut values = Values::new();
        layer_values(&spans, &counters, &mut values);
        assert_eq!(values["emu.pre_ns_per_event"], 100.0);
        assert_eq!(values["emu.recovery_ns_per_event"], 300.0);
        assert_eq!(values["emu.post_ns_per_event"], 50.0);
        assert_eq!(values["emu.recovery_share"], 0.6);
        assert_eq!(values["emu.events_per_sec"], 40.0 * 1e9 / 5_000.0);
        assert_eq!(values["emu.hops_per_sec"], 80.0 * 1e9 / 5_000.0);
        assert_eq!(values["core.testbed_build_ms"], 2.0);
        assert_eq!(values["experiments.cell_ms_p50"], 3.0);
        // One cell cannot support a p90: the median is reported as such.
        assert_eq!(values["experiments.cell_tail_pct"], 50.0);
        // Layers the spans never entered stay unset (reported as 0).
        assert!(!values.contains_key("chaos.oracle_share"));
        assert!(!values.contains_key("chaos.generate_us"));
    }

    #[test]
    fn trace_overhead_is_the_median_unit_slowdown() {
        let pass = |ms: [u64; 3]| Pass {
            units: ms
                .iter()
                .map(|&ms| PhaseClock {
                    run: Duration::from_millis(ms),
                    ..PhaseClock::default()
                })
                .collect(),
            ..Pass::default()
        };
        let plain = [pass([100, 200, 400])];
        // Units 0 and 1 are 1 % slower traced; unit 2 hit a burst (+50 %).
        let traced = [pass([101, 202, 600]), pass([150, 300, 900])];
        let overhead = trace_overhead_pct(&plain, &traced).expect("units on both sides");
        assert!((overhead - 1.0).abs() < 1e-9, "{overhead}");
        assert_eq!(trace_overhead_pct(&[], &traced), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_in_stable_order() {
        let result = RunResult {
            spec: RunSpec {
                workload: "recovery_k8".into(),
                seed: 1,
                seconds: 1.0,
                trace: false,
                scale: Scale::Full,
            },
            passes: 7,
            attempted: 182,
            failed: 0,
            readings: vec![Reading {
                def: &END_TO_END[1],
                value: 2.25,
                samples: 7,
            }],
            paper_err_pct: Some(0.99),
            counters: Counters::new(),
            spans: Vec::new(),
        };
        assert_eq!(
            result.contract_line().render(),
            r#"{"correct": true, "attempted": 182, "failed": 0, "metrics": {"wall_s": {"value": 2.25, "unit": "s"}}}"#
        );
        assert_eq!(
            result.contract_line().render(),
            result.contract_line().render()
        );
        let file = result.run_file(3);
        assert_eq!(file.get("set").and_then(Json::as_f64), Some(3.0));
        assert_eq!(file.get("fail_share").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            file.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("samples"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn unknown_workloads_are_refused_with_the_list() {
        let spec = RunSpec {
            workload: "nope".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Smoke,
        };
        let err = run(&spec).expect_err("unknown workload");
        assert!(
            err.contains("recovery_k8") && err.contains("chaos_w2"),
            "{err}"
        );
    }
}
