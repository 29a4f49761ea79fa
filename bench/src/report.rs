//! Collecting run files into `results.json`, printing them, and comparing
//! two result files under the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::catalog::{
    Better, END_TO_END, FAIL_SHARE, FAIL_SHARE_BOUND, PAPER_ERR_BOUND_PT, PER_LAYER, WORKLOADS,
};
use crate::json::Json;
use crate::stats::{median, quartile_spread};

/// Outcome of comparing one (metric, workload) pair between two results.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell — unless every run of the change beats every run of the
    /// parent, which is reported as [`Verdict::Ok`].
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `change` is worse than `parent`, as a share of `parent`
/// (negative when it is better).
fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    };
    if parent == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / parent.abs()
    }
}

/// Compares the parent's runs with the change's under a relative `bound`.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (p, c) = (median(parent)?, median(change)?);
    let spread = [parent, change]
        .into_iter()
        .filter_map(quartile_spread)
        .fold(0.0, f64::max);
    if spread > bound {
        let beats = |c: f64, p: f64| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        };
        let clean_win = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        return Some(if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        });
    }
    Some(if worsening(p, c, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

/// Compares under an absolute bound: the change's worst reading may
/// exceed the parent's worst by at most `bound`.
pub fn verdict_absolute(parent: &[f64], change: &[f64], bound: f64) -> Option<Verdict> {
    let worst = |v: &[f64]| v.iter().copied().reduce(f64::max);
    let (p, c) = (worst(parent)?, worst(change)?);
    Some(if c - p > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

fn runs(doc: &Json) -> &[Json] {
    doc.get("runs").and_then(Json::as_arr).unwrap_or(&[])
}

fn is(run: &Json, workload: &str, trace: bool) -> bool {
    run.get("workload").and_then(Json::as_str) == Some(workload)
        && run.get("trace") == Some(&Json::Bool(trace))
}

/// Values of `metric` over the runs of `workload` (traced or untraced).
fn metric_values(doc: &Json, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs(doc)
        .iter()
        .filter(|r| is(r, workload, trace))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Values of top-level field `field` over the untraced runs of `workload`.
fn field_values(doc: &Json, workload: &str, field: &str) -> Vec<f64> {
    runs(doc)
        .iter()
        .filter(|r| is(r, workload, false))
        .filter_map(|r| r.get(field)?.as_f64())
        .collect()
}

fn samples_of(doc: &Json, workload: &str, trace: bool, metric: &str) -> Option<f64> {
    runs(doc)
        .iter()
        .find(|r| is(r, workload, trace))?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_f64()
}

/// Merges every `run_*.json` under `dir` into one results document, in
/// file-name order.
///
/// # Errors
///
/// Returns a message when the directory or a run file cannot be read or
/// parsed, or holds no run file.
pub fn collect(dir: &Path) -> Result<Json, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("run_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{}: no run_*.json files", dir.display()));
    }
    let runs = names
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Json::obj([
        ("schema", Json::Num(1.0)),
        ("runs", Json::Arr(runs)),
    ]))
}

/// Prints every metric of `doc` by name, with unit and sample count, one
/// block per workload. Returns the text and whether every run was correct.
pub fn render(doc: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        if !runs(doc)
            .iter()
            .any(|r| is(r, workload, false) || is(r, workload, true))
        {
            continue;
        }
        writeln!(out, "== {workload}").expect("writing to a String");
        for def in &END_TO_END {
            let values = metric_values(doc, workload, false, def.name);
            let Some(mid) = median(&values) else { continue };
            let samples = samples_of(doc, workload, false, def.name).unwrap_or(1.0);
            let spread = quartile_spread(&values)
                .map_or(String::new(), |s| format!(", spread {:.2}%", s * 100.0));
            writeln!(
                out,
                "  {:<34} {:>14.6} {:<6} ({} run(s) x {} sample(s){spread})",
                def.name,
                mid,
                def.unit,
                values.len(),
                samples,
            )
            .expect("writing to a String");
        }
        for (name, unit) in [(FAIL_SHARE, "ratio"), ("paper_err_pct", "%")] {
            let values = field_values(doc, workload, name);
            if let Some(worst) = values.iter().copied().reduce(f64::max) {
                writeln!(
                    out,
                    "  {name:<34} {worst:>14.6} {unit:<6} ({} run(s), worst)",
                    values.len()
                )
                .expect("writing to a String");
            }
        }
        for def in PER_LAYER {
            let values = metric_values(doc, workload, true, def.name);
            let Some(mid) = median(&values) else { continue };
            let samples = samples_of(doc, workload, true, def.name).unwrap_or(1.0);
            writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} ({} run(s) x {} sample(s)) -> {}",
                def.name,
                mid,
                def.unit,
                values.len(),
                samples,
                def.moves,
            )
            .expect("writing to a String");
        }
    }
    for run in runs(doc) {
        if run.get("correct") != Some(&Json::Bool(true)) {
            all_correct = false;
            writeln!(
                out,
                "FAILED: {} (trace {}): {} of {} operation(s) failed",
                run.get("workload").and_then(Json::as_str).unwrap_or("?"),
                run.get("trace") == Some(&Json::Bool(true)),
                run.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN),
                run.get("attempted")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
            )
            .expect("writing to a String");
        }
    }
    (out, all_correct)
}

/// The `bound` of each end-to-end metric in `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when a catalogued metric has no bound there.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<&'static str, f64>, String> {
    let listed = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|def| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
                .and_then(|m| m.get("bound")?.as_f64())
                .map(|bound| (def.name, bound))
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))
        })
        .collect()
}

/// Counters of the first run of each (workload, traced) kind.
fn counter_sets(doc: &Json) -> BTreeMap<(String, bool), &[(String, Json)]> {
    let mut sets = BTreeMap::new();
    for run in runs(doc) {
        let (Some(workload), Some(counters)) = (
            run.get("workload").and_then(Json::as_str),
            run.get("counters").and_then(Json::as_obj),
        ) else {
            continue;
        };
        let traced = run.get("trace") == Some(&Json::Bool(true));
        sets.entry((workload.to_owned(), traced))
            .or_insert(counters);
    }
    sets
}

/// Compares result document `parent` with `change`: one row per workload
/// and end-to-end metric, then the identity report over every counter.
/// Returns the text and whether anything regressed.
pub fn compare(
    parent: &Json,
    change: &Json,
    bounds: &BTreeMap<&'static str, f64>,
) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<12} {:<14} {:>12} {:>12} {:>9} {:>9}  verdict",
        "workload", "metric", "parent", "change", "worse", "bound"
    )
    .expect("writing to a String");
    // `worse` and `bound` are shares of the parent's median, in percent,
    // for the BENCHMARK.json metrics, and absolute differences for the
    // two metrics with absolute bounds.
    let mut row =
        |workload: &str, metric: &str, p: f64, c: f64, worse: String, bound: String, v: Verdict| {
            regressed |= v == Verdict::Regressed;
            writeln!(
                out,
                "{workload:<12} {metric:<14} {p:>12.5} {c:>12.5} {worse:>9} {bound:>9}  {}",
                v.as_str()
            )
            .expect("writing to a String");
        };
    for workload in WORKLOADS {
        for def in &END_TO_END {
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let p = metric_values(parent, workload, false, def.name);
            let c = metric_values(change, workload, false, def.name);
            if let (Some(v), Some(pm), Some(cm)) =
                (verdict(&p, &c, def.better, bound), median(&p), median(&c))
            {
                let worse = format!("{:.2}%", worsening(pm, cm, def.better) * 100.0);
                row(
                    workload,
                    def.name,
                    pm,
                    cm,
                    worse,
                    format!("{:.2}%", bound * 100.0),
                    v,
                );
            }
        }
        for (field, bound) in [
            (FAIL_SHARE, FAIL_SHARE_BOUND),
            ("paper_err_pct", PAPER_ERR_BOUND_PT),
        ] {
            let worst = |doc| {
                field_values(doc, workload, field)
                    .into_iter()
                    .reduce(f64::max)
            };
            let p = field_values(parent, workload, field);
            let c = field_values(change, workload, field);
            if let (Some(v), Some(pw), Some(cw)) = (
                verdict_absolute(&p, &c, bound),
                worst(parent),
                worst(change),
            ) {
                row(
                    workload,
                    field,
                    pw,
                    cw,
                    format!("{:+.4}", cw - pw),
                    format!("{bound:.4}"),
                    v,
                );
            }
        }
    }

    let (p_sets, c_sets) = (counter_sets(parent), counter_sets(change));
    let mut differing = Vec::new();
    let mut compared = 0usize;
    for (key, p_counters) in &p_sets {
        let Some(c_counters) = c_sets.get(key) else {
            continue;
        };
        compared += 1;
        let names: std::collections::BTreeSet<&str> = p_counters
            .iter()
            .chain(c_counters.iter())
            .map(|(k, _)| k.as_str())
            .collect();
        for name in names {
            let find = |set: &[(String, Json)]| {
                set.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
            };
            let (pv, cv) = (find(p_counters), find(c_counters));
            if pv != cv {
                differing.push(format!(
                    "  {} ({}) {name}: {} -> {}",
                    key.0,
                    if key.1 { "traced" } else { "untraced" },
                    pv.map_or("absent".into(), |v| v.render()),
                    cv.map_or("absent".into(), |v| v.render()),
                ));
            }
        }
    }
    let identical = if compared == 0 {
        "not compared (no common runs)"
    } else if differing.is_empty() {
        "yes"
    } else {
        "no"
    };
    writeln!(out, "simulated statistics identical: {identical}").expect("writing to a String");
    for line in &differing {
        writeln!(out, "{line}").expect("writing to a String");
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_and_beyond_is_regressed() {
        let parent = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(&parent, &[1.05, 1.06, 1.04, 1.05], Better::Lower, 0.10),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&parent, &[1.15, 1.16, 1.14, 1.15], Better::Lower, 0.10),
            Some(Verdict::Regressed)
        );
        // Getting better is never a regression, in either direction.
        assert_eq!(
            verdict(&parent, &[0.5, 0.5, 0.5, 0.5], Better::Lower, 0.10),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(&parent, &[0.5, 0.5, 0.5, 0.5], Better::Higher, 0.10),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(&[], &[1.0], Better::Lower, 0.10), None);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_a_clean_win() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.9];
        assert_eq!(
            verdict(&noisy, &[1.0, 1.3, 0.8, 1.1, 0.9], Better::Lower, 0.10),
            Some(Verdict::Unresolved)
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&noisy, &[0.5, 0.6, 0.4, 0.65, 0.3], Better::Lower, 0.10),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn absolute_bounds_compare_worst_readings() {
        assert_eq!(
            verdict_absolute(&[0.0, 0.0], &[0.0], 0.0),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict_absolute(&[0.0], &[0.0, 0.01], 0.0),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict_absolute(&[0.99], &[1.05], 0.1), Some(Verdict::Ok));
        assert_eq!(
            verdict_absolute(&[0.99], &[1.2], 0.1),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict_absolute(&[], &[1.2], 0.1), None);
    }

    fn run(workload: &str, trace: bool, wall: f64, events: f64) -> Json {
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(trace)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            ("fail_share", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([(
                    "wall_s",
                    Json::obj([
                        ("value", Json::Num(wall)),
                        ("unit", Json::str("s")),
                        ("samples", Json::Num(8.0)),
                    ]),
                )]),
            ),
            (
                "counters",
                Json::obj([("emu.events_total", Json::Num(events))]),
            ),
        ])
    }

    fn doc(runs: Vec<Json>) -> Json {
        Json::obj([("schema", Json::Num(1.0)), ("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_reports_one_row_per_workload_and_the_identity_check() {
        let bounds = BTreeMap::from([("wall_s", 0.10)]);
        let parent = doc(vec![
            run("recovery_k8", false, 2.0, 100.0),
            run("pa_k8", false, 3.0, 7.0),
        ]);
        let same = doc(vec![
            run("recovery_k8", false, 2.1, 100.0),
            run("pa_k8", false, 3.0, 7.0),
        ]);
        let (text, regressed) = compare(&parent, &same, &bounds);
        assert!(!regressed, "{text}");
        assert!(text.contains("recovery_k8  wall_s"), "{text}");
        assert!(text.contains("pa_k8        wall_s"), "{text}");
        assert!(
            text.contains("simulated statistics identical: yes"),
            "{text}"
        );

        let slower = doc(vec![run("recovery_k8", false, 2.5, 101.0)]);
        let (text, regressed) = compare(&parent, &slower, &bounds);
        assert!(regressed, "{text}");
        assert!(text.contains("regressed"), "{text}");
        assert!(
            text.contains("simulated statistics identical: no"),
            "{text}"
        );
        assert!(text.contains("emu.events_total: 100 -> 101"), "{text}");
    }

    #[test]
    fn render_lists_metrics_with_unit_and_samples_and_flags_failures() {
        let (text, ok) = render(&doc(vec![run("flap_k16", false, 0.85, 5.0)]));
        assert!(ok);
        assert!(text.contains("== flap_k16"), "{text}");
        assert!(
            text.contains("wall_s") && text.contains("1 run(s) x 8 sample(s)"),
            "{text}"
        );

        let mut failing = run("flap_k16", false, 0.85, 5.0);
        if let Json::Obj(pairs) = &mut failing {
            for (k, v) in pairs.iter_mut() {
                if k == "correct" {
                    *v = Json::Bool(false);
                }
            }
        }
        let (text, ok) = render(&doc(vec![failing]));
        assert!(!ok);
        assert!(text.contains("FAILED: flap_k16"), "{text}");
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let benchmark = Json::obj([(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|d| Json::obj([("name", Json::str(d.name)), ("bound", Json::Num(0.07))]))
                    .collect(),
            ),
        )]);
        let b = bounds(&benchmark).expect("all bounds present");
        assert_eq!(b.len(), END_TO_END.len());
        assert_eq!(b["wall_s"], 0.07);
        assert!(bounds(&Json::obj([("end_to_end", Json::Arr(vec![]))])).is_err());
    }
}
