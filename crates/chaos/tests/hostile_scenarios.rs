//! Hostile scenario files: input `ScenarioSpec::parse` accepts but no
//! fabric can run gets a typed error from `run_scenario`, not a panic.
//! The files live in `tests/hostile/`; a property test below feeds both
//! functions text generated from the format's own tokens.

use std::path::Path;

use dcn_chaos::{run_scenario, EngineConfig, ScenarioError, ScenarioSpec, MAX_VIOLATIONS};
use dcn_net::LinkId;
use dcn_sim::{timers, SimTime};
use f2tree::{Design, TestBed};
use proptest::prelude::*;
use proptest::sample::Index;

fn parse(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/hostile")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    ScenarioSpec::parse(&text).expect("the fixture parses")
}

#[test]
fn a_link_the_topology_lacks_is_an_error() {
    let spec = parse("unknown_link.scenario");
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::UnknownLink(LinkId::new(999_999)))
    );
}

#[test]
fn a_link_the_rewiring_removed_is_an_error() {
    let bed = TestBed::build(Design::F2Tree, 4, 1).expect("k = 4 builds");
    let topo = bed.topology();
    let removed = (0..topo.link_slots() as u32)
        .map(LinkId::new)
        .find(|&l| topo.link(l).is_removed())
        .expect("the F2Tree rewiring removes fat-tree links");
    let text = format!(
        "design f2tree\nk 4\nhosts-per-tor 1\nincident single-link\n  down 100000 {}\n",
        removed.index()
    );
    let spec = ScenarioSpec::parse(&text).expect("parses");
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::UnknownLink(removed))
    );
}

#[test]
fn an_event_past_the_end_of_the_clock_is_an_error() {
    let spec = parse("late_event.scenario");
    let at = spec.last_event_time();
    assert_eq!(
        run_scenario(&spec, &EngineConfig::default()).map(|_| ()),
        Err(ScenarioError::TimeOverflow(at))
    );
    let message = ScenarioError::TimeOverflow(at).to_string();
    assert!(message.contains("end of the simulation clock"), "{message}");
}

#[test]
fn the_latest_accepted_event_runs_to_completion() {
    // The horizon may reach the middle of the clock; every timer armed
    // before it must still fit.
    let drain = timers::DETECTION_DELAY
        + timers::SPF_MAX_HOLD
        + timers::SPF_INITIAL_DELAY
        + timers::FIB_UPDATE_DELAY;
    let latest_us = (u64::MAX / 2 - drain.as_nanos()) / 1_000;
    let text = format!(
        "design fat-tree\nk 4\nhosts-per-tor 1\nincident single-link\n  \
         down {latest_us} 3\n  up {latest_us} 3\n"
    );
    let spec = ScenarioSpec::parse(&text).expect("parses");
    let outcome = run_scenario(&spec, &EngineConfig::default()).expect("runs");
    assert!(spec.last_event_time() > SimTime::ZERO);
    assert!(outcome.stats.epochs_checked > 0);
    // One microsecond later the drain no longer fits.
    let later = text.replace(&latest_us.to_string(), &(latest_us + 1).to_string());
    let spec = ScenarioSpec::parse(&later).expect("parses");
    assert!(matches!(
        run_scenario(&spec, &EngineConfig::default()),
        Err(ScenarioError::TimeOverflow(_))
    ));
}

#[test]
fn a_time_too_large_for_the_clock_is_a_parse_error() {
    let text = "design fat-tree\nk 4\nhosts-per-tor 1\nincident single-link\n  \
                down 18446744073709552 3\n";
    let err = ScenarioSpec::parse(text).expect_err("micros overflow nanoseconds");
    assert!(err.to_string().contains("line 5"), "{err}");
}

/// The tokens the generator draws from: the format's own, plus one
/// unknown design, incident kind and keyword.
const DESIGNS: [&str; 3] = ["fat-tree", "f2tree", "vl2"];
const KS: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "64"];
const HOSTS_PER_TOR: [&str; 3] = ["0", "1", "2"];
const KINDS: [&str; 6] = [
    "single-link",
    "correlated-links",
    "switch-down",
    "flap",
    "reconvergence",
    "partition",
];
/// Numbers at the edges the parser and the clock meet: zero, `u32` and
/// `u64` limits, a quarter and a half of the nanosecond clock in µs, the
/// largest µs it holds and one past it, a number too large for `u64`, a
/// sign, an exponent and nothing.
const EDGES: [&str; 13] = [
    "0",
    "1",
    "4294967295",
    "4294967296",
    "4611686018427387",
    "9223372036854775",
    "18446744073709551",
    "18446744073709552",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e6",
    "",
];

fn pick(pool: &[&'static str], at: Index) -> &'static str {
    pool.get(at.index(pool.len())).copied().unwrap_or_default()
}

/// An edge number one time in four, else an everyday one.
fn number(at: Index, free: u64) -> String {
    match at.index(4 * EDGES.len()) {
        i if i < EDGES.len() => pick(&EDGES, at).to_string(),
        _ => (free % 1_500_000).to_string(),
    }
}

/// What one line is drawn from: its shape, two token picks, two free
/// numbers, and whether and where it is cut short.
type LineDraw = ((Index, Index, Index), (u64, u64), (Index, Index));

fn line_draw() -> impl Strategy<Value = LineDraw> {
    (
        (any::<Index>(), any::<Index>(), any::<Index>()),
        (any::<u64>(), any::<u64>()),
        (any::<Index>(), any::<Index>()),
    )
}

/// One line of the format: a header, an incident, an event, a comment, a
/// blank or an unknown keyword, cut short one time in five. `shape` forces
/// a header (0–2) or an incident (3) line.
fn render_line(draw: LineDraw, shape: Option<usize>) -> String {
    let ((kind, a, b), (free, free2), (coin, cut)) = draw;
    let line = match shape.unwrap_or_else(|| kind.index(12)) {
        0 if shape.is_some() => format!("design {}", pick(&DESIGNS[..2], a)),
        0 => format!("design {}", pick(&DESIGNS, a)),
        1 => format!("k {}", pick(&KS, a)),
        2 => format!("hosts-per-tor {}", pick(&HOSTS_PER_TOR, a)),
        3 => format!("incident {}", pick(&KINDS, a)),
        4..=9 => {
            let dir = if free2 % 2 == 0 { "down" } else { "up" };
            let link = match b.index(4) {
                0 => number(b, free2),
                _ => (free2 % 20).to_string(),
            };
            format!("  {dir} {} {link}", number(a, free))
        }
        10 => "# dcn-chaos scenario v1".to_string(),
        _ => pick(&["", "warp 9"], a).to_string(),
    };
    match coin.index(5) {
        0 => line
            .get(..cut.index(line.len() + 1))
            .unwrap_or_default()
            .to_string(),
        _ => line,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scenario text from the format's own tokens (the three headers and
    /// an incident line, each possibly cut short, then up to eight lines
    /// of any kind): parsing and running it answers `Ok` or a typed
    /// error, and neither panics.
    #[test]
    fn hostile_text_gets_an_answer_not_a_panic(
        headers in (line_draw(), line_draw(), line_draw(), line_draw()),
        body in prop::collection::vec(line_draw(), 0..8),
    ) {
        let (design, k, hosts, incident) = headers;
        let mut lines = vec![
            render_line(design, Some(0)),
            render_line(k, Some(1)),
            render_line(hosts, Some(2)),
            render_line(incident, Some(3)),
        ];
        lines.extend(body.into_iter().map(|draw| render_line(draw, None)));
        let text = lines.join("\n");
        match ScenarioSpec::parse(&text) {
            Ok(spec) => match run_scenario(&spec, &EngineConfig::default()) {
                Ok(outcome) => prop_assert!(outcome.violations.len() <= MAX_VIOLATIONS, "{text}"),
                Err(e) => prop_assert!(!e.to_string().is_empty(), "{text}"),
            },
            Err(e) => prop_assert!(!e.to_string().is_empty(), "{text}"),
        }
    }
}
