//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the product. No product file is instrumented: a span is
//! opened just before a public function is called and closed just after
//! it returns.
//!
//! A disabled tracer records nothing and reads no clock, so the same
//! workload code serves the untraced run (end-to-end metrics) and the
//! traced run (per-layer metrics).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One closed interval of host time spent inside a named layer call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `emu.run.recovery`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to (spans of one pass share it).
    pub pass: u32,
    /// Cell or campaign within the pass.
    pub cell: u32,
    /// Work counted at the same boundary (simulator events for the
    /// `emu.run.*` spans, 0 elsewhere).
    pub count: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct SpanId(Option<usize>);

/// Records spans in memory; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    cell: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            cell: 0,
        }
    }

    /// Turns recording on or off (between passes, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Sets the pass id stamped on subsequent spans.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Sets the cell id stamped on subsequent spans.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
            cell: self.cell,
            count: 0,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        self.end_counted(id, 0);
    }

    /// Closes `id` and attaches the work counted inside it.
    pub fn end_counted(&mut self, id: SpanId, count: u64) {
        let Some(index) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends tracing and hands the spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of each span: its duration minus the time its direct
/// children cover. Children never overlap (they are opened and closed in
/// sequence on one thread), so the subtraction cannot go negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// For each cell, in cell order, the fastest pass's total duration (ns)
/// and count over the spans whose name satisfies `matches`.
///
/// Passes repeat identical work, so a cell's fastest pass is its cost
/// with the least host interference (see `workloads::floor_sum`).
pub fn floor_per_cell(spans: &[Span], matches: impl Fn(&str) -> bool) -> Vec<(u64, u64)> {
    let mut totals: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for span in spans.iter().filter(|s| matches(s.name)) {
        let slot = totals.entry((span.cell, span.pass)).or_insert((0, 0));
        slot.0 += span.dur_ns();
        slot.1 += span.count;
    }
    let mut floors: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ((cell, _pass), total) in totals {
        floors
            .entry(cell)
            .and_modify(|best| {
                if total.0 < best.0 {
                    *best = total;
                }
            })
            .or_insert(total);
    }
    floors.into_values().collect()
}

/// [`floor_per_cell`] summed over the cells.
pub fn floor_total(spans: &[Span], matches: impl Fn(&str) -> bool) -> (u64, u64) {
    floor_per_cell(spans, matches)
        .into_iter()
        .fold((0, 0), |(ns, count), (d, c)| (ns + d, count + c))
}

/// The trace file: one array per field would be smaller, but one object
/// per span can be read without this program.
pub fn trace_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::obj([
        ("workload", Json::str(workload)),
        ("unit", Json::str("ns")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(own)
                    .enumerate()
                    .map(|(id, (s, self_ns))| {
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("name", Json::str(s.name)),
                            ("start", Json::Num(s.start_ns as f64)),
                            ("end", Json::Num(s.end_ns as f64)),
                            ("self", Json::Num(self_ns as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("pass", Json::Num(f64::from(s.pass))),
                            ("cell", Json::Num(f64::from(s.cell))),
                            ("count", Json::Num(s.count as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            cell: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("cell", 10, 90, Some(0)),
            span("build", 10, 30, Some(1)),
            span("run", 30, 85, Some(1)),
            span("cell", 90, 100, Some(0)),
        ];
        // pass: 100 - (80 + 10); first cell: 80 - (20 + 55); leaves keep
        // their whole duration. Grandchildren are not subtracted twice.
        assert_eq!(self_times(&spans), vec![10, 5, 20, 55, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end_counted(id, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_stamps_pass_and_cell() {
        let mut t = Tracer::new(true);
        t.set_pass(3);
        let outer = t.begin("outer");
        t.set_cell(5);
        let inner = t.begin("inner");
        t.end_counted(inner, 42);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].cell, spans[1].count), (3, 5, 42));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let own = self_times(spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
    }

    #[test]
    fn floors_take_each_cells_fastest_pass() {
        let at = |name, pass, cell, start, end, count| Span {
            pass,
            cell,
            count,
            ..span(name, start, end, None)
        };
        let spans = [
            // cell 0: 40 ns in pass 0 (two spans), 25 ns in pass 1.
            at("emu.run.pre", 0, 0, 0, 10, 5),
            at("emu.run.post", 0, 0, 10, 40, 6),
            at("emu.run.pre", 1, 0, 100, 105, 5),
            at("emu.run.post", 1, 0, 105, 125, 6),
            // cell 1: 7 ns in pass 0, 9 ns in pass 1.
            at("emu.run.pre", 0, 1, 40, 47, 3),
            at("emu.run.pre", 1, 1, 125, 134, 3),
            at("metrics.x", 0, 1, 47, 50, 0),
        ];
        let is_run = |n: &str| n.starts_with("emu.run.");
        assert_eq!(floor_per_cell(&spans, is_run), vec![(25, 11), (7, 3)]);
        assert_eq!(floor_total(&spans, is_run), (32, 14));
        assert_eq!(floor_total(&spans, |n| n == "metrics.x"), (3, 0));
        assert_eq!(floor_total(&spans, |n| n == "absent"), (0, 0));
    }

    #[test]
    fn trace_file_lists_every_span_with_its_self_time() {
        let spans = [span("pass", 0, 100, None), span("cell", 10, 90, Some(0))];
        let json = trace_json("w", &spans);
        let listed = json
            .get("spans")
            .and_then(Json::as_arr)
            .expect("spans array");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].get("self").and_then(Json::as_f64), Some(20.0));
        assert_eq!(listed[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(listed[0].get("parent"), Some(&Json::Null));
    }
}
