//! The four workloads and what they share: the phase clock that splits a
//! unit of work into set-up and run, the per-pass result, and the trait
//! the harness drives.
//!
//! Every workload calls the product through public functions only and
//! runs its defaults (`EmuConfig::default()` plus the recovery mode that
//! is the experiment's independent variable, `ChaosConfig::default()`).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dcn_emu::Network;

use crate::procfs::process_cpu_time;
use crate::span::Tracer;

pub mod cells;
pub mod chaos;
pub mod partagg;

/// Metric values by catalog name (per-layer metrics of one traced run).
pub type Values = BTreeMap<&'static str, f64>;

/// Deterministic counters by catalog name; must repeat exactly between
/// passes, runs and commits.
pub type Counters = BTreeMap<&'static str, u64>;

/// Full-size run, or the shortened one `run.sh --smoke` uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` documents.
    Full,
    /// Shortened horizons and fewer operations; same code paths.
    Smoke,
}

/// Host time of one unit of a pass — a cell, a design's run, a campaign,
/// or a whole `run_chaos` call — split into its two phases.
#[derive(Clone, Debug, Default)]
pub struct PhaseClock {
    /// Building testbeds (topology, addressing, warm-start, FRR map).
    pub setup: Duration,
    /// Everything else: flow/failure install, event loop, extraction.
    pub run: Duration,
    /// Process CPU consumed during `run`, when the host can tell.
    pub run_cpu: Option<Duration>,
}

impl PhaseClock {
    /// Times `f` as set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.setup += started.elapsed();
        out
    }

    /// Times `f` as run time, wall and CPU.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu_before = process_cpu_time();
        let started = Instant::now();
        let out = f();
        self.run += started.elapsed();
        if let (Some(before), Some(after)) = (cpu_before, process_cpu_time()) {
            *self.run_cpu.get_or_insert(Duration::ZERO) += after.saturating_sub(before);
        }
        out
    }
}

/// What one pass of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host-time split of each unit of the pass, in unit order (the same
    /// units, in the same order, in every pass).
    pub units: Vec<PhaseClock>,
    /// Operations attempted (cells, requests or campaigns).
    pub attempted: u64,
    /// Operations that failed a correctness check, drift guard included.
    pub failed: u64,
    /// Deterministic counters of the pass.
    pub counters: Counters,
    /// FNV-1a digest over every simulated result of the pass; together
    /// with `counters` it must equal pass 0's.
    pub digest: u64,
    /// Largest relative error against the paper's Table III, in percent
    /// (only workloads with paper-measured cells).
    pub paper_err_pct: Option<f64>,
}

impl Pass {
    /// An empty pass, its digest at the FNV offset basis.
    pub fn new() -> Self {
        Pass {
            digest: DIGEST_INIT,
            ..Pass::default()
        }
    }

    /// Folds a finished network's public counters into the pass's.
    pub fn count_network(&mut self, net: &Network) {
        let drops = net.drops();
        let c = &mut self.counters;
        bump(c, "emu.events_total", net.events_processed());
        bump(c, "emu.pkt_hops", net.total_transmitted());
        bump(c, "emu.delivered", net.delivered_packets());
        bump(
            c,
            "emu.drops_total",
            drops.no_route + drops.ttl_expired + drops.link_down + drops.queue_full,
        );
        raise(c, "emu.peak_queue_depth", net.peak_queue_depth() as u64);
        bump(c, "emu.fib_epochs", net.fib_epoch());
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Untimed first pass through the product's own entry points. Warms
    /// the allocator and caches, and keeps the product's results for the
    /// drift guard: the benchmark re-implements the cell bodies to place
    /// spans, and every pass is compared against what the product itself
    /// computed.
    fn warm_up(&mut self);

    /// One pass. `layered` selects the pass shape the traced run uses
    /// (identical for the serial workloads; a serial replay for
    /// `chaos_w2`); whether spans are recorded is the tracer's state.
    fn pass(&self, tracer: &mut Tracer, layered: bool) -> Pass;

    /// `(k, hosts per ToR)` of the workload's fabric: the size the
    /// traced run's isolated kernels are taken at.
    fn fabric(&self) -> (u32, u32);

    /// Probes of the traced run that only this workload has.
    fn probes(&self, _values: &mut Values) {}
}

/// A pass-level timing: for each unit its fastest time over `passes`,
/// summed over the units. `None` when `pick` has no reading somewhere.
///
/// Passes repeat identical, deterministic work, so whatever differs
/// between two timings of one unit is interference from the host, and
/// that only ever adds time. Taking the floor per unit rather than per
/// pass lets a short burst of interference spoil one cell of one pass
/// instead of the whole pass.
pub fn floor_sum(
    passes: &[Pass],
    pick: impl Fn(&PhaseClock) -> Option<Duration>,
) -> Option<Duration> {
    Some(floor_units(passes, pick)?.into_iter().sum())
}

/// Each unit's fastest time over `passes`, in unit order (the terms of
/// [`floor_sum`]).
pub fn floor_units(
    passes: &[Pass],
    pick: impl Fn(&PhaseClock) -> Option<Duration>,
) -> Option<Vec<Duration>> {
    let units = passes.first()?.units.len();
    (0..units)
        .map(|unit| {
            passes
                .iter()
                .map(|pass| pass.units.get(unit).and_then(&pick))
                .collect::<Option<Vec<_>>>()?
                .into_iter()
                .min()
        })
        .collect()
}

/// FNV-1a offset basis: the initial digest.
const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `value` into an FNV-1a digest.
pub fn digest(acc: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *acc ^= u64::from(byte);
        *acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Folds an optional value, distinguishing `None` from every `Some`.
pub fn digest_opt(acc: &mut u64, value: Option<u64>) {
    digest(acc, u64::from(value.is_some()));
    digest(acc, value.unwrap_or(0));
}

/// Adds `by` to counter `name`.
pub fn bump(counters: &mut Counters, name: &'static str, by: u64) {
    *counters.entry(name).or_insert(0) += by;
}

/// Raises counter `name` to at least `value`.
pub fn raise(counters: &mut Counters, name: &'static str, value: u64) {
    let slot = counters.entry(name).or_insert(0);
    *slot = (*slot).max(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_none_from_zero_and_is_order_sensitive() {
        let mut a = Pass::new().digest;
        digest_opt(&mut a, None);
        let mut b = Pass::new().digest;
        digest_opt(&mut b, Some(0));
        assert_ne!(a, b);

        let (mut x, mut y) = (DIGEST_INIT, DIGEST_INIT);
        digest(&mut x, 1);
        digest(&mut x, 2);
        digest(&mut y, 2);
        digest(&mut y, 1);
        assert_ne!(x, y);
    }

    #[test]
    fn phase_clock_keeps_the_phases_apart() {
        let mut clock = PhaseClock::default();
        assert_eq!(clock.setup(|| 7), 7);
        assert_eq!(clock.run(|| 8), 8);
        assert!(clock.setup > Duration::ZERO);
        assert!(clock.run > Duration::ZERO);
    }

    #[test]
    fn floor_sum_takes_each_units_fastest_pass() {
        let unit = |run_ms: u64, cpu: Option<u64>| PhaseClock {
            setup: Duration::ZERO,
            run: Duration::from_millis(run_ms),
            run_cpu: cpu.map(Duration::from_millis),
        };
        let pass = |units: Vec<PhaseClock>| Pass {
            units,
            ..Pass::default()
        };
        let passes = [
            pass(vec![unit(10, Some(9)), unit(30, Some(29))]),
            pass(vec![unit(12, Some(11)), unit(20, Some(19))]),
        ];
        // Unit 0 was fastest in pass 0, unit 1 in pass 1.
        assert_eq!(
            floor_sum(&passes, |u| Some(u.run)),
            Some(Duration::from_millis(30))
        );
        assert_eq!(
            floor_units(&passes, |u| Some(u.run)),
            Some(vec![Duration::from_millis(10), Duration::from_millis(20)])
        );
        assert_eq!(
            floor_sum(&passes, |u| u.run_cpu),
            Some(Duration::from_millis(28))
        );
        assert_eq!(floor_sum(&[], |u| Some(u.run)), None);
        // A missing reading anywhere is a missing result, not a smaller one.
        let holey = [pass(vec![unit(10, Some(9))]), pass(vec![unit(10, None)])];
        assert_eq!(floor_sum(&holey, |u| u.run_cpu), None);
        // A pass that lost a unit cannot be summed either.
        let ragged = [
            pass(vec![unit(10, None), unit(5, None)]),
            pass(vec![unit(10, None)]),
        ];
        assert_eq!(floor_sum(&ragged, |u| Some(u.run)), None);
    }

    #[test]
    fn counters_bump_and_raise() {
        let mut c = Counters::new();
        bump(&mut c, "a", 2);
        bump(&mut c, "a", 3);
        raise(&mut c, "b", 5);
        raise(&mut c, "b", 4);
        assert_eq!(c["a"], 5);
        assert_eq!(c["b"], 5);
    }
}
