//! `chaos_w2`: `run_chaos` with `ChaosConfig::default()` at 1000
//! campaigns on two sweep workers — thousands of tiny k = 4 simulations
//! under the per-FIB-epoch oracles.
//!
//! The end-to-end pass is the product call itself. The layered pass of
//! the traced run replays the same campaigns serially (campaign `i` draws
//! from `cell_rng(master, i)`, exactly as the sweep pool hands it out) so
//! that `generate_scenario` and `run_scenario` can be timed one by one,
//! next to a bare replay of the same schedule without the oracles.

use std::time::Instant;

use dcn_chaos::{
    generate_scenario, monitor_endpoints, run_chaos, run_scenario, ChaosConfig, ChaosReport,
    ScenarioOutcome, ScenarioSpec, TRANSFER_BYTES,
};
use dcn_emu::EmuConfig;
use dcn_sim::{timers, SimTime};
use dcn_sweep::{cell_rng, Workers};
use f2tree::{Design, TestBed};

use super::{bump, digest, Pass, PhaseClock, Scale, Values, Workload};
use crate::kernels;
use crate::span::Tracer;

/// Sweep workers of the end-to-end pass.
const WORKERS: usize = 2;

/// The chaos workload.
#[derive(Debug)]
pub struct Chaos {
    config: ChaosConfig,
    /// The one-worker warm-up run.
    reference: Option<ChaosReport>,
}

impl Chaos {
    /// The product's default campaign mix at 1000 campaigns (50 for the
    /// smoke run), drawn from `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        Chaos {
            config: ChaosConfig {
                master_seed: seed,
                campaigns: match scale {
                    Scale::Full => 1000,
                    Scale::Smoke => 50,
                },
                ..ChaosConfig::default()
            },
            reference: None,
        }
    }

    /// The design `run_chaos` gives campaign `index` (it alternates).
    fn design_of(index: usize) -> Design {
        if index.is_multiple_of(2) {
            Design::FatTree
        } else {
            Design::F2Tree
        }
    }

    fn generate(&self, index: usize) -> ScenarioSpec {
        let mut rng = cell_rng(self.config.master_seed, index);
        generate_scenario(Self::design_of(index), &mut rng, &self.config.campaign)
            .expect("the default campaign fabric builds")
    }

    fn run_product(&self, workers: usize) -> ChaosReport {
        run_chaos(&self.config, Workers::new(workers)).expect("the default campaign fabric builds")
    }

    /// Counters and digest of a product report. Every campaign fails when
    /// the report differs from the one-worker reference.
    ///
    /// An oracle violation is *not* a failed operation: the default
    /// campaign mix trips the blackhole-bound oracle in 1–5 of 1000
    /// campaigns at about half of all master seeds (3, 5, 8, 9, 10, … —
    /// none at the default 20150701), at the parent commit already. That
    /// is the product's deterministic behaviour, so it is reported as the
    /// counter `chaos.violations`, which must not move between commits.
    fn account(&self, report: &ChaosReport, pass: &mut Pass) {
        for result in &report.results {
            count_outcome(&result.outcome, pass);
            bump(
                &mut pass.counters,
                "emu.events_total",
                result.outcome.stats.sim_events,
            );
        }
        pass.attempted += report.results.len() as u64;
        let drifted = self
            .reference
            .as_ref()
            .is_some_and(|reference| reference.render() != report.render());
        if drifted {
            pass.failed += report.results.len() as u64;
        }
    }

    /// End-to-end pass: set-up is a serial replay of every campaign's
    /// `generate_scenario`; the run is `run_chaos` on two workers.
    fn product_pass(&self) -> Pass {
        let mut pass = Pass::new();
        let mut clock = PhaseClock::default();
        clock.setup(|| {
            for index in 0..self.config.campaigns {
                std::hint::black_box(self.generate(index));
            }
        });
        let report = clock.run(|| self.run_product(WORKERS));
        self.account(&report, &mut pass);
        pass.units.push(clock);
        pass
    }

    /// Layered pass: every campaign generated, run under the oracles and
    /// replayed bare, serially, one span each.
    fn layered_pass(&self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::new();
        for index in 0..self.config.campaigns {
            tracer.set_cell(index as u32);
            let cell = tracer.begin("cell");
            let mut clock = PhaseClock::default();

            let spec = clock.setup(|| {
                let span = tracer.begin("chaos.generate");
                let spec = self.generate(index);
                tracer.end(span);
                spec
            });
            let outcome = clock.run(|| {
                let span = tracer.begin("chaos.run_scenario");
                let outcome = run_scenario(&spec, &self.config.engine)
                    .expect("the default campaign fabric builds");
                tracer.end_counted(span, outcome.stats.sim_events);
                outcome
            });
            // Counts the emulator's counters too, `emu.events_total` among
            // them: the bare replay has a network to read them from.
            let bare_events = clock.run(|| bare_replay(&spec, tracer, &mut pass));
            tracer.end(cell);
            pass.units.push(clock);
            count_outcome(&outcome, &mut pass);

            pass.attempted += 1;
            // The replay re-implements what `run_chaos` hands each cell,
            // and the bare replay `run_scenario`'s set-up: either has
            // drifted if it no longer simulates the same events.
            let drifted = self
                .reference
                .as_ref()
                .and_then(|reference| reference.results.get(index))
                .is_some_and(|r| r.spec != spec || r.outcome != outcome);
            if drifted || bare_events != outcome.stats.sim_events {
                pass.failed += 1;
            }
        }
        pass
    }
}

/// Folds one campaign's oracle statistics into the pass.
fn count_outcome(outcome: &ScenarioOutcome, pass: &mut Pass) {
    let stats = &outcome.stats;
    let c = &mut pass.counters;
    bump(c, "chaos.epochs", stats.epochs_checked);
    bump(c, "chaos.windows", stats.broken_windows);
    bump(c, "chaos.loops", stats.loop_epochs);
    bump(c, "chaos.violations", outcome.violations.len() as u64);
    bump(c, "transport.retransmits", stats.retransmits);
    digest(&mut pass.digest, stats.sim_events);
    digest(&mut pass.digest, stats.max_window.as_nanos());
}

/// The schedule of `spec` through a bare testbed: the workload
/// `run_scenario` installs (three conservation transfers around the first
/// failure) and its horizon, but `run_until` in place of the stepped,
/// oracle-checked loop. Returns the events simulated.
fn bare_replay(spec: &ScenarioSpec, tracer: &mut Tracer, pass: &mut Pass) -> u64 {
    let replay = tracer.begin("chaos.bare_replay");

    let span = tracer.begin("core.testbed_build");
    let mut bed = TestBed::build_with_config(
        spec.design,
        spec.k,
        spec.hosts_per_tor,
        EmuConfig::default(),
    )
    .expect("the default campaign fabric builds");
    tracer.end(span);

    let span = tracer.begin("emu.flow_install");
    let schedule = spec.schedule();
    let first_fail = schedule
        .clone()
        .into_sorted()
        .first()
        .map_or(SimTime::ZERO, |e| e.at);
    let pre = first_fail.since(SimTime::ZERO).min(timers::DETECTION_DELAY);
    let starts = [
        first_fail - pre,
        first_fail,
        first_fail + timers::DETECTION_DELAY,
    ];
    for (&(src, dst), start) in monitor_endpoints(&bed.net).iter().zip(starts) {
        bed.net.add_transfer(src, dst, TRANSFER_BYTES, start);
    }
    let drain = timers::DETECTION_DELAY
        + timers::SPF_MAX_HOLD
        + timers::SPF_INITIAL_DELAY
        + timers::FIB_UPDATE_DELAY;
    let horizon = spec.last_event_time().max(first_fail) + drain;
    bed.net.apply_failures(schedule);
    tracer.end(span);

    let span = tracer.begin("emu.run.all");
    bed.net.run_until(horizon);
    let events = bed.net.events_processed();
    tracer.end_counted(span, events);
    tracer.end(replay);

    pass.count_network(&bed.net);
    events
}

impl Workload for Chaos {
    fn warm_up(&mut self) {
        self.reference = Some(self.run_product(1));
    }

    fn pass(&self, tracer: &mut Tracer, layered: bool) -> Pass {
        if layered {
            self.layered_pass(tracer)
        } else {
            self.product_pass()
        }
    }

    fn fabric(&self) -> (u32, u32) {
        (self.config.campaign.k, self.config.campaign.hosts_per_tor)
    }

    fn probes(&self, values: &mut Values) {
        // Same plan on one worker and on two: the pool's parallel
        // efficiency, wall(1) / (2 × wall(2)).
        let wall = |workers| {
            let started = Instant::now();
            std::hint::black_box(self.run_product(workers));
            started.elapsed().as_secs_f64()
        };
        let (one, two) = (wall(1), wall(WORKERS));
        values.insert("sweep.efficiency_w2", one / (WORKERS as f64 * two));
        kernels::sweep_dispatch(values);
    }
}
