//! Fig. 6: partition-aggregate workload under random failures.
//!
//! The paper's §IV-B setup: an 8-port DCN carrying >3000
//! partition-aggregate requests (8-way fanout, 2 KB responses, 250 ms
//! deadline) and 1500 log-normal background flows over 600 s, while links
//! fail randomly (log-normal inter-arrival and duration; 1- or
//! 5-concurrent regimes). Reported: the deadline-miss ratio (Fig. 6(a))
//! and the completion-time CDF above 100 ms (Fig. 6(b)).

use dcn_failure::{generate_random_failures, RandomFailureConfig};
use dcn_metrics::DurationSummary;
use dcn_net::NodeId;
use dcn_sim::{SimDuration, SimRng, SimTime};
use dcn_sweep::{ExperimentSpec, Workers};
use dcn_transport::{
    generate_background, generate_requests, BackgroundConfig, PartitionAggregateConfig,
};
use f2tree::{Design, TestBed};

/// Parameters of the workload experiment (defaults match the paper).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Switch port count (paper: 8).
    pub k: u32,
    /// Hosts per ToR.
    pub hosts_per_tor: u32,
    /// Experiment duration in seconds (paper: 600).
    pub duration_s: u64,
    /// Partition-aggregate requests (paper: > 3000).
    pub requests: u32,
    /// Background flows (paper: 1500).
    pub background_flows: u32,
    /// Concurrent-failure regime (paper: 1 and 5).
    pub concurrent_failures: usize,
    /// Completion deadline in ms (paper: 250, per \[23\]).
    pub deadline_ms: u64,
    /// Drain time after the horizon before unfinished requests are
    /// declared.
    pub drain_s: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            k: 8,
            hosts_per_tor: 4,
            duration_s: 600,
            requests: 3000,
            background_flows: 1500,
            concurrent_failures: 1,
            deadline_ms: 250,
            drain_s: 15,
            seed: 20150701,
        }
    }
}

impl WorkloadConfig {
    /// A 10× shorter variant with proportional workload and failure
    /// density, for tests and quick runs.
    pub fn quick() -> Self {
        WorkloadConfig {
            duration_s: 60,
            requests: 300,
            background_flows: 150,
            ..WorkloadConfig::default()
        }
    }

    /// The same configuration in the other concurrency regime.
    pub fn with_concurrency(mut self, concurrent: usize) -> Self {
        self.concurrent_failures = concurrent;
        self
    }
}

/// The outcome of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Which design.
    pub design: Design,
    /// Concurrency regime.
    pub concurrent_failures: usize,
    /// Requests issued.
    pub requests: u64,
    /// Requests that never completed.
    pub unfinished: u64,
    /// Link failures injected.
    pub failures_injected: usize,
    /// Fig. 6(a): fraction of requests missing the deadline.
    pub deadline_miss_ratio: f64,
    /// Fraction of requests exceeding each threshold (ms), for the
    /// Fig. 6(b) tail: 100, 200, 250, 600, 1000, 5000.
    pub fraction_over_ms: Vec<(u64, f64)>,
    /// Fig. 6(b): completion-time CDF points above 100 ms, as
    /// `(completion_ms, cumulative_fraction)`.
    pub cdf_over_100ms: Vec<(f64, f64)>,
    /// Flow-completion-time digest of the background transfers.
    pub background_fct: Option<DurationSummary>,
    /// Background transfers that never completed within the horizon.
    pub unfinished_transfers: u64,
}

/// Runs the workload experiment for one design and regime.
pub fn run_workload(design: Design, config: &WorkloadConfig) -> WorkloadResult {
    #[expect(
        clippy::expect_used,
        reason = "WorkloadConfig scales (k=8 class) are valid and addressable; \
                  a bad hand-written config should fail loudly"
    )]
    let mut bed =
        TestBed::build(design, config.k, config.hosts_per_tor).expect("workload testbed builds");
    let hosts: Vec<NodeId> = bed.topology().hosts().to_vec();
    let duration = SimDuration::from_secs(config.duration_s);

    let master = SimRng::new(config.seed);

    // Partition-aggregate requests.
    let pa_config = PartitionAggregateConfig {
        requests: config.requests,
        deadline: SimDuration::from_millis(config.deadline_ms),
        duration,
        ..PartitionAggregateConfig::default()
    };
    let mut req_rng = master.fork(1);
    for request in generate_requests(&mut req_rng, hosts.len(), &pa_config) {
        let workers: Vec<NodeId> = request.workers.iter().map(|&w| hosts[w]).collect();
        bed.net.add_request(
            request.start,
            hosts[request.requester],
            &workers,
            pa_config.request_bytes,
            pa_config.response_bytes,
        );
    }

    // Background traffic.
    let bg_config = BackgroundConfig {
        flows: config.background_flows,
        ..BackgroundConfig::default()
    };
    let mut bg_rng = master.fork(2);
    for flow in generate_background(&mut bg_rng, hosts.len(), &bg_config) {
        bed.net
            .add_transfer(hosts[flow.src], hosts[flow.dst], flow.bytes, flow.start);
    }

    // Random failures over fabric links.
    let regime = match config.concurrent_failures {
        1 => RandomFailureConfig::one_concurrent(),
        5 => RandomFailureConfig::five_concurrent(),
        n => RandomFailureConfig {
            max_concurrent: n,
            ..RandomFailureConfig::five_concurrent()
        },
    }
    .scaled_to(duration);
    let mut fail_rng = master.fork(3);
    let schedule = generate_random_failures(&mut fail_rng, &bed.fabric_links(), &regime);
    let failures_injected = schedule.failure_count();
    bed.net.apply_failures(schedule);

    bed.net
        .run_until(SimTime::ZERO + duration + SimDuration::from_secs(config.drain_s));

    let stats = bed.net.request_completions();
    let deadline = SimDuration::from_millis(config.deadline_ms);
    let thresholds = [100u64, 200, 250, 600, 1000, 5000];
    WorkloadResult {
        design,
        concurrent_failures: config.concurrent_failures,
        requests: stats.total(),
        unfinished: stats.unfinished(),
        failures_injected,
        deadline_miss_ratio: stats.deadline_miss_ratio(deadline),
        fraction_over_ms: thresholds
            .iter()
            .map(|&t| (t, stats.fraction_longer_than(SimDuration::from_millis(t))))
            .collect(),
        cdf_over_100ms: stats
            .cdf()
            .into_iter()
            .filter(|&(d, _)| d > SimDuration::from_millis(100))
            .map(|(d, f)| (d.as_nanos() as f64 / 1e6, f))
            .collect(),
        background_fct: DurationSummary::of(&bed.net.transfer_fcts()),
        unfinished_transfers: bed.net.unfinished_transfers(),
    }
}

/// Fig. 6's cells, in table order: both designs under one, then five,
/// concurrent failures.
const FIG6_CELLS: [(Design, usize); 4] = [
    (Design::FatTree, 1),
    (Design::F2Tree, 1),
    (Design::FatTree, 5),
    (Design::F2Tree, 5),
];

/// The seeds `repro fig6seeds` folds over, in fold order. The first is
/// [`WorkloadConfig`]'s default, the one Fig. 6 shows.
pub const FIG6_SEEDS: [u64; 5] = [20150701, 42, 7, 1234, 99];

/// Fig. 6's sweep: its four (design, regime) cells under each seed, every
/// run once. Fig. 6 and the multi-seed statistics are views of it.
#[derive(Clone, Debug)]
pub struct Fig6Sweep {
    /// Seed-major: the four cells in table order under the first seed,
    /// then under the second, and so on.
    pub results: Vec<WorkloadResult>,
}

impl Fig6Sweep {
    /// Runs each cell under each of `seeds` (`config` with that regime
    /// and seed) on the sweep engine; output order and every result in
    /// it are identical for every `workers` value.
    pub fn run(config: &WorkloadConfig, seeds: &[u64], workers: Workers) -> Fig6Sweep {
        let cells = seeds
            .iter()
            .flat_map(|&seed| FIG6_CELLS.map(|(design, concurrent)| (design, concurrent, seed)));
        let results = ExperimentSpec::new("fig6")
            .cells(cells)
            .workers(workers)
            .build()
            .run(|ctx| {
                let (design, concurrent, seed) = *ctx.cell();
                let cfg = config.clone().with_concurrency(concurrent);
                run_workload(design, &WorkloadConfig { seed, ..cfg })
            });
        Fig6Sweep { results }
    }

    /// Fig. 6: the first seed's cells, in table order.
    pub fn fig6(&self) -> &[WorkloadResult] {
        self.results.get(..FIG6_CELLS.len()).unwrap_or_default()
    }

    /// Each cell's deadline-miss ratio summarized over the seeds — the
    /// honest way to report a random-failure experiment.
    pub fn statistics(&self) -> Vec<Fig6Statistics> {
        let cells = FIG6_CELLS.into_iter().enumerate();
        cells
            .map(|(i, (design, concurrent_failures))| {
                let ratios = self.results.iter().skip(i).step_by(FIG6_CELLS.len());
                let ratios: Vec<f64> = ratios.map(|r| r.deadline_miss_ratio).collect();
                Fig6Statistics {
                    design,
                    concurrent_failures,
                    seeds: ratios.len(),
                    mean_miss_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
                    min_miss_ratio: ratios.iter().copied().fold(f64::INFINITY, f64::min),
                    max_miss_ratio: ratios.iter().copied().fold(0.0, f64::max),
                }
            })
            .collect()
    }
}

/// Multi-seed statistics for one (design, regime) cell.
#[derive(Clone, Debug)]
pub struct Fig6Statistics {
    /// Which design.
    pub design: Design,
    /// Concurrency regime.
    pub concurrent_failures: usize,
    /// Seeds averaged over.
    pub seeds: usize,
    /// Mean deadline-miss ratio.
    pub mean_miss_ratio: f64,
    /// Minimum across seeds.
    pub min_miss_ratio: f64,
    /// Maximum across seeds.
    pub max_miss_ratio: f64,
}

/// Renders the multi-seed statistics table.
pub fn format_fig6_stats(stats: &[Fig6Statistics]) -> String {
    let mut out = String::from(
        "Fig. 6(a) over seeds: deadline-miss ratio (mean [min, max])\n\
         design    | CF | seeds | mean    | min     | max\n\
         ----------+----+-------+---------+---------+--------\n",
    );
    for s in stats {
        out.push_str(&format!(
            "{:<9} | {:>2} | {:>5} | {:>6.3}% | {:>6.3}% | {:>6.3}%\n",
            s.design.to_string(),
            s.concurrent_failures,
            s.seeds,
            s.mean_miss_ratio * 100.0,
            s.min_miss_ratio * 100.0,
            s.max_miss_ratio * 100.0,
        ));
    }
    out
}

/// Renders the Fig. 6(a) comparison as text.
pub fn format_fig6(results: &[WorkloadResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 6(a): partition-aggregate deadline misses (250ms deadline)\n\
         design    | CF | requests | failures | miss ratio | >200ms | >1s\n\
         ----------+----+----------+----------+------------+--------+------\n",
    );
    for r in results {
        let over = |t: u64| {
            r.fraction_over_ms
                .iter()
                .find(|&&(th, _)| th == t)
                .map_or(0.0, |&(_, f)| f)
        };
        out.push_str(&format!(
            "{:<9} | {:>2} | {:>8} | {:>8} | {:>9.3}% | {:>5.2}% | {:>4.2}%\n",
            r.design.to_string(),
            r.concurrent_failures,
            r.requests,
            r.failures_injected,
            r.deadline_miss_ratio * 100.0,
            over(200) * 100.0,
            over(1000) * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shows_the_default_seed() {
        assert_eq!(FIG6_SEEDS.first(), Some(&WorkloadConfig::default().seed));
        assert_eq!(WorkloadConfig::quick().seed, WorkloadConfig::default().seed);
    }

    #[test]
    fn quick_one_concurrent_regime_shows_the_papers_gap() {
        let cfg = WorkloadConfig::quick();
        let fat = run_workload(Design::FatTree, &cfg);
        let f2 = run_workload(Design::F2Tree, &cfg);
        assert_eq!(fat.requests, 300);
        assert_eq!(f2.requests, 300);
        assert!(fat.failures_injected > 10);
        // F2Tree strictly improves (the paper: 0.4% -> 0%).
        assert!(
            f2.deadline_miss_ratio <= fat.deadline_miss_ratio,
            "f2 {} vs fat {}",
            f2.deadline_miss_ratio,
            fat.deadline_miss_ratio
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WorkloadConfig {
            duration_s: 20,
            requests: 100,
            background_flows: 50,
            ..WorkloadConfig::default()
        };
        let a = run_workload(Design::F2Tree, &cfg);
        let b = run_workload(Design::F2Tree, &cfg);
        assert_eq!(a.deadline_miss_ratio, b.deadline_miss_ratio);
        assert_eq!(a.cdf_over_100ms, b.cdf_over_100ms);
        assert_eq!(a.failures_injected, b.failures_injected);
    }

    #[test]
    fn healthy_network_misses_nothing() {
        // No failures: every request completes far under the deadline.
        let cfg = WorkloadConfig {
            duration_s: 20,
            requests: 100,
            background_flows: 20,
            ..WorkloadConfig::default()
        };
        let mut bed = TestBed::build(Design::F2Tree, cfg.k, cfg.hosts_per_tor).expect("valid k");
        let hosts: Vec<NodeId> = bed.topology().hosts().to_vec();
        let pa = PartitionAggregateConfig {
            requests: cfg.requests,
            duration: SimDuration::from_secs(cfg.duration_s),
            ..PartitionAggregateConfig::default()
        };
        let mut rng = SimRng::new(1).fork(1);
        for request in generate_requests(&mut rng, hosts.len(), &pa) {
            let workers: Vec<NodeId> = request.workers.iter().map(|&w| hosts[w]).collect();
            bed.net.add_request(
                request.start,
                hosts[request.requester],
                &workers,
                pa.request_bytes,
                pa.response_bytes,
            );
        }
        bed.net
            .run_until(SimTime::ZERO + SimDuration::from_secs(cfg.duration_s + 5));
        let stats = bed.net.request_completions();
        assert_eq!(stats.unfinished(), 0);
        assert_eq!(
            stats.deadline_miss_ratio(SimDuration::from_millis(250)),
            0.0
        );
    }
}
