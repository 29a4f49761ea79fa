//! `pa_k8`: Fig. 6 at half paper scale in the 5-concurrent-failure
//! regime, on both designs — partition-aggregate requests and log-normal
//! background transfers under random link failures.
//!
//! The cell body is `f2tree_experiments::workload::run_workload`,
//! re-implemented so that a span can be placed around each layer call;
//! the warm-up runs `run_workload` itself and the benchmark's body must
//! reproduce its numbers.
//!
//! What `--seed` draws is the *placement*, not the amount of work. The
//! product's generators are heavy-tailed (log-normal flow sizes, failure
//! inter-arrivals with sigma 1.8): between two seeds the SPF runs of a
//! pass differ 4x and its wall time 2x, which would bury any regression
//! bound. So arrival times, flow sizes and failure timing always come
//! from the product's default workload seed, and the benchmark's seed
//! picks which hosts talk and which links fail: a permutation of the
//! hosts and, within each layer pair, of the fabric links. Every seed
//! then does the same amount of work on different paths.

use std::collections::BTreeMap;

use dcn_failure::{generate_random_failures, FailureEvent, FailureSchedule, RandomFailureConfig};
use dcn_metrics::DurationSummary;
use dcn_net::{LinkId, NodeId, Topology};
use dcn_sim::{SimDuration, SimRng, SimTime};
use dcn_transport::{
    generate_background, generate_requests, BackgroundConfig, PartitionAggregateConfig,
};
use f2tree::{Design, TestBed};
use f2tree_experiments::workload::{run_workload, WorkloadConfig, WorkloadResult};

use super::{bump, digest, Pass, PhaseClock, Scale, Workload};
use crate::span::Tracer;

const DESIGNS: [Design; 2] = [Design::FatTree, Design::F2Tree];

/// The numbers the drift guard compares.
#[derive(Clone, Debug, PartialEq)]
struct RunNumbers {
    requests: u64,
    unfinished: u64,
    failures_injected: usize,
    deadline_miss_ratio: f64,
    unfinished_transfers: u64,
    background_fct: Option<DurationSummary>,
}

impl RunNumbers {
    fn of_product(result: &WorkloadResult) -> Self {
        RunNumbers {
            requests: result.requests,
            unfinished: result.unfinished,
            failures_injected: result.failures_injected,
            deadline_miss_ratio: result.deadline_miss_ratio,
            unfinished_transfers: result.unfinished_transfers,
            background_fct: result.background_fct,
        }
    }
}

/// Which hosts and links the generated workload lands on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Placement {
    /// As generated: what `run_workload` does (the drift guard's side).
    AsGenerated,
    /// Hosts and links permuted by this seed.
    Permuted(u64),
}

/// Fisher–Yates over `items`.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_index(i + 1));
    }
}

/// A permutation of `0..hosts`.
fn host_permutation(hosts: usize, placement: Placement) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..hosts).collect();
    if let Placement::Permuted(seed) = placement {
        shuffle(&mut perm, &mut SimRng::new(seed).fork(4));
    }
    perm
}

/// A permutation of `links` that only exchanges links joining the same
/// pair of layers (ToR–agg, agg–core, agg–agg and core–core across
/// links), so a remapped failure costs the control plane what the
/// original would have.
fn link_permutation(
    topo: &Topology,
    links: &[LinkId],
    placement: Placement,
) -> BTreeMap<LinkId, LinkId> {
    let Placement::Permuted(seed) = placement else {
        return links.iter().map(|&l| (l, l)).collect();
    };
    let mut groups: BTreeMap<(u8, u8), Vec<LinkId>> = BTreeMap::new();
    for &link in links {
        let (a, b) = topo.link(link).endpoints();
        let (ra, rb) = (topo.node(a).kind().rank(), topo.node(b).kind().rank());
        groups
            .entry((ra.min(rb), ra.max(rb)))
            .or_default()
            .push(link);
    }
    let mut rng = SimRng::new(seed).fork(5);
    let mut perm = BTreeMap::new();
    for members in groups.into_values() {
        let mut targets = members.clone();
        shuffle(&mut targets, &mut rng);
        perm.extend(members.into_iter().zip(targets));
    }
    perm
}

/// The partition-aggregate workload.
#[derive(Debug)]
pub struct PartAgg {
    config: WorkloadConfig,
    placement: Placement,
    /// The benchmark's body disagreed with `run_workload` in the warm-up.
    drifted: bool,
}

impl PartAgg {
    /// Half of Fig. 6's scale (300 s, 1500 requests, 750 transfers), or a
    /// tenth of that for the smoke run; `seed` draws the placement.
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (duration_s, requests, background_flows) = match scale {
            Scale::Full => (300, 1500, 750),
            Scale::Smoke => (30, 150, 75),
        };
        PartAgg {
            config: WorkloadConfig {
                duration_s,
                requests,
                background_flows,
                concurrent_failures: 5,
                ..WorkloadConfig::default()
            },
            placement: Placement::Permuted(seed),
            drifted: false,
        }
    }

    fn run_design(
        &self,
        design: Design,
        placement: Placement,
        tracer: &mut Tracer,
        clock: &mut PhaseClock,
        pass: &mut Pass,
    ) -> RunNumbers {
        let config = &self.config;
        let mut bed = clock.setup(|| {
            let span = tracer.begin("core.testbed_build");
            let bed = TestBed::build(design, config.k, config.hosts_per_tor)
                .expect("the workload's fabric size builds");
            tracer.end(span);
            bed
        });

        clock.run(|| {
            let hosts: Vec<NodeId> = {
                let all = bed.topology().hosts();
                host_permutation(all.len(), placement)
                    .into_iter()
                    .map(|i| all[i])
                    .collect()
            };
            let duration = SimDuration::from_secs(config.duration_s);
            let deadline = SimDuration::from_millis(config.deadline_ms);
            // The same three substreams `run_workload` forks, from the
            // product's default workload seed.
            let master = SimRng::new(config.seed);

            let span = tracer.begin("transport.workload_gen");
            let pa_config = PartitionAggregateConfig {
                requests: config.requests,
                deadline,
                duration,
                ..PartitionAggregateConfig::default()
            };
            let requests = generate_requests(&mut master.fork(1), hosts.len(), &pa_config);
            let bg_config = BackgroundConfig {
                flows: config.background_flows,
                ..BackgroundConfig::default()
            };
            let background = generate_background(&mut master.fork(2), hosts.len(), &bg_config);
            tracer.end(span);

            let span = tracer.begin("failure.schedule_gen");
            let regime = RandomFailureConfig::five_concurrent().scaled_to(duration);
            let fabric = bed.fabric_links();
            let generated = generate_random_failures(&mut master.fork(3), &fabric, &regime);
            let failures_injected = generated.failure_count();
            let remap = link_permutation(bed.topology(), &fabric, placement);
            let schedule: FailureSchedule = generated
                .into_sorted()
                .into_iter()
                .map(|e| FailureEvent {
                    link: remap[&e.link],
                    ..e
                })
                .collect();
            tracer.end(span);

            let span = tracer.begin("emu.flow_install");
            let mut flows = 0u64;
            for request in &requests {
                let workers: Vec<NodeId> = request.workers.iter().map(|&w| hosts[w]).collect();
                flows += workers.len() as u64;
                bed.net.add_request(
                    request.start,
                    hosts[request.requester],
                    &workers,
                    pa_config.request_bytes,
                    pa_config.response_bytes,
                );
            }
            let transfers: Vec<_> = background
                .iter()
                .map(|f| {
                    bed.net
                        .add_transfer(hosts[f.src], hosts[f.dst], f.bytes, f.start)
                })
                .collect();
            flows += transfers.len() as u64;
            bed.net.apply_failures(schedule);
            tracer.end(span);

            let span = tracer.begin("emu.run.all");
            bed.net
                .run_until(SimTime::ZERO + duration + SimDuration::from_secs(config.drain_s));
            tracer.end_counted(span, bed.net.events_processed());

            let span = tracer.begin("metrics.completion_extract");
            let stats = bed.net.request_completions();
            let deadline_miss_ratio = stats.deadline_miss_ratio(deadline);
            let tail: Vec<f64> = [100u64, 200, 250, 600, 1000, 5000]
                .iter()
                .map(|&t| stats.fraction_longer_than(SimDuration::from_millis(t)))
                .collect();
            let cdf_points = stats
                .cdf()
                .into_iter()
                .filter(|&(d, _)| d > SimDuration::from_millis(100))
                .count();
            let background_fct = DurationSummary::of(&bed.net.transfer_fcts());
            let unfinished_transfers = bed.net.unfinished_transfers();
            tracer.end(span);
            std::hint::black_box(&tail);
            digest(&mut pass.digest, cdf_points as u64);

            let retransmits: u64 = transfers
                .iter()
                .filter_map(|&flow| bed.net.tcp_flow_stats(flow))
                .map(|s| s.retransmits)
                .sum();
            pass.count_network(&bed.net);
            let c = &mut pass.counters;
            bump(c, "transport.flows", flows);
            bump(c, "transport.retransmits", retransmits);
            bump(c, "transport.unfinished_transfers", unfinished_transfers);
            bump(c, "failure.events", failures_injected as u64);

            RunNumbers {
                requests: stats.total(),
                unfinished: stats.unfinished(),
                failures_injected,
                deadline_miss_ratio,
                unfinished_transfers,
                background_fct,
            }
        })
    }
}

impl Workload for PartAgg {
    fn warm_up(&mut self) {
        // One design is enough to catch drift: both run the same body.
        let design = Design::F2Tree;
        let product = RunNumbers::of_product(&run_workload(design, &self.config));
        let mut scratch = Pass::default();
        let own = self.run_design(
            design,
            Placement::AsGenerated,
            &mut Tracer::new(false),
            &mut PhaseClock::default(),
            &mut scratch,
        );
        self.drifted = own != product;
    }

    fn pass(&self, tracer: &mut Tracer, _layered: bool) -> Pass {
        let mut pass = Pass::new();
        for (index, &design) in DESIGNS.iter().enumerate() {
            tracer.set_cell(index as u32);
            let span = tracer.begin("cell");
            let mut clock = PhaseClock::default();
            let numbers = self.run_design(design, self.placement, tracer, &mut clock, &mut pass);
            tracer.end(span);
            pass.units.push(clock);

            // Operations are requests; one left unfinished after the
            // drain has failed. If the body has drifted from the
            // product's, every request has.
            pass.attempted += numbers.requests;
            pass.failed += if self.drifted {
                numbers.requests
            } else {
                numbers.unfinished
            };
            digest(&mut pass.digest, numbers.requests);
            digest(&mut pass.digest, numbers.unfinished);
            digest(&mut pass.digest, numbers.deadline_miss_ratio.to_bits());
            digest(&mut pass.digest, numbers.unfinished_transfers);
        }
        pass
    }

    fn fabric(&self) -> (u32, u32) {
        (self.config.k, self.config.hosts_per_tor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::Layer;

    #[test]
    fn host_permutation_is_a_bijection_and_seeded() {
        let a = host_permutation(128, Placement::Permuted(7));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..128).collect::<Vec<_>>());
        assert_eq!(a, host_permutation(128, Placement::Permuted(7)));
        assert_ne!(a, host_permutation(128, Placement::Permuted(8)));
        assert_eq!(
            host_permutation(4, Placement::AsGenerated),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn link_permutation_stays_within_each_layer_pair() {
        let bed = TestBed::build(Design::F2Tree, 8, 4).expect("k = 8 builds");
        let topo = bed.topology();
        let fabric = bed.fabric_links();
        let layers = |link: LinkId| {
            let (a, b) = topo.link(link).endpoints();
            let mut pair = [topo.node(a).layer(), topo.node(b).layer()];
            pair.sort_by_key(|l| l.map(Layer::rank));
            pair
        };
        let perm = link_permutation(topo, &fabric, Placement::Permuted(7));
        assert_eq!(perm.len(), fabric.len());
        let mut targets: Vec<LinkId> = perm.values().copied().collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), fabric.len(), "a bijection");
        assert!(perm.iter().all(|(&from, &to)| layers(from) == layers(to)));
        assert!(perm.iter().any(|(from, to)| from != to), "not the identity");

        let identity = link_permutation(topo, &fabric, Placement::AsGenerated);
        assert!(identity.iter().all(|(from, to)| from == to));
    }
}
