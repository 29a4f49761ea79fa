//! Workload generators (paper §IV-B).
//!
//! * **Partition-aggregate**: a randomly chosen front-end host sends a
//!   small TCP request to each of 8 other hosts and waits for a 2 KB
//!   response from each; the request completes when all 8 responses have
//!   arrived, with a 250 ms deadline ([23]).
//! * **Background traffic**: flow sizes and inter-arrival intervals follow
//!   log-normal distributions derived from production DCN measurements
//!   ([25]).
//!
//! Generators work over abstract host indices `0..hosts`; the emulator
//! maps indices to topology nodes. All randomness comes from a forked
//! [`SimRng`] stream, so workloads are reproducible and independent of
//! other simulation draws.

use dcn_sim::{LogNormal, SimDuration, SimRng, SimTime};

/// One partition-aggregate request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request id (dense, starting at 0).
    pub id: u32,
    /// Start instant.
    pub start: SimTime,
    /// The requesting (front-end) host index.
    pub requester: usize,
    /// The worker host indices (distinct, never the requester).
    pub workers: Vec<usize>,
}

/// Partition-aggregate workload parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionAggregateConfig {
    /// Number of requests to generate (paper: > 3000 over 600 s).
    pub requests: u32,
    /// Workers contacted per request (paper: 8).
    pub fanout: usize,
    /// Request payload bytes ("a small TCP single request").
    pub request_bytes: u64,
    /// Response payload bytes (paper: 2 KB).
    pub response_bytes: u64,
    /// Completion deadline (paper: 250 ms per [23]).
    pub deadline: SimDuration,
    /// Experiment horizon over which requests arrive.
    pub duration: SimDuration,
}

impl Default for PartitionAggregateConfig {
    fn default() -> Self {
        PartitionAggregateConfig {
            requests: 3000,
            fanout: 8,
            request_bytes: 100,
            response_bytes: 2048,
            deadline: SimDuration::from_millis(250),
            duration: SimDuration::from_secs(600),
        }
    }
}

/// Generates the request schedule.
///
/// Arrivals are Poisson over the horizon (rate = requests/duration);
/// requester and workers are uniform over hosts.
///
/// # Panics
///
/// Panics if `hosts <= fanout` (a request needs `fanout` distinct workers
/// besides the requester).
pub fn generate_requests(
    rng: &mut SimRng,
    hosts: usize,
    config: &PartitionAggregateConfig,
) -> Vec<Request> {
    assert!(
        hosts > config.fanout,
        "need more than {} hosts, got {hosts}",
        config.fanout
    );
    let rate = config.requests as f64 / config.duration.as_secs_f64();
    let mut now = SimTime::ZERO;
    let mut requests = Vec::with_capacity(config.requests as usize);
    for id in 0..config.requests {
        now += SimDuration::from_secs_f64(rng.gen_exponential(rate));
        let requester = rng.gen_index(hosts);
        let mut workers = Vec::with_capacity(config.fanout);
        while workers.len() < config.fanout {
            let w = rng.gen_index(hosts);
            if w != requester && !workers.contains(&w) {
                workers.push(w);
            }
        }
        requests.push(Request {
            id,
            start: now,
            requester,
            workers,
        });
    }
    requests
}

/// One background flow.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BackgroundFlow {
    /// Flow id (dense, starting at 0).
    pub id: u32,
    /// Start instant.
    pub start: SimTime,
    /// Source host index.
    pub src: usize,
    /// Destination host index (never equal to `src`).
    pub dst: usize,
    /// Flow size in bytes.
    pub bytes: u64,
}

/// Background traffic parameters (log-normal, per [25]).
#[derive(Clone, Debug, PartialEq)]
pub struct BackgroundConfig {
    /// Number of flows (paper: 1500 over 600 s).
    pub flows: u32,
    /// Flow-size distribution. Default: mean 100 kB, σ = 1.5 — a heavy
    /// tail consistent with the IMC 2010 measurements the paper cites.
    pub size: LogNormal,
    /// Inter-arrival distribution in seconds. Default: mean 0.4 s
    /// (1500 flows / 600 s), σ = 1.0.
    pub interarrival: LogNormal,
    /// Minimum flow size in bytes (truncates the log-normal's tiny tail).
    pub min_bytes: u64,
    /// Maximum flow size in bytes (keeps single flows from dominating an
    /// emulation run; production traces are similarly capped).
    pub max_bytes: u64,
}

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            flows: 1500,
            size: LogNormal::from_mean_sigma(100_000.0, 1.5),
            interarrival: LogNormal::from_mean_sigma(0.4, 1.0),
            min_bytes: 1_000,
            max_bytes: 10_000_000,
        }
    }
}

/// Generates the background flow schedule.
///
/// # Panics
///
/// Panics if `hosts < 2`.
pub fn generate_background(
    rng: &mut SimRng,
    hosts: usize,
    config: &BackgroundConfig,
) -> Vec<BackgroundFlow> {
    assert!(hosts >= 2, "background traffic needs at least 2 hosts");
    let mut now = SimTime::ZERO;
    let mut flows = Vec::with_capacity(config.flows as usize);
    for id in 0..config.flows {
        now += SimDuration::from_secs_f64(rng.gen_lognormal(config.interarrival));
        let src = rng.gen_index(hosts);
        let dst = loop {
            let d = rng.gen_index(hosts);
            if d != src {
                break d;
            }
        };
        let bytes =
            (rng.gen_lognormal(config.size) as u64).clamp(config.min_bytes, config.max_bytes);
        flows.push(BackgroundFlow {
            id,
            start: now,
            src,
            dst,
            bytes,
        });
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_pick_distinct_workers() {
        let mut rng = SimRng::new(1);
        let cfg = PartitionAggregateConfig {
            requests: 200,
            ..PartitionAggregateConfig::default()
        };
        let reqs = generate_requests(&mut rng, 72, &cfg);
        assert_eq!(reqs.len(), 200);
        for r in &reqs {
            assert_eq!(r.workers.len(), 8);
            let mut sorted = r.workers.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "workers distinct");
            assert!(!r.workers.contains(&r.requester));
            assert!(r.workers.iter().all(|&w| w < 72));
        }
    }

    #[test]
    fn request_arrivals_are_monotonic_and_cover_the_horizon() {
        let mut rng = SimRng::new(2);
        let cfg = PartitionAggregateConfig {
            requests: 3000,
            ..PartitionAggregateConfig::default()
        };
        let reqs = generate_requests(&mut rng, 128, &cfg);
        for pair in reqs.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        let last = reqs.last().unwrap().start.as_secs_f64();
        // Poisson with rate 5/s over 600s: the 3000th arrival lands near
        // 600s (+/- a few percent).
        assert!((500.0..700.0).contains(&last), "last arrival at {last}s");
    }

    #[test]
    fn request_generation_is_deterministic_per_seed() {
        let cfg = PartitionAggregateConfig::default();
        let a = generate_requests(&mut SimRng::new(3), 72, &cfg);
        let b = generate_requests(&mut SimRng::new(3), 72, &cfg);
        assert_eq!(a, b);
        let c = generate_requests(&mut SimRng::new(4), 72, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "need more than 8 hosts")]
    fn too_few_hosts_panics() {
        generate_requests(&mut SimRng::new(1), 8, &PartitionAggregateConfig::default());
    }

    #[test]
    fn background_flows_respect_bounds() {
        let mut rng = SimRng::new(5);
        let cfg = BackgroundConfig::default();
        let flows = generate_background(&mut rng, 72, &cfg);
        assert_eq!(flows.len(), 1500);
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(f.bytes >= cfg.min_bytes && f.bytes <= cfg.max_bytes);
        }
    }

    #[test]
    fn background_sizes_are_heavy_tailed() {
        let mut rng = SimRng::new(6);
        let flows = generate_background(&mut rng, 72, &BackgroundConfig::default());
        let mut sizes: Vec<u64> = flows.iter().map(|f| f.bytes).collect();
        sizes.sort();
        let median = sizes[sizes.len() / 2];
        let p99 = sizes[sizes.len() * 99 / 100];
        // Log-normal with sigma=1.5: p99 should dwarf the median.
        assert!(
            p99 > 10 * median,
            "expected heavy tail, median {median}, p99 {p99}"
        );
    }

    #[test]
    fn background_interarrivals_average_to_configured_mean() {
        let mut rng = SimRng::new(7);
        let cfg = BackgroundConfig {
            flows: 5000,
            ..BackgroundConfig::default()
        };
        let flows = generate_background(&mut rng, 72, &cfg);
        let total = flows.last().unwrap().start.as_secs_f64();
        let mean = total / flows.len() as f64;
        assert!((mean - 0.4).abs() < 0.1, "mean inter-arrival {mean}");
    }
}
