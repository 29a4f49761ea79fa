//! Random failure processes (paper §IV-B).
//!
//! "The failed links are randomly picked among all the links. The time
//! between failures and the length of lasting time both obey log-normal
//! distribution, which derives from the measurement results of operational
//! DCNs [1]." The paper runs two regimes over a 600 s horizon: about 40
//! failures with at most 1 concurrent failure, and about 100 failures with
//! at most 5 concurrent.

use dcn_net::LinkId;
use dcn_sim::{LogNormal, SimDuration, SimRng, SimTime};

use crate::schedule::FailureSchedule;

/// Parameters of the random failure process.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomFailureConfig {
    /// Maximum simultaneous failures (paper: 1 or 5).
    pub max_concurrent: usize,
    /// Log-normal time between failure arrivals, in seconds.
    pub time_between: LogNormal,
    /// Log-normal failure duration, in seconds.
    pub duration: LogNormal,
    /// Experiment horizon; no failure *starts* after this.
    pub horizon: SimDuration,
}

impl RandomFailureConfig {
    /// The paper's 1-concurrent-failure regime: ~40 failures over 600 s.
    ///
    /// The high sigmas reflect the heavy-tailed, bursty failure processes
    /// measured in production DCNs (\[1\]): failures cluster in time, which
    /// is what drives the routing protocol's SPF backoff into the
    /// multi-second range in Fig. 6(b).
    ///
    /// The inter-arrival mean is set *below* `horizon / 40` because
    /// arrivals that land while a failure is already active are thinned by
    /// the concurrency cap; 5 s realizes ~40 failures over 600 s after
    /// that thinning (measured over 50 seeds).
    pub fn one_concurrent() -> Self {
        RandomFailureConfig {
            max_concurrent: 1,
            time_between: LogNormal::from_mean_sigma(5.0, 1.8),
            duration: LogNormal::from_mean_sigma(5.0, 1.2),
            horizon: SimDuration::from_secs(600),
        }
    }

    /// The paper's 5-concurrent-failure regime: ~100 failures over 600 s.
    pub fn five_concurrent() -> Self {
        RandomFailureConfig {
            max_concurrent: 5,
            time_between: LogNormal::from_mean_sigma(3.5, 1.8),
            duration: LogNormal::from_mean_sigma(15.0, 1.2),
            horizon: SimDuration::from_secs(600),
        }
    }

    /// Scales the horizon (and arrival/duration means proportionally) so
    /// shorter test runs keep the same failure density.
    pub fn scaled_to(mut self, horizon: SimDuration) -> Self {
        let factor = horizon.as_secs_f64() / self.horizon.as_secs_f64();
        self.time_between =
            LogNormal::from_mean_sigma(self.time_between.mean() * factor, self.time_between.sigma);
        self.duration =
            LogNormal::from_mean_sigma(self.duration.mean() * factor, self.duration.sigma);
        self.horizon = horizon;
        self
    }
}

/// Generates a random failure schedule over `links`.
///
/// Arrivals that would exceed `max_concurrent` are skipped (the process
/// stays within the paper's concurrency regimes by construction). Every
/// failure gets a matching repair event.
///
/// # Panics
///
/// Panics if `links` is empty.
pub fn generate_random_failures(
    rng: &mut SimRng,
    links: &[LinkId],
    config: &RandomFailureConfig,
) -> FailureSchedule {
    assert!(!links.is_empty(), "no links to fail");
    let mut schedule = FailureSchedule::new();
    // (end_time, link) of currently failed links.
    let mut active: Vec<(SimTime, LinkId)> = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        now += SimDuration::from_secs_f64(rng.gen_lognormal(config.time_between));
        if now.since(SimTime::ZERO) > config.horizon {
            break;
        }
        active.retain(|&(end, _)| end > now);
        if active.len() >= config.max_concurrent {
            continue;
        }
        // Pick a link that is not already down.
        let link = {
            let mut pick = *rng.choose(links);
            let mut attempts = 0;
            while active.iter().any(|&(_, l)| l == pick) && attempts < 32 {
                pick = *rng.choose(links);
                attempts += 1;
            }
            if active.iter().any(|&(_, l)| l == pick) {
                continue; // pathological small-topology case
            }
            pick
        };
        let duration = SimDuration::from_secs_f64(rng.gen_lognormal(config.duration));
        let end = now + duration;
        schedule.fail(now, link);
        schedule.repair(end, link);
        active.push((end, link));
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links(n: u32) -> Vec<LinkId> {
        (0..n).map(LinkId::new).collect()
    }

    #[test]
    fn one_concurrent_regime_produces_about_forty_failures() {
        // Bursty (high-sigma) arrivals give single runs a 14..=61 spread,
        // so assert the mean over several seeds.
        let cfg = RandomFailureConfig::one_concurrent();
        let total: usize = (0..10)
            .map(|seed| {
                let mut rng = SimRng::new(seed);
                generate_random_failures(&mut rng, &links(200), &cfg).failure_count()
            })
            .sum();
        let mean = total / 10;
        assert!(
            (25..=55).contains(&mean),
            "expected ~40 failures on average, got {mean}"
        );
    }

    #[test]
    fn five_concurrent_regime_produces_about_one_hundred_failures() {
        // The bursty (high-sigma) regime has large per-seed variance, so
        // check the mean over several seeds.
        let cfg = RandomFailureConfig::five_concurrent();
        let total: usize = (0..10)
            .map(|seed| {
                let mut rng = SimRng::new(seed);
                generate_random_failures(&mut rng, &links(200), &cfg).failure_count()
            })
            .sum();
        let mean = total / 10;
        assert!(
            (75..=135).contains(&mean),
            "expected ~100 failures on average, got {mean}"
        );
    }

    #[test]
    fn concurrency_cap_is_respected() {
        for (seed, cfg) in [
            (1u64, RandomFailureConfig::one_concurrent()),
            (2, RandomFailureConfig::five_concurrent()),
        ] {
            let mut rng = SimRng::new(seed);
            let cap = cfg.max_concurrent;
            let events = generate_random_failures(&mut rng, &links(200), &cfg).into_sorted();
            let mut down = 0i64;
            let mut max_down = 0i64;
            for e in events {
                down += if e.up { -1 } else { 1 };
                max_down = max_down.max(down);
            }
            assert!(
                max_down as usize <= cap,
                "cap {cap} violated: peak {max_down}"
            );
        }
    }

    #[test]
    fn every_failure_has_a_matching_repair() {
        let mut rng = SimRng::new(13);
        let cfg = RandomFailureConfig::five_concurrent();
        let events = generate_random_failures(&mut rng, &links(50), &cfg).into_sorted();
        use std::collections::HashMap;
        let mut state: HashMap<LinkId, i64> = HashMap::new();
        for e in &events {
            *state.entry(e.link).or_default() += if e.up { -1 } else { 1 };
        }
        assert!(state.values().all(|&v| v == 0), "unbalanced: {state:?}");
    }

    #[test]
    fn no_failure_starts_after_the_horizon() {
        let mut rng = SimRng::new(14);
        let cfg = RandomFailureConfig::one_concurrent();
        let horizon = cfg.horizon;
        let events = generate_random_failures(&mut rng, &links(50), &cfg).into_sorted();
        for e in events.iter().filter(|e| !e.up) {
            assert!(e.at.since(SimTime::ZERO) <= horizon);
        }
    }

    #[test]
    fn scaled_config_keeps_density() {
        // Same expected count (~40) over a 10x shorter horizon. A single
        // heavy-tailed inter-arrival draw can overshoot the short horizon
        // and truncate one run, so assert on the mean over several seeds
        // like the five-concurrent test does.
        let cfg = RandomFailureConfig::one_concurrent().scaled_to(SimDuration::from_secs(60));
        let total: usize = (0..10)
            .map(|seed| {
                let mut rng = SimRng::new(seed);
                generate_random_failures(&mut rng, &links(200), &cfg).failure_count()
            })
            .sum();
        let mean = total / 10;
        assert!(
            (25..=55).contains(&mean),
            "expected ~40 failures on average, got {mean}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RandomFailureConfig::five_concurrent();
        let a = generate_random_failures(&mut SimRng::new(9), &links(30), &cfg).into_sorted();
        let b = generate_random_failures(&mut SimRng::new(9), &links(30), &cfg).into_sorted();
        assert_eq!(a, b);
    }
}
