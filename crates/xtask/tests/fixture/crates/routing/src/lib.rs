//! Fixture routing crate (inside the timer-literal scope): one violation
//! per token-rule pattern — a hard-coded 200 ms SPF timer, the same
//! timer spelled in µs, a literal-seeded RNG — each beside a control
//! that must stay silent.

pub struct Duration(pub u64);

impl Duration {
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }
}

pub struct SimRng(pub u64);

impl SimRng {
    pub fn new(seed: u64) -> SimRng {
        SimRng(seed)
    }
}

/// Hard-coded 200 ms SPF initial delay.
pub fn spf_delay() -> Duration {
    Duration::from_millis(200)
}

/// The same timer as a bare µs magnitude.
pub fn spf_hold() -> Duration {
    Duration::from_micros(200_000)
}

/// Control: packet-scale µs arithmetic is not a protocol timer.
pub fn serialization_delay() -> Duration {
    Duration::from_micros(12)
}

/// Literal-seeded RNG stream.
pub fn jitter() -> u64 {
    let rng = SimRng::new(42);
    rng.0
}

/// Control: a stream derived from the caller's seed.
pub fn derived_jitter(master_seed: u64) -> u64 {
    SimRng::new(master_seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Control: tests pin timers and seeds on purpose.
    #[test]
    fn pinned() {
        assert_eq!(Duration::from_millis(200).0, SimRng::new(200_000).0);
    }
}
