//! Worker-count resolution: `--workers N` flag > `DCN_WORKERS` env >
//! available parallelism.

use std::num::NonZeroUsize;

/// How many OS threads a sweep runs on.
///
/// The worker count is pure *throughput* configuration: a [`crate::RunPlan`]
/// merges results in cell order, so any `Workers` value produces
/// byte-identical output. `Workers` therefore never needs to appear in an
/// experiment's result metadata.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Workers(NonZeroUsize);

/// The environment variable consulted by [`Workers::auto`] when no
/// explicit count is given.
pub const WORKERS_ENV: &str = "DCN_WORKERS";

impl Workers {
    /// One worker: the serial baseline.
    pub const SERIAL: Workers = Workers(NonZeroUsize::MIN);

    /// The most workers [`Self::parse`] and [`Self::from_env`] accept: the
    /// pool starts one OS thread per worker (up to one per cell), so a
    /// count far beyond any machine's cores only exhausts its threads.
    pub const MAX: usize = 256;

    /// An explicit worker count; zero is clamped to one.
    pub fn new(n: usize) -> Workers {
        Workers(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// The default resolution chain: `DCN_WORKERS` if set and parseable,
    /// otherwise [`std::thread::available_parallelism`], otherwise one.
    pub fn auto() -> Workers {
        match Self::from_env() {
            Some(w) => w,
            None => Workers(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
        }
    }

    /// The `DCN_WORKERS` override, if [`Self::parse`] accepts it.
    pub fn from_env() -> Option<Workers> {
        Self::parse(&std::env::var(WORKERS_ENV).ok()?)
    }

    /// Parses a `--workers` flag value: an integer from 1 to [`Self::MAX`].
    pub fn parse(value: &str) -> Option<Workers> {
        value
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|n| (1..=Self::MAX).contains(n))
            .map(Workers::new)
    }

    /// The resolved thread count.
    pub fn get(self) -> usize {
        self.0.get()
    }
}

impl std::fmt::Display for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_clamps_to_serial() {
        assert_eq!(Workers::new(0), Workers::SERIAL);
        assert_eq!(Workers::new(0).get(), 1);
    }

    #[test]
    fn parse_accepts_positive_integers_only() {
        assert_eq!(Workers::parse("4"), Some(Workers::new(4)));
        assert_eq!(Workers::parse(" 2 "), Some(Workers::new(2)));
        assert_eq!(Workers::parse("0"), None);
        assert_eq!(Workers::parse("-1"), None);
        assert_eq!(Workers::parse("many"), None);
    }

    #[test]
    fn parse_rejects_counts_past_the_bound() {
        assert_eq!(Workers::parse("256"), Some(Workers::new(Workers::MAX)));
        assert_eq!(Workers::parse("257"), None);
        assert_eq!(Workers::parse(&usize::MAX.to_string()), None);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Workers::auto().get() >= 1);
    }
}
