//! SPF throttling with exponential backoff (Cisco-style, [14] in the
//! paper).
//!
//! An isolated failure waits the *initial* delay (default 200 ms — the
//! paper's "OSPF shortest path calculation timer (whose default initial
//! value is 200ms)"). Under a storm of triggers, consecutive SPF runs are
//! separated by a hold time that doubles up to a multi-second maximum —
//! this is what produces the ~9 s completion-time tail the paper observes
//! in Fig. 6(b) under 5 concurrent failures.

use dcn_sim::{timers, SimDuration, SimTime};

/// The per-router SPF throttle state machine.
///
/// # Examples
///
/// ```
/// use dcn_routing::SpfThrottle;
/// use dcn_sim::{timers, SimDuration, SimTime};
///
/// let mut t = SpfThrottle::new(timers::SPF_INITIAL_DELAY);
/// let now = SimTime::ZERO + SimDuration::from_millis(440);
/// // An isolated trigger runs one initial delay (200ms) later.
/// let at = t.on_trigger(now).unwrap();
/// assert_eq!((at - now).as_millis(), 200);
/// ```
#[derive(Clone, Debug)]
pub struct SpfThrottle {
    /// Delay from an isolated trigger to the SPF run.
    initial_delay: SimDuration,
    /// Current hold time (doubles under churn).
    hold: SimDuration,
    /// When the next run is scheduled, if one is pending.
    scheduled: Option<SimTime>,
    /// When the last run happened.
    last_run: Option<SimTime>,
    /// Whether the pending run was deferred by the hold window.
    deferred: bool,
    /// Total SPF runs (for statistics).
    runs: u64,
}

impl SpfThrottle {
    /// Creates a quiet throttle whose isolated triggers wait
    /// `initial_delay`; under churn the hold doubles up to
    /// [`timers::SPF_MAX_HOLD`].
    pub fn new(initial_delay: SimDuration) -> Self {
        SpfThrottle {
            initial_delay,
            hold: initial_delay,
            scheduled: None,
            last_run: None,
            deferred: false,
            runs: 0,
        }
    }

    /// Registers an SPF trigger (LSA change) at `now`.
    ///
    /// Returns `Some(at)` when a new SPF run must be scheduled at `at`,
    /// or `None` when one is already pending (the pending run will see the
    /// new LSDB state anyway).
    pub fn on_trigger(&mut self, now: SimTime) -> Option<SimTime> {
        if self.scheduled.is_some() {
            return None;
        }
        let at = match self.last_run {
            Some(last) if now < last + self.hold => {
                // Churn: defer to the end of the hold window.
                self.deferred = true;
                last + self.hold
            }
            _ => {
                // Quiet network: reset the backoff and wait the initial
                // delay.
                self.hold = self.initial_delay;
                self.deferred = false;
                now + self.initial_delay
            }
        };
        self.scheduled = Some(at);
        Some(at)
    }

    /// Marks the scheduled run as executed at `now`, updating the backoff.
    ///
    /// # Panics
    ///
    /// Panics if no run was scheduled.
    pub fn on_run(&mut self, now: SimTime) {
        assert!(self.scheduled.is_some(), "SPF ran without being scheduled");
        self.scheduled = None;
        self.last_run = Some(now);
        self.runs += 1;
        if self.deferred {
            // Exponential backoff under churn.
            self.hold = (self.hold * 2).min(timers::SPF_MAX_HOLD);
            self.deferred = false;
        }
    }

    /// Current hold time (observability for the Fig. 6 analysis).
    pub fn hold(&self) -> SimDuration {
        self.hold
    }

    /// Pending run time, if any.
    pub fn scheduled(&self) -> Option<SimTime> {
        self.scheduled
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn isolated_trigger_waits_initial_delay() {
        let mut t = SpfThrottle::new(timers::SPF_INITIAL_DELAY);
        let run_at = t.on_trigger(at_ms(440)).unwrap();
        assert_eq!(run_at, at_ms(640));
        t.on_run(run_at);
        assert_eq!(t.runs(), 1);
        // Long after, another isolated trigger waits initial again.
        let run_at = t.on_trigger(at_ms(100_000)).unwrap();
        assert_eq!(run_at, at_ms(100_200));
    }

    #[test]
    fn triggers_while_pending_coalesce() {
        let mut t = SpfThrottle::new(timers::SPF_INITIAL_DELAY);
        let first = t.on_trigger(at_ms(0)).unwrap();
        assert!(t.on_trigger(at_ms(50)).is_none());
        assert!(t.on_trigger(at_ms(100)).is_none());
        assert_eq!(t.scheduled(), Some(first));
    }

    #[test]
    fn churn_doubles_hold_up_to_max() {
        let mut t = SpfThrottle::new(SimDuration::from_millis(200));
        // Storm: a trigger lands right after every run.
        let mut now = at_ms(0);
        let mut gaps = Vec::new();
        let mut last_run: Option<SimTime> = None;
        for _ in 0..10 {
            let run_at = t.on_trigger(now).unwrap();
            t.on_run(run_at);
            if let Some(prev) = last_run {
                gaps.push((run_at - prev).as_millis());
            }
            last_run = Some(run_at);
            now = run_at + SimDuration::from_millis(1);
        }
        // Consecutive gaps: 200(ish), then doubling 400, 800, ... capped.
        assert_eq!(gaps[0], 200);
        assert_eq!(gaps[1], 400);
        assert_eq!(gaps[2], 800);
        assert!(gaps.iter().all(|&g| g <= 10_000));
        assert!(gaps.contains(&10_000), "backoff reaches the cap: {gaps:?}");
    }

    #[test]
    fn quiet_period_resets_backoff() {
        let mut t = SpfThrottle::new(timers::SPF_INITIAL_DELAY);
        // Build up some backoff.
        let r1 = t.on_trigger(at_ms(0)).unwrap();
        t.on_run(r1);
        let r2 = t.on_trigger(r1 + SimDuration::from_millis(1)).unwrap();
        t.on_run(r2);
        assert!(t.hold() > SimDuration::from_millis(200));
        // A trigger long after the hold window resets to the initial delay.
        let quiet = r2 + SimDuration::from_secs(60);
        let r3 = t.on_trigger(quiet).unwrap();
        assert_eq!((r3 - quiet).as_millis(), 200);
        t.on_run(r3);
        assert_eq!(t.hold(), SimDuration::from_millis(200));
    }

    #[test]
    #[should_panic(expected = "without being scheduled")]
    fn run_without_schedule_panics() {
        let mut t = SpfThrottle::new(timers::SPF_INITIAL_DELAY);
        t.on_run(at_ms(1));
    }
}
