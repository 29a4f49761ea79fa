//! Fixture simulator crate (inside the timer-literal scope) with nothing
//! to report: its timer flows from configuration.

pub struct Event {
    pub at: u64,
}

/// Control: a timer value that comes from the caller is fine.
pub fn detect_at(ev: &Event, detection_delay_ms: u64) -> u64 {
    ev.at + Duration::from_millis(detection_delay_ms).0
}

pub struct Duration(pub u64);

impl Duration {
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }
}
