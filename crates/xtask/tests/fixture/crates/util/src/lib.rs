//! Fixture helper crate *outside* every timer scope: `timer-constants`
//! does not apply here, so the literal below must stay silent.

pub struct Duration(pub u64);

impl Duration {
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms)
    }
}

/// Control: a TCP-style timer owned by an out-of-scope crate.
pub fn min_rto() -> Duration {
    Duration::from_millis(200)
}
