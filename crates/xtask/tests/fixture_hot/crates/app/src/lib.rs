//! Seeded hot-path violations, one per perf rule, plus cold and waived
//! controls that must stay silent.

use std::collections::BTreeMap;

pub struct Engine {
    pending: u32,
    seen: Vec<u64>,
}

impl Engine {
    /// Declared hot root: the fixture event loop. Plants one
    /// alloc-in-hot-loop (the collect) and one map-scan-per-event
    /// (the full iter over the local BTreeMap).
    pub fn step(&mut self) {
        let index: BTreeMap<u64, u64> = BTreeMap::new();
        while self.pending > 0 {
            let batch: Vec<u64> = vec![u64::from(self.pending)];
            for (key, value) in index.iter() {
                record(*key, *value, &batch);
            }
            self.pending -= 1;
        }
        self.drain();
    }

    /// Hot via `step`: plants one clone-in-hot-path and one waived clone
    /// (control: must be silent).
    fn drain(&mut self) {
        let snapshot = self.seen.clone();
        let waived = self.seen.clone(); // lint:allow(clone-in-hot-path) fixture control
        record(0, 0, &snapshot);
        record(0, 0, &waived);
    }
}

fn record(_k: u64, _v: u64, _vals: &[u64]) {}

/// Cold setup path: the very same patterns as above must not be flagged,
/// because nothing reachable from a declared root calls this.
pub fn bootstrap() -> Vec<u64> {
    let staging: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for _ in 0..4 {
        let copy: Vec<u64> = staging.values().copied().collect();
        out.extend(copy.clone());
    }
    out
}
