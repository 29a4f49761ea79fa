//! Per-FIB-epoch routing-quality observation during chaos scenarios.
//!
//! Unlike the invariant oracles, the quality observer never fails a
//! run: it scores each forwarding state the scenario passes through
//! (expected link load, oversubscription, path diversity — see
//! `dcn_metrics::quality`) and carries the trace in the outcome, so a
//! campaign can report what a recovery discipline *costs* in
//! congestion while the oracles certify that it *works*. All values
//! are fixed-point quantized; the rendered trace is byte-identical at
//! any worker count.

use std::fmt;

use dcn_metrics::quality::{format_load, QualityReport};
use dcn_sim::SimTime;

/// One scored forwarding state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochQuality {
    /// Simulation time of the snapshot.
    pub at: SimTime,
    /// The FIB epoch counter at the snapshot.
    pub epoch: u64,
    /// The quality score of the installed FIBs.
    pub report: QualityReport,
}

/// The quality trajectory of one scenario: the pre-failure baseline
/// followed by every FIB epoch the engine observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QualityTrace {
    /// Snapshots in observation order (index 0 is the baseline).
    pub epochs: Vec<EpochQuality>,
}

impl QualityTrace {
    /// Appends a snapshot.
    pub fn push(&mut self, at: SimTime, epoch: u64, report: QualityReport) {
        self.epochs.push(EpochQuality { at, epoch, report });
    }

    /// The worst (maximum) fabric-edge load seen across the trace.
    pub fn peak_load(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.report.max_load)
            .max()
            .unwrap_or(0)
    }

    /// The worst quantized undeliverable demand seen across the trace.
    pub fn peak_undeliverable(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.report.undeliverable)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for QualityTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.epochs {
            writeln!(f, "    @{} epoch {}: {}", e.at, e.epoch, e.report)?;
        }
        write!(
            f,
            "    peak: max-load {} undeliv {}",
            format_load(self.peak_load()),
            format_load(self.peak_undeliverable())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_metrics::quality::LOAD_SCALE;

    fn report(max_load: u64, undeliverable: u64) -> QualityReport {
        QualityReport {
            max_load,
            oversub: None,
            diversity: None,
            delivered: 0,
            undeliverable,
        }
    }

    #[test]
    fn peaks_over_trace() {
        let mut t = QualityTrace::default();
        t.push(SimTime::ZERO, 0, report(LOAD_SCALE, 0));
        t.push(SimTime::ZERO, 3, report(3 * LOAD_SCALE, LOAD_SCALE / 2));
        t.push(SimTime::ZERO, 5, report(2 * LOAD_SCALE, 0));
        assert_eq!(t.peak_load(), 3 * LOAD_SCALE);
        assert_eq!(t.peak_undeliverable(), LOAD_SCALE / 2);
    }

    #[test]
    fn render_is_stable() {
        let mut t = QualityTrace::default();
        t.push(SimTime::ZERO, 0, report(LOAD_SCALE / 2, 0));
        let text = t.to_string();
        assert!(text.contains("epoch 0"));
        assert!(text.ends_with("peak: max-load 0.500 undeliv 0.000"));
    }
}
