//! Cycle accounting: what the modeled device spent its time on.
//!
//! Every count here is a function of the *modeled device* alone: the
//! host execution path ([`crate::ExecMode`]) never changes a single
//! field.

use serde::{Deserialize, Serialize};

/// Per-compute-set accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// Compute-set name.
    pub name: String,
    /// Times this set executed (supersteps).
    pub executions: u64,
    /// Total compute cycles charged (max-over-tiles per execution,
    /// summed).
    pub compute_cycles: u64,
}

/// Counts of injected faults, by class (see [`crate::FaultPlan`]).
///
/// All zeros unless a fault plan is installed on the engine. Restoring a
/// snapshot rewinds these together with the rest of the stats: they
/// describe the *current* timeline, not the union of all attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// SRAM bit flips injected into mapped tensors.
    pub bit_flips: u64,
    /// Elements corrupted in transit during exchange phases.
    pub exchange_corruptions: u64,
    /// Supersteps stretched by a straggler tile.
    pub stragglers: u64,
    /// Extra compute cycles charged to straggler supersteps.
    pub straggler_cycles: u64,
    /// `RepeatWhileTrue` loops forced into divergence.
    pub forced_divergences: u64,
}

impl FaultStats {
    /// Total discrete fault events (straggler cycles are a magnitude, not
    /// an event count, so they are excluded).
    pub fn total_events(&self) -> u64 {
        self.bit_flips + self.exchange_corruptions + self.stragglers + self.forced_divergences
    }
}

/// Accumulated device-time model for one engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Cycles spent in compute phases (per superstep: max over tiles of
    /// the 6-thread barrel cost).
    pub compute_cycles: u64,
    /// Cycles spent in chip-wide synchronizations.
    pub sync_cycles: u64,
    /// Cycles spent in exchange phases (copies/broadcasts).
    pub exchange_cycles: u64,
    /// Cycles spent evaluating data-dependent control flow.
    pub control_cycles: u64,
    /// Number of compute supersteps executed.
    pub supersteps: u64,
    /// Number of exchange phases executed.
    pub exchanges: u64,
    /// Bytes moved through the exchange fabric (sum over tiles of bytes
    /// sent).
    pub exchange_bytes: u64,
    /// Bytes moved between host and device (not charged to device time).
    pub host_bytes: u64,
    /// Per-compute-set breakdown, in declaration order.
    pub per_compute_set: Vec<StepBreakdown>,
    /// Injected-fault accounting (all zero without a fault plan).
    pub faults: FaultStats,
}

impl CycleStats {
    /// Total modeled device cycles.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.sync_cycles + self.exchange_cycles + self.control_cycles
    }

    /// Resets all counters (per-set names are kept).
    pub fn reset(&mut self) {
        let names: Vec<String> = self
            .per_compute_set
            .iter()
            .map(|s| s.name.clone())
            .collect();
        *self = CycleStats::default();
        self.per_compute_set = names
            .into_iter()
            .map(|name| StepBreakdown {
                name,
                ..Default::default()
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_phases() {
        let s = CycleStats {
            compute_cycles: 10,
            sync_cycles: 5,
            exchange_cycles: 3,
            control_cycles: 2,
            ..Default::default()
        };
        assert_eq!(s.total_cycles(), 20);
    }

    #[test]
    fn reset_keeps_breakdown_names() {
        let mut s = CycleStats {
            compute_cycles: 10,
            per_compute_set: vec![StepBreakdown {
                name: "step6".into(),
                executions: 4,
                compute_cycles: 100,
            }],
            ..Default::default()
        };
        s.reset();
        assert_eq!(s.compute_cycles, 0);
        assert_eq!(s.per_compute_set.len(), 1);
        assert_eq!(s.per_compute_set[0].name, "step6");
        assert_eq!(s.per_compute_set[0].executions, 0);
    }
}
