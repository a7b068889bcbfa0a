//! Per-tenant service metrics on the virtual clock.
//!
//! Everything here is derived from *modeled* quantities (virtual cycles,
//! counts), so two runs of the same workload with the same seed produce
//! bit-identical metrics — which is what lets the benchmark harness gate
//! on them in CI. Wall-clock time never enters these structures.

use crate::breaker::BreakerTransition;
use crate::pool::PoolStats;
use serde::Serialize;
use std::collections::BTreeMap;

/// Counters and latency samples for one tenant.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TenantMetrics {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests answered exactly (IPU or CPU rung).
    pub exact: u64,
    /// Requests answered by the degraded rung (greedy + gap bound).
    pub degraded: u64,
    /// Requests refused at admission (queue full).
    pub shed: u64,
    /// Requests that ran out of deadline budget.
    pub deadline_exceeded: u64,
    /// Exact answers that had to leave the IPU for the CPU rung.
    pub rerouted: u64,
    /// IPU attempts beyond the first, summed over requests.
    pub retries: u64,
    /// Exact answers served by the warm-started (seeded) re-solve rung:
    /// the tenant's previous duals for this shape were repaired on the
    /// host, the device ran the shape's program with Step 1 skipped, and
    /// the answer's certificate verified.
    pub seeded: u64,
    /// Seeded re-solve attempts whose answer failed certificate
    /// verification (stale seed or device fault) and fell back to the
    /// cold rung. The fallback contract is never-silent: every fallback
    /// is counted here.
    pub seeded_fallbacks: u64,
    /// Completion-minus-arrival, in virtual cycles, for every answered
    /// request (exact or degraded), in completion order.
    latencies: Vec<u64>,
}

impl TenantMetrics {
    /// Records an answered request's latency.
    pub(crate) fn record_latency(&mut self, cycles: u64) {
        self.latencies.push(cycles);
    }

    /// Number of answered requests.
    pub fn answered(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// The `q`-th latency percentile (0.0–1.0) in virtual cycles, by the
    /// nearest-rank method; `None` with no samples.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        Some(sorted[rank - 1])
    }

    /// Median latency in virtual cycles.
    pub fn p50(&self) -> Option<u64> {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile latency in virtual cycles.
    pub fn p99(&self) -> Option<u64> {
        self.latency_percentile(0.99)
    }
}

/// Service-wide metrics: per-tenant counters plus shared-resource health.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServiceMetrics {
    /// Per-tenant counters, keyed by tenant id. `BTreeMap` so iteration
    /// (and serialization) order is deterministic.
    pub tenants: BTreeMap<String, TenantMetrics>,
    /// Deepest the queue ever got (after admission).
    pub queue_high_water: usize,
    /// Warm-engine pool counters.
    pub pool: PoolStats,
    /// Every circuit-breaker state change, in virtual-time order.
    pub breaker_transitions: Vec<BreakerTransition>,
}

impl ServiceMetrics {
    /// The per-tenant entry, created on first touch.
    pub(crate) fn tenant(&mut self, id: &str) -> &mut TenantMetrics {
        if !self.tenants.contains_key(id) {
            self.tenants
                .insert(id.to_string(), TenantMetrics::default());
        }
        self.tenants.get_mut(id).expect("just inserted")
    }

    /// Sums a counter over tenants.
    pub fn total(&self, f: impl Fn(&TenantMetrics) -> u64) -> u64 {
        self.tenants.values().map(f).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut t = TenantMetrics::default();
        for c in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            t.record_latency(c);
        }
        assert_eq!(t.p50(), Some(50));
        assert_eq!(t.p99(), Some(100));
        assert_eq!(t.latency_percentile(0.0), Some(10));
        assert_eq!(t.answered(), 10);
    }

    #[test]
    fn empty_tenant_has_no_percentiles() {
        let t = TenantMetrics::default();
        assert_eq!(t.p50(), None);
        assert_eq!(t.p99(), None);
    }

    #[test]
    fn totals_sum_over_tenants() {
        let mut m = ServiceMetrics::default();
        m.tenant("a").shed = 2;
        m.tenant("b").shed = 3;
        assert_eq!(m.total(|t| t.shed), 5);
        // Deterministic order.
        let keys: Vec<_> = m.tenants.keys().cloned().collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }
}
