//! Load generation for the serving layer (`bench serve`).
//!
//! Drives an [`AssignmentService`] on its virtual clock in two modes:
//!
//! - **closed loop** ([`calibrate_service_cycles`]): one request in
//!   flight at a time on a clean device, measuring the sustainable
//!   per-request service time in cycles — the denominator for "offered
//!   load";
//! - **open loop** ([`run_open_loop`]): requests arrive on a fixed
//!   inter-arrival grid regardless of completions (the overload case the
//!   serving layer exists for), optionally under a seeded fault storm.
//!
//! Every answered request is re-verified *outside* the service against
//! the CPU ground truth: exact answers must match the optimum and carry
//! a verifying certificate; degraded answers must carry a sound
//! weak-duality gap bound. The summary counts any violation as
//! `incorrect` — the CI gate requires that count to be zero.

use hunipu::HunIpu;
use ipu_sim::{FaultPlan, IpuConfig};
use lsap::{CostMatrix, LsapError};
use serve::{AssignmentService, Outcome, Quality, Request, ServiceConfig};

/// One load scenario: the workload grid plus the service tunables.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Instance size n (every request solves an n x n matrix).
    pub n: usize,
    /// Requests offered in the open-loop phase.
    pub requests: usize,
    /// Dataset / fault seed.
    pub seed: u64,
    /// Admission bound of the service queue.
    pub queue_capacity: usize,
    /// Micro-batch size limit.
    pub max_batch: usize,
    /// Micro-batch coalescing window, virtual cycles.
    pub batch_window_cycles: u64,
    /// Deadline budget given to every request (cycles from arrival);
    /// `None` = no deadlines.
    pub budget_cycles: Option<u64>,
    /// Every `tight_every`-th request instead carries
    /// [`LoadSpec::tight_budget_cycles`] — an interactive tier whose
    /// budget exact solving cannot meet, exercising the greedy rung
    /// under load. 0 disables the tier.
    pub tight_every: usize,
    /// Budget of the interactive tier, cycles from arrival.
    pub tight_budget_cycles: u64,
    /// Per-opportunity bit-flip rate of the fault storm; 0.0 = clean.
    pub storm_rate: f64,
}

impl LoadSpec {
    /// The device under the service: small and fast to simulate, with a
    /// tight divergence watchdog so fault-corrupted runs fail quickly.
    pub fn device(&self) -> IpuConfig {
        IpuConfig {
            max_while_iterations: 20_000,
            ..IpuConfig::tiny(8)
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            batch_window_cycles: self.batch_window_cycles,
            default_budget_cycles: self.budget_cycles,
            ..ServiceConfig::default()
        }
    }

    fn service(&self) -> AssignmentService {
        AssignmentService::new(HunIpu::with_config(self.device()), self.service_config())
    }

    fn matrix(&self, i: usize) -> CostMatrix {
        datasets::gaussian_cost_matrix(self.n, 100, self.seed.wrapping_add(i as u64))
    }

    fn storm(&self) -> Option<FaultPlan> {
        (self.storm_rate > 0.0).then(|| {
            FaultPlan::new(self.seed ^ 0x5eed)
                .with_bit_flips(self.storm_rate)
                .targeting("slack")
                .after_supersteps(10)
        })
    }
}

/// What one load run produced, all in modeled quantities (bit-identical
/// for a fixed [`LoadSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Requests offered.
    pub offered: u64,
    /// Refused at admission (queue full).
    pub shed: u64,
    /// Answered exactly (certificate-verified).
    pub exact: u64,
    /// Answered degraded (greedy with a gap bound).
    pub degraded: u64,
    /// Explicitly rejected on deadline.
    pub deadline_exceeded: u64,
    /// Exact answers that rerouted to the CPU rung.
    pub rerouted: u64,
    /// IPU retries summed over requests.
    pub retries: u64,
    /// Breaker trips (transitions to Open) across backends.
    pub breaker_trips: u64,
    /// Deepest the queue ever got (bounded by the admission capacity).
    pub queue_high_water: usize,
    /// Answers that failed external re-verification. **Must be zero.**
    pub incorrect: u64,
    /// Median answered latency, virtual cycles.
    pub p50_latency_cycles: u64,
    /// 99th-percentile answered latency, virtual cycles.
    pub p99_latency_cycles: u64,
    /// One line per outcome plus the serialized metrics — two runs of
    /// the same spec must produce identical fingerprints.
    pub fingerprint: String,
}

impl LoadSummary {
    /// `shed + exact + degraded + deadline_exceeded` — must equal
    /// `offered` (every request is accounted for exactly once).
    pub fn accounted(&self) -> u64 {
        self.shed + self.exact + self.degraded + self.deadline_exceeded
    }
}

/// Measures the sustainable closed-loop service time: `samples` requests
/// served one at a time on a clean, warmed-up device. Returns modeled
/// cycles per request.
pub fn calibrate_service_cycles(spec: &LoadSpec, samples: usize) -> f64 {
    assert!(samples >= 1);
    let mut svc = spec.service();
    // Warm-up request pays the compile; excluded from the measurement.
    submit_next(&mut svc, "calibrate", spec.matrix(0), 1);
    svc.run_until_idle();
    let t0 = svc.now();
    for i in 0..samples {
        submit_next(&mut svc, "calibrate", spec.matrix(1 + i), 1);
        svc.run_until_idle();
    }
    // Each iteration contributes one cycle of idle gap (`now + 1`).
    (svc.now() - t0 - samples as u64) as f64 / samples as f64
}

/// Runs the open-loop phase: `spec.requests` arrivals, one every
/// `inter_arrival_cycles`, under the spec's fault storm, alternating
/// between two tenants — then one **brownout probe** (a request whose
/// budget fits only the greedy rung) once the queue drains, so the run
/// exercises the whole degradation ladder. Panics only on harness bugs;
/// service-level failures (shed, deadline) are counted, and verification
/// failures land in [`LoadSummary::incorrect`].
pub fn run_open_loop(spec: &LoadSpec, inter_arrival_cycles: u64) -> LoadSummary {
    let mut svc = spec.service();
    svc.set_fault_plan(spec.storm());

    let mut matrices = Vec::with_capacity(spec.requests);
    let mut log: Vec<String> = Vec::new();
    let mut shed = 0u64;
    for i in 0..spec.requests {
        let m = spec.matrix(i);
        let t = 1 + i as u64 * inter_arrival_cycles;
        let tenant = format!("t{}", i % 2);
        let mut req = Request::new(tenant, m.clone());
        if spec.tight_every > 0 && i % spec.tight_every == spec.tight_every - 1 {
            req = req.with_budget(spec.tight_budget_cycles);
        }
        match svc.submit_at(t, req) {
            Ok(id) => {
                matrices.push((id, m));
                log.push(format!("admit {id} at {t}"));
            }
            Err(LsapError::Overloaded { .. }) => {
                shed += 1;
                log.push(format!("shed request {i} at {t}"));
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    svc.run_until_idle();

    // Brownout probe: with the queue drained and the service's cycle
    // estimates learned, offer one request whose budget provably fits
    // only the greedy rung — above the greedy charge, below the CPU
    // cost of every instance in play (so whatever instance the learned
    // CPU estimate came from, the exact rungs are skipped). The service
    // must answer it *degraded with a gap bound*, exercising the last
    // rung of the ladder under the same roof as the overload phase.
    let probe_matrix = spec.matrix(spec.requests);
    let clock_hz = spec.device().clock_hz;
    let min_cpu = matrices
        .iter()
        .map(|(_, m)| m)
        .chain(std::iter::once(&probe_matrix))
        .map(|m| {
            use lsap::LsapSolver;
            let mut jv = cpu_hungarian::JonkerVolgenant::new();
            let secs = jv
                .solve(m)
                .expect("CPU baseline solves")
                .stats
                .modeled_seconds
                .expect("CPU baseline models seconds");
            (secs * clock_hz).ceil() as u64
        })
        .min()
        .expect("at least the probe instance");
    let gc = serve::greedy_modeled_cycles(spec.n);
    let mut offered = spec.requests as u64;
    if min_cpu > gc + 2 {
        let budget = gc + (min_cpu - gc) / 2;
        let t = svc.now() + 1;
        let probe_id = svc
            .submit_at(
                t,
                Request::new("probe", probe_matrix.clone()).with_budget(budget),
            )
            .expect("idle service admits the probe");
        svc.run_until_idle();
        matrices.push((probe_id, probe_matrix));
        log.push(format!("probe {probe_id} budget {budget}"));
        offered += 1;
    }

    let outcomes = svc.take_completed();
    let mut incorrect = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for out in &outcomes {
        let (_, m) = matrices
            .iter()
            .find(|(id, _)| *id == out.id())
            .expect("every outcome maps to an admitted request");
        match out {
            Outcome::Done(r) => {
                latencies.push(r.completion - r.arrival);
                if !verify_response(r, m) {
                    incorrect += 1;
                }
                log.push(format!(
                    "done {} {} {:?} arr={} done={} obj={}",
                    r.id, r.backend, r.quality, r.arrival, r.completion, r.objective
                ));
            }
            Outcome::Failed(rej) => {
                if !matches!(rej.error, LsapError::DeadlineExceeded { .. }) {
                    // The only legitimate post-admission failure.
                    incorrect += 1;
                }
                log.push(format!("fail {} {}", rej.id, rej.error));
            }
        }
    }

    let metrics = svc.metrics();
    log.push(serde_json::to_string(metrics).expect("metrics serialize"));
    latencies.sort_unstable();
    LoadSummary {
        offered,
        shed,
        exact: metrics.total(|t| t.exact),
        degraded: metrics.total(|t| t.degraded),
        deadline_exceeded: metrics.total(|t| t.deadline_exceeded),
        rerouted: metrics.total(|t| t.rerouted),
        retries: metrics.total(|t| t.retries),
        breaker_trips: metrics
            .breaker_transitions
            .iter()
            .filter(|t| t.to == serve::BreakerState::Open)
            .count() as u64,
        queue_high_water: metrics.queue_high_water,
        incorrect,
        p50_latency_cycles: percentile(&latencies, 0.50),
        p99_latency_cycles: percentile(&latencies, 0.99),
        fingerprint: log.join("\n"),
    }
}

/// External re-verification of one answered request — trust nothing the
/// service claimed. Exact answers must equal the independently computed
/// optimum and carry a certificate that verifies; degraded answers must
/// carry a weak-duality bound that really contains the true gap.
fn verify_response(r: &serve::Response, m: &CostMatrix) -> bool {
    let Ok(cost) = r.assignment.cost(m) else {
        return false;
    };
    if (cost - r.objective).abs() > 1e-6 * (1.0 + cost.abs()) {
        return false;
    }
    let opt = cpu_hungarian::ground_truth_objective(m);
    match &r.quality {
        Quality::Exact => {
            r.certificate
                .verify(m, &r.assignment, hunipu::F32_VERIFY_EPS)
                .is_ok()
                && (r.objective - opt).abs() <= 1e-5 * (1.0 + opt.abs())
        }
        Quality::Degraded {
            gap_bound,
            lower_bound,
        } => *lower_bound <= opt + 1e-9 && r.objective - opt <= gap_bound + 1e-9,
    }
}

/// Nearest-rank percentile; 0 with no samples (an all-shed run).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

fn submit_next(svc: &mut AssignmentService, tenant: &str, m: CostMatrix, gap: u64) {
    let t = svc.now() + gap;
    svc.submit_at(t, Request::new(tenant, m))
        .expect("closed loop never overloads");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> LoadSpec {
        LoadSpec {
            n: 8,
            requests: 6,
            seed: 1,
            queue_capacity: 2,
            max_batch: 2,
            batch_window_cycles: 1_000,
            budget_cycles: None,
            tight_every: 0,
            tight_budget_cycles: 0,
            storm_rate: 0.0,
        }
    }

    #[test]
    fn calibration_is_positive_and_deterministic() {
        let spec = tiny_spec();
        let a = calibrate_service_cycles(&spec, 3);
        let b = calibrate_service_cycles(&spec, 3);
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let spec = tiny_spec();
        let s = calibrate_service_cycles(&spec, 2);
        let summary = run_open_loop(&spec, (s / 2.0).max(1.0) as u64);
        assert_eq!(summary.accounted(), summary.offered);
        assert_eq!(summary.incorrect, 0);
        assert!(summary.queue_high_water <= spec.queue_capacity);
    }

    #[test]
    fn percentile_is_nearest_rank_and_zero_without_samples() {
        assert_eq!(percentile(&[], 0.5), 0);
        let s = [10, 20, 30, 40];
        assert_eq!(
            [0.0, 0.25, 0.5, 0.51, 1.0].map(|q| percentile(&s, q)),
            [10, 10, 20, 30, 40]
        );
    }
}
