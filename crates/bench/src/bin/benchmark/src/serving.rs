//! `serve_mixed`: an open loop into the assignment service on its virtual
//! clock. Arrivals come on a fixed schedule whatever the service does, so
//! queueing shows in the modeled latency; each arrival's host time is the
//! `submit_at` + `advance_to` step that carries it in.

use crate::metrics::Measured;
use crate::solving::objective_tolerance;
use crate::spans::Spans;
use crate::{input_seed, Ctx};
use hunipu::{HunIpu, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, LsapError, SolveReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{AssignmentService, Outcome, Quality, Request, ServiceConfig};
use std::collections::HashMap;
use std::time::Instant;

/// Every this many arrivals, one carries [`TIGHT_BUDGET`].
const TIGHT_EVERY: u64 = 10;
/// A deadline budget, in cycles, that cold exact solves cannot meet.
const TIGHT_BUDGET: u64 = 2_000_000;
/// Rows a re-submitting tenant replaces between its requests.
const REPLACED_ROWS: usize = 8;
/// Warmed services built at the start of every pass; the last serves it.
const SETUPS: usize = 2;

struct Spec {
    device: IpuConfig,
    /// Size the two re-submitting tenants use.
    small: usize,
    /// Size the tenant sending fresh instances uses.
    large: usize,
    /// Arrivals per pass.
    arrivals: usize,
    /// Cycles between arrivals: just below saturation on the full Mk2.
    gap: u64,
}

fn spec(smoke: bool) -> Spec {
    if smoke {
        Spec {
            device: IpuConfig::tiny(8),
            small: 16,
            large: 24,
            arrivals: 20,
            gap: 2_000_000,
        }
    } else {
        Spec {
            device: IpuConfig::mk2(),
            small: 128,
            large: 256,
            arrivals: 150,
            gap: 20_000_000,
        }
    }
}

/// The arrival stream. Tenants `a` and `b` re-submit their own matrix
/// with a few rows replaced each time, which the service's warm start
/// exploits; tenant `c` sends fresh instances twice their size. Gaussian
/// costs in `[1, 100n]`.
struct Stream {
    seed: u64,
    small: usize,
    large: usize,
    base: [CostMatrix; 2],
    rng: StdRng,
    next: u64,
}

impl Stream {
    fn new(spec: &Spec, seed: u64) -> Self {
        let base = [0, 1]
            .map(|k| datasets::gaussian_cost_matrix(spec.small, 100, input_seed(seed, k) ^ 0x5e57));
        Self {
            seed,
            small: spec.small,
            large: spec.large,
            base,
            rng: StdRng::seed_from_u64(seed),
            next: 0,
        }
    }

    fn next(&mut self) -> Request {
        let i = self.next;
        self.next += 1;
        let s = input_seed(self.seed, i);
        let req = match (i % 3) as usize {
            2 => Request::new("c", datasets::gaussian_cost_matrix(self.large, 100, s)),
            k => {
                let fresh = datasets::gaussian_cost_matrix(self.small, 100, s);
                for r in 0..REPLACED_ROWS {
                    let at = self.rng.gen_range(0..self.small);
                    self.base[k].row_mut(at).copy_from_slice(fresh.row(r));
                }
                Request::new(["a", "b"][k], self.base[k].clone())
            }
        };
        if i % TIGHT_EVERY == TIGHT_EVERY - 1 {
            req.with_budget(TIGHT_BUDGET)
        } else {
            req
        }
    }
}

/// A service on the workload's device, warmed with one request per size
/// so the engine pool has compiled both programs; returns the set-up
/// seconds with it.
fn warmed_service(spec: &Spec, spans: &mut Spans) -> Result<(AssignmentService, f64), String> {
    let warmups =
        [spec.small, spec.large].map(|n| datasets::gaussian_cost_matrix(n, 100, n as u64));
    let start = Instant::now();
    let mut svc = AssignmentService::new(
        HunIpu::with_config(spec.device.clone()),
        ServiceConfig::default(),
    );
    for m in warmups {
        svc.submit_at(svc.now() + 1, Request::new("warmup", m))
            .map_err(|e| format!("warm-up refused: {e}"))?;
    }
    svc.run_until_idle();
    let setup_s = spans.end(start, "serve", "warm-up", 0) / 1e3;
    if svc.take_completed().iter().any(|o| o.response().is_none()) {
        return Err("a warm-up request failed".into());
    }
    Ok((svc, setup_s))
}

/// Outcome counts of one pass.
#[derive(Default)]
struct Tally {
    offered: u64,
    shed: u64,
    exact: u64,
    degraded: u64,
    deadline: u64,
    rerouted: u64,
}

struct Pending {
    matrix: CostMatrix,
    budget: Option<u64>,
    /// Id shared by the spans of the arrival that carried it in.
    span: u64,
}

/// Offers one pass of arrivals to a freshly warmed service on the
/// open-loop schedule, then drains it. Every answer is checked as it
/// completes; the service-level per-layer numbers are recorded at the end.
fn offer(svc: &mut AssignmentService, spec: &Spec, seed: u64, spans: &mut Spans, m: &mut Measured) {
    let mut stream = Stream::new(spec, seed);
    let mut tally = Tally::default();
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let clock_hz = spec.device.clock_hz;
    let pool0 = svc.metrics().pool;
    let t0 = svc.now();
    for k in 0..spec.arrivals as u64 {
        m.tick();
        let t = t0 + 1 + k * spec.gap;
        let req = stream.next();
        let (matrix, budget) = (req.matrix.clone(), req.budget_cycles);
        let id = m.attempted + 1;
        let request = Instant::now();
        let start = Instant::now();
        let admitted = svc.submit_at(t, req);
        spans.end(start, "serve", "AssignmentService::submit_at", id);
        let start = Instant::now();
        svc.advance_to(t);
        spans.end(start, "serve", "AssignmentService::advance_to", id);
        let wall_ms = spans.end(request, "request", "arrival", id);
        m.attempted += 1;
        m.wall_ms.push(wall_ms);
        m.timed_s += wall_ms / 1e3;
        m.layers.push("serve.step_ms", wall_ms);
        tally.offered += 1;
        match admitted {
            Ok(rid) => {
                pending.insert(
                    rid,
                    Pending {
                        matrix,
                        budget,
                        span: id,
                    },
                );
            }
            Err(LsapError::Overloaded { .. }) => {
                tally.shed += 1;
                m.fingerprint.add(k);
            }
            Err(e) => m.fail(format!("arrival {k} refused: {e}")),
        }
        check(
            svc.take_completed(),
            &mut pending,
            clock_hz,
            spans,
            m,
            &mut tally,
        );
    }
    let start = Instant::now();
    svc.run_until_idle();
    m.timed_s += spans.end(
        start,
        "serve",
        "AssignmentService::run_until_idle",
        m.attempted,
    ) / 1e3;
    check(
        svc.take_completed(),
        &mut pending,
        clock_hz,
        spans,
        m,
        &mut tally,
    );
    if !pending.is_empty() {
        m.problem(format!(
            "{} admitted requests never completed",
            pending.len()
        ));
    }

    m.exact = tally.exact;
    let metrics = svc.metrics();
    let pool = metrics.pool;
    let (hits, misses) = (pool.hits - pool0.hits, pool.misses - pool0.misses);
    let offered = tally.offered as f64;
    for (name, value) in [
        (
            "serve.seeded_frac",
            metrics.total(|t| t.seeded) as f64 / tally.exact.max(1) as f64,
        ),
        (
            "serve.seeded_fallbacks",
            metrics.total(|t| t.seeded_fallbacks) as f64 / offered,
        ),
        (
            "serve.pool_hit_frac",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        (
            "serve.program_load_cycles",
            (pool.load_cycles_charged - pool0.load_cycles_charged) as f64 / offered,
        ),
        ("serve.rerouted_frac", tally.rerouted as f64 / offered),
        ("serve.shed_frac", tally.shed as f64 / offered),
        ("serve.deadline_frac", tally.deadline as f64 / offered),
        ("serve.degraded_frac", tally.degraded as f64 / offered),
        ("serve.queue_high_water", metrics.queue_high_water as f64),
    ] {
        m.layers.push(name, value);
    }
}

/// Checks each finished request against ground truth, trusting nothing
/// the service claims: an exact answer must carry a verifying certificate
/// and the optimal objective; a degraded one a gap bound that holds.
fn check(
    outcomes: Vec<Outcome>,
    pending: &mut HashMap<u64, Pending>,
    clock_hz: f64,
    spans: &mut Spans,
    m: &mut Measured,
    tally: &mut Tally,
) {
    let ms = |cycles: u64| cycles as f64 / clock_hz * 1e3;
    for out in outcomes {
        let Some(p) = pending.remove(&out.id()) else {
            m.problem(format!("outcome for unknown request {}", out.id()));
            continue;
        };
        let r = match out {
            Outcome::Done(r) => r,
            Outcome::Failed(rej) => {
                if matches!(rej.error, LsapError::DeadlineExceeded { .. }) {
                    tally.deadline += 1;
                    m.fingerprint.add(rej.id);
                    m.fingerprint.add(rej.cycle);
                } else {
                    m.fail(format!("request {} failed: {}", rej.id, rej.error));
                }
                continue;
            }
        };
        let start = Instant::now();
        let opt = cpu_hungarian::ground_truth_objective(&p.matrix);
        spans.end(start, "cpu_hungarian", "ground_truth_objective", p.span);
        let tol = objective_tolerance(&p.matrix);
        let exact = r.quality == Quality::Exact;
        let right = if let Quality::Degraded {
            gap_bound,
            lower_bound,
        } = r.quality
        {
            r.assignment
                .cost(&p.matrix)
                .is_ok_and(|c| (c - r.objective).abs() <= tol)
                && lower_bound <= opt + tol
                && r.objective - opt <= gap_bound + tol
        } else {
            let report = SolveReport {
                assignment: r.assignment.clone(),
                objective: r.objective,
                certificate: r.certificate.clone(),
                stats: Default::default(),
            };
            let start = Instant::now();
            let verified = report.verify(&p.matrix, F32_VERIFY_EPS);
            m.layers.push(
                "lsap.verify_ms",
                spans.end(start, "lsap", "SolveReport::verify", p.span),
            );
            m.layers.push(
                "lsap.verify_failures",
                if verified.is_ok() { 0.0 } else { 1.0 },
            );
            verified.is_ok() && (r.objective - opt).abs() <= tol
        };
        if !right {
            m.fail(format!(
                "request {} answered {} ({:?}), optimum {opt}",
                r.id, r.objective, r.quality
            ));
            continue;
        }
        let latency = r.completion - r.arrival;
        m.modeled_ms.push(ms(latency));
        m.layers
            .push("serve.queue_wait_ms_p50", ms(r.start - r.arrival));
        m.layers
            .push("serve.service_ms_p50", ms(r.completion - r.start));
        if exact && p.budget.is_none_or(|b| latency <= b) {
            tally.exact += 1;
        }
        tally.rerouted += u64::from(exact && r.backend == "cpu-jv");
        tally.degraded += u64::from(!exact);
        for x in [
            r.id,
            u64::from(exact),
            r.arrival,
            r.start,
            r.completion,
            r.objective.to_bits(),
        ] {
            m.fingerprint.add(x);
        }
        m.fingerprint.add_bytes(r.backend.as_bytes());
        m.fingerprint.add_assignment(&r.assignment);
    }
}

pub fn run(ctx: &Ctx) -> Measured {
    let spec = spec(ctx.smoke);
    let m = Measured::new(spec.large, spec.arrivals);
    crate::run_passes(ctx, m, |spans, pass| {
        let mut svc = None;
        for _ in 0..SETUPS {
            match warmed_service(&spec, spans) {
                Ok((s, secs)) => {
                    pass.setup_s.push(secs);
                    svc = Some(s);
                }
                Err(e) => return pass.problem(e),
            }
        }
        if let Some(svc) = &mut svc {
            offer(svc, &spec, ctx.seed, spans, pass);
        }
    })
}
