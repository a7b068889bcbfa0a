//! End-to-end serving scenarios: overload shedding, micro-batching,
//! deadline-driven degradation, and the breaker/fault interplay — a
//! seeded fault storm trips the IPU breaker, traffic reroutes to the
//! CPU rung, and a half-open probe recovers once the storm passes.
//!
//! The overarching contract checked everywhere: **no silent wrong
//! answers.** Every response is either certificate-verified exact or
//! explicitly degraded with a sound optimality-gap bound, and every
//! refusal is an explicit error.

use hunipu::HunIpu;
use ipu_sim::{FaultPlan, IpuConfig};
use lsap::{CostMatrix, LsapError, LsapSolver};
use serve::{
    greedy_modeled_cycles, AssignmentService, BreakerState, Outcome, Quality, Request, Response,
    ServiceConfig,
};

const EPS: f64 = 1e-5;

/// Small device with a tight divergence watchdog, so fault-corrupted
/// loops fail fast instead of spinning out the default guard.
fn device() -> IpuConfig {
    IpuConfig {
        max_while_iterations: 20_000,
        ..IpuConfig::tiny(8)
    }
}

fn service(cfg: ServiceConfig) -> AssignmentService {
    AssignmentService::new(HunIpu::with_config(device()), cfg)
}

fn inst(n: usize, seed: u64) -> CostMatrix {
    datasets::gaussian_cost_matrix(n, 100, seed)
}

/// The CPU rung's cost for `m` on the service's device clock.
fn cpu_cycles(m: &CostMatrix) -> u64 {
    let jv = cpu_hungarian::JonkerVolgenant::new().solve(m).unwrap();
    (jv.stats.modeled_seconds.unwrap() * device().clock_hz).ceil() as u64
}

/// Heavy seeded storm: slack-matrix bit flips dense enough that an IPU
/// attempt cannot produce a verifiable certificate while armed.
fn storm(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with_bit_flips(0.5)
        .targeting("slack")
        .after_supersteps(10)
}

/// Asserts the no-silent-wrong-answers contract for one response.
fn assert_sound(r: &Response, m: &CostMatrix) {
    let cost = r.assignment.cost(m).expect("perfect matching");
    assert!(
        (cost - r.objective).abs() <= 1e-6 * (1.0 + cost.abs()),
        "claimed objective must match the matching"
    );
    let opt = cpu_hungarian::ground_truth_objective(m);
    match &r.quality {
        Quality::Exact => {
            r.certificate
                .verify(m, &r.assignment, EPS)
                .expect("exact answers carry a verifying certificate");
            assert!(
                (r.objective - opt).abs() <= 1e-5 * (1.0 + opt.abs()),
                "exact answer must be the optimum: {} vs {opt}",
                r.objective
            );
        }
        Quality::Degraded {
            gap_bound,
            lower_bound,
        } => {
            assert!(
                *lower_bound <= opt + 1e-9,
                "lower bound must not exceed the optimum"
            );
            assert!(
                r.objective - opt <= gap_bound + 1e-9,
                "true gap {} must be within the claimed bound {gap_bound}",
                r.objective - opt
            );
        }
    }
}

#[test]
fn clean_path_serves_exact_verified_answers_from_one_compile() {
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 2,
        batch_window_cycles: 0,
        ..ServiceConfig::default()
    });
    let matrices: Vec<_> = (0..4).map(|s| inst(12, s)).collect();
    for m in &matrices {
        svc.submit_at(0, Request::new("tenant-a", m.clone()))
            .unwrap();
    }
    svc.run_until_idle();
    let done = svc.take_completed();
    assert_eq!(done.len(), 4);
    for (out, m) in done.iter().zip(&matrices) {
        match out {
            Outcome::Done(r) => {
                assert_eq!(r.backend, "hunipu");
                assert_eq!(r.quality, Quality::Exact);
                assert!(r.completion > r.start && r.start >= r.arrival);
                assert_sound(r, m);
            }
            Outcome::Failed(rej) => panic!("clean path must answer: {:?}", rej.error),
        }
    }
    let metrics = svc.metrics();
    let t = &metrics.tenants["tenant-a"];
    assert_eq!(t.exact, 4);
    assert_eq!((t.degraded, t.shed, t.deadline_exceeded), (0, 0, 0));
    assert!(t.p50().is_some() && t.p99() >= t.p50());
    // One shape -> one compile; every later checkout is warm.
    assert_eq!(metrics.pool.misses, 1);
    assert_eq!(metrics.pool.hits, 3);
}

#[test]
fn admission_control_sheds_beyond_queue_capacity() {
    let mut svc = service(ServiceConfig {
        queue_capacity: 2,
        max_batch: 1,
        batch_window_cycles: 0,
        ..ServiceConfig::default()
    });
    let m = inst(8, 1);
    // First request starts on the free device immediately; the next two
    // arrive while it occupies the device and back up in the queue.
    assert!(svc.submit_at(0, Request::new("a", m.clone())).is_ok());
    assert!(svc.submit_at(0, Request::new("a", m.clone())).is_ok());
    assert!(svc.submit_at(0, Request::new("a", m.clone())).is_ok());
    assert_eq!(svc.queue_depth(), 2, "device busy, two waiting");
    // Queue full: shed at the door, synchronously.
    match svc.submit_at(0, Request::new("a", m.clone())) {
        Err(LsapError::Overloaded {
            queue_depth,
            capacity,
        }) => {
            assert_eq!((queue_depth, capacity), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(svc.metrics().tenants["a"].shed, 1);
    assert_eq!(svc.metrics().queue_high_water, 2);

    svc.run_until_idle();
    assert_eq!(svc.take_completed().len(), 3, "admitted requests complete");
    assert_eq!(svc.queue_depth(), 0);
    // With the queue drained, admission opens again.
    assert!(svc.submit_at(1, Request::new("a", m)).is_ok());
}

#[test]
fn micro_batching_coalesces_same_shape_arrivals_in_the_window() {
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 3,
        batch_window_cycles: 10_000,
        ..ServiceConfig::default()
    });
    let m = inst(10, 2);
    svc.submit_at(0, Request::new("a", m.clone())).unwrap();
    svc.submit_at(100, Request::new("b", m.clone())).unwrap();
    svc.submit_at(200, Request::new("a", m.clone())).unwrap();
    svc.run_until_idle();
    let done = svc.take_completed();
    assert_eq!(done.len(), 3);
    let starts: Vec<u64> = done
        .iter()
        .map(|o| o.response().expect("clean run").start)
        .collect();
    // A full batch launches when its last member arrives.
    assert_eq!(starts, vec![200, 200, 200]);
    // One compile for the whole batch.
    assert_eq!(svc.metrics().pool.misses, 1);
    assert_eq!(svc.metrics().pool.hits, 2);
    // Members complete back-to-back in admission order on one device.
    let completions: Vec<u64> = done
        .iter()
        .map(|o| o.response().unwrap().completion)
        .collect();
    assert!(completions.windows(2).all(|w| w[0] < w[1]));
}

/// The full ladder under deadline pressure, with learned estimates:
/// exact-IPU for the unconstrained request, exact-CPU when the storm
/// benches the IPU, greedy-with-bound when the budget fits nothing
/// exact, and an explicit rejection when even greedy does not fit.
#[test]
fn deadline_budgets_descend_the_ladder_and_never_overshoot_silently() {
    const N: usize = 32;
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 1,
        batch_window_cycles: 0,
        breaker_threshold: 1,
        breaker_cooldown_cycles: u64::MAX / 4, // stays open for the test
        max_attempts: 1,
        ..ServiceConfig::default()
    });

    // Phase A: unconstrained request on a clean device -> exact on the
    // IPU; the service learns the IPU's cycle estimate for this shape.
    let m_a = inst(N, 10);
    svc.submit_at(0, Request::new("t", m_a.clone())).unwrap();
    svc.run_until_idle();
    let a = svc.take_completed().pop().unwrap();
    let a = a.response().expect("clean solve");
    assert_eq!(a.backend, "hunipu");
    assert_sound(a, &m_a);

    // Phase B: storm on -> the single IPU attempt fails verification,
    // trips the breaker (threshold 1), and the request reroutes to the
    // CPU rung — still exact, still verified. Learns the CPU estimate.
    svc.set_fault_plan(Some(storm(42)));
    let m_b = inst(N, 11);
    let t_b = svc.now() + 1;
    svc.submit_at(t_b, Request::new("t", m_b.clone())).unwrap();
    svc.run_until_idle();
    let b = svc.take_completed().pop().unwrap();
    let b = b.response().expect("CPU rung must answer");
    assert_eq!(b.backend, "cpu-jv");
    assert_sound(b, &m_b);
    assert_eq!(svc.breaker_state("hunipu"), Some(BreakerState::Open));
    assert_eq!(svc.metrics().tenants["t"].rerouted, 1);

    // Phase C: budget below every exact estimate but above the greedy
    // charge -> degraded answer with an explicit, sound gap bound.
    svc.set_fault_plan(None);
    let m_c = inst(N, 12);
    // The CPU rung's cost, measured independently — both for the matrix
    // the service learned its estimate from (m_b) and for the new one.
    let cpu_cycles = [&m_b, &m_c].iter().map(|m| cpu_cycles(m)).min().unwrap();
    let greedy = greedy_modeled_cycles(N);
    assert!(
        greedy + 2 < cpu_cycles,
        "test precondition: greedy must be cheaper than exact-CPU"
    );
    let budget = greedy + (cpu_cycles - greedy) / 2;
    let t_c = svc.now() + 1;
    svc.submit_at(t_c, Request::new("t", m_c.clone()).with_budget(budget))
        .unwrap();
    svc.run_until_idle();
    let c = svc.take_completed().pop().unwrap();
    let c = c.response().expect("greedy rung must answer");
    assert_eq!(c.backend, "greedy");
    assert!(matches!(c.quality, Quality::Degraded { .. }));
    assert!(
        c.completion - c.arrival <= budget,
        "degraded answer must land inside its budget"
    );
    assert_sound(c, &m_c);

    // Phase D: budget below even the greedy charge -> explicit deadline
    // rejection, nothing launched.
    let t_d = svc.now() + 1;
    svc.submit_at(t_d, Request::new("t", inst(N, 13)).with_budget(100))
        .unwrap();
    svc.run_until_idle();
    match svc.take_completed().pop().unwrap() {
        Outcome::Failed(rej) => match rej.error {
            LsapError::DeadlineExceeded {
                budget_cycles,
                needed_cycles,
            } => {
                assert_eq!(budget_cycles, 100);
                assert!(needed_cycles > 100);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        },
        Outcome::Done(r) => panic!("a 100-cycle budget cannot be served: {:?}", r.quality),
    }
    let t = &svc.metrics().tenants["t"];
    assert_eq!((t.exact, t.degraded, t.deadline_exceeded), (2, 1, 1));
}

/// The breaker life cycle under a seeded fault storm: consecutive
/// verification failures trip it, traffic reroutes to the CPU (every
/// answer still exact and verified), and after the cooldown a half-open
/// probe on a clean device closes it again.
#[test]
fn fault_storm_trips_breaker_reroutes_and_half_open_probe_recovers() {
    const N: usize = 32;
    const COOLDOWN: u64 = 50_000_000;
    let mut svc = service(ServiceConfig {
        queue_capacity: 16,
        max_batch: 1,
        batch_window_cycles: 0,
        breaker_threshold: 2,
        breaker_cooldown_cycles: COOLDOWN,
        max_attempts: 2,
        ..ServiceConfig::default()
    });

    // Clean warm-up: learns the IPU estimate, leaves the breaker closed.
    let m0 = inst(N, 20);
    svc.submit_at(0, Request::new("t", m0.clone())).unwrap();
    svc.run_until_idle();
    assert_eq!(
        svc.take_completed()
            .pop()
            .unwrap()
            .response()
            .unwrap()
            .backend,
        "hunipu"
    );

    // Storm: every armed IPU attempt is corrupted; the certificate check
    // turns each into a detected failure, never a wrong answer.
    svc.set_fault_plan(Some(storm(7)));
    let storm_matrices: Vec<_> = (21..25).map(|s| inst(N, s)).collect();
    for m in &storm_matrices {
        let t = svc.now() + 1;
        svc.submit_at(t, Request::new("t", m.clone())).unwrap();
        svc.run_until_idle();
    }
    let outcomes = svc.take_completed();
    assert_eq!(outcomes.len(), storm_matrices.len());
    let mut last_completion = 0;
    for (out, m) in outcomes.iter().zip(&storm_matrices) {
        let r = out.response().expect("ladder answers under the storm");
        assert_eq!(r.backend, "cpu-jv", "storm traffic reroutes to the CPU");
        assert_sound(r, m);
        last_completion = last_completion.max(r.completion);
    }
    assert_eq!(svc.breaker_state("hunipu"), Some(BreakerState::Open));
    let trips: Vec<_> = svc
        .metrics()
        .breaker_transitions
        .iter()
        .filter(|t| t.backend == "hunipu" && t.to == BreakerState::Open)
        .collect();
    assert_eq!(trips.len(), 1, "one trip, then the breaker sheds IPU load");
    assert!(svc.metrics().tenants["t"].retries >= 1);
    assert!(svc.metrics().tenants["t"].rerouted >= 3);

    // Storm passes; after the cooldown the next request is the half-open
    // probe, succeeds on the clean device, and closes the breaker. The
    // breaker tripped at some device cycle before the last storm
    // completion, so a probe one full cooldown after that is admitted.
    svc.set_fault_plan(None);
    let m_probe = inst(N, 30);
    let t_probe = last_completion + COOLDOWN + 1;
    svc.submit_at(t_probe, Request::new("t", m_probe.clone()))
        .unwrap();
    svc.run_until_idle();
    let probe = svc.take_completed().pop().unwrap();
    let probe = probe.response().expect("probe must answer");
    assert_eq!(probe.backend, "hunipu", "probe goes back to the IPU");
    assert_sound(probe, &m_probe);
    assert_eq!(svc.breaker_state("hunipu"), Some(BreakerState::Closed));
    let hunipu_states: Vec<BreakerState> = svc
        .metrics()
        .breaker_transitions
        .iter()
        .filter(|t| t.backend == "hunipu")
        .map(|t| t.to)
        .collect();
    assert_eq!(
        hunipu_states,
        vec![
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed
        ],
        "trip -> probe -> recovery, in virtual-time order"
    );
}

/// Same seed, same workload -> bit-identical responses and metrics,
/// storms included. This is the property the CI gate relies on.
#[test]
fn serving_under_faults_is_deterministic_for_a_fixed_seed() {
    const N: usize = 24;
    let run = || {
        let mut svc = service(ServiceConfig {
            queue_capacity: 4,
            max_batch: 2,
            batch_window_cycles: 5_000,
            breaker_threshold: 2,
            max_attempts: 2,
            default_budget_cycles: Some(400_000_000),
            ..ServiceConfig::default()
        });
        let mut log: Vec<String> = Vec::new();
        svc.set_fault_plan(Some(storm(99)));
        for (i, seed) in (40..46).enumerate() {
            let t = (i as u64) * 3_000;
            match svc.submit_at(t, Request::new(format!("t{}", i % 2), inst(N, seed))) {
                Ok(id) => log.push(format!("admit {id}")),
                Err(e) => log.push(format!("shed {e}")),
            }
        }
        svc.run_until_idle();
        for out in svc.take_completed() {
            match out {
                Outcome::Done(r) => log.push(format!(
                    "done {} {} {:?} {} {} {}",
                    r.id, r.backend, r.quality, r.arrival, r.completion, r.objective
                )),
                Outcome::Failed(rej) => log.push(format!("fail {} {}", rej.id, rej.error)),
            }
        }
        log.push(serde_json::to_string(svc.metrics()).unwrap());
        log
    };
    assert_eq!(
        run(),
        run(),
        "same seed must reproduce the same serving run"
    );
}

/// Degraded answers are still safe when the whole ladder above greedy is
/// unavailable: breakers open on both exact rungs leave only greedy,
/// which must label itself.
#[test]
fn greedy_is_the_floor_when_both_exact_rungs_are_benched() {
    const N: usize = 16;
    let mut svc = service(ServiceConfig {
        queue_capacity: 4,
        max_batch: 1,
        batch_window_cycles: 0,
        breaker_threshold: 1,
        breaker_cooldown_cycles: u64::MAX / 4,
        max_attempts: 1,
        ..ServiceConfig::default()
    });
    // A divergence-heavy storm kills the IPU rung's only attempt; the
    // CPU rung still answers (its breaker is healthy), so to bench the
    // exact rungs entirely we give the request a budget only greedy
    // fits, *after* the estimates are learned.
    svc.submit_at(0, Request::new("t", inst(N, 50))).unwrap();
    svc.run_until_idle();
    svc.set_fault_plan(Some(storm(3)));
    let t = svc.now() + 1;
    svc.submit_at(t, Request::new("t", inst(N, 51))).unwrap();
    svc.run_until_idle();
    assert_eq!(svc.breaker_state("hunipu"), Some(BreakerState::Open));
    svc.take_completed();

    let m = inst(N, 52);
    // The estimate the service consults was learned from inst(N, 51);
    // stay below the CPU cost of both matrices.
    let cpu_cycles = [inst(N, 51), m.clone()]
        .iter()
        .map(cpu_cycles)
        .min()
        .unwrap();
    let greedy = greedy_modeled_cycles(N);
    assert!(
        greedy + 2 < cpu_cycles,
        "precondition: greedy under exact-CPU"
    );
    let budget = greedy + (cpu_cycles - greedy) / 2;
    let t = svc.now() + 1;
    svc.submit_at(t, Request::new("t", m.clone()).with_budget(budget))
        .unwrap();
    svc.run_until_idle();
    let out = svc.take_completed().pop().unwrap();
    let r = out.response().expect("greedy floor answers");
    assert_eq!(r.backend, "greedy");
    assert_sound(r, &m);
    match r.quality {
        Quality::Degraded { gap_bound, .. } => assert!(gap_bound >= 0.0),
        Quality::Exact => panic!("a greedy answer must never claim exactness"),
    }
}

/// Sequential same-shape requests from one tenant descend to the seeded
/// rung after the first answer: the tenant's previous duals are repaired
/// and the device skips Step 1, with every answer still
/// certificate-verified and the re-solves strictly cheaper on the device
/// clock than the tenant's cold solve.
#[test]
fn same_tenant_same_shape_streams_hit_the_seeded_rung() {
    const N: usize = 12;
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 1,
        batch_window_cycles: 0,
        ..ServiceConfig::default()
    });
    // A stream: each request perturbs one row of the previous instance
    // by an integer bump (integer costs keep the f32 dual repair exact),
    // so most of the previous matching survives and the usefulness gate
    // lets the seeded rung run.
    let mut matrices = vec![inst(N, 60)];
    for tick in 1..4usize {
        let mut m = matrices[tick - 1].clone();
        let row = (tick * 5) % N;
        for j in 0..N {
            m.set(row, j, m.get(row, j) + ((tick + j) % 7) as f64 + 1.0);
        }
        matrices.push(m);
    }
    for m in &matrices {
        let t = svc.now() + 1;
        svc.submit_at(t, Request::new("streamer", m.clone()))
            .unwrap();
        svc.run_until_idle();
    }
    let done = svc.take_completed();
    assert_eq!(done.len(), 4);
    let mut latencies = Vec::new();
    for (out, m) in done.iter().zip(&matrices) {
        let r = out.response().expect("clean path answers");
        assert_eq!(r.backend, "hunipu");
        assert_sound(r, m);
        latencies.push(r.completion - r.arrival);
    }
    let t = &svc.metrics().tenants["streamer"];
    assert_eq!(t.exact, 4);
    // First request solves cold; the rest ride the warm duals (or fall
    // back with an explicit count — with no faults armed they must not).
    assert_eq!(t.seeded, 3, "metrics: {t:?}");
    assert_eq!(t.seeded_fallbacks, 0);
    // The seeded re-solves run on the program the cold solve loaded, so
    // the shape is loaded once and no re-solve pays a load: from the
    // second request on, the full re-solve (repair + Steps 2-6) costs
    // less than that one load, let alone the tenant's cold solve.
    let pool = &svc.metrics().pool;
    assert_eq!(pool.misses, 1, "pool: {pool:?}");
    assert!(
        latencies[1..]
            .iter()
            .all(|&l| l < latencies[0] && l < pool.load_cycles_charged),
        "warm re-solves should be cheaper: {latencies:?}, load {}",
        pool.load_cycles_charged
    );
}

/// A shape that routes to the tiled program has no seeded re-solve: the
/// seeded rung fails with a backend error, the service counts a seeded
/// fallback, and the cold device rung answers exactly.
#[test]
fn seeded_rung_on_a_tiled_route_falls_back_to_a_cold_solve() {
    const N: usize = 12;
    let solver = HunIpu::with_config(device()).with_layout_mode(hunipu::LayoutMode::Tiled);
    let mut svc = AssignmentService::new(
        solver,
        ServiceConfig {
            queue_capacity: 8,
            max_batch: 1,
            batch_window_cycles: 0,
            ..ServiceConfig::default()
        },
    );
    let first = inst(N, 61);
    let mut second = first.clone();
    for j in 0..N {
        second.set(3, j, second.get(3, j) + (j % 5) as f64 + 1.0);
    }
    for m in [&first, &second] {
        let t = svc.now() + 1;
        svc.submit_at(t, Request::new("tiled", m.clone())).unwrap();
        svc.run_until_idle();
    }
    let done = svc.take_completed();
    assert_eq!(done.len(), 2);
    for (out, m) in done.iter().zip([&first, &second]) {
        let r = out.response().expect("the cold rung answers");
        assert_eq!(r.backend, "hunipu");
        assert_sound(r, m);
    }
    let t = &svc.metrics().tenants["tiled"];
    assert_eq!(t.exact, 2, "metrics: {t:?}");
    assert_eq!(t.seeded, 0, "metrics: {t:?}");
    assert_eq!(t.seeded_fallbacks, 1, "metrics: {t:?}");
}

/// Duals from a CPU-rung answer seed the device: a fault storm reroutes
/// a tenant's first request to the CPU, and once the storm passes the
/// same tenant's next same-shape request is answered on the device by
/// the seeded rung, warm-started from the CPU's f64 duals.
#[test]
fn cpu_answer_seeds_the_device_rung() {
    const N: usize = 32;
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 1,
        batch_window_cycles: 0,
        breaker_threshold: 1000, // keep the IPU rung admitting after the storm
        max_attempts: 1,
        ..ServiceConfig::default()
    });
    svc.set_fault_plan(Some(storm(42)));
    let m0 = inst(N, 11);
    svc.submit_at(1, Request::new("streamer", m0.clone()))
        .unwrap();
    svc.run_until_idle();
    let first = svc.take_completed().pop().unwrap();
    let r = first.response().expect("the CPU rung answers the storm");
    assert_eq!(r.backend, "cpu-jv", "storm reroutes to the CPU");
    assert_sound(r, &m0);

    svc.set_fault_plan(None);
    // Same tenant, same shape, one perturbed row: the CPU answer's duals
    // seed the device rung.
    let mut m1 = m0.clone();
    for j in 0..N {
        m1.set(2, j, m1.get(2, j) + 3.0);
    }
    let t = svc.now() + 1;
    svc.submit_at(t, Request::new("streamer", m1.clone()))
        .unwrap();
    svc.run_until_idle();
    let second = svc.take_completed().pop().unwrap();
    let r = second.response().expect("seeded rung answers");
    assert_eq!(r.backend, "hunipu", "warm duals route back to the device");
    assert_sound(r, &m1);
    let t = &svc.metrics().tenants["streamer"];
    assert_eq!((t.rerouted, t.seeded), (1, 1), "metrics: {t:?}");
    assert_eq!(t.seeded_fallbacks, 0, "metrics: {t:?}");
}

/// `m` with row `row` raised by a non-uniform integer bump: close enough
/// to `m` for its warm start to pass the usefulness gate.
fn bumped(m: &CostMatrix, row: usize) -> CostMatrix {
    let mut next = m.clone();
    for j in 0..m.n() {
        next.set(row, j, next.get(row, j) + (j % 7) as f64 + 1.0);
    }
    next
}

/// One request per step on a fresh single-request-batch service,
/// returning each step's `(tenant seeded, tenant fallbacks)` after it.
fn serve_in_turn(steps: &[(&str, CostMatrix)]) -> Vec<(u64, u64)> {
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 1,
        batch_window_cycles: 0,
        ..ServiceConfig::default()
    });
    steps
        .iter()
        .map(|(tenant, m)| {
            let t = svc.now() + 1;
            svc.submit_at(t, Request::new(*tenant, m.clone())).unwrap();
            svc.run_until_idle();
            let out = svc.take_completed().pop().unwrap();
            let r = out.response().expect("clean path answers");
            assert_eq!(r.quality, Quality::Exact);
            assert_sound(r, m);
            let t = &svc.metrics().tenants[*tenant];
            (t.seeded, t.seeded_fallbacks)
        })
        .collect()
}

/// The usefulness gate: a same-shape matrix unrelated to the tenant's
/// last one keeps too little of the old matching, so the seeded rung is
/// skipped (not tried and counted as a fallback) and the request solves
/// cold. A related matrix after it seeds again, from the cold answer.
#[test]
fn an_unrelated_matrix_skips_the_seeded_rung_without_a_fallback() {
    const N: usize = 12;
    let unrelated = inst(N, 71);
    let counts = serve_in_turn(&[
        ("t", inst(N, 70)),
        ("t", unrelated.clone()),
        ("t", bumped(&unrelated, 3)),
    ]);
    assert_eq!(counts, vec![(0, 0), (0, 0), (1, 0)]);
}

/// Warm starts are kept per tenant: a near-identical matrix from
/// another tenant does not ride the first tenant's duals.
#[test]
fn warm_starts_are_not_shared_across_tenants() {
    const N: usize = 12;
    let m = inst(N, 72);
    let counts = serve_in_turn(&[("a", m.clone()), ("b", bumped(&m, 2)), ("a", bumped(&m, 5))]);
    assert_eq!(counts, vec![(0, 0), (0, 0), (1, 0)]);
}

/// Warm starts are kept per shape: a request of another size solves
/// cold and leaves the tenant's seed for the first size in place.
#[test]
fn warm_starts_are_kept_per_shape() {
    let m12 = inst(12, 73);
    let counts = serve_in_turn(&[
        ("t", m12.clone()),
        ("t", inst(8, 74)),
        ("t", bumped(&m12, 4)),
    ]);
    assert_eq!(counts, vec![(0, 0), (0, 0), (1, 0)]);
}

/// A fault storm corrupting the seeded re-solve must surface as counted
/// fallbacks (or breaker-benched cold attempts) — never as an incorrect
/// answer.
#[test]
fn seeded_rung_falls_back_loudly_under_fault_storm() {
    const N: usize = 12;
    let mut svc = service(ServiceConfig {
        queue_capacity: 8,
        max_batch: 1,
        batch_window_cycles: 0,
        breaker_threshold: 1000, // keep the IPU rung admitting all storm long
        ..ServiceConfig::default()
    });
    // Clean first answer plants the warm start.
    let m0 = inst(N, 80);
    svc.submit_at(1, Request::new("stormy", m0.clone()))
        .unwrap();
    svc.run_until_idle();
    // Storm: every device launch (seeded and cold) is corrupted, so the
    // request must reroute to the CPU rung — exactly, not silently.
    // Flips from superstep 0: a one-row seeded re-solve is short enough
    // to finish before a delayed storm starts, which would let it answer
    // cleanly.
    svc.set_fault_plan(Some(
        FaultPlan::new(9)
            .with_bit_flips(0.2)
            .targeting("slack")
            .after_supersteps(0),
    ));
    // One perturbed row keeps the warm start useful, so the seeded rung
    // genuinely launches into the storm (instead of being skipped by the
    // host-side usefulness gate).
    let mut m1 = m0.clone();
    for j in 0..N {
        m1.set(3, j, m1.get(3, j) + 5.0);
    }
    let t = svc.now() + 1;
    svc.submit_at(t, Request::new("stormy", m1.clone()))
        .unwrap();
    svc.run_until_idle();
    let done = svc.take_completed();
    for (out, m) in done.iter().zip([&m0, &m1]) {
        let r = out.response().expect("ladder answers despite the storm");
        assert_sound(r, m);
    }
    let t = &svc.metrics().tenants["stormy"];
    assert_eq!(t.exact, 2);
    assert_eq!(
        t.seeded_fallbacks, 1,
        "the corrupted seeded attempt must be counted: {t:?}"
    );
    assert_eq!(t.seeded, 0);
    assert_eq!(t.rerouted, 1, "storm answer comes from the CPU rung");
}

#[test]
fn ill_formed_requests_are_refused_at_admission_and_never_queued() {
    let mut svc = service(ServiceConfig::default());
    let m = CostMatrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
    let refused = svc.submit_at(0, Request::new("a", m));
    assert!(matches!(
        refused,
        Err(LsapError::NotSquare { rows: 2, cols: 3 })
    ));
    assert_eq!(svc.queue_depth(), 0);
    assert!(svc.metrics().tenants.is_empty(), "nothing counted");
    svc.run_until_idle();
    assert!(svc.take_completed().is_empty());
}

/// With no learned estimate, a deadline cannot skip the device rung: it
/// runs, and an exact answer landing late is a deadline failure.
#[test]
fn an_unlearned_device_rung_runs_and_a_late_answer_fails_its_deadline() {
    let mut svc = service(ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default()
    });
    svc.submit_at(0, Request::new("t", inst(16, 1)).with_budget(1))
        .unwrap();
    svc.run_until_idle();
    let Outcome::Failed(rej) = svc.take_completed().pop().unwrap() else {
        panic!("a 1-cycle budget cannot be met");
    };
    let e = rej.error;
    assert!(
        matches!(e, LsapError::DeadlineExceeded { budget_cycles: 1, needed_cycles: c } if c > 1),
        "{e:?}"
    );
    let t = &svc.metrics().tenants["t"];
    assert_eq!((t.exact, t.rerouted, t.deadline_exceeded), (0, 0, 1));
    assert_eq!(svc.metrics().pool.misses, 1, "the device rung ran");
}

/// The exact rungs go device, then CPU, each skipped only by its own
/// learned estimate: once the device's cost for a shape is known to
/// exceed a budget, the still-unlearned CPU rung answers within it.
#[test]
fn a_learned_device_estimate_past_the_budget_skips_to_the_cpu_rung() {
    const N: usize = 32;
    let mut svc = service(ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default()
    });
    let (m_a, m_b) = (inst(N, 20), inst(N, 21));
    let ipu = HunIpu::with_config(device()).solve(&m_a).unwrap();
    let ipu_cycles = ipu.stats.modeled_cycles.unwrap();
    let cpu_cycles = cpu_cycles(&m_b);
    assert!(cpu_cycles < ipu_cycles, "test precondition");

    svc.submit_at(0, Request::new("a", m_a)).unwrap();
    svc.run_until_idle();
    let first = svc.take_completed();
    assert_eq!(first[0].response().unwrap().backend, "hunipu");
    // Another tenant, so no warm start applies.
    let req = Request::new("b", m_b.clone()).with_budget(ipu_cycles - 1);
    svc.submit_at(svc.now() + 1, req).unwrap();
    svc.run_until_idle();
    let done = svc.take_completed();
    let r = done[0].response().expect("the CPU rung fits the budget");
    assert_eq!(r.backend, "cpu-jv");
    assert_eq!(r.completion - r.start, cpu_cycles, "no device attempt");
    assert_sound(r, &m_b);
}
