//! Differential tests for the lowered execution plan: the plan path must
//! be **bit-identical** to the tree-walking interpreter — buffers,
//! `CycleStats`, `FaultStats`, and recorded profiles. The plan is a
//! wall-clock optimization only; if any of these tests can tell the two
//! paths apart, the determinism contract is broken.
//!
//! Scenarios: plain solves, faulty solves, snapshot/restore, batch runs
//! (fault-free and under the verify-and-retry loop), raw control-flow
//! graphs, and random graphs.

use hunipu::{BatchHunIpu, HunIpu};
use ipu_sim::{
    Access, ComputeSetId, DType, ExecMode, FaultPlan, Graph, IpuConfig, ProfileConfig, Program,
    Tensor,
};
use lsap::{BatchLsapSolver, CostMatrix};
use proptest::prelude::*;

/// Big enough for a non-trivial solve, small enough to keep the suite
/// fast.
const N: usize = 96;

const MODES: [ExecMode; 2] = [ExecMode::Interpreted, ExecMode::Plan];

fn mk2(mode: ExecMode) -> IpuConfig {
    IpuConfig {
        exec_mode: mode,
        ..IpuConfig::mk2()
    }
}

/// Everything a solve can produce, stringified for exact comparison:
/// objective bits, assignment, dual bits, and the full cycle statistics
/// (which include per-compute-set breakdowns and fault counters).
fn solve_fingerprint(mode: ExecMode, seed: u64) -> String {
    let m = datasets::gaussian_cost_matrix(N, 100, seed);
    let (rep, engine) = HunIpu::with_config(mk2(mode))
        .solve_with_engine(&m)
        .unwrap();
    let duals: Vec<u64> = rep
        .certificate
        .u
        .iter()
        .chain(rep.certificate.v.iter())
        .map(|x| x.to_bits())
        .collect();
    format!(
        "obj={:016x} pairs={:?} duals={duals:?} stats={:?}",
        rep.objective.to_bits(),
        rep.assignment.pairs().collect::<Vec<_>>(),
        engine.stats()
    )
}

#[test]
fn solves_are_bit_identical_interpreted_vs_plan() {
    assert_eq!(
        solve_fingerprint(ExecMode::Interpreted, 11),
        solve_fingerprint(ExecMode::Plan, 11),
        "plan solve diverged from the interpreter"
    );
}

#[test]
fn profiles_are_bit_identical_interpreted_vs_plan() {
    let profile = |mode: ExecMode| {
        let m = datasets::gaussian_cost_matrix(N, 100, 13);
        let (_, engine) = HunIpu::with_config(mk2(mode))
            .with_profiling(ProfileConfig::default())
            .solve_with_engine(&m)
            .unwrap();
        engine.profile().cloned().expect("profiler installed")
    };
    assert_eq!(
        profile(ExecMode::Interpreted),
        profile(ExecMode::Plan),
        "plan profile diverged from the interpreter"
    );
}

#[test]
fn faulty_solves_are_bit_identical_interpreted_vs_plan() {
    // Faults draw from a seeded stream as supersteps execute; the plan
    // path must advance the stream exactly like the interpreter —
    // including the outcome (success, wrong result, or divergence) and
    // every `FaultStats` counter.
    let run = |mode: ExecMode| {
        let m = datasets::gaussian_cost_matrix(N, 100, 7);
        let plan = FaultPlan::new(42)
            .with_bit_flips(0.01)
            .with_exchange_corruption(0.005)
            .with_stragglers(0.02, 3.0)
            .after_supersteps(50);
        let solver = HunIpu::with_config(IpuConfig {
            max_while_iterations: 50_000,
            ..mk2(mode)
        })
        .with_fault_plan(plan);
        match solver.solve_with_engine(&m) {
            Ok((rep, engine)) => format!(
                "ok obj={:016x} cycles={} faults={:?}",
                rep.objective.to_bits(),
                engine.stats().total_cycles(),
                engine.stats().faults
            ),
            Err(e) => format!("err {e}"),
        }
    };
    assert_eq!(
        run(ExecMode::Interpreted),
        run(ExecMode::Plan),
        "faulty plan solve diverged from the interpreter"
    );
}

#[test]
fn warm_snapshot_restore_is_bit_identical_interpreted_vs_plan() {
    // Warm engines restore a pristine snapshot before every solve, which
    // is exactly the path that must rebind the plan's pre-resolved field
    // pointers. Stream two different instances through one warm engine
    // per mode: both solves must match the interpreter's bit-for-bit.
    let run = |mode: ExecMode| {
        let solver = HunIpu::with_config(mk2(mode));
        let mut warm = solver.warm(N).unwrap();
        let mut out = Vec::new();
        for seed in [3u64, 4] {
            let m = datasets::gaussian_cost_matrix(N, 100, seed);
            let rep = warm.solve(&solver, &m).unwrap();
            out.push(format!(
                "obj={:016x} cycles={:?} steps={}",
                rep.objective.to_bits(),
                rep.stats.modeled_cycles,
                rep.stats.device_steps
            ));
        }
        out
    };
    assert_eq!(
        run(ExecMode::Interpreted),
        run(ExecMode::Plan),
        "warm restore+solve diverged between interpreter and plan"
    );
}

/// One line per instance capturing everything an instance solve can
/// produce: objective bits, assignment, duals, and modeled statistics.
fn report_fingerprint(r: &lsap::SolveReport) -> String {
    format!(
        "obj={:016x} pairs={:?} u0={:016x} cycles={:?} aug={} dual={} steps={}",
        r.objective.to_bits(),
        r.assignment.pairs().collect::<Vec<_>>(),
        r.certificate.u[0].to_bits(),
        r.stats.modeled_cycles,
        r.stats.augmentations,
        r.stats.dual_updates,
        r.stats.device_steps,
    )
}

fn gaussian_batch(count: u64, seed: u64) -> Vec<CostMatrix> {
    (0..count)
        .map(|i| datasets::gaussian_cost_matrix(N, 100, seed + i))
        .collect()
}

#[test]
fn batch_runs_match_independent_singles_interpreted_vs_plan() {
    let batch = gaussian_batch(3, 21);
    let run = |mode: ExecMode| {
        let solver = HunIpu::with_config(mk2(mode));
        let rep = BatchHunIpu::with_solver(solver)
            .solve_batch(&batch)
            .unwrap();
        rep.verify_all(&batch, hunipu::F32_VERIFY_EPS).unwrap();
        assert_eq!(rep.stats.retries, 0, "fault-free batch must not retry");
        rep.reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>()
    };
    let reference = run(ExecMode::Interpreted);
    assert_eq!(reference, run(ExecMode::Plan), "plan batch diverged");
    // The batch must equal B independent single-instance solves.
    for mode in MODES {
        for (m, fp) in batch.iter().zip(&reference) {
            let (rep, _) = HunIpu::with_config(mk2(mode)).solve_with_engine(m).unwrap();
            assert_eq!(
                &report_fingerprint(&rep),
                fp,
                "{mode:?}: batch diverged from solo"
            );
        }
    }
}

#[test]
fn faulty_batch_matches_sequential_retry_loop_interpreted_vs_plan() {
    // Mild fault plan: instances mostly succeed, some only after the
    // verify-and-retry loop re-runs them under a decorrelated seed. The
    // batch engine and the equivalent solo loop share the same
    // fault-epoch counter, so outcome, retry count, and every statistic
    // must match bit-for-bit — in either execution mode.
    let batch = gaussian_batch(3, 23);
    let plan = || {
        FaultPlan::new(77)
            .with_bit_flips(0.003)
            .after_supersteps(100)
    };
    let solver = |mode: ExecMode| {
        HunIpu::with_config(IpuConfig {
            max_while_iterations: 50_000,
            ..mk2(mode)
        })
        .with_fault_plan(plan())
    };
    let run_batched =
        |mode: ExecMode| match BatchHunIpu::with_solver(solver(mode)).solve_batch(&batch) {
            Ok(rep) => {
                let fps: Vec<String> = rep.reports.iter().map(report_fingerprint).collect();
                format!("ok retries={} {}", rep.stats.retries, fps.join(" | "))
            }
            Err(e) => format!("err {e}"),
        };
    // The solo equivalent: one solver instance (so the fault-epoch
    // counter advances across instances exactly like the batch), each
    // instance wrapped in the same shared verify-and-retry loop.
    let run_solo = |mode: ExecMode| {
        let solver = solver(mode);
        let mut retries = 0;
        let mut fps = Vec::new();
        for m in &batch {
            let attempt = |_k| solver.solve_with_engine(m).map(|(rep, _)| rep);
            match lsap::solve_instance_verified(m, hunipu::F32_VERIFY_EPS, 3, attempt) {
                Ok((rep, r)) => {
                    retries += r;
                    fps.push(report_fingerprint(&rep));
                }
                Err(e) => return format!("err {e}"),
            }
        }
        format!("ok retries={retries} {}", fps.join(" | "))
    };

    let reference = run_batched(ExecMode::Interpreted);
    for mode in MODES {
        assert_eq!(
            reference,
            run_batched(mode),
            "faulty {mode:?} batch diverged"
        );
        assert_eq!(
            reference,
            run_solo(mode),
            "faulty {mode:?} batch diverged from the sequential retry loop"
        );
    }
}

/// A raw graph exercising every program node the plan lowers: a
/// data-dependent `While` around a wide compute set, a counted `Repeat`,
/// an `Exchange`, and an `If` — compared at the buffer-bits level.
fn control_flow_graph(
    mode: ExecMode,
) -> (Graph, Tensor, Tensor, Tensor, ComputeSetId, ComputeSetId) {
    let tiles = 5;
    let per = 30;
    let n = tiles * per;
    let mut g = Graph::new(IpuConfig {
        exec_mode: mode,
        ..IpuConfig::tiny(tiles)
    });
    let x = g.add_tensor("x", DType::F32, n);
    for t in 0..tiles {
        g.map_slice(x.slice(t * per..(t + 1) * per), t).unwrap();
    }
    let flag = g.add_tensor("flag", DType::I32, 1);
    g.map_to_tile(flag, 0).unwrap();
    let mirror = g.add_tensor("mirror", DType::F32, per);
    g.map_to_tile(mirror, 1).unwrap();

    let inc = g.add_compute_set("inc");
    for i in 0..n {
        let v = g
            .add_vertex(inc, i / per, "inc", move |ctx| {
                let mut x = ctx.f32_mut(0);
                x[0] = x[0] * 1.25 + (i % 5) as f32;
                3 + (i % 13) as u64
            })
            .unwrap();
        g.connect(v, x.element(i), Access::ReadWrite).unwrap();
    }
    let dec = g.add_compute_set("dec");
    let v = g
        .add_vertex(dec, 0, "dec", |ctx| {
            ctx.i32_mut(0)[0] -= 1;
            2
        })
        .unwrap();
    g.connect(v, flag.slice(0..1), Access::ReadWrite).unwrap();
    (g, x, flag, mirror, inc, dec)
}

#[test]
fn control_flow_buffers_are_bit_identical_interpreted_vs_plan() {
    let run = |mode: ExecMode| {
        let (g, x, flag, mirror, inc, dec) = control_flow_graph(mode);
        let per = mirror.len();
        let program = Program::seq(vec![
            Program::while_true(
                flag,
                Program::seq(vec![Program::execute(inc), Program::execute(dec)]),
            ),
            Program::repeat(3, Program::execute(inc)),
            Program::exchange(vec![(x.slice(0..per), mirror.slice(0..per))]),
            // flag is 0 here: the else branch runs one more increment.
            Program::if_else(flag, Program::execute(dec), Program::execute(inc)),
        ]);
        let mut e = g.compile(program).unwrap();
        e.write_f32(x, &vec![0.5; x.len()]).unwrap();
        e.write_i32(flag, &[6]).unwrap();
        e.run().unwrap();
        let xs: Vec<u32> = e.read_f32(x).iter().map(|v| v.to_bits()).collect();
        let ms: Vec<u32> = e
            .peek_f32(mirror.slice(0..mirror.len()))
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (xs, ms, e.read_i32(flag), e.stats().clone())
    };
    assert_eq!(
        run(ExecMode::Interpreted),
        run(ExecMode::Plan),
        "control-flow plan run diverged from the interpreter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random shapes, loads, and data: the plan must match the
    /// interpreter bit-for-bit on arbitrary graphs.
    #[test]
    fn random_graphs_are_bit_identical_interpreted_vs_plan(
        tiles in 2usize..6,
        per in 1usize..24,
        seedling in 0u32..1000,
        repeats in 1u64..4,
    ) {
        let run = |mode: ExecMode| {
            let n = tiles * per;
            let mut g = Graph::new(IpuConfig {
                exec_mode: mode,
                ..IpuConfig::tiny(tiles)
            });
            let x = g.add_tensor("x", DType::F32, n);
            for t in 0..tiles {
                g.map_slice(x.slice(t * per..(t + 1) * per), t).unwrap();
            }
            let cs = g.add_compute_set("mix");
            for i in 0..n {
                let v = g
                    .add_vertex(cs, i / per, "mix", move |ctx| {
                        let mut x = ctx.f32_mut(0);
                        x[0] = (x[0] + (i as f32)).sin() * 100.0 + seedling as f32;
                        1 + ((i as u64 * 2654435761) % 29)
                    })
                    .unwrap();
                g.connect(v, x.element(i), Access::ReadWrite).unwrap();
            }
            let mut e = g
                .compile(Program::repeat(repeats, Program::execute(cs)))
                .unwrap();
            let init: Vec<f32> = (0..n).map(|i| (i as f32) * 0.37 - 3.0).collect();
            e.write_f32(x, &init).unwrap();
            e.run().unwrap();
            let bits: Vec<u32> = e.read_f32(x).iter().map(|v| v.to_bits()).collect();
            (bits, e.stats().clone())
        };
        prop_assert_eq!(run(ExecMode::Interpreted), run(ExecMode::Plan));
    }
}
