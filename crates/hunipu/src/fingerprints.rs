//! Golden fingerprints of every device program HunIPU compiles: one
//! small instance each of the sparse k-candidate, the tiled out-of-core,
//! the 2-chip chip-aware and the A5 one-prime programs, plus the dense
//! default, cold and on a warm engine's seeded launch. A fingerprint
//! holds the objective bits, the assignment, the dual bits, the device
//! counters, the cycle totals (supersteps included), the program-load
//! cost, the peak tile memory and every compute set's executions and
//! compute cycles, so any change to a program's graph or schedule shows
//! up as a diff.
//!
//! The golden file lives at
//! `crates/hunipu/tests/golden/program_fingerprints.txt`. After an
//! *intentional* change to a program, regenerate it:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p hunipu fingerprints
//! ```

use crate::{AblationConfig, HunIpu, LayoutMode};
use ipu_sim::{Engine, IpuConfig};
use lsap::sparse::SparseCost;
use lsap::{SolveReport, WarmStart};
use std::fmt::Write;
use std::path::PathBuf;

fn render(out: &mut String, name: &str, report: &SolveReport, engine: &Engine) {
    let s = engine.stats();
    let r = &report.stats;
    let _ = writeln!(out, "[{name}]");
    let _ = writeln!(out, "objective {:016x}", report.objective.to_bits());
    let cols: Vec<String> = (0..report.assignment.rows())
        .map(|i| {
            report
                .assignment
                .col_of(i)
                .map_or("-".into(), |c| c.to_string())
        })
        .collect();
    let _ = writeln!(out, "assignment {}", cols.join(" "));
    for (label, pot) in [("u", &report.certificate.u), ("v", &report.certificate.v)] {
        let bits: Vec<String> = pot.iter().map(|x| format!("{:x}", x.to_bits())).collect();
        let _ = writeln!(out, "{label} {}", bits.join(" "));
    }
    let _ = writeln!(
        out,
        "report cycles={:?} steps={} augmentations={} dual_updates={} seeded={}",
        r.modeled_cycles, r.device_steps, r.augmentations, r.dual_updates, r.seeded
    );
    let _ = writeln!(
        out,
        "totals compute={} sync={} exchange={} control={} supersteps={} exchanges={} \
         exchange_bytes={} host_bytes={}",
        s.compute_cycles,
        s.sync_cycles,
        s.exchange_cycles,
        s.control_cycles,
        s.supersteps,
        s.exchanges,
        s.exchange_bytes,
        s.host_bytes
    );
    let _ = writeln!(
        out,
        "engine program_load={} peak_tile_bytes={}",
        engine.program_load_cycles(),
        engine.peak_tile_bytes()
    );
    for set in &s.per_compute_set {
        let _ = writeln!(
            out,
            "set {} {} {}",
            set.name, set.executions, set.compute_cycles
        );
    }
}

fn fingerprints() -> String {
    let tiny = || HunIpu::with_config(IpuConfig::tiny(8));
    let m = datasets::gaussian_cost_matrix(14, 10, 3);
    let mut out = String::new();

    let (report, engine) = tiny().solve_with_engine(&m).unwrap();
    render(&mut out, "dense", &report, &engine);

    let solver = tiny();
    let mut warm = solver.warm(12).unwrap();
    let first = warm
        .solve(&solver, &datasets::uniform_cost_matrix(12, 4, 5))
        .unwrap();
    let mut next = datasets::uniform_cost_matrix(12, 4, 5);
    for (i, j) in [2, 4, 7, 9]
        .into_iter()
        .flat_map(|i| (0..12).map(move |j| (i, j)))
    {
        next.set(i, j, next.get(i, j) + ((i + j * 7) % 11) as f64);
    }
    let report = warm
        .solve_seeded(&solver, &next, &WarmStart::from_report(&first))
        .unwrap();
    render(&mut out, "seeded", &report, warm.engine());

    let sc = SparseCost::from_dense_topk(&m, 5).unwrap();
    let (report, engine) = tiny().solve_sparse_with_engine(&sc).unwrap();
    render(&mut out, "sparse", &report, &engine);

    let (report, engine) = tiny().with_tiled_params(4, 3).solve_tiled(&m).unwrap();
    render(&mut out, "tiled", &report, &engine);

    let (report, engine) = HunIpu::with_config(IpuConfig::tiny_multi(2, 6))
        .with_layout_mode(LayoutMode::ChipAware)
        .solve_with_engine(&m)
        .unwrap();
    render(&mut out, "chip_aware", &report, &engine);

    let (report, engine) = tiny()
        .with_ablation(AblationConfig {
            layered_priming: false,
            ..Default::default()
        })
        .solve_with_engine(&m)
        .unwrap();
    render(&mut out, "one_prime", &report, &engine);
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/program_fingerprints.txt")
}

#[test]
fn every_program_matches_its_golden_fingerprint() {
    let actual = fingerprints();
    let path = golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; run with REGEN_GOLDEN=1",
            path.display()
        )
    });
    if let Some((i, (a, g))) = actual
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (a, g))| a != g)
    {
        panic!(
            "program fingerprint drifted from {} at line {}:\n  golden: {g}\n  actual: {a}\n\
             if the program change is intentional, regenerate with REGEN_GOLDEN=1",
            path.display(),
            i + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "program fingerprint line count drifted from {}",
        path.display()
    );
}
