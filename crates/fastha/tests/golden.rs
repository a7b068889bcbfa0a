//! Golden cost of FastHA: the solo solver at n ∈ {8, 32, 64} and the
//! lockstep batch on B = 4 at n = 8 and on a mixed 4/8 batch. The solo
//! record holds every kernel's launches, warp cycles and modeled
//! seconds, the device counters, the objective bits, a digest of the
//! duals and the step counters; the batch record holds each report's
//! amortized seconds, cycles and device steps. Any change to a kernel's
//! charged accesses, a launch, or the host's steering shows up as a
//! diff, so a refactor of the kernels must leave this file unchanged.
//!
//! The instances come from the same xorshift generator as the crate's
//! batch tests (`pseudo_matrix`). The golden file lives at
//! `crates/fastha/tests/golden/fastha_cost.txt`. After an *intentional*
//! change to FastHA's cost model, regenerate it:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p fastha --test golden
//! ```

use fastha::{BatchFastHa, FastHa};
use lsap::{BatchLsapSolver, CostMatrix, SolveReport};
use std::fmt::Write;
use std::path::PathBuf;

fn pseudo_matrix(n: usize, seed: u64) -> CostMatrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    CostMatrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 97) as f64
    })
    .unwrap()
}

/// FNV-1a over the bit patterns of a dual vector.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render_batch(out: &mut String, name: &str, batch: &[CostMatrix]) {
    let rep = BatchFastHa::new().solve_batch(batch).unwrap();
    let _ = writeln!(out, "[{name}]");
    let _ = writeln!(
        out,
        "batch seconds {:016x} cycles {}",
        rep.stats.modeled_seconds.unwrap().to_bits(),
        rep.stats.modeled_cycles.unwrap()
    );
    for (i, r) in rep.reports.iter().enumerate() {
        render_report(out, &format!("instance {i}"), r);
    }
}

fn render_report(out: &mut String, label: &str, r: &SolveReport) {
    let s = &r.stats;
    let _ = writeln!(
        out,
        "{label} seconds {:016x} cycles {} steps {} objective {:016x} augmentations {} dual_updates {} u {:016x} v {:016x}",
        s.modeled_seconds.unwrap().to_bits(),
        s.modeled_cycles.unwrap(),
        s.device_steps,
        r.objective.to_bits(),
        s.augmentations,
        s.dual_updates,
        digest(&r.certificate.u),
        digest(&r.certificate.v),
    );
}

fn render() -> String {
    let mut out = String::new();
    for n in [8, 32, 64] {
        let m = pseudo_matrix(n, n as u64);
        let (rep, gpu) = FastHa::new().solve_with_device(&m).unwrap();
        let g = gpu.stats();
        let _ = writeln!(out, "[solo n={n}]");
        render_report(&mut out, "report", &rep);
        let _ = writeln!(
            out,
            "device launches {} host_syncs {} warp_cycles {} gmem_bytes {} pcie_bytes {} kernel_seconds {:016x} host_sync_seconds {:016x}",
            g.launches,
            g.host_syncs,
            g.warp_cycles,
            g.gmem_bytes,
            g.pcie_bytes,
            g.kernel_seconds.to_bits(),
            g.host_sync_seconds.to_bits(),
        );
        for k in &g.per_kernel {
            let _ = writeln!(
                out,
                "kernel {} launches {} warp_cycles {} seconds {:016x}",
                k.name,
                k.launches,
                k.warp_cycles,
                k.seconds.to_bits()
            );
        }
    }
    let b4: Vec<CostMatrix> = (0..4).map(|i| pseudo_matrix(8, 40 + i)).collect();
    render_batch(&mut out, "batch B=4 n=8", &b4);
    let mixed = [
        pseudo_matrix(4, 1),
        pseudo_matrix(8, 2),
        pseudo_matrix(4, 3),
        pseudo_matrix(8, 4),
    ];
    render_batch(&mut out, "batch mixed 4/8", &mixed);
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fastha_cost.txt")
}

#[test]
fn fastha_cost_matches_its_golden_record() {
    let actual = render();
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
            "FastHA cost drifted from {} at line {}:\n  golden: {g}\n  actual: {a}\n\
             if the cost change is intentional, regenerate with REGEN_GOLDEN=1",
            path.display(),
            i + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "FastHA cost record line count drifted from {}",
        path.display()
    );
}
