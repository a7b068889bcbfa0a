//! Paper-scale static checks: the n = 8192 instance ("more than 64
//! million elements", §I) must **fit** the Mk2's per-tile SRAM with the
//! paper's layout — the memory-budget validation at graph compile time
//! proves it. Building (not running) the graph is cheap enough for a
//! test; actually solving n = 8192 is the `--full` benchmark grid.

use hunipu::{Layout, COL_SEG};

#[test]
fn mk2_layout_numbers_at_8192() {
    let l = Layout::new(8192, 6, COL_SEG, 1, 1472);
    // 6 rows per worker tile; slack block = 6 * 8192 * 4 B = 192 KiB,
    // same for the compressed matrix; both plus mirrors fit 624 KiB.
    assert_eq!(l.rows_per_tile, 6);
    let slack_block = 6 * 8192 * 4;
    let compress_block = slack_block;
    let mirrors = 3 * 8192 * 4; // ccm + two scratch mirrors
    let col_aux = 3 * 8192 * 4; // colpart + colrecv + colmirror blocks
    let total = slack_block + compress_block + mirrors + col_aux;
    assert!(
        total <= 624 * 1024,
        "paper-scale per-tile footprint {total} exceeds 624 KiB"
    );
}

#[test]
fn mk2_graph_compiles_at_2048() {
    // Full static validation (mapping coverage, memory budget, locality,
    // race freedom) of a real mid-scale instance on the full Mk2
    // device. n = 2048 keeps the test quick while exercising multi-row
    // tiles' layout logic; the same validation runs at 8192 in the
    // `--full` harness.
    let m = lsap::CostMatrix::filled(2048, 1.0).unwrap();
    let solver = hunipu::HunIpu::new();
    // Building + compiling happens inside solve; run on a trivially
    // solvable instance (all-equal costs converge immediately after
    // step 1 + step 2 + one augmentation round).
    let rep = lsap::LsapSolver::solve(&mut solver.clone(), &m).expect("mk2 graph must compile");
    assert_eq!(rep.objective, 2048.0);
}
