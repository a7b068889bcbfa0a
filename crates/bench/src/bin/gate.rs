//! `bench gate` — one command that runs every registered baseline gate.
//!
//! ```text
//! cargo run --release -p bench --bin gate -- --all           # what CI runs
//! cargo run --release -p bench --bin gate -- --only serve    # one gate
//! cargo run --release -p bench --bin gate -- --all --drift   # weekly drift job
//! ```
//!
//! `--all` (or `--only NAME`) first builds the selected gate binaries
//! (`cargo run --bin gate` alone would rebuild only this one), then runs
//! each gate from [`bench::GATES`]: the gate binary records a fresh
//! baseline under `target/experiments/`, and the gate's spec is
//! applied to the committed `BENCH_*.json` and the fresh file; every
//! violation is printed, then one pass/fail summary table. `--drift`
//! instead diffs the fresh recording against the committed file by JSON
//! path (volatile wall-clock keys ignored), catching modeled costs that
//! moved *within* the gate tolerance. Exit code = number of failed
//! gates.

use bench::{run_gates, Args};

fn main() {
    let args = Args::parse();
    if !args.all && args.only.is_none() {
        eprintln!(
            "usage: bench gate (--all | --only NAME) [--drift]\n\
             registered gates: {:?}",
            bench::GATES.iter().map(|g| g.name).collect::<Vec<_>>()
        );
        std::process::exit(2);
    }
    let failures = run_gates(args.only.as_deref(), args.drift);
    std::process::exit(failures.min(100) as i32);
}
