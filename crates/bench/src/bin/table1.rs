//! Regenerates **Table I**: characteristics of the real graph data
//! (here: of the synthetic equivalents, which match n and m exactly).
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! ```

use bench::{Args, ExperimentRecord, Measurement};
use graphs::realworld;

fn main() {
    let args = Args::parse();
    let mut record = ExperimentRecord::new("table1", "fixed".into(), args.seed);

    println!("Table I: characteristics of the (synthetic-equivalent) graph data");
    println!(
        "{:<12} {:>6} {:>7} {:>12} {:>10} {:>8}",
        "Dataset", "n", "m", "type", "avg deg", "max deg"
    );
    for info in realworld::table1() {
        let g = realworld::by_name(info.name, args.seed).expect("known dataset");
        assert_eq!(g.n(), info.n, "generator must match Table I");
        assert_eq!(g.m(), info.m, "generator must match Table I");
        println!(
            "{:<12} {:>6} {:>7} {:>12} {:>10.2} {:>8}",
            info.name,
            g.n(),
            g.m(),
            info.kind,
            g.avg_degree(),
            g.max_degree()
        );
        record.push(Measurement {
            engine: "generator".into(),
            n: g.n(),
            k: 0,
            label: info.name.into(),
            modeled_seconds: 0.0,
            wall_seconds: 0.0,
            objective: g.m() as f64,
            extrapolated: false,
            device_steps: 0,
            profile_events: 0,
        });
    }
    let path = record.save().expect("write record");
    println!("\nrecord: {}", path.display());
}
