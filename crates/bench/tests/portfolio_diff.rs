//! Differential test: the dispatch model vs the committed measurement
//! grid.
//!
//! `BENCH_portfolio.json` is the measured ground truth — every engine's
//! certificate-verified cost in every (n, k, batch, chips) cell the
//! regret gate covers. This test recomputes the portfolio's pick for
//! each committed cell from [`PortfolioTable::calibrated`] (no
//! re-measurement, so it runs in milliseconds in both `cargo test`
//! legs) and checks the model against the data:
//!
//! 1. the committed `picked` field is what the calibrated table picks
//!    today — a model edit that silently changes dispatch decisions
//!    fails here before the slow bench gate even runs,
//! 2. the committed `oracle` is genuinely the measured argmin of its
//!    cell (the file can't claim a regret the data doesn't support),
//! 3. the pick's *measured* cost is within the portfolio gate's regret
//!    bound of the measured oracle in every cell — the same rule `bench
//!    gate --only portfolio` applies, evaluated from the committed data.
//!
//! The file is read through the gate's loader and the bound is read from
//! the gate's spec, so every threshold has one source.

use bench::gates::{load_baseline, Rule, GATES};
use lsap::portfolio::{InstanceShape, PortfolioTable};
use serde::Deserialize;
use std::path::Path;

/// The columns of one committed cell this test reads.
#[derive(Deserialize)]
struct Cell {
    n: usize,
    k: u64,
    batch: usize,
    chips: usize,
    picked: String,
    oracle: String,
    oracle_seconds: f64,
    measured: Vec<MeasuredCost>,
}

#[derive(Deserialize)]
struct MeasuredCost {
    engine: String,
    seconds_per_instance: f64,
}

#[derive(Deserialize)]
struct Committed {
    entries: Vec<Cell>,
}

fn committed() -> Committed {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_portfolio.json");
    let doc = load_baseline(&path).expect("BENCH_portfolio.json is committed at the repo root");
    Committed::from_value(&doc).expect("the committed cells parse")
}

/// The regret bound the portfolio gate applies to `picked_seconds`.
fn max_regret() -> f64 {
    let gate = GATES.iter().find(|g| g.name == "portfolio").unwrap();
    let bound = gate.spec.checks.iter().find_map(|c| match c.rule {
        Rule::AtMostCol("oracle_seconds", slack) if c.col == "picked_seconds" => Some(slack),
        _ => None,
    });
    bound.expect("the portfolio gate bounds picked_seconds by oracle_seconds")
}

#[test]
fn committed_grid_covers_the_full_shape_product() {
    let base = committed();
    assert_eq!(
        base.entries.len(),
        24,
        "3 sizes x 2 ks x 2 batches x 2 chips"
    );
    for e in &base.entries {
        assert!(
            e.measured.iter().any(|m| m.engine == "jv")
                && e.measured.iter().any(|m| m.engine == "munkres")
                && e.measured.iter().any(|m| m.engine == "auction")
                && e.measured.iter().any(|m| m.engine == "hunipu"),
            "cell n={} must measure every always-supported engine",
            e.n
        );
        if e.n.is_power_of_two() {
            assert!(
                e.measured.iter().any(|m| m.engine == "fastha"),
                "power-of-two cell n={} must measure the GPU engine",
                e.n
            );
        }
    }
}

#[test]
fn calibrated_pick_matches_the_committed_decision_in_every_cell() {
    let base = committed();
    let table = PortfolioTable::calibrated();
    for e in &base.entries {
        let shape = InstanceShape {
            n: e.n,
            k: e.k as f64,
            batch: e.batch,
            chips: e.chips,
            candidates: None,
        };
        let pick = table.pick(shape).expect("some engine supports every n");
        assert_eq!(
            pick.engine, e.picked,
            "cell n={} k={} batch={} chips={}: the calibrated table now picks a \
             different engine than the committed baseline — re-run \
             `bench portfolio --write-baseline` and re-commit",
            e.n, e.k, e.batch, e.chips
        );
    }
}

#[test]
fn committed_oracle_is_the_measured_argmin_and_regret_holds() {
    let base = committed();
    let max_regret = max_regret();
    assert_eq!(max_regret, 0.10);
    for e in &base.entries {
        let best = e
            .measured
            .iter()
            .min_by(|a, b| a.seconds_per_instance.total_cmp(&b.seconds_per_instance))
            .expect("cells are never empty");
        assert_eq!(
            best.engine, e.oracle,
            "cell n={} k={} batch={} chips={}: oracle label is not the measured min",
            e.n, e.k, e.batch, e.chips
        );
        assert!(
            (best.seconds_per_instance - e.oracle_seconds).abs()
                <= 1e-12 * e.oracle_seconds.max(1e-300),
            "oracle seconds must equal the measured min"
        );
        let picked = e
            .measured
            .iter()
            .find(|m| m.engine == e.picked)
            .expect("the picked engine is measured in its own cell");
        assert!(
            picked.seconds_per_instance <= e.oracle_seconds * (1.0 + max_regret),
            "cell n={} k={} batch={} chips={}: picked {} costs {} vs oracle {} {} — \
             regret exceeds the {}% bound",
            e.n,
            e.k,
            e.batch,
            e.chips,
            e.picked,
            picked.seconds_per_instance,
            e.oracle,
            e.oracle_seconds,
            max_regret * 100.0
        );
    }
}
