//! Golden-trace snapshot: the Chrome trace of a small, fixed HunIPU
//! solve must be byte-stable across runs and well-formed under the
//! `trace_event` schema.
//!
//! The golden file lives at `tests/golden/hunipu_4x4_trace.json`.
//! After an *intentional* profiler/trace format change, regenerate it:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test trace_snapshot
//! ```

use hunipu::HunIpu;
use ipu_sim::{IpuConfig, ProfileConfig};
use lsap::CostMatrix;
use std::path::PathBuf;
use trace::ChromeTrace;

/// The fixed instance: small enough that the whole timeline fits the
/// ring, distinct enough to exercise dual updates.
fn fixed_trace() -> String {
    let m = CostMatrix::from_rows(&[
        &[4.0, 1.0, 3.0, 9.0],
        &[2.0, 0.0, 5.0, 8.0],
        &[3.0, 2.0, 2.0, 7.0],
        &[1.0, 6.0, 4.0, 2.0],
    ])
    .unwrap();
    let (_, engine) = HunIpu::with_config(IpuConfig::tiny(4))
        .with_profiling(ProfileConfig::default())
        .solve_with_engine(&m)
        .expect("solve failed");
    engine
        .chrome_trace(1, "hunipu")
        .expect("profiling was enabled")
        .to_json()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hunipu_4x4_trace.json")
}

#[test]
fn trace_is_stable_across_runs() {
    assert_eq!(
        fixed_trace(),
        fixed_trace(),
        "the same solve must render the same bytes"
    );
}

#[test]
fn trace_validates_against_the_event_schema() {
    let json = fixed_trace();
    let s = ChromeTrace::validate_json(&json).expect("well-formed trace_event JSON");
    // The validator already enforced: known `ph` phases, integer
    // pid/tid, finite non-negative `ts`, `dur` on every `X`, and
    // per-lane monotone timestamps. Check the expected shape on top.
    assert!(s.complete_events > 0, "compute/exchange spans present");
    assert!(s.metadata_events >= 2, "process and thread names present");
    assert!(s.lanes >= 2, "chip lane plus at least one tile lane");
    assert!(s.span_us > 0.0, "nonzero modeled duration");
}

#[test]
fn trace_matches_golden_snapshot() {
    let json = fixed_trace();
    let path = golden_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; run with REGEN_GOLDEN=1",
            path.display()
        )
    });
    if json != golden {
        let actual =
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/hunipu_4x4_trace.actual.json");
        let _ = std::fs::write(&actual, &json);
        panic!(
            "trace drifted from {} (actual written to {}); if the format \
             change is intentional, regenerate with REGEN_GOLDEN=1",
            path.display(),
            actual.display()
        );
    }
    // The checked-in snapshot itself must stay schema-valid.
    ChromeTrace::validate_json(&golden).expect("golden trace is well-formed");
}
