//! The metric definitions and what one workload run measured.

use crate::calibration;
use crate::stats::{self, Fingerprint};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, by name and unit; every workload reports all of
/// them from its untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_ms_p50", "ms"),
    ("wall_ms_tail", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("modeled_ms_p50", "ms"),
    ("modeled_ms_tail", "ms"),
    ("exact_frac", "fraction"),
];

/// How a per-layer metric folds its per-request values: counts are
/// averaged, times take the median.
#[derive(Clone, Copy)]
enum Fold {
    Mean,
    Median,
}

/// Per-layer metrics, by name, unit and fold; the traced run reports all
/// of them, 0 where a workload does not reach the layer.
const PER_LAYER: [(&str, &str, Fold); 39] = [
    ("ipu_sim.compute_cycles", "cycles", Fold::Mean),
    ("ipu_sim.sync_cycles", "cycles", Fold::Mean),
    ("ipu_sim.exchange_cycles", "cycles", Fold::Mean),
    ("ipu_sim.control_cycles", "cycles", Fold::Mean),
    ("ipu_sim.supersteps", "count", Fold::Mean),
    ("ipu_sim.exchange_bytes", "bytes", Fold::Mean),
    ("ipu_sim.host_bytes", "bytes", Fold::Mean),
    ("ipu_sim.host_ns_per_superstep", "ns", Fold::Median),
    ("ipu_sim.peak_tile_bytes", "bytes", Fold::Mean),
    ("hunipu.warm_s", "s", Fold::Median),
    ("hunipu.solve_ms", "ms", Fold::Median),
    ("hunipu.step1_cycles", "cycles", Fold::Mean),
    ("hunipu.compress_cycles", "cycles", Fold::Mean),
    ("hunipu.step2_cycles", "cycles", Fold::Mean),
    ("hunipu.step3_cycles", "cycles", Fold::Mean),
    ("hunipu.step4_cycles", "cycles", Fold::Mean),
    ("hunipu.step5_cycles", "cycles", Fold::Mean),
    ("hunipu.step6_cycles", "cycles", Fold::Mean),
    ("hunipu.tsetup_cycles", "cycles", Fold::Mean),
    ("hunipu.other_cycles", "cycles", Fold::Mean),
    ("hunipu.augmentations", "count", Fold::Mean),
    ("hunipu.dual_updates", "count", Fold::Mean),
    ("lsap.verify_ms", "ms", Fold::Median),
    ("lsap.verify_failures", "count", Fold::Mean),
    ("cpu_hungarian.jv_ms", "ms", Fold::Median),
    ("align.grampa_ms", "ms", Fold::Median),
    ("serve.queue_wait_ms_p50", "ms", Fold::Median),
    ("serve.service_ms_p50", "ms", Fold::Median),
    ("serve.seeded_frac", "fraction", Fold::Mean),
    ("serve.seeded_fallbacks", "count", Fold::Mean),
    ("serve.pool_hit_frac", "fraction", Fold::Mean),
    ("serve.program_load_cycles", "cycles", Fold::Mean),
    ("serve.rerouted_frac", "fraction", Fold::Mean),
    ("serve.shed_frac", "fraction", Fold::Mean),
    ("serve.deadline_frac", "fraction", Fold::Mean),
    ("serve.degraded_frac", "fraction", Fold::Mean),
    ("serve.queue_high_water", "count", Fold::Mean),
    ("serve.step_ms", "ms", Fold::Median),
    ("trace.overhead_frac", "fraction", Fold::Mean),
];

/// Per-request values of the per-layer metrics.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.entry(name).or_default().push(value);
    }

    /// Every per-layer metric as `(name, unit, value)`.
    pub fn finish(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, fold)| {
                let values = self.0.get(name).map_or(&[][..], Vec::as_slice);
                let value = match fold {
                    Fold::Mean => stats::mean(values),
                    Fold::Median => stats::median(values),
                };
                (name, unit, value)
            })
            .collect()
    }
}

/// What one workload measured: one pass over its request set, or the
/// passes of a run folded together by [`Measured::absorb`].
#[derive(Default)]
pub struct Measured {
    /// Instance size n (the largest, where a workload mixes sizes).
    pub instance_n: usize,
    /// Requests in one pass. Their answers fix the modeled metrics and
    /// the fingerprint, the same on every host.
    pub requests: usize,
    /// Host seconds per set-up. Host times here are measured; once a
    /// pass is absorbed they are scaled to the reference speed.
    pub setup_s: Vec<f64>,
    /// Host wall per request; across passes, each request's fastest.
    pub wall_ms: Vec<f64>,
    /// Host seconds one pass's requests took together; across passes,
    /// the fastest pass.
    pub timed_s: f64,
    /// Host times of the reference work, run between requests.
    pub reference_ms: Vec<f64>,
    last_reference: Option<Instant>,
    /// Modeled latency of each answered request.
    pub modeled_ms: Vec<f64>,
    /// Requests answered exactly within budget.
    pub exact: u64,
    /// Requests attempted in all passes.
    pub attempted: u64,
    /// Wrong answers plus unexpected errors, in all passes.
    pub failed: u64,
    /// Failed checks of the harness itself (reconciliation, trace schema,
    /// determinism); any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub fingerprint: Fingerprint,
    pub layers: Layers,
    /// Further recorded numbers (paper comparison, tracing overhead).
    pub notes: Vec<(&'static str, f64)>,
    pub passes: usize,
}

impl Measured {
    /// An empty record for passes of `requests` requests of size `instance_n`.
    pub fn new(instance_n: usize, requests: usize) -> Self {
        Self {
            instance_n,
            requests,
            ..Default::default()
        }
    }

    /// Times the reference work if half a second has passed since it
    /// last ran; workloads call this between requests.
    pub fn tick(&mut self) {
        if self
            .last_reference
            .is_some_and(|t| t.elapsed().as_secs_f64() < 0.5)
        {
            return;
        }
        self.reference_ms.push(calibration::reference_ms());
        self.last_reference = Some(Instant::now());
    }

    /// Folds in one more pass over the same requests. Every pass must
    /// answer exactly as the first. The pass's host times are scaled by
    /// its reference speed, and each request keeps its fastest pass, which
    /// filters out stretches where other work on the machine slowed the
    /// simulator down. Per-layer values come from the latest pass.
    pub fn absorb(&mut self, mut pass: Measured) {
        let speed = calibration::REFERENCE_MS / stats::median(&pass.reference_ms);
        pass.setup_s.iter_mut().for_each(|s| *s *= speed);
        pass.wall_ms.iter_mut().for_each(|w| *w *= speed);
        pass.timed_s *= speed;
        self.reference_ms.extend(pass.reference_ms);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.problems.extend(pass.problems);
        self.setup_s.extend(pass.setup_s);
        self.notes.extend(pass.notes);
        self.layers = pass.layers;
        if self.passes == 0 {
            self.wall_ms = pass.wall_ms;
            self.timed_s = pass.timed_s;
            self.modeled_ms = pass.modeled_ms;
            self.exact = pass.exact;
            self.fingerprint = pass.fingerprint;
        } else {
            if pass.fingerprint.hex() != self.fingerprint.hex() {
                self.problem(format!(
                    "pass {} answered differently from pass 1",
                    self.passes + 1
                ));
            }
            for (best, w) in self.wall_ms.iter_mut().zip(pass.wall_ms) {
                *best = best.min(w);
            }
            self.timed_s = self.timed_s.min(pass.timed_s);
        }
        self.passes += 1;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Records a wrong answer or unexpected error.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("wrong answer: {what}");
        }
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }

    /// Every end-to-end metric as `(name, unit, value)`.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, &'static str, f64)> {
        let values = [
            stats::median(&self.setup_s),
            stats::median(&self.wall_ms),
            stats::tail(&self.wall_ms),
            self.wall_ms.len() as f64 / self.timed_s,
            peak_rss_mb,
            stats::median(&self.modeled_ms),
            stats::tail(&self.modeled_ms),
            self.exact as f64 / self.requests as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    }
}
