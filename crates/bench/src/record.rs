//! JSON provenance records written by every harness binary.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One measured cell of a table/figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Engine: "hunipu", "fastha", "cpu", …
    pub engine: String,
    /// Instance size n.
    pub n: usize,
    /// Value-range factor k (0 when not applicable).
    pub k: u64,
    /// Free-form label (dataset, noise level, variant …).
    pub label: String,
    /// Modeled device seconds.
    pub modeled_seconds: f64,
    /// Host wall seconds spent simulating.
    pub wall_seconds: f64,
    /// Objective value of the returned assignment.
    pub objective: f64,
    /// Whether the value was extrapolated rather than executed.
    pub extrapolated: bool,
    /// Device steps behind the measurement (BSP supersteps on the IPU,
    /// kernel launches on the GPU; 0 when not applicable). Older records
    /// deserialize as 0.
    #[serde(default)]
    pub device_steps: u64,
    /// Profiler timeline events captured during the measurement (0 when
    /// profiling was off). Older records deserialize as 0.
    #[serde(default)]
    pub profile_events: u64,
}

/// A whole experiment's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id: "table1", "table2", "fig5", "table3", "ablation".
    pub experiment: String,
    /// The command-line grid that produced it.
    pub grid: String,
    /// Dataset seed.
    pub seed: u64,
    /// All measurements.
    pub measurements: Vec<Measurement>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(experiment: &str, grid: String, seed: u64) -> Self {
        Self {
            experiment: experiment.to_string(),
            grid,
            seed,
            measurements: Vec::new(),
        }
    }

    /// Appends a measurement.
    pub fn push(&mut self, m: Measurement) {
        self.measurements.push(m);
    }

    /// Writes the record to `target/experiments/<experiment>.json`,
    /// returning the path.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, serde_json::to_string_pretty(self)?)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_json() {
        let mut r = ExperimentRecord::new("table2", "default".into(), 1);
        r.push(Measurement {
            engine: "hunipu".into(),
            n: 512,
            k: 10,
            label: String::new(),
            modeled_seconds: 0.1,
            wall_seconds: 3.0,
            objective: 42.0,
            extrapolated: false,
            device_steps: 120,
            profile_events: 37,
        });
        let s = serde_json::to_string(&r).unwrap();
        let back: ExperimentRecord = serde_json::from_str(&s).unwrap();
        assert_eq!(back.measurements.len(), 1);
        assert_eq!(back.measurements[0].n, 512);
        assert_eq!(back.measurements[0].device_steps, 120);
        assert_eq!(back.measurements[0].profile_events, 37);
    }

    #[test]
    fn records_without_newer_fields_deserialize_with_defaults() {
        let s = r#"{"engine":"hunipu","n":64,"k":10,"label":"",
                    "modeled_seconds":0.1,"wall_seconds":0.2,
                    "objective":7.0,"extrapolated":false}"#;
        let m: Measurement = serde_json::from_str(s).unwrap();
        assert_eq!(m.device_steps, 0);
        assert_eq!(m.profile_events, 0);
    }
}
