//! The baseline-gate registry, its declarative specs, and the runner
//! behind `bench gate`.
//!
//! Every gate binary (batch, multi_ipu, wallbench, serve, resolve,
//! scale) only measures: with `--write-baseline --baseline PATH` it
//! records its fresh baseline-shaped JSON. All judgement lives here.
//! [`GATES`] lists every gate with its binary, its committed
//! `BENCH_*.json`, and a [`Spec`] that says what must hold between the
//! committed file and a fresh recording; [`Spec::evaluate`] is the one
//! interpreter for all of them. Both files are read as `serde::Value`
//! trees, so the committed baselines need no schema of their own.
//!
//! `bench gate` first builds every selected binary in one release
//! `cargo build`, so each gate measures the current sources, then runs
//! each once into `target/experiments/`, then either
//! - **checks** (default): applies the gate's spec to the committed and
//!   fresh files and reports every [`Violation`], or
//! - **diffs** (`--drift`, the weekly scheduled job): reports every
//!   value that differs between the two trees by JSON path, ignoring
//!   the gate's volatile (machine-dependent wall-clock) keys. This
//!   catches modeled costs that moved *within* the gate tolerance.
//!
//! Gated quantities are modeled device costs and counts, which are
//! deterministic functions of the grid, except wallbench, which gates
//! a wall-clock *ratio* measured within one process.

use crate::Args;
use serde::{Serialize, Value};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Relative regression tolerance on gated modeled costs (10%). Modeled
/// costs are deterministic, so any drift at all is a real change; the
/// slack only exists so deliberate small costs (an extra superstep, a
/// new counter) don't force a baseline refresh with every PR.
pub const CYCLE_TOLERANCE: f64 = 0.10;

/// Minimum suite speedup (Σ interp wall / Σ plan wall) of the lowered
/// execution plan over the interpreter.
pub const WALLBENCH_MIN_SPEEDUP: f64 = 2.0;

/// Minimum modeled-cycle cut the chip-aware layout must keep on
/// ≥4-chip configurations.
pub const MULTI_IPU_MIN_IMPROVEMENT: f64 = 0.20;

/// Minimum cold/warm modeled-cycle speedup of a warm re-solve at small
/// perturbations (`k * 8 <= n` rows touched).
pub const RESOLVE_MIN_SPEEDUP: f64 = 2.0;

/// Minimum dense/sparse-k8 compute-cycle ratio, enforced from
/// [`SCALE_SPARSE_FLOOR_MIN_N`] up (below it, fixed per-sweep overheads
/// dominate and the k/n advantage has not opened yet).
pub const SCALE_SPARSE_MIN_SPEEDUP: f64 = 5.0;

/// Smallest n at which [`SCALE_SPARSE_MIN_SPEEDUP`] is enforced.
pub const SCALE_SPARSE_FLOOR_MIN_N: f64 = 1024.0;

/// One registered baseline gate.
pub struct Gate {
    /// Display name (also the `--only` match target).
    pub name: &'static str,
    /// The `bench` binary that records the fresh baseline.
    pub bin: &'static str,
    /// Extra arguments for check mode (drift mode records the default
    /// grid, which is what the committed file holds).
    pub args: &'static [&'static str],
    /// Committed baseline file at the repo root.
    pub baseline: &'static str,
    /// Keys whose values are machine-dependent (wall clocks and derived
    /// rates), ignored by the drift diff.
    pub volatile: &'static [&'static str],
    /// What must hold between the committed and the fresh file.
    pub spec: Spec,
}

/// The declarative content of one gate.
///
/// A baseline file is a header (top-level scalars describing the grid)
/// plus rows: the objects of its `entries` array, or the whole file
/// when [`Spec::key`] is empty. Every committed row must reappear in the
/// fresh file, paired by its key fields, and every [`Check`] whose guard
/// holds is applied to the pair.
pub struct Spec {
    /// Header keys that must match exactly (seed, grid).
    pub header: &'static [&'static str],
    /// Row fields that pair committed rows with fresh rows.
    pub key: &'static [&'static str],
    /// Per-column rules.
    pub checks: &'static [Check],
    /// Named rules that span rows or columns.
    pub predicates: &'static [Predicate],
}

/// One gated column and its rule.
pub struct Check {
    /// The gated column.
    pub col: &'static str,
    /// What the fresh value must satisfy.
    pub rule: Rule,
    /// Rows the rule applies to (`None` = every row), judged on the
    /// fresh row; header keys are visible through the row.
    pub when: Option<fn(&Row) -> bool>,
}

/// How a gated value is judged. `committed` is the same cell in the
/// committed file; column names refer to the same fresh row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// Equal to the committed value.
    Exact,
    /// At most `committed · (1 + CYCLE_TOLERANCE)`.
    NoWorse,
    /// At least `⌊committed · (1 − CYCLE_TOLERANCE)⌋`.
    Floor,
    /// Nonzero whenever the committed value is nonzero.
    KeepNonzero,
    /// At most a constant.
    AtMost(f64),
    /// At least a constant.
    AtLeast(f64),
    /// At most `column · (1 + slack)`.
    AtMostCol(&'static str, f64),
    /// Strictly below another column.
    BelowCol(&'static str),
    /// Equal to another column.
    EqualsCol(&'static str),
    /// `column / value` at least a factor (a speedup over `column`).
    SpeedupOver(&'static str, f64),
    /// `1 − value / column` at least a fraction (a cut relative to
    /// `column`).
    CutVs(&'static str, f64),
}

impl Rule {
    /// The other column of the same row this rule reads, if any.
    fn reference(&self) -> Option<&'static str> {
        match *self {
            Rule::AtMostCol(c, _)
            | Rule::BelowCol(c)
            | Rule::EqualsCol(c)
            | Rule::SpeedupOver(c, _)
            | Rule::CutVs(c, _) => Some(c),
            _ => None,
        }
    }

    fn holds(&self, value: f64, committed: f64, other: f64) -> bool {
        match *self {
            Rule::Exact => value == committed,
            Rule::NoWorse => value <= committed * (1.0 + CYCLE_TOLERANCE),
            Rule::Floor => value >= (committed * (1.0 - CYCLE_TOLERANCE)).floor(),
            Rule::KeepNonzero => committed == 0.0 || value != 0.0,
            Rule::AtMost(x) => value <= x,
            Rule::AtLeast(x) => value >= x,
            Rule::AtMostCol(_, slack) => value <= other * (1.0 + slack),
            Rule::BelowCol(_) => value < other,
            Rule::EqualsCol(_) => value == other,
            Rule::SpeedupOver(_, min) => other / value >= min,
            Rule::CutVs(_, min) => 1.0 - value / other >= min,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.col;
        let pct = |x: f64| x * 100.0;
        match self.rule {
            Rule::Exact => write!(f, "{c} == committed"),
            Rule::NoWorse => write!(f, "{c} <= committed +{:.0}%", pct(CYCLE_TOLERANCE)),
            Rule::Floor => write!(f, "{c} >= floor(committed -{:.0}%)", pct(CYCLE_TOLERANCE)),
            Rule::KeepNonzero => write!(f, "{c} nonzero while committed is"),
            Rule::AtMost(x) => write!(f, "{c} <= {x}"),
            Rule::AtLeast(x) => write!(f, "{c} >= {x}"),
            Rule::AtMostCol(o, 0.0) => write!(f, "{c} <= {o}"),
            Rule::AtMostCol(o, s) => write!(f, "{c} <= {o} +{:.0}%", pct(s)),
            Rule::BelowCol(o) => write!(f, "{c} < {o}"),
            Rule::EqualsCol(o) => write!(f, "{c} == {o}"),
            Rule::SpeedupOver(o, m) => write!(f, "{o} / {c} >= {m}x"),
            Rule::CutVs(o, m) => write!(f, "1 - {c} / {o} >= {:.0}%", pct(m)),
        }
    }
}

/// A named rule over whole files (committed, fresh), for the few gates
/// whose contract is not per-column.
pub struct Predicate {
    /// Name, reported as the violated rule.
    pub name: &'static str,
    /// Columns the predicate gates (a null or missing one is a
    /// violation of the predicate).
    pub columns: &'static [&'static str],
    /// Returns every violation.
    pub check: fn(&Value, &Value) -> Vec<Violation>,
}

/// One broken rule.
#[derive(Debug)]
pub struct Violation {
    /// The row (`engine=hunipu-batch`), or `header` / `run`.
    pub cell: String,
    /// The rule: a [`Check`]'s display form or a [`Predicate`] name.
    pub rule: String,
    /// What was found.
    pub detail: String,
}

impl Violation {
    fn new(cell: impl Into<String>, rule: impl Into<String>, detail: impl Into<String>) -> Self {
        Violation {
            cell: cell.into(),
            rule: rule.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [{}]", self.cell, self.detail, self.rule)
    }
}

/// One row of a baseline file; header keys are visible through it.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    fields: &'a Value,
    root: &'a Value,
}

impl<'a> Row<'a> {
    /// The whole file as one row.
    fn root(doc: &'a Value) -> Self {
        Row {
            fields: doc,
            root: doc,
        }
    }

    /// The rows of a keyed file (its `entries` array).
    fn entries(doc: &'a Value) -> Vec<Self> {
        match field(doc, "entries") {
            Some(Value::Arr(rows)) => rows
                .iter()
                .map(|fields| Row { fields, root: doc })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Raw field lookup (row first, then header).
    fn get(&self, key: &str) -> Option<&'a Value> {
        field(self.fields, key).or_else(|| field(self.root, key))
    }

    /// The field as a number, NaN when missing or not numeric (so guard
    /// comparisons on it are false).
    fn num(&self, key: &str) -> f64 {
        self.get(key).and_then(number).unwrap_or(f64::NAN)
    }

    /// The field as a finite number, or why it is not one.
    fn finite(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            None => Err(format!("{key} is missing")),
            Some(Value::Null) => Err(format!("{key} is null")),
            Some(v) => number(v).ok_or_else(|| format!("{key} = {} is not finite", show(Some(v)))),
        }
    }

    /// The field's text (empty when missing or not a string).
    fn text(&self, key: &str) -> &'a str {
        match self.get(key) {
            Some(Value::Str(s)) => s,
            _ => "",
        }
    }

    fn label(&self, key: &[&str]) -> String {
        let fields = key.iter().map(|k| format!("{k}={}", show(self.get(k))));
        let label = fields.collect::<Vec<_>>().join(" ");
        if label.is_empty() {
            "run".into()
        } else {
            label
        }
    }
}

/// A finite number, with booleans as 1/0; `None` for anything else.
fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) if x.is_finite() => Some(x),
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        Value::Bool(b) => Some(f64::from(u8::from(b))),
        _ => None,
    }
}

/// Looks up `key` on an object value.
fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A value as reports print it (strings unquoted).
fn show(v: Option<&Value>) -> String {
    match v {
        None => "missing".into(),
        Some(Value::F64(x)) => x.to_string(),
        Some(Value::Str(s)) => s.clone(),
        Some(v) => serde_json::to_string(v).unwrap_or_default(),
    }
}

impl Spec {
    fn rows<'a>(&self, doc: &'a Value) -> Vec<Row<'a>> {
        if self.key.is_empty() {
            vec![Row::root(doc)]
        } else {
            Row::entries(doc)
        }
    }

    /// Applies the spec to a committed baseline and a fresh recording,
    /// returning every violation (empty = the gate passes). A header
    /// mismatch is reported alone: comparing rows across different
    /// grids would be meaningless.
    pub fn evaluate(&self, committed: &Value, fresh: &Value) -> Vec<Violation> {
        let mut out = Vec::new();
        for &key in self.header {
            let (a, b) = (field(committed, key), field(fresh, key));
            if a.is_none() || a != b {
                out.push(Violation::new(
                    "header",
                    format!("{key} matches"),
                    format!(
                        "{key} = {} in this run, {} committed — regenerate with --write-baseline",
                        show(b),
                        show(a)
                    ),
                ));
            }
        }
        if !out.is_empty() {
            return out;
        }

        let fresh_rows = self.rows(fresh);
        let same = |a: Option<&Value>, b: Option<&Value>| match (a, b) {
            (Some(a), Some(b)) => match (number(a), number(b)) {
                (Some(x), Some(y)) => x == y,
                _ => a == b,
            },
            _ => false,
        };
        for base in &self.rows(committed) {
            let cell = base.label(self.key);
            let paired = fresh_rows
                .iter()
                .find(|f| self.key.iter().all(|k| same(base.get(k), f.get(k))));
            let Some(cur) = paired else {
                out.push(Violation::new(
                    cell,
                    "every committed row is re-measured",
                    "row missing from this run",
                ));
                continue;
            };
            for check in self.checks {
                if check.when.is_none_or(|applies| applies(cur)) {
                    if let Err(detail) = check.apply(base, cur) {
                        out.push(Violation::new(&cell, check.to_string(), detail));
                    }
                }
            }
        }
        for p in self.predicates {
            out.extend((p.check)(committed, fresh));
        }
        out
    }
}

impl Check {
    fn apply(&self, base: &Row, cur: &Row) -> Result<(), String> {
        let value = cur.finite(self.col)?;
        let committed = base
            .finite(self.col)
            .map_err(|e| format!("committed {e}"))?;
        let other = match self.rule.reference() {
            Some(col) => cur.finite(col)?,
            None => f64::NAN,
        };
        if self.rule.holds(value, committed, other) {
            return Ok(());
        }
        let (col, shown) = (self.col, show(cur.get(self.col)));
        Err(match self.rule.reference() {
            Some(other) => format!("{col} = {shown}, {other} = {}", show(cur.get(other))),
            None => format!("{col} = {shown}, committed {}", show(base.get(col))),
        })
    }
}

const fn check(col: &'static str, rule: Rule) -> Check {
    Check {
        col,
        rule,
        when: None,
    }
}

const fn when(col: &'static str, rule: Rule, applies: fn(&Row) -> bool) -> Check {
    Check {
        col,
        rule,
        when: Some(applies),
    }
}

/// A modeled-cost gate: binary named like the gate, wall keys volatile.
const fn gate(name: &'static str, baseline: &'static str, spec: Spec) -> Gate {
    Gate {
        name,
        bin: name,
        args: &[],
        baseline,
        volatile: WALL_KEYS,
        spec,
    }
}

/// Volatile keys shared by the modeled-cost baselines: the gated
/// columns are pure functions of the grid, but each entry also carries
/// the host wall spent producing it for context.
const WALL_KEYS: &[&str] = &["wall_seconds", "instances_per_sec"];

/// Defaults for the fields most specs leave empty.
const SPEC: Spec = Spec {
    header: &["seed"],
    key: &[],
    checks: &[],
    predicates: &[],
};

/// Wallbench: plan and interpreter stay bit-identical, and the plan
/// keeps its suite-aggregate wall-clock win. The recorded walls are
/// context; the ratio is gated fresh.
const WALLBENCH: Spec = Spec {
    header: &["sizes", "k", "seed"],
    key: &["n"],
    checks: &[check("identical", Rule::AtLeast(1.0))],
    predicates: &[Predicate {
        name: "suite_speedup",
        columns: &["interp_wall", "plan_wall"],
        check: suite_speedup,
    }],
};

/// Every baseline gate CI runs, in execution order.
pub const GATES: &[Gate] = &[
    // Amortized per-instance cost holds, and batching still beats the
    // sequential loop whenever there is something to amortize.
    gate(
        "batch",
        "BENCH_batch.json",
        Spec {
            header: &["n", "batch", "seed"],
            key: &["engine"],
            checks: &[
                check("batched", Rule::NoWorse),
                when("batched", Rule::BelowCol("single"), |r| {
                    r.num("batch") >= 2.0
                }),
            ],
            ..SPEC
        },
    ),
    // Single-chip cells compile the flat program cycle for cycle;
    // multi-chip cells beat flat, and ≥4 chips keep the headline cut.
    gate(
        "multi_ipu",
        "BENCH_multi_ipu.json",
        Spec {
            key: &["device", "chips", "tiles_per_chip", "n"],
            checks: &[
                check("chip_aware_cycles", Rule::NoWorse),
                when("chip_aware_cycles", Rule::EqualsCol("flat_cycles"), |r| {
                    r.num("chips") == 1.0
                }),
                when("chip_aware_cycles", Rule::BelowCol("flat_cycles"), |r| {
                    r.num("chips") > 1.0
                }),
                when(
                    "chip_aware_cycles",
                    Rule::CutVs("flat_cycles", MULTI_IPU_MIN_IMPROVEMENT),
                    |r| r.num("chips") >= 4.0,
                ),
            ],
            ..SPEC
        },
    ),
    Gate {
        name: "wallbench",
        bin: "wallbench",
        args: &[],
        baseline: "BENCH_wallbench.json",
        volatile: &["interp_wall", "plan_wall", "speedup"],
        spec: WALLBENCH,
    },
    // No wrong answers, a bounded queue, closed accounting, an overload
    // that still sheds and degrades, and service time, latency and the
    // exact-answer count within tolerance.
    gate(
        "serve",
        "BENCH_serve.json",
        Spec {
            header: &["n", "requests", "seed", "queue_capacity"],
            checks: &[
                check("incorrect", Rule::AtMost(0.0)),
                check("queue_high_water", Rule::AtMostCol("queue_capacity", 0.0)),
                check("shed", Rule::KeepNonzero),
                check("degraded", Rule::KeepNonzero),
                check("service_cycles_per_request", Rule::NoWorse),
                check("p50_latency_cycles", Rule::NoWorse),
                check("p99_latency_cycles", Rule::NoWorse),
                check("exact", Rule::Floor),
            ],
            predicates: &[Predicate {
                name: "accounting",
                columns: &["offered", "exact", "degraded", "deadline_exceeded", "shed"],
                check: serve_accounting,
            }],
            ..SPEC
        },
    ),
    // Warm answers equal the ground truth, warm cycles hold, small
    // perturbations keep the speedup, and the seeded launch is still
    // taken wherever it was.
    gate(
        "resolve",
        "BENCH_resolve.json",
        Spec {
            key: &["n", "k", "ticks"],
            checks: &[
                check("mismatches", Rule::AtMost(0.0)),
                check("warm_cycles", Rule::NoWorse),
                when(
                    "warm_cycles",
                    Rule::SpeedupOver("cold_cycles", RESOLVE_MIN_SPEEDUP),
                    |r| r.num("k") * 8.0 <= r.num("n"),
                ),
                check("seeded", Rule::KeepNonzero),
            ],
            ..SPEC
        },
    ),
    // Feasibility never flips (dense n=4096 must stay over the SRAM
    // budget), feasible cells hold cycles and resident bytes, and sparse
    // k=8 keeps its compute advantage over dense.
    gate(
        "scale",
        "BENCH_scale.json",
        Spec {
            key: &["engine", "n"],
            checks: &[
                check("feasible", Rule::Exact),
                when("compute_cycles", Rule::NoWorse, |r| {
                    r.num("feasible") == 1.0
                }),
                when("resident_bytes_per_tile", Rule::NoWorse, |r| {
                    r.num("feasible") == 1.0
                }),
            ],
            predicates: &[Predicate {
                name: "sparse_advantage",
                columns: &["compute_cycles"],
                check: sparse_advantage,
            }],
            ..SPEC
        },
    ),
];

/// Numbers of a header array (`sizes`).
fn numbers(doc: &Value, key: &str) -> Vec<f64> {
    match field(doc, key) {
        Some(Value::Arr(items)) => items.iter().filter_map(number).collect(),
        _ => Vec::new(),
    }
}

/// Wallbench: Σ interp / Σ plan over every committed size stays at or
/// above [`WALLBENCH_MIN_SPEEDUP`].
fn suite_speedup(committed: &Value, fresh: &Value) -> Vec<Violation> {
    let v = |cell: String, detail: String| Violation::new(cell, "suite_speedup", detail);
    let mut out = Vec::new();
    let sizes = numbers(committed, "sizes");
    // A missing cell is reported as a missing row; the aggregate needs
    // every size.
    let (mut interp, mut plan, mut cells) = (0.0, 0.0, 0);
    for row in Row::entries(fresh)
        .iter()
        .filter(|r| sizes.contains(&r.num("n")))
    {
        match (row.finite("interp_wall"), row.finite("plan_wall")) {
            (Ok(i), Ok(p)) => {
                interp += i;
                plan += p;
                cells += 1;
            }
            (Err(e), _) | (_, Err(e)) => out.push(v(row.label(WALLBENCH.key), e)),
        }
    }
    let speedup = interp / plan;
    if cells == sizes.len() && (speedup.is_nan() || speedup < WALLBENCH_MIN_SPEEDUP) {
        out.push(v(
            "suite".into(),
            format!(
                "suite speedup {speedup:.3}x below {WALLBENCH_MIN_SPEEDUP}x \
                 (interp {interp:.3}s / plan {plan:.3}s)"
            ),
        ));
    }
    out
}

/// Serve: every offered request is accounted for exactly once.
fn serve_accounting(_: &Value, fresh: &Value) -> Vec<Violation> {
    let row = Row::root(fresh);
    let parts = ["exact", "degraded", "deadline_exceeded", "shed"];
    let counts: Result<Vec<f64>, String> = parts.iter().map(|k| row.finite(k)).collect();
    let detail = match (counts, row.finite("offered")) {
        (Err(e), _) | (_, Err(e)) => e,
        (Ok(c), Ok(offered)) if c.iter().sum::<f64>() != offered => format!(
            "exact {} + degraded {} + deadline {} + shed {} != offered {offered}",
            c[0], c[1], c[2], c[3]
        ),
        _ => return Vec::new(),
    };
    vec![Violation::new("run", "accounting", detail)]
}

/// Scale: from [`SCALE_SPARSE_FLOOR_MIN_N`] up, wherever dense is
/// feasible, sparse k=8 needs ≥ [`SCALE_SPARSE_MIN_SPEEDUP`]× fewer
/// compute cycles.
fn sparse_advantage(_: &Value, fresh: &Value) -> Vec<Violation> {
    let rows = Row::entries(fresh);
    let mut out = Vec::new();
    for sparse in rows
        .iter()
        .filter(|r| r.text("engine") == "sparse_k8" && r.num("n") >= SCALE_SPARSE_FLOOR_MIN_N)
    {
        let n = sparse.num("n");
        let Some(dense) = rows
            .iter()
            .find(|r| r.text("engine") == "dense" && r.num("n") == n && r.num("feasible") == 1.0)
        else {
            continue;
        };
        let detail = match (
            dense.finite("compute_cycles"),
            sparse.finite("compute_cycles"),
        ) {
            (Err(e), _) => format!("dense {e}"),
            (_, Err(e)) => format!("sparse {e}"),
            (Ok(d), Ok(s)) => {
                let speedup = d / s.max(1.0);
                if speedup >= SCALE_SPARSE_MIN_SPEEDUP {
                    continue;
                }
                format!("dense/sparse compute {speedup:.3}x (dense {d} vs sparse {s})")
            }
        };
        let detail = format!("{detail}, floor {SCALE_SPARSE_MIN_SPEEDUP}x");
        out.push(Violation::new(format!("n={n}"), "sparse_advantage", detail));
    }
    out
}

/// Reads a baseline file as a `serde::Value` tree.
pub fn load_baseline(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Called by every gate binary after measuring: with `--write-baseline`,
/// pretty-prints `current` to `--baseline PATH` (default `committed`,
/// the repo-root file).
pub fn write_baseline<T: Serialize>(args: &Args, committed: &str, current: &T) {
    if !args.write_baseline {
        return;
    }
    let path = args.baseline.as_deref().unwrap_or(committed);
    let mut text = serde_json::to_string_pretty(current).expect("baselines serialize");
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write baseline {path}: {e}"));
    println!("wrote baseline {path}");
}

/// Runs the registered gates (filtered by `only` as a substring match),
/// prints a summary table, and returns the number of failures (the
/// binary's exit code).
pub fn run_gates(only: Option<&str>, drift: bool) -> usize {
    let selected: Vec<&Gate> = GATES
        .iter()
        .filter(|g| only.is_none_or(|o| g.name.contains(o)))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "no gate matches --only {:?}; registered: {:?}",
            only.unwrap_or(""),
            GATES.iter().map(|g| g.name).collect::<Vec<_>>()
        );
        return 1;
    }

    let mut bins: Vec<&str> = selected.iter().map(|g| g.bin).collect();
    bins.sort_unstable();
    bins.dedup();
    let exes = match build_gate_bins(&bins) {
        Ok(exes) => exes,
        Err(e) => {
            eprintln!("{e}");
            return selected.len();
        }
    };

    let mut results = Vec::new();
    for g in selected {
        let start = Instant::now();
        let exe = exes.iter().find(|(name, _)| name == g.bin).map(|(_, p)| p);
        let outcome = exe
            .ok_or_else(|| format!("cargo built no executable for {}", g.bin))
            .and_then(|exe| run_gate(g, exe, drift));
        results.push((g.name, outcome, start.elapsed().as_secs_f64()));
    }

    let mode = if drift { "drift" } else { "gate" };
    println!("\n{:<14} {:>8} {:>9}  detail", mode, "status", "seconds");
    for (name, outcome, seconds) in &results {
        let (status, detail) = match outcome {
            Ok(d) => ("PASS", d),
            Err(d) => ("FAIL", d),
        };
        println!("{name:<14} {status:>8} {seconds:>9.1}  {detail}");
    }
    let failures = results.iter().filter(|r| r.1.is_err()).count();
    let total: f64 = results.iter().map(|r| r.2).sum();
    if failures == 0 {
        println!("\nall {} {mode}s PASSED in {total:.1}s", results.len());
    } else {
        eprintln!(
            "\n{failures} of {} {mode}s FAILED (see output above)",
            results.len()
        );
    }
    failures
}

/// Records a fresh baseline with the gate's binary, then checks it
/// against the committed file (or, in drift mode, diffs the two).
/// Returns the summary detail: `Ok` if the gate passes.
fn run_gate(g: &Gate, exe: &Path, drift: bool) -> Result<String, String> {
    let (fresh, args) = if drift {
        (format!("drift_{}", g.baseline), &[][..])
    } else {
        (format!("gate_{}.json", g.name), g.args)
    };
    let fresh = PathBuf::from("target/experiments").join(fresh);
    let command = [&[g.bin], args].concat().join(" ");
    println!("running {} ({command})", g.name);
    record(g.bin, exe, args, &fresh)?;
    let committed = load_baseline(Path::new(g.baseline))?;
    let fresh = load_baseline(&fresh)?;
    let problems: Vec<String> = if drift {
        diff_values(&committed, &fresh, g.volatile)
    } else {
        let violations = g.spec.evaluate(&committed, &fresh);
        violations.iter().map(ToString::to_string).collect()
    };
    if problems.is_empty() {
        return Ok(format!("{} holds", g.baseline));
    }
    eprintln!("--- {} against {} ---", g.name, g.baseline);
    for line in &problems {
        eprintln!("  {line}");
    }
    let what = if drift { "drifted value" } else { "violation" };
    Err(format!("{} {what}(s)", problems.len()))
}

/// Runs a gate binary (`bin`, built at `exe`) so that it writes its
/// fresh baseline to `fresh`; replays its output if it fails.
fn record(bin: &str, exe: &Path, args: &[&str], fresh: &Path) -> Result<(), String> {
    std::fs::create_dir_all("target/experiments").map_err(|e| format!("scratch dir: {e}"))?;
    let _ = std::fs::remove_file(fresh);
    let output = Command::new(exe)
        .args(args)
        .args(["--write-baseline", "--baseline"])
        .arg(fresh)
        .output()
        .map_err(|e| format!("could not launch {bin}: {e}"))?;
    if output.status.success() {
        return Ok(());
    }
    eprintln!("--- {bin} stdout ---");
    eprintln!("{}", String::from_utf8_lossy(&output.stdout));
    eprintln!("--- {bin} stderr ---");
    eprintln!("{}", String::from_utf8_lossy(&output.stderr));
    Err(format!("{bin} exit {}", output.status.code().unwrap_or(-1)))
}

/// Builds every gate binary in `bins` with one release `cargo build`
/// and returns each one's executable. `cargo run --bin gate` rebuilds
/// only `gate`, so a sibling executable found on disk may predate the
/// sources it would be measuring.
fn build_gate_bins(bins: &[&str]) -> Result<Vec<(String, PathBuf)>, String> {
    let output = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(build_args(bins))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not launch cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "building the gate binaries failed: exit {}",
            output.status.code().unwrap_or(-1)
        ));
    }
    Ok(artifact_executables(&String::from_utf8_lossy(
        &output.stdout,
    )))
}

/// The `cargo` arguments that build exactly `bins` from the `bench`
/// package, reporting artifacts as JSON messages on stdout.
fn build_args(bins: &[&str]) -> Vec<String> {
    let mut args = [
        "build",
        "--release",
        "-p",
        "bench",
        "--message-format=json-render-diagnostics",
    ]
    .map(String::from)
    .to_vec();
    for bin in bins {
        args.extend(["--bin".to_string(), bin.to_string()]);
    }
    args
}

/// `(target name, executable)` of every executable artifact in cargo's
/// JSON message stream; other lines and messages are skipped.
fn artifact_executables(stream: &str) -> Vec<(String, PathBuf)> {
    stream
        .lines()
        .filter_map(|line| {
            let msg: Value = serde_json::from_str(line).ok()?;
            let (Value::Str(exe), Value::Str(name)) = (
                field(&msg, "executable")?,
                field(field(&msg, "target")?, "name")?,
            ) else {
                return None;
            };
            Some((name.clone(), PathBuf::from(exe)))
        })
        .collect()
}

/// Structural diff of two baseline trees: every value that differs,
/// by JSON path (`entries[3].compute_cycles: 618468 vs 618470`), plus
/// added and removed keys. Keys in `volatile` are skipped by exact
/// name at any depth. The report is bounded (empty = no drift).
pub fn diff_values(committed: &Value, fresh: &Value, volatile: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    diff_into("", committed, fresh, volatile, &mut out);
    if out.len() > MAX_REPORTED {
        out.truncate(MAX_REPORTED);
        out.push("… further diffs suppressed".to_string());
    }
    out
}

const MAX_REPORTED: usize = 20;

fn diff_into(path: &str, a: &Value, b: &Value, volatile: &[&str], out: &mut Vec<String>) {
    if out.len() > MAX_REPORTED {
        return;
    }
    let join = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (a, b) {
        (Value::Obj(pa), Value::Obj(pb)) => {
            for (k, va) in pa.iter().filter(|(k, _)| !volatile.contains(&k.as_str())) {
                match field(b, k) {
                    Some(vb) => diff_into(&join(k), va, vb, volatile, out),
                    None => out.push(format!("{}: removed (was {})", join(k), show(Some(va)))),
                }
            }
            for (k, vb) in pb.iter().filter(|(k, _)| !volatile.contains(&k.as_str())) {
                if field(a, k).is_none() {
                    out.push(format!("{}: added ({})", join(k), show(Some(vb))));
                }
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) => {
            for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                diff_into(&format!("{path}[{i}]"), va, vb, volatile, out);
            }
            if xa.len() != xb.len() {
                out.push(format!("{path}: {} vs {} elements", xa.len(), xb.len()));
            }
        }
        _ if a != b => out.push(format!("{path}: {} vs {}", show(Some(a)), show(Some(b)))),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn gate(name: &str) -> &'static Gate {
        GATES.iter().find(|g| g.name == name).unwrap()
    }

    fn committed(g: &Gate) -> Value {
        load_baseline(&repo_root().join(g.baseline)).unwrap()
    }

    fn row_mut<'a>(doc: &'a mut Value, spec: &Spec, i: usize) -> &'a mut Value {
        if spec.key.is_empty() {
            return doc;
        }
        match field_mut(doc, "entries") {
            Some(Value::Arr(rows)) => &mut rows[i],
            _ => panic!("no entries"),
        }
    }

    fn field_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
        match v {
            Value::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn set(row: &mut Value, key: &str, value: Value) {
        *field_mut(row, key).unwrap_or_else(|| panic!("no field {key}")) = value;
    }

    fn remove(row: &mut Value, key: &str) {
        if let Value::Obj(pairs) = row {
            pairs.retain(|(k, _)| k != key);
        }
    }

    const EPS: f64 = 1e-9;

    /// For one check on one committed row: the column its mutation
    /// moves, and the values just inside and just past the bound, from
    /// the threshold the spec states. Two-column rules move their
    /// reference column, so the gated column's own tolerance rule does
    /// not fire as well. Integer columns step by one.
    fn nudges(check: &Check, row: &Row) -> (&'static str, Value, Value) {
        let v = row.num(check.col);
        let t = CYCLE_TOLERANCE;
        // (moved column, bound, whether values above the bound are bad)
        let (col, bound, bad_above) = match check.rule {
            Rule::Exact => (check.col, v, true),
            Rule::NoWorse => (check.col, v * (1.0 + t), true),
            Rule::Floor => (check.col, (v * (1.0 - t)).floor(), false),
            Rule::KeepNonzero => (check.col, 0.5, false),
            Rule::AtMost(x) => (check.col, x, true),
            Rule::AtLeast(x) => (check.col, x, false),
            Rule::AtMostCol(o, s) => (check.col, row.num(o) * (1.0 + s), true),
            Rule::BelowCol(o) => (o, v, false),
            Rule::EqualsCol(o) => (o, v, true),
            Rule::SpeedupOver(o, m) => (o, m * v, false),
            Rule::CutVs(o, m) => (o, v / (1.0 - m), false),
        };
        match row.get(col) {
            Some(Value::Bool(b)) => (col, Value::Bool(*b), Value::Bool(!b)),
            Some(Value::U64(_) | Value::I64(_)) => {
                let (inside, step) = match bad_above {
                    true => (bound.floor() as i64, 1),
                    false => (bound.ceil() as i64, -1),
                };
                (col, Value::I64(inside), Value::I64(inside + step))
            }
            _ if check.rule == Rule::KeepNonzero => (col, Value::F64(v), Value::F64(0.0)),
            _ if matches!(check.rule, Rule::Exact | Rule::EqualsCol(_)) => {
                (col, Value::F64(bound), Value::F64(bound * (1.0 + EPS)))
            }
            _ => {
                let s = if bad_above { 1.0 } else { -1.0 };
                let (inside, past) = (bound * (1.0 - s * EPS), bound * (1.0 + s * EPS));
                (col, Value::F64(inside), Value::F64(past))
            }
        }
    }

    /// Keeps derived columns consistent with a moved one, so a mutation
    /// describes a possible run: serve's outcome counts must still sum
    /// to `offered` (the difference goes to `deadline_exceeded`).
    fn keep_consistent(gate: &str, row: &mut Value, col: &str, old: f64, new: f64) {
        if gate == "serve" && matches!(col, "exact" | "degraded" | "shed") {
            let d = Row::root(row).num("deadline_exceeded") - (new - old);
            set(row, "deadline_exceeded", Value::I64(d as i64));
        }
    }

    #[test]
    fn every_rule_bites_just_past_its_bound_and_not_inside() {
        for g in GATES {
            let base = committed(g);
            let rows = g.spec.rows(&base);
            for check in g.spec.checks {
                let rule = check.to_string();
                let (mut applied, mut isolated) = (0, false);
                for (i, row) in rows.iter().enumerate() {
                    let applies = check.when.is_none_or(|w| w(row))
                        && (check.rule != Rule::KeepNonzero || row.num(check.col) != 0.0);
                    if !applies {
                        continue;
                    }
                    applied += 1;
                    let cell = row.label(g.spec.key);
                    let (col, inside, past) = nudges(check, row);
                    let run = |value: &Value| {
                        let mut fresh = base.clone();
                        let r = row_mut(&mut fresh, &g.spec, i);
                        let old = Row::root(r).num(col);
                        set(r, col, value.clone());
                        keep_consistent(g.name, r, col, old, number(value).unwrap());
                        g.spec.evaluate(&base, &fresh)
                    };
                    let bad = run(&past);
                    let ours = bad.iter().filter(|v| v.cell == cell && v.rule == rule);
                    assert_eq!(
                        ours.count(),
                        1,
                        "{}: `{rule}` on {cell} with {col} = {past:?}: {bad:#?}",
                        g.name
                    );
                    let good = run(&inside);
                    assert!(
                        !good.iter().any(|v| v.cell == cell && v.rule == rule),
                        "{}: `{rule}` on {cell} with {col} = {inside:?}: {good:#?}",
                        g.name
                    );
                    isolated |= bad.len() == 1 && good.is_empty();
                }
                assert!(applied > 0, "{}: `{rule}` applies to no row", g.name);
                assert!(isolated, "{}: no committed row isolates `{rule}`", g.name);
            }
        }
    }

    /// One mutation per predicate: `sign` +1 moves just past the bound,
    /// −1 just inside it.
    fn break_predicate(name: &str, fresh: &mut Value, sign: f64) {
        let rows = || Row::entries(fresh).into_iter();
        match name {
            "suite_speedup" => {
                // Σ interp / Σ plan just around 2x, by slowing the plan
                // on the largest cell.
                let (i, p) = rows().fold((0.0, 0.0), |(i, p), r| {
                    (i + r.num("interp_wall"), p + r.num("plan_wall"))
                });
                let target = i / WALLBENCH_MIN_SPEEDUP * (1.0 + sign * EPS);
                let last = rows().count() - 1;
                let r = row_mut(fresh, &WALLBENCH, last);
                let plan = Row::root(r).num("plan_wall");
                set(r, "plan_wall", Value::F64(plan + target - p));
            }
            "accounting" if sign > 0.0 => {
                let offered = Row::root(fresh).num("offered");
                set(fresh, "offered", Value::I64(offered as i64 + 1));
            }
            "accounting" => {}
            "sparse_advantage" => {
                // Dense n=1024 compute just around 5x the sparse one.
                let at = |engine| {
                    rows()
                        .position(|r| r.text("engine") == engine && r.num("n") == 1024.0)
                        .unwrap()
                };
                let (d, s) = (at("dense"), at("sparse_k8"));
                let sparse = Row::entries(fresh)[s].num("compute_cycles");
                let dense = SCALE_SPARSE_MIN_SPEEDUP * sparse * (1.0 - sign * EPS);
                let row = row_mut(fresh, &gate("scale").spec, d);
                set(row, "compute_cycles", Value::F64(dense));
            }
            other => panic!("no mutation for predicate {other}"),
        }
    }

    #[test]
    fn every_predicate_bites_just_past_its_bound_and_not_inside() {
        for g in GATES {
            let base = committed(g);
            for p in g.spec.predicates {
                let mut fresh = base.clone();
                break_predicate(p.name, &mut fresh, 1.0);
                let bad = g.spec.evaluate(&base, &fresh);
                assert_eq!(bad.len(), 1, "{}: {}: {bad:#?}", g.name, p.name);
                assert_eq!(bad[0].rule, p.name);
                let mut fresh = base.clone();
                break_predicate(p.name, &mut fresh, -1.0);
                let good = g.spec.evaluate(&base, &fresh);
                assert!(good.is_empty(), "{}: {}: {good:#?}", g.name, p.name);
            }
        }
    }

    #[test]
    fn null_missing_or_non_finite_gated_values_fail() {
        type Break = fn(&mut Value, &str);
        let breaks: [(&str, Break); 3] = [
            ("null", |r, c| set(r, c, Value::Null)),
            ("missing", remove),
            ("NaN", |r, c| set(r, c, Value::F64(f64::NAN))),
        ];
        for g in GATES {
            let base = committed(g);
            let rows = g.spec.rows(&base);
            for (what, mutate) in breaks {
                for check in g.spec.checks {
                    let rule = check.to_string();
                    for (i, row) in rows.iter().enumerate() {
                        if !check.when.is_none_or(|w| w(row)) {
                            continue;
                        }
                        let cell = row.label(g.spec.key);
                        let mut cases = vec![("fresh", check.col)];
                        cases.extend(check.rule.reference().map(|c| ("fresh", c)));
                        cases.push(("committed", check.col));
                        for (side, col) in cases {
                            let (mut old, mut fresh) = (base.clone(), base.clone());
                            let doc = if side == "fresh" {
                                &mut fresh
                            } else {
                                &mut old
                            };
                            mutate(row_mut(doc, &g.spec, i), col);
                            let v = g.spec.evaluate(&old, &fresh);
                            // A header key (serve's queue_capacity) is
                            // reported as a header mismatch.
                            let header = g.spec.header.contains(&col);
                            assert!(
                                v.iter().any(|v| v.cell == cell && v.rule == rule
                                    || header && v.cell == "header"),
                                "{}: {side} {col} {what} on {cell} passed `{rule}`: {v:#?}",
                                g.name
                            );
                        }
                    }
                }
                for p in g.spec.predicates {
                    for &col in p.columns {
                        let caught = (0..rows.len()).any(|i| {
                            let mut fresh = base.clone();
                            mutate(row_mut(&mut fresh, &g.spec, i), col);
                            g.spec
                                .evaluate(&base, &fresh)
                                .iter()
                                .any(|v| v.rule == p.name)
                        });
                        assert!(caught, "{}: {col} {what} never trips {}", g.name, p.name);
                    }
                }
            }
        }
    }

    #[test]
    fn a_missing_row_or_a_changed_header_is_reported() {
        for g in GATES {
            let base = committed(g);
            for i in 0..Row::entries(&base).len() {
                let mut fresh = base.clone();
                let cell = g.spec.rows(&base)[i].label(g.spec.key);
                if let Some(Value::Arr(rows)) = field_mut(&mut fresh, "entries") {
                    rows.remove(i);
                }
                let v = g.spec.evaluate(&base, &fresh);
                assert_eq!(v.len(), 1, "{}: dropping {cell}: {v:#?}", g.name);
                assert_eq!(v[0].cell, cell);
                assert!(v[0].detail.contains("missing"), "{}", v[0]);
            }
            for &key in g.spec.header {
                let mut fresh = base.clone();
                match field_mut(&mut fresh, key).unwrap() {
                    Value::Arr(items) => items.push(Value::U64(7)),
                    v => *v = Value::F64(Row::root(&base).num(key) + 1.0),
                }
                let v = g.spec.evaluate(&base, &fresh);
                assert_eq!(v.len(), 1, "{}: changing {key}: {v:#?}", g.name);
                assert_eq!(
                    (v[0].cell.as_str(), v[0].rule.clone()),
                    ("header", format!("{key} matches"))
                );
            }
        }
    }

    #[test]
    fn the_build_names_every_gate_binary() {
        let bins: Vec<&str> = GATES.iter().map(|g| g.bin).collect();
        let args = build_args(&bins);
        assert_eq!(&args[..4], ["build", "--release", "-p", "bench"]);
        for bin in bins {
            assert!(
                args.windows(2).any(|w| w[0] == "--bin" && w[1] == bin),
                "{bin} is not built before the gates run: {args:?}"
            );
        }
    }

    #[test]
    fn executables_are_read_from_cargo_artifact_messages() {
        let stream = concat!(
            r#"{"reason":"compiler-artifact","target":{"name":"bench","kind":["lib"]},"executable":null}"#,
            "\n",
            r#"{"reason":"compiler-artifact","target":{"name":"scale","kind":["bin"]},"fresh":false,"executable":"/t/release/scale"}"#,
            "\nnot json\n",
            r#"{"reason":"compiler-artifact","target":{"name":"serve","kind":["bin"]},"fresh":true,"executable":"/t/release/serve"}"#,
            "\n",
            r#"{"reason":"build-finished","success":true}"#,
        );
        assert_eq!(
            artifact_executables(stream),
            [
                ("scale".to_string(), PathBuf::from("/t/release/scale")),
                ("serve".to_string(), PathBuf::from("/t/release/serve")),
            ]
        );
    }

    #[test]
    fn registry_covers_every_committed_baseline() {
        let mut names: Vec<&str> = GATES.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), GATES.len(), "duplicate gate names");
        let on_disk: Vec<String> = std::fs::read_dir(repo_root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        assert_eq!(on_disk.len(), GATES.len(), "{on_disk:?}");
        for f in &on_disk {
            assert!(GATES.iter().any(|g| g.baseline == f), "{f} has no gate");
        }
        for g in GATES {
            let doc = committed(g);
            assert!(!g.spec.rows(&doc).is_empty(), "{}: no rows", g.name);
            let v = g.spec.evaluate(&doc, &doc);
            assert!(v.is_empty(), "{} fails its own spec: {v:#?}", g.baseline);
            assert!(diff_values(&doc, &doc, g.volatile).is_empty());
        }
    }

    fn json(text: &str) -> Value {
        serde_json::from_str(text).unwrap()
    }

    #[test]
    fn changed_values_are_reported_by_path_and_volatile_keys_ignored() {
        let committed =
            json(r#"{"entries": [{"n": 1}, {"compute_cycles": 618468.0, "wall_seconds": 0.5}]}"#);
        let fresh =
            json(r#"{"entries": [{"n": 1}, {"compute_cycles": 618470.0, "wall_seconds": 0.9}]}"#);
        let diffs = diff_values(&committed, &fresh, WALL_KEYS);
        assert_eq!(diffs, ["entries[1].compute_cycles: 618468 vs 618470"]);
    }

    #[test]
    fn added_or_removed_keys_and_rows_are_reported() {
        let committed = json(r#"{"entries": [{"cycles": 100, "gone": 1}]}"#);
        let fresh = json(r#"{"entries": [{"cycles": 100, "extra": 2}, {"cycles": 5}]}"#);
        let diffs = diff_values(&committed, &fresh, WALL_KEYS);
        assert_eq!(
            diffs,
            [
                "entries[0].gone: removed (was 1)",
                "entries[0].extra: added (2)",
                "entries: 1 vs 2 elements"
            ]
        );
    }

    #[test]
    fn volatile_keys_match_exactly() {
        // "speedup" volatile must not hide a "speedup_floor" change.
        let committed = json(r#"{"speedup_floor": 2.0, "speedup": 6.7}"#);
        let fresh = json(r#"{"speedup_floor": 3.0, "speedup": 9.9}"#);
        let diffs = diff_values(&committed, &fresh, &["speedup"]);
        assert_eq!(diffs, ["speedup_floor: 2 vs 3"]);
    }

    #[test]
    fn diff_report_is_bounded() {
        let rows = |d: usize| {
            let items: Vec<Value> = (0..100).map(|i| Value::U64(i + d as u64)).collect();
            Value::Obj(vec![("c".into(), Value::Arr(items))])
        };
        let diffs = diff_values(&rows(0), &rows(1), &[]);
        assert_eq!(diffs.len(), MAX_REPORTED + 1);
        assert!(diffs.last().unwrap().contains("suppressed"));
    }
}
