//! The repository benchmark: four seeded workloads, each measured from
//! outside through the public functions of the solver crates, on two
//! clocks — the modeled IPU clock and the host wall time the simulator
//! costs. Every answer is checked for correctness.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>]
//!           [--trace <0|1>] [--smoke] [--check-against <results.json>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run. `--workload all`
//! runs every workload in its own child process, one after another.
//! Results, fingerprints and Chrome traces are written under
//! `$CARGO_TARGET_DIR/benchmark` (default `target/benchmark`). See
//! README.md for the metrics, workloads and measuring protocol.

mod calibration;
mod metrics;
mod serving;
mod solving;
mod spans;
mod stats;

use metrics::Measured;
use serde::Value;
use solving::Kind;
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub const WORKLOADS: [&str; 4] = [
    "fig5_dense",
    "align_highschool",
    "tiled_1024",
    "serve_mixed",
];

/// Simulator settings read from the environment. The benchmark measures
/// the simulator's defaults and refuses to run with any of them set.
const SIM_KNOBS: [&str; 3] = ["SIM_THREADS", "SIM_EXEC", "SIM_PARALLEL_THRESHOLD"];

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--check-against <results.json>]";

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// How long an untraced run measures at least.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for tests.
    pub smoke: bool,
}

struct Args {
    ctx: Ctx,
    check_against: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        ctx: Ctx {
            workload: "all".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
        },
        check_against: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            a.ctx.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" || WORKLOADS.contains(&value.as_str()) => {
                a.ctx.workload = value
            }
            "--seed" => a.ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                a.ctx.trace = ["0", "1"]
                    .iter()
                    .position(|v| *v == value)
                    .ok_or_else(bad)?
                    == 1
            }
            "--check-against" => a.check_against = Some(value.into()),
            _ => return Err(bad()),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(knob) = SIM_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
        eprintln!(
            "refusing to run: {knob} is set, and the benchmark measures the simulator's defaults"
        );
        return ExitCode::from(2);
    }
    let run = if args.ctx.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match run {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The seed of request `i`'s inputs under the run seed `seed`.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i)
}

fn measure(ctx: &Ctx) -> Measured {
    match ctx.workload.as_str() {
        "fig5_dense" => solving::run(Kind::Fig5, ctx),
        "align_highschool" => solving::run(Kind::Align, ctx),
        "tiled_1024" => solving::run(Kind::Tiled, ctx),
        "serve_mixed" => serving::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let ctx = &args.ctx;
    let mut m = measure(ctx);
    let reference_ms = stats::median(&m.reference_ms);
    m.notes.push(("reference_ms", reference_ms));
    if let Some(reference) = &args.check_against {
        let ours = Value::Obj(vec![(
            "workloads".into(),
            Value::Arr(vec![record(ctx, &m, &[])]),
        )]);
        if let Err(e) = check_fingerprints(&ours, reference) {
            m.problem(e);
        }
    }
    let metrics = if ctx.trace {
        m.layers.finish()
    } else {
        m.end_to_end(peak_rss_mb()?)
    };
    let results = Value::Obj(vec![
        ("provenance".into(), provenance(ctx)),
        (
            "workloads".into(),
            Value::Arr(vec![record(ctx, &m, &metrics)]),
        ),
    ]);
    let path = out_dir()?.join(file_name("results", ctx, &ctx.workload));
    write(
        &path,
        &serde_json::to_string_pretty(&results).expect("serializable"),
    )?;

    eprintln!(
        "{}: seed {}, {} requests x {} passes, {} (results in {})",
        ctx.workload,
        ctx.seed,
        m.requests,
        m.passes,
        if m.correct() { "correct" } else { "INCORRECT" },
        path.display()
    );
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    for (name, value) in &m.notes {
        eprintln!("  {name:<32} {value:>16.6}");
    }
    println!("{}", final_line(&m, &metrics));
    Ok(m.correct())
}

/// Runs every workload in its own child process, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let ctx = &args.ctx;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    let mut records = Vec::new();
    for name in WORKLOADS {
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &ctx.seed.to_string()]);
        child.args(["--seconds", &ctx.seconds.to_string()]);
        child.args(["--trace", if ctx.trace { "1" } else { "0" }]);
        if ctx.smoke {
            child.arg("--smoke");
        }
        let status = child
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        ok &= status.success();
        let path = out_dir()?.join(file_name("results", ctx, name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let results: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        if let Some(Value::Arr(w)) = field(&results, "workloads") {
            records.extend(w.iter().cloned());
        }
    }
    let results = Value::Obj(vec![
        ("provenance".into(), provenance(ctx)),
        ("workloads".into(), Value::Arr(records)),
    ]);
    if let Some(reference) = &args.check_against {
        if let Err(e) = check_fingerprints(&results, reference) {
            eprintln!("{e}");
            ok = false;
        }
    }
    let path = out_dir()?.join(file_name("results", ctx, "all"));
    write(
        &path,
        &serde_json::to_string_pretty(&results).expect("serializable"),
    )?;
    print_table(&results);
    println!("results in {}", path.display());
    Ok(ok)
}

/// One row per metric, one column per workload.
fn print_table(results: &Value) {
    let Some(Value::Arr(workloads)) = field(results, "workloads") else {
        return;
    };
    print!("{:<32}", "metric");
    for w in workloads {
        if let Some(Value::Str(name)) = field(w, "name") {
            print!(" {name:>18}");
        }
    }
    println!();
    let Some(Value::Obj(first)) = workloads.first().and_then(|w| field(w, "metrics")) else {
        return;
    };
    for (metric, v) in first {
        let unit = match field(v, "unit") {
            Some(Value::Str(u)) => u.as_str(),
            _ => "",
        };
        print!("{:<32}", format!("{metric} ({unit})"));
        for w in workloads {
            match field(w, "metrics")
                .and_then(|ms| field(ms, metric))
                .and_then(|v| field(v, "value"))
            {
                Some(Value::F64(x)) => print!(" {x:>18.4}"),
                _ => print!(" {:>18}", "-"),
            }
        }
        println!();
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn metrics_value(metrics: &[(&'static str, &'static str, f64)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                let v = Value::Obj(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), v)
            })
            .collect(),
    )
}

fn final_line(m: &Measured, metrics: &[(&'static str, &'static str, f64)]) -> String {
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(m.correct())),
        ("attempted".into(), Value::U64(m.attempted)),
        ("failed".into(), Value::U64(m.failed)),
        ("metrics".into(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&line).expect("serializable")
}

/// The workload's entry in the results file.
fn record(ctx: &Ctx, m: &Measured, metrics: &[(&'static str, &'static str, f64)]) -> Value {
    let notes = m
        .notes
        .iter()
        .map(|&(k, v)| (k.to_string(), Value::F64(v)))
        .collect();
    let problems = m.problems.iter().map(|p| Value::Str(p.clone())).collect();
    Value::Obj(vec![
        ("name".into(), Value::Str(ctx.workload.clone())),
        ("seed".into(), Value::U64(ctx.seed)),
        ("smoke".into(), Value::Bool(ctx.smoke)),
        ("instance_n".into(), Value::U64(m.instance_n as u64)),
        ("requests".into(), Value::U64(m.requests as u64)),
        ("passes".into(), Value::U64(m.passes as u64)),
        ("correct".into(), Value::Bool(m.correct())),
        ("attempted".into(), Value::U64(m.attempted)),
        ("failed".into(), Value::U64(m.failed)),
        ("problems".into(), Value::Arr(problems)),
        ("fingerprint".into(), Value::Str(m.fingerprint.hex())),
        ("metrics".into(), metrics_value(metrics)),
        ("notes".into(), Value::Obj(notes)),
    ])
}

/// Compares each workload's fingerprint with the same workload in
/// `reference`; they must match whenever seed, size and requests do.
fn check_fingerprints(results: &Value, reference: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(reference).map_err(|e| format!("{}: {e}", reference.display()))?;
    let theirs: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let (Some(Value::Arr(ours)), Some(Value::Arr(theirs))) =
        (field(results, "workloads"), field(&theirs, "workloads"))
    else {
        return Err(format!("{} holds no workloads", reference.display()));
    };
    for w in ours {
        let Some(Value::Str(name)) = field(w, "name") else {
            return Err("a workload without a name".into());
        };
        let Some(t) = theirs
            .iter()
            .find(|t| matches!(field(t, "name"), Some(Value::Str(n)) if n == name))
        else {
            return Err(format!("{name} is missing from {}", reference.display()));
        };
        for key in ["seed", "smoke", "requests"] {
            if field(w, key) != field(t, key) {
                return Err(format!(
                    "{name}: {key} differs from {}; not comparable",
                    reference.display()
                ));
            }
        }
        if field(w, "fingerprint") != field(t, "fingerprint") {
            return Err(format!(
                "{name}: fingerprint differs from {}",
                reference.display()
            ));
        }
    }
    eprintln!("fingerprints match {}", reference.display());
    Ok(())
}

/// Passes a run makes at least, so every request's host time is the
/// fastest of two or more tries.
const MIN_PASSES: usize = 2;

/// Runs `pass` over the workload's request set — set-ups included — and
/// folds the passes together. An untraced run repeats passes until it
/// has made [`MIN_PASSES`] and `ctx.seconds` have gone by. A traced run
/// alternates untraced and traced passes, [`MIN_PASSES`] of each, so the
/// two sides are measured alike and their difference is the tracing
/// overhead; its per-layer values come from the last traced pass.
pub fn run_passes(
    ctx: &Ctx,
    mut m: Measured,
    mut pass: impl FnMut(&mut Spans, &mut Measured),
) -> Measured {
    let (n, requests) = (m.instance_n, m.requests);
    let mut spans = Spans::new(false);
    let mut run_pass = |spans: &mut Spans| {
        let mut p = Measured::new(n, requests);
        p.tick();
        pass(spans, &mut p);
        p
    };
    if ctx.trace {
        let mut sides = [Measured::new(n, requests), Measured::new(n, requests)];
        for traced in [false, true].repeat(MIN_PASSES) {
            spans.set_on(traced);
            let p = run_pass(&mut spans);
            sides[usize::from(traced)].absorb(p);
        }
        let [untraced, mut traced] = sides;
        finish_trace(ctx, &spans, &untraced, &mut traced);
        if untraced.fingerprint.hex() != traced.fingerprint.hex() {
            traced.problem("traced passes answered differently from untraced ones".into());
        }
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.problems.extend(untraced.problems);
        traced.reference_ms.extend(untraced.reference_ms);
        return traced;
    }
    let start = std::time::Instant::now();
    loop {
        let p = run_pass(&mut spans);
        let failed_setup = p.setup_s.is_empty();
        m.absorb(p);
        let done = m.passes >= MIN_PASSES && start.elapsed().as_secs_f64() >= ctx.seconds;
        if done || failed_setup {
            return m;
        }
    }
}

/// Ends a traced run: reports the tracing overhead against the untraced
/// passes over the same requests, and writes and validates the Chrome
/// trace.
fn finish_trace(ctx: &Ctx, spans: &Spans, untraced: &Measured, traced: &mut Measured) {
    let overhead = stats::median(&traced.wall_ms) / stats::median(&untraced.wall_ms) - 1.0;
    traced.layers.push("trace.overhead_frac", overhead);
    traced.notes.push(("tracing_overhead_frac", overhead));

    let json = spans.chrome(&ctx.workload).to_json();
    if let Err(e) = trace::ChromeTrace::validate_json(&json) {
        traced.problem(format!("Chrome trace fails validation: {e}"));
    }
    let written = out_dir().and_then(|dir| {
        let path = dir.join(file_name("trace", ctx, &ctx.workload));
        write(&path, &json).map(|()| path)
    });
    match written {
        Ok(path) => eprintln!("{}: Chrome trace in {}", ctx.workload, path.display()),
        Err(e) => traced.problem(e),
    }
    eprintln!("{}: self time by layer in the traced pass", ctx.workload);
    for (layer, ms) in spans.self_ms() {
        eprintln!("  {layer:<16} {ms:>12.1} ms");
    }
    eprintln!(
        "  tracing overhead {:+.2}% of the median request",
        overhead * 100.0
    );
}

fn provenance(ctx: &Ctx) -> Value {
    let cfg = ipu_sim::IpuConfig::mk2();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("seed".into(), Value::U64(ctx.seed)),
        ("git_revision".into(), Value::Str(git_revision())),
        ("nproc".into(), Value::U64(nproc as u64)),
        (
            "resolved_host_threads".into(),
            Value::U64(cfg.resolved_host_threads() as u64),
        ),
        (
            "resolved_parallel_threshold".into(),
            Value::U64(cfg.resolved_parallel_threshold() as u64),
        ),
        (
            "resolved_exec_mode".into(),
            Value::Str(format!("{:?}", cfg.resolved_exec_mode())),
        ),
        ("run_seconds".into(), Value::F64(ctx.seconds)),
        ("trace".into(), Value::Bool(ctx.trace)),
    ])
}

/// The checked-out commit, from the repository at the working directory
/// only; "unknown" outside a git checkout.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

fn out_dir() -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `<what>-<workload>-seed<n>[-trace][-smoke].json`
fn file_name(what: &str, ctx: &Ctx, workload: &str) -> String {
    let trace = if ctx.trace { "-trace" } else { "" };
    let smoke = if ctx.smoke { "-smoke" } else { "" };
    format!("{what}-{workload}-seed{}{trace}{smoke}.json", ctx.seed)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Arr(metrics)) = field(&spec, key) else {
            panic!("BENCHMARK.json has no {key}");
        };
        metrics
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("malformed metric {other:?}"),
            })
            .collect()
    }

    #[test]
    fn smoke_runs_print_every_declared_metric_and_answer_correctly() {
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want = declared(key);
            for workload in WORKLOADS {
                let ctx = Ctx {
                    workload: workload.into(),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let m = measure(&ctx);
                assert!(m.correct(), "{workload}: {:?}", m.problems);
                assert_eq!(m.failed, 0, "{workload}: error rate is not 0");
                let metrics = if trace {
                    m.layers.finish()
                } else {
                    m.end_to_end(1.0)
                };
                let line: Value =
                    serde_json::from_str(&final_line(&m, &metrics)).expect("JSON line");
                let printed = field(&line, "metrics").expect("metrics");
                for (name, unit) in &want {
                    let v = field(printed, name)
                        .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                    assert_eq!(
                        field(v, "unit"),
                        Some(&Value::Str(unit.clone())),
                        "{workload}: {name}"
                    );
                    assert!(matches!(field(v, "value"), Some(Value::F64(x)) if x.is_finite()));
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload tiled_1024 --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (
                a.ctx.workload.as_str(),
                a.ctx.seed,
                a.ctx.seconds,
                a.ctx.trace
            ),
            ("tiled_1024", 7, 3.0, true)
        );
        assert_eq!(parse("").expect("defaults").ctx.workload, "all");
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} accepted");
        }
    }
}
