//! Tiny dependency-free argument parsing shared by the harness binaries.

/// Parsed command-line options.
///
/// Conventions across binaries:
/// - `--full` runs the paper's complete parameter grid (hours of host
///   time when simulating the biggest instances); the default grid is
///   chosen to finish in minutes while covering the shape,
/// - `--sizes 512,1024` / `--ks 10,500` override the sweeps,
/// - `--seed N` changes the dataset seed,
/// - positional arguments select sub-experiments (e.g. `table3
///   highschool`).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// `--full` grid flag.
    pub full: bool,
    /// `--uniform`: use uniformly-distributed costs instead of Gaussian
    /// (the paper reports "similar speedup with uniformly distributed
    /// data", omitted there for space — reproducible here).
    pub uniform: bool,
    /// Override for the size sweep.
    pub sizes: Option<Vec<usize>>,
    /// Override for the k (value-range) sweep.
    pub ks: Option<Vec<u64>>,
    /// Dataset seed.
    pub seed: u64,
    /// `--tile-sample N`: per-tile detail stride for the IPU profiler
    /// (1 = every tile; larger strides bound trace size on big devices).
    pub tile_sample: Option<u32>,
    /// `--max-events N`: timeline ring-buffer capacity for the profilers.
    pub max_events: Option<usize>,
    /// `--out PATH`: output path override (e.g. where `bench profile`
    /// writes its merged Chrome trace).
    pub out: Option<String>,
    /// `--batch B`: instances per batch for the batch harness.
    pub batch: Option<usize>,
    /// `--write-baseline`: record the gate binary's baseline-shaped
    /// JSON (by default over the committed file at the repo root).
    pub write_baseline: bool,
    /// `--baseline PATH`: where `--write-baseline` records (`bench gate`
    /// points it under `target/experiments/`).
    pub baseline: Option<String>,
    /// `--all`: run every registered baseline gate (`bench gate`).
    pub all: bool,
    /// `--drift`: re-record every baseline to a scratch directory and
    /// diff against the committed files (`bench gate`, the weekly
    /// scheduled job).
    pub drift: bool,
    /// `--only NAME`: restrict `bench gate` to gates whose name contains
    /// NAME.
    pub only: Option<String>,
    /// Positional arguments.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `std::env::args`, panicking with a usage hint on malformed
    /// input (these are developer-facing harnesses).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args {
            seed: 1,
            ..Default::default()
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => out.full = true,
                "--uniform" => out.uniform = true,
                "--sizes" => {
                    let v = it.next().expect("--sizes needs a comma-separated list");
                    out.sizes = Some(
                        v.split(',')
                            .map(|x| x.trim().parse().expect("bad size"))
                            .collect(),
                    );
                }
                "--ks" => {
                    let v = it.next().expect("--ks needs a comma-separated list");
                    out.ks = Some(
                        v.split(',')
                            .map(|x| x.trim().parse().expect("bad k"))
                            .collect(),
                    );
                }
                "--seed" => {
                    out.seed = it
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("bad seed");
                }
                "--tile-sample" => {
                    let v: u32 = it
                        .next()
                        .expect("--tile-sample needs a value")
                        .parse()
                        .expect("bad tile-sample stride");
                    assert!(v >= 1, "--tile-sample must be >= 1");
                    out.tile_sample = Some(v);
                }
                "--max-events" => {
                    out.max_events = Some(
                        it.next()
                            .expect("--max-events needs a value")
                            .parse()
                            .expect("bad max-events capacity"),
                    );
                }
                "--out" => {
                    out.out = Some(it.next().expect("--out needs a path"));
                }
                "--batch" => {
                    let b: usize = it
                        .next()
                        .expect("--batch needs a value")
                        .parse()
                        .expect("bad batch size");
                    assert!(b >= 1, "--batch must be >= 1");
                    out.batch = Some(b);
                }
                "--write-baseline" => out.write_baseline = true,
                "--baseline" => {
                    out.baseline = Some(it.next().expect("--baseline needs a path"));
                }
                "--all" => out.all = true,
                "--drift" => out.drift = true,
                "--only" => {
                    out.only = Some(it.next().expect("--only needs a gate name"));
                }
                other if other.starts_with("--") => {
                    panic!(
                        "unknown flag {other}; supported: \
                         --full --uniform --sizes --ks --seed \
                         --tile-sample --max-events --out --batch \
                         --write-baseline --baseline --all --drift \
                         --only"
                    )
                }
                other => out.positional.push(other.to_string()),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert!(!a.full);
        assert_eq!(a.seed, 1);
        assert!(a.sizes.is_none());
    }

    #[test]
    fn full_sizes_ks_seed_and_positional() {
        let a = parse("--full --sizes 512,1024 --ks 10,500 --seed 7 highschool");
        assert!(a.full);
        assert_eq!(a.sizes.as_deref(), Some(&[512, 1024][..]));
        assert_eq!(a.ks.as_deref(), Some(&[10, 500][..]));
        assert_eq!(a.seed, 7);
        assert_eq!(a.positional, vec!["highschool"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse("--bogus");
    }

    #[test]
    fn profiler_flags_parse() {
        let a = parse("--tile-sample 4 --max-events 1024 --out /tmp/t.json");
        assert_eq!(a.tile_sample, Some(4));
        assert_eq!(a.max_events, Some(1024));
        assert_eq!(a.out.as_deref(), Some("/tmp/t.json"));
    }

    #[test]
    fn profiler_flags_default_to_none() {
        let a = parse("--seed 3");
        assert_eq!(a.tile_sample, None);
        assert_eq!(a.max_events, None);
        assert_eq!(a.out, None);
    }

    #[test]
    #[should_panic(expected = "--tile-sample must be >= 1")]
    fn zero_tile_sample_panics() {
        parse("--tile-sample 0");
    }

    #[test]
    fn batch_and_gate_flags_parse() {
        let a = parse("--batch 32 --baseline /tmp/b.json");
        assert_eq!(a.batch, Some(32));
        assert!(!a.write_baseline);
        assert_eq!(a.baseline.as_deref(), Some("/tmp/b.json"));
        let b = parse("--write-baseline");
        assert!(b.write_baseline);
        assert_eq!(b.batch, None);
    }

    #[test]
    #[should_panic(expected = "--batch must be >= 1")]
    fn zero_batch_panics() {
        parse("--batch 0");
    }

    #[test]
    fn gate_runner_flags_parse() {
        let a = parse("--all --drift --only resolve");
        assert!(a.all && a.drift);
        assert_eq!(a.only.as_deref(), Some("resolve"));
        let b = parse("--seed 2");
        assert!(!b.all && !b.drift && b.only.is_none());
    }
}
