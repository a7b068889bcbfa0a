//! Property tests for the execution profilers: on arbitrary instances,
//! both simulators' timelines must reconcile *exactly* with their own
//! cycle/time accounting, and the IPU profile must be bit-identical
//! between the interpreter and the lowered plan.

use fastha::FastHa;
use gpu_sim::GpuProfileConfig;
use hunipu::HunIpu;
use ipu_sim::{Engine, ExecMode, IpuConfig, ProfileConfig, ProfileEvent};
use lsap::CostMatrix;
use proptest::prelude::*;

/// A deterministic pseudo-random instance (xorshift; independent of the
/// proptest RNG so failures replay from the parameters alone).
fn instance(n: usize, span: u64, seed: u64) -> CostMatrix {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    CostMatrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % span) as f64
    })
    .unwrap()
}

fn profiled_engine(
    m: &CostMatrix,
    tiles: usize,
    exec_mode: ExecMode,
    config: ProfileConfig,
) -> Engine {
    let cfg = IpuConfig {
        exec_mode,
        ..IpuConfig::tiny(tiles)
    };
    let (_, engine) = HunIpu::with_config(cfg)
        .with_profiling(config)
        .solve_with_engine(m)
        .expect("solve failed");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Timeline/aggregate reconciliation on the IPU: per-superstep max
    /// costs sum to `compute_cycles`, per-pair exchange bytes sum to
    /// `exchange_bytes`, and the occupancy histogram accounts for every
    /// (tile, superstep) pair — all exactly.
    #[test]
    fn ipu_profile_reconciles_with_cycle_stats(
        n in 4usize..13,
        tiles in 2usize..7,
        span in 5u64..50,
        seed in 0u64..1000,
    ) {
        let m = instance(n, span, seed);
        // An effectively unbounded ring so the event sums are complete.
        let engine = profiled_engine(&m, tiles, ExecMode::Plan, ProfileConfig {
            max_events: usize::MAX,
            ..Default::default()
        });
        let p = engine.profile().expect("profiler installed");
        let stats = engine.stats();
        let report = engine.profile_report().unwrap();

        prop_assert_eq!(report.compute_cycles, stats.compute_cycles);
        prop_assert_eq!(report.sync_cycles, stats.sync_cycles);
        prop_assert_eq!(report.exchange_cycles, stats.exchange_cycles);
        prop_assert_eq!(report.control_cycles, stats.control_cycles);
        prop_assert_eq!(report.supersteps, stats.supersteps);
        prop_assert_eq!(report.exchanges, stats.exchanges);
        prop_assert_eq!(report.exchange_bytes, stats.exchange_bytes);
        prop_assert_eq!(report.events_dropped, 0);

        // Event-level reconciliation: nothing was dropped, so the
        // timeline itself must re-derive the aggregate totals.
        let mut compute = 0u64;
        let mut exchange_bytes = 0u64;
        for e in &p.events {
            match e {
                ProfileEvent::Superstep(s) => {
                    compute += s.cycles;
                    // Duration = slowest sampled tile (full sampling here).
                    let max_tile = s.tiles.iter().map(|t| t.cycles).max().unwrap_or(0);
                    prop_assert_eq!(s.cycles, max_tile + s.straggler_extra);
                    // Sync wait: every sampled tile idles for the gap to
                    // the superstep duration.
                    for t in &s.tiles {
                        prop_assert_eq!(t.sync_wait, s.cycles - t.cycles);
                    }
                }
                ProfileEvent::Exchange(x) => exchange_bytes += x.bytes,
                _ => {}
            }
        }
        prop_assert_eq!(compute, stats.compute_cycles);
        prop_assert_eq!(exchange_bytes, stats.exchange_bytes);

        // Aggregate cross-sums.
        let heat: u64 = report.exchange_heatmap.iter().map(|c| c.bytes).sum();
        prop_assert_eq!(heat, report.exchange_bytes);
        let occ: u64 = report.occupancy_histogram.iter().sum();
        prop_assert_eq!(occ, report.tile_supersteps);
    }

    /// The full profile — raw event ring, summary report, and rendered
    /// Chrome trace — is bit-identical between interpreter and plan.
    #[test]
    fn ipu_profile_bit_identical_interpreted_vs_plan(
        n in 4usize..11,
        tiles in 2usize..6,
        seed in 0u64..1000,
    ) {
        let m = instance(n, 40, seed);
        let interp = profiled_engine(&m, tiles, ExecMode::Interpreted, ProfileConfig::default());
        let plan = profiled_engine(&m, tiles, ExecMode::Plan, ProfileConfig::default());
        prop_assert_eq!(interp.profile(), plan.profile());
        prop_assert_eq!(interp.profile_report(), plan.profile_report());
        prop_assert_eq!(
            interp.chrome_trace(1, "ipu").unwrap().to_json(),
            plan.chrome_trace(1, "ipu").unwrap().to_json()
        );
    }

    /// Sampling and the ring bound change which *events* are retained,
    /// never the aggregates: the report totals of a sampled, tightly
    /// bounded profiler match the full one's exactly.
    #[test]
    fn ipu_sampling_never_biases_aggregates(
        n in 4usize..11,
        tiles in 2usize..6,
        stride in 2usize..5,
        seed in 0u64..1000,
    ) {
        let m = instance(n, 30, seed);
        let full = profiled_engine(&m, tiles, ExecMode::Plan, ProfileConfig::default());
        let sampled = profiled_engine(&m, tiles, ExecMode::Plan, ProfileConfig {
            tile_sample: stride,
            max_events: 64,
            ..Default::default()
        });
        let f = full.profile_report().unwrap();
        let s = sampled.profile_report().unwrap();
        prop_assert_eq!(s.compute_cycles, f.compute_cycles);
        prop_assert_eq!(s.sync_cycles, f.sync_cycles);
        prop_assert_eq!(s.exchange_cycles, f.exchange_cycles);
        prop_assert_eq!(s.exchange_bytes, f.exchange_bytes);
        prop_assert_eq!(s.tile_supersteps, f.tile_supersteps);
        prop_assert_eq!(&s.exchange_heatmap, &f.exchange_heatmap);
        prop_assert_eq!(&s.occupancy_histogram, &f.occupancy_histogram);
        prop_assert_eq!(&s.stragglers, &f.stragglers);
        // The bound was actually exercised on these instances.
        prop_assert!(s.events_recorded <= 64);
    }

    /// GPU side: the per-launch timeline and per-kernel rows reconcile
    /// exactly (bitwise for the modeled seconds) with `GpuStats`.
    #[test]
    fn gpu_profile_reconciles_with_stats(
        exp in 2u32..4,
        span in 5u64..50,
        seed in 0u64..1000,
    ) {
        let n = 1usize << exp;
        let m = instance(n, span, seed);
        let (rep, gpu) = FastHa::new()
            .with_profiling(GpuProfileConfig::default())
            .solve_with_device(&m)
            .expect("solve failed");
        let p = gpu.profile_report().unwrap();
        let stats = gpu.stats();
        prop_assert_eq!(p.launches, stats.launches);
        prop_assert_eq!(p.host_syncs, stats.host_syncs);
        prop_assert_eq!(p.warp_cycles, stats.warp_cycles);
        prop_assert_eq!(p.kernel_seconds.to_bits(), stats.kernel_seconds.to_bits());
        prop_assert_eq!(p.host_sync_seconds.to_bits(), stats.host_sync_seconds.to_bits());
        let launches: u64 = p.per_kernel.iter().map(|k| k.launches).sum();
        let cycles: u64 = p.per_kernel.iter().map(|k| k.warp_cycles).sum();
        prop_assert_eq!(launches, stats.launches);
        prop_assert_eq!(cycles, stats.warp_cycles);
        prop_assert_eq!(
            rep.stats.profile_events,
            p.events_recorded as u64 + p.events_dropped
        );
    }

    /// Profiling must be pure observation: enabling it changes neither
    /// the assignment nor one cycle of the modeled accounting.
    #[test]
    fn profiling_is_observation_only(
        n in 4usize..11,
        tiles in 2usize..6,
        seed in 0u64..1000,
    ) {
        let m = instance(n, 25, seed);
        let cfg = IpuConfig::tiny(tiles);
        let (plain, plain_engine) =
            HunIpu::with_config(cfg.clone()).solve_with_engine(&m).unwrap();
        let (prof, prof_engine) = HunIpu::with_config(cfg)
            .with_profiling(ProfileConfig::default())
            .solve_with_engine(&m)
            .unwrap();
        prop_assert_eq!(plain.objective.to_bits(), prof.objective.to_bits());
        prop_assert_eq!(
            plain.assignment.pairs().collect::<Vec<_>>(),
            prof.assignment.pairs().collect::<Vec<_>>()
        );
        prop_assert_eq!(plain_engine.stats(), prof_engine.stats());
        prop_assert_eq!(plain.stats.profile_events, 0);
        prop_assert!(prof.stats.profile_events > 0);
    }
}
