//! Cycle-model constants and their rationale.
//!
//! The simulator charges cycles in three places — compute, sync, exchange
//! — following the BSP model the IPU enforces (§III-A of the paper,
//! Valiant 1990). Constants come from the paper's hardware description and
//! the Graphcore microbenchmarking literature it cites (Jia et al.,
//! "Dissecting the Graphcore IPU architecture", arXiv:1912.03413):
//!
//! - **Clock 1.325 GHz, 1472 tiles, 6 threads/tile, 624 KiB/tile** —
//!   stated directly in §III and §V of the paper.
//! - **Thread issue model.** A tile's core rotates between its six
//!   hardware threads, issuing one instruction per cycle overall; a thread
//!   therefore runs at 1/6 of the clock when alone and the tile reaches
//!   full throughput only when all six threads carry balanced work. The
//!   compute charge of a superstep on one tile is
//!   `6 * max_thread(thread_instructions)`; the chip-wide charge is the
//!   max over tiles (stragglers stall the BSP step, challenge C3).
//! - **Two floats at a time.** The paper repeatedly exploits 64-bit loads
//!   ("we retrieve and update from the tile's memory two floats at once",
//!   §IV-C, §IV-H); [`crate::cost`] helpers charge `n/2` instructions per
//!   `n`-element f32 scan accordingly.
//! - **Exchange: 4 B/cycle/tile.** Jia et al. measure ~5.8 GB/s per-tile
//!   exchange bandwidth on Mk1 and ~8 TB/s aggregate on Mk2; 4 bytes per
//!   cycle per tile at 1.325 GHz gives 5.3 GB/s per tile, 7.8 TB/s
//!   aggregate — matching the paper's "fast (8 TB/s theoretical)
//!   all-to-all" description.
//! - **Sync ~150 cycles.** Chip-wide sync latency is of the order of
//!   100 ns on Mk2 (Jia et al. measure 35–150 ns depending on sync zone).
//! - **Exchange setup ~50 cycles** — the fixed cost of entering the
//!   exchange phase and executing the pre-compiled exchange sequence.
//! - **Control ~50 cycles** — `RepeatWhileTrue` evaluates a device scalar
//!   between supersteps.
//!
//! None of these constants is tuned per-benchmark: Table II / Figure 5 /
//! Table III shapes are produced by the *same* model.

/// Tiles on the Mk2 GC200.
pub const MK2_TILES: usize = 1472;

/// Mk2 tile clock, Hz (§III of the paper; Jia et al. report the same
/// 1.325 GHz for the GC2 and Graphcore lists it for the GC200).
pub const MK2_CLOCK_HZ: f64 = 1.325e9;

/// On-chip exchange bandwidth per tile, bytes per cycle.
///
/// Citadel's microbenchmarks measure ~5.8 GB/s sustained per-tile
/// exchange bandwidth and ~8 TB/s aggregate; 4 B/cycle at
/// [`MK2_CLOCK_HZ`] gives 5.3 GB/s per tile and 7.8 TB/s aggregate
/// across [`MK2_TILES`] — within 10% of both observations (the
/// derivation is asserted by this module's tests).
pub const EXCHANGE_BYTES_PER_CYCLE: f64 = 4.0;

/// Chip-wide BSP synchronization charge, cycles.
///
/// Citadel measures internal sync latency from 35 ns (a minimal sync
/// zone, [`SYNC_CYCLES_INTERNAL_MIN`]) up to ~150 ns when the sync
/// spans the full chip under load. The solver's supersteps are
/// chip-wide (every tile owns matrix columns), so the simulator charges
/// the full-chip figure: 150 ns ≈ 200 cycles at 1.325 GHz, kept at 150
/// cycles to stay on the paper's earlier-calibration anchor — between
/// the two measured bounds, and deliberately *not* retuned
/// per-benchmark (all committed baselines share it).
pub const SYNC_CYCLES: u64 = 150;

/// Floor of the measured internal-sync latency: 35 ns at
/// [`MK2_CLOCK_HZ`] ≈ 46 cycles (Citadel). A lower bound for any
/// sync-zone configuration; the cost models use [`SYNC_CYCLES`].
pub const SYNC_CYCLES_INTERNAL_MIN: u64 = 46;

/// Fixed charge to set up one exchange phase, cycles.
pub const EXCHANGE_SETUP_CYCLES: u64 = 50;

/// Per-iteration charge of data-dependent control flow, cycles.
pub const CONTROL_CYCLES: u64 = 50;

/// Per-tile bandwidth for exchange bytes that cross a chip boundary,
/// bytes per cycle.
///
/// A Mk2 exposes ten IPU-Links of 32 GB/s each (320 GB/s per chip,
/// bidirectional aggregate); spread over 1472 tiles at 1.325 GHz that is
/// ~0.16 B/cycle/tile — ~25x slower than the 4 B/cycle on-chip fabric,
/// which is why multi-IPU layouts keep hot state chip-local.
pub const INTER_IPU_BYTES_PER_CYCLE: f64 = 0.16;

/// Fixed per-vertex dispatch overhead, instructions.
///
/// Every vertex execution pays this once: Poplar's vertex call sequence
/// (load vertex state, jump, return) costs a small constant.
pub const VERTEX_OVERHEAD: u64 = 10;

/// Fixed cycles to attach and launch a compiled program on the device.
///
/// Loading a Poplar executable is the notoriously expensive part of an
/// IPU workflow: the host streams the program image over PCIe and the
/// device distributes code to every tile before the first superstep can
/// run. We model the fixed share — device attach, sync-zone setup,
/// per-tile code distribution — at ~0.38 ms (500k cycles at 1.325 GHz),
/// the floor of what Graphcore's own `engine.load()` timings show for
/// tiny programs. This cost is a **static property of a compiled engine**
/// ([`crate::Engine::program_load_cycles`]), charged by callers once per
/// program *load*, not per run — which is exactly why batched serving
/// reuses one engine across instances (C4: one program per tensor shape).
pub const PROGRAM_LOAD_BASE_CYCLES: u64 = 500_000;

/// Host-to-device bandwidth for streaming the program image, bytes per
/// cycle chip-wide.
///
/// PCIe Gen4 x16 sustains ~32 GB/s; at 1.325 GHz that is ~24 B/cycle —
/// two orders of magnitude below the on-chip exchange aggregate, which is
/// why program size matters at load time and not during solves.
pub const HOST_IO_BYTES_PER_CYCLE: f64 = 24.0;

/// Modeled program-image bytes per vertex (codelet descriptor, edge
/// table, and the vertex's share of tile code).
pub const IMAGE_BYTES_PER_VERTEX: u64 = 96;

/// Modeled program-image bytes per tensor (variable descriptor and
/// tile-mapping table entry).
pub const IMAGE_BYTES_PER_TENSOR: u64 = 24;

/// Modeled program-image bytes per lowered control-flow/exchange node
/// (sequence entries, loop headers, pre-compiled exchange sequences).
pub const IMAGE_BYTES_PER_NODE: u64 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    /// The constants must stay anchored to the Citadel measurements they
    /// cite: if someone retunes one, these derivations force the docs
    /// (and the downstream cost models) to be revisited too.
    #[test]
    fn exchange_constants_match_citadel_bandwidths() {
        // Per-tile: 4 B/cycle · 1.325 GHz = 5.3 GB/s vs measured ~5.8 GB/s.
        let per_tile_gb_s = EXCHANGE_BYTES_PER_CYCLE * MK2_CLOCK_HZ / 1e9;
        assert!(
            (per_tile_gb_s - 5.8).abs() / 5.8 < 0.10,
            "per-tile exchange bandwidth {per_tile_gb_s:.2} GB/s drifted \
             from Citadel's ~5.8 GB/s"
        );
        // Aggregate: × 1472 tiles = 7.8 TB/s vs the paper's "8 TB/s".
        let aggregate_tb_s = per_tile_gb_s * MK2_TILES as f64 / 1e3;
        assert!(
            (aggregate_tb_s - 8.0).abs() / 8.0 < 0.05,
            "aggregate exchange bandwidth {aggregate_tb_s:.2} TB/s drifted \
             from the ~8 TB/s all-to-all figure"
        );
    }

    #[test]
    fn sync_charge_sits_between_the_measured_bounds() {
        // 35 ns floor ≤ charged sync ≤ 150 ns full-chip ceiling.
        let ns = |cycles: u64| cycles as f64 / MK2_CLOCK_HZ * 1e9;
        assert!((ns(SYNC_CYCLES_INTERNAL_MIN) - 35.0).abs() < 1.0);
        assert!(ns(SYNC_CYCLES) >= 35.0 && ns(SYNC_CYCLES) <= 150.0);
        const { assert!(SYNC_CYCLES_INTERNAL_MIN < SYNC_CYCLES) };
    }

    #[test]
    fn inter_chip_fabric_is_an_order_slower_than_on_chip() {
        // Ten 32 GB/s IPU-Links spread over 1472 tiles: ~0.16 B/cycle,
        // ~25× below the on-chip 4 B/cycle — the reason chip-aware
        // layouts keep hot state chip-local, and why extra chips make
        // HunIPU slower at `bench engines` sizes.
        let links_b_per_cycle = 320e9 / MK2_CLOCK_HZ / MK2_TILES as f64;
        assert!((links_b_per_cycle - INTER_IPU_BYTES_PER_CYCLE).abs() < 0.01);
        let ratio = EXCHANGE_BYTES_PER_CYCLE / INTER_IPU_BYTES_PER_CYCLE;
        assert!((20.0..30.0).contains(&ratio), "on/off-chip ratio {ratio}");
    }
}
