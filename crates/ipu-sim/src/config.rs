//! Device configuration.

use serde::{Deserialize, Serialize};

/// Which host execution strategy an engine uses for compiled programs.
///
/// Both strategies honor the same contract: buffers, [`crate::CycleStats`],
/// [`crate::FaultStats`], and profiles are bit-identical between them —
/// the mode affects **host wall-clock only**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecMode {
    /// Use the `SIM_EXEC` environment variable if set
    /// (`plan`/`interp`/`interpreted`), else the lowered plan.
    #[default]
    Auto,
    /// Pre-resolved straight-line execution plan: monomorphized vertex
    /// tables, pre-sliced buffer views, flattened exchange copy lists
    /// (the fast path).
    Plan,
    /// Walk the lowered program tree and re-derive vertex state each
    /// superstep (the reference path the plan is differentially tested
    /// against).
    Interpreted,
}

/// Hardware parameters of the simulated IPU.
///
/// Defaults model the Colossus Mk2 GC200 used by the paper (§III, §V).
/// Smaller configurations are useful in tests: constraint violations
/// (memory, mapping) reproduce at any scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpuConfig {
    /// Number of tiles on the chip (Mk2: 1472).
    pub tiles: usize,
    /// Hardware threads per tile (Mk2: 6).
    pub threads_per_tile: usize,
    /// SRAM per tile in bytes (Mk2: 624 KiB).
    pub tile_memory_bytes: usize,
    /// Core clock in Hz (Mk2: 1.325 GHz).
    pub clock_hz: f64,
    /// Exchange-fabric bandwidth per tile, bytes per cycle in each
    /// direction (Mk2: ~4 B/cycle send per tile).
    pub exchange_bytes_per_cycle: f64,
    /// Cycles charged for a chip-wide BSP synchronization.
    pub sync_cycles: u64,
    /// Fixed cycles charged to set up one exchange phase.
    pub exchange_setup_cycles: u64,
    /// Cycles charged per iteration of data-dependent control flow
    /// (`RepeatWhileTrue` reads a device scalar between supersteps).
    pub control_cycles: u64,
    /// Number of chips in the system. On a multi-IPU system "the
    /// exchange fabric extends to all tiles on all of the IPUs" (§III),
    /// but traffic between chips crosses IPU-Links, which are far slower
    /// than the on-chip fabric.
    pub ipus: usize,
    /// Tiles per chip (`tiles = ipus * tiles_per_ipu`).
    pub tiles_per_ipu: usize,
    /// Per-tile bandwidth for bytes crossing a chip boundary, bytes per
    /// cycle (IPU-Link share; see `calibration`).
    pub inter_ipu_bytes_per_cycle: f64,
    /// Iteration guard for `RepeatWhileTrue`: the watchdog that turns a
    /// stuck device loop into [`crate::GraphError::Divergence`] instead of
    /// hanging the host. The default is generous (the paper's largest
    /// instances stay far below it); tests and resilience supervisors
    /// lower it to fail fast.
    pub max_while_iterations: u64,
    /// Fixed cycles to attach and launch a compiled program (device
    /// attach + per-tile code distribution). Reported as a static engine
    /// property ([`crate::Engine::program_load_cycles`]), never charged
    /// into [`crate::CycleStats`]; batch serving pays it once per
    /// program while sequential solving pays it per solve.
    #[serde(default = "default_program_load_base_cycles")]
    pub program_load_base_cycles: u64,
    /// Host→device bandwidth for streaming the program image, bytes per
    /// cycle chip-wide (PCIe share; see `calibration`).
    #[serde(default = "default_host_io_bytes_per_cycle")]
    pub host_io_bytes_per_cycle: f64,
    /// Host execution strategy ([`ExecMode`]). Affects wall-clock only;
    /// results are bit-identical between modes.
    #[serde(default)]
    pub exec_mode: ExecMode,
}

fn default_program_load_base_cycles() -> u64 {
    crate::calibration::PROGRAM_LOAD_BASE_CYCLES
}

fn default_host_io_bytes_per_cycle() -> f64 {
    crate::calibration::HOST_IO_BYTES_PER_CYCLE
}

impl IpuConfig {
    /// The paper's device: a Colossus Mk2 GC200.
    pub fn mk2() -> Self {
        Self {
            tiles: calibration_tiles(),
            threads_per_tile: 6,
            tile_memory_bytes: 624 * 1024,
            clock_hz: crate::calibration::MK2_CLOCK_HZ,
            exchange_bytes_per_cycle: crate::calibration::EXCHANGE_BYTES_PER_CYCLE,
            sync_cycles: crate::calibration::SYNC_CYCLES,
            exchange_setup_cycles: crate::calibration::EXCHANGE_SETUP_CYCLES,
            control_cycles: crate::calibration::CONTROL_CYCLES,
            ipus: 1,
            tiles_per_ipu: calibration_tiles(),
            inter_ipu_bytes_per_cycle: crate::calibration::INTER_IPU_BYTES_PER_CYCLE,
            max_while_iterations: 100_000_000,
            program_load_base_cycles: crate::calibration::PROGRAM_LOAD_BASE_CYCLES,
            host_io_bytes_per_cycle: crate::calibration::HOST_IO_BYTES_PER_CYCLE,
            exec_mode: ExecMode::Auto,
        }
    }

    /// A multi-chip system of `ipus` Mk2s (e.g. an M2000 holds four):
    /// one exchange address space over `1472 * ipus` tiles, with
    /// chip-crossing traffic charged at IPU-Link bandwidth.
    pub fn mk2_multi(ipus: usize) -> Self {
        assert!(ipus >= 1);
        let per = calibration_tiles();
        Self {
            tiles: per * ipus,
            ipus,
            tiles_per_ipu: per,
            ..Self::mk2()
        }
    }

    /// A small device for unit tests: `tiles` tiles with the Mk2's other
    /// parameters.
    pub fn tiny(tiles: usize) -> Self {
        Self {
            tiles,
            tiles_per_ipu: tiles,
            ..Self::mk2()
        }
    }

    /// A small multi-chip device for tests: `ipus` chips of
    /// `tiles_per_ipu` tiles.
    pub fn tiny_multi(ipus: usize, tiles_per_ipu: usize) -> Self {
        Self {
            tiles: ipus * tiles_per_ipu,
            ipus,
            tiles_per_ipu,
            ..Self::mk2()
        }
    }

    /// The chip hosting `tile`.
    pub fn ipu_of(&self, tile: usize) -> usize {
        tile / self.tiles_per_ipu
    }

    /// The chip hosting `tile` — alias of [`ipu_of`](Self::ipu_of) for
    /// program builders that speak in chips.
    pub fn chip_of_tile(&self, tile: usize) -> usize {
        self.ipu_of(tile)
    }

    /// The contiguous device-tile range of chip `ipu`
    /// (`ipu * tiles_per_ipu .. (ipu + 1) * tiles_per_ipu`).
    pub fn tiles_of_ipu(&self, ipu: usize) -> std::ops::Range<usize> {
        ipu * self.tiles_per_ipu..(ipu + 1) * self.tiles_per_ipu
    }

    /// Checks the topology for internal consistency.
    ///
    /// An inconsistent config (e.g. `tiles != ipus * tiles_per_ipu`)
    /// would silently miscost cross-chip traffic: `ipu_of` would place
    /// tiles on chips that don't exist, or lump several chips together.
    /// [`crate::Graph::compile`] calls this before building an engine so
    /// the mistake surfaces as a clear error instead of wrong cycle
    /// counts.
    pub fn validate(&self) -> Result<(), String> {
        if self.ipus == 0 {
            return Err("IpuConfig: ipus must be >= 1".into());
        }
        if self.tiles_per_ipu == 0 {
            return Err("IpuConfig: tiles_per_ipu must be >= 1".into());
        }
        if self.tiles != self.ipus * self.tiles_per_ipu {
            return Err(format!(
                "IpuConfig: tiles ({}) != ipus ({}) * tiles_per_ipu ({}); \
                 cross-chip exchange costs would be attributed to the wrong chips",
                self.tiles, self.ipus, self.tiles_per_ipu
            ));
        }
        if self.threads_per_tile == 0 {
            return Err("IpuConfig: threads_per_tile must be >= 1".into());
        }
        // NaN bandwidths must fail too, hence the is_nan checks.
        let bad = |b: f64| b.is_nan() || b <= 0.0;
        if bad(self.exchange_bytes_per_cycle) || bad(self.inter_ipu_bytes_per_cycle) {
            return Err(format!(
                "IpuConfig: exchange bandwidths must be positive \
                 (on-chip {} B/cycle, inter-IPU {} B/cycle)",
                self.exchange_bytes_per_cycle, self.inter_ipu_bytes_per_cycle
            ));
        }
        Ok(())
    }

    /// Total hardware threads on the chip.
    pub fn total_threads(&self) -> usize {
        self.tiles * self.threads_per_tile
    }

    /// Converts device cycles to modeled seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz
    }

    /// Host threads an engine runs supersteps on: always 1. The
    /// benchmark's provenance record is its only caller.
    pub fn resolved_host_threads(&self) -> usize {
        1
    }

    /// Vertices a superstep needs before it leaves the calling thread:
    /// never, so `usize::MAX`. The benchmark's provenance record is its
    /// only caller.
    pub fn resolved_parallel_threshold(&self) -> usize {
        usize::MAX
    }

    /// The execution mode an engine built from this config will start in:
    /// [`exec_mode`](Self::exec_mode) if not `Auto`, else the `SIM_EXEC`
    /// environment variable (`interp`/`interpreted` select the tree
    /// walker), else [`ExecMode::Plan`]. Never returns `Auto`.
    pub fn resolved_exec_mode(&self) -> ExecMode {
        crate::engine::resolve_exec_mode(self)
    }
}

impl Default for IpuConfig {
    fn default() -> Self {
        Self::mk2()
    }
}

fn calibration_tiles() -> usize {
    crate::calibration::MK2_TILES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mk2_matches_paper_description() {
        let c = IpuConfig::mk2();
        assert_eq!(c.tiles, 1472);
        assert_eq!(c.threads_per_tile, 6);
        assert_eq!(c.tile_memory_bytes, 624 * 1024);
        assert_eq!(c.total_threads(), 8832);
        // ~900 MiB of in-processor memory in total (paper §III).
        let total_mib = (c.tiles * c.tile_memory_bytes) as f64 / (1024.0 * 1024.0);
        assert!((total_mib - 897.0).abs() < 1.0);
    }

    #[test]
    fn validate_accepts_all_constructors() {
        for c in [
            IpuConfig::mk2(),
            IpuConfig::mk2_multi(4),
            IpuConfig::tiny(8),
            IpuConfig::tiny_multi(2, 4),
        ] {
            c.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_inconsistent_topology() {
        let mut c = IpuConfig::tiny_multi(2, 4);
        c.tiles = 9; // not 2 * 4
        let err = c.validate().unwrap_err();
        assert!(err.contains("tiles (9)"), "{err}");
        assert!(err.contains("ipus (2)"), "{err}");

        let mut c = IpuConfig::tiny(4);
        c.ipus = 0;
        assert!(c.validate().is_err());

        let mut c = IpuConfig::tiny(4);
        c.inter_ipu_bytes_per_cycle = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn chip_topology_helpers_agree() {
        let c = IpuConfig::tiny_multi(3, 4);
        assert_eq!(c.tiles_of_ipu(0), 0..4);
        assert_eq!(c.tiles_of_ipu(2), 8..12);
        for tile in 0..c.tiles {
            assert_eq!(c.chip_of_tile(tile), c.ipu_of(tile));
            assert!(c.tiles_of_ipu(c.chip_of_tile(tile)).contains(&tile));
        }
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let c = IpuConfig::mk2();
        let s = c.cycles_to_seconds(1_325_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
