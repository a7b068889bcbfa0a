//! Opt-in per-tile execution profiler for the IPU simulator.
//!
//! [`CycleStats`](crate::CycleStats) answers *how much* device time a
//! run cost; the profiler answers *where it went*: which tiles
//! straggled each superstep, how many barrel threads were busy, which
//! tile pairs moved the exchange bytes, what every tile spent waiting
//! at the BSP barrier, which way data-dependent control flow went, and
//! where faults were injected. It is the observability layer the
//! paper's breakdown analyses (compute vs. sync vs. exchange, §V) need.
//!
//! Memory is bounded: the event timeline lives in a ring buffer of
//! [`ProfileConfig::max_events`] entries (older events are dropped and
//! counted), and per-tile detail inside each superstep event is kept
//! only for tiles selected by [`ProfileConfig::tile_sample`] (the
//! superstep's slowest tile is always kept). Per-tile *aggregates* —
//! compute totals, sync wait, occupancy histogram, exchange heatmap —
//! cover every tile and every superstep regardless of sampling, so the
//! accounting invariants hold exactly:
//!
//! - `Profiler::compute_cycles` (sum over supersteps of the max-tile
//!   cost, straggler inflation included) `== CycleStats::compute_cycles`
//! - sum over the exchange heatmap `== CycleStats::exchange_bytes`
//! - sum over the occupancy histogram `== tile_supersteps`
//!
//! All recording happens after per-tile loads are reduced in sorted tile
//! order, so a profile is **bit-identical between the interpreter and
//! the lowered plan**, the same contract the engine's stats obey.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};
use trace::{ChromeTrace, TraceEvent};

/// Destination marker for broadcast exchanges (a replicated tensor
/// refresh delivers to every tile; the heatmap keeps one entry per
/// source tile against this pseudo-destination instead of `tiles`
/// entries).
pub const BROADCAST_TILE: u32 = u32::MAX;

/// Endpoint marker for host-streamed exchanges (a host tensor has no
/// tile; the heatmap records the PCIe link as this pseudo-tile on
/// whichever side of the pair the host sits).
pub const HOST_TILE: u32 = u32::MAX - 1;

/// One tile's share of a superstep, as the engine hands it to
/// [`Profiler::record_superstep`]: its barrel cost (`cycles`, the
/// supervisor phase included), the worker threads that ran, and the
/// supervisor phase alone (0 without a supervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileLoad {
    pub(crate) tile: u32,
    pub(crate) cycles: u64,
    pub(crate) threads: u32,
    pub(crate) supervisor: u64,
}

/// Trace lane (`tid`) carrying the chip-level timeline.
const CHIP_TID: u64 = 0;
/// Trace lanes `TILE_TID_BASE + tile` carry sampled per-tile detail.
const TILE_TID_BASE: u64 = 1;

/// Profiler knobs. `Default` records everything a 64k-event ring can
/// hold with full per-tile detail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// Per-tile detail stride inside superstep events: detail is kept
    /// for tiles with `tile % tile_sample == 0` (plus each superstep's
    /// slowest tile). `1` keeps every tile; `0` is treated as `1`.
    /// Aggregates are never sampled.
    #[serde(default = "default_tile_sample")]
    pub tile_sample: usize,
    /// Ring-buffer capacity for timeline events; once full, the oldest
    /// event is dropped (and counted in `events_dropped`). `0` keeps
    /// aggregates only.
    #[serde(default = "default_max_events")]
    pub max_events: usize,
    /// How many tiles the report's straggler table keeps.
    #[serde(default = "default_top_k")]
    pub top_k: usize,
}

fn default_tile_sample() -> usize {
    1
}
fn default_max_events() -> usize {
    65_536
}
fn default_top_k() -> usize {
    8
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            tile_sample: default_tile_sample(),
            max_events: default_max_events(),
            top_k: default_top_k(),
        }
    }
}

/// Per-tile detail inside one superstep event (subject to sampling).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSample {
    /// Tile id.
    pub tile: u32,
    /// This tile's barrel cost for the superstep
    /// (`threads_per_tile * max` instruction load over its threads,
    /// plus the supervisor phase).
    pub cycles: u64,
    /// Hardware threads that ran at least one vertex.
    pub threads_used: u32,
    /// The tile's supervisor phase, already included in `cycles`: its
    /// supervisor vertex's instructions at the lone-thread rate plus the
    /// tile-local join ([`crate::calibration::SUPERVISOR_JOIN_CYCLES`]);
    /// 0 when the tile ran no supervisor.
    pub supervisor_cycles: u64,
    /// Cycles this tile idled at the BSP barrier: superstep duration
    /// minus its own cost.
    pub sync_wait: u64,
}

/// One compute superstep on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperstepSample {
    /// Compute-set index (resolve names via the graph / engine).
    pub cs: u32,
    /// Timeline cycle at which the superstep began.
    pub start_cycle: u64,
    /// Superstep duration: max over tiles, straggler inflation
    /// included.
    pub cycles: u64,
    /// Sync charge that followed the superstep.
    pub sync_cycles: u64,
    /// Extra cycles injected by a straggler fault (already included in
    /// `cycles`).
    pub straggler_extra: u64,
    /// Tiles that ran at least one vertex.
    pub active_tiles: u32,
    /// The tile that set the superstep duration (lowest id on ties).
    pub slowest_tile: u32,
    /// Sampled per-tile detail, ascending by tile id.
    pub tiles: Vec<TileSample>,
}

/// One exchange phase on the timeline. Per-pair bytes go to the
/// aggregate heatmap, not the event, to keep events small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeSample {
    /// Timeline cycle at which the exchange began.
    pub start_cycle: u64,
    /// Modeled exchange duration.
    pub cycles: u64,
    /// Sync charge that followed the exchange.
    pub sync_cycles: u64,
    /// Bytes delivered (what `CycleStats::exchange_bytes` counted).
    pub bytes: u64,
    /// Bytes of this phase that crossed an IPU-Link: pair traffic whose
    /// endpoints sit on different chips, plus one link crossing per
    /// remote chip for replicated broadcasts (mirroring the engine's
    /// cost model). Always `0` on single-chip devices.
    pub cross_chip_bytes: u64,
}

/// One data-dependent control-flow decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlSample {
    /// Timeline cycle of the decision.
    pub cycle: u64,
    /// `"if"` or `"while"`.
    pub kind: &'static str,
    /// Branch taken / loop continued.
    pub taken: bool,
}

/// One injected fault (see [`crate::FaultPlan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSample {
    /// Timeline cycle at which the fault landed.
    pub cycle: u64,
    /// `"straggler"`, `"bit_flip"`, `"exchange_corruption"`, or
    /// `"forced_divergence"`.
    pub kind: &'static str,
    /// Fault magnitude: extra cycles for stragglers, `1` otherwise.
    pub magnitude: u64,
}

/// A timeline entry in the profiler's ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileEvent {
    /// A compute superstep.
    Superstep(SuperstepSample),
    /// An exchange phase.
    Exchange(ExchangeSample),
    /// A control-flow decision.
    Control(ControlSample),
    /// An injected fault.
    Fault(FaultSample),
}

/// Per-tile row of the report's straggler table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileReport {
    /// Tile id.
    pub tile: u32,
    /// Total compute cycles across all supersteps (straggler inflation
    /// attributed to the slowest tile).
    pub compute_cycles: u64,
    /// Total cycles idled at BSP barriers.
    pub sync_wait_cycles: u64,
    /// Supersteps in which this tile was the slowest.
    pub led_supersteps: u64,
}

/// One exchange-heatmap cell: bytes moved from `src_tile` to
/// `dst_tile` (or to every tile when `dst_tile` is
/// [`BROADCAST_TILE`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairBytes {
    /// Sending tile.
    pub src_tile: u32,
    /// Receiving tile, or [`BROADCAST_TILE`].
    pub dst_tile: u32,
    /// Bytes moved over the run.
    pub bytes: u64,
}

/// Summary of a profiled run: totals that reconcile exactly with
/// [`CycleStats`](crate::CycleStats), the straggler top-k, the
/// thread-occupancy histogram, and the tile-pair exchange heatmap.
///
/// `PartialEq` is the bit-identity contract: two reports from the same
/// program in either execution mode compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Compute supersteps observed.
    pub supersteps: u64,
    /// Compute cycles (reconciles with `CycleStats::compute_cycles`).
    pub compute_cycles: u64,
    /// Sync cycles (reconciles with `CycleStats::sync_cycles`).
    pub sync_cycles: u64,
    /// Exchange cycles (reconciles with `CycleStats::exchange_cycles`).
    pub exchange_cycles: u64,
    /// Control cycles (reconciles with `CycleStats::control_cycles`).
    pub control_cycles: u64,
    /// Exchange phases observed.
    pub exchanges: u64,
    /// Exchange bytes; equals the heatmap sum.
    pub exchange_bytes: u64,
    /// Sum of active tiles over supersteps; equals the occupancy
    /// histogram sum.
    pub tile_supersteps: u64,
    /// Timeline events currently held in the ring.
    pub events_recorded: usize,
    /// Timeline events dropped by the ring bound.
    pub events_dropped: u64,
    /// Busiest tiles, descending by compute cycles (ties: lower tile
    /// id first), at most [`ProfileConfig::top_k`] rows.
    pub stragglers: Vec<TileReport>,
    /// `occupancy_histogram[k]` = (tile, superstep) pairs with exactly
    /// `k` busy hardware threads.
    pub occupancy_histogram: Vec<u64>,
    /// Exchange heatmap, ascending by `(src_tile, dst_tile)`.
    pub exchange_heatmap: Vec<PairBytes>,
}

/// The recording state. Obtain one via
/// [`Engine::enable_profiling`](crate::Engine::enable_profiling) and
/// read it back with [`Engine::profile`](crate::Engine::profile).
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    /// The knobs this profiler was created with.
    pub config: ProfileConfig,
    /// Chips on the profiled device (1 = single-chip; chip-level
    /// annotations in traces only appear beyond that).
    pub ipus: usize,
    /// Tiles per chip, for mapping tile ids to chips.
    pub tiles_per_ipu: usize,
    /// Timeline ring buffer, oldest first.
    pub events: VecDeque<ProfileEvent>,
    /// Events dropped by the ring bound.
    pub dropped: u64,
    /// Profiler cycle cursor: advances with every recorded charge, so
    /// event timestamps are monotone even across `reset_stats`.
    pub now: u64,
    /// Per-tile total compute cycles (unsampled).
    pub tile_compute: Vec<u64>,
    /// Per-tile total BSP-barrier wait cycles (unsampled).
    pub tile_sync_wait: Vec<u64>,
    /// Per-tile count of supersteps led (i.e. was the slowest tile).
    pub tile_led: Vec<u64>,
    /// `occupancy[k]` = (tile, superstep) pairs with `k` busy threads.
    pub occupancy: Vec<u64>,
    /// Exchange bytes per (src, dst) tile pair; `dst ==`
    /// [`BROADCAST_TILE`] for replicated refreshes.
    pub heatmap: BTreeMap<(u32, u32), u64>,
    /// Supersteps observed.
    pub supersteps: u64,
    /// Compute cycles observed (straggler inflation included).
    pub compute_cycles: u64,
    /// Sync cycles observed.
    pub sync_cycles: u64,
    /// Exchange cycles observed.
    pub exchange_cycles: u64,
    /// Control cycles observed.
    pub control_cycles: u64,
    /// Exchange phases observed.
    pub exchanges: u64,
    /// Exchange bytes observed.
    pub exchange_bytes: u64,
    /// Sum of active tiles over supersteps.
    pub tile_supersteps: u64,
}

impl Profiler {
    pub(crate) fn new(
        config: ProfileConfig,
        tiles: usize,
        threads_per_tile: usize,
        ipus: usize,
        tiles_per_ipu: usize,
    ) -> Self {
        Self {
            config,
            ipus: ipus.max(1),
            tiles_per_ipu: tiles_per_ipu.max(1),
            events: VecDeque::new(),
            dropped: 0,
            now: 0,
            tile_compute: vec![0; tiles],
            tile_sync_wait: vec![0; tiles],
            tile_led: vec![0; tiles],
            occupancy: vec![0; threads_per_tile + 1],
            heatmap: BTreeMap::new(),
            supersteps: 0,
            compute_cycles: 0,
            sync_cycles: 0,
            exchange_cycles: 0,
            control_cycles: 0,
            exchanges: 0,
            exchange_bytes: 0,
            tile_supersteps: 0,
        }
    }

    fn push_event(&mut self, ev: ProfileEvent) {
        if self.config.max_events == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.config.max_events {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Records one superstep. `per_tile` is ascending by tile and covers
    /// every active tile; `straggler_extra` stretches the superstep (and
    /// is attributed to the slowest tile).
    pub(crate) fn record_superstep(
        &mut self,
        cs: usize,
        per_tile: &[TileLoad],
        sync_cycles: u64,
        straggler_extra: u64,
    ) {
        debug_assert!(per_tile.windows(2).all(|w| w[0].tile < w[1].tile));
        let mut worst = 0u64;
        let mut slowest = 0u32;
        for &TileLoad { tile, cycles, .. } in per_tile {
            if cycles > worst {
                worst = cycles;
                slowest = tile;
            }
        }
        let duration = worst + straggler_extra;

        self.supersteps += 1;
        self.compute_cycles += duration;
        self.sync_cycles += sync_cycles;
        self.tile_supersteps += per_tile.len() as u64;
        for &TileLoad {
            tile,
            cycles,
            threads,
            ..
        } in per_tile
        {
            let own = if tile == slowest {
                cycles + straggler_extra
            } else {
                cycles
            };
            self.tile_compute[tile as usize] += own;
            self.tile_sync_wait[tile as usize] += duration - own;
            let bucket = (threads as usize).min(self.occupancy.len() - 1);
            self.occupancy[bucket] += 1;
        }
        if !per_tile.is_empty() {
            self.tile_led[slowest as usize] += 1;
        }

        let stride = self.config.tile_sample.max(1);
        let tiles = per_tile
            .iter()
            .filter(|d| d.tile % stride as u32 == 0 || d.tile == slowest)
            .map(|d| {
                let own = if d.tile == slowest {
                    d.cycles + straggler_extra
                } else {
                    d.cycles
                };
                TileSample {
                    tile: d.tile,
                    cycles: own,
                    threads_used: d.threads,
                    supervisor_cycles: d.supervisor,
                    sync_wait: duration - own,
                }
            })
            .collect();
        let start_cycle = self.now;
        self.now += duration + sync_cycles;
        self.push_event(ProfileEvent::Superstep(SuperstepSample {
            cs: cs as u32,
            start_cycle,
            cycles: duration,
            sync_cycles,
            straggler_extra,
            active_tiles: per_tile.len() as u32,
            slowest_tile: slowest,
            tiles,
        }));
    }

    /// Records one exchange phase; `pairs` is `(src_tile, dst_tile,
    /// bytes)` whose bytes sum to exactly what
    /// `CycleStats::exchange_bytes` was charged.
    pub(crate) fn record_exchange(
        &mut self,
        cycles: u64,
        sync_cycles: u64,
        bytes: u64,
        pairs: &[(u32, u32, u64)],
    ) {
        self.exchanges += 1;
        self.exchange_cycles += cycles;
        self.sync_cycles += sync_cycles;
        self.exchange_bytes += bytes;
        let chip = |tile: u32| tile as usize / self.tiles_per_ipu;
        let mut cross_chip_bytes = 0u64;
        for &(src, dst, b) in pairs {
            *self.heatmap.entry((src, dst)).or_insert(0) += b;
            if dst == BROADCAST_TILE {
                // A replicated refresh crosses each IPU-Link once per
                // remote chip (the engine charges the source the same
                // way).
                cross_chip_bytes += b * (self.ipus as u64 - 1);
            } else if src == HOST_TILE || dst == HOST_TILE {
                // Host-streamed bytes ride PCIe, not the IPU-Links.
            } else if chip(src) != chip(dst) {
                cross_chip_bytes += b;
            }
        }
        let start_cycle = self.now;
        self.now += cycles + sync_cycles;
        self.push_event(ProfileEvent::Exchange(ExchangeSample {
            start_cycle,
            cycles,
            sync_cycles,
            bytes,
            cross_chip_bytes,
        }));
    }

    /// Records one control-flow decision and its cycle charge.
    pub(crate) fn record_control(&mut self, cycles: u64, kind: &'static str, taken: bool) {
        self.control_cycles += cycles;
        let cycle = self.now;
        self.now += cycles;
        self.push_event(ProfileEvent::Control(ControlSample { cycle, kind, taken }));
    }

    /// Records one injected fault at the current timeline position.
    pub(crate) fn record_fault(&mut self, kind: &'static str, magnitude: u64) {
        let cycle = self.now;
        self.push_event(ProfileEvent::Fault(FaultSample {
            cycle,
            kind,
            magnitude,
        }));
    }

    /// Total cycles the profiler has accounted for (mirrors
    /// `CycleStats::total_cycles`).
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.sync_cycles + self.exchange_cycles + self.control_cycles
    }

    /// Builds the summary report.
    pub fn report(&self) -> ProfileReport {
        let mut order: Vec<u32> = (0..self.tile_compute.len() as u32).collect();
        order.sort_by_key(|&t| (std::cmp::Reverse(self.tile_compute[t as usize]), t));
        let stragglers = order
            .into_iter()
            .take(self.config.top_k)
            .filter(|&t| self.tile_compute[t as usize] > 0 || self.tile_led[t as usize] > 0)
            .map(|t| TileReport {
                tile: t,
                compute_cycles: self.tile_compute[t as usize],
                sync_wait_cycles: self.tile_sync_wait[t as usize],
                led_supersteps: self.tile_led[t as usize],
            })
            .collect();
        ProfileReport {
            supersteps: self.supersteps,
            compute_cycles: self.compute_cycles,
            sync_cycles: self.sync_cycles,
            exchange_cycles: self.exchange_cycles,
            control_cycles: self.control_cycles,
            exchanges: self.exchanges,
            exchange_bytes: self.exchange_bytes,
            tile_supersteps: self.tile_supersteps,
            events_recorded: self.events.len(),
            events_dropped: self.dropped,
            stragglers,
            occupancy_histogram: self.occupancy.clone(),
            exchange_heatmap: self
                .heatmap
                .iter()
                .map(|(&(src_tile, dst_tile), &bytes)| PairBytes {
                    src_tile,
                    dst_tile,
                    bytes,
                })
                .collect(),
        }
    }

    /// Renders the timeline as Chrome `trace_event` records.
    ///
    /// `pid` is the process lane (use distinct pids to merge several
    /// engines into one file), `process` its display name,
    /// `clock_hz` converts modeled cycles to microseconds, and
    /// `cs_names` resolves compute-set indices.
    pub fn chrome_trace(
        &self,
        pid: u64,
        process: &str,
        clock_hz: f64,
        cs_names: &[String],
    ) -> ChromeTrace {
        let us = |cycle: u64| cycle as f64 / clock_hz * 1e6;
        let cs_name = |cs: u32| {
            cs_names
                .get(cs as usize)
                .map(String::as_str)
                .unwrap_or("<unknown compute set>")
        };
        let mut t = ChromeTrace::new();
        t.push(TraceEvent::process_name(pid, process));
        t.push(TraceEvent::thread_name(pid, CHIP_TID, "chip"));
        let mut tile_lanes: Vec<u32> = self
            .events
            .iter()
            .filter_map(|ev| match ev {
                ProfileEvent::Superstep(s) => Some(s.tiles.iter().map(|ts| ts.tile)),
                _ => None,
            })
            .flatten()
            .collect();
        tile_lanes.sort_unstable();
        tile_lanes.dedup();
        for &tile in &tile_lanes {
            // On multi-chip devices the lane name carries the chip id so
            // a trace viewer groups on-chip vs cross-chip activity;
            // single-chip lane names are unchanged (golden traces pin
            // them).
            let name = if self.ipus > 1 {
                format!("ipu{} tile {tile}", tile as usize / self.tiles_per_ipu)
            } else {
                format!("tile {tile}")
            };
            t.push(TraceEvent::thread_name(
                pid,
                TILE_TID_BASE + tile as u64,
                name,
            ));
        }
        for ev in &self.events {
            match ev {
                ProfileEvent::Superstep(s) => {
                    t.push(
                        TraceEvent::complete(
                            cs_name(s.cs),
                            "compute",
                            us(s.start_cycle),
                            us(s.cycles),
                            pid,
                            CHIP_TID,
                        )
                        .arg("cycles", s.cycles)
                        .arg("active_tiles", s.active_tiles)
                        .arg("slowest_tile", s.slowest_tile)
                        .arg("straggler_extra", s.straggler_extra),
                    );
                    t.push(TraceEvent::complete(
                        "sync",
                        "sync",
                        us(s.start_cycle + s.cycles),
                        us(s.sync_cycles),
                        pid,
                        CHIP_TID,
                    ));
                    for ts in &s.tiles {
                        let lane = TILE_TID_BASE + ts.tile as u64;
                        t.push(
                            TraceEvent::complete(
                                cs_name(s.cs),
                                "tile",
                                us(s.start_cycle),
                                us(ts.cycles),
                                pid,
                                lane,
                            )
                            .arg("threads_used", ts.threads_used)
                            .arg("sync_wait_cycles", ts.sync_wait),
                        );
                        // The supervisor phase closes the tile's slice:
                        // its instructions, then the tile-local join.
                        if ts.supervisor_cycles > 0 {
                            t.push(
                                TraceEvent::complete(
                                    "supervisor",
                                    "tile",
                                    us(s.start_cycle + ts.cycles - ts.supervisor_cycles),
                                    us(ts.supervisor_cycles),
                                    pid,
                                    lane,
                                )
                                .arg("cycles", ts.supervisor_cycles),
                            );
                        }
                    }
                }
                ProfileEvent::Exchange(e) => {
                    let name = if self.ipus > 1 && e.cross_chip_bytes > 0 {
                        "exchange (cross-chip)"
                    } else {
                        "exchange"
                    };
                    let mut ev = TraceEvent::complete(
                        name,
                        "exchange",
                        us(e.start_cycle),
                        us(e.cycles),
                        pid,
                        CHIP_TID,
                    )
                    .arg("bytes", e.bytes);
                    if self.ipus > 1 {
                        ev = ev.arg("cross_chip_bytes", e.cross_chip_bytes);
                    }
                    t.push(ev);
                    t.push(TraceEvent::complete(
                        "sync",
                        "sync",
                        us(e.start_cycle + e.cycles),
                        us(e.sync_cycles),
                        pid,
                        CHIP_TID,
                    ));
                }
                ProfileEvent::Control(c) => {
                    t.push(
                        TraceEvent::instant(
                            format!("{}:{}", c.kind, if c.taken { "taken" } else { "done" }),
                            "control",
                            us(c.cycle),
                            pid,
                            CHIP_TID,
                        )
                        .arg("taken", c.taken),
                    );
                }
                ProfileEvent::Fault(f) => {
                    t.push(
                        TraceEvent::instant(f.kind, "fault", us(f.cycle), pid, CHIP_TID)
                            .arg("magnitude", f.magnitude),
                    );
                }
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker-only tile loads from `(tile, cycles, threads)`.
    fn tl(loads: &[(u32, u64, u32)]) -> Vec<TileLoad> {
        loads
            .iter()
            .map(|&(tile, cycles, threads)| TileLoad {
                tile,
                cycles,
                threads,
                supervisor: 0,
            })
            .collect()
    }

    fn profiler() -> Profiler {
        Profiler::new(ProfileConfig::default(), 4, 6, 1, 4)
    }

    #[test]
    fn superstep_accounting() {
        let mut p = profiler();
        p.record_superstep(0, &tl(&[(0, 12, 2), (2, 30, 1)]), 5, 0);
        p.record_superstep(1, &tl(&[(1, 6, 1)]), 5, 4);
        assert_eq!(p.supersteps, 2);
        assert_eq!(p.compute_cycles, 30 + 10);
        assert_eq!(p.sync_cycles, 10);
        assert_eq!(p.tile_compute, vec![12, 10, 30, 0]);
        assert_eq!(p.tile_sync_wait, vec![18, 0, 0, 0]);
        assert_eq!(p.tile_led, vec![0, 1, 1, 0]);
        assert_eq!(p.tile_supersteps, 3);
        assert_eq!(p.occupancy.iter().sum::<u64>(), 3);
        assert_eq!(p.occupancy[1], 2);
        assert_eq!(p.occupancy[2], 1);
    }

    #[test]
    fn straggler_extra_attributed_to_slowest() {
        let mut p = profiler();
        p.record_superstep(0, &tl(&[(0, 10, 1), (1, 20, 1)]), 3, 7);
        assert_eq!(p.compute_cycles, 27);
        assert_eq!(p.tile_compute[1], 27);
        assert_eq!(p.tile_sync_wait[1], 0);
        assert_eq!(p.tile_sync_wait[0], 17);
        match &p.events[0] {
            ProfileEvent::Superstep(s) => {
                assert_eq!(s.cycles, 27);
                assert_eq!(s.straggler_extra, 7);
                assert_eq!(s.slowest_tile, 1);
            }
            other => panic!("expected superstep, got {other:?}"),
        }
    }

    #[test]
    fn tile_sampling_keeps_slowest() {
        let mut p = Profiler::new(
            ProfileConfig {
                tile_sample: 4,
                ..Default::default()
            },
            8,
            6,
            1,
            8,
        );
        p.record_superstep(0, &tl(&[(1, 5, 1), (3, 50, 1), (4, 2, 1)]), 1, 0);
        match &p.events[0] {
            ProfileEvent::Superstep(s) => {
                // tile 4 matches the stride, tile 3 is the slowest.
                let kept: Vec<u32> = s.tiles.iter().map(|t| t.tile).collect();
                assert_eq!(kept, vec![3, 4]);
            }
            other => panic!("expected superstep, got {other:?}"),
        }
        // Aggregates still cover all three tiles.
        assert_eq!(p.tile_compute[1], 5);
        assert_eq!(p.tile_supersteps, 3);
    }

    #[test]
    fn ring_buffer_bounds_memory() {
        let mut p = Profiler::new(
            ProfileConfig {
                max_events: 2,
                ..Default::default()
            },
            2,
            6,
            1,
            2,
        );
        for i in 0..5 {
            p.record_superstep(0, &tl(&[(0, i + 1, 1)]), 1, 0);
        }
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.dropped, 3);
        // Aggregates are unaffected by the ring bound.
        assert_eq!(p.supersteps, 5);
        assert_eq!(p.compute_cycles, 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn heatmap_sums_to_exchange_bytes() {
        let mut p = profiler();
        p.record_exchange(9, 5, 24, &[(0, 1, 16), (1, 2, 8)]);
        p.record_exchange(9, 5, 8, &[(0, 1, 8)]);
        assert_eq!(p.exchange_bytes, 32);
        assert_eq!(p.heatmap.values().sum::<u64>(), 32);
        assert_eq!(p.heatmap[&(0, 1)], 24);
    }

    #[test]
    fn cross_chip_bytes_attributed_per_pair_and_per_remote_chip() {
        // 2 chips of 2 tiles: tiles 0-1 on chip 0, tiles 2-3 on chip 1.
        let mut p = Profiler::new(ProfileConfig::default(), 4, 6, 2, 2);
        // On-chip pair, cross-chip pair, and a replicated broadcast that
        // crosses the single IPU-Link once.
        p.record_exchange(9, 5, 36, &[(0, 1, 16), (1, 2, 8), (0, BROADCAST_TILE, 12)]);
        match &p.events[0] {
            ProfileEvent::Exchange(e) => {
                assert_eq!(e.bytes, 36);
                // 8 for the cross-chip pair + 12 × (chips − 1) replicas.
                assert_eq!(e.cross_chip_bytes, 8 + 12);
            }
            other => panic!("expected exchange, got {other:?}"),
        }
        // Single-chip devices never report cross-chip traffic.
        let mut p1 = profiler();
        p1.record_exchange(9, 5, 36, &[(0, 1, 16), (1, 2, 8), (0, BROADCAST_TILE, 12)]);
        match &p1.events[0] {
            ProfileEvent::Exchange(e) => assert_eq!(e.cross_chip_bytes, 0),
            other => panic!("expected exchange, got {other:?}"),
        }
    }

    #[test]
    fn multi_chip_trace_names_lanes_by_chip() {
        let mut p = Profiler::new(ProfileConfig::default(), 4, 6, 2, 2);
        p.record_superstep(0, &tl(&[(1, 10, 1), (2, 40, 2)]), 2, 0);
        p.record_exchange(7, 2, 12, &[(1, 2, 12)]);
        let json = p
            .chrome_trace(1, "ipu-sim", 1.0e6, &["step".to_string()])
            .to_json();
        assert!(json.contains("ipu0 tile 1"), "{json}");
        assert!(json.contains("ipu1 tile 2"), "{json}");
        assert!(json.contains("cross_chip_bytes"), "{json}");
        assert!(json.contains("exchange (cross-chip)"), "{json}");

        // Single-chip traces keep the original lane names and omit the
        // cross-chip annotation entirely.
        let mut p1 = profiler();
        p1.record_superstep(0, &tl(&[(1, 10, 1), (2, 40, 2)]), 2, 0);
        p1.record_exchange(7, 2, 12, &[(1, 2, 12)]);
        let json = p1
            .chrome_trace(1, "ipu-sim", 1.0e6, &["step".to_string()])
            .to_json();
        assert!(json.contains("tile 1"), "{json}");
        assert!(!json.contains("ipu0"), "{json}");
        assert!(!json.contains("cross_chip_bytes"), "{json}");
    }

    #[test]
    fn report_orders_stragglers_and_reconciles() {
        let mut p = profiler();
        p.record_superstep(0, &tl(&[(0, 10, 1), (1, 40, 2), (3, 40, 2)]), 2, 0);
        p.record_exchange(7, 2, 12, &[(1, 3, 12)]);
        let r = p.report();
        assert_eq!(r.compute_cycles, p.compute_cycles);
        assert_eq!(r.exchange_bytes, 12);
        assert_eq!(
            r.exchange_heatmap,
            vec![PairBytes {
                src_tile: 1,
                dst_tile: 3,
                bytes: 12
            }]
        );
        // Tie between tiles 1 and 3 broken by lower id.
        assert_eq!(r.stragglers[0].tile, 1);
        assert_eq!(r.stragglers[1].tile, 3);
        assert_eq!(r.stragglers[2].tile, 0);
        assert_eq!(r.occupancy_histogram.iter().sum::<u64>(), r.tile_supersteps);
    }

    #[test]
    fn chrome_trace_validates_and_is_monotone() {
        let mut p = profiler();
        p.record_superstep(0, &tl(&[(0, 10, 1), (1, 40, 2)]), 2, 0);
        p.record_exchange(7, 2, 12, &[(1, 0, 12)]);
        p.record_control(3, "while", true);
        p.record_superstep(0, &tl(&[(0, 10, 1)]), 2, 0);
        p.record_control(3, "while", false);
        p.record_fault("bit_flip", 1);
        let trace = p.chrome_trace(1, "ipu-sim", 1.0e6, &["step".to_string()]);
        let json = trace.to_json();
        let summary = ChromeTrace::validate_json(&json).expect("valid trace");
        assert_eq!(summary.instant_events, 3);
        assert!(summary.complete_events >= 5);
        assert!(summary.metadata_events >= 3);
    }
}
