//! The simulated device: buffers, kernel launches, warp accounting.

use crate::config::GpuConfig;
use crate::profile::{GpuProfileConfig, GpuProfileReport, GpuProfiler};
use crate::stats::{GpuStats, KernelBreakdown};

/// Bytes effectively moved per 4-byte global access.
///
/// A perfectly coalesced warp access moves 4 B per thread; a fully
/// scattered one moves a 32 B sector per thread. The Hungarian kernels
/// mix dense row scans (coalesced) with indirect star/cover lookups
/// (scattered), so the model charges a fixed 8 B per access — twice the
/// coalesced ideal — rather than tracking addresses per instruction slot.
const EFFECTIVE_BYTES_PER_ACCESS: f64 = 8.0;

/// Identifies a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId(usize);

enum Data {
    F32(Vec<f32>),
    I32(Vec<i32>),
}

struct Buffer {
    name: String,
    data: Data,
}

/// The simulated GPU: global-memory buffers plus cycle accounting.
pub struct GpuSim {
    config: GpuConfig,
    buffers: Vec<Buffer>,
    stats: GpuStats,
    /// Installed profiler, if any; recording never changes `stats`.
    profiler: Option<GpuProfiler>,
}

impl GpuSim {
    /// Creates a device.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            buffers: Vec::new(),
            stats: GpuStats::default(),
            profiler: None,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// Zeroes the statistics (buffers are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = GpuStats::default();
    }

    /// Installs a profiler: subsequent launches and host syncs are
    /// recorded on a per-kernel timeline (see [`GpuProfiler`]).
    /// Replaces any previously installed profiler; with none installed
    /// accounting is untouched.
    pub fn enable_profiling(&mut self, config: GpuProfileConfig) {
        self.profiler = Some(GpuProfiler::new(config));
    }

    /// The installed profiler's recordings so far, if any.
    pub fn profile(&self) -> Option<&GpuProfiler> {
        self.profiler.as_ref()
    }

    /// Summary report of the installed profiler, if any.
    pub fn profile_report(&self) -> Option<GpuProfileReport> {
        self.profiler.as_ref().map(GpuProfiler::report)
    }

    /// Chrome-trace rendering of the installed profiler's timeline, if
    /// any (see [`GpuProfiler::chrome_trace`]).
    pub fn chrome_trace(&self, pid: u64, process: &str) -> Option<trace::ChromeTrace> {
        self.profiler.as_ref().map(|p| p.chrome_trace(pid, process))
    }

    /// Allocates a zero-initialized f32 buffer in global memory.
    pub fn alloc_f32(&mut self, name: &str, len: usize) -> BufId {
        self.buffers.push(Buffer {
            name: name.into(),
            data: Data::F32(vec![0.0; len]),
        });
        BufId(self.buffers.len() - 1)
    }

    /// Allocates a zero-initialized i32 buffer in global memory.
    pub fn alloc_i32(&mut self, name: &str, len: usize) -> BufId {
        self.buffers.push(Buffer {
            name: name.into(),
            data: Data::I32(vec![0; len]),
        });
        BufId(self.buffers.len() - 1)
    }

    /// Host → device upload (tracked, not charged to kernel time).
    pub fn upload_f32(&mut self, buf: BufId, data: &[f32]) {
        match &mut self.buffers[buf.0].data {
            Data::F32(v) => {
                assert_eq!(v.len(), data.len(), "upload size mismatch");
                v.copy_from_slice(data);
            }
            _ => panic!("upload_f32 on i32 buffer '{}'", self.buffers[buf.0].name),
        }
        self.stats.pcie_bytes += (data.len() * 4) as u64;
    }

    /// Host → device upload of i32 data.
    pub fn upload_i32(&mut self, buf: BufId, data: &[i32]) {
        match &mut self.buffers[buf.0].data {
            Data::I32(v) => {
                assert_eq!(v.len(), data.len(), "upload size mismatch");
                v.copy_from_slice(data);
            }
            _ => panic!("upload_i32 on f32 buffer '{}'", self.buffers[buf.0].name),
        }
        self.stats.pcie_bytes += (data.len() * 4) as u64;
    }

    /// Fills an f32 buffer with a constant.
    pub fn fill_f32(&mut self, buf: BufId, value: f32) {
        match &mut self.buffers[buf.0].data {
            Data::F32(v) => v.iter_mut().for_each(|x| *x = value),
            _ => panic!("fill_f32 on i32 buffer '{}'", self.buffers[buf.0].name),
        }
    }

    /// Fills an i32 buffer with a constant.
    pub fn fill_i32(&mut self, buf: BufId, value: i32) {
        match &mut self.buffers[buf.0].data {
            Data::I32(v) => v.iter_mut().for_each(|x| *x = value),
            _ => panic!("fill_i32 on f32 buffer '{}'", self.buffers[buf.0].name),
        }
    }

    /// Device → host read of a whole f32 buffer (tracked, not charged to
    /// kernel time).
    pub fn read_f32(&mut self, buf: BufId) -> Vec<f32> {
        match &self.buffers[buf.0].data {
            Data::F32(v) => {
                self.stats.pcie_bytes += (v.len() * 4) as u64;
                v.clone()
            }
            _ => panic!("read_f32 on i32 buffer '{}'", self.buffers[buf.0].name),
        }
    }

    /// Device → host read of a whole i32 buffer.
    pub fn read_i32(&mut self, buf: BufId) -> Vec<i32> {
        match &self.buffers[buf.0].data {
            Data::I32(v) => {
                self.stats.pcie_bytes += (v.len() * 4) as u64;
                v.clone()
            }
            _ => panic!("read_i32 on f32 buffer '{}'", self.buffers[buf.0].name),
        }
    }

    /// Synchronous device→host scalar read — the CUDA pattern for a
    /// host-side loop condition. Charges the PCIe round-trip.
    pub fn host_sync_read_i32(&mut self, buf: BufId, idx: usize) -> i32 {
        self.stats.host_syncs += 1;
        self.stats.host_sync_seconds += self.config.host_sync_s;
        if let Some(p) = self.profiler.as_mut() {
            p.record_host_sync(self.config.host_sync_s);
        }
        match &self.buffers[buf.0].data {
            Data::I32(v) => v[idx],
            _ => panic!(
                "host_sync_read_i32 on f32 buffer '{}'",
                self.buffers[buf.0].name
            ),
        }
    }

    /// Synchronous device→host read of a whole i32 buffer in **one**
    /// round-trip — the batched counterpart of
    /// [`GpuSim::host_sync_read_i32`]. A batch engine steering `B`
    /// instances reads all `B` control words for a single
    /// `host_sync_s` charge (plus PCIe bytes), which is exactly the
    /// launch/sync amortization batching exists to buy.
    pub fn host_sync_read_i32_vec(&mut self, buf: BufId) -> Vec<i32> {
        self.stats.host_syncs += 1;
        self.stats.host_sync_seconds += self.config.host_sync_s;
        if let Some(p) = self.profiler.as_mut() {
            p.record_host_sync(self.config.host_sync_s);
        }
        match &self.buffers[buf.0].data {
            Data::I32(v) => {
                self.stats.pcie_bytes += (v.len() * 4) as u64;
                v.clone()
            }
            _ => panic!(
                "host_sync_read_i32_vec on f32 buffer '{}'",
                self.buffers[buf.0].name
            ),
        }
    }

    /// Launches a kernel of `threads` threads (block size `block`,
    /// informational) and executes `f` once per thread.
    ///
    /// Accounting: warp compute is the per-warp **max** of thread
    /// instructions (lockstep); memory is a bandwidth term over effective
    /// bytes plus a latency term over per-warp dependent access rounds;
    /// the kernel pays the roofline maximum plus launch overhead.
    pub fn launch(
        &mut self,
        name: &str,
        threads: usize,
        block: usize,
        mut f: impl FnMut(&mut ThreadCtx),
    ) {
        let warp = self.config.warp_size;
        let _ = block;
        let mut total_warp_cycles = 0u64;
        let mut total_accesses = 0u64;
        let mut total_rounds = 0u64;
        let mut total_instr = 0u64;

        let mut warp_max_instr = 0u64;
        let mut warp_max_accesses = 0u64;
        for tid in 0..threads {
            let mut ctx = ThreadCtx {
                tid,
                buffers: &mut self.buffers,
                instr: 0,
                accesses: 0,
                atomic_factor: self.config.atomic_cost_factor,
            };
            f(&mut ctx);
            let (i, a) = (ctx.instr, ctx.accesses);
            warp_max_instr = warp_max_instr.max(i);
            warp_max_accesses = warp_max_accesses.max(a);
            total_accesses += a;
            total_instr += i;
            if tid % warp == warp - 1 || tid == threads - 1 {
                total_warp_cycles += warp_max_instr;
                total_rounds += warp_max_accesses;
                warp_max_instr = 0;
                warp_max_accesses = 0;
            }
        }

        let c = &self.config;
        let compute_s =
            total_warp_cycles as f64 / (c.sms as f64 * c.issue_per_sm_per_cycle * c.clock_hz);
        let bytes = total_accesses as f64 * EFFECTIVE_BYTES_PER_ACCESS;
        let mem_s = bytes / c.hbm_bytes_per_sec;
        let latency_s = total_rounds as f64 * c.hbm_latency_cycles
            / c.clock_hz
            / (c.sms as f64 * c.warps_per_sm);
        let busy = compute_s.max(mem_s).max(latency_s);
        let time = c.launch_overhead_s + busy;

        self.stats.kernel_seconds += time;
        self.stats.launches += 1;
        self.stats.warp_cycles += total_warp_cycles;
        self.stats.gmem_bytes += bytes as u64;
        let entry = self.stats.per_kernel.iter_mut().find(|k| k.name == name);
        match entry {
            Some(k) => {
                k.launches += 1;
                k.seconds += time;
                k.warp_cycles += total_warp_cycles;
            }
            None => self.stats.per_kernel.push(KernelBreakdown {
                name: name.into(),
                launches: 1,
                seconds: time,
                warp_cycles: total_warp_cycles,
            }),
        }
        if let Some(p) = self.profiler.as_mut() {
            p.record_launch(
                name,
                threads as u64,
                time,
                total_warp_cycles,
                total_instr,
                total_accesses,
                warp,
            );
        }
    }

    /// Total modeled device+control seconds so far.
    pub fn modeled_seconds(&self) -> f64 {
        self.stats.kernel_seconds + self.stats.host_sync_seconds
    }
}

/// Per-thread execution context handed to kernel closures.
pub struct ThreadCtx<'a> {
    tid: usize,
    buffers: &'a mut Vec<Buffer>,
    instr: u64,
    accesses: u64,
    atomic_factor: f64,
}

impl ThreadCtx<'_> {
    /// This thread's global index.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Charges `n` arithmetic/control instructions.
    pub fn alu(&mut self, n: u64) {
        self.instr += n;
    }

    fn buf_f32(&mut self, buf: BufId) -> &mut Vec<f32> {
        let b = &mut self.buffers[buf.0];
        match &mut b.data {
            Data::F32(v) => v,
            _ => panic!("f32 access to i32 buffer '{}'", b.name),
        }
    }

    fn buf_i32(&mut self, buf: BufId) -> &mut Vec<i32> {
        let b = &mut self.buffers[buf.0];
        match &mut b.data {
            Data::I32(v) => v,
            _ => panic!("i32 access to f32 buffer '{}'", b.name),
        }
    }

    /// Global read of an f32 element.
    pub fn read_f32(&mut self, buf: BufId, idx: usize) -> f32 {
        self.instr += 1;
        self.accesses += 1;
        let name = idx; // keep idx for panic below without re-borrow
        let v = self.buf_f32(buf);
        *v.get(name).unwrap_or_else(|| panic!("OOB read at {idx}"))
    }

    /// Global write of an f32 element.
    pub fn write_f32(&mut self, buf: BufId, idx: usize, value: f32) {
        self.instr += 1;
        self.accesses += 1;
        let v = self.buf_f32(buf);
        *v.get_mut(idx)
            .unwrap_or_else(|| panic!("OOB write at {idx}")) = value;
    }

    /// Global read of an i32 element.
    pub fn read_i32(&mut self, buf: BufId, idx: usize) -> i32 {
        self.instr += 1;
        self.accesses += 1;
        let v = self.buf_i32(buf);
        *v.get(idx).unwrap_or_else(|| panic!("OOB read at {idx}"))
    }

    /// Global write of an i32 element.
    pub fn write_i32(&mut self, buf: BufId, idx: usize, value: i32) {
        self.instr += 1;
        self.accesses += 1;
        let v = self.buf_i32(buf);
        *v.get_mut(idx)
            .unwrap_or_else(|| panic!("OOB write at {idx}")) = value;
    }

    fn charge_atomic(&mut self) {
        // Atomics serialize at the memory system; charge the multiplier
        // on both instruction and access counts.
        self.instr += self.atomic_factor as u64;
        self.accesses += self.atomic_factor as u64;
    }

    /// `atomicMin` on an i32 element; returns the previous value.
    pub fn atomic_min_i32(&mut self, buf: BufId, idx: usize, value: i32) -> i32 {
        self.charge_atomic();
        let v = self.buf_i32(buf);
        let old = v[idx];
        v[idx] = old.min(value);
        old
    }

    /// `atomicAdd` on an i32 element; returns the previous value.
    pub fn atomic_add_i32(&mut self, buf: BufId, idx: usize, value: i32) -> i32 {
        self.charge_atomic();
        let v = self.buf_i32(buf);
        let old = v[idx];
        v[idx] = old.wrapping_add(value);
        old
    }

    /// `atomicCAS` on an i32 element; returns the previous value.
    pub fn atomic_cas_i32(&mut self, buf: BufId, idx: usize, compare: i32, value: i32) -> i32 {
        self.charge_atomic();
        let v = self.buf_i32(buf);
        let old = v[idx];
        if old == compare {
            v[idx] = value;
        }
        old
    }

    /// `atomicMin` on an f32 element via CAS (the CUDA idiom); returns
    /// the previous value.
    pub fn atomic_min_f32(&mut self, buf: BufId, idx: usize, value: f32) -> f32 {
        self.charge_atomic();
        let v = self.buf_f32(buf);
        let old = v[idx];
        v[idx] = old.min(value);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuConfig;

    fn gpu() -> GpuSim {
        GpuSim::new(GpuConfig::a100())
    }

    #[test]
    fn kernel_reads_and_writes() {
        let mut g = gpu();
        let x = g.alloc_f32("x", 64);
        g.fill_f32(x, 3.0);
        g.launch("sq", 64, 64, |t| {
            let v = t.read_f32(x, t.tid());
            t.write_f32(x, t.tid(), v * v);
        });
        assert_eq!(g.read_f32(x), vec![9.0; 64]);
        assert_eq!(g.stats().launches, 1);
    }

    #[test]
    fn warp_lockstep_charges_max_not_mean() {
        // One straggler thread per warp makes the whole warp pay.
        let mut ragged = gpu();
        ragged.launch("ragged", 32, 32, |t| {
            t.alu(if t.tid() == 0 { 3200 } else { 1 });
        });
        let mut uniform = gpu();
        uniform.launch("uniform", 32, 32, |t| {
            t.alu(101); // same total work: 3231 / 32 ≈ 101
        });
        assert!(
            ragged.stats().warp_cycles > 30 * uniform.stats().warp_cycles,
            "lockstep must charge the straggler ({} vs {})",
            ragged.stats().warp_cycles,
            uniform.stats().warp_cycles
        );
    }

    #[test]
    fn atomics_cost_more_than_plain_access() {
        let mut plain = gpu();
        let x = plain.alloc_i32("x", 1);
        plain.launch("plain", 32, 32, |t| {
            let v = t.read_i32(x, 0);
            let _ = v;
        });
        let mut atomic = gpu();
        let y = atomic.alloc_i32("y", 1);
        atomic.launch("atomic", 32, 32, |t| {
            t.atomic_add_i32(y, 0, 1);
        });
        assert!(atomic.stats().warp_cycles > plain.stats().warp_cycles);
        // And the result is the serialized sum.
        assert_eq!(atomic.read_i32(y), vec![32]);
    }

    #[test]
    fn host_sync_charges_pcie_roundtrip() {
        let mut g = gpu();
        let flag = g.alloc_i32("flag", 1);
        let before = g.modeled_seconds();
        let v = g.host_sync_read_i32(flag, 0);
        assert_eq!(v, 0);
        assert!(g.modeled_seconds() - before >= 9e-6);
        assert_eq!(g.stats().host_syncs, 1);
    }

    #[test]
    fn vector_host_sync_costs_one_roundtrip() {
        let mut g = gpu();
        let flags = g.alloc_i32("flags", 16);
        g.upload_i32(flags, &[7; 16]);
        let before = g.stats().host_sync_seconds;
        let v = g.host_sync_read_i32_vec(flags);
        assert_eq!(v, vec![7; 16]);
        // 16 control words, one sync charge: the amortization a batched
        // host loop buys over 16 scalar reads.
        let one_vec = g.stats().host_sync_seconds - before;
        let before = g.stats().host_sync_seconds;
        for i in 0..16 {
            g.host_sync_read_i32(flags, i);
        }
        let scalar16 = g.stats().host_sync_seconds - before;
        assert!((scalar16 / one_vec - 16.0).abs() < 1e-9);
        assert_eq!(g.stats().host_syncs, 17);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let mut g = gpu();
        g.launch("tiny", 1, 1, |t| t.alu(1));
        let t1 = g.modeled_seconds();
        assert!(
            (4e-6..6e-6).contains(&t1),
            "tiny kernel ≈ launch overhead, got {t1}"
        );
    }

    #[test]
    fn memory_bound_kernel_prices_bandwidth() {
        // 64M accesses * 8 B = 512 MB at 1.555 TB/s ≈ 0.33 ms.
        let mut g = gpu();
        let x = g.alloc_f32("x", 1 << 20);
        g.launch("sweep", 1 << 20, 256, |t| {
            for k in 0..64 {
                let _ = t.read_f32(x, (t.tid() + k * 17) % (1 << 20));
            }
        });
        let s = g.modeled_seconds();
        assert!(
            s > 1e-4 && s < 5e-3,
            "expected memory-bound ms-scale, got {s}"
        );
    }

    #[test]
    fn per_kernel_breakdown_accumulates() {
        let mut g = gpu();
        g.launch("a", 32, 32, |t| t.alu(1));
        g.launch("a", 32, 32, |t| t.alu(1));
        g.launch("b", 32, 32, |t| t.alu(1));
        let pk = &g.stats().per_kernel;
        assert_eq!(pk.len(), 2);
        assert_eq!(pk[0].launches, 2);
        assert_eq!(pk[1].launches, 1);
    }

    #[test]
    fn per_kernel_breakdown_reconciles_with_totals() {
        let mut g = gpu();
        g.launch("a", 64, 32, |t| t.alu(7));
        g.launch("a", 32, 32, |t| t.alu(3));
        g.launch("b", 128, 32, |t| t.alu(t.tid() as u64 % 5));
        let s = g.stats();
        assert_eq!(
            s.per_kernel.iter().map(|k| k.launches).sum::<u64>(),
            s.launches
        );
        assert_eq!(
            s.per_kernel.iter().map(|k| k.warp_cycles).sum::<u64>(),
            s.warp_cycles
        );
        assert!(s.per_kernel.iter().all(|k| k.warp_cycles > 0));
        let second_sum: f64 = s.per_kernel.iter().map(|k| k.seconds).sum();
        assert!((second_sum - s.kernel_seconds).abs() < 1e-12);
    }

    #[test]
    fn profiler_reconciles_with_stats_and_validates() {
        let mut g = gpu();
        g.enable_profiling(crate::GpuProfileConfig::default());
        let x = g.alloc_f32("x", 64);
        let flag = g.alloc_i32("flag", 1);
        g.launch("sq", 64, 64, |t| {
            let v = t.read_f32(x, t.tid());
            t.write_f32(x, t.tid(), v * v);
        });
        let _ = g.host_sync_read_i32(flag, 0);
        g.launch("sq", 64, 64, |t| t.alu(1));
        let p = g.profile().unwrap().clone();
        let s = g.stats().clone();
        assert_eq!(p.launches, s.launches);
        assert_eq!(p.host_syncs, s.host_syncs);
        assert_eq!(p.warp_cycles, s.warp_cycles);
        assert_eq!(p.kernel_seconds.to_bits(), s.kernel_seconds.to_bits());
        assert_eq!(p.host_sync_seconds.to_bits(), s.host_sync_seconds.to_bits());
        let r = p.report();
        assert_eq!(
            r.per_kernel.iter().map(|k| k.warp_cycles).sum::<u64>(),
            s.warp_cycles
        );
        let json = g.chrome_trace(2, "gpu-sim").unwrap().to_json();
        let summary = trace::ChromeTrace::validate_json(&json).expect("valid trace");
        assert_eq!(summary.complete_events, 3);
    }

    #[test]
    fn profiling_disabled_changes_nothing() {
        let run = |profile: bool| {
            let mut g = gpu();
            if profile {
                g.enable_profiling(crate::GpuProfileConfig::default());
            }
            let x = g.alloc_f32("x", 64);
            g.fill_f32(x, 2.0);
            g.launch("sq", 64, 64, |t| {
                let v = t.read_f32(x, t.tid());
                t.write_f32(x, t.tid(), v * v);
            });
            (g.stats().clone(), g.read_f32(x))
        };
        let (stats_off, buf_off) = run(false);
        let (stats_on, buf_on) = run(true);
        assert_eq!(stats_off, stats_on);
        assert_eq!(buf_off, buf_on);
    }

    #[test]
    #[should_panic(expected = "i32 access to f32 buffer")]
    fn dtype_confusion_panics() {
        let mut g = gpu();
        let x = g.alloc_f32("x", 4);
        g.launch("bad", 1, 1, |t| {
            let _ = t.read_i32(x, 0);
        });
    }

    #[test]
    fn cas_semantics() {
        let mut g = gpu();
        let x = g.alloc_i32("x", 1);
        g.launch("cas", 4, 4, |t| {
            // Only the first thread's CAS from 0 succeeds.
            let old = t.atomic_cas_i32(x, 0, 0, t.tid() as i32 + 10);
            let _ = old;
        });
        assert_eq!(g.read_i32(x), vec![10]);
    }
}
