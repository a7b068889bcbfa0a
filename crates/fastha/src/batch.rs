//! Batched multi-instance FastHA: lockstep Munkres over `B` instances.
//!
//! The single-instance solver's cost is dominated by control latency:
//! every Munkres phase is a separate kernel launch, and the host steers
//! the loop with synchronous scalar reads — so a small instance pays
//! `launch_overhead_s`/`host_sync_s` hundreds of times while the actual
//! compute is microseconds. [`BatchFastHa`] amortizes both by running
//! `B` same-size instances in **lockstep**: one `B·n`-thread kernel per
//! phase advances every instance currently in that phase (a per-instance
//! phase word masks the rest), and one *vector* sync read
//! ([`gpu_sim::GpuSim::host_sync_read_i32_vec`]) steers all `B` host
//! state machines per round instead of one scalar read per instance.
//!
//! The kernels are the solo solver's own bodies over the shared device
//! state of `B` instances: instance `i`'s threads are the contiguous tid
//! block `[i·n, (i+1)·n)` and its data the `i`-th slice of every buffer.
//! The simulator executes threads in tid order, so within an instance
//! the relative order of every atomic race is identical to the solo
//! solver's — assignments, duals, and step counters come out
//! bit-for-bit equal to running [`FastHa`] on each matrix alone. Only
//! the *cost* accounting is shared, which is the entire point:
//! per-instance modeled time is reported at the batch level as an
//! amortized share.

use crate::kernels::{Kernels, NOT_FOUND};
use crate::solver::F32_VERIFY_EPS;
use crate::FastHa;
use gpu_sim::{BufId, GpuSim, ThreadCtx};
use lsap::{
    BatchLsapSolver, BatchReport, BatchStats, CostMatrix, LsapError, SolveReport, SolverStats,
};
use std::time::Instant;

// Per-instance phase words steering the lockstep rounds.
const PH_COVER: i32 = 0;
const PH_FIND: i32 = 1;
const PH_PRIME: i32 = 2;
const PH_AUGMENT: i32 = 3;
const PH_DUAL: i32 = 4;
const PH_DONE: i32 = 5;

/// Batched GPU solver: same-size instances share kernels and sync reads.
#[derive(Debug, Clone, Default)]
pub struct BatchFastHa {
    solver: FastHa,
}

impl BatchFastHa {
    /// A batched solver targeting the paper's A100.
    pub fn new() -> Self {
        Self {
            solver: FastHa::new(),
        }
    }

    /// Wraps a configured single-instance solver (device config carries
    /// over; profiling is a single-solve tool and is ignored here).
    pub fn with_solver(solver: FastHa) -> Self {
        Self { solver }
    }

    /// The wrapped single-instance solver.
    pub fn solver(&self) -> &FastHa {
        &self.solver
    }
}

impl BatchLsapSolver for BatchFastHa {
    fn name(&self) -> &'static str {
        "fastha-batch"
    }

    fn solve_batch(&mut self, batch: &[CostMatrix]) -> Result<BatchReport, LsapError> {
        let start = Instant::now();
        for m in batch {
            FastHa::validate_shape(m)?;
        }

        // Group same-size instances into one lockstep run each,
        // preserving input order within and across groups.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, m) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(n, _)| *n == m.n()) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((m.n(), vec![i])),
            }
        }

        let mut reports: Vec<Option<SolveReport>> = (0..batch.len()).map(|_| None).collect();
        let mut modeled_seconds = 0.0;
        let mut modeled_cycles = 0u64;
        for (n, idxs) in &groups {
            let members: Vec<&CostMatrix> = idxs.iter().map(|&i| &batch[i]).collect();
            let mut run = LockstepRun::new(&self.solver, *n, &members);
            run.execute();
            let group_reports = run.extract(&members)?;
            modeled_seconds += run.gpu.modeled_seconds();
            modeled_cycles += run.gpu.stats().warp_cycles;
            for (&i, rep) in idxs.iter().zip(group_reports) {
                rep.verify(&batch[i], F32_VERIFY_EPS)
                    .map_err(|e| LsapError::Backend {
                        detail: format!("batch instance {i}: {e}"),
                    })?;
                reports[i] = Some(rep);
            }
        }
        let reports: Vec<SolveReport> = reports.into_iter().map(Option::unwrap).collect();
        Ok(BatchReport {
            reports,
            stats: BatchStats {
                instances: batch.len(),
                wall_seconds: start.elapsed().as_secs_f64(),
                modeled_cycles: Some(modeled_cycles),
                // The GPU's amortized component (launch overhead, host
                // syncs) is a seconds-domain cost, visible as the gap to
                // the sequential baseline's modeled seconds.
                overhead_cycles: None,
                modeled_seconds: Some(modeled_seconds),
                retries: 0,
            },
        })
    }
}

/// One lockstep group: `b` instances of size `n` sharing device state.
struct LockstepRun {
    gpu: GpuSim,
    k: Kernels,
    b: usize,
    /// Per-instance phase words (device copy of the host's phases).
    phase_buf: BufId,
    /// Per-instance primed position (r·n + c) for Prime/Augment rounds.
    prime_rc: BufId,
    /// Host mirror of `found`, re-uploaded to reset Find slots without
    /// touching slots other phases still own.
    found_host: Vec<i32>,
    augmentations: Vec<u64>,
    dual_updates: Vec<u64>,
}

impl LockstepRun {
    fn new(solver: &FastHa, n: usize, members: &[&CostMatrix]) -> Self {
        let b = members.len();
        let mut gpu = GpuSim::new(solver.config().clone());
        let k = Kernels::new(&mut gpu, n, members);
        let phase_buf = gpu.alloc_i32("phase", b);
        let prime_rc = gpu.alloc_i32("prime_rc", b);
        Self {
            gpu,
            k,
            b,
            phase_buf,
            prime_rc,
            found_host: vec![NOT_FOUND; b],
            augmentations: vec![0; b],
            dual_updates: vec![0; b],
        }
    }

    /// Launches `lanes` threads per instance, instance `i`'s thread `x`
    /// at tid `i·lanes + x`. With `mask`, each thread first reads its
    /// instance's phase word and returns unless it matches.
    fn launch(
        &mut self,
        name: &str,
        (lanes, block): (usize, usize),
        mask: Option<i32>,
        body: impl Fn(Kernels, &mut ThreadCtx, usize, usize),
    ) {
        let (k, phase) = (self.k, self.phase_buf);
        self.gpu.launch(name, self.b * lanes, block, |t| {
            let (i, x) = (t.tid() / lanes, t.tid() % lanes);
            if mask.is_some_and(|p| t.read_i32(phase, i) != p) {
                return;
            }
            body(k, t, i, x);
        });
    }

    fn execute(&mut self) {
        let (n, b, prime_rc) = (self.k.n, self.b, self.prime_rc);
        let rows = (n, 256);
        // Steps 1–2 run unmasked: every instance reduces, builds zero
        // lists, and greedily stars in the same four launches.
        self.launch("rowReduce", rows, None, Kernels::row_reduce);
        self.launch("colReduce", rows, None, Kernels::col_reduce);
        self.launch("buildZeros", rows, None, Kernels::build_zeros);
        self.launch("initialStar", rows, None, Kernels::initial_star);
        // The single-thread kernels read their primed (r, c) from the
        // device rather than taking it as an argument.
        let primed = move |t: &mut ThreadCtx, i: usize| {
            let enc = t.read_i32(prime_rc, i) as usize;
            (enc / n, enc % n)
        };

        let mut phase = vec![PH_COVER; b];
        let mut prime_host = vec![-1i32; b];
        while phase.iter().any(|&p| p != PH_DONE) {
            self.gpu.upload_i32(self.phase_buf, &phase);
            let active = |p: i32| phase.contains(&p);

            if active(PH_COVER) {
                // Zero the counters of instances being counted; other
                // slots are dead until their next Cover round.
                self.gpu.upload_i32(self.k.cover_count, &vec![0; b]);
                self.launch("coverCols", rows, Some(PH_COVER), Kernels::cover_cols);
            }
            if active(PH_FIND) {
                for (f, &p) in self.found_host.iter_mut().zip(&phase) {
                    if p == PH_FIND {
                        *f = NOT_FOUND;
                    }
                }
                self.gpu.upload_i32(self.k.found, &self.found_host);
                self.launch("findZero", rows, Some(PH_FIND), Kernels::find_zero);
            }
            if active(PH_PRIME) || active(PH_AUGMENT) {
                self.gpu.upload_i32(prime_rc, &prime_host);
            }
            if active(PH_PRIME) {
                self.launch("applyPrime", (1, 1), Some(PH_PRIME), |k, t, i, _| {
                    let (r, c) = primed(t, i);
                    k.apply_prime(t, i, r, c);
                });
            }
            if active(PH_AUGMENT) {
                self.launch("augmentPath", (1, 1), Some(PH_AUGMENT), |k, t, i, _| {
                    let (r, c) = primed(t, i);
                    k.augment_path(t, i, r, c);
                });
                self.launch("clearCovers", rows, Some(PH_AUGMENT), Kernels::clear_covers);
            }
            if active(PH_DUAL) {
                self.gpu.upload_f32(self.k.minval, &vec![f32::INFINITY; b]);
                self.launch("minUncovered", rows, Some(PH_DUAL), Kernels::min_uncovered);
                self.launch("dualUpdate", rows, Some(PH_DUAL), Kernels::dual_update);
                self.launch("buildZeros", rows, Some(PH_DUAL), Kernels::build_zeros);
            }

            // One vector round-trip steers every instance in a
            // read-bearing phase; a second serves the cover counters.
            if active(PH_FIND) || active(PH_PRIME) {
                self.found_host = self.gpu.host_sync_read_i32_vec(self.k.found);
            }
            let covers =
                active(PH_COVER).then(|| self.gpu.host_sync_read_i32_vec(self.k.cover_count));

            for i in 0..b {
                match phase[i] {
                    PH_COVER => {
                        let covered = covers.as_ref().expect("cover read")[i] as usize;
                        phase[i] = if covered == n { PH_DONE } else { PH_FIND };
                    }
                    PH_FIND => {
                        let enc = self.found_host[i];
                        if enc != NOT_FOUND {
                            prime_host[i] = enc;
                            phase[i] = PH_PRIME;
                        } else {
                            phase[i] = PH_DUAL;
                        }
                    }
                    PH_PRIME => {
                        let star = self.found_host[i];
                        phase[i] = if star < 0 { PH_AUGMENT } else { PH_FIND };
                    }
                    PH_AUGMENT => {
                        self.augmentations[i] += 1;
                        phase[i] = PH_COVER;
                    }
                    PH_DUAL => {
                        self.dual_updates[i] += 1;
                        phase[i] = PH_FIND;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Carves per-instance reports out of the shared buffers. Shared
    /// device-time accounting is reported as amortized shares; exact
    /// per-instance work (augmentations, dual updates) is exact.
    fn extract(&mut self, members: &[&CostMatrix]) -> Result<Vec<SolveReport>, LsapError> {
        let read_back = self.k.read_back(&mut self.gpu);
        let modeled = self.gpu.modeled_seconds();
        let cycles = self.gpu.stats().warp_cycles;
        let launches = self.gpu.stats().launches;
        let b = self.b as u64;
        let share = |i: usize, total: u64| total / b + if i == 0 { total % b } else { 0 };
        members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let stats = SolverStats {
                    modeled_seconds: Some(modeled / self.b as f64),
                    modeled_cycles: Some(share(i, cycles)),
                    wall_seconds: 0.0,
                    augmentations: self.augmentations[i],
                    dual_updates: self.dual_updates[i],
                    device_steps: share(i, launches),
                    profile_events: 0,
                    ..Default::default()
                };
                read_back.report(i, m, stats)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsap::LsapSolver;

    fn pseudo_matrix(n: usize, seed: u64) -> CostMatrix {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        CostMatrix::from_fn(n, n, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 97) as f64
        })
        .unwrap()
    }

    #[test]
    fn lockstep_matches_solo_bit_for_bit() {
        let batch: Vec<CostMatrix> = (0..6).map(|i| pseudo_matrix(8, 40 + i)).collect();
        let rep = BatchFastHa::new().solve_batch(&batch).unwrap();
        rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();
        let mut solo = FastHa::new();
        for (m, r) in batch.iter().zip(&rep.reports) {
            let s = solo.solve(m).unwrap();
            assert_eq!(s.assignment, r.assignment);
            assert_eq!(s.objective.to_bits(), r.objective.to_bits());
            assert_eq!(s.certificate, r.certificate);
            assert_eq!(s.stats.augmentations, r.stats.augmentations);
            assert_eq!(s.stats.dual_updates, r.stats.dual_updates);
        }
    }

    #[test]
    fn batch_amortizes_launches_and_syncs() {
        let batch: Vec<CostMatrix> = (0..16).map(|i| pseudo_matrix(8, 7 + i)).collect();
        let batched = BatchFastHa::new().solve_batch(&batch).unwrap();
        let sequential = lsap::SequentialBatch::new(FastHa::new())
            .solve_batch(&batch)
            .unwrap();
        let b = batched.stats.modeled_seconds.unwrap();
        let s = sequential.stats.modeled_seconds.unwrap();
        assert!(
            b < s,
            "lockstep batch ({b:.6}s) must beat sequential launches ({s:.6}s)"
        );
    }

    #[test]
    fn mixed_sizes_group_into_separate_lockstep_runs() {
        let batch = vec![
            pseudo_matrix(4, 1),
            pseudo_matrix(8, 2),
            pseudo_matrix(4, 3),
            pseudo_matrix(8, 4),
        ];
        let rep = BatchFastHa::new().solve_batch(&batch).unwrap();
        rep.verify_all(&batch, F32_VERIFY_EPS).unwrap();
        let mut solo = FastHa::new();
        for (m, r) in batch.iter().zip(&rep.reports) {
            assert_eq!(solo.solve(m).unwrap().objective, r.objective);
        }
    }

    #[test]
    fn rejects_non_power_of_two_members() {
        let batch = vec![pseudo_matrix(4, 1), CostMatrix::filled(6, 1.0).unwrap()];
        assert!(matches!(
            BatchFastHa::new().solve_batch(&batch),
            Err(LsapError::Backend { .. })
        ));
    }
}
