//! FastHA's device state and its eleven Munkres kernel bodies, written
//! once for `b` same-size instances.
//!
//! Instance `i` owns the slices `slack[i·n²..]`, `zeros[i·n²..]`,
//! `row_star[i·n..]`, … and the scalar slots `found[i]`, `minval[i]`,
//! `cover_count[i]`. A body is the work of one thread: it takes the
//! thread context, the instance `i` and the thread's index within the
//! instance (a row or a column). The solo solver launches `n` threads of
//! instance 0; the lockstep batch launches `b·n` threads and checks each
//! instance's phase word before calling the same body. The mask stays in
//! the lockstep's launch because every read is a charged access: the
//! solo solver pays only the body's accesses.

use gpu_sim::{BufId, GpuSim, ThreadCtx};
use lsap::{Assignment, CostMatrix, DualCertificate, LsapError, SolveReport, SolverStats};

/// Sentinel for "no uncovered zero found" in the arg-min encoding.
pub(crate) const NOT_FOUND: i32 = i32::MAX;

/// The global-memory buffers of `b` instances of size `n`.
#[derive(Clone, Copy)]
pub(crate) struct Kernels {
    pub(crate) n: usize,
    slack: BufId,
    /// Per-row compacted zero columns (−1 padding), like the original's
    /// zero bookkeeping.
    zeros: BufId,
    zero_count: BufId,
    row_star: BufId,
    col_star: BufId,
    row_prime: BufId,
    row_cover: BufId,
    col_cover: BufId,
    u: BufId,
    v: BufId,
    /// Per-instance control word: the arg-min encoded uncovered zero
    /// (r·n + c, or [`NOT_FOUND`]) after `findZero`, the primed row's
    /// star column after `applyPrime`.
    pub(crate) found: BufId,
    /// Per-instance scaled minimum for the Step 6 reduction.
    pub(crate) minval: BufId,
    /// Per-instance covered-column counters.
    pub(crate) cover_count: BufId,
}

impl Kernels {
    /// Allocates the buffers for `members` (all of size `n`), uploads
    /// their costs as the initial slack and clears stars and primes.
    pub(crate) fn new(gpu: &mut GpuSim, n: usize, members: &[&CostMatrix]) -> Self {
        let b = members.len();
        let k = Self {
            n,
            slack: gpu.alloc_f32("slack", b * n * n),
            zeros: gpu.alloc_i32("zeros", b * n * n),
            zero_count: gpu.alloc_i32("zero_count", b * n),
            row_star: gpu.alloc_i32("row_star", b * n),
            col_star: gpu.alloc_i32("col_star", b * n),
            row_prime: gpu.alloc_i32("row_prime", b * n),
            row_cover: gpu.alloc_i32("row_cover", b * n),
            col_cover: gpu.alloc_i32("col_cover", b * n),
            u: gpu.alloc_f32("u", b * n),
            v: gpu.alloc_f32("v", b * n),
            found: gpu.alloc_i32("found", b),
            minval: gpu.alloc_f32("minval", b),
            cover_count: gpu.alloc_i32("cover_count", b),
        };
        let data: Vec<f32> = members
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|&x| x as f32))
            .collect();
        gpu.upload_f32(k.slack, &data);
        gpu.fill_i32(k.row_star, -1);
        gpu.fill_i32(k.col_star, -1);
        gpu.fill_i32(k.row_prime, -1);
        k
    }

    /// Step 1, rows: subtract each row's minimum into `u`.
    pub(crate) fn row_reduce(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let (n, slack, base) = (self.n, self.slack, i * self.n * self.n);
        let mut m = f32::INFINITY;
        for j in 0..n {
            m = m.min(t.read_f32(slack, base + r * n + j));
        }
        for j in 0..n {
            let x = t.read_f32(slack, base + r * n + j);
            t.write_f32(slack, base + r * n + j, x - m);
        }
        t.write_f32(self.u, i * n + r, m);
        t.alu(2 * n as u64);
    }

    /// Step 1, columns: subtract each column's minimum into `v`.
    pub(crate) fn col_reduce(self, t: &mut ThreadCtx, i: usize, c: usize) {
        let (n, slack, base) = (self.n, self.slack, i * self.n * self.n);
        let mut m = f32::INFINITY;
        for r in 0..n {
            m = m.min(t.read_f32(slack, base + r * n + c));
        }
        if m != 0.0 {
            for r in 0..n {
                let x = t.read_f32(slack, base + r * n + c);
                t.write_f32(slack, base + r * n + c, x - m);
            }
        }
        t.write_f32(self.v, i * n + c, m);
        t.alu(2 * n as u64);
    }

    /// Rebuilds row `r`'s compacted zero list (rows with different zero
    /// densities diverge within their warp).
    pub(crate) fn build_zeros(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let (n, base) = (self.n, i * self.n * self.n);
        let mut k = 0usize;
        for j in 0..n {
            if t.read_f32(self.slack, base + r * n + j) == 0.0 {
                t.write_i32(self.zeros, base + r * n + k, j as i32);
                k += 1;
            }
        }
        t.write_i32(self.zero_count, i * n + r, k as i32);
        t.alu(n as u64);
    }

    /// Step 2: greedy initial starring; rows race for columns with
    /// atomicCAS, exactly the conflict the original resolves with
    /// atomics.
    pub(crate) fn initial_star(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let n = self.n;
        let k = t.read_i32(self.zero_count, i * n + r) as usize;
        for idx in 0..k {
            let c = t.read_i32(self.zeros, i * n * n + r * n + idx);
            // Claim the column if free.
            if t.atomic_cas_i32(self.col_star, i * n + c as usize, -1, r as i32) == -1 {
                t.write_i32(self.row_star, i * n + r, c);
                break;
            }
        }
        t.alu(k as u64 + 1);
    }

    /// Step 3: cover column `c` if starred and count it (atomicAdd).
    pub(crate) fn cover_cols(self, t: &mut ThreadCtx, i: usize, c: usize) {
        let n = self.n;
        let covered = i32::from(t.read_i32(self.col_star, i * n + c) >= 0);
        t.write_i32(self.col_cover, i * n + c, covered);
        if covered != 0 {
            t.atomic_add_i32(self.cover_count, i, 1);
        }
        t.alu(2);
    }

    /// Step 4: scan row `r`'s zero list for an uncovered zero; rows race
    /// with atomicMin on the within-instance encoding r·n + c.
    pub(crate) fn find_zero(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let (n, base) = (self.n, i * self.n * self.n);
        if t.read_i32(self.row_cover, i * n + r) != 0 {
            return;
        }
        let k = t.read_i32(self.zero_count, i * n + r) as usize;
        for idx in 0..k {
            let c = t.read_i32(self.zeros, base + r * n + idx) as usize;
            // The list can be stale after dual updates within covered
            // intersections; validate before claiming.
            if t.read_i32(self.col_cover, i * n + c) == 0
                && t.read_f32(self.slack, base + r * n + c) == 0.0
            {
                t.atomic_min_i32(self.found, i, (r * n + c) as i32);
                break;
            }
        }
        t.alu(k as u64 + 2);
    }

    /// Primes (r, c); if the row has a star, covers the row and uncovers
    /// the star's column. The star (−1 if none) goes to `found[i]` for
    /// the host's read to steer the branch.
    pub(crate) fn apply_prime(self, t: &mut ThreadCtx, i: usize, r: usize, c: usize) {
        let n = self.n;
        t.write_i32(self.row_prime, i * n + r, c as i32);
        let star = t.read_i32(self.row_star, i * n + r);
        if star >= 0 {
            t.write_i32(self.row_cover, i * n + r, 1);
            t.write_i32(self.col_cover, i * n + star as usize, 0);
        }
        t.write_i32(self.found, i, star);
        t.alu(3);
    }

    /// Step 5: one thread walks the alternating prime/star path from the
    /// primed (r, c), the serial phase of the original.
    pub(crate) fn augment_path(self, t: &mut ThreadCtx, i: usize, r: usize, c: usize) {
        let n = self.n;
        let (mut r, mut c) = (r as i32, c as i32);
        loop {
            let old_star_row = t.read_i32(self.col_star, i * n + c as usize);
            t.write_i32(self.row_star, i * n + r as usize, c);
            t.write_i32(self.col_star, i * n + c as usize, r);
            if old_star_row < 0 {
                break;
            }
            r = old_star_row;
            c = t.read_i32(self.row_prime, i * n + r as usize);
            t.alu(4);
        }
    }

    /// Step 5: clears row `x`'s and column `x`'s covers and row `x`'s
    /// prime after an augmentation.
    pub(crate) fn clear_covers(self, t: &mut ThreadCtx, i: usize, x: usize) {
        let n = self.n;
        t.write_i32(self.row_cover, i * n + x, 0);
        t.write_i32(self.col_cover, i * n + x, 0);
        t.write_i32(self.row_prime, i * n + x, -1);
    }

    /// Step 6: row `r`'s minimum uncovered slack into `minval[i]` by
    /// atomic min.
    pub(crate) fn min_uncovered(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let n = self.n;
        if t.read_i32(self.row_cover, i * n + r) != 0 {
            return;
        }
        let mut m = f32::INFINITY;
        for j in 0..n {
            if t.read_i32(self.col_cover, i * n + j) == 0 {
                m = m.min(t.read_f32(self.slack, i * n * n + r * n + j));
            }
        }
        t.atomic_min_f32(self.minval, i, m);
        t.alu(n as u64);
    }

    /// Step 6: shifts row `r`'s slack by Δ = `minval[i]` and maintains
    /// the duals: `u` on this row, `v` on the r-th column (each column
    /// handled by exactly one thread).
    pub(crate) fn dual_update(self, t: &mut ThreadCtx, i: usize, r: usize) {
        let (n, slack, base) = (self.n, self.slack, i * self.n * self.n);
        let delta = t.read_f32(self.minval, i);
        let rc = t.read_i32(self.row_cover, i * n + r) != 0;
        for j in 0..n {
            let cc = t.read_i32(self.col_cover, i * n + j) != 0;
            if !rc && !cc {
                let x = t.read_f32(slack, base + r * n + j);
                t.write_f32(slack, base + r * n + j, x - delta);
            } else if rc && cc {
                let x = t.read_f32(slack, base + r * n + j);
                t.write_f32(slack, base + r * n + j, x + delta);
            }
        }
        if !rc {
            let x = t.read_f32(self.u, i * n + r);
            t.write_f32(self.u, i * n + r, x + delta);
        }
        if t.read_i32(self.col_cover, i * n + r) != 0 {
            let x = t.read_f32(self.v, i * n + r);
            t.write_f32(self.v, i * n + r, x - delta);
        }
        t.alu(2 * n as u64);
    }

    /// Reads the stars and duals of every instance back to the host.
    pub(crate) fn read_back(self, gpu: &mut GpuSim) -> ReadBack {
        ReadBack {
            n: self.n,
            row_star: gpu.read_i32(self.row_star),
            u: gpu.read_f32(self.u),
            v: gpu.read_f32(self.v),
        }
    }
}

/// The host copy of every instance's stars and duals.
pub(crate) struct ReadBack {
    n: usize,
    row_star: Vec<i32>,
    u: Vec<f32>,
    v: Vec<f32>,
}

impl ReadBack {
    /// Carves instance `i`'s assignment, objective and dual certificate
    /// out of the shared buffers, with `stats` as its accounting.
    pub(crate) fn report(
        &self,
        i: usize,
        matrix: &CostMatrix,
        stats: SolverStats,
    ) -> Result<SolveReport, LsapError> {
        let range = i * self.n..(i + 1) * self.n;
        let assignment = Assignment::from_row_to_col(
            self.row_star[range.clone()]
                .iter()
                .map(|&j| (j >= 0).then_some(j as usize))
                .collect(),
        );
        let objective = assignment.cost(matrix)?;
        let widen = |xs: &[f32]| xs.iter().map(|&x| x as f64).collect();
        Ok(SolveReport {
            assignment,
            objective,
            certificate: DualCertificate::new(widen(&self.u[range.clone()]), widen(&self.v[range])),
            stats,
        })
    }
}
