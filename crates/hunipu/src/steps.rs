//! The six HunIPU steps (§IV-C through §IV-H), each built as a program
//! fragment over the static graph.

use crate::build::{Builder, Storage};
use ipu_sim::kernels;
use ipu_sim::poplib::{reduce_columns_mirrored, reduce_columns_mirrored_hier, ReduceOp};
use ipu_sim::{cost, Access, ComputeSetId, DType, GraphError, Program, Tensor, TensorSlice};

/// Bits of the row index inside the Step 4 arg-max encoding; supports
/// n < 2^24 (the paper's largest instance is 2^13).
const ENC_SHIFT: u32 = 24;
const ENC_MASK: i32 = (1 << ENC_SHIFT) - 1;

impl Builder {
    /// Step 1 (§IV-C): subtract row minima then column minima from the
    /// slack matrix, initializing the dual potentials `u` (row minima of
    /// C) and `v` (column minima of the row-reduced matrix).
    pub fn frag_step1(&mut self) -> Result<Program, GraphError> {
        let (l, n, th) = (self.l.clone(), self.l.n, self.l.threads);
        let t_slack = self.t.slack;
        let t_segmin = self.t.seg_min;
        let t_u = self.t.u;

        // 1a: per-(row, thread-segment) minima — six threads per row, two
        // floats retrieved at a time (§IV-C).
        let cs_seg = self.g.add_compute_set("step1.rowmin.seg");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let v = self
                    .g
                    .add_vertex_on_thread(cs_seg, tile, s, "rowmin", |ctx| {
                        let seg = ctx.f32(0);
                        ctx.f32_mut(1)[0] = kernels::min_f32(&seg);
                        cost::f32_scan(seg.len())
                    })?;
                self.g
                    .connect(v, t_slack.slice(l.row_seg_range(row, s)), Access::Read)?;
                self.g.connect(
                    v,
                    t_segmin.slice(row * th + s..row * th + s + 1),
                    Access::Write,
                )?;
            }
        }
        // 1b: combine the six per-segment minima into u[row].
        let cs_comb = self.g.add_compute_set("step1.rowmin.combine");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            let v = self.g.add_vertex(cs_comb, tile, "rowmin.combine", |ctx| {
                let mins = ctx.f32(0);
                ctx.f32_mut(1)[0] = kernels::min_f32(&mins);
                cost::f32_scan(mins.len())
            })?;
            self.g
                .connect(v, t_segmin.slice(row * th..(row + 1) * th), Access::Read)?;
            self.g.connect(v, t_u.element(row), Access::Write)?;
        }
        // 1c: subtract u[row] from the row, segment-parallel.
        let cs_sub = self.g.add_compute_set("step1.rowsub");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let v = self
                    .g
                    .add_vertex_on_thread(cs_sub, tile, s, "rowsub", |ctx| {
                        let m = ctx.f32(0)[0];
                        let mut seg = ctx.f32_mut(1);
                        kernels::sub_scalar(&mut seg, m);
                        cost::f32_update(seg.len())
                    })?;
                self.g.connect(v, t_u.element(row), Access::Read)?;
                self.g
                    .connect(v, t_slack.slice(l.row_seg_range(row, s)), Access::ReadWrite)?;
            }
        }

        // 1d: column minima of the row-reduced matrix, mirrored per tile.
        // Sparse storage scatters its candidate entries into per-owner
        // column vectors first (a stored entry's position no longer *is*
        // its column); dense reduces the slack matrix directly.
        // Min is order-exact, so the hierarchical variant (per-chip trees,
        // one link crossing) produces bit-identical minima on multi-chip
        // configs while the flat path stays byte-for-byte unchanged.
        if let Storage::Sparse { k } = self.storage {
            return self.frag_step1_sparse_tail(cs_seg, cs_comb, cs_sub, k);
        }
        let (colmirror, col_prog) = if l.chips > 1 {
            reduce_columns_mirrored_hier(
                &mut self.g,
                "step1.colmin",
                t_slack,
                n,
                n,
                ReduceOp::Min,
                &l.chip_stages(),
            )?
        } else {
            reduce_columns_mirrored(&mut self.g, "step1.colmin", t_slack, n, n, ReduceOp::Min)?
        };

        // 1e: subtract the column minima; 1f: initialize v from them.
        let cs_csub = self.g.add_compute_set("step1.colsub");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let v = self
                    .g
                    .add_vertex_on_thread(cs_csub, tile, s, "colsub", |ctx| {
                        let mins = ctx.f32(0);
                        let mut seg = ctx.f32_mut(1);
                        kernels::sub_elementwise(&mut seg, &mins);
                        cost::f32_update(seg.len())
                    })?;
                let cols = l.seg_cols(s);
                let blk = l.mirror_block(tile);
                self.g.connect(
                    v,
                    colmirror.slice(blk * n + cols.start..blk * n + cols.end),
                    Access::Read,
                )?;
                self.g
                    .connect(v, t_slack.slice(l.row_seg_range(row, s)), Access::ReadWrite)?;
            }
        }
        let cs_vinit = self.frag_vinit("step1.vinit", colmirror)?;

        Ok(Program::seq(vec![
            Program::execute(cs_seg),
            Program::execute(cs_comb),
            Program::execute(cs_sub),
            col_prog,
            Program::execute(cs_csub),
            Program::execute(cs_vinit),
        ]))
    }

    /// Sparse tail of Step 1 (1d–1f): the stored entries carry explicit
    /// column ids, so the column minima come from a scatter — each owner
    /// tile folds its candidate entries into a full-width `n` partial
    /// vector (∞ where it holds no candidate), and the standard mirrored
    /// column reduction combines the partials. Subtraction and `v`
    /// initialization then index the mirror through `cand`. Columns that
    /// no row kept have an ∞ minimum; their `v` clamps to 0 (they can
    /// only matter on infeasible prunes, which Step 6's δ-guard reports).
    fn frag_step1_sparse_tail(
        &mut self,
        cs_seg: ipu_sim::ComputeSetId,
        cs_comb: ipu_sim::ComputeSetId,
        cs_sub: ipu_sim::ComputeSetId,
        k: usize,
    ) -> Result<Program, GraphError> {
        let (l, n, th) = (self.l.clone(), self.l.n, self.l.threads);
        let t_slack = self.t.slack;
        let t_cand = self.t.cand.expect("sparse storage has cand");
        let owners = self.l.owner_tiles();

        // 1d: per-owner scatter of candidate minima, then the mirrored
        // column reduction (sparse runs on flat single-chip layouts).
        let scat = self
            .g
            .add_tensor("step1.scat", DType::F32, owners.len() * n);
        for (i, &tile) in owners.iter().enumerate() {
            self.g.map_slice(scat.slice(i * n..(i + 1) * n), tile)?;
        }
        let cs_scat = self.g.add_compute_set("step1.scatter");
        for (i, &tile) in owners.iter().enumerate() {
            let rows = l.rows_of_tile(tile);
            let v = self.g.add_vertex(cs_scat, tile, "scatter", |ctx| {
                let slack = ctx.f32(0);
                let cand = ctx.i32(1);
                let mut part = ctx.f32_mut(2);
                for p in part.iter_mut() {
                    *p = f32::INFINITY;
                }
                for (pos, &c) in cand.iter().enumerate() {
                    let c = c as usize;
                    part[c] = part[c].min(slack[pos]);
                }
                cost::f32_scan(slack.len()) + cost::f32_update(part.len())
            })?;
            self.g
                .connect(v, t_slack.slice(rows.start * k..rows.end * k), Access::Read)?;
            self.g
                .connect(v, t_cand.slice(rows.start * k..rows.end * k), Access::Read)?;
            self.g
                .connect(v, scat.slice(i * n..(i + 1) * n), Access::Write)?;
        }
        let (colmirror, col_prog) = reduce_columns_mirrored(
            &mut self.g,
            "step1.colmin",
            scat,
            owners.len(),
            n,
            ReduceOp::Min,
        )?;

        // 1e: subtract each stored entry's column minimum via `cand`.
        let cs_csub = self.g.add_compute_set("step1.colsub");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let v = self
                    .g
                    .add_vertex_on_thread(cs_csub, tile, s, "colsub", |ctx| {
                        let mins = ctx.f32(0);
                        let cand = ctx.i32(1);
                        let mut seg = ctx.f32_mut(2);
                        for (p, x) in seg.iter_mut().enumerate() {
                            *x -= mins[cand[p] as usize];
                        }
                        cost::f32_update(seg.len()) + cost::i32_scan(seg.len())
                    })?;
                let blk = l.mirror_block(tile);
                self.g
                    .connect(v, colmirror.slice(blk * n..(blk + 1) * n), Access::Read)?;
                self.g
                    .connect(v, t_cand.slice(l.row_seg_range(row, s)), Access::Read)?;
                self.g
                    .connect(v, t_slack.slice(l.row_seg_range(row, s)), Access::ReadWrite)?;
            }
        }

        // 1f: v from the column minima, ∞ (candidate-free column) → 0.
        let cs_vinit = self.frag_vinit("step1.vinit", colmirror)?;

        Ok(Program::seq(vec![
            Program::execute(cs_seg),
            Program::execute(cs_comb),
            Program::execute(cs_sub),
            Program::execute(cs_scat),
            col_prog,
            Program::execute(cs_csub),
            Program::execute(cs_vinit),
        ]))
    }

    /// Initializes `v` from the mirrored column minima, one vertex per
    /// column segment. Sparse storage maps the ∞ minimum of a column no
    /// row kept as a candidate to 0; such columns only matter on
    /// infeasible prunes, which Step 6's δ-guard reports.
    fn frag_vinit(&mut self, name: &str, colmirror: Tensor) -> Result<ComputeSetId, GraphError> {
        let (l, n) = (self.l.clone(), self.l.n);
        let sparse = matches!(self.storage, Storage::Sparse { .. });
        let cs_vinit = self.g.add_compute_set(name);
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let v = self.g.add_vertex(cs_vinit, tile, "vinit", move |ctx| {
                let mins = ctx.f32(0);
                let mut out = ctx.f32_mut(1);
                if sparse {
                    for (o, &m) in out.iter_mut().zip(mins.iter()) {
                        *o = if m.is_finite() { m } else { 0.0 };
                    }
                } else {
                    out.copy_from_slice(&mins);
                }
                cost::f32_update(out.len())
            })?;
            let cols = l.col_seg_cols(seg);
            let blk = l.mirror_block(tile);
            self.g.connect(
                v,
                colmirror.slice(blk * n + cols.start..blk * n + cols.end),
                Access::Read,
            )?;
            self.g.connect(v, self.t.v.slice(cols), Access::Write)?;
        }
        Ok(cs_vinit)
    }

    /// Matrix compression (§IV-B, Fig. 1): per (row, thread segment),
    /// compact the zero positions to the front of the segment (−1
    /// padding) and count them. A stored zero's column is its position in
    /// dense storage and comes from `cand` in sparse storage; the rest of
    /// the pipeline (sort, propose/decide, the Step 4 status scan) speaks
    /// absolute column ids, so everything downstream of the compressed
    /// matrix is representation-agnostic.
    pub fn frag_compress(&mut self) -> Result<Program, GraphError> {
        let (l, n, th) = (self.l.clone(), self.l.n, self.l.threads);
        let (t_slack, t_comp, t_zc) = (self.t.slack, self.t.compress, self.t.zero_count);
        let t_cand = self.t.cand;
        let cs = self.g.add_compute_set("compress");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let col0 = l.seg_cols(s).start as i32;
                let v = match t_cand {
                    None => self
                        .g
                        .add_vertex_on_thread(cs, tile, s, "compress", move |ctx| {
                            let slack = ctx.f32(0);
                            let mut comp = ctx.i32_mut(1);
                            // Branchless compaction: store the candidate
                            // unconditionally, advance the cursor only on
                            // a zero. A non-zero's store lands at the same
                            // cursor and is overwritten by the next
                            // candidate (or the -1 fill), so the result is
                            // identical to the branchy loop — without the
                            // data-dependent branch that dominates this,
                            // the hottest codelet of the whole solve.
                            let comp = &mut comp[..slack.len()];
                            let mut k = 0;
                            for (off, &x) in slack.iter().enumerate() {
                                comp[k] = col0 + off as i32;
                                k += (x == 0.0) as usize;
                            }
                            for c in comp[k..].iter_mut() {
                                *c = -1;
                            }
                            ctx.i32_mut(2)[0] = k as i32;
                            cost::f32_scan(slack.len()) + cost::i32_update(slack.len())
                        })?,
                    Some(_) => {
                        self.g
                            .add_vertex_on_thread(cs, tile, s, "compress", move |ctx| {
                                let slack = ctx.f32(0);
                                let cand = ctx.i32(1);
                                let mut comp = ctx.i32_mut(2);
                                let comp = &mut comp[..slack.len()];
                                let mut k = 0;
                                for (off, &x) in slack.iter().enumerate() {
                                    comp[k] = cand[off];
                                    k += (x == 0.0) as usize;
                                }
                                for c in comp[k..].iter_mut() {
                                    *c = -1;
                                }
                                ctx.i32_mut(3)[0] = k as i32;
                                cost::f32_scan(slack.len()) + cost::i32_update(slack.len())
                            })?
                    }
                };
                self.g
                    .connect(v, t_slack.slice(l.row_seg_range(row, s)), Access::Read)?;
                if let Some(cand) = t_cand {
                    self.g
                        .connect(v, cand.slice(l.row_seg_range(row, s)), Access::Read)?;
                }
                self.g
                    .connect(v, t_comp.slice(l.row_seg_range(row, s)), Access::Write)?;
                self.g
                    .connect(v, t_zc.slice(row * th + s..row * th + s + 1), Access::Write)?;
            }
        }
        Ok(Program::execute(cs))
    }

    /// Step 2 (§IV-D, Fig. 2): initial matching. Counts zeros per row,
    /// reduces the maximum τ, sorts each compressed row descending, and
    /// runs τ parallel proposal/decide/confirm passes over the sorted
    /// zero positions.
    pub fn frag_step2(&mut self) -> Result<Program, GraphError> {
        let (l, n, th) = (self.l.clone(), self.l.n, self.l.threads);
        let t = self.t.clone();
        let (t_zc, t_total, t_comp) = (t.zero_count, t.row_total, t.compress);
        let (t_star, t_prop, t_cstar) = (t.row_star, t.prop, t.col_star);
        let (t_pass, t_pass_lt, t_pass_m, t_ma, t_mb) = (t.pass, t.pass_lt, t.pass_m, t.ma, t.mb);

        // Zeros per row and τ = max over rows.
        let cs_total = self.g.add_compute_set("step2.rowtotal");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            let v = self.g.add_vertex(cs_total, tile, "rowtotal", |ctx| {
                let zc = ctx.i32(0);
                ctx.i32_mut(1)[0] = zc.iter().sum();
                cost::i32_scan(zc.len())
            })?;
            self.g
                .connect(v, t_zc.slice(row * th..(row + 1) * th), Access::Read)?;
            self.g.connect(v, t_total.element(row), Access::Write)?;
        }
        let (tau, tau_prog) = self.reduce_scalar("step2.tau", t_total, ReduceOp::Max)?;

        // Sort each compressed row descending (zero positions first, −1
        // padding last) — Poplar's sort operation in the paper.
        let cs_sort = self.g.add_compute_set("step2.sort");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            let v = self.g.add_vertex(cs_sort, tile, "sort", |ctx| {
                let mut c = ctx.i32_mut(0);
                c.sort_unstable_by(|a, b| b.cmp(a));
                cost::sort(c.len())
            })?;
            self.g
                .connect(v, t_comp.slice(l.row_range(row)), Access::ReadWrite)?;
        }

        // pass = 0; pass_lt = pass < τ.
        let cs_init = self.g.add_compute_set("step2.passinit");
        self.collector_vertex(
            cs_init,
            "passinit",
            vec![
                (tau.whole(), Access::Read),
                (t_pass.whole(), Access::Write),
                (t_pass_lt.whole(), Access::Write),
            ],
            |ctx| {
                let tau = ctx.i32(0)[0];
                ctx.i32_mut(1)[0] = 0;
                ctx.i32_mut(2)[0] = i32::from(0 < tau);
                cost::scalar(3)
            },
        )?;

        // Pass body: propose → decide → confirm.
        let cs_prop = self.g.add_compute_set("step2.propose");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            let row_i = row;
            let v = self.g.add_vertex(cs_prop, tile, "propose", move |ctx| {
                let pass = ctx.i32(0)[0] as usize;
                let star = ctx.i32(1)[0];
                let sorted = ctx.i32(2);
                let p = if star == -1 { sorted[pass] } else { -1 };
                ctx.i32_mut(3)[0] = p;
                let _ = row_i;
                cost::scalar(4)
            })?;
            self.g.connect(v, t_pass_m.whole(), Access::Read)?;
            self.g.connect(v, t_star.element(row), Access::Read)?;
            self.g
                .connect(v, t_comp.slice(l.row_range(row)), Access::Read)?;
            self.g.connect(v, t_prop.element(row), Access::Write)?;
        }
        // Multi-chip: broadcast straight from the distributed proposal
        // vector so the replica traffic is sourced from every owner tile
        // instead of serializing on the collector's IPU-Links. Single-chip
        // keeps the seed's gather-then-broadcast byte-for-byte.
        let row_intervals = self.row_block_intervals(1);
        let (prop_g, gather_prop) = if self.l.chips > 1 {
            (t_prop, Program::seq(vec![]))
        } else {
            self.gather_to_collector("step2.propg", t_prop, &row_intervals)?
        };

        let cs_decide = self.g.add_compute_set("step2.decide");
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols = l.col_seg_cols(seg);
            let (c0, c1) = (cols.start as i32, cols.end as i32);
            let v = self.g.add_vertex(cs_decide, tile, "decide", move |ctx| {
                let props = ctx.i32(0);
                let mut stars = ctx.i32_mut(1);
                for (r, &p) in props.iter().enumerate() {
                    if p >= c0 && p < c1 && stars[(p - c0) as usize] == -1 {
                        stars[(p - c0) as usize] = r as i32;
                    }
                }
                cost::i32_scan(props.len())
            })?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_cstar.slice(cols), Access::ReadWrite)?;
        }
        let col_intervals = self.col_seg_intervals();
        let (cstar_g, gather_cstar) = if self.l.chips > 1 {
            (t_cstar, Program::seq(vec![]))
        } else {
            self.gather_to_collector("step2.cstarg", t_cstar, &col_intervals)?
        };

        let cs_confirm = self.g.add_compute_set("step2.confirm");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            let row_i = row as i32;
            let v = self.g.add_vertex(cs_confirm, tile, "confirm", move |ctx| {
                let p = ctx.i32(0)[0];
                if p >= 0 && ctx.i32(1)[p as usize] == row_i {
                    ctx.i32_mut(2)[0] = p;
                }
                cost::scalar(4)
            })?;
            self.g.connect(v, t_prop.element(row), Access::Read)?;
            self.g.connect(v, t_mb.whole(), Access::Read)?;
            self.g.connect(v, t_star.element(row), Access::ReadWrite)?;
        }

        let cs_adv = self.g.add_compute_set("step2.passadv");
        self.collector_vertex(
            cs_adv,
            "passadv",
            vec![
                (tau.whole(), Access::Read),
                (t_pass.whole(), Access::ReadWrite),
                (t_pass_lt.whole(), Access::Write),
            ],
            |ctx| {
                let tau = ctx.i32(0)[0];
                let mut pass = ctx.i32_mut(1);
                pass[0] += 1;
                ctx.i32_mut(2)[0] = i32::from(pass[0] < tau);
                cost::scalar(3)
            },
        )?;

        let pass_body = Program::seq(vec![
            Program::broadcast(t_pass.whole(), t_pass_m.whole()),
            Program::execute(cs_prop),
            gather_prop,
            Program::broadcast(prop_g.whole(), t_ma.whole()),
            Program::execute(cs_decide),
            gather_cstar,
            Program::broadcast(cstar_g.whole(), t_mb.whole()),
            Program::execute(cs_confirm),
            Program::execute(cs_adv),
        ]);

        Ok(Program::seq(vec![
            Program::execute(cs_total),
            tau_prog,
            Program::execute(cs_sort),
            Program::execute(cs_init),
            Program::while_true(t_pass_lt, pass_body),
        ]))
    }

    /// Step 3 (§IV-E): cover every column holding a star, count covered
    /// columns, set `not_done = covered < n`.
    pub fn frag_step3(&mut self) -> Result<Program, GraphError> {
        let l = self.l.clone();
        let n = l.n;
        let (t_cstar, t_ccov, t_nd) = (self.t.col_star, self.t.col_cover, self.t.not_done);
        let cs_cover = self.g.add_compute_set("step3.cover");
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols = l.col_seg_cols(seg);
            let v = self.g.add_vertex(cs_cover, tile, "cover", |ctx| {
                let stars = ctx.i32(0);
                let mut cov = ctx.i32_mut(1);
                for (c, &s) in cov.iter_mut().zip(stars.iter()) {
                    *c = i32::from(s != -1);
                }
                cost::i32_update(stars.len())
            })?;
            self.g
                .connect(v, t_cstar.slice(cols.clone()), Access::Read)?;
            self.g.connect(v, t_ccov.slice(cols), Access::Write)?;
        }
        let (covered, red_prog) = self.reduce_scalar("step3.covered", t_ccov, ReduceOp::Sum)?;
        let cs_nd = self.g.add_compute_set("step3.notdone");
        match self.t.infeasible {
            // Sparse/tiled: a latched infeasibility (non-finite δ) must
            // stop the outer loop too — step 3 would otherwise see the
            // incomplete matching and restart the search forever.
            Some(t_inf) => self.collector_vertex(
                cs_nd,
                "notdone",
                vec![
                    (covered.whole(), Access::Read),
                    (t_inf.whole(), Access::Read),
                    (t_nd.whole(), Access::Write),
                ],
                move |ctx| {
                    let incomplete = (ctx.i32(0)[0] as usize) < n;
                    let latched = ctx.i32(1)[0] != 0;
                    ctx.i32_mut(2)[0] = i32::from(incomplete && !latched);
                    cost::scalar(3)
                },
            )?,
            None => self.collector_vertex(
                cs_nd,
                "notdone",
                vec![
                    (covered.whole(), Access::Read),
                    (t_nd.whole(), Access::Write),
                ],
                move |ctx| {
                    ctx.i32_mut(1)[0] = i32::from((ctx.i32(0)[0] as usize) < n);
                    cost::scalar(2)
                },
            )?,
        }
        Ok(Program::seq(vec![
            Program::execute(cs_cover),
            red_prog,
            Program::execute(cs_nd),
        ]))
    }

    /// The Step 4/5/6 search loop (§IV-F to §IV-H): while `searching`,
    /// refresh the cover mirror, classify rows (−1/0/1), arg-max reduce,
    /// and dispatch to augmentation (1), priming (0), or the slack update
    /// (−1). Tiled storage classifies rows from their resident zero
    /// lists and streams the cost blocks ([`Builder::frag_tiled_scan`])
    /// only when no list holds an uncovered zero, then classifies again:
    /// the stream finds zeros an overflowed list lost, and Step 6's δ.
    /// `compress` is the re-compression pass Step 6 re-runs over stored
    /// slack (`None` when tiled).
    fn frag_search_loop(&mut self, compress: Option<&Program>) -> Result<Program, GraphError> {
        // --- cover-mirror refresh ---
        // Multi-chip: skip the collector gather and broadcast from the
        // distributed cover vector directly, spreading the per-replica
        // link traffic across every owning tile's chip.
        let col_intervals = self.col_seg_intervals();
        let refresh_ccm = if self.l.chips > 1 {
            Program::broadcast(self.t.col_cover.whole(), self.t.ccm.whole())
        } else {
            let (ccg, gather_cc) =
                self.gather_to_collector("loop.ccg", self.t.col_cover, &col_intervals)?;
            Program::seq(vec![
                gather_cc,
                Program::broadcast(ccg.whole(), self.t.ccm.whole()),
            ])
        };
        let cs_status = self.frag_row_status()?;
        let (enc_out, enc_prog) = self.reduce_scalar("step4.enc", self.t.enc, ReduceOp::Max)?;

        // Decode: status and selected row.
        let (t_st1, t_st0, t_sel_row) = (self.t.st1, self.t.st0, self.t.sel_row);
        let cs_decode = self.g.add_compute_set("step4.decode");
        self.collector_vertex(
            cs_decode,
            "decode",
            vec![
                (enc_out.whole(), Access::Read),
                (t_st1.whole(), Access::Write),
                (t_st0.whole(), Access::Write),
                (t_sel_row.whole(), Access::Write),
            ],
            |ctx| {
                let e = ctx.i32(0)[0];
                let status = (e >> ENC_SHIFT) - 1;
                ctx.i32_mut(1)[0] = i32::from(status == 1);
                ctx.i32_mut(2)[0] = i32::from(status == 0);
                ctx.i32_mut(3)[0] = ENC_MASK - (e & ENC_MASK);
                cost::scalar(5)
            },
        )?;
        let classify = [
            Program::execute(cs_status),
            enc_prog,
            Program::execute(cs_decode),
        ];
        let mut body = vec![refresh_ccm];
        body.extend(classify.clone());
        if let Storage::Tiled { block_cols, zcap } = self.storage {
            // Every list came up empty: stream against the current duals
            // (through the column-potential mirror), then classify again.
            let t_vm = self.t.vm.expect("tiled storage has v_m");
            let mut fallback = vec![Program::broadcast(self.t.v.whole(), t_vm.whole())];
            fallback.extend(self.frag_tiled_scan(block_cols, zcap)?);
            fallback.extend(classify);
            let none = Program::seq(vec![]);
            body.push(Program::if_else(
                t_st1,
                none.clone(),
                Program::if_else(t_st0, none, Program::seq(fallback)),
            ));
        }

        // Shared fragment: resolve the selected row's uncovered-zero
        // column via a dynamic read, and mirror it.
        let row_intervals = self.row_block_intervals(1);
        let (rzc_out, read_rzc) = self.dyn_read_i32(
            "step4.selcol",
            self.t.row_zero_col,
            self.t.sel_row_m,
            &row_intervals,
        )?;
        let get_sel_col = Program::seq(vec![
            Program::broadcast(t_sel_row.whole(), self.t.sel_row_m.whole()),
            read_rzc,
            Program::broadcast(rzc_out.whole(), self.t.sel_col_m.whole()),
        ]);

        let prime = self.frag_prime(&get_sel_col, &row_intervals)?;
        let augment = self.frag_augment(&get_sel_col, rzc_out, &row_intervals)?;
        let step6 = self.frag_step6(compress)?;

        body.push(Program::if_else(
            t_st1,
            augment,
            Program::if_else(t_st0, prime, step6),
        ));
        Ok(Program::while_true(self.t.searching, Program::seq(body)))
    }

    /// Step 4's row status (§IV-F): every row publishes its state
    /// ([`row_status`]), its lowest uncovered zero column, and the
    /// arg-max key. Dense and sparse rows scan their compressed zeros,
    /// ascending per segment (ablation A2: the raw slack row); tiled rows
    /// take the minimum uncovered column of their zero list, which Step 2
    /// sorted descending and Step 6 appends to.
    fn frag_row_status(&mut self) -> Result<ComputeSetId, GraphError> {
        let l = self.l.clone();
        let th = l.threads;
        let (t_comp, t_rcov, t_rstar) = (self.t.compress, self.t.row_cover, self.t.row_star);
        let (t_zs, t_rzc, t_enc, t_ccm) = (
            self.t.zero_status,
            self.t.row_zero_col,
            self.t.enc,
            self.t.ccm,
        );
        let (t_slack, t_zc) = (self.t.slack, self.t.zero_count);
        let cs_status = self.g.add_compute_set("step4.status");
        for row in 0..l.n {
            let tile = l.tile_of_row(row);
            let row_i = row as i32;
            let v = if let Storage::Tiled { .. } = self.storage {
                let v = self.g.add_vertex(cs_status, tile, "status", move |ctx| {
                    let covered = ctx.i32(0)[0] != 0;
                    let star = ctx.i32(1)[0];
                    let len = if covered { 0 } else { ctx.i32(3)[0] as usize };
                    let ccm = ctx.i32(4);
                    let zcol = ctx.i32(2)[..len]
                        .iter()
                        .copied()
                        .filter(|&c| ccm[c as usize] == 0)
                        .min()
                        .unwrap_or(-1);
                    let (status, enc) = row_status(zcol, star, row_i);
                    ctx.i32_mut(5)[0] = status;
                    ctx.i32_mut(6)[0] = zcol;
                    ctx.i32_mut(7)[0] = enc;
                    cost::i32_scan(len) + cost::scalar(6)
                })?;
                self.g.connect(v, t_rcov.element(row), Access::Read)?;
                self.g.connect(v, t_rstar.element(row), Access::Read)?;
                self.g
                    .connect(v, t_comp.slice(l.row_range(row)), Access::Read)?;
                self.g.connect(v, t_zc.element(row * th), Access::Read)?;
                v
            } else if self.ab.compression {
                let seg_bounds: Vec<(usize, usize)> = (0..th)
                    .map(|s| {
                        let c = l.seg_cols(s);
                        (c.start, c.end)
                    })
                    .collect();
                let v = self.g.add_vertex(cs_status, tile, "status", move |ctx| {
                    let covered = ctx.i32(0)[0] != 0;
                    let star = ctx.i32(1)[0];
                    let comp = ctx.i32(2);
                    let ccm = ctx.i32(3);
                    let mut scanned = 0u64;
                    let mut zcol = -1;
                    if !covered {
                        'outer: for &(s0, s1) in &seg_bounds {
                            for k in s0..s1 {
                                scanned += 1;
                                let c = comp[k];
                                if c < 0 {
                                    break; // compacted: no more zeros in seg
                                }
                                if ccm[c as usize] == 0 {
                                    zcol = c;
                                    break 'outer;
                                }
                            }
                        }
                    }
                    let (status, enc) = row_status(zcol, star, row_i);
                    ctx.i32_mut(4)[0] = status;
                    ctx.i32_mut(5)[0] = zcol;
                    ctx.i32_mut(6)[0] = enc;
                    cost::i32_scan(scanned as usize) + cost::scalar(6)
                })?;
                self.g.connect(v, t_rcov.element(row), Access::Read)?;
                self.g.connect(v, t_rstar.element(row), Access::Read)?;
                self.g
                    .connect(v, t_comp.slice(l.row_range(row)), Access::Read)?;
                v
            } else {
                // Ablation A2: no compression — scan the raw slack row.
                let v = self
                    .g
                    .add_vertex(cs_status, tile, "status_raw", move |ctx| {
                        let covered = ctx.i32(0)[0] != 0;
                        let star = ctx.i32(1)[0];
                        let slack = ctx.f32(2);
                        let ccm = ctx.i32(3);
                        let mut zcol = -1;
                        if !covered {
                            for (c, &x) in slack.iter().enumerate() {
                                if x == 0.0 && ccm[c] == 0 {
                                    zcol = c as i32;
                                    break;
                                }
                            }
                        }
                        let (status, enc) = row_status(zcol, star, row_i);
                        ctx.i32_mut(4)[0] = status;
                        ctx.i32_mut(5)[0] = zcol;
                        ctx.i32_mut(6)[0] = enc;
                        cost::f32_scan(slack.len()) + cost::scalar(6)
                    })?;
                self.g.connect(v, t_rcov.element(row), Access::Read)?;
                self.g.connect(v, t_rstar.element(row), Access::Read)?;
                self.g
                    .connect(v, t_slack.slice(l.row_range(row)), Access::Read)?;
                v
            };
            self.g.connect(v, t_ccm.whole(), Access::Read)?;
            self.g.connect(v, t_zs.element(row), Access::Write)?;
            self.g.connect(v, t_rzc.element(row), Access::Write)?;
            self.g.connect(v, t_enc.element(row), Access::Write)?;
        }
        Ok(cs_status)
    }

    /// Step 4's priming action (status 0), one tree layer per pass:
    /// every row whose status is 0 primes its uncovered zero and covers
    /// itself, with no dynamic reads. Column covers are then re-derived
    /// from the search-loop invariant "a column is covered iff it holds
    /// a star whose row is uncovered", reading `row_cover` through the
    /// `ma` mirror (idle during Step 4). Three supersteps per layer.
    ///
    /// Primes of one pass sit in distinct rows, and a prime's column was
    /// uncovered when the pass started, so its star's row was primed in
    /// an earlier pass: Step 5's walk visits strictly earlier passes and
    /// terminates. Ablation A5 (`layered_priming: false`) keeps the
    /// paper's one prime per iteration ([`Builder::frag_prime_one`]).
    fn frag_prime(
        &mut self,
        get_sel_col: &Program,
        row_intervals: &[(std::ops::Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        if !self.ab.layered_priming {
            return self.frag_prime_one(get_sel_col, row_intervals);
        }
        let l = self.l.clone();
        let (t_zs, t_rzc) = (self.t.zero_status, self.t.row_zero_col);
        let (t_prime, t_rcov) = (self.t.row_prime, self.t.row_cover);
        let cs_prime = self.g.add_compute_set("step4.prime_layer");
        for (tile, t, rows) in self.tile_thread_chunks() {
            let v = self
                .g
                .add_vertex_on_thread(cs_prime, tile, t, "prime_layer", |ctx| {
                    let status = ctx.i32(0);
                    let zcol = ctx.i32(1);
                    let mut prime = ctx.i32_mut(2);
                    let mut cov = ctx.i32_mut(3);
                    let mut primed = 0;
                    for (r, &s) in status.iter().enumerate() {
                        if s == 0 {
                            prime[r] = zcol[r];
                            cov[r] = 1;
                            primed += 1;
                        }
                    }
                    cost::i32_scan(status.len()) + cost::scalar(2 * primed)
                })?;
            self.g.connect(v, t_zs.slice(rows.clone()), Access::Read)?;
            self.g.connect(v, t_rzc.slice(rows.clone()), Access::Read)?;
            self.g
                .connect(v, t_prime.slice(rows.clone()), Access::ReadWrite)?;
            self.g.connect(v, t_rcov.slice(rows), Access::ReadWrite)?;
        }

        let (t_ma, t_cstar, t_ccov) = (self.t.ma, self.t.col_star, self.t.col_cover);
        let cs_recover = self.g.add_compute_set("step4.recover");
        for seg in 0..l.n_col_segs() {
            let cols = l.col_seg_cols(seg);
            let v = self
                .g
                .add_vertex(cs_recover, l.col_seg_tile(seg), "recover", |ctx| {
                    let stars = ctx.i32(0);
                    let rcov = ctx.i32(1);
                    let mut cov = ctx.i32_mut(2);
                    for (c, &s) in cov.iter_mut().zip(stars.iter()) {
                        *c = i32::from(s >= 0 && rcov[s as usize] == 0);
                    }
                    cost::i32_scan(stars.len()) + cost::i32_update(stars.len())
                })?;
            self.g
                .connect(v, t_cstar.slice(cols.clone()), Access::Read)?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_ccov.slice(cols), Access::Write)?;
        }

        Ok(Program::seq(vec![
            Program::execute(cs_prime),
            Program::broadcast(t_rcov.whole(), t_ma.whole()),
            Program::execute(cs_recover),
        ]))
    }

    /// The paper's priming action (§IV-F, ablation A5): prime the arg-max
    /// row's zero, cover its row, uncover its star's column. All writes
    /// at runtime-computed indices use the partition-and-distribute
    /// pattern (§IV-G).
    fn frag_prime_one(
        &mut self,
        get_sel_col: &Program,
        row_intervals: &[(std::ops::Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        let l = self.l.clone();
        let (star_out, read_star) = self.dyn_read_i32(
            "prime.star",
            self.t.row_star,
            self.t.sel_row_m,
            row_intervals,
        )?;

        let (t_selr_m, t_selc_m) = (self.t.sel_row_m, self.t.sel_col_m);
        let (t_prime, t_rcov) = (self.t.row_prime, self.t.row_cover);
        let cs_prime = self.g.add_compute_set("step4.prime");
        for (range, tile) in row_intervals {
            let (s0, s1) = (range.start, range.end);
            let v = self.g.add_vertex(cs_prime, *tile, "prime", move |ctx| {
                let r = ctx.i32(0)[0] as usize;
                if r >= s0 && r < s1 {
                    let j = ctx.i32(1)[0];
                    ctx.i32_mut(2)[r - s0] = j;
                    ctx.i32_mut(3)[r - s0] = 1;
                }
                cost::scalar(5)
            })?;
            self.g.connect(v, t_selr_m.whole(), Access::Read)?;
            self.g.connect(v, t_selc_m.whole(), Access::Read)?;
            self.g
                .connect(v, t_prime.slice(range.clone()), Access::ReadWrite)?;
            self.g
                .connect(v, t_rcov.slice(range.clone()), Access::ReadWrite)?;
        }

        let (t_star_m, t_ccov) = (self.t.star_col_m, self.t.col_cover);
        let cs_uncover = self.g.add_compute_set("step4.uncover");
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols = l.col_seg_cols(seg);
            let (c0, c1) = (cols.start, cols.end);
            let v = self.g.add_vertex(cs_uncover, tile, "uncover", move |ctx| {
                let j = ctx.i32(0)[0] as usize;
                if j >= c0 && j < c1 {
                    ctx.i32_mut(1)[j - c0] = 0;
                }
                cost::scalar(4)
            })?;
            self.g.connect(v, t_star_m.whole(), Access::Read)?;
            self.g.connect(v, t_ccov.slice(cols), Access::ReadWrite)?;
        }

        Ok(Program::seq(vec![
            get_sel_col.clone(),
            read_star,
            Program::broadcast(star_out.whole(), self.t.star_col_m.whole()),
            Program::execute(cs_prime),
            Program::execute(cs_uncover),
        ]))
    }

    /// Step 5 (§IV-G, Fig. 3): walk the alternating path from the
    /// selected prime, recording hops on the green stack; then flip the
    /// stars in parallel, clear primes and covers, and end the search.
    fn frag_augment(
        &mut self,
        get_sel_col: &Program,
        rzc_out: ipu_sim::Tensor,
        row_intervals: &[(std::ops::Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        let l = self.l.clone();
        let t = self.t.clone();
        let (t_grows, t_gcols, t_glen) = (t.green_rows, t.green_cols, t.green_len);
        let (t_selrow, t_curcol, t_walking) = (t.sel_row, t.cur_col, t.walking);
        let t_ctr = t.ctr_aug;

        // Initialize the walk: push the starting prime.
        let cs_init = self.g.add_compute_set("step5.init");
        self.collector_vertex(
            cs_init,
            "walkinit",
            vec![
                (t_selrow.whole(), Access::Read),
                (rzc_out.whole(), Access::Read),
                (t_grows.whole(), Access::Write),
                (t_gcols.whole(), Access::Write),
                (t_glen.whole(), Access::Write),
                (t_curcol.whole(), Access::Write),
                (t_walking.whole(), Access::Write),
                (t_ctr.whole(), Access::ReadWrite),
            ],
            |ctx| {
                let r = ctx.i32(0)[0];
                let c = ctx.i32(1)[0];
                ctx.i32_mut(2)[0] = r;
                ctx.i32_mut(3)[0] = c;
                ctx.i32_mut(4)[0] = 1;
                ctx.i32_mut(5)[0] = c;
                ctx.i32_mut(6)[0] = 1;
                ctx.i32_mut(7)[0] += 1;
                cost::scalar(8)
            },
        )?;

        // One walk hop: k = col_star[cur_col]; if k >= 0 then
        // j' = row_prime[k], push (k, j'), cur_col = j'.
        let col_intervals = self.col_seg_intervals();
        let (k_out, read_k) =
            self.dyn_read_i32("step5.colstar", t.col_star, t.cur_col_m, &col_intervals)?;
        let cs_check = self.g.add_compute_set("step5.check");
        self.collector_vertex(
            cs_check,
            "check",
            vec![
                (k_out.whole(), Access::Read),
                (t_walking.whole(), Access::Write),
            ],
            |ctx| {
                ctx.i32_mut(1)[0] = i32::from(ctx.i32(0)[0] >= 0);
                cost::scalar(2)
            },
        )?;
        let (rp_out, read_rp) =
            self.dyn_read_i32("step5.rowprime", t.row_prime, t.k_row_m, row_intervals)?;
        let cs_push = self.g.add_compute_set("step5.push");
        self.collector_vertex(
            cs_push,
            "push",
            vec![
                (k_out.whole(), Access::Read),
                (rp_out.whole(), Access::Read),
                (t_grows.whole(), Access::ReadWrite),
                (t_gcols.whole(), Access::ReadWrite),
                (t_glen.whole(), Access::ReadWrite),
                (t_curcol.whole(), Access::Write),
            ],
            |ctx| {
                let k = ctx.i32(0)[0];
                let j = ctx.i32(1)[0];
                let mut len = ctx.i32_mut(4);
                let at = len[0] as usize;
                ctx.i32_mut(2)[at] = k;
                ctx.i32_mut(3)[at] = j;
                len[0] += 1;
                ctx.i32_mut(5)[0] = j;
                cost::scalar(8)
            },
        )?;
        let hop = Program::seq(vec![
            Program::broadcast(t_curcol.whole(), t.cur_col_m.whole()),
            read_k,
            Program::execute(cs_check),
            Program::if_true(
                t_walking,
                Program::seq(vec![
                    Program::broadcast(k_out.whole(), t.k_row_m.whole()),
                    read_rp,
                    Program::execute(cs_push),
                ]),
            ),
        ]);
        let walk = Program::while_true(t_walking, hop);

        // Flip in parallel from the mirrored green stack.
        let (t_ma, t_mb, t_lenm) = (t.ma, t.mb, t.len_m);
        let (t_rstar, t_rprime, t_rcov, t_cstar) =
            (t.row_star, t.row_prime, t.row_cover, t.col_star);
        let cs_fr = self.g.add_compute_set("step5.flip_rows");
        for (range, tile) in row_intervals {
            let (s0, s1) = (range.start as i32, range.end as i32);
            let v = self.g.add_vertex(cs_fr, *tile, "flip_rows", move |ctx| {
                let len = ctx.i32(2)[0] as usize;
                {
                    let rows = ctx.i32(0);
                    let cols = ctx.i32(1);
                    let mut star = ctx.i32_mut(3);
                    for tpos in 0..len {
                        let r = rows[tpos];
                        if r >= s0 && r < s1 {
                            star[(r - s0) as usize] = cols[tpos];
                        }
                    }
                }
                let mut prime = ctx.i32_mut(4);
                prime.iter_mut().for_each(|x| *x = -1);
                let mut cov = ctx.i32_mut(5);
                cov.iter_mut().for_each(|x| *x = 0);
                cost::i32_scan(len) + cost::i32_update(prime.len() + cov.len())
            })?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_mb.whole(), Access::Read)?;
            self.g.connect(v, t_lenm.whole(), Access::Read)?;
            self.g
                .connect(v, t_rstar.slice(range.clone()), Access::ReadWrite)?;
            self.g
                .connect(v, t_rprime.slice(range.clone()), Access::Write)?;
            self.g
                .connect(v, t_rcov.slice(range.clone()), Access::Write)?;
        }
        let cs_fc = self.g.add_compute_set("step5.flip_cols");
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols_r = l.col_seg_cols(seg);
            let (c0, c1) = (cols_r.start as i32, cols_r.end as i32);
            let v = self.g.add_vertex(cs_fc, tile, "flip_cols", move |ctx| {
                let len = ctx.i32(2)[0] as usize;
                let rows = ctx.i32(0);
                let cols = ctx.i32(1);
                let mut star = ctx.i32_mut(3);
                for tpos in 0..len {
                    let c = cols[tpos];
                    if c >= c0 && c < c1 {
                        star[(c - c0) as usize] = rows[tpos];
                    }
                }
                cost::i32_scan(len)
            })?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_mb.whole(), Access::Read)?;
            self.g.connect(v, t_lenm.whole(), Access::Read)?;
            self.g
                .connect(v, t_cstar.slice(cols_r), Access::ReadWrite)?;
        }

        let cs_done = self.g.add_compute_set("step5.done");
        let t_searching = t.searching;
        self.collector_vertex(
            cs_done,
            "done",
            vec![(t_searching.whole(), Access::Write)],
            |ctx| {
                ctx.i32_mut(0)[0] = 0;
                cost::scalar(1)
            },
        )?;

        // The green stack lives on the root collector; on multi-chip
        // configs scatter it to the per-chip sub-collectors first so the
        // mirror broadcast crosses each IPU-Link once per chunk instead of
        // paying the full stack per remote replica from one tile.
        let grows_bc = self.broadcast_from_collector("step5.grows", t_grows, t_ma)?;
        let gcols_bc = self.broadcast_from_collector("step5.gcols", t_gcols, t_mb)?;
        Ok(Program::seq(vec![
            get_sel_col.clone(),
            Program::execute(cs_init),
            walk,
            grows_bc,
            gcols_bc,
            Program::broadcast(t_glen.whole(), t_lenm.whole()),
            Program::execute(cs_fr),
            Program::execute(cs_fc),
            Program::execute(cs_done),
        ]))
    }

    /// Step 6 (§IV-H): find the minimum uncovered slack δ, broadcast it,
    /// shift the stored slack and the dual potentials
    /// ([`Builder::step6_update`]), and re-compress. Dense and sparse
    /// runs take δ from per-thread segment minima; tiled runs have no
    /// stored slack, so δ is the minimum over the streamed scan's
    /// per-row accumulators, and the zero lists follow the shift without
    /// another stream ([`Builder::step6_lists`]). Sparse and tiled runs
    /// guard δ before anything moves ([`Builder::step6_guard`]).
    fn frag_step6(&mut self, compress: Option<&Program>) -> Result<Program, GraphError> {
        let mut prog = Vec::new();
        let minima = match self.storage {
            Storage::Tiled { .. } => self.t.rowacc.expect("tiled storage has rowacc"),
            _ => {
                prog.push(Program::execute(self.step6_segmin()?));
                self.t.seg_min
            }
        };
        let (delta, red_prog) = self.reduce_scalar("step6.delta", minima, ReduceOp::Min)?;
        prog.push(red_prog);
        let guard = match self.storage {
            Storage::Dense => None,
            _ => Some(self.step6_guard(delta)?),
        };
        let cs_upd = self.step6_update()?;

        let mut update = vec![
            Program::broadcast(delta.whole(), self.t.delta_m.whole()),
            Program::execute(cs_upd),
        ];
        if let Some(compress) = compress {
            update.push(if self.ab.compression {
                compress.clone()
            } else {
                Program::seq(vec![])
            });
        }
        if let Storage::Tiled { zcap, .. } = self.storage {
            update.push(Program::execute(self.step6_lists(zcap)?));
        }
        match guard {
            None => prog.extend(update),
            Some(cs_guard) => {
                let t_ok = self.t.delta_ok.expect("guarded storage has delta_ok");
                prog.push(Program::execute(cs_guard));
                prog.push(Program::if_true(t_ok, Program::seq(update)));
            }
        }
        Ok(Program::seq(prog))
    }

    /// Step 6's uncovered minimum per (row, thread segment) over stored
    /// entries — sparse masks each entry's column through `cand` — while
    /// the collector counts the dual update.
    fn step6_segmin(&mut self) -> Result<ComputeSetId, GraphError> {
        let l = self.l.clone();
        let (n, th) = (l.n, l.threads);
        let t = self.t.clone();
        let cs_min = self.g.add_compute_set("step6.segmin");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..th {
                let c0 = l.seg_cols(s).start;
                let v = match t.cand {
                    Some(_) => {
                        self.g
                            .add_vertex_on_thread(cs_min, tile, s, "segmin", move |ctx| {
                                let covered = ctx.i32(0)[0] != 0;
                                let out = if covered {
                                    f32::INFINITY
                                } else {
                                    let slack = ctx.f32(1);
                                    let cand = ctx.i32(2);
                                    let ccm = ctx.i32(3);
                                    let mut m = f32::INFINITY;
                                    for (p, &x) in slack.iter().enumerate() {
                                        if ccm[cand[p] as usize] == 0 {
                                            m = m.min(x);
                                        }
                                    }
                                    m
                                };
                                ctx.f32_mut(4)[0] = out;
                                cost::f32_scan(ctx.f32(1).len()) + cost::scalar(2)
                            })?
                    }
                    None => self
                        .g
                        .add_vertex_on_thread(cs_min, tile, s, "segmin", move |ctx| {
                            let covered = ctx.i32(0)[0] != 0;
                            let out = if covered {
                                f32::INFINITY
                            } else {
                                let slack = ctx.f32(1);
                                let ccm = ctx.i32(2);
                                kernels::masked_min_where_zero(&slack, &ccm[c0..])
                            };
                            ctx.f32_mut(3)[0] = out;
                            cost::f32_scan(ctx.f32(1).len()) + cost::scalar(2)
                        })?,
                };
                self.g.connect(v, t.row_cover.element(row), Access::Read)?;
                self.g
                    .connect(v, t.slack.slice(l.row_seg_range(row, s)), Access::Read)?;
                if let Some(cand) = t.cand {
                    self.g
                        .connect(v, cand.slice(l.row_seg_range(row, s)), Access::Read)?;
                }
                self.g.connect(v, t.ccm.whole(), Access::Read)?;
                self.g.connect(
                    v,
                    t.seg_min.slice(row * th + s..row * th + s + 1),
                    Access::Write,
                )?;
            }
        }
        self.collector_vertex(
            cs_min,
            "count_dual",
            vec![(t.ctr_dual.whole(), Access::ReadWrite)],
            |ctx| {
                ctx.i32_mut(0)[0] += 1;
                cost::scalar(1)
            },
        )?;
        Ok(cs_min)
    }

    /// Step 6's δ-guard (sparse and tiled storage). A finite δ lets the
    /// update run. An infinite δ means no uncovered row holds an entry in
    /// an uncovered column — on a sparse prune, a violation of Hall's
    /// condition — so the guard latches `infeasible` and ends the search
    /// and outer loops, letting the host re-admit columns instead of the
    /// device diverging. Tiled runs have no segment-minimum pass, so the
    /// guard counts their dual updates too.
    fn step6_guard(&mut self, delta: Tensor) -> Result<ComputeSetId, GraphError> {
        let t = self.t.clone();
        let count = matches!(self.storage, Storage::Tiled { .. });
        let mut fields = vec![
            (delta.whole(), Access::Read),
            (
                t.delta_ok.expect("guarded storage has delta_ok").whole(),
                Access::Write,
            ),
            (
                t.infeasible
                    .expect("guarded storage has infeasible")
                    .whole(),
                Access::ReadWrite,
            ),
            (t.searching.whole(), Access::ReadWrite),
            (t.not_done.whole(), Access::ReadWrite),
        ];
        if count {
            fields.push((t.ctr_dual.whole(), Access::ReadWrite));
        }
        let cs_guard = self.g.add_compute_set("step6.guard");
        self.collector_vertex(cs_guard, "guard", fields, move |ctx| {
            let finite = ctx.f32(0)[0].is_finite();
            ctx.i32_mut(1)[0] = i32::from(finite);
            if !finite {
                ctx.i32_mut(2)[0] = 1;
                ctx.i32_mut(3)[0] = 0;
                ctx.i32_mut(4)[0] = 0;
            }
            if count {
                ctx.i32_mut(5)[0] += 1;
            }
            cost::scalar(5 + usize::from(count))
        })?;
        Ok(cs_guard)
    }

    /// Step 6's shift by δ: stored slack (dense, sparse) grows on
    /// covered-row × covered-column entries and shrinks on uncovered ×
    /// uncovered ones; `u += δ` on uncovered rows and `v −= δ` on covered
    /// columns keep the LP-duality certificate in step.
    fn step6_update(&mut self) -> Result<ComputeSetId, GraphError> {
        let l = self.l.clone();
        let (n, th) = (l.n, l.threads);
        let t = self.t.clone();
        // Tiled storage keeps no slack on the device: duals only.
        let slack_segs = match self.storage {
            Storage::Tiled { .. } => 0,
            _ => th,
        };
        let cs_upd = self.g.add_compute_set("step6.update");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..slack_segs {
                let c0 = l.seg_cols(s).start;
                let v = match t.cand {
                    Some(_) => {
                        self.g
                            .add_vertex_on_thread(cs_upd, tile, s, "update", move |ctx| {
                                let delta = ctx.f32(0)[0];
                                let covered = ctx.i32(1)[0] != 0;
                                let ccm = ctx.i32(2);
                                let cand = ctx.i32(3);
                                let mut slack = ctx.f32_mut(4);
                                for (p, x) in slack.iter_mut().enumerate() {
                                    let col_covered = ccm[cand[p] as usize] != 0;
                                    if covered && col_covered {
                                        *x += delta;
                                    } else if !covered && !col_covered {
                                        *x -= delta;
                                    }
                                }
                                cost::f32_update(slack.len())
                            })?
                    }
                    None => self
                        .g
                        .add_vertex_on_thread(cs_upd, tile, s, "update", move |ctx| {
                            let delta = ctx.f32(0)[0];
                            let covered = ctx.i32(1)[0] != 0;
                            let ccm = ctx.i32(2);
                            let mut slack = ctx.f32_mut(3);
                            if covered {
                                kernels::add_where_nonzero(&mut slack, &ccm[c0..], delta);
                            } else {
                                kernels::sub_where_zero(&mut slack, &ccm[c0..], delta);
                            }
                            cost::f32_update(slack.len())
                        })?,
                };
                self.g.connect(v, t.delta_m.whole(), Access::Read)?;
                self.g.connect(v, t.row_cover.element(row), Access::Read)?;
                self.g.connect(v, t.ccm.whole(), Access::Read)?;
                if let Some(cand) = t.cand {
                    self.g
                        .connect(v, cand.slice(l.row_seg_range(row, s)), Access::Read)?;
                }
                self.g
                    .connect(v, t.slack.slice(l.row_seg_range(row, s)), Access::ReadWrite)?;
            }
            // Dual potential u: one scalar vertex per row.
            let v = self.g.add_vertex(cs_upd, tile, "u_update", |ctx| {
                if ctx.i32(1)[0] == 0 {
                    ctx.f32_mut(2)[0] += ctx.f32(0)[0];
                }
                cost::scalar(3)
            })?;
            self.g.connect(v, t.delta_m.whole(), Access::Read)?;
            self.g.connect(v, t.row_cover.element(row), Access::Read)?;
            self.g.connect(v, t.u.element(row), Access::ReadWrite)?;
        }
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols = l.col_seg_cols(seg);
            let v = self.g.add_vertex(cs_upd, tile, "v_update", |ctx| {
                let delta = ctx.f32(0)[0];
                let cov = ctx.i32(1);
                let mut pot = ctx.f32_mut(2);
                kernels::sub_where_nonzero(&mut pot, &cov, delta);
                cost::f32_update(pot.len())
            })?;
            self.g.connect(v, t.delta_m.whole(), Access::Read)?;
            self.g
                .connect(v, t.col_cover.slice(cols.clone()), Access::Read)?;
            self.g.connect(v, t.v.slice(cols), Access::ReadWrite)?;
        }
        Ok(cs_upd)
    }

    /// Step 6 on the tiled zero lists, after `u += δ` on uncovered rows
    /// and `v −= δ` on covered columns. A covered row's zeros in covered
    /// columns now have slack δ and leave its list; an uncovered row
    /// whose uncovered minimum was δ gains the columns the streamed scan
    /// recorded behind its list. Every other slack is unchanged, so the
    /// lists stay exactly the zero set (up to overflow) without a stream.
    fn step6_lists(&mut self, zcap: usize) -> Result<ComputeSetId, GraphError> {
        let th = self.l.threads;
        let t = self.t.clone();
        let t_acc = t.rowacc.expect("tiled storage has rowacc");
        let cs = self.g.add_compute_set("step6.lists");
        for (tile, thread, chunk) in self.tile_thread_chunks() {
            let rows_here = chunk.len();
            let v = self
                .g
                .add_vertex_on_thread(cs, tile, thread, "lists", move |ctx| {
                    let delta = ctx.f32(0)[0];
                    let rcov = ctx.i32(1);
                    let ccm = ctx.i32(2);
                    let acc = ctx.f32(3);
                    let mut comp = ctx.i32_mut(4);
                    let mut zc = ctx.i32_mut(5);
                    let mut touched = 0;
                    for r in 0..rows_here {
                        let list = &mut comp[r * zcap..(r + 1) * zcap];
                        let len = zc[r * th] as usize;
                        zc[r * th] = if rcov[r] != 0 {
                            touched += len;
                            let mut kept = 0;
                            for p in 0..len {
                                if ccm[list[p] as usize] == 0 {
                                    list[kept] = list[p];
                                    kept += 1;
                                }
                            }
                            kept as i32
                        } else if acc[r] == delta {
                            let k = recorded(list, len);
                            touched += k;
                            (len + k) as i32
                        } else {
                            len as i32
                        };
                    }
                    cost::i32_scan(touched) + cost::scalar(2 * rows_here)
                })?;
            self.g.connect(v, t.delta_m.whole(), Access::Read)?;
            self.g
                .connect(v, t.row_cover.slice(chunk.clone()), Access::Read)?;
            self.g.connect(v, t.ccm.whole(), Access::Read)?;
            self.g
                .connect(v, t_acc.slice(chunk.clone()), Access::Read)?;
            let (list, zc) = self.list_slices(&chunk, zcap);
            self.g.connect(v, list, Access::ReadWrite)?;
            self.g.connect(v, zc, Access::ReadWrite)?;
        }
        Ok(cs)
    }

    /// Per-(tile, thread) partition of each owner tile's row block —
    /// the work decomposition of every streamed-block sweep and of the
    /// layered prime pass.
    fn tile_thread_chunks(&self) -> Vec<(usize, usize, std::ops::Range<usize>)> {
        let th = self.l.threads;
        let mut out = Vec::new();
        for tile in self.l.owner_tiles() {
            let rows = self.l.rows_of_tile(tile);
            let cnt = rows.len();
            let base = cnt / th;
            let extra = cnt % th;
            let mut start = rows.start;
            for t in 0..th {
                let len = base + usize::from(t < extra);
                if len == 0 {
                    continue;
                }
                out.push((tile, t, start..start + len));
                start += len;
            }
        }
        out
    }

    /// A row chunk's zero lists (`zcap` entries per row) and their
    /// `zero_count` slots, whose slot 0 per row holds the list length.
    fn list_slices(
        &self,
        chunk: &std::ops::Range<usize>,
        zcap: usize,
    ) -> (TensorSlice, TensorSlice) {
        let th = self.l.threads;
        (
            self.t.compress.slice(chunk.start * zcap..chunk.end * zcap),
            self.t.zero_count.slice(chunk.start * th..chunk.end * th),
        )
    }

    /// Column ranges of the streamed blocks (`block_cols` wide, last may
    /// be short).
    fn block_ranges(&self, block_cols: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.l.n;
        (0..n.div_ceil(block_cols))
            .map(|b| b * block_cols..((b + 1) * block_cols).min(n))
            .collect()
    }

    /// One PCIe stream of cost block `cols` into the resident work
    /// buffer: per row, `host_cost[r, cols]` → `work[r, 0..bc]`. The
    /// engine charges the host side serially at
    /// `IpuConfig::host_io_bytes_per_cycle`, overlapping the fabric.
    fn stream_block(&self, cols: &std::ops::Range<usize>, block_cols: usize) -> Program {
        let n = self.l.n;
        let host = self.t.host_cost.expect("tiled storage has host_cost");
        let work = self.t.slack;
        let bc = cols.len();
        Program::exchange(
            (0..n)
                .map(|r| {
                    (
                        host.slice(r * n + cols.start..r * n + cols.end),
                        work.slice(r * block_cols..r * block_cols + bc),
                    )
                })
                .collect(),
        )
    }

    /// Tiled setup: the Step 1 reduction and the Step 2 zero lists,
    /// computed in three streamed sweeps over the host-resident matrix
    /// without ever materializing the reduced slack on the device:
    ///
    /// 1. `u[r] = min_c C[r][c]` (row minima);
    /// 2. column minima of `C[r][c] − u[r]`, mirrored per owner, → `v`;
    /// 3. bounded zero lists: the first `zcap` columns per row with
    ///    `C − u − v = 0`, their length in the row's `zero_count` slot 0.
    ///
    /// The lists feed Step 2's proposal passes and stay resident as the
    /// search loop's zero set. A row with more than `zcap` zeros gets a
    /// truncated list: Step 2 stars a subset, and the search streams the
    /// blocks again whenever no list holds an uncovered zero.
    fn frag_tiled_setup(&mut self, block_cols: usize, zcap: usize) -> Result<Program, GraphError> {
        let (l, n, th) = (self.l.clone(), self.l.n, self.l.threads);
        let (t_slack, t_u) = (self.t.slack, self.t.u);
        let chunks = self.tile_thread_chunks();
        let blocks = self.block_ranges(block_cols);
        let bw = block_cols;

        // Sweep 1: row minima.
        let cs_uinit = self.g.add_compute_set("tsetup.uinit");
        for (tile, t, chunk) in &chunks {
            let v = self
                .g
                .add_vertex_on_thread(cs_uinit, *tile, *t, "uinit", |ctx| {
                    let mut u = ctx.f32_mut(0);
                    for x in u.iter_mut() {
                        *x = f32::INFINITY;
                    }
                    cost::f32_update(u.len())
                })?;
            self.g.connect(v, t_u.slice(chunk.clone()), Access::Write)?;
        }
        let mut prog = vec![Program::execute(cs_uinit)];
        for (b, cols) in blocks.iter().enumerate() {
            let bc = cols.len();
            let cs = self.g.add_compute_set(&format!("tsetup.umin[{b}]"));
            for (tile, t, chunk) in &chunks {
                let rows_here = chunk.len();
                let v = self
                    .g
                    .add_vertex_on_thread(cs, *tile, *t, "umin", move |ctx| {
                        let work = ctx.f32(0);
                        let mut u = ctx.f32_mut(1);
                        for r in 0..rows_here {
                            let m = kernels::min_f32(&work[r * bw..r * bw + bc]);
                            u[r] = u[r].min(m);
                        }
                        cost::f32_scan(rows_here * bc)
                    })?;
                self.g.connect(
                    v,
                    t_slack.slice(chunk.start * bw..chunk.end * bw),
                    Access::Read,
                )?;
                self.g
                    .connect(v, t_u.slice(chunk.clone()), Access::ReadWrite)?;
            }
            prog.push(self.stream_block(cols, bw));
            prog.push(Program::execute(cs));
        }

        // Sweep 2: column minima of the row-reduced matrix. Each owner
        // accumulates a full-width partial (threads split the block's
        // columns, so each writes a disjoint slice), then the standard
        // mirrored reduction combines owners.
        let owners = l.owner_tiles();
        let scat = self
            .g
            .add_tensor("tsetup.scat", DType::F32, owners.len() * n);
        for (i, &tile) in owners.iter().enumerate() {
            self.g.map_slice(scat.slice(i * n..(i + 1) * n), tile)?;
        }
        for (b, cols) in blocks.iter().enumerate() {
            let bc = cols.len();
            let cs = self.g.add_compute_set(&format!("tsetup.cmin[{b}]"));
            for (i, &tile) in owners.iter().enumerate() {
                let rows = l.rows_of_tile(tile);
                let rows_here = rows.len();
                // Threads split the block's columns.
                let per = bc.div_ceil(th);
                for t in 0..th {
                    let j0 = (t * per).min(bc);
                    let j1 = ((t + 1) * per).min(bc);
                    if j0 == j1 {
                        continue;
                    }
                    let v = self
                        .g
                        .add_vertex_on_thread(cs, tile, t, "cmin", move |ctx| {
                            let work = ctx.f32(0);
                            let u = ctx.f32(1);
                            let mut part = ctx.f32_mut(2);
                            for p in part.iter_mut() {
                                *p = f32::INFINITY;
                            }
                            for r in 0..rows_here {
                                for (jj, p) in part.iter_mut().enumerate() {
                                    *p = p.min(work[r * bw + j0 + jj] - u[r]);
                                }
                            }
                            cost::f32_scan(rows_here * (j1 - j0))
                        })?;
                    self.g.connect(
                        v,
                        t_slack.slice(rows.start * bw..rows.end * bw),
                        Access::Read,
                    )?;
                    self.g.connect(v, t_u.slice(rows.clone()), Access::Read)?;
                    self.g.connect(
                        v,
                        scat.slice(i * n + cols.start + j0..i * n + cols.start + j1),
                        Access::Write,
                    )?;
                }
            }
            prog.push(self.stream_block(cols, bw));
            prog.push(Program::execute(cs));
        }
        let (colmirror, col_prog) = reduce_columns_mirrored(
            &mut self.g,
            "tsetup.colmin",
            scat,
            owners.len(),
            n,
            ReduceOp::Min,
        )?;
        prog.push(col_prog);

        let cs_vinit = self.frag_vinit("tsetup.vinit", colmirror)?;
        prog.push(Program::execute(cs_vinit));

        // Sweep 3: bounded zero lists (zero_count slot 0 is the cursor;
        // the other per-thread slots stay 0 so Step 2's row total sums
        // correctly).
        let cs_zinit = self.g.add_compute_set("tsetup.zinit");
        for (tile, t, chunk) in &chunks {
            let v = self
                .g
                .add_vertex_on_thread(cs_zinit, *tile, *t, "zinit", |ctx| {
                    let mut comp = ctx.i32_mut(0);
                    for x in comp.iter_mut() {
                        *x = -1;
                    }
                    let mut zc = ctx.i32_mut(1);
                    for x in zc.iter_mut() {
                        *x = 0;
                    }
                    cost::i32_update(comp.len() + zc.len())
                })?;
            let (list, zc) = self.list_slices(chunk, zcap);
            self.g.connect(v, list, Access::Write)?;
            self.g.connect(v, zc, Access::Write)?;
        }
        prog.push(Program::execute(cs_zinit));
        for (b, cols) in blocks.iter().enumerate() {
            let bc = cols.len();
            let c0 = cols.start;
            let cs = self.g.add_compute_set(&format!("tsetup.zlist[{b}]"));
            for (tile, t, chunk) in &chunks {
                let rows_here = chunk.len();
                let blk = l.mirror_block(*tile);
                let v = self
                    .g
                    .add_vertex_on_thread(cs, *tile, *t, "zlist", move |ctx| {
                        let work = ctx.f32(0);
                        let u = ctx.f32(1);
                        let vmin = ctx.f32(2);
                        let mut comp = ctx.i32_mut(3);
                        let mut zc = ctx.i32_mut(4);
                        for r in 0..rows_here {
                            let mut cnt = zc[r * th] as usize;
                            for j in 0..bc {
                                if cnt >= zcap {
                                    break;
                                }
                                if work[r * bw + j] - u[r] - vmin[j] == 0.0 {
                                    comp[r * zcap + cnt] = (c0 + j) as i32;
                                    cnt += 1;
                                }
                            }
                            zc[r * th] = cnt as i32;
                        }
                        cost::f32_scan(rows_here * bc)
                    })?;
                self.g.connect(
                    v,
                    t_slack.slice(chunk.start * bw..chunk.end * bw),
                    Access::Read,
                )?;
                self.g.connect(v, t_u.slice(chunk.clone()), Access::Read)?;
                self.g.connect(
                    v,
                    colmirror.slice(blk * n + cols.start..blk * n + cols.end),
                    Access::Read,
                )?;
                let (list, zc) = self.list_slices(chunk, zcap);
                self.g.connect(v, list, Access::ReadWrite)?;
                self.g.connect(v, zc, Access::ReadWrite)?;
            }
            prog.push(self.stream_block(cols, bw));
            prog.push(Program::execute(cs));
        }

        Ok(Program::seq(prog))
    }

    /// The tiled search loop's streamed scan, run when no zero list holds
    /// an uncovered zero: stream the cost blocks and recompute slacks
    /// `C − u − v` on the fly (exact in f32 for integer costs). Per
    /// uncovered row it accumulates the uncovered minimum (Step 6's δ
    /// candidate) and records the uncovered columns attaining it behind
    /// the list's `zero_count` length, as many as fit; a row with no
    /// room evicts its last listed zero — a covered column, or the list
    /// would have answered. A row whose minimum is 0 had a zero its
    /// overflowed list lost, and the last block adopts the recorded
    /// zeros so the repeated classification finds them; Step 6 adopts
    /// the records of rows whose minimum is δ ([`Builder::step6_lists`]).
    /// Steps 5 (augment) and 4's priming are the standard fragments —
    /// they touch only matching state.
    fn frag_tiled_scan(&mut self, bw: usize, zcap: usize) -> Result<Vec<Program>, GraphError> {
        let th = self.l.threads;
        let (t_slack, t_u, t_ccm) = (self.t.slack, self.t.u, self.t.ccm);
        let (t_vm, t_rcov) = (self.t.vm.expect("tiled storage has v_m"), self.t.row_cover);
        let t_acc = self.t.rowacc.expect("tiled storage has rowacc");
        let chunks = self.tile_thread_chunks();
        let blocks = self.block_ranges(bw);

        // Blocks in column order; the first resets each row's minimum
        // (∞ on covered rows, which Step 6's δ reduction also reads) and
        // its record, the last adopts the recorded zeros.
        let mut scan = Vec::new();
        let last = blocks.len() - 1;
        for (b, cols) in blocks.iter().enumerate() {
            let bc = cols.len();
            let c0 = cols.start;
            let (first, adopt_zeros) = (b == 0, b == last);
            let cs = self.g.add_compute_set(&format!("step4.scan[{b}]"));
            for (tile, t, chunk) in &chunks {
                let rows_here = chunk.len();
                let v = self
                    .g
                    .add_vertex_on_thread(cs, *tile, *t, "scan", move |ctx| {
                        let rcov = ctx.i32(0);
                        let work = ctx.f32(1);
                        let u = ctx.f32(2);
                        let vm = ctx.f32(3);
                        let ccm = ctx.i32(4);
                        let mut comp = ctx.i32_mut(5);
                        let mut zc = ctx.i32_mut(6);
                        let mut acc = ctx.f32_mut(7);
                        let mut scanned = 0usize;
                        for r in 0..rows_here {
                            if rcov[r] != 0 {
                                if first {
                                    acc[r] = f32::INFINITY;
                                }
                                continue;
                            }
                            let list = &mut comp[r * zcap..(r + 1) * zcap];
                            let mut len = zc[r * th] as usize;
                            let (mut m, mut k) = if first {
                                (f32::INFINITY, 0)
                            } else {
                                (acc[r], recorded(list, len))
                            };
                            for j in 0..bc {
                                let c = c0 + j;
                                if ccm[c] != 0 {
                                    continue;
                                }
                                scanned += 1;
                                let s = work[r * bw + j] - u[r] - vm[c];
                                if s < m {
                                    m = s;
                                    k = 0;
                                }
                                if s == m {
                                    if len + k == zcap {
                                        if k > 0 {
                                            continue;
                                        }
                                        len -= 1;
                                    }
                                    list[len + k] = c as i32;
                                    k += 1;
                                }
                            }
                            if len + k < zcap {
                                list[len + k] = -1;
                            }
                            if adopt_zeros && m == 0.0 {
                                len += k;
                            }
                            zc[r * th] = len as i32;
                            acc[r] = m;
                        }
                        cost::f32_scan(scanned) + cost::scalar(2 * rows_here)
                    })?;
                self.g
                    .connect(v, t_rcov.slice(chunk.clone()), Access::Read)?;
                self.g.connect(
                    v,
                    t_slack.slice(chunk.start * bw..chunk.end * bw),
                    Access::Read,
                )?;
                self.g.connect(v, t_u.slice(chunk.clone()), Access::Read)?;
                self.g.connect(v, t_vm.whole(), Access::Read)?;
                self.g.connect(v, t_ccm.whole(), Access::Read)?;
                let (list, zc) = self.list_slices(chunk, zcap);
                self.g.connect(v, list, Access::ReadWrite)?;
                self.g.connect(v, zc, Access::ReadWrite)?;
                self.g
                    .connect(v, t_acc.slice(chunk.clone()), Access::ReadWrite)?;
            }
            scan.push(self.stream_block(cols, bw));
            scan.push(Program::execute(cs));
        }
        Ok(scan)
    }

    /// Assembles the driver program (§IV): set-up once, then the outer
    /// completion loop around the inner search loop. Dense and sparse
    /// storage run Step 1, compression, Step 2 and compression again.
    /// The dense program guards Step 1 with the `seeded` flag: a
    /// warm-start launch sets it after uploading an already-reduced
    /// slack with repaired duals (`lsap::repair_duals_f32` guarantees a
    /// non-negative slack with an exact `0.0` per row, the invariant
    /// Step 1 establishes), so one program serves cold and seeded
    /// launches. Tiled storage replaces Step 1 and compression with the
    /// streamed set-up sweeps ([`Builder::frag_tiled_setup`]) and has no
    /// seeded launch.
    pub fn assemble(&mut self) -> Result<Program, GraphError> {
        let mut prog = Vec::new();
        let compress = match self.storage {
            Storage::Tiled { block_cols, zcap } => {
                prog.push(self.frag_tiled_setup(block_cols, zcap)?);
                None
            }
            _ => {
                let step1 = self.frag_step1()?;
                prog.push(match self.t.seeded {
                    Some(flag) => Program::if_else(flag, Program::seq(Vec::new()), step1),
                    None => step1,
                });
                let compress = self.frag_compress()?;
                prog.push(compress.clone());
                Some(compress)
            }
        };
        prog.push(self.frag_step2()?);
        prog.extend(compress.clone());
        let step3 = self.frag_step3()?;
        let search = self.frag_search_loop(compress.as_ref())?;

        let t_searching = self.t.searching;
        let cs_begin = self.g.add_compute_set("begin_search");
        self.collector_vertex(
            cs_begin,
            "begin",
            vec![(t_searching.whole(), Access::Write)],
            |ctx| {
                ctx.i32_mut(0)[0] = 1;
                cost::scalar(1)
            },
        )?;

        let outer_body = Program::seq(vec![Program::execute(cs_begin), search, step3.clone()]);
        prog.push(step3);
        prog.push(Program::while_true(self.t.not_done, outer_body));
        Ok(Program::seq(prog))
    }
}

/// A row's Step 4 state (§IV-F) — 1: an uncovered zero and no star
/// (augment); 0: an uncovered zero and a star (prime); −1: no uncovered
/// zero — and its arg-max key, which ranks status first, then the lowest
/// row.
fn row_status(zcol: i32, star: i32, row: i32) -> (i32, i32) {
    let status = if zcol < 0 {
        -1
    } else if star == -1 {
        1
    } else {
        0
    };
    (status, ((status + 1) << ENC_SHIFT) | (ENC_MASK - row))
}

/// How many columns the streamed scan recorded behind a tiled zero list
/// of length `len` (−1 ends the record when it does not fill the list).
fn recorded(list: &[i32], len: usize) -> usize {
    list[len..].iter().take_while(|&&c| c >= 0).count()
}
