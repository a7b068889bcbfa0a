//! The six HunIPU steps (§IV-C through §IV-H), each built as a program
//! fragment over the static graph.

use crate::build::{Builder, Storage};
use ipu_sim::kernels;
use ipu_sim::poplib::{self, reduce_columns_mirrored, Finish, ReduceOp};
use ipu_sim::{
    cost, Access, ComputeSetId, DType, GraphError, Program, Tensor, TensorSlice, VertexCtx,
};

/// Bits of each of the row and the column inside the Step 4 arg-max
/// key ([`row_key`]); the key holds n ≤ 2^14 = 16,384, twice the
/// paper's largest instance (2^13). [`crate::HunIpu`] rejects larger
/// shapes before building.
const ENC_SHIFT: u32 = 14;
const ENC_MASK: i32 = (1 << ENC_SHIFT) - 1;
/// The largest `n` the arg-max key encodes.
pub(crate) const ENC_MAX_N: usize = 1 << ENC_SHIFT;

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
        // Min is order-exact, so combining per chip on chip-aware layouts
        // (one link crossing) gives the same minima as the flat tree.
        if let Storage::Sparse { k } = self.storage {
            return self.frag_step1_sparse_tail(cs_seg, cs_comb, cs_sub, k);
        }
        let (colmirror, col_prog) = reduce_columns_mirrored(
            &mut self.g,
            "step1.colmin",
            t_slack,
            n,
            n,
            ReduceOp::Min,
            l.groups(),
        )?;

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
            self.l.groups(),
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
                let sparse = t_cand.is_some();
                let v = self
                    .g
                    .add_vertex_on_thread(cs, tile, s, "compress", move |ctx| {
                        let slack = ctx.f32(0);
                        let (mut comp, mut zc) = (ctx.i32_mut(1), ctx.i32_mut(2));
                        if sparse {
                            let cand = ctx.i32(3);
                            compact_zeros(&slack, &mut comp, &mut zc[0], |off| cand[off]);
                        } else {
                            compact_zeros(&slack, &mut comp, &mut zc[0], |off| col0 + off as i32);
                        }
                        cost::f32_scan(slack.len()) + cost::i32_update(slack.len())
                    })?;
                let seg = l.row_seg_range(row, s);
                self.g
                    .connect(v, t_slack.slice(seg.clone()), Access::Read)?;
                self.g
                    .connect(v, t_comp.slice(seg.clone()), Access::Write)?;
                self.g
                    .connect(v, t_zc.slice(row * th + s..row * th + s + 1), Access::Write)?;
                if let Some(cand) = t_cand {
                    self.g.connect(v, cand.slice(seg), Access::Read)?;
                }
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
        let (tau, tau_prog) = self.reduce_scalar("step2.tau", t_total, ReduceOp::Max, None)?;

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
            let v = self.g.add_vertex(cs_prop, tile, "propose", move |ctx| {
                let pass = ctx.i32(0)[0] as usize;
                let star = ctx.i32(1)[0];
                // A fault-corrupted pass past the row reads as no proposal.
                let p = if star == -1 {
                    ctx.i32(2).get(pass).copied().unwrap_or(-1)
                } else {
                    -1
                };
                ctx.i32_mut(3)[0] = p;
                cost::scalar(4)
            })?;
            self.g.connect(v, t_pass_m.whole(), Access::Read)?;
            self.g.connect(v, t_star.element(row), Access::Read)?;
            self.g
                .connect(v, t_comp.slice(l.row_range(row)), Access::Read)?;
            self.g.connect(v, t_prop.element(row), Access::Write)?;
        }
        // Deciders read every proposal and confirmers every column star,
        // so both reach every tile as mirrors, refreshed like the search
        // loop's: one broadcast from their owners (`refresh_mirror`).
        let row_intervals = self.row_block_intervals(1);
        let refresh_prop = self.refresh_mirror("step2.propg", t_prop, t_ma, &row_intervals)?;

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
        let refresh_cstar = self.refresh_mirror("step2.cstarg", t_cstar, t_mb, &col_intervals)?;

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
            refresh_prop,
            Program::execute(cs_decide),
            refresh_cstar,
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
    /// columns, and set `not_done = covered < n` in the count's last
    /// vertex.
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
        // A latched non-finite δ or corrupted search must stop the outer
        // loop too: Step 3 would otherwise see the incomplete matching
        // and restart the search forever.
        let t_inf = self.t.infeasible;
        let notdone = Finish {
            fields: vec![(t_nd.whole(), Access::Write), (t_inf.whole(), Access::Read)],
            codelet: Box::new(move |ctx| {
                let incomplete = (ctx.i32(1)[0] as usize) < n;
                let latched = ctx.i32(3)[0] != 0;
                ctx.i32_mut(2)[0] = i32::from(incomplete && !latched);
                cost::scalar(3)
            }),
        };
        let (_, red_prog) =
            self.reduce_scalar("step3.covered", t_ccov, ReduceOp::Sum, Some(notdone))?;
        Ok(Program::seq(vec![Program::execute(cs_cover), red_prog]))
    }

    /// The Step 4/5/6 search loop (§IV-F to §IV-H). On entry it seeds
    /// the column-star mirror `mb`, which Step 4 derives column covers
    /// from and Step 5 walks (see [`uncovered_zero`] and
    /// [`walk_green_stack`]). Then, while `searching`, it classifies rows
    /// into arg-max keys ([`row_key`]) and broadcasts the keys into
    /// `ma`, where they are the row-prime mirror ([`key_prime`]) for
    /// every reader of the next pass; the collector arg-max reduces its
    /// own replica and dispatches to augmentation, the end of a prime
    /// layer, or the slack update, which first re-derives `col_cover`
    /// and its mirror ([`Builder::frag_col_covers`]). Tiled storage
    /// classifies rows from their resident zero lists and streams the
    /// cost blocks ([`Builder::frag_tiled_scan`]) only when no list holds
    /// an uncovered zero, then classifies again: the stream finds zeros
    /// an overflowed list lost, and Step 6's δ.
    fn frag_search_loop(&mut self) -> Result<Program, GraphError> {
        let row_intervals = self.row_block_intervals(1);
        let col_intervals = self.col_seg_intervals();
        // Column stars change only in the augmentation that ends a
        // search, so `mb` is seeded once per search; the keys refresh
        // `ma` on every classification.
        let refresh_keys =
            self.refresh_mirror("step4.keys", self.t.enc, self.t.ma, &row_intervals)?;
        let seed_mb =
            self.refresh_mirror("loop.csg", self.t.col_star, self.t.mb, &col_intervals)?;
        let cs_status = self.frag_row_status()?;

        // Arg-max over the collector's replica of the keys, decoded into
        // the branch flags and the selected row and column by the
        // reduction's last vertex, which also counts the search's
        // classifications: past the bound of [`search_bound`] (twice it
        // on tiled storage, which may classify twice per iteration) the
        // search is corrupted, and the decode latches `infeasible` and
        // ends it.
        let t = self.t.clone();
        let tiled = matches!(self.storage, Storage::Tiled { .. });
        let bound = search_bound(self.l.n) * if tiled { 2 } else { 1 };
        let decode = Finish {
            fields: vec![
                (t.st1.whole(), Access::Write),
                (t.st0.whole(), Access::Write),
                (t.sel.whole(), Access::Write),
                (t.iterations.whole(), Access::ReadWrite),
                (t.infeasible.whole(), Access::ReadWrite),
                (t.searching.whole(), Access::ReadWrite),
            ],
            codelet: Box::new(move |ctx| {
                let (class, row, col) = decode_key(ctx.i32(1)[0]);
                ctx.i32_mut(2)[0] = i32::from(class == KEY_AUGMENT);
                ctx.i32_mut(3)[0] = i32::from(class == KEY_PRIME);
                {
                    let mut sel = ctx.i32_mut(4);
                    sel[0] = row;
                    sel[1] = col;
                }
                let mut count = ctx.i32_mut(5);
                count[0] = count[0].saturating_add(1);
                if count[0] > bound {
                    ctx.i32_mut(6)[0] = LATCH_BOUND;
                    ctx.i32_mut(7)[0] = 0;
                }
                // Decode and four stores, then the count's increment,
                // store and test.
                cost::scalar(8)
            }),
        };
        let keys_out = self.g.add_tensor("step4.enc.out", DType::I32, 1);
        self.g.map_to_tile(keys_out, self.l.collector_tile)?;
        let argmax = poplib::reduce_on_tile(
            &mut self.g,
            "step4.enc.final",
            t.ma,
            keys_out,
            ReduceOp::Max,
            self.l.collector_tile,
            Some(decode),
        )?;
        let classify = [Program::execute(cs_status), refresh_keys.clone(), argmax];
        let mut body = classify.to_vec();
        let col_covers = self.frag_col_covers(&col_intervals)?;
        if let Storage::Tiled { block_cols, zcap } = self.storage {
            // Every list came up empty: stream against the current covers
            // and duals (through the column-potential mirror), then
            // classify again. Covers do not change before a Step 6 that
            // follows, so it needs no refresh of its own.
            let t_vm = self.t.vm.expect("tiled storage has v_m");
            let mut fallback = vec![
                col_covers.clone(),
                Program::broadcast(self.t.v.whole(), t_vm.whole()),
            ];
            fallback.extend(self.frag_tiled_scan(block_cols, zcap)?);
            fallback.extend(classify);
            let none = Program::seq(vec![]);
            body.push(Program::if_else(
                t.st1,
                none.clone(),
                Program::if_else(t.st0, none, Program::seq(fallback)),
            ));
        }

        // Priming (status 0). Layered priming (the default) primes a
        // whole tree layer per pass: every row of status 0 already primed
        // its zero, which covers it, in `step4.status`, and its key,
        // already in `ma`, says so, so the pass has nothing left to do.
        // Primes of one pass sit in distinct rows, and a prime's column
        // was uncovered when the pass started, so its star's row was
        // primed in an earlier pass: Step 5's walk visits strictly
        // earlier passes and terminates. A pass that augments or updates
        // the duals instead primes only rows that were uncovered when it
        // started, which no walk visits and Step 5 clears. Ablation A5
        // keeps the paper's one prime per iteration.
        let prime = if self.ab.layered_priming {
            Program::seq(Vec::new())
        } else {
            self.frag_prime_one(&row_intervals, &refresh_keys)?
        };
        let augment = self.frag_augment(&row_intervals)?;
        let mut step6 = if tiled { Vec::new() } else { vec![col_covers] };
        step6.push(self.frag_step6()?);

        body.push(Program::if_else(
            t.st1,
            augment,
            Program::if_else(t.st0, prime, Program::seq(step6)),
        ));
        Ok(Program::seq(vec![
            seed_mb,
            Program::while_true(self.t.searching, Program::seq(body)),
        ]))
    }

    /// Step 4's row status (§IV-F): every row publishes its arg-max key
    /// ([`row_key`]), which packs its class, the row and a column: its
    /// lowest uncovered zero column, or the prime of a covered row.
    /// Dense and sparse rows scan their compressed zeros, ascending per
    /// segment (ablation A2: the raw slack row); tiled rows take the
    /// minimum uncovered column of their zero list, which Step 2 sorted
    /// descending and Step 6 appends to. A zero's column cover is
    /// derived from the previous pass's keys in `ma` and the column stars
    /// in `mb` ([`uncovered_zero`]), two lookups per zero examined. A row
    /// holding a prime is covered and scans nothing. With layered
    /// priming, a row of status 0 also primes its zero, which covers it
    /// ([`publish_status`]), so a prime layer needs no compute set of its
    /// own.
    fn frag_row_status(&mut self) -> Result<ComputeSetId, GraphError> {
        let l = self.l.clone();
        let th = l.threads;
        let t = self.t.clone();
        let tiled = matches!(self.storage, Storage::Tiled { .. });
        let compressed = self.ab.compression;
        let primes = self.ab.layered_priming;
        let cs_status = self.g.add_compute_set("step4.status");
        for row in 0..l.n {
            let tile = l.tile_of_row(row);
            let row_i = row as i32;
            let v = if tiled {
                self.g.add_vertex(cs_status, tile, "status", move |ctx| {
                    let (ma, mb, list) = (ctx.i32(2), ctx.i32(3), ctx.i32(5));
                    let len = if ctx.i32(0)[0] >= 0 {
                        0
                    } else {
                        list_len(ctx.i32(6)[0], list.len())
                    };
                    let zcol = list[..len]
                        .iter()
                        .copied()
                        .filter(|&c| uncovered_zero(c, &ma, &mb, primes))
                        .min()
                        .unwrap_or(-1);
                    cost::i32_scan(len)
                        + cost::scalar(2 * len)
                        + publish_status(ctx, zcol, row_i, primes)
                })?
            } else if compressed {
                let seg_bounds: Vec<(usize, usize)> = (0..th)
                    .map(|s| {
                        let c = l.seg_cols(s);
                        (c.start, c.end)
                    })
                    .collect();
                self.g.add_vertex(cs_status, tile, "status", move |ctx| {
                    let (mut scanned, mut looked) = (0, 0);
                    let mut zcol = -1;
                    if ctx.i32(0)[0] < 0 {
                        let (ma, mb, comp) = (ctx.i32(2), ctx.i32(3), ctx.i32(5));
                        'outer: for &(s0, s1) in &seg_bounds {
                            for &c in &comp[s0..s1] {
                                scanned += 1;
                                if c < 0 {
                                    break; // compacted: no more zeros in seg
                                }
                                looked += 1;
                                if uncovered_zero(c, &ma, &mb, primes) {
                                    zcol = c;
                                    break 'outer;
                                }
                            }
                        }
                    }
                    cost::i32_scan(scanned)
                        + cost::scalar(2 * looked)
                        + publish_status(ctx, zcol, row_i, primes)
                })?
            } else {
                // Ablation A2: no compression — scan the raw slack row.
                self.g
                    .add_vertex(cs_status, tile, "status_raw", move |ctx| {
                        let slack = ctx.f32(5);
                        let mut looked = 0;
                        let mut zcol = -1;
                        if ctx.i32(0)[0] < 0 {
                            let (ma, mb) = (ctx.i32(2), ctx.i32(3));
                            for (c, &x) in slack.iter().enumerate() {
                                if x == 0.0 {
                                    looked += 1;
                                    if uncovered_zero(c as i32, &ma, &mb, primes) {
                                        zcol = c as i32;
                                        break;
                                    }
                                }
                            }
                        }
                        cost::f32_scan(slack.len())
                            + cost::scalar(2 * looked)
                            + publish_status(ctx, zcol, row_i, primes)
                    })?
            };
            let prime_access = if primes {
                Access::ReadWrite
            } else {
                Access::Read
            };
            self.g.connect(v, t.row_prime.element(row), prime_access)?;
            self.g.connect(v, t.row_star.element(row), Access::Read)?;
            self.g.connect(v, t.ma.whole(), Access::Read)?;
            self.g.connect(v, t.mb.whole(), Access::Read)?;
            self.g.connect(v, t.enc.element(row), Access::Write)?;
            if tiled || compressed {
                self.g
                    .connect(v, t.compress.slice(l.row_range(row)), Access::Read)?;
            } else {
                self.g
                    .connect(v, t.slack.slice(l.row_range(row)), Access::Read)?;
            }
            if tiled {
                self.g
                    .connect(v, t.zero_count.element(row * th), Access::Read)?;
            }
        }
        Ok(cs_status)
    }

    /// Re-derives every column cover from the search-loop invariant ("a
    /// column is covered iff it holds a star whose row is uncovered",
    /// [`col_covered`]), reading the row primes from the keys in `ma`,
    /// and refreshes the `ccm` mirror from the result. Step 4 derives
    /// covers on its own, so only Step 6's dual update and the tiled
    /// block scan need this: once per dual update or stream.
    fn frag_col_covers(
        &mut self,
        col_intervals: &[(std::ops::Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        let (t_ma, t_cstar, t_ccov) = (self.t.ma, self.t.col_star, self.t.col_cover);
        let layered = self.ab.layered_priming;
        let cs_recover = self.g.add_compute_set("step4.recover");
        for (tile, t, cols) in self.col_thread_chunks() {
            let v = self
                .g
                .add_vertex_on_thread(cs_recover, tile, t, "recover", move |ctx| {
                    let stars = ctx.i32(0);
                    let keys = ctx.i32(1);
                    let mut cov = ctx.i32_mut(2);
                    for (c, &s) in cov.iter_mut().zip(stars.iter()) {
                        *c = i32::from(col_covered(s, &keys, layered));
                    }
                    cost::i32_scan(stars.len()) + cost::i32_update(stars.len())
                })?;
            self.g
                .connect(v, t_cstar.slice(cols.clone()), Access::Read)?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_ccov.slice(cols), Access::Write)?;
        }
        let refresh = self.refresh_mirror("loop.ccg", t_ccov, self.t.ccm, col_intervals)?;
        Ok(Program::seq(vec![Program::execute(cs_recover), refresh]))
    }

    /// The paper's priming action (§IV-F, ablation A5): mirror the arg-max
    /// row and its zero column and prime that zero, which covers the row,
    /// writing at the runtime-computed row with the
    /// partition-and-distribute pattern (§IV-G). A5's status does not
    /// prime, so a prime-class key is no prime there ([`key_prime`]): the
    /// primed row's key is rewritten to the covered class and the keys
    /// are broadcast again. Uncovering the star's column needs no write:
    /// Step 4 derives it from the mirrors, and Step 6 re-derives
    /// `col_cover`.
    fn frag_prime_one(
        &mut self,
        row_intervals: &[(std::ops::Range<usize>, usize)],
        refresh_keys: &Program,
    ) -> Result<Program, GraphError> {
        let (t_sel, t_sel_m) = (self.t.sel, self.t.sel_m);
        let (t_prime, t_enc) = (self.t.row_prime, self.t.enc);
        let cs_prime = self.g.add_compute_set("step4.prime");
        for (range, tile) in row_intervals {
            let (s0, s1) = (range.start, range.end);
            let v = self.g.add_vertex(cs_prime, *tile, "prime", move |ctx| {
                let sel = ctx.i32(0);
                let r = sel[0] as usize;
                if r >= s0 && r < s1 {
                    ctx.i32_mut(1)[r - s0] = sel[1];
                    ctx.i32_mut(2)[r - s0] = row_key(sel[1], -1, -1, sel[0]);
                }
                cost::scalar(6)
            })?;
            self.g.connect(v, t_sel_m.whole(), Access::Read)?;
            self.g
                .connect(v, t_prime.slice(range.clone()), Access::ReadWrite)?;
            self.g
                .connect(v, t_enc.slice(range.clone()), Access::ReadWrite)?;
        }

        Ok(Program::seq(vec![
            Program::broadcast(t_sel.whole(), t_sel_m.whole()),
            Program::execute(cs_prime),
            refresh_keys.clone(),
        ]))
    }

    /// Step 5 (§IV-G, Fig. 3): walk the alternating path on the
    /// collector from the prime at the row and column the arg-max
    /// decoded into `sel`, recording hops on the green stack; then flip
    /// the stars in parallel, clear the primes (and so the row covers)
    /// and end the search. The walk reads the star and prime of each hop
    /// from the `mb` and `ma` mirrors the collector already holds
    /// ([`walk_green_stack`]), so it is one superstep however long the
    /// path, where the paper reads both through partition-and-distribute
    /// dynamic slices per hop. A path the mirrors cannot hold (a star row
    /// without a prime, or a row met twice) latches `infeasible`, and
    /// Step 3 then ends the solve.
    fn frag_augment(
        &mut self,
        row_intervals: &[(std::ops::Range<usize>, usize)],
    ) -> Result<Program, GraphError> {
        let l = self.l.clone();
        let t = self.t.clone();
        let (t_grows, t_gcols, t_glen) = (t.green_rows, t.green_cols, t.green_len);

        // The keys in `ma` hold every prime the walk can reach: a layered
        // pass's own speculative primes sit in rows that were uncovered
        // when it started, which no walk visits (`frag_search_loop`).
        let layered = self.ab.layered_priming;
        let cs_walk = self.g.add_compute_set("step5.walk");
        self.collector_vertex(
            cs_walk,
            "walk",
            vec![
                (t.sel.whole(), Access::Read),
                (t.ma.whole(), Access::Read),
                (t.mb.whole(), Access::Read),
                (t_grows.whole(), Access::Write),
                (t_gcols.whole(), Access::Write),
                (t_glen.whole(), Access::Write),
                (t.ctr_aug.whole(), Access::ReadWrite),
                (t.infeasible.whole(), Access::ReadWrite),
            ],
            move |ctx| {
                let sel = ctx.i32(0);
                let (len, consistent) = walk_green_stack(
                    (sel[0], sel[1]),
                    &ctx.i32(1),
                    &ctx.i32(2),
                    layered,
                    &mut ctx.i32_mut(3),
                    &mut ctx.i32_mut(4),
                );
                ctx.i32_mut(5)[0] = len as i32;
                ctx.i32_mut(6)[0] += 1;
                if !consistent {
                    ctx.i32_mut(7)[0] = LATCH_WALK;
                }
                // The first push and the counters, then per hop two
                // mirror loads, the key's decode, the range checks and
                // two pushes.
                cost::scalar(8 + 7 * len.saturating_sub(1) + usize::from(!consistent))
            },
        )?;

        // Flip in parallel from the mirrored green stack.
        let (t_ma, t_mb, t_lenm) = (t.ma, t.mb, t.len_m);
        let (t_rstar, t_rprime, t_cstar) = (t.row_star, t.row_prime, t.col_star);
        let cs_fr = self.g.add_compute_set("step5.flip_rows");
        for (range, tile) in row_intervals {
            let (s0, s1) = (range.start as i32, range.end as i32);
            let v = self.g.add_vertex(cs_fr, *tile, "flip_rows", move |ctx| {
                // Hops past the stack (a fault-corrupted length) are
                // absent, and cost nothing.
                let len = (ctx.i32(2)[0] as usize).min(ctx.i32(0).len());
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
                cost::i32_scan(len) + cost::i32_update(prime.len())
            })?;
            self.g.connect(v, t_ma.whole(), Access::Read)?;
            self.g.connect(v, t_mb.whole(), Access::Read)?;
            self.g.connect(v, t_lenm.whole(), Access::Read)?;
            self.g
                .connect(v, t_rstar.slice(range.clone()), Access::ReadWrite)?;
            self.g
                .connect(v, t_rprime.slice(range.clone()), Access::Write)?;
        }
        let cs_fc = self.g.add_compute_set("step5.flip_cols");
        for seg in 0..l.n_col_segs() {
            let tile = l.col_seg_tile(seg);
            let cols_r = l.col_seg_cols(seg);
            let (c0, c1) = (cols_r.start as i32, cols_r.end as i32);
            let v = self.g.add_vertex(cs_fc, tile, "flip_cols", move |ctx| {
                let rows = ctx.i32(0);
                let cols = ctx.i32(1);
                let len = (ctx.i32(2)[0] as usize).min(cols.len());
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
            Program::execute(cs_walk),
            grows_bc,
            gcols_bc,
            Program::broadcast(t_glen.whole(), t_lenm.whole()),
            Program::execute(cs_fr),
            Program::execute(cs_fc),
            Program::execute(cs_done),
        ]))
    }

    /// Step 6 (§IV-H): find the minimum uncovered slack δ, broadcast it,
    /// and shift and re-compress the stored slack and shift the dual
    /// potentials ([`Builder::step6_update`]). Dense and sparse runs take
    /// δ from per-thread segment minima, which each tile's supervisor
    /// folds; tiled runs have no stored slack, so δ is the minimum over
    /// the streamed scan's
    /// per-row accumulators, and the zero lists follow the shift without
    /// another stream ([`Builder::step6_lists`]). The δ reduction's last
    /// vertex guards δ ([`Builder::step6_guard`]); sparse and tiled runs
    /// skip the update on a non-finite δ.
    fn frag_step6(&mut self) -> Result<Program, GraphError> {
        let mut prog = Vec::new();
        let minima = match self.storage {
            Storage::Tiled { .. } => self.t.rowacc.expect("tiled storage has rowacc"),
            _ => {
                let cs_min = self.step6_segmin()?;
                prog.push(Program::execute(cs_min));
                poplib::supervised_partials(
                    &mut self.g,
                    cs_min,
                    "step6.delta",
                    self.t.seg_min,
                    ReduceOp::Min,
                )?
            }
        };
        let guard = self.step6_guard();
        let (delta, red_prog) =
            self.reduce_scalar("step6.delta", minima, ReduceOp::Min, Some(guard))?;
        prog.push(red_prog);
        let cs_upd = self.step6_update()?;

        let mut update = vec![
            Program::broadcast(delta.whole(), self.t.delta_m.whole()),
            Program::execute(cs_upd),
        ];
        if let Storage::Tiled { zcap, .. } = self.storage {
            update.push(Program::execute(self.step6_lists(zcap)?));
        }
        match self.t.delta_ok {
            None => prog.extend(update),
            Some(t_ok) => prog.push(Program::if_true(t_ok, Program::seq(update))),
        }
        Ok(Program::seq(prog))
    }

    /// Step 6's uncovered minimum per (row, thread segment) over stored
    /// entries — sparse masks each entry's column through `cand`, out of
    /// range meaning no entry — while
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
                                let covered = ctx.i32(0)[0] >= 0;
                                let out = if covered {
                                    f32::INFINITY
                                } else {
                                    let slack = ctx.f32(1);
                                    let cand = ctx.i32(2);
                                    let ccm = ctx.i32(3);
                                    let mut m = f32::INFINITY;
                                    for (p, &x) in slack.iter().enumerate() {
                                        if ccm.get(cand[p] as usize) == Some(&0) {
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
                            let covered = ctx.i32(0)[0] >= 0;
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
                self.g.connect(v, t.row_prime.element(row), Access::Read)?;
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

    /// Step 6's δ-guard, fused into the δ reduction's last vertex. An
    /// infinite δ means no uncovered row holds an entry in an uncovered
    /// column: on a sparse prune, a violation of Hall's condition; on
    /// square dense costs, corrupted state. The guard latches
    /// `infeasible` and ends the search and outer loops, letting the host
    /// re-admit columns or retry instead of the device dual-updating by
    /// ∞ until the watchdog. Sparse and tiled runs also record whether δ
    /// is finite in `delta_ok`, which gates their update; a dense run
    /// still shifts by the non-finite δ once, on its way out. Tiled runs
    /// have no segment-minimum pass, so the guard counts their dual
    /// updates too.
    fn step6_guard(&self) -> Finish {
        let t = &self.t;
        let count = matches!(self.storage, Storage::Tiled { .. });
        let gates = t.delta_ok.is_some();
        let mut fields = vec![
            (t.infeasible.whole(), Access::ReadWrite),
            (t.searching.whole(), Access::ReadWrite),
            (t.not_done.whole(), Access::ReadWrite),
        ];
        fields.extend(t.delta_ok.map(|ok| (ok.whole(), Access::Write)));
        if count {
            fields.push((t.ctr_dual.whole(), Access::ReadWrite));
        }
        Finish {
            fields,
            codelet: Box::new(move |ctx| {
                let finite = ctx.f32(1)[0].is_finite();
                if !finite {
                    ctx.i32_mut(2)[0] = LATCH_DELTA;
                    ctx.i32_mut(3)[0] = 0;
                    ctx.i32_mut(4)[0] = 0;
                }
                if gates {
                    ctx.i32_mut(5)[0] = i32::from(finite);
                }
                if count {
                    ctx.i32_mut(6)[0] += 1;
                }
                // The test, then one store per flag written.
                let stores = 3 * usize::from(!finite) + usize::from(gates) + usize::from(count);
                cost::scalar(1 + stores)
            }),
        }
    }

    /// Step 6's shift by δ: stored slack (dense, sparse) grows on
    /// covered-row × covered-column entries and shrinks on uncovered ×
    /// uncovered ones; `u += δ` on uncovered rows and `v −= δ` on covered
    /// columns keep the LP-duality certificate in step. Each slack vertex
    /// re-compresses its segment in the same pass (not under ablation
    /// A2); a sparse entry with an out-of-range column is left as is.
    fn step6_update(&mut self) -> Result<ComputeSetId, GraphError> {
        let l = self.l.clone();
        let (n, th) = (l.n, l.threads);
        let t = self.t.clone();
        // Tiled storage keeps no slack on the device: duals only.
        let slack_segs = match self.storage {
            Storage::Tiled { .. } => 0,
            _ => th,
        };
        let compact = self.ab.compression;
        let cs_upd = self.g.add_compute_set("step6.update");
        for row in 0..n {
            let tile = l.tile_of_row(row);
            for s in 0..slack_segs {
                let c0 = l.seg_cols(s).start;
                // Sparse storage connects `cand` after the compaction fields.
                let cand_field = t.cand.map(|_| if compact { 6 } else { 4 });
                let v = self
                    .g
                    .add_vertex_on_thread(cs_upd, tile, s, "update", move |ctx| {
                        let delta = ctx.f32(0)[0];
                        let covered = ctx.i32(1)[0] >= 0;
                        let ccm = ctx.i32(2);
                        let mut slack = ctx.f32_mut(3);
                        let cand = cand_field.map(|f| ctx.i32(f));
                        match &cand {
                            Some(cand) => {
                                for (p, x) in slack.iter_mut().enumerate() {
                                    match ccm.get(cand[p] as usize).map(|&c| c != 0) {
                                        Some(true) if covered => *x += delta,
                                        Some(false) if !covered => *x -= delta,
                                        _ => {}
                                    }
                                }
                            }
                            None if covered => {
                                kernels::add_where_nonzero(&mut slack, &ccm[c0..], delta)
                            }
                            None => kernels::sub_where_zero(&mut slack, &ccm[c0..], delta),
                        }
                        if !compact {
                            return cost::f32_update(slack.len());
                        }
                        let (mut comp, mut zc) = (ctx.i32_mut(4), ctx.i32_mut(5));
                        match &cand {
                            Some(cand) => compact_zeros(&slack, &mut comp, &mut zc[0], |p| cand[p]),
                            None => {
                                compact_zeros(&slack, &mut comp, &mut zc[0], |p| (c0 + p) as i32)
                            }
                        }
                        cost::f32_update(slack.len()) + cost::i32_update(slack.len())
                    })?;
                let seg = l.row_seg_range(row, s);
                self.g.connect(v, t.delta_m.whole(), Access::Read)?;
                self.g.connect(v, t.row_prime.element(row), Access::Read)?;
                self.g.connect(v, t.ccm.whole(), Access::Read)?;
                self.g
                    .connect(v, t.slack.slice(seg.clone()), Access::ReadWrite)?;
                if compact {
                    self.g
                        .connect(v, t.compress.slice(seg.clone()), Access::Write)?;
                    self.g.connect(
                        v,
                        t.zero_count.slice(row * th + s..row * th + s + 1),
                        Access::Write,
                    )?;
                }
                if let Some(cand) = t.cand {
                    self.g.connect(v, cand.slice(seg), Access::Read)?;
                }
            }
            // Dual potential u: one scalar vertex per row.
            let v = self.g.add_vertex(cs_upd, tile, "u_update", |ctx| {
                if ctx.i32(1)[0] < 0 {
                    ctx.f32_mut(2)[0] += ctx.f32(0)[0];
                }
                cost::scalar(3)
            })?;
            self.g.connect(v, t.delta_m.whole(), Access::Read)?;
            self.g.connect(v, t.row_prime.element(row), Access::Read)?;
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
                    let primes = ctx.i32(1);
                    let ccm = ctx.i32(2);
                    let acc = ctx.f32(3);
                    let mut comp = ctx.i32_mut(4);
                    let mut zc = ctx.i32_mut(5);
                    let mut touched = 0;
                    for r in 0..rows_here {
                        let list = &mut comp[r * zcap..(r + 1) * zcap];
                        let len = list_len(zc[r * th], zcap);
                        zc[r * th] = if primes[r] >= 0 {
                            touched += len;
                            let mut kept = 0;
                            for p in 0..len {
                                let col = usize::try_from(list[p]).ok();
                                if col.and_then(|c| ccm.get(c)) == Some(&0) {
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
                .connect(v, t.row_prime.slice(chunk.clone()), Access::Read)?;
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

    /// Per-(tile, thread) partition of the column segments: a tile that
    /// owns fewer segments than it has threads splits each one across
    /// its share of the threads; one that owns more keeps one vertex per
    /// segment, spread round-robin over the threads.
    fn col_thread_chunks(&self) -> Vec<(usize, usize, std::ops::Range<usize>)> {
        let th = self.l.threads;
        let mut segs_of_tile: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for seg in 0..self.l.n_col_segs() {
            segs_of_tile
                .entry(self.l.col_seg_tile(seg))
                .or_default()
                .push(seg);
        }
        let mut out = Vec::new();
        for (tile, segs) in segs_of_tile {
            let parts = (th / segs.len()).max(1);
            let mut thread = 0;
            for seg in segs {
                let cols = self.l.col_seg_cols(seg);
                let len = cols.len();
                for p in 0..parts {
                    let chunk = cols.start + p * len / parts..cols.start + (p + 1) * len / parts;
                    if !chunk.is_empty() {
                        out.push((tile, thread % th, chunk));
                        thread += 1;
                    }
                }
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
            self.l.groups(),
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
                            let mut cnt = list_len(zc[r * th], zcap);
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
        let (t_vm, t_prime) = (self.t.vm.expect("tiled storage has v_m"), self.t.row_prime);
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
                        let primes = ctx.i32(0);
                        let work = ctx.f32(1);
                        let u = ctx.f32(2);
                        let vm = ctx.f32(3);
                        let ccm = ctx.i32(4);
                        let mut comp = ctx.i32_mut(5);
                        let mut zc = ctx.i32_mut(6);
                        let mut acc = ctx.f32_mut(7);
                        let mut scanned = 0usize;
                        for r in 0..rows_here {
                            if primes[r] >= 0 {
                                if first {
                                    acc[r] = f32::INFINITY;
                                }
                                continue;
                            }
                            let list = &mut comp[r * zcap..(r + 1) * zcap];
                            let mut len = list_len(zc[r * th], zcap);
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
                    .connect(v, t_prime.slice(chunk.clone()), Access::Read)?;
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
        prog.extend(compress);
        let step3 = self.frag_step3()?;
        // `ma` needs no seed before a search: the first starts with Step
        // 2's proposals there (column ids or −1), every later one with
        // Step 5's green rows (row ids), and all of them decode as
        // unprimed ([`key_prime`]), which is what `row_prime` holds.
        let search = self.frag_search_loop()?;

        let (t_searching, t_iterations) = (self.t.searching, self.t.iterations);
        let cs_begin = self.g.add_compute_set("begin_search");
        self.collector_vertex(
            cs_begin,
            "begin",
            vec![
                (t_searching.whole(), Access::Write),
                (t_iterations.whole(), Access::Write),
            ],
            |ctx| {
                ctx.i32_mut(0)[0] = 1;
                ctx.i32_mut(1)[0] = 0;
                cost::scalar(2)
            },
        )?;

        let outer_body = Program::seq(vec![Program::execute(cs_begin), search, step3.clone()]);
        prog.push(step3);
        prog.push(Program::while_true(self.t.not_done, outer_body));
        Ok(Program::seq(prog))
    }
}

/// The classes of a Step 4 arg-max key ([`row_key`]), in rank order: an
/// uncovered row with an uncovered zero and no star (augment), one with
/// an uncovered zero and a star (prime), a row that holds a prime from
/// an earlier pass (covered), and an uncovered row with no uncovered
/// zero (none).
const KEY_NONE: i32 = 0;
const KEY_COVERED: i32 = 1;
const KEY_PRIME: i32 = 2;
const KEY_AUGMENT: i32 = 3;

/// Values of the `infeasible` latch: Step 6's δ was not finite, the
/// search ran past [`search_bound`], or Step 5 walked a path the mirrors
/// cannot hold. Each ends the solve with an error.
pub(crate) const LATCH_DELTA: i32 = 1;
pub(crate) const LATCH_BOUND: i32 = 2;
const LATCH_WALK: i32 = 3;

/// The most Step 4 classifications one search may take before the
/// decode calls it corrupted: `2n + 2`. A search runs at most `2n`
/// (DESIGN.md §15): every prime layer primes a new starred row, so
/// there are at most `n − 1` of them, every dual update is followed by
/// a prime layer or the augmentation, and the augmentation ends the
/// search.
fn search_bound(n: usize) -> i32 {
    2 * n as i32 + 2
}

/// A row's Step 4 arg-max key (§IV-F): `class << 28 | (2^14 − 1 − row)
/// << 14 | col`, one [`ENC_SHIFT`]-bit field each. A row holding
/// `prime` ≥ 0 is covered and carries its prime column; otherwise its
/// lowest uncovered zero column `zcol` (−1: none) and its `star` (−1:
/// none) classify it, and it carries `zcol` (0 for class none). The key
/// ranks the class first, then the lowest row; rows are distinct, so the
/// column never breaks a tie, and the arg-max carries it to the
/// collector ([`decode_key`]).
fn row_key(prime: i32, zcol: i32, star: i32, row: i32) -> i32 {
    let (class, col) = if prime >= 0 {
        (KEY_COVERED, prime)
    } else if zcol < 0 {
        (KEY_NONE, 0)
    } else if star == -1 {
        (KEY_AUGMENT, zcol)
    } else {
        (KEY_PRIME, zcol)
    };
    (class << (2 * ENC_SHIFT)) | ((ENC_MASK - row) << ENC_SHIFT) | col.min(ENC_MASK)
}

/// Unpacks an arg-max key of [`row_key`] into (class, row, column).
fn decode_key(key: i32) -> (i32, i32, i32) {
    (
        key >> (2 * ENC_SHIFT),
        ENC_MASK - ((key >> ENC_SHIFT) & ENC_MASK),
        key & ENC_MASK,
    )
}

/// The prime column that the key of a row records, or −1 when the row
/// holds no prime: covered rows hold one, and under layered priming so
/// does a row of class prime, which primed itself in the vertex that
/// wrote the key ([`publish_status`]). A5's status does not prime
/// (`layered` false), so there a prime-class key is no prime. Any key
/// below the covered class — −1 and every row or column id in
/// [0, 2^14) among them — decodes as unprimed.
fn key_prime(key: i32, layered: bool) -> i32 {
    let (class, _, col) = decode_key(key);
    if class == KEY_COVERED || (layered && class == KEY_PRIME) {
        col
    } else {
        -1
    }
}

/// The tail of every `step4.status` vertex: keys the row from its prime
/// (field 0), its first uncovered zero column `zcol` and its star (field
/// 1), writes the key (field 4), and with `primes` set primes a row of
/// the prime class (`row_prime` = `zcol` in field 0, which also covers
/// the row). Returns the instructions spent: three to classify and pack
/// the key, one store of the key, and one store of the prime.
fn publish_status(ctx: &VertexCtx, zcol: i32, row: i32, primes: bool) -> u64 {
    let key = row_key(ctx.i32(0)[0], zcol, ctx.i32(1)[0], row);
    ctx.i32_mut(4)[0] = key;
    if primes && decode_key(key).0 == KEY_PRIME {
        ctx.i32_mut(0)[0] = zcol;
        cost::scalar(5)
    } else {
        cost::scalar(4)
    }
}

/// Whether a column whose star sits in row `star` is covered, by the
/// search-loop invariant: a column is covered iff it holds a star whose
/// row is uncovered, that is, holds no prime. `keys` holds each row's
/// arg-max key ([`key_prime`]). A star row out of range (−1, or a
/// fault-corrupted index) counts as no star.
fn col_covered(star: i32, keys: &[i32], layered: bool) -> bool {
    usize::try_from(star)
        .ok()
        .and_then(|r| keys.get(r))
        .is_some_and(|&key| key_prime(key, layered) < 0)
}

/// Whether a zero in column `col` is uncovered, with the cover derived
/// from the keys mirror `ma` and the column-star mirror `mb`
/// ([`col_covered`]) — the value `step4.recover` would write to
/// `col_cover`. A column out of range (a fault-corrupted entry) holds no
/// zero.
fn uncovered_zero(col: i32, ma: &[i32], mb: &[i32], layered: bool) -> bool {
    usize::try_from(col)
        .ok()
        .and_then(|c| mb.get(c))
        .is_some_and(|&star| !col_covered(star, ma, layered))
}

/// Step 5's walk (§IV-G, Fig. 3) over the collector's mirrors: pushes
/// the prime at `start` = (row, column) onto the green stack (`rows`,
/// `cols`), then repeatedly the star in the last prime's column, `k =
/// mb[col]`, with the prime its key in `keys` records for row `k`
/// ([`key_prime`]), until a column holds no star (`k < 0`). Returns the
/// stack's length and whether the mirrors held the path: a star row
/// without a prime in range, a column out of range, or a path longer
/// than the stack (which, on an `n`-entry stack, meets some row twice)
/// ends the walk as inconsistent. Only fault-corrupted mirrors get
/// there, and no input loops or indexes out of bounds.
fn walk_green_stack(
    start: (i32, i32),
    keys: &[i32],
    mb: &[i32],
    layered: bool,
    rows: &mut [i32],
    cols: &mut [i32],
) -> (usize, bool) {
    let entry = |xs: &[i32], i: i32| usize::try_from(i).ok().and_then(|i| xs.get(i)).copied();
    let capacity = rows.len().min(cols.len());
    let (mut k, mut j) = start;
    let mut len = 0;
    loop {
        if len == capacity {
            return (len, false);
        }
        rows[len] = k;
        cols[len] = j;
        len += 1;
        let Some(star) = entry(mb, j) else {
            return (len, false);
        };
        if star < 0 {
            return (len, true);
        }
        let prime = entry(keys, star).map_or(-1, |key| key_prime(key, layered));
        if entry(mb, prime).is_none() {
            return (len, false);
        }
        (k, j) = (star, prime);
    }
}

/// Compacts the zero positions of one slack segment to the front of
/// `comp` (−1 padding, §IV-B) and counts them into `count`; `col` maps a
/// position in the segment to its column id.
///
/// Branchless: the candidate is stored unconditionally and the cursor
/// advances only on a zero. A non-zero's store lands at the same cursor
/// and is overwritten by the next candidate (or the −1 fill), so the
/// result is identical to the branchy loop — without the data-dependent
/// branch that dominates this, the hottest codelet of the whole solve.
fn compact_zeros(slack: &[f32], comp: &mut [i32], count: &mut i32, col: impl Fn(usize) -> i32) {
    let comp = &mut comp[..slack.len()];
    let mut k = 0;
    for (off, &x) in slack.iter().enumerate() {
        comp[k] = col(off);
        k += (x == 0.0) as usize;
    }
    for c in comp[k..].iter_mut() {
        *c = -1;
    }
    *count = k as i32;
}

/// A tiled zero list's length, read from its `zero_count` slot and
/// clamped to the list's `zcap` entries: a fault-corrupted count reads
/// as an empty (negative) or full (too large) list.
fn list_len(count: i32, zcap: usize) -> usize {
    usize::try_from(count).map_or(0, |len| len.min(zcap))
}

/// How many columns the streamed scan recorded behind a tiled zero list
/// of length `len` (−1 ends the record when it does not fill the list).
fn recorded(list: &[i32], len: usize) -> usize {
    list[len..].iter().take_while(|&&c| c >= 0).count()
}

#[cfg(test)]
mod tests {
    use super::{
        col_covered, decode_key, key_prime, row_key, uncovered_zero, walk_green_stack, ENC_MAX_N,
        KEY_AUGMENT, KEY_COVERED, KEY_NONE, KEY_PRIME,
    };
    use proptest::prelude::*;

    /// Runs the walk from (`row`, `col`) on a stack of `capacity` hops and
    /// returns the pushed (row, column) pairs and whether the mirrors
    /// held the path.
    fn walk(
        start: (i32, i32),
        primes: &[i32],
        mb: &[i32],
        capacity: usize,
    ) -> (Vec<(i32, i32)>, bool) {
        let (mut rows, mut cols) = (vec![i32::MIN; capacity], vec![i32::MIN; capacity]);
        let (len, consistent) =
            walk_green_stack(start, &keys_of(primes), mb, true, &mut rows, &mut cols);
        (rows.into_iter().zip(cols).take(len).collect(), consistent)
    }

    /// The keys of rows holding `primes` (−1: none, with no zero to
    /// offer), as `step4.status` writes them.
    fn keys_of(primes: &[i32]) -> Vec<i32> {
        (0..primes.len() as i32)
            .map(|r| row_key(primes[r as usize], -1, 0, r))
            .collect()
    }

    #[test]
    fn arg_max_keys_round_trip_and_rank_status_then_the_lowest_row() {
        let last = ENC_MAX_N as i32 - 1;
        // (prime, zero column, star) keying a row into each class.
        let states = [
            (KEY_NONE, (-1, -1, 5)),
            (KEY_COVERED, (0, -1, 5)),
            (KEY_PRIME, (-1, 0, 5)),
            (KEY_AUGMENT, (-1, 0, -1)),
        ];
        let mut keys = Vec::new();
        for &(expect, (prime, zcol, star)) in &states {
            for row in [0, last] {
                for col in [0, last] {
                    let (prime, zcol) = match expect {
                        KEY_NONE => (prime, zcol),
                        KEY_COVERED => (col, zcol),
                        _ => (prime, col),
                    };
                    let key = row_key(prime, zcol, star, row);
                    assert!(key >= 0);
                    // Class none carries column 0, a covered row its prime.
                    let carried = if expect == KEY_NONE { 0 } else { col };
                    assert_eq!(decode_key(key), (expect, row, carried));
                    keys.push((key, expect, row));
                }
            }
        }
        // The maximum ranks augment > prime > covered > none, then the
        // lower row, whatever the columns.
        for &(a, class_a, row_a) in &keys {
            for &(b, class_b, row_b) in &keys {
                if class_a != class_b {
                    assert_eq!(a > b, class_a > class_b);
                } else if row_a != row_b {
                    assert_eq!(a > b, row_a < row_b);
                }
            }
        }
        assert_eq!(
            keys.iter().max().map(|k| (k.1, k.2)),
            Some((KEY_AUGMENT, 0))
        );
    }

    #[test]
    fn walk_follows_the_alternating_path_of_fig3() {
        // Fig. 3's shape on 4 × 4: the uncovered zero (3, 1) starts the
        // path; column 1's star sits in row 0, primed at column 2;
        // column 2's star in row 2, primed at column 0; column 0 holds no
        // star. Row 1's star, in column 3, is off the path.
        let primes = [2, -1, 0, -1];
        let mb = [-1, 0, 2, 1];
        let path = (vec![(3, 1), (0, 2), (2, 0)], true);
        assert_eq!(walk((3, 1), &primes, &mb, 4), path);
        // A start in a column without a star is a one-hop path.
        assert_eq!(walk((3, 0), &primes, &mb, 4), (vec![(3, 0)], true));
        // A layered pass's speculative primes are prime-class keys; the
        // walk reads them as primes under layered priming only.
        let mut keys = keys_of(&primes);
        keys[0] = row_key(-1, 2, 1, 0);
        let (mut rows, mut cols) = ([0; 4], [0; 4]);
        assert_eq!(
            walk_green_stack((3, 1), &keys, &mb, true, &mut rows, &mut cols),
            (3, true)
        );
        assert_eq!(
            walk_green_stack((3, 1), &keys, &mb, false, &mut rows, &mut cols),
            (1, false)
        );
    }

    #[test]
    fn corrupted_mirror_cycles_end_at_the_stack_capacity() {
        // Column 0's star is row 1, primed at column 1, whose star is row
        // 0, primed at column 0: the walk would cycle forever.
        let primes = [0, 1, -1];
        let mb = [1, 0, -1];
        for capacity in [1, 2, 3, 7] {
            let (hops, consistent) = walk((2, 0), &primes, &mb, capacity);
            assert!(!consistent);
            assert_eq!(hops.len(), capacity);
            assert_eq!(hops[0], (2, 0));
            assert!(hops[1..].iter().all(|&hop| hop == (1, 1) || hop == (0, 0)));
        }
        // A zero-capacity stack holds no path.
        assert_eq!(walk((2, 0), &primes, &mb, 0), (vec![], false));
        // A path back to its unprimed start row meets a star row without
        // a prime.
        assert_eq!(walk((1, 0), &[1, -1], &[1, 0], 4), (vec![(1, 0)], false));
    }

    #[test]
    fn out_of_range_stars_and_primes_end_the_walk() {
        let primes = [1, -1];
        for star in [2, 9, i32::MAX] {
            // Column 0's star row is past the mirror: no hop is pushed.
            let walked = walk((1, 0), &primes, &[star, -1], 4);
            assert_eq!(walked, (vec![(1, 0)], false), "star {star}");
        }
        for star in [-1, -2, i32::MIN] {
            // Any negative star ends the path.
            let walked = walk((1, 0), &primes, &[star, -1], 4);
            assert_eq!(walked, (vec![(1, 0)], true), "star {star}");
        }
        for prime in [-1, 2, ENC_MAX_N as i32 - 1] {
            // Column 0's star row 0 holds no prime, or one out of range.
            let walked = walk((1, 0), &[prime, -1], &[0, -1], 4);
            assert_eq!(walked, (vec![(1, 0)], false), "prime {prime}");
        }
        // A start column out of range pushes only the start.
        for col in [-1, 2, i32::MIN] {
            let walked = walk((1, col), &primes, &[0, -1], 4);
            assert_eq!(walked, (vec![(1, col)], false), "col {col}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the row primes, decoding the keys the status pass
        /// writes gives exactly the primes after the pass, in both
        /// priming modes, and the derived covers are those of the primes.
        /// Step 2's proposals and Step 5's green rows, which `ma` holds
        /// when a search starts, decode as no prime.
        #[test]
        fn keys_decode_to_exactly_the_row_primes(
            primes in proptest::collection::vec(-3i32..24, 1..24),
            zcols in proptest::collection::vec(-1i32..24, 24),
            stars in proptest::collection::vec(-2i32..26, 24),
            ids in proptest::collection::vec(-1i32..ENC_MAX_N as i32, 16),
            layered in 0u8..2,
        ) {
            let layered = layered == 1;
            let n = primes.len();
            let (mut after, mut keys) = (primes.clone(), Vec::new());
            for r in 0..n {
                // Negative primes other than −1 are corrupted: the row is
                // uncovered, as every reader tests `prime >= 0`.
                let (prime, zcol) = (primes[r].max(-1), zcols[r].min(n as i32 - 1));
                after[r] = prime;
                let key = row_key(prime, zcol, stars[r], r as i32);
                // `publish_status`: a layered status-0 row primes itself.
                if layered && decode_key(key).0 == KEY_PRIME {
                    after[r] = zcol;
                }
                keys.push(key);
            }
            let decoded: Vec<i32> = keys.iter().map(|&k| key_prime(k, layered)).collect();
            prop_assert_eq!(&decoded, &after);
            for col in (-2..n as i32 + 2).chain([i32::MIN, i32::MAX]) {
                let star = usize::try_from(col).ok().and_then(|c| stars.get(c).filter(|_| c < n));
                let mb = &stars[..n];
                let covered = star
                    .and_then(|&s| usize::try_from(s).ok())
                    .and_then(|s| after.get(s))
                    .is_some_and(|&p| p < 0);
                prop_assert_eq!(uncovered_zero(col, &keys, mb, layered), star.is_some() && !covered);
                if let Some(&s) = star {
                    prop_assert_eq!(col_covered(s, &keys, layered), covered);
                }
            }
            for &id in &ids {
                prop_assert_eq!(key_prime(id, layered), -1, "id {}", id);
            }
        }
    }
}
