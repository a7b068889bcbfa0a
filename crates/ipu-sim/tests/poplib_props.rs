//! Property tests: the poplib reduction builders must agree with
//! reference reductions for arbitrary data, shapes, and distributions,
//! and with their one-group structure in any tile grouping.

use ipu_sim::poplib::{reduce_columns_mirrored, reduce_to_scalar, ReduceOp, TileGroups};
use ipu_sim::{DType, Graph, IpuConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn ops() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Min),
        Just(ReduceOp::Max),
        Just(ReduceOp::Sum)
    ]
}

fn apply(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
        ReduceOp::Sum => a + b,
    }
}

fn identity(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Min => f64::INFINITY,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Sum => 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scalar_reduce_matches_reference(
        data in proptest::collection::vec(-1000i32..1000, 1..200),
        tiles in 2usize..12,
        op in ops(),
        chunk in 1usize..17,
    ) {
        let mut g = Graph::new(IpuConfig::tiny(tiles));
        let t = g.add_tensor("t", DType::I32, data.len());
        g.map_chunks_round_robin(t, chunk, 0, tiles).unwrap();
        let (out, prog) = reduce_to_scalar(&mut g, "r", t, op, TileGroups::ONE, tiles - 1, None).unwrap();
        let mut e = g.compile(prog).unwrap();
        e.write_i32(t, &data).unwrap();
        e.run().unwrap();
        let got = e.read_i32(out)[0] as f64;
        let expect = data
            .iter()
            .map(|&x| x as f64)
            .fold(identity(op), |a, b| apply(op, a, b));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn column_reduce_matches_reference(
        rows in 1usize..12,
        cols in 1usize..12,
        tiles in 2usize..8,
        op in ops(),
        seed in 0u64..10_000,
    ) {
        let mut g = Graph::new(IpuConfig::tiny(tiles));
        let m = g.add_tensor("m", DType::F32, rows * cols);
        // Row-aligned blocks over the worker tiles.
        let rows_per = rows.div_ceil(tiles - 1).max(1);
        let mut r = 0;
        let mut tile = 0;
        while r < rows {
            let hi = (r + rows_per).min(rows);
            g.map_slice(m.slice(r * cols..hi * cols), tile).unwrap();
            r = hi;
            tile += 1;
        }
        let (mirror, prog) =
            reduce_columns_mirrored(&mut g, "c", m, rows, cols, op, TileGroups::ONE).unwrap();
        let mut e = g.compile(prog).unwrap();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2001) as f32 - 1000.0) / 8.0
            })
            .collect();
        e.write_f32(m, &data).unwrap();
        e.run().unwrap();
        let got = e.read_f32(mirror);
        let owners = tile;
        for c in 0..cols {
            let expect = (0..rows)
                .map(|r| data[r * cols + c] as f64)
                .fold(identity(op), |a, b| apply(op, a, b)) as f32;
            for owner in 0..owners {
                let v = got[owner * cols + c];
                // Sum order differs between reference and tree; allow
                // f32 round-off. Min/max are exact.
                prop_assert!(
                    (v - expect).abs() <= 1e-3 * expect.abs().max(1.0),
                    "col {c} owner {owner}: {v} vs {expect}"
                );
            }
        }
    }
}

/// `count` values drawn by xorshift from `seed`, in -1000..=1000.
fn draws(seed: u64, count: usize) -> Vec<i32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2001) as i32 - 1000
        })
        .collect()
}

/// A device of `chips` chips of `per_chip` tiles whose IPU-Links are so
/// slow that folding per chip pays whenever a partial lies off the
/// output tile's chip, with a tensor of `len` elements (as `dtype`)
/// laid out as `blocks`: (start, end, tile) in element order.
fn grouped_graph(
    chips: usize,
    per_chip: usize,
    dtype: DType,
    len: usize,
    blocks: &[(usize, usize, usize)],
) -> (Graph, ipu_sim::Tensor) {
    let mut g = Graph::new(IpuConfig {
        inter_ipu_bytes_per_cycle: 1e-3,
        ..IpuConfig::tiny_multi(chips, per_chip)
    });
    let t = g.add_tensor("t", dtype, len);
    for &(s, e, tile) in blocks {
        g.map_slice(t.slice(s..e), tile).unwrap();
    }
    (g, t)
}

/// Whether an f32 sum regrouped by tile groups stays within round-off of
/// the one-group sum.
fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * a.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Scalar and column reductions grouped by chips give the one-group
    /// result: bit for bit for `Min`, `Max` and the i32 `Sum`, within
    /// round-off for the f32 `Sum`. The draws cover one to four groups,
    /// groups with one owner, owned staging tiles (each chip's last
    /// tile) and chips without owners.
    #[test]
    fn grouped_reductions_match_one_group(
        chips in 1usize..=4,
        per_chip in 2usize..=5,
        mask in 1u64..(1 << 20),
        sizes in proptest::collection::vec(1usize..=3, 20),
        out in 0usize..20,
        cols in 1usize..=5,
        seed in 0u64..u64::MAX,
    ) {
        let tiles = chips * per_chip;
        let mut owners: Vec<usize> = (0..tiles).filter(|&t| mask >> t & 1 == 1).collect();
        if owners.is_empty() {
            owners.push(mask as usize % tiles);
        }
        let out_tile = out % tiles;
        let by_chip = TileGroups::blocks(NonZeroUsize::new(per_chip).unwrap());
        // Owner j holds `sizes[j]` elements, or rows of the matrix.
        let mut blocks = Vec::new();
        let mut len = 0;
        for (j, &tile) in owners.iter().enumerate() {
            blocks.push((len, len + sizes[j], tile));
            len += sizes[j];
        }
        let values = draws(seed, len * cols);
        let off_chip = owners.iter().any(|&t| t / per_chip != out_tile / per_chip);

        for dtype in [DType::I32, DType::F32] {
            for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Sum] {
                let run = |groups: TileGroups| {
                    let (mut g, t) = grouped_graph(chips, per_chip, dtype, len, &blocks);
                    let (out, prog) =
                        reduce_to_scalar(&mut g, "r", t, op, groups, out_tile, None).unwrap();
                    let mut e = g.compile(prog).unwrap();
                    let result = match dtype {
                        DType::I32 => {
                            e.write_i32(t, &values[..len]).unwrap();
                            e.run().unwrap();
                            e.read_i32(out)[0] as f32
                        }
                        DType::F32 => {
                            let xs: Vec<f32> =
                                values[..len].iter().map(|&v| v as f32 * 0.1).collect();
                            e.write_f32(t, &xs).unwrap();
                            e.run().unwrap();
                            e.read_f32(out)[0]
                        }
                    };
                    let folded = e
                        .stats()
                        .per_compute_set
                        .iter()
                        .any(|s| s.name == "r.chipred" && s.executions > 0);
                    (result, folded)
                };
                let (one, one_folded) = run(TileGroups::ONE);
                let (grouped, folded) = run(by_chip);
                prop_assert!(!one_folded);
                prop_assert_eq!(folded, off_chip, "{:?} {:?}", dtype, op);
                if dtype == DType::F32 && op == ReduceOp::Sum {
                    prop_assert!(close(one, grouped), "{one} vs {grouped}");
                } else {
                    prop_assert_eq!(one.to_bits(), grouped.to_bits(), "{:?} {:?}", dtype, op);
                }
            }
        }

        let row_blocks: Vec<_> = blocks
            .iter()
            .map(|&(s, e, tile)| (s * cols, e * cols, tile))
            .collect();
        let matrix: Vec<f32> = values.iter().map(|&v| v as f32 * 0.1).collect();
        for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Sum] {
            let run = |groups: TileGroups| {
                let (mut g, m) = grouped_graph(chips, per_chip, DType::F32, len * cols, &row_blocks);
                let (mirror, prog) =
                    reduce_columns_mirrored(&mut g, "c", m, len, cols, op, groups).unwrap();
                let mut e = g.compile(prog).unwrap();
                e.write_f32(m, &matrix).unwrap();
                e.run().unwrap();
                e.read_f32(mirror)
            };
            let (one, grouped) = (run(TileGroups::ONE), run(by_chip));
            prop_assert_eq!(one.len(), owners.len() * cols);
            for (a, b) in one.iter().zip(&grouped) {
                if op == ReduceOp::Sum {
                    prop_assert!(close(*a, *b), "{op:?}: {a} vs {b}");
                } else {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", op);
                }
            }
        }
    }
}
