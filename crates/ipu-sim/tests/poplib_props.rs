//! Property tests: the poplib reduction builders must agree with
//! reference reductions for arbitrary data, shapes, and distributions.

use ipu_sim::poplib::{reduce_columns_mirrored, reduce_to_scalar, ReduceOp};
use ipu_sim::{DType, Graph, IpuConfig};
use proptest::prelude::*;

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
        let (out, prog) = reduce_to_scalar(&mut g, "r", t, op, tiles - 1, None).unwrap();
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
            reduce_columns_mirrored(&mut g, "c", m, rows, cols, op).unwrap();
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
