//! Compute vertices ("codelets") and their execution context.
//!
//! A codelet is the body of one vertex: a closure that receives typed
//! views of the tensor regions connected to the vertex and returns the
//! number of *thread instructions* it executed (see [`cost`]). Codelets
//! run on one hardware thread of one tile and can only see regions mapped
//! to that tile — the graph enforces this before execution ever starts.
//!
//! Because the IPU is MIMD (§III: "each thread has completely distinct
//! code and execution flow without incurring performance penalties"),
//! data-dependent branching inside a codelet costs the same as straight-
//! line code — contrast with the warp-divergence charge of `gpu-sim`.

use std::cell::{Ref, RefCell, RefMut};

/// The signature every codelet implements: inspect/mutate connected
/// fields, return instructions executed.
pub type Codelet = dyn Fn(&VertexCtx) -> u64;

/// Typed views of the tensor regions connected to a vertex, in connection
/// order.
///
/// Fields are checked out with `f32`/`i32` (read) or `f32_mut`/`i32_mut`
/// (write); dynamic borrow rules allow any set of *distinct* fields to be
/// held simultaneously. Checking out a field with the wrong type or
/// access panics — these are programming errors in the codelet, not data-
/// dependent conditions.
///
/// The context *borrows* its field cells rather than owning them: the
/// engine pre-resolves every vertex's fields into a per-run cell arena
/// (the lowered execution path) or a short-lived `Vec` (the interpreted
/// path), so building a context is just taking a slice of that arena —
/// no allocation, no per-vertex setup. The cells hold raw pointer/length
/// pairs; the typed slice views are materialized inside the accessors,
/// under the engine's aliasing contract (see `exec_vertex` in
/// `engine.rs`).
pub struct VertexCtx<'s> {
    fields: &'s [RefCell<FieldBuf>],
}

/// One resolved field: a raw base pointer and length. Plain data (no
/// borrow), so arenas of these can be built once per run and reused for
/// every superstep; the `RefCell` around each cell still enforces the
/// per-vertex dynamic borrow rules (one writer *or* many readers per
/// field).
#[derive(Clone, Copy)]
pub(crate) enum FieldBuf {
    F32 { ptr: *const f32, len: u32 },
    F32Mut { ptr: *mut f32, len: u32 },
    I32 { ptr: *const i32, len: u32 },
    I32Mut { ptr: *mut i32, len: u32 },
}

impl<'s> VertexCtx<'s> {
    pub(crate) fn new(fields: &'s [RefCell<FieldBuf>]) -> Self {
        Self { fields }
    }

    /// Read-only view of f32 field `i` (also accepts a writable field).
    pub fn f32(&self, i: usize) -> Ref<'_, [f32]> {
        Ref::map(self.fields[i].borrow(), |b| match *b {
            // SAFETY: the engine resolved `ptr`/`len` from an in-bounds
            // tensor slice, the buffers outlive every context, and the
            // compile-time race validation plus this cell's borrow flag
            // rule out a live mutable alias.
            FieldBuf::F32 { ptr, len } => unsafe { std::slice::from_raw_parts(ptr, len as usize) },
            FieldBuf::F32Mut { ptr, len } => unsafe {
                std::slice::from_raw_parts(ptr as *const f32, len as usize)
            },
            _ => panic!("field {i} is not f32"),
        })
    }

    /// Mutable view of f32 field `i`; panics if the field was connected
    /// read-only.
    pub fn f32_mut(&self, i: usize) -> RefMut<'_, [f32]> {
        RefMut::map(self.fields[i].borrow_mut(), |b| match *b {
            // SAFETY: as `f32`; the exclusive borrow of this cell makes
            // the mutable view unique.
            FieldBuf::F32Mut { ptr, len } => unsafe {
                std::slice::from_raw_parts_mut(ptr, len as usize)
            },
            FieldBuf::F32 { .. } => panic!("field {i} was connected read-only"),
            _ => panic!("field {i} is not f32"),
        })
    }

    /// Read-only view of i32 field `i` (also accepts a writable field).
    pub fn i32(&self, i: usize) -> Ref<'_, [i32]> {
        Ref::map(self.fields[i].borrow(), |b| match *b {
            // SAFETY: as `f32`.
            FieldBuf::I32 { ptr, len } => unsafe { std::slice::from_raw_parts(ptr, len as usize) },
            FieldBuf::I32Mut { ptr, len } => unsafe {
                std::slice::from_raw_parts(ptr as *const i32, len as usize)
            },
            _ => panic!("field {i} is not i32"),
        })
    }

    /// Mutable view of i32 field `i`; panics if the field was connected
    /// read-only.
    pub fn i32_mut(&self, i: usize) -> RefMut<'_, [i32]> {
        RefMut::map(self.fields[i].borrow_mut(), |b| match *b {
            // SAFETY: as `f32_mut`.
            FieldBuf::I32Mut { ptr, len } => unsafe {
                std::slice::from_raw_parts_mut(ptr, len as usize)
            },
            FieldBuf::I32 { .. } => panic!("field {i} was connected read-only"),
            _ => panic!("field {i} is not i32"),
        })
    }
}

/// Instruction-cost helpers for codelets.
///
/// The unit is *thread instructions*: the engine converts them to tile
/// cycles with the 6-thread barrel model (a tile retires one instruction
/// per cycle across its active threads; see `calibration`).
///
/// The `f32_*` helpers charge `n/2` because the IPU loads and processes
/// two floats at a time — the paper leans on this in Steps 1 and 6
/// ("we retrieve and update from the tile's memory two floats at once").
pub mod cost {
    /// Read + compare/accumulate a run of `n` f32 (e.g. a min scan).
    pub fn f32_scan(n: usize) -> u64 {
        (n as u64).div_ceil(2)
    }

    /// Read-modify-write a run of `n` f32.
    pub fn f32_update(n: usize) -> u64 {
        n as u64
    }

    /// Read + inspect a run of `n` i32 (no 2-at-a-time benefit for the
    /// index/flag manipulation the compressed matrix needs).
    pub fn i32_scan(n: usize) -> u64 {
        n as u64
    }

    /// Read-modify-write a run of `n` i32.
    pub fn i32_update(n: usize) -> u64 {
        2 * n as u64
    }

    /// `n` data-dependent branches. MIMD: one instruction each, no
    /// divergence penalty (the GPU model charges serialization instead).
    pub fn branches(n: usize) -> u64 {
        n as u64
    }

    /// Sorting `n` elements locally on a tile (comparison sort).
    pub fn sort(n: usize) -> u64 {
        if n < 2 {
            return 1;
        }
        let logn = (usize::BITS - (n - 1).leading_zeros()) as u64;
        2 * n as u64 * logn
    }

    /// A handful of scalar instructions (flag checks, index arithmetic).
    pub fn scalar(n: usize) -> u64 {
        n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells_with(f: &mut [f32], i: &mut [i32]) -> Vec<RefCell<FieldBuf>> {
        vec![
            RefCell::new(FieldBuf::F32Mut {
                ptr: f.as_mut_ptr(),
                len: f.len() as u32,
            }),
            RefCell::new(FieldBuf::I32Mut {
                ptr: i.as_mut_ptr(),
                len: i.len() as u32,
            }),
        ]
    }

    #[test]
    fn simultaneous_distinct_fields() {
        let mut f = [1.0_f32, 2.0];
        let mut i = [0_i32; 2];
        let cells = cells_with(&mut f, &mut i);
        let ctx = VertexCtx::new(&cells);
        let src = ctx.f32(0);
        let mut dst = ctx.i32_mut(1);
        for (d, s) in dst.iter_mut().zip(src.iter()) {
            *d = *s as i32;
        }
        drop((src, dst));
        drop(cells);
        assert_eq!(i, [1, 2]);
    }

    #[test]
    fn mutable_field_readable() {
        let mut f = [3.0_f32];
        let mut i = [0_i32];
        let cells = cells_with(&mut f, &mut i);
        let ctx = VertexCtx::new(&cells);
        assert_eq!(ctx.f32(0)[0], 3.0);
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn readonly_field_rejects_mut() {
        let f = [1.0_f32];
        let cells = vec![RefCell::new(FieldBuf::F32 {
            ptr: f.as_ptr(),
            len: 1,
        })];
        let ctx = VertexCtx::new(&cells);
        let _ = ctx.f32_mut(0);
    }

    #[test]
    #[should_panic(expected = "not f32")]
    fn wrong_dtype_panics() {
        let i = [1_i32];
        let cells = vec![RefCell::new(FieldBuf::I32 {
            ptr: i.as_ptr(),
            len: 1,
        })];
        let ctx = VertexCtx::new(&cells);
        let _ = ctx.f32(0);
    }

    #[test]
    #[should_panic(expected = "already")]
    fn double_mutable_checkout_panics() {
        let mut f = [1.0_f32];
        let mut i = [0_i32];
        let cells = cells_with(&mut f, &mut i);
        let ctx = VertexCtx::new(&cells);
        let _a = ctx.f32_mut(0);
        let _b = ctx.f32_mut(0);
    }

    #[test]
    fn cost_helpers_match_two_floats_at_a_time() {
        assert_eq!(cost::f32_scan(8), 4);
        assert_eq!(cost::f32_scan(9), 5);
        assert_eq!(cost::f32_update(8), 8);
        assert_eq!(cost::i32_scan(8), 8);
        assert_eq!(cost::branches(3), 3);
        assert!(cost::sort(1024) >= 2 * 1024 * 10);
        assert_eq!(cost::sort(1), 1);
    }
}
