//! Counting-allocator proof of the zero-allocation decode contract:
//! steady-state `decode_with_scratch` (and the scratch-backed `decode`)
//! perform **no heap allocations** — the only exception being the
//! `positions` vector of a returned `Correction` that actually fixed
//! symbols, which is user-facing output, not scratch. The blocked
//! syndrome and SSSE3 slice kernels are on this path, so they must add
//! zero steady-state allocations of their own.

use dna_gf::Field;
use dna_reed_solomon::{ReedSolomon, RsScratch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Wraps the system allocator, counting allocations per thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; the bookkeeping uses a
// const-initialized `Cell<u64>` thread-local (no lazy allocation, no
// destructor), so the allocator never re-enters itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f` on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn steady_state_scratch_decode_allocates_nothing() {
    let rs = ReedSolomon::new(Field::gf256(), 40, 16).unwrap();
    let data: Vec<u16> = (0..40).map(|i| (i * 7) % 256).collect();
    let clean = rs.encode(&data).unwrap();
    let mut scratch = RsScratch::new();

    // Warm up: pre-size every buffer, then run one corrected and one
    // failing decode so every code path has touched its scratch.
    scratch.warm_up(&rs);
    let mut cw = clean.clone();
    cw[3] ^= 0x5A;
    cw[20] ^= 0x11;
    rs.decode_with_scratch(&mut cw, &[7], &mut scratch).unwrap();
    let mut junk: Vec<u16> = (0..rs.codeword_len() as u16).map(|i| i % 249).collect();
    let _ = rs.decode_with_scratch(&mut junk, &[], &mut scratch);

    // Clean codeword: zero allocations end to end.
    let mut cw = clean.clone();
    let erasures = [7usize, 12];
    let (n, result) = allocations_in(|| rs.decode_with_scratch(&mut cw, &erasures, &mut scratch));
    result.unwrap();
    assert_eq!(n, 0, "clean steady-state decode must not allocate");

    // Errors + erasures: the only allocation is the returned Correction's
    // positions vector (user-facing output, unavoidable by signature).
    let mut cw = clean.clone();
    cw[5] ^= 0x33;
    cw[30] ^= 0x44;
    let (n, result) = allocations_in(|| rs.decode_with_scratch(&mut cw, &[], &mut scratch));
    let correction = result.unwrap();
    assert_eq!(correction.errors, 2);
    assert_eq!(cw, clean);
    assert!(
        n <= 1,
        "corrected decode may only allocate the Correction position list, saw {n}"
    );

    // A failing decode allocates nothing either.
    let mut junk: Vec<u16> = (0..rs.codeword_len() as u16).map(|i| i % 251).collect();
    let (n, result) = allocations_in(|| rs.decode_with_scratch(&mut junk, &[], &mut scratch));
    assert!(result.is_err());
    assert_eq!(n, 0, "failed decode must not allocate");
}

#[test]
fn plain_decode_reuses_its_thread_local_scratch() {
    let rs = ReedSolomon::new(Field::gf256(), 30, 12).unwrap();
    let data: Vec<u16> = (0..30).map(|i| (i * 11) % 256).collect();
    let clean = rs.encode(&data).unwrap();

    // Warm the thread-local scratch.
    let mut cw = clean.clone();
    cw[2] ^= 1;
    rs.decode(&mut cw, &[4]).unwrap();

    let mut cw = clean.clone();
    let (n, result) = allocations_in(|| rs.decode(&mut cw, &[]));
    result.unwrap();
    assert_eq!(
        n, 0,
        "warm thread-local decode of a clean word must not allocate"
    );
}

#[test]
fn warm_up_presizes_a_cold_scratch() {
    let rs = ReedSolomon::new(Field::gf256(), 40, 16).unwrap();
    let data: Vec<u16> = (0..40).collect();
    let clean = rs.encode(&data).unwrap();
    let mut scratch = RsScratch::new();
    scratch.warm_up(&rs);
    // Even the *first* decode through an explicitly warmed scratch stays
    // allocation-free on the clean path.
    let mut cw = clean.clone();
    let (n, result) = allocations_in(|| rs.decode_with_scratch(&mut cw, &[], &mut scratch));
    result.unwrap();
    assert_eq!(n, 0, "warmed-up first decode must not allocate");
}
