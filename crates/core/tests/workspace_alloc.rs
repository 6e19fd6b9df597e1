//! Counting-allocator evidence for the pipeline workspace: a warm
//! [`DecodeWorkspace`] removes every allocation the workspace manages
//! (column assembly, erasure maps, received-codeword scratch, the whole
//! Reed–Solomon stage), leaving only the per-call outputs (payload,
//! report) and the consensus layer's working strands. The blocked
//! syndrome, SSSE3 slice and word-at-a-time pack kernels are on this
//! path, so they must add zero steady-state allocations of their own.

use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_storage::{CodecParams, DecodeWorkspace, Layout, Pipeline, RetrieveOptions, UnitReads};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to `System`; the counter is a const-initialized
// `Cell<u64>` thread-local (no lazy allocation, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn warm_workspace_decode_allocates_strictly_less_and_is_steady() {
    let params = CodecParams::new(dna_gf::Field::gf256(), 8, 40, 10, 8).unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..pipeline.payload_capacity())
        .map(|i| (i % 251) as u8)
        .collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(8))
        .sequence_unit(0, unit.strands(), 17);
    let clusters = pool.clusters().to_vec();
    let opts = RetrieveOptions::default();

    // Cold workspace: the first decode pays the warm-up allocations.
    let mut ws = DecodeWorkspace::new();
    let (cold, first) =
        allocations_in(|| pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws)));
    let first = first.unwrap();

    // Warm workspace: same decode, strictly fewer allocations, and the
    // count is steady from call to call (nothing accumulates or leaks).
    let (warm_a, a) =
        allocations_in(|| pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws)));
    let (warm_b, b) =
        allocations_in(|| pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws)));
    assert_eq!(first, a.unwrap(), "warm decode must be byte-identical");
    assert_eq!(first, b.unwrap(), "warm decode must be byte-identical");
    assert!(
        warm_a < cold,
        "warm workspace must allocate strictly less: cold={cold} warm={warm_a}"
    );
    assert_eq!(warm_a, warm_b, "steady state must be allocation-stable");

    // A fresh workspace per call re-pays the warm-up every time; the
    // reused workspace avoids all of it. This is the decode_batch
    // per-worker contract: workspace-managed stages allocate nothing
    // after each worker's first unit.
    let (fresh, _) = allocations_in(|| {
        pipeline.decode(
            &[UnitReads::Clusters(&clusters)],
            &opts,
            Some(&mut DecodeWorkspace::new()),
        )
    });
    assert!(
        warm_a < fresh,
        "reused workspace ({warm_a}) must beat per-call workspaces ({fresh})"
    );
}

#[test]
fn concurrent_workers_with_pooled_workspaces_stay_allocation_steady() {
    // The serve-mode contract: N workers share one pipeline, each owns
    // one workspace for its whole life, and after each worker's warm-up
    // decode the workspace-managed stages allocate nothing more — no
    // hidden thread-local scratch multiplying residency behind the
    // explicit pool, no cross-thread interference in the counts.
    let params = CodecParams::new(dna_gf::Field::gf256(), 8, 40, 10, 8).unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..pipeline.payload_capacity())
        .map(|i| (i % 251) as u8)
        .collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(8))
        .sequence_unit(0, unit.strands(), 17);
    let clusters = pool.clusters().to_vec();
    let opts = RetrieveOptions::default();

    let per_thread: Vec<(u64, u64, u64, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    // The allocation counter is thread-local, so each
                    // worker observes exactly its own decodes even while
                    // the other three hammer the shared pipeline.
                    let mut ws = DecodeWorkspace::new();
                    let (cold, first) = allocations_in(|| {
                        pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws))
                    });
                    let (bytes, _) = first.unwrap().remove(0);
                    let (warm_a, a) = allocations_in(|| {
                        pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws))
                    });
                    let (warm_b, b) = allocations_in(|| {
                        pipeline.decode(&[UnitReads::Clusters(&clusters)], &opts, Some(&mut ws))
                    });
                    assert_eq!(bytes, a.unwrap()[0].0);
                    assert_eq!(bytes, b.unwrap()[0].0);
                    (cold, warm_a, warm_b, bytes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let (_, baseline_warm, _, baseline_bytes) = &per_thread[0];
    for (worker, (cold, warm_a, warm_b, bytes)) in per_thread.iter().enumerate() {
        assert!(
            warm_a < cold,
            "worker {worker}: warm decode must allocate strictly less (cold={cold} warm={warm_a})"
        );
        assert_eq!(
            warm_a, warm_b,
            "worker {worker}: steady state must be allocation-stable under concurrency"
        );
        assert_eq!(
            warm_a, baseline_warm,
            "worker {worker}: every pooled workspace must reach the same steady state"
        );
        assert_eq!(bytes, baseline_bytes, "worker {worker}: divergent decode");
    }
}
