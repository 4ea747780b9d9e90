//! A warm `SharedMem` [`Session::run`] timestep performs **zero heap
//! allocations**, fused or per statement.
//!
//! The plan cache keeps a preallocated `FusedWorkspace` per compiled
//! program plan, the compressed schedules replay with `copy_from_slice`
//! block moves and slice kernels, and the per-statement analyses come
//! back as `Arc` handles into the frozen plans — so once the first
//! timestep has populated the cache, later timesteps touch no allocator
//! at all. This test pins that contract with a counting global allocator.
//!
//! Kept as its own integration binary so no concurrently running test can
//! pollute the counter between the snapshots.

// The workspace denies unsafe code; a `#[global_allocator]` is the one
// thing that cannot be written without it, so this test opts out locally.
#![allow(unsafe_code)]

use hpf::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point (allocations and reallocations —
/// frees are irrelevant to the contract) on top of the system allocator,
/// and separately those of at least [`BIG`] bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Threshold of [`BIG_ALLOCS`]: above every channel block, command and
/// message buffer a warm `Channels` timestep of [`stencil_program`]`(130)`
/// moves, below its packed operand buffers (64 × 64 `f64`s per term).
const BIG: usize = 16 << 10;

fn count(layout: Layout) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if layout.size() >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter bump, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Layout::from_size_align(new_size, layout.align()).unwrap_or(layout));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The test harness runs `#[test]`s concurrently; the counter is global,
/// so each test holds this lock across its measurement window.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A 2-statement iterated program over `n × n` arrays: a 2-D
/// 5-point-flavored stencil sweep plus a 1-D-sectioned copy-back, over
/// block-distributed arrays on a 2 × 2 grid — the `b12`/`b13` warm-replay
/// shape.
fn stencil_program(n: i64) -> Program {
    let np = 4usize;
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
    let p = ds.declare("P", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    let u = ds.declare("U", IndexDomain::standard(&[(1, n), (1, n)]).unwrap()).unwrap();
    for id in [p, u] {
        ds.distribute(
            id,
            &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
        )
        .unwrap();
    }
    let mut prog = Program::new(vec![
        DistArray::new("P", ds.effective(p).unwrap(), np, 0.0),
        DistArray::from_fn("U", ds.effective(u).unwrap(), np, |i| {
            (i[0] * 100 + i[1]) as f64
        }),
    ]);
    let doms: Vec<&IndexDomain> = prog.arrays.iter().map(|a| a.domain()).collect();
    let sweep = Assignment::new(
        0,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![
            Term::new(1, Section::from_triplets(vec![span(1, n - 2), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(3, n), span(2, n - 1)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(1, n - 2)])),
            Term::new(1, Section::from_triplets(vec![span(2, n - 1), span(3, n)])),
        ],
        Combine::Sum,
        &doms,
    )
    .unwrap();
    let copy_back = Assignment::new(
        1,
        Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]),
        vec![Term::new(0, Section::from_triplets(vec![span(2, n - 1), span(2, n - 1)]))],
        Combine::Copy,
        &doms,
    )
    .unwrap();
    prog.push(sweep).unwrap();
    prog.push(copy_back).unwrap();
    prog
}

#[test]
fn warm_session_run_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    let mut sess = Session::new(stencil_program(24));
    // cold timesteps: inspection, workspace construction, result-buffer
    // growth — all allocation happens here
    sess.run(2).unwrap();
    assert_eq!(sess.program().cache_misses(), 2, "one inspection per statement");

    // warm timesteps: zero heap allocations, several in a row — the
    // session's own bookkeeping must stay plain field updates
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5 {
        sess.run(1).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm Session::run must not touch the heap ({} allocations in 5 timesteps)",
        after - before
    );

    // the replays were real work, not an optimized-out no-op
    assert_eq!(sess.program().cache_hits(), 2 + 5 * 2);
    let analyses = sess.last_analyses();
    assert_eq!(analyses.len(), 2);
    assert!(analyses[0].remote_reads > 0, "the stencil communicates");
}

#[test]
fn warm_parallel_run_reuses_spmd_workers() {
    let _serial = SERIAL.lock().unwrap();
    let mut sess = Session::new(stencil_program(24)).backend(Backend::Channels);
    // cold parallel timesteps: plan inspection plus the one-time spawn of
    // the persistent SPMD worker fleet (one worker per simulated processor)
    sess.run(2).unwrap();
    assert_eq!(sess.program().spmd_workers_spawned(), 4, "the fleet spawns exactly once");

    let before = ALLOCS.load(Ordering::Relaxed);
    let timesteps = 5u64;
    sess.run(timesteps).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        sess.program().spmd_workers_spawned(),
        4,
        "warm parallel timesteps must reuse the persistent workers, not respawn"
    );
    // Unlike the old scoped-thread executor (two spawn waves per statement
    // per timestep), a warm superstep only pays bounded channel traffic:
    // command/done handoffs and recycled message buffers. Pin that the
    // per-timestep allocation count stays a small constant — far below
    // what per-timestep thread spawning plus workspace rebuilds would cost.
    let per_timestep = (after - before) / timesteps;
    assert!(
        per_timestep < 600,
        "a warm parallel session allocates {per_timestep} times per timestep — \
         persistent workers should keep this a small constant"
    );

    // the replays were real work with real exchange on the wire
    assert!(sess.program().backend_bytes_sent() > 0);
    let analyses = sess.last_analyses();
    assert_eq!(analyses.len(), 2);
    assert!(analyses[0].remote_reads > 0, "the stencil communicates");
}

#[test]
fn warm_cache_replay_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    // the same contract on the per-statement path: every statement is its
    // own one-statement program plan with every ghost shipped, through the
    // same cache call and workspace type as the fused timestep
    let mut sess = Session::new(stencil_program(24)).fused(false);
    sess.run(2).unwrap();
    let shipped = sess.program().backend_bytes_sent();
    assert!(shipped > 0);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        sess.run(1).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a warm per-statement timestep must not allocate");
    assert_eq!(sess.program().cache_misses(), 2);
    assert_eq!(sess.program().cache_hits(), 2 + 3 * 2);
    // no ghost reuse: every warm timestep ships what the cold one did
    assert_eq!(sess.program().backend_bytes_sent(), shipped / 2 * 5);
    assert_eq!(sess.program().fusion_stats().ghost_elements_avoided, 0);
}

#[test]
fn warm_unfused_channels_run_keeps_operand_buffers() {
    let _serial = SERIAL.lock().unwrap();
    // a per-statement timestep runs one program plan per statement, so
    // every worker switches plans twice per timestep; each plan's packed
    // operand buffers must survive the switch instead of being rebuilt
    let mut sess = Session::new(stencil_program(130)).backend(Backend::Channels).fused(false);
    sess.run(2).unwrap();
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        sess.run(1).unwrap();
    }
    let after = BIG_ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm per-statement Channels timesteps rebuilt operand buffers \
         ({} allocations of ≥ {BIG} bytes in 3 timesteps)",
        after - before
    );
    assert_eq!(sess.program().spmd_workers_spawned(), 4);
    assert_eq!(sess.program().cache_hits(), 2 + 3 * 2);
}
