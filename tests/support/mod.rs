//! Generators and drivers shared by the integration suites (`mod
//! support;` in each). Every suite compiles this module on its own and
//! uses a subset of it.
#![allow(dead_code)]

use hpf::prelude::*;
use std::sync::Arc;

/// Random GENERAL_BLOCK sizes: `np` non-negative lengths summing to `n`.
pub fn gb_sizes(n: usize, np: usize, seed: u64) -> Vec<i64> {
    use rand::{RngExt, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cuts: Vec<i64> = (0..np.saturating_sub(1))
        .map(|_| rng.random_range(0..=n as u64) as i64)
        .collect();
    cuts.sort_unstable();
    cuts.push(n as i64);
    let mut prev = 0i64;
    cuts.into_iter()
        .map(|c| {
            let s = c - prev;
            prev = c;
            s
        })
        .collect()
}

/// One of the paper's 1-D mapping families over `[n]` on `np`
/// processors, selected by `kind % 6`: BLOCK, balanced BLOCK, CYCLIC(1),
/// CYCLIC(3), GENERAL_BLOCK with `seed`-drawn sizes, and (5) full
/// replication — the only non-partitioning family.
pub fn mapping_of(kind: u8, n: usize, np: usize, seed: u64) -> Arc<EffectiveDist> {
    if kind % 6 == 5 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = match kind % 6 {
        0 => FormatSpec::Block,
        1 => FormatSpec::BlockBalanced,
        2 => FormatSpec::Cyclic(1),
        3 => FormatSpec::Cyclic(3),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np, seed)),
    };
    let mut ds = DataSpace::new(np);
    let a = ds.declare("M", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
    ds.distribute(a, &DistributeSpec::new(vec![fmt])).unwrap();
    ds.effective(a).unwrap()
}

/// A random 2-D mapping over `[n, n]` on an `np_side × np_side` grid:
/// each axis BLOCK, CYCLIC(1), CYCLIC(2) or GENERAL_BLOCK (`kind % 4` for
/// the first axis, `kind / 4 % 4` for the second), or full replication
/// when `kind >= 16`.
pub fn mapping_2d(kind: u8, n: usize, np_side: usize, seed: u64) -> Arc<EffectiveDist> {
    let np = np_side * np_side;
    if kind >= 16 {
        return Arc::new(EffectiveDist::Replicated {
            domain: IndexDomain::of_shape(&[n, n]).unwrap(),
            procs: ProcSet::all(np),
        });
    }
    let fmt = |k: u8, s: u64| match k % 4 {
        0 => FormatSpec::Block,
        1 => FormatSpec::Cyclic(1),
        2 => FormatSpec::Cyclic(2),
        _ => FormatSpec::GeneralBlockSizes(gb_sizes(n, np_side, s)),
    };
    let mut ds = DataSpace::new(np);
    ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
        .unwrap();
    let a = ds.declare("M", IndexDomain::of_shape(&[n, n]).unwrap()).unwrap();
    ds.distribute(
        a,
        &DistributeSpec::to(vec![fmt(kind % 4, seed), fmt(kind / 4, seed ^ 0x55)], "G"),
    )
    .unwrap();
    ds.effective(a).unwrap()
}

/// Execute `stmt` once on `backend` as a one-statement program run per
/// statement (every ghost ships), returning the program afterwards.
pub fn run_statement(arrays: Vec<DistArray<f64>>, stmt: &Assignment, backend: Backend) -> Program {
    let mut prog = Program::new(arrays);
    prog.push(stmt.clone()).unwrap();
    let mut sess = Session::new(prog).backend(backend).fused(false);
    sess.run(1).unwrap();
    sess.into_program()
}
