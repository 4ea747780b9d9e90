//! Plan caching: amortize inspection across timesteps.
//!
//! Iterative solvers (red–black sweeps, stencil timesteps) execute the
//! *same* statements over the *same* mappings thousands of times. A
//! [`PlanCache`] keys each statement's compiled [`ExecPlan`] by the
//! statement's structure plus the [`MappingId`](hpf_core::MappingId) of
//! every involved array, so a repeated statement replays its schedule — no
//! re-validation, no re-inspection, no re-running the region-algebraic
//! communication analysis — while a `REDISTRIBUTE`/`REALIGN` (which
//! produces new mapping allocations) invalidates exactly the affected
//! entries.
//!
//! On top of the per-statement plans the cache keeps the compiled
//! timestep: the [`ProgramPlan`]s one [`PlanCache::step`] runs, each with
//! its dirty-tracking [`FusedState`] and preallocated [`FusedWorkspace`].
//! A fused timestep is one `ProgramPlan` over every statement; a
//! per-statement timestep is one single-statement `ProgramPlan` per
//! statement with ghost reuse off. Either way every plan reaches the wire
//! through the same [`ExchangeBackend::step`] call, and a warm step on the
//! `SharedMem` backend performs **zero heap allocations**.

use crate::array::DistArray;
use crate::assign::Assignment;
use crate::backend::ExchangeBackend;
use crate::fuse::{FusedState, FusionStats, ProgramPlan};
use crate::plan::ExecPlan;
use crate::workspace::FusedWorkspace;
use hpf_core::HpfError;
use std::collections::HashMap;
use std::sync::Arc;

/// One compiled program plan with its replay state and scratch.
#[derive(Debug, Clone)]
struct Part {
    plan: Arc<ProgramPlan>,
    state: FusedState,
    ws: FusedWorkspace,
}

impl Part {
    /// Compile (and statically verify) `stmts` into one program plan.
    fn compile(
        arrays: &[DistArray<f64>],
        stmts: &[Assignment],
        plans: Vec<Arc<ExecPlan>>,
        reuse: bool,
    ) -> Part {
        let plan = Arc::new(ProgramPlan::compile(stmts, plans));
        verify_fused_inserted(arrays, stmts, &plan);
        Part {
            ws: FusedWorkspace::for_plan(&plan),
            state: FusedState::new(&plan, arrays, reuse),
            plan,
        }
    }
}

/// The cached timestep: the statement sequence it was compiled from (the
/// cache key — structural equality, compared without allocating), whether
/// it is fused, and its program plans in execution order.
#[derive(Debug, Clone)]
struct Timestep {
    stmts: Vec<Assignment>,
    fused: bool,
    parts: Vec<Part>,
}

/// Statically verify a plan at the moment it enters the cache — the five
/// properties of [`crate::verify::verify_plan`], asserted hard: a plan
/// that cannot be proven safe must never be handed to a replay loop.
///
/// Runs in every debug build and, behind the `verify` feature, in release
/// too. Verification happens only at insertion (cold miss or remap
/// invalidation), so the warm replay path is untouched — `verify` off has
/// zero warm-replay overhead by construction.
#[cfg(any(debug_assertions, feature = "verify"))]
fn verify_inserted(arrays: &[DistArray<f64>], stmt: &Assignment, plan: &ExecPlan) {
    let report = crate::verify::verify_plan(arrays, stmt, plan);
    assert!(
        report.is_clean(),
        "statically invalid plan inserted into the cache:\n{report}"
    );
}

#[cfg(not(any(debug_assertions, feature = "verify")))]
fn verify_inserted(_: &[DistArray<f64>], _: &Assignment, _: &ExecPlan) {}

/// Statically verify a program plan at the moment it enters the cache —
/// the fused properties of [`crate::verify::verify_program_plan`]
/// (superstep hazard freedom, segment conservation across coalescing,
/// pack-phase soundness, dirty-flag consistency), asserted hard under the
/// same gating as [`verify_inserted`].
#[cfg(any(debug_assertions, feature = "verify"))]
fn verify_fused_inserted(
    arrays: &[DistArray<f64>],
    stmts: &[Assignment],
    plan: &ProgramPlan,
) {
    let report = crate::verify::verify_program_plan(arrays, stmts, plan);
    assert!(
        report.is_clean(),
        "statically invalid fused plan inserted into the cache:\n{report}"
    );
}

#[cfg(not(any(debug_assertions, feature = "verify")))]
fn verify_fused_inserted(_: &[DistArray<f64>], _: &[Assignment], _: &ProgramPlan) {}

/// A cache of compiled execution plans, keyed by statement shape and
/// mapping identity, plus the compiled timestep built from them.
///
/// At most one entry is kept per distinct statement (statements hash and
/// compare structurally): when a statement's mappings change (an array was
/// remapped), the stale plan is replaced in place — without re-cloning the
/// statement key — so the cache never grows beyond the program's statement
/// count.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: HashMap<Assignment, Arc<ExecPlan>>,
    timestep: Option<Timestep>,
    hits: u64,
    misses: u64,
    /// Per-rank compute nanoseconds of the last timestep, summed over its
    /// program plans (see [`PlanCache::rank_compute_ns`]).
    rank_ns: Vec<u64>,
    /// Lifetime timesteps and ghost traffic (carried across rebuilds).
    timesteps: u64,
    ghost_sent: u64,
    ghost_avoided: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The plan for `stmt` over `arrays`: a cached replay if the statement
    /// was seen before under the same mapping allocations, otherwise a
    /// fresh inspection (cached for next time).
    pub fn plan_for(
        &mut self,
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<Arc<ExecPlan>, HpfError> {
        if let Some(plan) = self.entries.get_mut(stmt) {
            if plan.is_valid_for(arrays) {
                self.hits += 1;
                return Ok(plan.clone());
            }
            // stale: re-inspect and replace in place — no Assignment
            // clone (the key is owned by the map)
            self.misses += 1;
            let fresh = Arc::new(ExecPlan::inspect(arrays, stmt)?);
            verify_inserted(arrays, stmt, &fresh);
            *plan = fresh.clone();
            return Ok(fresh);
        }
        self.misses += 1;
        let plan = Arc::new(ExecPlan::inspect(arrays, stmt)?);
        verify_inserted(arrays, stmt, &plan);
        self.entries.insert(stmt.clone(), plan.clone());
        Ok(plan)
    }

    /// Execute one whole timestep — every statement of `stmts`, in
    /// program order — on `backend`, compiling (and statically verifying)
    /// the timestep's program plans first if the statement sequence or
    /// `fused` changed or any involved array was remapped.
    ///
    /// With `fused`, the timestep is one [`ProgramPlan`]: statements
    /// level-scheduled into supersteps, same-pair messages coalesced, and
    /// ghost units whose receiver-side copy is still current skipped.
    /// Without it, every statement is its own single-statement plan and
    /// every ghost ships every timestep — the pre-fusion baseline.
    ///
    /// A warm timestep counts one hit per statement; a rebuild resolves
    /// each constituent plan through [`PlanCache::plan_for`], which
    /// charges hits for statements whose plans are still valid and misses
    /// for cold or invalidated ones. Warm timesteps on the `SharedMem`
    /// backend perform **zero heap allocations**.
    ///
    /// An exchange failure (worker death, lost or damaged message)
    /// surfaces as [`HpfError::Exchange`]; the compiled plans stay valid,
    /// but their dirty tracking is reset, so only the array *data* needs
    /// restoring before a replay.
    pub fn step(
        &mut self,
        arrays: &mut [DistArray<f64>],
        stmts: &[Assignment],
        fused: bool,
        backend: &mut dyn ExchangeBackend,
    ) -> Result<(), HpfError> {
        let warm = self.timestep.as_ref().is_some_and(|t| {
            t.fused == fused
                && t.stmts == stmts
                && t.parts.iter().all(|p| p.plan.is_valid_for(arrays))
        });
        if warm {
            self.hits += stmts.len() as u64;
        } else {
            self.compile(arrays, stmts, fused)?;
        }
        let t = self.timestep.as_mut().expect("timestep was just ensured");
        let (mut sent, mut avoided) = (0u64, 0u64);
        self.rank_ns.clear();
        for k in 0..t.parts.len() {
            let Part { plan, state, ws } = &mut t.parts[k];
            if let Err(e) = backend.step(plan, arrays, state, ws) {
                // the timestep is torn: the masks' assumptions about
                // receiver-side ghost data no longer hold, and the arrays
                // may be partial — distrust every dirty bit until data is
                // restored and the next step re-derives them
                t.parts.iter_mut().for_each(|p| p.state.poison());
                return Err(e.into());
            }
            // every part's sample counts toward the timestep's load: a
            // per-statement timestep runs one plan per statement
            let sample = backend.rank_compute_ns();
            if self.rank_ns.len() < sample.len() {
                self.rank_ns.resize(sample.len(), 0);
            }
            for (acc, ns) in self.rank_ns.iter_mut().zip(sample) {
                *acc += ns;
            }
            state.finish_timestep(plan, arrays);
            sent += state.last_sent();
            avoided += state.last_avoided();
        }
        self.timesteps += 1;
        self.ghost_sent += sent;
        self.ghost_avoided += avoided;
        Ok(())
    }

    /// Compile the timestep's program plans from the (cached or freshly
    /// inspected) per-statement plans.
    fn compile(
        &mut self,
        arrays: &[DistArray<f64>],
        stmts: &[Assignment],
        fused: bool,
    ) -> Result<(), HpfError> {
        let plans = stmts
            .iter()
            .map(|s| self.plan_for(arrays, s))
            .collect::<Result<Vec<_>, _>>()?;
        let parts = if fused {
            vec![Part::compile(arrays, stmts, plans, true)]
        } else {
            stmts
                .iter()
                .zip(plans)
                .map(|(s, p)| Part::compile(arrays, std::slice::from_ref(s), vec![p], false))
                .collect()
        };
        self.timestep = Some(Timestep { stmts: stmts.to_vec(), fused, parts });
        Ok(())
    }

    /// The per-statement plans of the compiled timestep, in program order
    /// (empty before the first [`PlanCache::step`]).
    pub(crate) fn timestep_plans(&self) -> impl Iterator<Item = &Arc<ExecPlan>> {
        self.timestep.iter().flat_map(|t| t.parts.iter().flat_map(|p| p.plan.plans()))
    }

    /// Observability snapshot of the timestep path: shape of the current
    /// program plans plus lifetime-cumulative reuse counters (carried
    /// across rebuilds). Zeroed before the first timestep.
    pub fn fusion_stats(&self) -> FusionStats {
        let mut fs = FusionStats {
            fused_timesteps: self.timesteps,
            ghost_elements_sent: self.ghost_sent,
            ghost_elements_avoided: self.ghost_avoided,
            ..FusionStats::default()
        };
        if let Some(t) = &self.timestep {
            fs.statements = t.stmts.len();
            for p in &t.parts {
                fs.supersteps += p.plan.supersteps().len();
                fs.messages_before += p.plan.messages_before();
                fs.messages_after += p.plan.messages_after();
            }
        }
        fs
    }

    /// Measured wall-nanoseconds each simulated processor spent in compute
    /// kernels during the last [`PlanCache::step`], summed over every
    /// program plan of the timestep (one per statement when it is not
    /// fused). Empty before the first timestep; after a failed timestep,
    /// the parts that completed.
    pub fn rank_compute_ns(&self) -> &[u64] {
        &self.rank_ns
    }

    /// Cached-replay count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Fresh-inspection count (cold misses plus remap invalidations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes held by the compressed schedules of every cached plan (see
    /// [`ExecPlan::schedule_bytes`]) — what the run-length compression
    /// makes observable.
    pub fn schedule_bytes(&self) -> usize {
        self.entries.values().map(|p| p.schedule_bytes()).sum()
    }

    /// Total `f64` elements preallocated across the compiled timestep's
    /// packed operand buffers.
    pub fn workspace_elements(&self) -> usize {
        self.timestep
            .iter()
            .flat_map(|t| &t.parts)
            .map(|p| p.ws.buffer_elements())
            .sum()
    }

    /// Drop every cached plan, including the compiled timestep (counters
    /// are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.timestep = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Combine, Term};
    use crate::backend::SharedMemBackend;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, IndexDomain, Section};

    fn arrays(n: usize, np: usize, fmt_b: FormatSpec) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let a = ds.declare("A", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        let b = ds.declare("B", IndexDomain::of_shape(&[n]).unwrap()).unwrap();
        ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![fmt_b])).unwrap();
        vec![
            DistArray::from_fn("A", ds.effective(a).unwrap(), np, |i| i[0] as f64),
            DistArray::from_fn("B", ds.effective(b).unwrap(), np, |i| (i[0] * 2) as f64),
        ]
    }

    fn copy_stmt(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
            0,
            Section::from_triplets(vec![span(1, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap()
    }

    #[test]
    fn repeat_statement_hits() {
        let mut cache = PlanCache::new();
        let arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let stmt = copy_stmt(32, &arrs);
        let p1 = cache.plan_for(&arrs, &stmt).unwrap();
        let p2 = cache.plan_for(&arrs, &stmt).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2), "replay must reuse the compiled plan");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn remap_invalidates_in_place() {
        let mut cache = PlanCache::new();
        let mut arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let stmt = copy_stmt(32, &arrs);
        let p1 = cache.plan_for(&arrs, &stmt).unwrap();
        // remap B: a new mapping allocation → the entry is stale
        arrs[1] = arrays(32, 4, FormatSpec::Block).into_iter().nth(1).unwrap();
        let p2 = cache.plan_for(&arrs, &stmt).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // replaced, not accumulated
        assert_eq!(cache.len(), 1);
        // and the fresh plan is hit on the next replay
        cache.plan_for(&arrs, &stmt).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn distinct_statements_coexist() {
        let mut cache = PlanCache::new();
        let mut arrs = arrays(32, 4, FormatSpec::Cyclic(1));
        let s1 = copy_stmt(32, &arrs);
        let s2 = copy_stmt(16, &arrs);
        cache.plan_for(&arrs, &s1).unwrap();
        cache.plan_for(&arrs, &s2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert!(cache.schedule_bytes() > 0);
        cache.step(&mut arrs, &[s1, s2], true, &mut SharedMemBackend::new()).unwrap();
        assert_eq!(cache.workspace_elements(), 32 + 16);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.schedule_bytes(), 0);
        assert_eq!(cache.workspace_elements(), 0);
    }

    #[test]
    fn replay_through_cache_matches_reference() {
        let mut cache = PlanCache::new();
        let mut shared = arrays(40, 4, FormatSpec::Cyclic(3));
        let mut channels = shared.clone();
        let stmt = copy_stmt(40, &shared);
        let stmts = std::slice::from_ref(&stmt);
        let mut shared_be = SharedMemBackend::new();
        let mut channels_be = crate::ChannelsBackend::new();
        for fused in [false, true, false] {
            let expect = crate::exec::dense_reference(&shared, &stmt);
            cache.step(&mut shared, stmts, fused, &mut shared_be).unwrap();
            cache.step(&mut channels, stmts, fused, &mut channels_be).unwrap();
            assert_eq!(shared[0].to_dense(), expect);
            assert_eq!(channels[0].to_dense(), expect);
        }
        assert_eq!(cache.misses(), 1, "one inspection for every path");
        assert_eq!(cache.hits(), 5);
        assert_eq!(cache.fusion_stats().fused_timesteps, 6);
    }
}
