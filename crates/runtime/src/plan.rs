//! Compiled execution plans — the **inspector** half of an
//! inspector–executor runtime.
//!
//! The paper's central payoff is that distribution/alignment information
//! makes communication sets *statically computable* (§1, §8.1.1). This
//! module exploits that at execution time the way HPF-descended runtimes
//! do: an [`ExecPlan`] is inspected **once** from an [`Assignment`] and the
//! arrays' [`EffectiveDist`] mappings, and then replayed every timestep.
//!
//! Schedules are **run-length compressed**. Block and general-block
//! mappings own rectangular regions, so the element sequence a processor
//! reads from one peer is overwhelmingly made of contiguous stretches of
//! that peer's local buffer. Instead of one `(src, offset)` entry per
//! element, a plan stores:
//!
//! * per RHS term, a list of [`CopyRun`]s — `len` consecutive elements of
//!   one source processor's buffer, landing at a contiguous position range
//!   of the packed operand buffer (remote runs are exactly the statement's
//!   SUPERB-style ghost blocks, the paper's reference \[11\]); and
//! * for the LHS, a list of [`StoreRun`]s — contiguous slices of the
//!   owner's local buffer that receive consecutive computed elements.
//!
//! A replay therefore moves data with `copy_from_slice` block transfers
//! and combines operands with slice kernels specialized by
//! `(Combine, term count)`, instead of per-element indexed loads. With a
//! reusable [`PlanWorkspace`](crate::PlanWorkspace) holding the packed
//! operand buffers, a warm replay performs **zero heap allocations**:
//! pack → exchange → compute touches only preallocated storage. The frozen
//! [`CommAnalysis`] rides along, so replays also skip the region-algebraic
//! analysis.
//!
//! [`EffectiveDist`]: hpf_core::EffectiveDist

use crate::array::DistArray;
use crate::assign::{Assignment, Combine};
use crate::backend::MessagePlan;
use crate::commsets::{comm_analysis, project_region, CommAnalysis};
use crate::workspace::PlanWorkspace;
use hpf_core::{HpfError, MappingId};
use hpf_index::IndexDomain;
use hpf_procs::ProcId;
use std::sync::Arc;

/// One gather source: which processor's local buffer to read, and where.
///
/// This is the *uncompressed* schedule element. Plans store [`CopyRun`]s
/// instead; [`TermSchedule::iter_refs`] expands a compressed schedule back
/// into this per-element form (tests assert the expansion is exact, and
/// [`ExecPlan::execute_seq_uncompressed`] replays through it as the
/// benchmark baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherRef {
    /// Zero-based source processor.
    pub src: u32,
    /// Flat offset into the source processor's local buffer.
    pub offset: usize,
}

/// A run-length compressed gather: `len` consecutive elements of one
/// source processor's local buffer, copied to a contiguous range of the
/// packed operand buffer with a single `copy_from_slice`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Zero-based source processor.
    pub src: u32,
    /// Starting flat offset into the source processor's local buffer.
    pub src_off: usize,
    /// Starting position in the packed operand buffer (element order).
    pub dst_off: usize,
    /// Number of consecutive elements moved.
    pub len: usize,
}

/// A run-length compressed store: `len` consecutive computed elements
/// (packed-buffer positions `pos..pos+len`) written to a contiguous slice
/// of the LHS owner's local buffer starting at `dst_off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRun {
    /// Starting element position in the packed operand buffers.
    pub pos: usize,
    /// Starting flat offset into the LHS local buffer.
    pub dst_off: usize,
    /// Number of consecutive elements stored.
    pub len: usize,
}

/// The gather schedule of one processor for one RHS term.
#[derive(Debug, Clone)]
pub struct TermSchedule {
    /// Index of the operand array.
    pub array: usize,
    /// Compressed gather runs, covering the processor's element order
    /// exactly (`dst_off` ranges tile `0..elements` in order).
    pub runs: Vec<CopyRun>,
    /// Total elements gathered (the processor's computed volume).
    pub elements: usize,
    /// How many of the gathered elements are remote — the term's ghost
    /// volume on this processor.
    pub ghost_elements: usize,
}

impl TermSchedule {
    /// Expand the compressed runs into the exact per-element
    /// `(src, offset)` sequence an uncompressed schedule would hold.
    pub fn iter_refs(&self) -> impl Iterator<Item = GatherRef> + '_ {
        self.runs.iter().flat_map(|r| {
            (0..r.len).map(move |i| GatherRef { src: r.src, offset: r.src_off + i })
        })
    }
}

/// Everything one processor must do to execute the statement: which LHS
/// slices it fills and where each operand block comes from.
#[derive(Debug, Clone)]
pub struct ProcPlan {
    /// The processor.
    pub proc: ProcId,
    /// Number of elements this processor computes.
    pub volume: usize,
    /// Compressed store runs into the LHS local buffer (`pos` ranges tile
    /// `0..volume` in order).
    pub lhs_runs: Vec<StoreRun>,
    /// Per-term gather schedules (parallel to the statement's terms).
    pub terms: Vec<TermSchedule>,
}

impl ProcPlan {
    /// Total ghost elements this processor receives across all terms.
    pub fn ghost_elements(&self) -> usize {
        self.terms.iter().map(|t| t.ghost_elements).sum()
    }

    /// Expand the compressed store runs into the per-element flat LHS
    /// offset sequence an uncompressed schedule would hold.
    pub fn iter_lhs_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.lhs_runs.iter().flat_map(|r| (0..r.len).map(move |i| r.dst_off + i))
    }
}

/// A compiled execution plan for one assignment under fixed mappings.
///
/// Built by [`ExecPlan::inspect`]; replayed directly by
/// [`ExecPlan::execute_seq`] (or [`ExecPlan::execute_seq_with`], which
/// reuses a caller-owned [`PlanWorkspace`] so warm replays allocate
/// nothing), and every timestep through a [`crate::ProgramPlan`]. A
/// plan is bound to the exact `Arc<EffectiveDist>` allocations it was
/// inspected from (see [`MappingId`]); [`ExecPlan::is_valid_for`] checks
/// that binding, and the executors assert it, so a remapped array can
/// never be driven through a stale schedule.
///
/// [`EffectiveDist`]: hpf_core::EffectiveDist
#[derive(Debug, Clone)]
pub struct ExecPlan {
    lhs: usize,
    combine: Combine,
    per_proc: Vec<ProcPlan>,
    analysis: Arc<CommAnalysis>,
    /// The remote runs regrouped into per-(sender, receiver) message
    /// schedules — what the exchange backends move.
    msgs: MessagePlan,
    /// Identity of every involved array's mapping at inspection time.
    mappings: Vec<(usize, MappingId)>,
}

impl ExecPlan {
    /// Inspect `stmt` over `arrays`: validate conformance, lower the
    /// owner-computes iteration into per-processor compressed store/gather
    /// runs, and freeze the exact communication analysis.
    pub fn inspect(
        arrays: &[DistArray<f64>],
        stmt: &Assignment,
    ) -> Result<ExecPlan, HpfError> {
        let domains: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        stmt.validate(&domains)?;
        let np = arrays[stmt.lhs].np();

        let mut per_proc = Vec::with_capacity(np);
        for p in (1..=np as u32).map(ProcId) {
            let lhs_arr = &arrays[stmt.lhs];
            // the section-relative positions this processor computes
            let positions = project_region(lhs_arr.region_of(p), &stmt.lhs_section);
            let volume = positions.volume_disjoint();
            let mut lhs_runs: Vec<StoreRun> = Vec::new();
            for (pos, rel) in positions.iter().enumerate() {
                let gi = stmt.lhs_index(&rel);
                let off =
                    lhs_arr.local_offset(p, &gi).expect("owner holds its region");
                match lhs_runs.last_mut() {
                    Some(r) if r.dst_off + r.len == off => r.len += 1,
                    _ => lhs_runs.push(StoreRun { pos, dst_off: off, len: 1 }),
                }
            }
            let mut terms = Vec::with_capacity(stmt.terms.len());
            for (t, term) in stmt.terms.iter().enumerate() {
                let src_arr = &arrays[term.array];
                let own = src_arr.region_of(p);
                let mut runs: Vec<CopyRun> = Vec::new();
                let mut ghost_elements = 0usize;
                for (k, rel) in positions.iter().enumerate() {
                    let ri = stmt.rhs_index(t, &rel);
                    // prefer the processor's own copy (replication makes
                    // ownership non-exclusive); otherwise gather from the
                    // first owner — a ghost element
                    let src = if own.contains(&ri) {
                        p
                    } else {
                        ghost_elements += 1;
                        src_arr.mapping().owner(&ri)
                    };
                    let offset = src_arr
                        .local_offset(src, &ri)
                        .expect("owner holds its region");
                    let src0 = src.zero_based() as u32;
                    match runs.last_mut() {
                        Some(r) if r.src == src0 && r.src_off + r.len == offset => {
                            r.len += 1
                        }
                        _ => runs.push(CopyRun {
                            src: src0,
                            src_off: offset,
                            dst_off: k,
                            len: 1,
                        }),
                    }
                }
                terms.push(TermSchedule {
                    array: term.array,
                    runs,
                    elements: volume,
                    ghost_elements,
                });
            }
            per_proc.push(ProcPlan { proc: p, volume, lhs_runs, terms });
        }

        let maps: Vec<Arc<hpf_core::EffectiveDist>> =
            arrays.iter().map(|a| a.mapping().clone()).collect();
        let analysis = Arc::new(comm_analysis(&maps, np, stmt));
        let msgs = MessagePlan::build(&per_proc, &analysis);
        // The real wire cross-check: the message schedules come from
        // per-element gather enumeration, the analysis from region
        // algebra — two independent computations of the same
        // communication sets. For partitioning mappings they must agree
        // pair for pair; a divergence is a schedule bug, caught here
        // before anything executes. (Replication legitimately differs —
        // an expected `AnalysisVerdict::ReplicatedDivergence`, never
        // `Divergent`.)
        assert!(
            msgs.analysis_verdict() != crate::backend::AnalysisVerdict::Divergent,
            "message schedules diverge from the region-algebraic analysis"
        );

        let mut involved = vec![stmt.lhs];
        involved.extend(stmt.terms.iter().map(|t| t.array));
        involved.sort_unstable();
        involved.dedup();
        let mappings = involved
            .into_iter()
            .map(|k| (k, MappingId::of(arrays[k].mapping())))
            .collect();

        Ok(ExecPlan {
            lhs: stmt.lhs,
            combine: stmt.combine,
            per_proc,
            analysis,
            msgs,
            mappings,
        })
    }

    /// The frozen communication analysis of the statement.
    pub fn analysis(&self) -> &CommAnalysis {
        &self.analysis
    }

    /// The frozen analysis as a shared handle (cloning it is a refcount
    /// bump, not a heap allocation — what the zero-allocation replay path
    /// returns to callers).
    pub fn shared_analysis(&self) -> Arc<CommAnalysis> {
        self.analysis.clone()
    }

    /// The per-processor schedules.
    pub fn per_proc(&self) -> &[ProcPlan] {
        &self.per_proc
    }

    /// Index of the LHS array.
    pub fn lhs(&self) -> usize {
        self.lhs
    }

    /// How the computed operand values combine.
    pub fn combine(&self) -> Combine {
        self.combine
    }

    /// The remote runs regrouped into per-(sender, receiver) message
    /// schedules — the unit the exchange backends move and account.
    pub fn message_plan(&self) -> &MessagePlan {
        &self.msgs
    }

    /// Identity of every involved array's mapping at inspection time.
    pub fn mappings(&self) -> &[(usize, MappingId)] {
        &self.mappings
    }

    /// Mutable per-processor schedules — only for the verifier's mutation
    /// tests, which corrupt frozen plans to prove the diagnostics fire.
    #[cfg(test)]
    pub(crate) fn per_proc_mut(&mut self) -> &mut Vec<ProcPlan> {
        &mut self.per_proc
    }

    /// Mutable message plan — only for the verifier's mutation tests.
    #[cfg(test)]
    pub(crate) fn message_plan_mut(&mut self) -> &mut MessagePlan {
        &mut self.msgs
    }

    /// Total ghost elements exchanged per replay, over all processors.
    pub fn ghost_elements(&self) -> usize {
        self.per_proc.iter().map(ProcPlan::ghost_elements).sum()
    }

    /// Number of compressed runs in the schedule (store runs + copy runs,
    /// over all processors and terms).
    pub fn schedule_runs(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                pp.lhs_runs.len()
                    + pp.terms.iter().map(|t| t.runs.len()).sum::<usize>()
            })
            .sum()
    }

    /// Number of element entries an uncompressed schedule would hold (one
    /// LHS offset per computed element plus one gather ref per element
    /// read).
    pub fn schedule_elements(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| pp.volume + pp.terms.iter().map(|t| t.elements).sum::<usize>())
            .sum()
    }

    /// Memory held by the compressed schedule entries, in bytes.
    pub fn schedule_bytes(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                pp.lhs_runs.len() * std::mem::size_of::<StoreRun>()
                    + pp.terms
                        .iter()
                        .map(|t| t.runs.len() * std::mem::size_of::<CopyRun>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Memory the equivalent uncompressed per-element schedule would hold,
    /// in bytes — the denominator of the compression win.
    pub fn uncompressed_bytes(&self) -> usize {
        self.per_proc
            .iter()
            .map(|pp| {
                pp.volume * std::mem::size_of::<usize>()
                    + pp.terms
                        .iter()
                        .map(|t| t.elements * std::mem::size_of::<GatherRef>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Element entries per compressed run — how much the run-length
    /// compression collapsed the schedule (1.0 = no compression, e.g.
    /// CYCLIC(1) gathers; ≫ 1 for block mappings).
    pub fn compression_ratio(&self) -> f64 {
        let runs = self.schedule_runs();
        if runs == 0 {
            1.0
        } else {
            self.schedule_elements() as f64 / runs as f64
        }
    }

    /// True iff every involved array still carries the exact mapping
    /// allocation the plan was inspected from.
    pub fn is_valid_for(&self, arrays: &[DistArray<f64>]) -> bool {
        self.mappings
            .iter()
            .all(|(k, id)| arrays.get(*k).is_some_and(|a| id.is(a.mapping())))
    }

    /// Replay the plan sequentially: pack/exchange every processor's
    /// operand buffers (reads only — Fortran 90 semantics even when the
    /// LHS appears on the RHS), then compute into the LHS local buffers.
    ///
    /// Allocates a throwaway [`PlanWorkspace`]; hot loops should hold one
    /// and call [`ExecPlan::execute_seq_with`] (or run timesteps through a
    /// [`crate::PlanCache`], which keeps the workspaces) so warm replays
    /// allocate nothing.
    ///
    /// # Panics
    /// Panics if the plan is stale for `arrays` (see
    /// [`ExecPlan::is_valid_for`]).
    pub fn execute_seq(&self, arrays: &mut [DistArray<f64>]) {
        let mut ws = PlanWorkspace::for_plan(self);
        self.execute_seq_with(arrays, &mut ws);
    }

    /// Replay the plan sequentially into a reusable workspace. When `ws`
    /// was built for this plan (or has already been used with it), the
    /// replay performs **zero heap allocations**: block copies into the
    /// preallocated pack buffers, then slice-kernel compute into the LHS
    /// local storage.
    ///
    /// # Panics
    /// Panics if the plan is stale for `arrays` (see
    /// [`ExecPlan::is_valid_for`]).
    pub fn execute_seq_with(&self, arrays: &mut [DistArray<f64>], ws: &mut PlanWorkspace) {
        assert!(self.is_valid_for(arrays), "stale plan: an involved array was remapped");
        ws.ensure(self);
        for (pp, bufs) in self.per_proc.iter().zip(ws.bufs.iter_mut()) {
            pack_proc(arrays, pp, bufs);
        }
        let (_, locals) = arrays[self.lhs].parts_mut();
        for (pp, bufs) in self.per_proc.iter().zip(&ws.bufs) {
            compute_proc(pp, &mut locals[pp.proc.zero_based()], bufs, self.combine);
        }
    }

    /// Replay through the *uncompressed* per-element schedule (expanding
    /// every run back into `(src, offset)` loads and per-element combine
    /// calls, with per-replay buffer allocation). Semantically identical
    /// to [`ExecPlan::execute_seq`]; exists as the baseline the
    /// `b13_replay_throughput` benchmark measures the compression win
    /// against.
    ///
    /// # Panics
    /// Panics if the plan is stale for `arrays` (see
    /// [`ExecPlan::is_valid_for`]).
    pub fn execute_seq_uncompressed(&self, arrays: &mut [DistArray<f64>]) {
        assert!(self.is_valid_for(arrays), "stale plan: an involved array was remapped");
        let packed: Vec<Vec<Vec<f64>>> = self
            .per_proc
            .iter()
            .map(|pp| {
                pp.terms
                    .iter()
                    .map(|ts| {
                        let src_arr = &arrays[ts.array];
                        ts.iter_refs()
                            .map(|g| src_arr.local(g.src as usize)[g.offset])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let (_, locals) = arrays[self.lhs].parts_mut();
        for (pp, bufs) in self.per_proc.iter().zip(&packed) {
            let local = &mut locals[pp.proc.zero_based()];
            let mut vals = vec![0.0f64; bufs.len()];
            for (k, off) in pp.iter_lhs_offsets().enumerate() {
                for (v, b) in vals.iter_mut().zip(bufs) {
                    *v = b[k];
                }
                local[off] = self.combine.apply(&vals);
            }
        }
    }
}

/// Pack phase for one processor: assemble its per-term operand buffers
/// from its own local segment plus ghost data, one block copy per
/// compressed run.
pub(crate) fn pack_proc(
    arrays: &[DistArray<f64>],
    pp: &ProcPlan,
    bufs: &mut [Vec<f64>],
) {
    for (ts, buf) in pp.terms.iter().zip(bufs) {
        let src_arr = &arrays[ts.array];
        for r in &ts.runs {
            let src = &src_arr.local(r.src as usize)[r.src_off..r.src_off + r.len];
            buf[r.dst_off..r.dst_off + r.len].copy_from_slice(src);
        }
    }
}

/// Compute phase for one processor: combine the packed operand buffers
/// into the LHS local buffer, one contiguous slice per store run.
///
/// Kernels are specialized by `(Combine, term count)` — 1-term copy is a
/// block move, the 2-term sum is a vectorizable slice loop, and the n-term
/// fallback accumulates directly into the LHS slice (safe because the pack
/// phase already snapshotted every operand).
pub(crate) fn compute_proc(
    pp: &ProcPlan,
    local: &mut [f64],
    bufs: &[Vec<f64>],
    combine: Combine,
) {
    match (combine, bufs) {
        (Combine::Copy, [b]) => {
            for r in &pp.lhs_runs {
                local[r.dst_off..r.dst_off + r.len]
                    .copy_from_slice(&b[r.pos..r.pos + r.len]);
            }
        }
        (Combine::Sum, [a, b]) => {
            for r in &pp.lhs_runs {
                let out = &mut local[r.dst_off..r.dst_off + r.len];
                let (xs, ys) = (&a[r.pos..r.pos + r.len], &b[r.pos..r.pos + r.len]);
                for ((o, x), y) in out.iter_mut().zip(xs).zip(ys) {
                    *o = x + y;
                }
            }
        }
        _ => {
            let (first, rest) = bufs.split_first().expect("validated: ≥ 1 term");
            for r in &pp.lhs_runs {
                let out = &mut local[r.dst_off..r.dst_off + r.len];
                match combine {
                    Combine::Copy => unreachable!(
                        "1-term Copy takes the specialized arm; validation \
                         rejects multi-term Copy"
                    ),
                    Combine::Sum | Combine::Average => {
                        out.copy_from_slice(&first[r.pos..r.pos + r.len]);
                        for b in rest {
                            for (o, x) in out.iter_mut().zip(&b[r.pos..r.pos + r.len])
                            {
                                *o += x;
                            }
                        }
                        if matches!(combine, Combine::Average) {
                            let n = bufs.len() as f64;
                            for o in out.iter_mut() {
                                *o /= n;
                            }
                        }
                    }
                    Combine::Max => {
                        // fold from −∞ exactly like `Combine::apply`
                        for (o, x) in out.iter_mut().zip(&first[r.pos..r.pos + r.len])
                        {
                            *o = f64::NEG_INFINITY.max(*x);
                        }
                        for b in rest {
                            for (o, x) in out.iter_mut().zip(&b[r.pos..r.pos + r.len])
                            {
                                *o = o.max(*x);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Term;
    use crate::exec::dense_reference;
    use crate::ghost::ghost_regions;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec};
    use hpf_index::{span, Section};

    fn setup(n: usize, np: usize, fmts: &[FormatSpec]) -> Vec<DistArray<f64>> {
        let mut ds = DataSpace::new(np);
        let mut out = Vec::new();
        for (k, f) in fmts.iter().enumerate() {
            let name = format!("A{k}");
            let id = ds.declare(&name, IndexDomain::of_shape(&[n]).unwrap()).unwrap();
            ds.distribute(id, &DistributeSpec::new(vec![f.clone()])).unwrap();
            out.push(DistArray::from_fn(
                &name,
                ds.effective(id).unwrap(),
                np,
                |i| (i[0] * (k as i64 + 3)) as f64,
            ));
        }
        out
    }

    fn shift_stmt(n: i64, arrays: &[DistArray<f64>]) -> Assignment {
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        Assignment::new(
            0,
            Section::from_triplets(vec![span(2, n)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, n - 1)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap()
    }

    #[test]
    fn plan_replay_matches_reference() {
        let mut arrays = setup(40, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmt = shift_stmt(40, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let expect = dense_reference(&arrays, &stmt);
        plan.execute_seq(&mut arrays);
        assert_eq!(arrays[0].to_dense(), expect);
        // replay again on the mutated state — still the dense semantics
        let expect2 = dense_reference(&arrays, &stmt);
        plan.execute_seq(&mut arrays);
        assert_eq!(arrays[0].to_dense(), expect2);
    }

    #[test]
    fn block_schedule_compresses_to_few_runs() {
        // BLOCK → BLOCK shift: each processor's gather is at most two
        // contiguous stretches (own block + one ghost cell)
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(64, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        for pp in plan.per_proc() {
            assert!(pp.lhs_runs.len() <= 2, "{}: {:?}", pp.proc, pp.lhs_runs);
            for ts in &pp.terms {
                assert!(ts.runs.len() <= 2, "{}: {:?}", pp.proc, ts.runs);
            }
        }
        assert!(plan.compression_ratio() > 10.0, "{}", plan.compression_ratio());
        assert!(plan.schedule_bytes() < plan.uncompressed_bytes());
    }

    #[test]
    fn cyclic_schedule_expands_exactly() {
        // CYCLIC(1) source: every gather run has length 1, and the
        // expansion tiles the element order exactly
        let arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let stmt = shift_stmt(32, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        for pp in plan.per_proc() {
            assert_eq!(pp.iter_lhs_offsets().count(), pp.volume);
            for ts in &pp.terms {
                assert_eq!(ts.elements, pp.volume);
                let refs: Vec<GatherRef> = ts.iter_refs().collect();
                assert_eq!(refs.len(), ts.elements);
                // dst_off ranges tile 0..elements in order
                let mut k = 0usize;
                for r in &ts.runs {
                    assert_eq!(r.dst_off, k);
                    k += r.len;
                }
                assert_eq!(k, ts.elements);
            }
        }
    }

    #[test]
    fn uncompressed_baseline_matches_compressed() {
        let mut a = setup(48, 4, &[FormatSpec::Cyclic(2), FormatSpec::Block]);
        let mut b = a.clone();
        let stmt = shift_stmt(48, &a);
        let plan = ExecPlan::inspect(&a, &stmt).unwrap();
        plan.execute_seq(&mut a);
        plan.execute_seq_uncompressed(&mut b);
        assert_eq!(a[0].to_dense(), b[0].to_dense());
    }

    #[test]
    fn workspace_reuse_is_stable() {
        let mut arrays = setup(40, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(40, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let mut ws = PlanWorkspace::for_plan(&plan);
        assert!(ws.matches(&plan));
        for _ in 0..3 {
            let expect = dense_reference(&arrays, &stmt);
            plan.execute_seq_with(&mut arrays, &mut ws);
            assert_eq!(arrays[0].to_dense(), expect);
        }
        // a workspace built for another plan is resized, not trusted
        let other = setup(24, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt2 = shift_stmt(24, &other);
        let plan2 = ExecPlan::inspect(&other, &stmt2).unwrap();
        assert!(!ws.matches(&plan2));
        let mut other = other;
        let expect = dense_reference(&other, &stmt2);
        plan2.execute_seq_with(&mut other, &mut ws);
        assert!(ws.matches(&plan2));
        assert_eq!(other[0].to_dense(), expect);
    }

    #[test]
    fn plan_ghosts_match_region_algebra() {
        let arrays = setup(64, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(64, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        let maps: Vec<_> = arrays.iter().map(|a| a.mapping().clone()).collect();
        let ghosts = ghost_regions(&maps, 4, &stmt);
        for (pp, g) in plan.per_proc().iter().zip(&ghosts) {
            assert_eq!(pp.ghost_elements(), g.volume, "{}", pp.proc);
        }
        // and both agree with the frozen analysis's remote reads
        assert_eq!(plan.ghost_elements() as u64, plan.analysis().remote_reads);
    }

    #[test]
    fn aliasing_shift_reads_old_values() {
        // A(2:16) = A(1:15) with the LHS on the RHS: pack-before-compute
        // must preserve Fortran array-assignment semantics
        let mut arrays = setup(16, 4, &[FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 16)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 15)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        ExecPlan::inspect(&arrays, &stmt).unwrap().execute_seq(&mut arrays);
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn stale_plan_detected() {
        let mut arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(32, &arrays);
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        assert!(plan.is_valid_for(&arrays));
        // remap A1 to a different allocation → plan must refuse
        let remapped = setup(32, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        arrays[1] = remapped.into_iter().nth(1).unwrap();
        assert!(!plan.is_valid_for(&arrays));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut a = arrays;
            plan.execute_seq(&mut a);
        }));
        assert!(res.is_err(), "executing a stale plan must panic, not corrupt");
    }

    #[test]
    fn replicated_lhs_keeps_copies_coherent() {
        let dom = IndexDomain::of_shape(&[12]).unwrap();
        let rep = Arc::new(hpf_core::EffectiveDist::Replicated {
            domain: dom,
            procs: hpf_core::ProcSet::all(3),
        });
        let mut ds = DataSpace::new(3);
        let b = ds.declare("B", IndexDomain::of_shape(&[12]).unwrap()).unwrap();
        ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(1)])).unwrap();
        let mut arrays = vec![
            DistArray::new("R", rep, 3, 0.0),
            DistArray::from_fn("B", ds.effective(b).unwrap(), 3, |i| (i[0] * 7) as f64),
        ];
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 12)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 12)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        ExecPlan::inspect(&arrays, &stmt).unwrap().execute_seq(&mut arrays);
        assert_eq!(arrays[0].to_dense(), expect);
        // every replica holds the full updated copy
        for p in (1..=3u32).map(ProcId) {
            for i in arrays[0].domain().clone().iter() {
                let off = arrays[0].local_offset(p, &i).unwrap();
                assert_eq!(arrays[0].local(p.zero_based())[off], (i[0] * 7) as f64);
            }
        }
    }
}
