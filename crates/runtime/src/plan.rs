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
//!   one source processor's buffer, covering a contiguous position range
//!   of the term's operand (remote runs are exactly the statement's
//!   SUPERB-style ghost blocks, the paper's reference \[11\]); and
//! * for the LHS, a list of [`StoreRun`]s — contiguous slices of the
//!   owner's local buffer that receive consecutive computed elements.
//!
//! **Owned operands are read in place.** A term whose own-shard runs are
//! long ([`TermSchedule::in_place`]) is read by the compute kernel straight
//! from the processor's shard of the operand array; only its ghost
//! positions go through the packed operand buffer. Every other term is
//! *packed*: its own-shard runs are block-copied into the buffer first
//! ([`pack_local_runs`]), next to the ghosts. Two kinds of term stay
//! packed:
//!
//! * a term that reads the statement's own LHS array — reading it in place
//!   would observe elements the kernel has already overwritten, breaking
//!   Fortran 90 array-assignment semantics (`A(2:N) = A(1:N-1)`); the pack
//!   is the snapshot that keeps them;
//! * a fragmented term, whose own-shard runs average fewer than
//!   `IN_PLACE_MIN_RUN` (8, one 64-byte line of `f64`) elements. The
//!   kernel cuts a chunk at every in-place run boundary, so reading a
//!   CYCLIC(1)-fed term in place would shrink every chunk to one element
//!   (the measurement behind the threshold is on the constant);
//! * an all-ghost term, which has nothing of its own to read in place.
//!
//! A replay moves data with `copy_from_slice` block transfers and combines
//! operand slices with one left-fold kernel ([`compute_proc`]), instead of
//! per-element indexed loads. With a reusable
//! [`PlanWorkspace`](crate::PlanWorkspace) holding the packed operand
//! buffers, a warm replay performs **zero heap allocations**. The frozen
//! [`CommAnalysis`] rides along, so replays also skip the
//! region-algebraic analysis.
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
/// source processor's local buffer, feeding a contiguous range of operand
/// positions — copied into the packed operand buffer with a single
/// `copy_from_slice`, or (an own-shard run of an in-place term) read by
/// the kernel where it lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyRun {
    /// Zero-based source processor.
    pub src: u32,
    /// Starting flat offset into the source processor's local buffer.
    pub src_off: usize,
    /// Starting operand position (element order) — where the run lands in
    /// the packed operand buffer.
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
    /// True iff the compute kernel reads this term's own-shard runs
    /// straight from the processor's shard instead of a packed copy: the
    /// term does not read the statement's LHS array, and it has own-shard
    /// runs, averaging at least `IN_PLACE_MIN_RUN` elements (see the
    /// module docs). Ghost runs always go through the packed operand
    /// buffer, so an all-ghost term gains nothing in place and is packed.
    pub in_place: bool,
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

/// In-place threshold: a term is read in place only when its own-shard
/// runs average at least this many elements — one 64-byte cache line of
/// `f64`. The kernel cuts a chunk at every in-place run boundary, so a
/// fragmented term in place turns the fold into one-element chunks.
/// Measured with the `mixed_chain_1d` benchmark workload (7 statements
/// with CYCLIC-fed terms, N = 2^17, 2-vCPU host, two 6 s runs each): a
/// threshold of 1 ran 75–76 warm steps/s, 8 ran 158–160, and 2 and 64
/// stayed within 10% of 8 (165–169 and 146–152).
const IN_PLACE_MIN_RUN: usize = 8;

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
                let me = p.zero_based() as u32;
                let (own_elems, own_runs) = runs
                    .iter()
                    .filter(|r| r.src == me)
                    .fold((0usize, 0usize), |(e, n), r| (e + r.len, n + 1));
                terms.push(TermSchedule {
                    array: term.array,
                    runs,
                    elements: volume,
                    ghost_elements,
                    in_place: term.array != stmt.lhs
                        && own_runs > 0
                        && own_elems >= IN_PLACE_MIN_RUN * own_runs,
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
    /// LHS appears on the RHS, whose terms are always packed), then
    /// compute into the LHS local buffers, reading in-place terms from
    /// the operand shards.
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
    /// replay performs **zero heap allocations**: block copies of the
    /// packed terms' own runs and of every ghost run into the
    /// preallocated pack buffers, then the slice kernel into the LHS local
    /// storage.
    ///
    /// # Panics
    /// Panics if the plan is stale for `arrays` (see
    /// [`ExecPlan::is_valid_for`]).
    pub fn execute_seq_with(&self, arrays: &mut [DistArray<f64>], ws: &mut PlanWorkspace) {
        assert!(self.is_valid_for(arrays), "stale plan: an involved array was remapped");
        ws.ensure(self);
        // one address space: every shard is local, so the ghosts are
        // packed in the same pass as the own runs
        for (pp, bufs) in self.per_proc.iter().zip(ws.bufs.iter_mut()) {
            pack_local_runs(
                pp,
                |a| {
                    let arr = &arrays[a];
                    move |src: u32| Some(arr.local(src as usize))
                },
                bufs,
            );
        }
        let (lhs, operand) = split_lhs(arrays, self.lhs);
        let (_, locals) = lhs.parts_mut();
        for (pp, bufs) in self.per_proc.iter().zip(&ws.bufs) {
            let me = pp.proc.zero_based();
            compute_proc(
                pp,
                &mut locals[me],
                |a| operand(a).local(me),
                bufs,
                &mut ws.cursors,
                self.combine,
            );
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

/// Split `items` at the LHS index: the LHS item mutably, plus a lookup
/// for every other item — what an in-place term reads while the kernel
/// writes the LHS. Looking up the LHS itself panics: a term that reads its
/// statement's LHS array is always packed.
pub(crate) fn split_lhs<'a, T>(
    items: &'a mut [T],
    lhs: usize,
) -> (&'a mut T, impl Fn(usize) -> &'a T + 'a) {
    let (before, rest) = items.split_at_mut(lhs);
    let (out, after) = rest.split_first_mut().expect("LHS index in range");
    let (before, after) = (&*before, &*after);
    (out, move |a| if a < lhs { &before[a] } else { &after[a - lhs - 1] })
}

/// Local pack for one processor: block-copy into each term's operand
/// buffer every gather run whose source shard is local to the caller —
/// `shards(array)(src)` returns it, `None` for a shard the caller cannot
/// read — except the own-shard runs of in-place terms (see
/// [`TermSchedule::in_place`]), which the kernel reads where they lie.
/// A backend reads only the processor's own shards, so it packs the own
/// runs of packed terms and leaves the ghosts to its exchange;
/// [`ExecPlan::execute_seq_with`] reads every shard and packs the ghosts
/// in the same pass over the runs. The lookup is resolved once per term,
/// leaving one cheap call per run (a CYCLIC(1) gather has a run per
/// element).
pub(crate) fn pack_local_runs<'a, F: Fn(u32) -> Option<&'a [f64]>>(
    pp: &ProcPlan,
    shards: impl Fn(usize) -> F,
    bufs: &mut [Vec<f64>],
) {
    let me = pp.proc.zero_based() as u32;
    for (ts, buf) in pp.terms.iter().zip(bufs) {
        let shard = shards(ts.array);
        let skip_own = ts.in_place;
        for r in &ts.runs {
            if skip_own && r.src == me {
                continue;
            }
            let Some(src) = shard(r.src) else { continue };
            let dst = &mut buf[r.dst_off..r.dst_off + r.len];
            match (dst, &src[r.src_off..r.src_off + r.len]) {
                // a CYCLIC(1) gather is all one-element runs: no memcpy call
                ([d], [x]) => *d = *x,
                (dst, src) => dst.copy_from_slice(src),
            }
        }
    }
}

/// Longest chunk the kernel folds from more than one term at once, so the
/// LHS chunk stays in L1 across the per-term passes when no in-place run
/// boundary cuts it sooner. Without the cap, the `mixed_chain_1d`
/// benchmark workload measured 0.76–0.80 ms of compute per step against
/// 0.69–0.73 with it (three traced runs each, 2-vCPU host). A one-term
/// statement makes one pass, and cutting its copy only adds calls.
const MAX_CHUNK: usize = 1024;

/// Compute phase for one processor: combine the operands into its LHS
/// local buffer `out`, one contiguous chunk at a time.
///
/// The kernel walks the store runs and cuts a chunk wherever an in-place
/// term's current gather run ends (and at [`MAX_CHUNK`] when it folds
/// several terms), so within a
/// chunk every term is one contiguous slice: an in-place term's own-shard
/// run is read from `own(array)` — the processor's shard of that array —
/// and every other position from the term's packed buffer in `bufs`.
/// Each chunk is folded term by term in statement order (copy the first,
/// then `+=` / `max` the rest, `/ n` for an average), the same left fold
/// as [`Combine::apply`], so results are bit-identical to packing every
/// operand. `cursors` is caller-owned scratch holding each term's current
/// gather run (at least one slot per term), so the kernel never
/// allocates.
pub(crate) fn compute_proc<'a>(
    pp: &ProcPlan,
    out: &mut [f64],
    own: impl Fn(usize) -> &'a [f64],
    bufs: &[Vec<f64>],
    cursors: &mut [usize],
    combine: Combine,
) {
    let me = pp.proc.zero_based() as u32;
    let cursors = &mut cursors[..pp.terms.len()];
    cursors.fill(0);
    let n = pp.terms.len() as f64;
    let max_chunk = if pp.terms.len() > 1 { MAX_CHUNK } else { usize::MAX };
    // store runs ascend in position, so each cursor only moves forward
    for r in &pp.lhs_runs {
        let (mut pos, end) = (r.pos, r.pos + r.len);
        while pos < end {
            let mut len = (end - pos).min(max_chunk);
            let terms = pp.terms.iter().zip(cursors.iter_mut());
            for (ts, c) in terms.filter(|(ts, _)| ts.in_place) {
                while ts.runs[*c].dst_off + ts.runs[*c].len <= pos {
                    *c += 1;
                }
                let run = &ts.runs[*c];
                len = len.min(run.dst_off + run.len - pos);
            }
            let dst = &mut out[r.dst_off + (pos - r.pos)..][..len];
            for (t, (ts, &c)) in pp.terms.iter().zip(cursors.iter()).enumerate() {
                let src = match ts.in_place.then(|| &ts.runs[c]) {
                    Some(run) if run.src == me => {
                        &own(ts.array)[run.src_off + (pos - run.dst_off)..][..len]
                    }
                    _ => &bufs[t][pos..pos + len],
                };
                match (combine, t) {
                    (Combine::Max, 0) => {
                        // fold from −∞ exactly like `Combine::apply`
                        for (o, x) in dst.iter_mut().zip(src) {
                            *o = f64::NEG_INFINITY.max(*x);
                        }
                    }
                    (Combine::Max, _) => {
                        for (o, x) in dst.iter_mut().zip(src) {
                            *o = o.max(*x);
                        }
                    }
                    (_, 0) => dst.copy_from_slice(src),
                    // Sum and Average (validation rejects multi-term Copy)
                    _ => {
                        for (o, x) in dst.iter_mut().zip(src) {
                            *o += x;
                        }
                    }
                }
            }
            if combine == Combine::Average {
                for o in dst.iter_mut() {
                    *o /= n;
                }
            }
            pos += len;
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

    /// `(elements, runs)` of processor schedule `pp`'s own-shard gathers
    /// for term `t`.
    fn own_runs(pp: &ProcPlan, t: usize) -> (usize, usize) {
        let me = pp.proc.zero_based() as u32;
        pp.terms[t]
            .runs
            .iter()
            .filter(|r| r.src == me)
            .fold((0, 0), |(e, n), r| (e + r.len, n + 1))
    }

    #[test]
    fn in_place_rule() {
        // §8.1.1 PR = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N) under
        // (BLOCK, BLOCK): every own-shard run is a column stretch of about
        // N/2 elements, so every term of every processor goes in place
        let n = 64i64;
        let mut ds = DataSpace::new(4);
        ds.declare_processors("G", IndexDomain::of_shape(&[2, 2]).unwrap()).unwrap();
        let mut arrays = Vec::new();
        for (name, lo) in [("P", [1, 1]), ("U", [0, 1]), ("V", [1, 0])] {
            let dom = IndexDomain::standard(&[(lo[0], n), (lo[1], n)]).unwrap();
            let id = ds.declare(name, dom).unwrap();
            let spec = DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G");
            ds.distribute(id, &spec).unwrap();
            arrays.push(DistArray::new(name, ds.effective(id).unwrap(), 4, 1.0));
        }
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let sec = |a: (i64, i64), b: (i64, i64)| {
            Section::from_triplets(vec![span(a.0, a.1), span(b.0, b.1)])
        };
        let stmt = Assignment::new(
            0,
            sec((1, n), (1, n)),
            vec![
                Term::new(1, sec((0, n - 1), (1, n))),
                Term::new(1, sec((1, n), (1, n))),
                Term::new(2, sec((1, n), (0, n - 1))),
                Term::new(2, sec((1, n), (1, n))),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &stmt).unwrap();
        for pp in plan.per_proc() {
            assert!(pp.terms.iter().all(|ts| ts.in_place), "{}", pp.proc);
        }

        // a CYCLIC(1)-fed term gathers one-element own runs: packed
        let arrays = setup(32, 4, &[FormatSpec::Block, FormatSpec::Cyclic(1)]);
        let plan = ExecPlan::inspect(&arrays, &shift_stmt(32, &arrays)).unwrap();
        for pp in plan.per_proc() {
            assert_eq!(own_runs(pp, 0).0, own_runs(pp, 0).1, "one-element runs");
            assert!(!pp.terms[0].in_place, "{}", pp.proc);
        }

        // an all-ghost term has nothing to read in place: A(1:32) = B(33:64)
        // on 2 processors is one remote run of 32 on p1
        let arrays = setup(64, 2, &[FormatSpec::Block, FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let far = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 32)]),
            vec![Term::new(1, Section::from_triplets(vec![span(33, 64)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &far).unwrap();
        let p1 = &plan.per_proc()[0];
        assert_eq!((own_runs(p1, 0), p1.terms[0].ghost_elements), ((0, 0), 32));
        assert!(!p1.terms[0].in_place);

        // a term reading its own LHS array is packed however long its runs
        let arrays = setup(64, 2, &[FormatSpec::Block]);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let alias = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 64)]),
            vec![Term::new(0, Section::from_triplets(vec![span(1, 63)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        for pp in ExecPlan::inspect(&arrays, &alias).unwrap().per_proc() {
            assert!(own_runs(pp, 0).0 >= 31);
            assert!(!pp.terms[0].in_place, "{}", pp.proc);
        }

        // the boundary: A = B with A BLOCK and B GENERAL_BLOCK(7, 9) on 2
        // processors. p1 computes A(1:8) and owns B(1:7) — one run one
        // element short of the threshold — while p2 computes A(9:16) from
        // its own B(9:16), a run of exactly the threshold
        let k = IN_PLACE_MIN_RUN as i64;
        let fmts = [FormatSpec::Block, FormatSpec::GeneralBlockSizes(vec![k - 1, k + 1])];
        let arrays = setup(2 * IN_PLACE_MIN_RUN, 2, &fmts);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        let copy = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 2 * k)]),
            vec![Term::new(1, Section::from_triplets(vec![span(1, 2 * k)]))],
            Combine::Copy,
            &doms,
        )
        .unwrap();
        let plan = ExecPlan::inspect(&arrays, &copy).unwrap();
        let (p1, p2) = (&plan.per_proc()[0], &plan.per_proc()[1]);
        assert_eq!(own_runs(p1, 0), (IN_PLACE_MIN_RUN - 1, 1));
        assert!(!p1.terms[0].in_place, "mean {} < {IN_PLACE_MIN_RUN}: packed", k - 1);
        assert_eq!(own_runs(p2, 0), (IN_PLACE_MIN_RUN, 1));
        assert!(p2.terms[0].in_place, "mean exactly {IN_PLACE_MIN_RUN}: in place");
        let mut arrays = arrays;
        let expect = dense_reference(&arrays, &copy);
        plan.execute_seq(&mut arrays);
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
