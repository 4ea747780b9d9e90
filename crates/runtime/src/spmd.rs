//! A true message-passing SPMD executor: the [`ChannelsBackend`].
//!
//! Each simulated processor runs as a **long-lived worker thread** that
//! owns only its local shards (one buffer per array) plus its ghost
//! regions for the plan being executed. Data moves between workers
//! exclusively as packed messages over channels — no worker ever reads
//! another worker's buffer, which is what finally *validates* that the
//! compiled schedules (and the paper's statically-computed communication
//! sets behind them) are sufficient for a real distributed-memory
//! machine.
//!
//! One timestep ([`ExchangeBackend::step`]):
//!
//! 1. the driver moves each processor's local buffers *by value* into its
//!    worker (an ownership handoff — pointer moves, no copying), together
//!    with the [`ProgramPlan`] and the timestep's effective-send mask;
//! 2. per superstep, every worker packs the own-shard runs of its packed
//!    terms (in-place terms are read by the kernel where they lie, see
//!    [`crate::plan`]), then packs **one message per outgoing coalesced pair**
//!    hoisted to the phase and ships it; spent message buffers are
//!    recycled through a shared free-list, so warm steps reuse wire
//!    buffers instead of growing the heap;
//! 3. every worker receives exactly the messages its kernels read
//!    (checking each physically received buffer's length against the
//!    mask — a damaged payload, or sender and receiver executing
//!    different plans, surfaces as a typed [`ExchangeError`] before any
//!    garbage is unpacked), unpacks them into its packed operand buffers
//!    (kept across timesteps, per worker and per plan of the timestep),
//!    and computes into its own LHS shards;
//! 4. the driver collects the shards back and reinstalls them. The
//!    schedule itself was already cross-checked pair for pair against the
//!    independent region-algebraic [`CommAnalysis`](crate::CommAnalysis)
//!    at inspect time (see [`ExecPlan::inspect`](crate::ExecPlan::inspect)).
//!
//! Workers persist across timesteps (and across plans — any plan with
//! the same processor count reuses them), so iterated programs pay thread
//! spawn cost **once**, not per timestep.
//!
//! ## Failure handling
//!
//! A timestep that cannot complete — a worker died (crash or injected
//! kill), a message was lost or arrived damaged, the fleet wedged — no
//! longer aborts the process. The worker that *detects* the problem
//! reports it to the driver as a typed [`ExchangeError`] (a worker whose
//! peer vanished reports that peer's rank; the driver's completion scan
//! pins silent deaths by polling thread handles); the driver then raises
//! the shutdown flag so blocked peers abandon, drains whatever completed
//! shards still come back during a short grace window, tears the fleet
//! down, and returns the error. The next timestep respawns a fresh fleet
//! automatically — the spawn-generation bump tells the dirty-tracking
//! state its workers' ghost buffers are gone — and the caller restores
//! array state from a checkpoint and replays (see
//! [`Session::checkpoint`](crate::Session::checkpoint)). A dead worker
//! takes the shards in its custody with it, which is exactly what a
//! crashed distributed-memory node does: recovery is restore-and-replay,
//! never patch-up.

use crate::array::DistArray;
use crate::backend::{ExchangeBackend, ExchangeError};
use crate::fault::{FaultPlan, FaultSwitch, SendAction};
use crate::fuse::{BufferDomain, FusedState, ProgramPlan};
use crate::plan::{compute_proc, pack_local_runs, split_lhs};
use crate::workspace::{term_count, FusedWorkspace};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// One timestep's work order for a worker: the plan, the timestep's
/// effective-send mask (shared by every worker, so sender and receiver
/// agree on which units ride the wire), and the worker's shards (local
/// buffer of every array), moved in by value.
#[derive(Debug)]
struct Cmd {
    plan: Arc<ProgramPlan>,
    eff: Arc<Vec<bool>>,
    /// Mask rebuild stamp from [`FusedState`] — workers re-derive their
    /// per-pair effective totals only when it moves.
    eff_version: u64,
    shards: Vec<Vec<f64>>,
    /// Backend superstep counter at dispatch (workers use it to stamp
    /// errors and to match injected faults).
    step: u64,
}

/// A worker's completed superstep: its shards moved back to the driver,
/// or the typed failure it detected (its own shards are then lost with
/// it, exactly as a crashed node's would be).
#[derive(Debug)]
struct Done {
    proc: usize,
    result: Result<Vec<Vec<f64>>, ExchangeError>,
    /// Wall-nanoseconds this worker spent in its compute kernels during
    /// the step — the measured per-processor load sample the adaptive
    /// controller consumes (see [`ExchangeBackend::rank_compute_ns`]).
    compute_ns: u64,
}

/// A packed message on the wire.
#[derive(Debug)]
struct Msg {
    from: u32,
    /// Index of the [`FusedPair`](crate::FusedPair) the payload belongs to.
    pair: u32,
    data: Vec<f64>,
}

/// Shared free-list of spent message buffers: receivers return unpacked
/// buffers here, senders take them back before allocating fresh ones —
/// the message-passing analogue of persistent MPI requests.
type BufferPool = Arc<Mutex<Vec<Vec<f64>>>>;

/// Lock the buffer pool, recovering from a poisoned `Mutex`. The pool
/// holds only spent wire buffers (plain `Vec<f64>`s with no invariant
/// between them), so the state behind a poisoned lock is always valid —
/// recovering via [`PoisonError::into_inner`] keeps one worker panic
/// (or an injected [`crate::Fault::PoisonPool`]) from cascading into
/// every later pool access fleet-wide.
fn pool_lock(pool: &BufferPool) -> MutexGuard<'_, Vec<Vec<f64>>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deliberately poison the buffer-pool `Mutex` for an injected
/// [`crate::Fault::PoisonPool`]: panic while holding the guard, catching
/// the unwind so only the lock — not the worker — is damaged. The panic
/// message lands on stderr by design; it is the observable trace that
/// the fault fired.
fn poison_pool(pool: &BufferPool) {
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = pool_lock(pool);
        panic!("injected: poisoning the SPMD buffer pool");
    }));
}

/// How long the driver waits for worker supersteps by default before
/// concluding the fleet is wedged (a lost message or a schedule bug, not
/// back-pressure: channels are unbounded, so a correct superstep cannot
/// deadlock). Tunable per backend via
/// [`ChannelsBackend::set_step_timeout`].
const WORKER_TIMEOUT: Duration = Duration::from_secs(120);

/// After a failure is detected, how long the driver keeps draining
/// completions so surviving workers' shards are reinstalled rather than
/// dropped (blocked workers notice the shutdown flag within their 50ms
/// poll slice, so this comfortably covers the stragglers).
const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// A worker's buffers for one [`ProgramPlan`], persistent across
/// timesteps: the per-statement packed operand buffers ghost-region reuse
/// relies on (`packed[s][t]` mirrors the shared path's `FusedWorkspace`;
/// a fresh set starts as zeros, which never reach a kernel because the
/// driver starts every new plan all-dirty) and the cached per-pair
/// effective totals.
#[derive(Debug)]
struct PlanBuffers {
    /// [`ProgramPlan::id`] of the plan the buffers are shaped for.
    id: u64,
    /// The plan itself, held weakly: once the plan cache drops it, the
    /// set is evicted on the next miss.
    plan: Weak<ProgramPlan>,
    packed: Vec<Vec<Vec<f64>>>,
    eff_elems: Vec<usize>,
    /// Mask version the cached `eff_elems` were computed for — steady
    /// warm timesteps reuse them without rescanning the fused segments.
    eff_version: Option<u64>,
}

/// Per-worker fused-replay scratch: one [`PlanBuffers`] per live plan (a
/// per-statement timestep runs one plan per statement, and each keeps its
/// buffers), the kernel's run cursors, and per-timestep arrival
/// bookkeeping.
#[derive(Debug, Default)]
struct FusedScratch {
    sets: Vec<PlanBuffers>,
    cursors: Vec<usize>,
    arrived: Vec<bool>,
}

impl FusedScratch {
    /// The buffer set for `plan`, built on first use (dropping the sets of
    /// plans nobody holds any more) and reused by every later timestep.
    fn buffers(&mut self, plan: &Arc<ProgramPlan>, me: usize) -> usize {
        if let Some(k) = self.sets.iter().position(|b| b.id == plan.id()) {
            return k;
        }
        self.sets.retain(|b| b.plan.strong_count() > 0);
        let terms = plan.plans().iter().map(|p| term_count(p)).max().unwrap_or(0);
        if self.cursors.len() < terms {
            self.cursors.resize(terms, 0);
        }
        self.sets.push(PlanBuffers {
            id: plan.id(),
            plan: Arc::downgrade(plan),
            packed: plan
                .plans()
                .iter()
                .map(|p| {
                    p.per_proc()[me].terms.iter().map(|t| vec![0.0f64; t.elements]).collect()
                })
                .collect(),
            eff_elems: Vec::new(),
            eff_version: None,
        });
        self.sets.len() - 1
    }
}

/// Everything a worker thread needs besides the work order itself —
/// bundled so the superstep bodies stay parameter-light.
struct WorkerCtx {
    me: usize,
    inbox: Receiver<Msg>,
    peers: Vec<Sender<Msg>>,
    pool: BufferPool,
    shutdown: Arc<AtomicBool>,
    faults: Option<Arc<FaultSwitch>>,
}

impl WorkerCtx {
    /// Consult the fault switch for this outgoing message.
    fn send_action(&self, receiver: u32, step: u64) -> SendAction {
        self.faults
            .as_ref()
            .map_or(SendAction::Deliver, |sw| sw.on_send(self.me as u32, receiver, step))
    }

    /// Receive one message, abandoning on fleet shutdown (`None`).
    fn recv(&self) -> Option<Msg> {
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(50)) {
                Ok(m) => return Some(m),
                Err(_) if self.shutdown.load(Ordering::Relaxed) => return None,
                Err(_) => continue,
            }
        }
    }

    /// Pack `data` for `receiver`, apply any injected message fault, and
    /// ship. `Ok(false)` means the superstep must be abandoned (fleet
    /// shutting down); an `Err` is a failure this worker detected (a
    /// vanished peer is reported by rank — its inbox died with it).
    fn ship(&self, receiver: u32, pair: u32, mut data: Vec<f64>, step: u64)
        -> Result<bool, ExchangeError>
    {
        match self.send_action(receiver, step) {
            SendAction::Drop => {
                pool_lock(&self.pool).push(data);
                return Ok(true); // silently lost: the receiver will wedge
            }
            SendAction::Corrupt => {
                data.pop();
            }
            SendAction::Delay(ms) => std::thread::sleep(Duration::from_millis(ms)),
            SendAction::Deliver => {}
        }
        if self.peers[receiver as usize]
            .send(Msg { from: self.me as u32, pair, data })
            .is_err()
        {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(false); // orderly teardown, not a death
            }
            return Err(ExchangeError::WorkerDied { rank: receiver, step });
        }
        Ok(true)
    }
}

/// One whole fused timestep on a worker: run the [`ProgramPlan`]'s
/// supersteps **without global barriers** — pack the superstep's local
/// runs, ship every outgoing fused pair *hoisted* to this phase (only its
/// effective segments; an all-clean pair sends nothing and the receiver,
/// holding the same mask, skips it too), unpack whatever has arrived
/// (messages for later supersteps are welcome early — remote and local
/// runs fill disjoint buffer positions), block only on the arrivals this
/// superstep's kernels actually read, then compute. A pair packed at an
/// earlier phase than its home superstep is therefore in flight while
/// the intervening supersteps compute — the pack/exchange-overlap leg of
/// the fusion design. Returns `Ok(false)` iff abandoned on shutdown;
/// `Err` is a detected failure.
#[allow(clippy::too_many_arguments)]
fn run_fused_step(
    ctx: &WorkerCtx,
    step: u64,
    plan: &Arc<ProgramPlan>,
    eff: &[bool],
    eff_version: u64,
    shards: &mut [Vec<f64>],
    scratch: &mut FusedScratch,
    compute_ns: &mut u64,
) -> Result<bool, ExchangeError> {
    let me = ctx.me;
    let me32 = me as u32;
    let set = scratch.buffers(plan, me);
    let FusedScratch { sets, cursors, arrived } = scratch;
    let PlanBuffers { packed, eff_elems, eff_version: cached, .. } = &mut sets[set];
    arrived.clear();
    arrived.resize(plan.pairs().len(), false);
    if *cached != Some(eff_version) {
        eff_elems.clear();
        eff_elems.extend((0..plan.pairs().len()).map(|k| plan.pair_eff_elements(k, eff)));
        *cached = Some(eff_version);
    }

    for phase in 0..plan.supersteps().len() {
        // pack this superstep's packed terms' own runs from this worker's
        // own shards
        for &s in &plan.supersteps()[phase].stmts {
            let own = |a: usize| {
                let shard = &shards[a][..];
                move |src: u32| (src == me32).then_some(shard)
            };
            pack_local_runs(&plan.plans()[s].per_proc()[me], own, &mut packed[s]);
        }
        // ship every outgoing pair hoisted to this phase
        for (k, pair) in plan.pairs().iter().enumerate() {
            if pair.pack_phase != phase || pair.sender != me32 || eff_elems[k] == 0 {
                continue;
            }
            let mut data = pool_lock(&ctx.pool).pop().unwrap_or_default();
            data.clear();
            data.reserve(eff_elems[k]);
            // a pair that ships whole (always, without ghost reuse) skips
            // the per-segment mask lookup
            let whole = eff_elems[k] == pair.elements;
            for seg in pair.segments.iter().filter(|s| whole || eff[s.unit]) {
                data.extend_from_slice(&shards[seg.array][seg.src_off..seg.src_off + seg.len]);
            }
            if !ctx.ship(pair.receiver, k as u32, data, step)? {
                return Ok(false);
            }
        }
        // block until every pair this superstep's kernels read has
        // arrived, unpacking arrivals (from any phase) as they come in
        loop {
            let waiting = plan.pairs().iter().enumerate().any(|(k, p)| {
                p.superstep == phase
                    && p.receiver == me32
                    && eff_elems[k] > 0
                    && !arrived[k]
            });
            if !waiting {
                break;
            }
            let Some(Msg { from, pair: k, data }) = ctx.recv() else {
                return Ok(false); // shutdown mid-timestep
            };
            let k = k as usize;
            // a pair delivered to a worker whose schedule doesn't receive
            // it is a routing failure, not corruption
            let Some(pair) = plan.pairs().get(k) else {
                return Err(ExchangeError::Misrouted { rank: me32, step });
            };
            if (pair.sender, pair.receiver) != (from, me32) {
                return Err(ExchangeError::Misrouted { rank: me32, step });
            }
            // sender and receiver hold the same mask, so a length
            // mismatch means the payload was damaged in flight or they
            // executed different fused plans
            if data.len() != eff_elems[k] {
                return Err(ExchangeError::CorruptMessage {
                    sender: from,
                    receiver: me32,
                    step,
                    got: data.len(),
                    expected: eff_elems[k],
                });
            }
            let mut off = 0usize;
            let whole = eff_elems[k] == pair.elements;
            let (mut stmt, mut bufs): (usize, &mut [Vec<f64>]) = (usize::MAX, &mut []);
            for seg in pair.segments.iter().filter(|s| whole || eff[s.unit]) {
                if seg.stmt != stmt {
                    stmt = seg.stmt;
                    bufs = &mut packed[stmt];
                }
                bufs[seg.term][seg.dst_off..seg.dst_off + seg.len]
                    .copy_from_slice(&data[off..off + seg.len]);
                off += seg.len;
            }
            arrived[k] = true;
            pool_lock(&ctx.pool).push(data);
        }
        // compute this superstep's statements into this worker's shards
        // (timed — the per-processor load sample reported back with the
        // completion)
        let t0 = Instant::now();
        for &s in &plan.supersteps()[phase].stmts {
            let sp = &plan.plans()[s];
            let (out, operand) = split_lhs(shards, sp.lhs());
            compute_proc(
                &sp.per_proc()[me],
                out,
                |a| &operand(a)[..],
                &packed[s],
                cursors,
                sp.combine(),
            );
        }
        *compute_ns += t0.elapsed().as_nanos() as u64;
    }
    Ok(true)
}

fn worker_loop(ctx: WorkerCtx, cmds: Receiver<Cmd>, done: Sender<Done>) {
    // per-worker packed operand buffers, reused across timesteps
    let mut scratch = FusedScratch::default();
    while let Ok(Cmd { plan, eff, eff_version, mut shards, step }) = cmds.recv() {
        if let Some(sw) = &ctx.faults {
            if sw.kill(ctx.me as u32, step) {
                // injected crash: die silently, taking the shards just
                // handed over with us — the driver's completion scan must
                // detect the death, exactly as it would a real one
                return;
            }
            if sw.poison(ctx.me as u32, step) {
                poison_pool(&ctx.pool);
            }
        }
        let mut compute_ns = 0u64;
        let result = match run_fused_step(
            &ctx, step, &plan, &eff, eff_version, &mut shards, &mut scratch, &mut compute_ns,
        ) {
            Ok(true) => Ok(shards),
            Ok(false) => return, // shutdown mid-timestep: no Done
            Err(e) => Err(e),
        };
        let failed = result.is_err();
        if done.send(Done { proc: ctx.me, result, compute_ns }).is_err() || failed {
            // driver gone, or this worker just reported a failure: its
            // packed buffers may hold a half-unpacked step, and the
            // driver tears the fleet down on any failure anyway
            return;
        }
    }
}

/// The message-passing SPMD backend (see module docs). Workers are
/// spawned lazily on the first superstep and persist until the backend is
/// dropped; a plan over a different processor count replaces the fleet,
/// as does the first superstep after a failed one.
pub struct ChannelsBackend {
    np: usize,
    cmd_txs: Vec<Sender<Cmd>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    done_rx: Option<Receiver<Done>>,
    pool: BufferPool,
    /// Set (before the command channels drop) when the fleet is being
    /// torn down, so a worker blocked mid-superstep on its inbox abandons
    /// instead of waiting for a message that will never arrive.
    shutdown: Arc<AtomicBool>,
    /// Armed fault injection, cloned into every worker at spawn.
    faults: Option<Arc<FaultSwitch>>,
    timeout: Duration,
    bytes_sent: u64,
    workers_spawned: u64,
    steps: u64,
    /// Per-rank compute nanoseconds reported by the workers for the last
    /// completed step (see [`ExchangeBackend::rank_compute_ns`]).
    rank_ns: Vec<u64>,
}

impl Default for ChannelsBackend {
    fn default() -> Self {
        ChannelsBackend::new()
    }
}

impl std::fmt::Debug for ChannelsBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelsBackend")
            .field("workers", &self.cmd_txs.len())
            .field("workers_spawned", &self.workers_spawned)
            .field("steps", &self.steps)
            .field("bytes_sent", &self.bytes_sent)
            .finish_non_exhaustive()
    }
}

impl ChannelsBackend {
    /// A backend with no workers yet (they spawn on the first superstep).
    pub fn new() -> Self {
        ChannelsBackend {
            np: 0,
            cmd_txs: Vec::new(),
            handles: Vec::new(),
            done_rx: None,
            pool: Arc::new(Mutex::new(Vec::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
            faults: None,
            timeout: WORKER_TIMEOUT,
            bytes_sent: 0,
            workers_spawned: 0,
            steps: 0,
            rank_ns: Vec::new(),
        }
    }

    /// Worker threads spawned over the backend's lifetime — stays at the
    /// processor count across warm supersteps (the persistent-worker
    /// contract `zero_alloc_replay` pins). Grows by `np` on every fleet
    /// respawn: a different processor count, or recovery after a failed
    /// superstep.
    pub fn workers_spawned(&self) -> u64 {
        self.workers_spawned
    }

    /// Supersteps *completed* so far (a failed superstep is not counted —
    /// it never happened as far as the trajectory is concerned, and a
    /// replay of the same timestep reuses its step number with the
    /// one-shot fault already spent).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Live worker count (0 before the first superstep, and 0 again
    /// after a failure tears the fleet down).
    pub fn workers(&self) -> usize {
        self.cmd_txs.len()
    }

    /// Replace the wedge-detection timeout (default 120s): how long the
    /// driver waits without any worker completing before declaring the
    /// superstep [`ExchangeError::Wedged`]. Fault-injection tests dial
    /// this down so a dropped message is detected in milliseconds.
    pub fn set_step_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout.max(Duration::from_millis(1));
    }

    fn ensure_workers(&mut self, np: usize) {
        if self.np == np && !self.cmd_txs.is_empty() {
            return;
        }
        self.shutdown();
        self.shutdown = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = unbounded();
        let mut inbox_rxs = Vec::with_capacity(np);
        let mut peer_txs = Vec::with_capacity(np);
        for _ in 0..np {
            let (tx, rx) = unbounded();
            peer_txs.push(tx);
            inbox_rxs.push(rx);
        }
        for (me, inbox) in inbox_rxs.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = unbounded();
            let ctx = WorkerCtx {
                me,
                inbox,
                peers: peer_txs.clone(),
                pool: self.pool.clone(),
                shutdown: self.shutdown.clone(),
                faults: self.faults.clone(),
            };
            let done = done_tx.clone();
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("hpf-spmd-{}", me + 1))
                    .spawn(move || worker_loop(ctx, cmd_rx, done))
                    .expect("spawn SPMD worker"),
            );
            self.cmd_txs.push(cmd_tx);
        }
        self.done_rx = Some(done_rx);
        self.np = np;
        self.workers_spawned += np as u64;
    }

    /// Collect `np` completed work orders and reinstall their shards.
    ///
    /// On the first sign of failure — a worker-reported [`ExchangeError`],
    /// a thread found dead without a completion, a disconnected completion
    /// channel, or no progress within the step timeout — the driver raises
    /// the shutdown flag (so blocked peers abandon), keeps draining
    /// completions for a short grace window to reinstall surviving
    /// shards, tears the fleet down, and returns the failure. The arrays
    /// then hold a *partial* timestep (dead workers' shards are gone) and
    /// must be reloaded from a checkpoint — see [`crate::ckpt`].
    fn collect_done(
        &mut self,
        arrays: &mut [DistArray<f64>],
        np: usize,
    ) -> Result<(), ExchangeError> {
        let step = self.steps;
        let mut failure: Option<ExchangeError> = None;
        // moved out so the completion loop can fill it while `done_rx`
        // borrows `self`; reused across steps (no warm-path allocation)
        let mut rank_ns = std::mem::take(&mut self.rank_ns);
        if rank_ns.len() != np {
            rank_ns.resize(np, 0);
        }
        rank_ns.fill(0);
        {
            let done_rx = self.done_rx.as_ref().expect("workers are running");
            let deadline = Instant::now() + self.timeout;
            let mut grace: Option<Instant> = None;
            let mut returned = vec![false; np];
            let mut outstanding = np;
            let fail = |e: ExchangeError,
                            failure: &mut Option<ExchangeError>,
                            grace: &mut Option<Instant>| {
                if failure.is_none() {
                    *failure = Some(e);
                    self.shutdown.store(true, Ordering::Relaxed);
                    *grace = Some(Instant::now() + DRAIN_GRACE);
                }
            };
            while outstanding > 0 {
                // poll in short slices so a crashed worker is reported
                // promptly by name instead of stalling the full timeout
                match done_rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(Done { proc, result, compute_ns }) => {
                        returned[proc] = true;
                        outstanding -= 1;
                        rank_ns[proc] = compute_ns;
                        match result {
                            Ok(shards) => {
                                for (a, buf) in arrays.iter_mut().zip(shards) {
                                    a.put_local(proc, buf);
                                }
                            }
                            Err(e) => fail(e, &mut failure, &mut grace),
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        fail(ExchangeError::FleetDied { step }, &mut failure, &mut grace);
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        // a finished handle while its Done is outstanding
                        // means the worker died silently (idle workers
                        // block on their command channel, they never exit)
                        if let Some(dead) = self
                            .handles
                            .iter()
                            .position(|h| h.is_finished())
                            .filter(|&i| !returned[i])
                        {
                            fail(
                                ExchangeError::WorkerDied { rank: dead as u32, step },
                                &mut failure,
                                &mut grace,
                            );
                        } else if failure.is_none() && Instant::now() >= deadline {
                            fail(
                                ExchangeError::Wedged {
                                    step,
                                    waited_ms: self.timeout.as_millis() as u64,
                                },
                                &mut failure,
                                &mut grace,
                            );
                        }
                        if grace.is_some_and(|g| Instant::now() >= g) {
                            break; // stragglers abandoned without a Done
                        }
                    }
                }
            }
        }
        self.rank_ns = rank_ns;
        match failure {
            None => Ok(()),
            Some(e) => {
                // tear the failed fleet down; the next superstep respawns
                // a fresh one (and bumps the spawn generation, which the
                // fused dirty-tracking state watches)
                self.shutdown();
                Err(e)
            }
        }
    }

    /// Stop and join the worker fleet: raise the shutdown flag (so a
    /// worker blocked mid-superstep abandons), then drop the command
    /// channels (ending each idle worker's loop) and join.
    fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.cmd_txs.clear();
        self.done_rx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.np = 0;
    }
}

impl Drop for ChannelsBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ExchangeBackend for ChannelsBackend {
    fn name(&self) -> &'static str {
        "channels"
    }

    /// One timestep across the worker fleet: ensure a fleet of the plan's
    /// processor count, open the timestep with the fleet's spawn
    /// generation (a changed generation means the workers' persistent
    /// packed buffers are gone — processor-count change *or* post-failure
    /// respawn — so every ghost unit re-ships), hand each worker its
    /// shards plus the shared effective-send mask, collect the shards
    /// back, and account the masked wire traffic (sender-side measured
    /// lengths are checked against the mask inside every worker). The
    /// [`FusedWorkspace`] is unused — each worker keeps its own packed
    /// operand buffers. Counts one step per call.
    fn step(
        &mut self,
        plan: &Arc<ProgramPlan>,
        arrays: &mut [DistArray<f64>],
        state: &mut FusedState,
        _ws: &mut FusedWorkspace,
    ) -> Result<(), ExchangeError> {
        assert!(plan.is_valid_for(arrays), "stale plan: an involved array was remapped");
        let np = plan.np();
        self.ensure_workers(np);
        state.begin_timestep(plan, arrays, BufferDomain::Channels(self.workers_spawned));
        let step = self.steps;
        // ownership handoff: every worker gets exactly its own shards
        for (p, cmd) in self.cmd_txs.iter().enumerate() {
            let shards: Vec<Vec<f64>> =
                arrays.iter_mut().map(|a| a.take_local(p)).collect();
            // a send can only fail if the worker already died; the
            // completion scan below pins and reports the death
            let _ = cmd.send(Cmd {
                plan: plan.clone(),
                eff: state.eff_arc(),
                eff_version: state.eff_version(),
                shards,
                step,
            });
        }
        self.collect_done(arrays, np)?;
        self.bytes_sent += state.last_sent() * std::mem::size_of::<f64>() as u64;
        self.steps += 1;
        Ok(())
    }

    fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    fn inject(&mut self, plan: FaultPlan) {
        self.faults = Some(Arc::new(FaultSwitch::arm(plan)));
        if !self.cmd_txs.is_empty() {
            // the running fleet was spawned without the switch: replace
            // it so every worker holds the armed plan
            self.shutdown();
        }
    }

    fn faults_fired(&self) -> usize {
        self.faults.as_ref().map_or(0, |s| s.fired())
    }

    fn rank_compute_ns(&self) -> &[u64] {
        &self.rank_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{Assignment, Combine, Term};
    use crate::cache::PlanCache;
    use crate::exec::dense_reference;
    use hpf_core::{DataSpace, DistributeSpec, FormatSpec, HpfError};
    use hpf_index::{span, IndexDomain, Section};

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
                |i| (i[0] * (k as i64 + 3) - 7) as f64,
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

    /// One per-statement timestep of `stmt` on `backend`, through the
    /// plan cache (every ghost ships, as the frozen schedule says).
    fn step(
        cache: &mut PlanCache,
        arrays: &mut [DistArray<f64>],
        stmt: &Assignment,
        backend: &mut ChannelsBackend,
    ) -> Result<(), HpfError> {
        cache.step(arrays, std::slice::from_ref(stmt), false, backend)
    }

    #[test]
    fn channels_matches_reference_and_counts_bytes() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmt = shift_stmt(48, &arrays);
        let mut cache = PlanCache::new();
        let wire = cache.plan_for(&arrays, &stmt).unwrap().message_plan().wire_bytes();
        let mut backend = ChannelsBackend::new();
        for step_no in 1..=4u64 {
            let expect = dense_reference(&arrays, &stmt);
            step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap();
            assert_eq!(arrays[0].to_dense(), expect, "step {step_no}");
            assert_eq!(backend.bytes_sent(), step_no * wire);
        }
        assert_eq!(backend.steps(), 4);
        assert_eq!(backend.workers(), 4);
        assert_eq!(backend.workers_spawned(), 4, "workers persist across steps");
    }

    #[test]
    fn different_processor_count_respawns_fleet() {
        let mut backend = ChannelsBackend::new();
        let (mut c4, mut c3) = (PlanCache::new(), PlanCache::new());
        let mut a4 = setup(32, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let s4 = shift_stmt(32, &a4);
        step(&mut c4, &mut a4, &s4, &mut backend).unwrap();
        assert_eq!(backend.workers(), 4);
        let mut a3 = setup(32, 3, &[FormatSpec::Cyclic(1), FormatSpec::Block]);
        let s3 = shift_stmt(32, &a3);
        let expect = dense_reference(&a3, &s3);
        step(&mut c3, &mut a3, &s3, &mut backend).unwrap();
        assert_eq!(a3[0].to_dense(), expect);
        assert_eq!(backend.workers(), 3);
        assert_eq!(backend.workers_spawned(), 7, "4 then 3");
        // and back on the first plan the fleet respawns again
        let expect = dense_reference(&a4, &s4);
        step(&mut c4, &mut a4, &s4, &mut backend).unwrap();
        assert_eq!(a4[0].to_dense(), expect);
        assert_eq!(backend.workers_spawned(), 11);
    }

    #[test]
    fn aliasing_shift_is_bsp_safe_over_channels() {
        // A(2:16) = A(1:15): every worker ships its messages before
        // computing, so receivers see pre-assignment values
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
        step(&mut PlanCache::new(), &mut arrays, &stmt, &mut ChannelsBackend::new()).unwrap();
        assert_eq!(arrays[0].to_dense(), expect);
    }

    /// In the shift statement's schedule over block mappings, worker 3 is
    /// a pure receiver (pairs are p→p+1), so killing it pins the death
    /// deterministically: worker 2's send fails (rank 3's inbox died) and
    /// the driver's handle scan sees rank 3 finished without a Done.
    #[test]
    fn injected_kill_surfaces_typed_error_and_replay_recovers() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(48, &arrays);
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        backend.inject(FaultPlan::parse("kill:rank=3,step=1").unwrap());
        step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap(); // step 0
        let ckpt = arrays.clone(); // stand-in for a real checkpoint
        let expect = dense_reference(&arrays, &stmt);
        let err = step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap_err();
        assert_eq!(err, ExchangeError::WorkerDied { rank: 3, step: 1 }.into());
        assert!(matches!(err, HpfError::Exchange { rank: Some(3), .. }));
        assert_eq!(backend.workers(), 0, "failed fleet must be torn down");
        assert_eq!(backend.steps(), 1, "a failed superstep never happened");
        assert_eq!(backend.faults_fired(), 1);
        // recovery: restore shards, replay — the one-shot fault is spent,
        // the fleet respawns on its own, and the answer matches
        arrays = ckpt;
        step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap();
        assert_eq!(arrays[0].to_dense(), expect);
        assert_eq!(backend.workers(), 4);
        assert_eq!(backend.workers_spawned(), 8, "one respawn after the kill");
        assert_eq!(backend.faults_fired(), 1, "replay runs clean");
    }

    #[test]
    fn injected_drop_wedges_and_times_out() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(48, &arrays);
        let mut backend = ChannelsBackend::new();
        backend.set_step_timeout(Duration::from_millis(300));
        backend.inject(FaultPlan::parse("drop:from=2,to=3,step=0").unwrap());
        let err = step(&mut PlanCache::new(), &mut arrays, &stmt, &mut backend).unwrap_err();
        assert_eq!(err, ExchangeError::Wedged { step: 0, waited_ms: 300 }.into());
        assert!(matches!(err, HpfError::Exchange { rank: None, .. }), "a lost message pins no rank");
        assert_eq!(backend.workers(), 0);
    }

    #[test]
    fn injected_corruption_is_detected_before_unpacking() {
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Block]);
        let stmt = shift_stmt(48, &arrays);
        let mut cache = PlanCache::new();
        let plan = cache.plan_for(&arrays, &stmt).unwrap();
        let expected = plan.message_plan().pair(1, 2).unwrap().elements;
        let mut backend = ChannelsBackend::new();
        backend.inject(FaultPlan::parse("corrupt:from=1,to=2,step=0").unwrap());
        let err = step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap_err();
        assert_eq!(
            err,
            ExchangeError::CorruptMessage {
                sender: 1,
                receiver: 2,
                step: 0,
                got: expected - 1,
                expected,
            }
            .into()
        );
        assert!(
            matches!(err, HpfError::Exchange { rank: Some(2), .. }),
            "corruption is pinned to the receiver"
        );
    }

    #[test]
    fn injected_delay_and_pool_poison_do_not_fail_the_step() {
        // a delayed message is a slow link, and a poisoned pool lock is
        // recovered via into_inner — both steps must still complete and
        // match the reference (one fault stays one fault)
        let mut arrays = setup(48, 4, &[FormatSpec::Block, FormatSpec::Cyclic(3)]);
        let stmt = shift_stmt(48, &arrays);
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        backend.inject(
            FaultPlan::parse("delay:from=0,to=1,step=0,ms=30; poison:rank=2,step=1")
                .unwrap(),
        );
        for _ in 0..3 {
            let expect = dense_reference(&arrays, &stmt);
            step(&mut cache, &mut arrays, &stmt, &mut backend).unwrap();
            assert_eq!(arrays[0].to_dense(), expect);
        }
        assert_eq!(backend.steps(), 3);
        assert_eq!(backend.faults_fired(), 2);
        assert_eq!(backend.workers_spawned(), 4, "no respawn: nothing failed");
    }

    fn arrays_2d(n: usize, np_side: usize) -> Vec<DistArray<f64>> {
        let np = np_side * np_side;
        let mut ds = DataSpace::new(np);
        ds.declare_processors("G", IndexDomain::of_shape(&[np_side, np_side]).unwrap())
            .unwrap();
        let mut out = Vec::new();
        for name in ["P", "U"] {
            let id = ds.declare(name, IndexDomain::of_shape(&[n, n]).unwrap()).unwrap();
            ds.distribute(
                id,
                &DistributeSpec::to(vec![FormatSpec::Block, FormatSpec::Block], "G"),
            )
            .unwrap();
            out.push(DistArray::from_fn(name, ds.effective(id).unwrap(), np, |i| {
                (i[0] * 1000 + i[1]) as f64
            }));
        }
        out
    }

    #[test]
    fn parallel_matches_sequential_1d() {
        let build = || {
            let mut ds = DataSpace::new(4);
            let a = ds.declare("A", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
            let b = ds.declare("B", IndexDomain::of_shape(&[64]).unwrap()).unwrap();
            ds.distribute(a, &DistributeSpec::new(vec![FormatSpec::Block])).unwrap();
            ds.distribute(b, &DistributeSpec::new(vec![FormatSpec::Cyclic(3)])).unwrap();
            vec![
                DistArray::from_fn("A", ds.effective(a).unwrap(), 4, |i| i[0] as f64),
                DistArray::from_fn("B", ds.effective(b).unwrap(), 4, |i| (i[0] * 7) as f64),
            ]
        };
        let mut seq = build();
        let mut par = build();
        let doms: Vec<&IndexDomain> = seq.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(1, 32)]),
            vec![
                Term::new(1, Section::from_triplets(vec![hpf_index::triplet(2, 64, 2)])),
                Term::new(0, Section::from_triplets(vec![span(33, 64)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let analysis = crate::SeqExecutor.execute(&mut seq, &stmt).unwrap();
        let mut cache = PlanCache::new();
        step(&mut cache, &mut par, &stmt, &mut ChannelsBackend::new()).unwrap();
        assert_eq!(seq[0].to_dense(), par[0].to_dense());
        assert_eq!(analysis.comm, cache.plan_for(&par, &stmt).unwrap().analysis().comm);
    }

    #[test]
    fn parallel_matches_reference_2d_stencil() {
        let n = 16;
        let mut arrays = arrays_2d(n, 2);
        let doms: Vec<&IndexDomain> = arrays.iter().map(|a| a.domain()).collect();
        // P(2:N-1, 2:N-1) = U(1:N-2, 2:N-1) + U(3:N, 2:N-1)
        let ni = n as i64;
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, ni - 1), span(2, ni - 1)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, ni - 2), span(2, ni - 1)])),
                Term::new(1, Section::from_triplets(vec![span(3, ni), span(2, ni - 1)])),
            ],
            Combine::Sum,
            &doms,
        )
        .unwrap();
        let expect = dense_reference(&arrays, &stmt);
        step(&mut PlanCache::new(), &mut arrays, &stmt, &mut ChannelsBackend::new()).unwrap();
        assert_eq!(arrays[0].to_dense(), expect);
    }

    #[test]
    fn parallel_plan_replay_matches_seq_replay() {
        let mut seq = arrays_2d(12, 2);
        let mut par = arrays_2d(12, 2);
        let doms: Vec<&IndexDomain> = seq.iter().map(|a| a.domain()).collect();
        let stmt = Assignment::new(
            0,
            Section::from_triplets(vec![span(2, 11), span(1, 12)]),
            vec![
                Term::new(1, Section::from_triplets(vec![span(1, 10), span(1, 12)])),
                Term::new(1, Section::from_triplets(vec![span(3, 12), span(1, 12)])),
            ],
            Combine::Average,
            &doms,
        )
        .unwrap();
        let plan_seq = crate::ExecPlan::inspect(&seq, &stmt).unwrap();
        let mut cache = PlanCache::new();
        let mut backend = ChannelsBackend::new();
        for _ in 0..3 {
            plan_seq.execute_seq(&mut seq);
            step(&mut cache, &mut par, &stmt, &mut backend).unwrap();
        }
        assert_eq!(seq[0].to_dense(), par[0].to_dense());
    }
}
