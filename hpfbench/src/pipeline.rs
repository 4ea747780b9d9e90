//! Drive a workload from source to digest through the public pipeline:
//! `Elaborator::run_recover` → `Lowerer::lower` → `Session::run(1)` per
//! timestep → digest → `Program::checkpoint` / `Program::restore_latest`,
//! checked against the dense oracle outside every timed region.

use crate::host;
use crate::trace::Tracer;
use crate::workloads::Workload;
use hpf_frontend::{lex_recover, parse_recover, render_diagnostics, Elaborator, Lowerer};
use hpf_index::{Idx, IndexDomain};
use hpf_machine::Machine;
use hpf_runtime::{
    apply_dense, verify_program_plan, AdaptController, AdaptPolicy, Assignment, Backend, ExecPlan,
    Program, ProgramPlan, Session,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Source → digest trajectories per untraced run: at least `REPS`, and
/// up to `MAX_REPS` for workloads whose trajectories are short. Set-up
/// time is the median over them. The first one carries the warm phase
/// and alone gives the total time: its `total_steps` warm steps make
/// set-up a minor share of it, which a median over short trajectories,
/// each mostly set-up, cannot do.
const REPS: usize = 3;
const MAX_REPS: usize = 9;
/// Checkpoint writes, then restores, at the end of a run.
const CKPT_REPS: usize = 31;
/// Fewest warm samples for a p99 with at least ten samples beyond it.
/// The warm phase runs past `--seconds` (up to twice it) until it has
/// this many undisturbed by hypervisor steal.
const MIN_SAMPLES: usize = 1000;
/// Fewest undisturbed samples a metric is taken from; below that it is
/// taken from all of them.
const MIN_CLEAN: usize = 5;

/// Timings of one kind of operation, split by whether the hypervisor
/// gave a CPU of this machine to another guest while one ran (the steal
/// counter advanced). On a shared host such a sample measures the
/// neighbours as much as the program.
#[derive(Default)]
struct Timings {
    all: Vec<f64>,
    clean: Vec<f64>,
}

impl Timings {
    fn push(&mut self, seconds: f64, stolen: bool) {
        self.all.push(seconds);
        if !stolen {
            self.clean.push(seconds);
        }
    }

    /// The undisturbed samples, or all of them when fewer than
    /// `MIN_CLEAN` were undisturbed.
    fn kept(&self) -> &[f64] {
        if self.clean.len() >= MIN_CLEAN.min(self.all.len()) {
            &self.clean
        } else {
            &self.all
        }
    }

    fn note(&self, what: &str) -> String {
        format!(
            "{what}: {} of {} overlapped hypervisor steal, {} left out",
            self.all.len() - self.clean.len(),
            self.all.len(),
            self.all.len() - self.kept().len()
        )
    }
}

/// Run `f` and time it; also say whether the steal counter advanced.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, bool) {
    let steal = host::steal_ticks();
    let t = Instant::now();
    let r = f();
    let dt = t.elapsed().as_secs_f64();
    (r, dt, host::steal_ticks() > steal)
}

/// Decisions of a session's own adapt controller that priced candidates
/// (a remap, or a refusal other than for cooldown).
fn pricings(s: &Session) -> u64 {
    s.adapt_report()
        .map_or(0, |r| r.remaps + r.refused_no_gain + r.refused_hysteresis)
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value summarises.
    pub samples: usize,
}

/// What a run prints: metrics, operation counts, and context lines.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The dense oracle, advanced lazily. A timestep that leaves the state
/// unchanged proves a fixed point, which every later timestep keeps.
struct Oracle {
    domains: Vec<IndexDomain>,
    statements: Vec<Assignment>,
    state: Vec<Vec<f64>>,
    steps: u64,
    fixed: bool,
}

impl Oracle {
    fn at(&mut self, t: u64) -> &[Vec<f64>] {
        assert!(
            t >= self.steps || self.fixed,
            "the oracle only moves forward until its fixed point"
        );
        while self.steps < t && !self.fixed {
            let before = self.state.clone();
            for s in &self.statements {
                apply_dense(&mut self.state, &self.domains, s);
            }
            self.steps += 1;
            self.fixed = self.state == before;
        }
        &self.state
    }
}

/// Per-array sums of the dense values: the run's result digest.
fn digest(program: &Program) -> Vec<f64> {
    program
        .arrays
        .iter()
        .map(|a| a.to_dense().iter().sum())
        .collect()
}

/// FNV-1a over the bits of each value: equal hashes stand for a
/// bit-for-bit equal array.
fn bits_hash(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One [`bits_hash`] per array, densifying one array at a time.
fn state_hashes(program: &Program) -> Vec<u64> {
    program
        .arrays
        .iter()
        .map(|a| bits_hash(&a.to_dense()))
        .collect()
}

/// 16 elements spread over each array, shifted by `k`: (array, index,
/// column-major position).
fn spread_elements(program: &Program, k: usize) -> Vec<(usize, Idx, usize)> {
    let mut at = Vec::new();
    for (a, array) in program.arrays.iter().enumerate() {
        let size = array.domain().size();
        for j in 0..16 {
            let lin = (j * size / 16 + k) % size;
            if let Ok(i) = array.domain().delinearize(lin) {
                at.push((a, i, lin));
            }
        }
    }
    at
}

/// A session straight after its cold step, with what its oracle needs.
struct Rep {
    session: Session,
    /// Start of the source → digest clock.
    t0: Instant,
    /// Time spent in probe calls that repeat pipeline work; subtracted
    /// from the clock.
    excluded_s: f64,
    setup_s: f64,
    statements: Vec<Assignment>,
    initial_dense: Vec<Vec<f64>>,
}

impl Rep {
    fn clock(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() - self.excluded_s
    }
}

/// Layer timings the traced run takes by calling each layer's public
/// functions directly.
#[derive(Default)]
struct Probe {
    lex_s: f64,
    parse_s: f64,
    elaborate_s: f64,
    lower_s: f64,
    elements: usize,
    inspect_s: f64,
    elem_terms: usize,
    compile_s: f64,
    verify_s: f64,
    cold_s: f64,
    supersteps: usize,
    messages_before: usize,
    messages_after: usize,
    /// Elements computed per timestep.
    elems_per_step: usize,
    /// Bytes a timestep reads and writes, computed from statement sizes.
    bytes_per_step: usize,
}

/// Runs trajectories, steps, and oracle checks, recording what it sees.
struct Runner<'a> {
    w: &'a Workload,
    tr: Tracer,
    attempted: u64,
    failed: u64,
    /// Oracle and digest comparisons made, and how many failed.
    oracle_checks: u64,
    oracle_failed: u64,
    oracle: Option<Oracle>,
    /// Drive an `AdaptController` from here instead of the session's own.
    manual_adapt: bool,
    ctrl: Option<AdaptController>,
    /// Record warm-step samples (set during the warm trajectory).
    collect: bool,
    /// Wall time of each sampled step. A step in which the session's own
    /// controller priced counts as undisturbed: that stall is the
    /// program's.
    steps: Timings,
    /// Per-step compute: the critical path (sum of ranks on sequential
    /// `SharedMem`, slowest rank on `Channels`) and the core time (sum).
    compute_ms: Vec<f64>,
    compute_core_ms: Vec<f64>,
    bytes: Vec<f64>,
    avoided: Vec<f64>,
    imbalance: Vec<f64>,
    observe_us: Vec<f64>,
    decide_s: f64,
    post_remap_ms: Vec<f64>,
    last_bytes: u64,
    last_avoided: u64,
}

impl<'a> Runner<'a> {
    fn new(w: &'a Workload, traced: bool) -> Self {
        Runner {
            w,
            tr: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            oracle_checks: 0,
            oracle_failed: 0,
            oracle: None,
            manual_adapt: false,
            ctrl: None,
            collect: false,
            steps: Timings::default(),
            compute_ms: Vec::new(),
            compute_core_ms: Vec::new(),
            bytes: Vec::new(),
            avoided: Vec::new(),
            imbalance: Vec::new(),
            observe_us: Vec::new(),
            decide_s: 0.0,
            post_remap_ms: Vec::new(),
            last_bytes: 0,
            last_avoided: 0,
        }
    }

    fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hpfbench: {}: {what} failed", self.w.name);
        }
        ok
    }

    /// Source → cold step done. With `probe`, also time lex and parse on
    /// their own and the plan layer's public functions, off the clock.
    fn start(&mut self, probe: Option<&mut Probe>, adapt: bool) -> Result<Rep, String> {
        let w = self.w;
        let mut unused = Probe::default();
        let traced = probe.is_some();
        let p = probe.unwrap_or(&mut unused);
        if traced {
            let t = Instant::now();
            self.tr.enter("frontend.lex");
            let _ = std::hint::black_box(lex_recover(&w.source));
            self.tr.exit();
            p.lex_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            self.tr.enter("frontend.parse");
            let _ = std::hint::black_box(parse_recover(&w.source));
            self.tr.exit();
            p.parse_s = t.elapsed().as_secs_f64();
        }
        let t0 = Instant::now();
        self.tr.enter("frontend.elaborate");
        let (elab, mut diags) = Elaborator::new(w.np).run_recover(&w.source);
        self.tr.exit();
        p.elaborate_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        self.tr.enter("frontend.lower");
        let (lowered, lower_diags) = Lowerer::lower(&elab);
        self.tr.exit();
        p.lower_s = t.elapsed().as_secs_f64();
        diags.extend(lower_diags);
        if !diags.is_empty() {
            return Err(render_diagnostics(&w.source, &diags));
        }
        drop(elab);
        p.elements = lowered.initial_dense.iter().map(Vec::len).sum();

        let mut excluded_s = 0.0;
        if traced {
            let t = Instant::now();
            self.plan_probe(&lowered.program, p)?;
            excluded_s = t.elapsed().as_secs_f64();
        }

        let mut session = Session::new(lowered.program).backend(w.backend);
        if adapt && !self.manual_adapt {
            session = session.adapt(AdaptPolicy::default());
        }
        self.ctrl = self
            .manual_adapt
            .then(|| AdaptController::new(AdaptPolicy::default(), Machine::simple(w.np)));
        let t = Instant::now();
        if !self.step(&mut session, "session.cold_step") {
            return Err("the cold step failed".into());
        }
        p.cold_s = t.elapsed().as_secs_f64();
        let setup_s = t0.elapsed().as_secs_f64() - excluded_s;
        Ok(Rep {
            session,
            t0,
            excluded_s,
            setup_s,
            statements: lowered.statements,
            initial_dense: lowered.initial_dense,
        })
    }

    /// `ExecPlan::inspect` per statement, `ProgramPlan::compile`, and
    /// `verify_program_plan`, on the freshly lowered arrays.
    fn plan_probe(&mut self, program: &Program, p: &mut Probe) -> Result<(), String> {
        let stmts = program.statements();
        let t = Instant::now();
        self.tr.enter("plan.inspect");
        let mut plans = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.tr.enter("plan.inspect.statement");
            plans.push(Arc::new(
                ExecPlan::inspect(&program.arrays, s).map_err(|e| e.to_string())?,
            ));
            self.tr.exit();
        }
        self.tr.exit();
        p.inspect_s = t.elapsed().as_secs_f64();
        p.elem_terms = stmts
            .iter()
            .map(|s| s.element_count() * s.terms.len())
            .sum();
        p.elems_per_step = stmts.iter().map(Assignment::element_count).sum();
        p.bytes_per_step = stmts
            .iter()
            .map(|s| s.element_count() * (s.terms.len() + 1) * 8)
            .sum();
        let t = Instant::now();
        self.tr.enter("plan.compile");
        let plan = ProgramPlan::compile(stmts, plans);
        self.tr.exit();
        p.compile_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        self.tr.enter("plan.verify");
        let report = verify_program_plan(&program.arrays, stmts, &plan);
        self.tr.exit();
        p.verify_s = t.elapsed().as_secs_f64();
        self.check(report.is_clean(), "static verification of the fused plan");
        p.supersteps = plan.supersteps().len();
        p.messages_before = plan.messages_before();
        p.messages_after = plan.messages_after();
        Ok(())
    }

    /// One timestep through `Session::run(1)`; with a manual controller,
    /// `decide` before and `observe` after, in `Session::run`'s order.
    fn step(&mut self, s: &mut Session, span: &'static str) -> bool {
        let mut remapped = false;
        if let Some(c) = &mut self.ctrl {
            self.tr.enter("adapt.decide");
            let t = Instant::now();
            let timestep = s.timestep();
            let r = c.decide(s.program_mut(), timestep);
            if self.collect {
                self.decide_s += t.elapsed().as_secs_f64();
            }
            self.tr.exit();
            match r {
                Ok(r) => remapped = r,
                Err(e) => {
                    eprintln!("hpfbench: adapt decide: {e}");
                    return self.check(false, "adapt decide");
                }
            }
        }
        let priced = pricings(s);
        self.tr.enter(span);
        let (r, dt, stolen) = timed(|| s.run(1));
        self.tr.exit();
        if let Err(e) = &r {
            eprintln!("hpfbench: step {}: {e}", s.timestep());
        }
        if !self.check(r.is_ok(), "timestep") {
            return false;
        }
        if let Some(c) = &mut self.ctrl {
            self.tr.enter("adapt.observe");
            let t = Instant::now();
            c.observe(s.program());
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.tr.exit();
            if self.collect {
                self.observe_us.push(us);
            }
        }
        if self.collect {
            self.steps.push(dt, stolen && pricings(s) == priced);
            if remapped {
                self.post_remap_ms.push(dt * 1e3);
            }
            if self.tr.is_on() {
                self.sample(s.program());
            }
        }
        true
    }

    /// Per-step layer sample from `Program::stats` / `fusion_stats`.
    fn sample(&mut self, program: &Program) {
        let st = program.stats();
        let ns = &st.rank_compute_ns;
        let compute = match self.w.backend {
            Backend::SharedMem => ns.iter().sum::<u64>(),
            Backend::Channels => ns.iter().copied().max().unwrap_or(0),
        };
        self.compute_ms.push(compute as f64 / 1e6);
        self.compute_core_ms
            .push(ns.iter().sum::<u64>() as f64 / 1e6);
        self.bytes.push((st.bytes_sent - self.last_bytes) as f64);
        self.last_bytes = st.bytes_sent;
        let avoided = program.fusion_stats().ghost_bytes_avoided();
        self.avoided.push((avoided - self.last_avoided) as f64);
        self.last_avoided = avoided;
        self.imbalance.push(st.imbalance());
    }

    fn reset_counters(&mut self, program: &Program) {
        self.last_bytes = program.stats().bytes_sent;
        self.last_avoided = program.fusion_stats().ghost_bytes_avoided();
    }

    fn oracle_at(&mut self, rep: &Rep, t: u64) -> &[Vec<f64>] {
        self.oracle
            .get_or_insert_with(|| Oracle {
                domains: rep
                    .session
                    .program()
                    .arrays
                    .iter()
                    .map(|a| a.domain().clone())
                    .collect(),
                statements: rep.statements.clone(),
                state: rep.initial_dense.clone(),
                steps: 0,
                fixed: false,
            })
            .at(t)
    }

    /// Compare every array with the oracle at timestep `t`, bit for bit.
    fn check_oracle(&mut self, rep: &Rep, t: u64) -> bool {
        let got = state_hashes(rep.session.program());
        self.check_hashes(rep, &got, t, "dense-oracle comparison")
    }

    /// Compare [`state_hashes`] taken earlier with the oracle at `t`.
    fn check_hashes(&mut self, rep: &Rep, got: &[u64], t: u64, what: &str) -> bool {
        let want: Vec<u64> = self.oracle_at(rep, t).iter().map(|v| bits_hash(v)).collect();
        self.oracle_check(got == want.as_slice(), what)
    }

    fn oracle_check(&mut self, ok: bool, what: &str) -> bool {
        self.oracle_checks += 1;
        self.oracle_failed += u64::from(!ok);
        self.check(ok, what)
    }

    fn oracle_note(&self) -> String {
        format!(
            "oracle checks: {} attempted, {} failed",
            self.oracle_checks, self.oracle_failed
        )
    }

    /// Compare a trajectory's digest with the oracle's at timestep `t`.
    fn check_digest(&mut self, rep: &Rep, digest: &[f64], t: u64) -> bool {
        let want: Vec<f64> = self
            .oracle_at(rep, t)
            .iter()
            .map(|v| v.iter().sum())
            .collect();
        self.oracle_check(digest == want.as_slice(), "digest comparison")
    }

    /// `steps` warm steps, then the digest. Returns the source → digest
    /// time, the wall time of the steps, and the digest.
    fn trajectory(&mut self, rep: &mut Rep, steps: usize) -> (f64, f64, Vec<f64>) {
        let warm = Instant::now();
        for _ in 0..steps {
            if !self.step(&mut rep.session, "session.step") {
                break;
            }
        }
        let warm_s = warm.elapsed().as_secs_f64();
        self.tr.enter("digest");
        let sums = digest(rep.session.program());
        self.tr.exit();
        (rep.clock(), warm_s, sums)
    }

    /// Write the final state `CKPT_REPS` times, each into an emptied
    /// directory (emptied off the clock, so that every write starts from
    /// the same file-system state), then restore it as often. Before each
    /// restore, off the clock, 1 is added to elements spread over every
    /// array, so that a restore which installs nothing shows; they are
    /// read back after it.
    fn checkpoints(&mut self, rep: &mut Rep, dir: &Path) -> Ckpt {
        let t_now = rep.session.timestep();
        let (mut write, mut restore, mut bytes) = (Timings::default(), Timings::default(), 0);
        let mut restored = Vec::with_capacity(CKPT_REPS);
        for _ in 0..CKPT_REPS {
            let _ = std::fs::remove_dir_all(dir);
            self.tr.enter("ckpt.write");
            let (r, dt, stolen) = timed(|| rep.session.program().checkpoint(dir, t_now));
            write.push(dt, stolen);
            self.tr.exit();
            if let Ok(r) = &r {
                bytes = r.bytes;
            }
            self.check(r.is_ok(), "checkpoint write");
        }
        for k in 0..CKPT_REPS {
            let at = spread_elements(rep.session.program(), k);
            for (a, i, _) in &at {
                let array = &mut rep.session.program_mut().arrays[*a];
                array.set(i, array.get(i) + 1.0);
            }
            self.tr.enter("ckpt.restore");
            let (r, dt, stolen) = timed(|| rep.session.program_mut().restore_latest(dir));
            restore.push(dt, stolen);
            self.tr.exit();
            self.check(r.is_ok(), "checkpoint restore");
            let arrays = &rep.session.program().arrays;
            restored.push(at.into_iter().map(|(a, i, lin)| (a, lin, arrays[a].get(&i))).collect());
        }
        let _ = std::fs::remove_dir_all(dir);
        Ckpt {
            write,
            restore,
            bytes,
            restored,
            last: state_hashes(rep.session.program()),
            timestep: t_now,
        }
    }

    /// Compare what every restore left with the oracle at the
    /// checkpoint's timestep: its perturbed elements, and after the last
    /// one the whole state. Kept apart from [`Runner::checkpoints`] so the
    /// untraced run can read its peak resident set before any oracle
    /// exists.
    fn check_restores(&mut self, rep: &Rep, c: &Ckpt) {
        for got in &c.restored {
            let want = self.oracle_at(rep, c.timestep);
            let same = got
                .iter()
                .all(|&(a, lin, v)| want[a].get(lin).map(|w| w.to_bits()) == Some(v.to_bits()));
            self.oracle_check(same, "restored elements vs dense oracle");
        }
        self.check_hashes(rep, &c.last, c.timestep, "restored state vs dense oracle");
    }
}

/// What [`Runner::checkpoints`] measured.
struct Ckpt {
    /// Seconds per write and per restore.
    write: Timings,
    restore: Timings,
    bytes: u64,
    /// The perturbed elements after each restore: (array, column-major
    /// position, value).
    restored: Vec<Vec<(usize, usize, f64)>>,
    /// [`state_hashes`] after the last restore.
    last: Vec<u64>,
    /// Timestep of the checkpointed state.
    timestep: u64,
}

fn ckpt_dir(out: &Path) -> PathBuf {
    out.join(format!("ckpt-{}", std::process::id()))
}

/// The warm trajectory and what it measured.
struct Warm {
    rep: Rep,
    total: f64,
    /// Wall time of the warm phase: the trajectory's fixed steps plus
    /// the continuation, without the digest between them.
    wall: f64,
    digest: Vec<f64>,
    cache_misses: u64,
}

/// A source → digest trajectory whose warm steps are sampled and continue
/// after the digest until the warm phase has run for `budget` seconds and
/// has `MIN_SAMPLES` undisturbed steps, or for twice `budget`.
fn warm_trajectory(d: &mut Runner, budget: f64, probe: Option<&mut Probe>) -> Result<Warm, String> {
    d.tr.enter("trajectory");
    let mut rep = d.start(probe, d.w.adapt)?;
    let misses0 = rep.session.program().cache_misses();
    d.reset_counters(rep.session.program());
    d.collect = true;
    let (total, steps_wall, digest) = d.trajectory(&mut rep, d.w.total_steps);
    d.tr.exit();
    d.tr.enter("warm_phase");
    let resumed = Instant::now();
    let clock = || steps_wall + resumed.elapsed().as_secs_f64();
    while (clock() < budget || d.steps.kept().len() < MIN_SAMPLES)
        && clock() < 2.0 * budget
        && d.step(&mut rep.session, "session.step")
    {}
    let wall = clock();
    d.tr.exit();
    d.collect = false;
    let cache_misses = rep.session.program().cache_misses() - misses0;
    Ok(Warm {
        rep,
        total,
        wall,
        digest,
        cache_misses,
    })
}

/// Source → digest trajectories, each followed by `checked_steps` more
/// steps; the digest and every step are checked against the oracle. Runs
/// `reps` of them, then more (up to `MAX_REPS` in all) while `budget`
/// seconds have not passed. Returns the set-up and total times.
fn checked_trajectories(
    d: &mut Runner,
    reps: usize,
    budget: f64,
    mut probes: Option<&mut Vec<Probe>>,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let w = d.w;
    let (mut setup, mut total) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while setup.len() < reps
        || (setup.len() + 1 < MAX_REPS && started.elapsed().as_secs_f64() < budget)
    {
        let mut probe = Probe::default();
        d.tr.enter("trajectory");
        let mut rep = d.start(probes.is_some().then_some(&mut probe), w.adapt)?;
        let (t, _, sums) = d.trajectory(&mut rep, w.traj_steps);
        d.tr.exit();
        setup.push(rep.setup_s);
        total.push(t);
        if let Some(p) = probes.as_deref_mut() {
            p.push(probe);
        }
        let mut steps = 1 + w.traj_steps as u64;
        d.check_digest(&rep, &sums, steps);
        d.check_oracle(&rep, steps);
        for _ in 0..w.checked_steps {
            if !d.step(&mut rep.session, "session.step") {
                break;
            }
            steps += 1;
            d.check_oracle(&rep, steps);
        }
    }
    Ok((setup, total))
}

/// The untraced run: every end-to-end metric. The warm trajectory runs
/// first so that the peak resident set is read before any oracle exists.
pub fn run(w: &Workload, seconds: f64, out: &Path) -> Result<Report, String> {
    let mut d = Runner::new(w, false);
    let mut warm = warm_trajectory(&mut d, seconds, None)?;
    let ckpt = d.checkpoints(&mut warm.rep, &ckpt_dir(out));
    let peak_rss = host::peak_rss_mb();
    d.check_digest(&warm.rep, &warm.digest, 1 + w.total_steps as u64);
    d.check_oracle(&warm.rep, warm.rep.session.timestep());
    d.check_restores(&warm.rep, &ckpt);
    let mut notes = vec![];
    if let Some(a) = warm.rep.session.adapt_report() {
        notes.push(format!(
            "adapt: {} remap(s), {} element(s) moved, refusals no-gain/hysteresis/cooldown {}/{}/{}",
            a.remaps, a.remap_elements, a.refused_no_gain, a.refused_hysteresis, a.refused_cooldown
        ));
    }
    notes.push(format!(
        "warm session: {} timesteps, {} SPMD worker thread(s) spawned, {} plan-cache miss(es) \
         in the warm phase",
        warm.rep.session.timestep(),
        warm.rep.session.program().spmd_workers_spawned(),
        warm.cache_misses
    ));
    let mut setup = vec![warm.rep.setup_s];
    drop(warm.rep);
    setup.extend(checked_trajectories(&mut d, REPS - 1, seconds / 2.0, None)?.0);
    notes.push(d.oracle_note());

    let all = d.steps.all.len();
    notes.push(format!(
        "warm phase: {all} steps in {:.3} s, {:.3} steps/s with everything included",
        warm.wall,
        all as f64 / warm.wall
    ));
    notes.push(d.steps.note("warm steps"));
    notes.push(ckpt.write.note("checkpoint writes"));
    notes.push(ckpt.restore.note("checkpoint restores"));
    let kept = d.steps.kept();
    let n = kept.len();
    let mut report = Report {
        attempted: d.attempted,
        failed: d.failed,
        notes,
        ..Report::default()
    };
    report.push("setup_s", median(&setup), "s", setup.len());
    report.push("total_s", warm.total, "s", 1);
    report.push(
        "warm_steps_per_s",
        n as f64 / kept.iter().sum::<f64>(),
        "1/s",
        n,
    );
    report.push("step_p50_ms", median(kept) * 1e3, "ms", n);
    report.push("step_p99_ms", percentile(kept, 0.99) * 1e3, "ms", n);
    let (write, restore) = (ckpt.write.kept(), ckpt.restore.kept());
    report.push("ckpt_write_ms", median(write) * 1e3, "ms", write.len());
    report.push("ckpt_restore_ms", median(restore) * 1e3, "ms", restore.len());
    report.push("peak_rss_mb", peak_rss, "MB", 1);
    Ok(report)
}

/// The traced run: every per-layer metric, from spans around the calls
/// into each layer plus `Program::stats` sampled after every warm step.
pub fn run_traced(w: &Workload, seconds: f64, out: &Path) -> Result<Report, String> {
    // An untraced twin on each side of the traced checked trajectory, for
    // the overhead ratio, so that drift over the run cancels.
    let mut plain = Runner::new(w, false);
    let (_, mut untraced_total) = checked_trajectories(&mut plain, 1, 0.0, None)?;

    let mut d = Runner::new(w, true);
    d.manual_adapt = true;
    let mut probes = Vec::new();
    let (_, traced_total) = checked_trajectories(&mut d, 1, 0.0, Some(&mut probes))?;
    let mut probe = Probe::default();
    let mut tj = warm_trajectory(&mut d, seconds / 2.0, Some(&mut probe))?;
    probes.push(probe);
    let n = d.steps.all.len();
    let ckpt = d.checkpoints(&mut tj.rep, &ckpt_dir(out));
    d.check_oracle(&tj.rep, tj.rep.session.timestep());
    d.check_restores(&tj.rep, &ckpt);
    let (write, restore, ckpt_bytes) = (ckpt.write.kept(), ckpt.restore.kept(), ckpt.bytes);
    let workers = tj.rep.session.program().spmd_workers_spawned();
    let schedule_bytes = tj.rep.session.program().plan_schedule_bytes();
    let adapt_report = d
        .ctrl
        .as_ref()
        .map(|c| c.report().clone())
        .unwrap_or_default();
    drop(tj.rep);
    untraced_total.extend(checked_trajectories(&mut plain, 1, 0.0, None)?.1);

    // Static twin of the adaptive workload: same source and seed, no
    // controller, as many warm steps, sampled the same way.
    let mut static_wall = 0.0;
    let mut static_p50 = 0.0;
    if w.adapt {
        let mut twin = Runner::new(w, true);
        let mut t = twin.start(None, false)?;
        twin.reset_counters(t.session.program());
        twin.collect = true;
        let warm = Instant::now();
        for _ in 0..n {
            if !twin.step(&mut t.session, "session.step") {
                break;
            }
        }
        static_wall = warm.elapsed().as_secs_f64();
        static_p50 = median(twin.steps.kept());
        twin.check_oracle(&t, t.session.timestep());
        d.attempted += twin.attempted;
        d.failed += twin.failed;
        d.oracle_checks += twin.oracle_checks;
        d.oracle_failed += twin.oracle_failed;
    }
    d.oracle_checks += plain.oracle_checks;
    d.oracle_failed += plain.oracle_failed;

    let spans_path = out.join(format!("spans-{}.json", w.name));
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&spans_path, d.tr.to_json()))
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let pm = |f: fn(&Probe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    let k = probes.len();
    let p = &probes[k - 1];
    // the ceilings, at the bytes a step touches (at most all arrays)
    let copy_gbs = host::copy_gbs(p.bytes_per_step.min(w.working_set_bytes));
    let sum4 = host::sum4_melem_s();
    let parse = pm(|p| p.parse_s);
    let elaborate = pm(|p| p.elaborate_s);
    let lower = pm(|p| p.lower_s);
    let inspect = pm(|p| p.inspect_s);
    let step_ms = median(d.steps.kept()) * 1e3;
    let compute_ms = median(&d.compute_ms);
    // bytes per core-second, comparable with the single-thread copy ceiling
    let kernel_gbs = p.bytes_per_step as f64 / (median(&d.compute_core_ms) / 1e3) / 1e9;

    let mut rp = Report {
        attempted: d.attempted + plain.attempted,
        failed: d.failed + plain.failed,
        ..Report::default()
    };
    rp.notes.push(d.oracle_note());
    rp.notes.push(format!(
        "{} spans written to {}; parse_ms includes lexing; elaborate_ms is run_recover minus parse",
        d.tr.len(),
        spans_path.display()
    ));
    rp.notes.push(format!(
        "exec bytes are computed from statement sizes, not measured: {} B per step",
        p.bytes_per_step
    ));
    rp.push("frontend.lex_ms", pm(|p| p.lex_s) * 1e3, "ms", k);
    rp.push("frontend.parse_ms", parse * 1e3, "ms", k);
    rp.push(
        "frontend.elaborate_ms",
        (elaborate - parse).max(0.0) * 1e3,
        "ms",
        k,
    );
    rp.push("frontend.lower_ms", lower * 1e3, "ms", k);
    rp.push("frontend.elements_filled", p.elements as f64, "count", 1);
    rp.push(
        "frontend.ns_per_element",
        (elaborate + lower) * 1e9 / p.elements as f64,
        "ns",
        k,
    );
    rp.push("plan.inspect_ms", inspect * 1e3, "ms", k);
    rp.push(
        "plan.inspect_ns_per_elem_term",
        inspect * 1e9 / p.elem_terms as f64,
        "ns",
        k,
    );
    rp.push("plan.compile_ms", pm(|p| p.compile_s) * 1e3, "ms", k);
    rp.push("plan.verify_ms", pm(|p| p.verify_s) * 1e3, "ms", k);
    rp.push("plan.cold_step_ms", pm(|p| p.cold_s) * 1e3, "ms", k);
    rp.push("plan.schedule_bytes", schedule_bytes as f64, "B", 1);
    rp.push("plan.supersteps", p.supersteps as f64, "count", 1);
    rp.push("plan.messages_before", p.messages_before as f64, "count", 1);
    rp.push("plan.messages_after", p.messages_after as f64, "count", 1);
    rp.push("plan.cache_misses", tj.cache_misses as f64, "count", 1);
    rp.push("exec.compute_ms_per_step", compute_ms, "ms", n);
    rp.push(
        "exec.other_ms_per_step",
        (step_ms - compute_ms).max(0.0),
        "ms",
        n,
    );
    rp.push("exec.compute_share", compute_ms / step_ms, "ratio", n);
    rp.push("exec.bytes_per_step", median(&d.bytes), "B", n);
    rp.push(
        "exec.ghost_bytes_avoided_per_step",
        median(&d.avoided),
        "B",
        n,
    );
    rp.push("exec.imbalance", median(&d.imbalance), "ratio", n);
    rp.push("exec.workers_spawned", workers as f64, "count", 1);
    rp.push(
        "exec.melem_per_s",
        p.elems_per_step as f64 / step_ms / 1e3,
        "Melem/s",
        n,
    );
    rp.push("exec.kernel_gbs", kernel_gbs, "GB/s", n);
    rp.push(
        "exec.kernel_roofline_frac",
        kernel_gbs / copy_gbs,
        "ratio",
        n,
    );
    rp.push("ckpt.bytes", ckpt_bytes as f64, "B", 1);
    rp.push(
        "ckpt.write_mb_s",
        ckpt_bytes as f64 / median(write) / 1e6,
        "MB/s",
        write.len(),
    );
    rp.push(
        "ckpt.restore_mb_s",
        ckpt_bytes as f64 / median(restore) / 1e6,
        "MB/s",
        restore.len(),
    );
    let a = &adapt_report;
    rp.push(
        "adapt.observe_us",
        median(&d.observe_us),
        "us",
        d.observe_us.len(),
    );
    rp.push("adapt.decide_ms_total", d.decide_s * 1e3, "ms", 1);
    rp.push("adapt.remaps", a.remaps as f64, "count", 1);
    rp.push("adapt.remap_elements", a.remap_elements as f64, "count", 1);
    let refusals = a.refused_no_gain + a.refused_hysteresis + a.refused_cooldown;
    rp.push("adapt.refusals", refusals as f64, "count", 1);
    rp.push(
        "adapt.post_remap_step_ms",
        median(&d.post_remap_ms),
        "ms",
        d.post_remap_ms.len(),
    );
    let measured = if w.adapt { static_wall / tj.wall } else { 0.0 };
    rp.push("adapt.measured_gain_vs_static", measured, "ratio", n);
    // the model's price of the same warm steps: static steps over adapted
    // steps plus the one-off remap
    let predicted = a.events.first().map_or(0.0, |e| {
        n as f64 * e.cost_stay / (n as f64 * e.cost_candidate + e.remap_cost)
    });
    rp.push("adapt.predicted_gain_vs_static", predicted, "ratio", 1);
    if w.adapt {
        rp.notes.push(format!(
            "adapt: measured gain = static warm wall {static_wall:.3} s / adaptive warm wall \
             {:.3} s over {n} warm steps (base: static); steady-state p50 step static {:.3} ms vs \
             adaptive {step_ms:.3} ms",
            tj.wall,
            static_p50 * 1e3
        ));
    }
    rp.push("host.copy_gbs", copy_gbs, "GB/s", 1);
    rp.push("host.sum4_melem_s", sum4, "Melem/s", 1);
    rp.push(
        "tracing_overhead_frac",
        traced_total[0] / (untraced_total.iter().sum::<f64>() / 2.0) - 1.0,
        "ratio",
        1,
    );
    Ok(rp)
}
