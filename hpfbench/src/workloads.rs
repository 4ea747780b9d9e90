//! The three workloads: `.hpf` source generated from a seed, plus the
//! fixed execution settings each one runs under.
//!
//! The seed varies fill values and, for `hotspot_adapt`, where the hot
//! band sits. Sizes, formats and statement shapes never depend on it, so
//! the work per step is the same for every seed. Every statement reads
//! only arrays that are either never written or written by an earlier
//! statement of the same timestep, so the state reaches a fixed point
//! after the first timestep and values stay small exact integers over
//! any run length.

use hpf_runtime::Backend;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["staggered_2d", "mixed_chain_1d", "hotspot_adapt"];

/// One generated workload and the settings it runs under.
pub struct Workload {
    pub name: &'static str,
    /// Generated source text.
    pub source: String,
    /// Abstract processors the source is elaborated over.
    pub np: usize,
    pub backend: Backend,
    /// Run under `AdaptPolicy::default()`.
    pub adapt: bool,
    /// Warm steps after the cold step in the source → digest trajectory
    /// that `total_s` times: about twenty seconds of steps on the reference
    /// host, so that set-up is a minor share of it.
    pub total_steps: usize,
    /// Warm steps after the cold step in every other (checked)
    /// trajectory.
    pub traj_steps: usize,
    /// Extra steps after each checked trajectory, each one compared
    /// against the dense oracle (0 where an oracle step is too costly).
    pub checked_steps: usize,
    /// Bytes of all arrays together: the most a step can touch.
    pub working_set_bytes: usize,
    /// One line on sizes, mapping, backend and memory regime.
    pub describe: String,
}

/// splitmix64: a tiny deterministic generator for fill coefficients.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Build workload `name` for `seed`; `tiny` shrinks every size for the
/// smoke test. `None` for an unknown name.
pub fn build(name: &str, seed: u64, tiny: bool) -> Option<Workload> {
    let mut rng = Rng(seed ^ 0x6870_6662_656e_6368);
    match name {
        "staggered_2d" => Some(staggered_2d(&mut rng, if tiny { 32 } else { 1024 })),
        "mixed_chain_1d" => Some(mixed_chain_1d(&mut rng, if tiny { 256 } else { 1 << 17 })),
        "hotspot_adapt" => Some(hotspot_adapt(&mut rng, if tiny { 4096 } else { 1 << 21 })),
        _ => None,
    }
}

/// §8.1.1: `PR = U(0:N-1,:) + U(1:N,:) + V(:,0:N-1) + V(:,1:N)`.
fn staggered_2d(rng: &mut Rng, n: usize) -> Workload {
    let (a, b, c) = (rng.range(1, 9), rng.range(1, 9), rng.range(0, 99));
    let (d, e, f) = (rng.range(1, 9), rng.range(1, 9), rng.range(0, 99));
    let source = format!(
        "\
      PROGRAM STAGGER
      PARAMETER (N = {n})
      REAL U(0:N, 1:N), V(1:N, 0:N), PR(N, N)
!HPF$ PROCESSORS MESH(2, 2)
!HPF$ DISTRIBUTE U(BLOCK, BLOCK) TO MESH
!HPF$ DISTRIBUTE V(BLOCK, BLOCK) TO MESH
!HPF$ ALIGN PR(I, J) WITH U(I, J)
      FORALL (I = 0:N, J = 1:N) U(I, J) = {a}*I + {b}*J + {c}
      FORALL (I = 1:N, J = 0:N) V(I, J) = {d}*I - {e}*J + {f}
      PR = U(0:N-1, :) + U(1:N, :) + V(:, 0:N-1) + V(:, 1:N)
      END
"
    );
    let elements = 2 * (n + 1) * n + n * n;
    Workload {
        name: "staggered_2d",
        source,
        np: 4,
        backend: Backend::SharedMem,
        adapt: false,
        total_steps: 1600,
        traj_steps: 20,
        checked_steps: 0,
        working_set_bytes: elements * 8,
        describe: format!(
            "N={n}, U/V/PR (BLOCK,BLOCK) on MESH(2,2), SharedMem single-threaded, \
             {} MB of arrays (past L2, inside L3)",
            (elements * 8) >> 20
        ),
    }
}

/// Seven dependent statements over BLOCK, CYCLIC, CYCLIC(k),
/// GENERAL_BLOCK and a reversed alignment: each rewrites what the next
/// reads, so every warm step exchanges live data (about 4 MB) through
/// seven supersteps, and compute is under 10% of a step. It runs on the
/// single-threaded `SharedMem` backend: on a shared virtual machine the
/// step time of the threaded `Channels` backend follows the hypervisor's
/// steal from run to run.
fn mixed_chain_1d(rng: &mut Rng, n: usize) -> Workload {
    let (a, b, c, d) = (
        rng.range(1, 9),
        rng.range(0, 99),
        rng.range(1, 9),
        rng.range(0, 99),
    );
    let gb = n * 3 / 8;
    let source = format!(
        "\
      PROGRAM CHAIN
      PARAMETER (N = {n})
      REAL X(N), Y(N), A(N), B(N), C(N), D(N), E(N), F(N), G(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE X(BLOCK) TO P
!HPF$ DISTRIBUTE Y(CYCLIC) TO P
!HPF$ DISTRIBUTE A(CYCLIC(16)) TO P
!HPF$ DISTRIBUTE B(GENERAL_BLOCK({gb})) TO P
!HPF$ ALIGN C(I) WITH X(N+1-I)
!HPF$ DISTRIBUTE D(CYCLIC(3)) TO P
!HPF$ DISTRIBUTE E(BLOCK) TO P
!HPF$ DISTRIBUTE F(CYCLIC) TO P
!HPF$ ALIGN G(I) WITH B(N+1-I)
      FORALL (I = 1:N) X(I) = {a}*I + {b}
      FORALL (I = 1:N) Y(I) = {c}*I - {d}
      A(1:N) = X(1:N) + Y(1:N)
      B(2:N) = A(1:N-1) + Y(2:N)
      C(1:N-1) = B(2:N) + X(1:N-1)
      D(1:N) = C(1:N)
      E(3:N) = D(1:N-2) + X(3:N)
      F(1:N-3) = E(4:N) + Y(1:N-3)
      G(1:N) = F(1:N) + A(1:N)
      END
"
    );
    Workload {
        name: "mixed_chain_1d",
        source,
        np: 2,
        backend: Backend::SharedMem,
        adapt: false,
        total_steps: 1000,
        traj_steps: 20,
        checked_steps: 10,
        working_set_bytes: 9 * n * 8,
        describe: format!(
            "N={n}, 9 arrays, 7 chained statements, BLOCK/CYCLIC/CYCLIC(k)/GENERAL_BLOCK/\
             reversed ALIGN, SharedMem single-threaded, {} KB of arrays (past L2, inside L3)",
            (9 * n * 8) >> 10
        ),
    }
}

/// `examples/programs/hotspot.hpf` scaled up: the sweep touches one
/// quarter of a BLOCK-distributed domain, so one rank does all the work
/// until the adapt controller remaps onto a fitted GENERAL_BLOCK.
fn hotspot_adapt(rng: &mut Rng, n: usize) -> Workload {
    let (a, b, c) = (rng.range(1, 9), rng.range(0, 99), rng.range(1, 9));
    // The band length is fixed and, as in `hotspot.hpf`, the band sits in
    // the first quarter; the seed moves its start by a small offset, which
    // moves the fitted boundary (and the remapped volume) by under 1%.
    let len = n / 4 - 48;
    let lo = 49 + rng.range(0, (n / 256) as i64) as usize;
    let hi = lo + len - 1;
    let source = format!(
        "\
      PROGRAM HOTSPOT
      PARAMETER (N = {n})
      REAL RHO(N), SRC(N)
!HPF$ PROCESSORS P(2)
!HPF$ DISTRIBUTE RHO(BLOCK) TO P
!HPF$ ALIGN SRC(I) WITH RHO(I)
!HPF$ DYNAMIC RHO, SRC
      FORALL (I = 1:N) RHO(I) = {c}
      FORALL (I = 1:N) SRC(I) = {a}*I + {b}
      RHO({lo}:{hi}) = SRC({}:{}) + SRC({lo}:{hi})
      END
",
        lo - 48,
        hi - 48
    );
    Workload {
        name: "hotspot_adapt",
        source,
        np: 2,
        backend: Backend::Channels,
        adapt: true,
        total_steps: 2000,
        traj_steps: 10,
        checked_steps: 2,
        working_set_bytes: 2 * n * 8,
        describe: format!(
            "N={n}, RHO/SRC BLOCK on P(2), hot band of {len} elements at {lo}:{hi}, \
             Channels np=2 (2 worker threads), AdaptPolicy::default(), {} MB of arrays",
            (2 * n * 8) >> 20
        ),
    }
}
