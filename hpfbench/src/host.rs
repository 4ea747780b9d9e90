//! Host fingerprint and calibration ceilings, so per-layer rates read as
//! a fraction of what this machine can do.

use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct Fingerprint {
    pub cpu: String,
    pub nproc: usize,
    pub l2: String,
    pub l3: String,
}

pub fn fingerprint() -> Fingerprint {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cache = |index: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
    };
    Fingerprint {
        cpu,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        l2: cache(2),
        l3: cache(3),
    }
}

/// Median over `reps` timed calls of `f`, in seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let s = Instant::now();
            f();
            s.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Repetitions of `f` that fill about `budget`, at least 5.
fn reps_for(budget: Duration, mut f: impl FnMut()) -> usize {
    let s = Instant::now();
    f();
    let one = s.elapsed().as_secs_f64().max(1e-7);
    ((budget.as_secs_f64() / one) as usize).clamp(5, 10_000)
}

/// Copy bandwidth at a working set of `bytes` (source plus destination),
/// counting bytes read plus bytes written, in GB/s.
pub fn copy_gbs(bytes: usize) -> f64 {
    let n = (bytes / 16).max(1024);
    let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; n];
    let reps = reps_for(Duration::from_millis(150), || {
        dst.copy_from_slice(black_box(&src))
    });
    let t = median_time(reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    (2 * n * 8) as f64 / t / 1e9
}

/// In-cache 4-term sum `out = a + b + c + d` over 4096 elements, in
/// million output elements per second.
pub fn sum4_melem_s() -> f64 {
    let n = 4096;
    let terms: Vec<Vec<f64>> = (0..4)
        .map(|k| (0..n).map(|i| (i * k) as f64).collect())
        .collect();
    let mut out = vec![0.0f64; n];
    let mut kernel = || {
        let (a, b, c, d) = (black_box(&terms[0]), &terms[1], &terms[2], &terms[3]);
        for i in 0..n {
            out[i] = a[i] + b[i] + c[i] + d[i];
        }
        black_box(&mut out);
    };
    let reps = reps_for(Duration::from_millis(100), &mut kernel);
    let t = median_time(reps, kernel);
    n as f64 / t / 1e6
}

/// Time the hypervisor gave this virtual machine's CPUs to other guests
/// so far, summed over CPUs, in clock ticks: the `steal` column of the
/// `cpu` line of `/proc/stat`. 0 where the counter cannot be read, so on
/// such a host no sample counts as stolen.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
