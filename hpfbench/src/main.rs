//! `hpfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! hpfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! Each workload is generated `.hpf` source driven through the public
//! pipeline to a digest (see `pipeline.rs`). `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes the
//! spans to `.bench_out/`. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! every workload in its own child process, one after another, and sums
//! them up. `--tiny` shrinks every size (smoke test only).

mod host;
mod pipeline;
mod trace;
mod workloads;

use pipeline::Report;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Where spans and checkpoints go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "hpfbench: {msg}\nusage: hpfbench --workload {}|all --seed N --seconds S --trace 0|1 [--tiny]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => args.tiny = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workloads::build(&args.workload, args.seed, args.tiny) else {
        return usage(&format!("unknown workload {}", args.workload));
    };
    let fp = host::fingerprint();
    println!(
        "# hpfbench {} seed={} seconds={} trace={}: {}",
        w.name, args.seed, args.seconds, args.trace as u8, w.describe
    );
    println!(
        "# host: {} | nproc {} | L2 {} | L3 {}",
        fp.cpu, fp.nproc, fp.l2, fp.l3
    );
    let out = Path::new(OUT_DIR);
    let result = if args.trace {
        pipeline::run_traced(&w, args.seconds, out)
    } else {
        pipeline::run(&w, args.seconds, out)
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hpfbench: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    print_report(&report);
    ExitCode::SUCCESS
}

/// The `#` notes, one `name value unit (samples: n)` line per metric,
/// the operation counts, then the JSON result line.
fn print_report(r: &Report) {
    for n in &r.notes {
        println!("# {n}");
    }
    for m in &r.metrics {
        println!(
            "{:<36} {:>24} {:<8} (samples: {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("# operations: {} attempted, {} failed", r.attempted, r.failed);
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

/// Every workload in its own process (so `peak_rss_mb` is its own),
/// forwarding each one's report lines, then one report of all of them
/// whose metric names carry the workload name as a prefix. Metrics and
/// operation counts are read back from the table lines [`print_report`]
/// writes.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot locate own executable: {e}")),
    };
    let mut total = Report::default();
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.tiny {
            cmd.arg("--tiny");
        }
        let out = match cmd.output() {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("hpfbench: {name} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("hpfbench: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // the child's JSON line; the summary replaces it
        let mut counted = false;
        for l in lines {
            println!("{l}");
            if let Some(ops) = l.strip_prefix("# operations: ") {
                let n: Vec<u64> = ops
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect();
                if let [attempted, failed] = n[..] {
                    total.attempted += attempted;
                    total.failed += failed;
                    counted = true;
                }
            } else if !l.starts_with('#') {
                let f: Vec<&str> = l.split_whitespace().collect();
                if let (Some(metric), Some(Ok(value)), Some(unit)) =
                    (f.first(), f.get(1).map(|v| v.parse()), f.get(2))
                {
                    let samples = f.last().and_then(|s| s.trim_end_matches(')').parse().ok());
                    total.push(&format!("{name}.{metric}"), value, unit, samples.unwrap_or(0));
                }
            }
        }
        if !counted {
            eprintln!("hpfbench: {name} printed no operation counts");
            return ExitCode::FAILURE;
        }
    }
    print_report(&total);
    ExitCode::SUCCESS
}
