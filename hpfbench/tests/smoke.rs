//! Smoke test at tiny sizes: every workload runs untraced and traced,
//! prints every metric `BENCHMARK.json` declares with its unit, runs its
//! oracle checks without a failure, and the traced run writes its spans.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn workload_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let body = &json[json.find("\"workloads\"").expect("workloads")..];
    let body = &body[..body.find(']').expect("list")];
    body.match_indices("\"name\": \"")
        .map(|(at, m)| {
            let rest = &body[at + m.len()..];
            rest[..rest.find('"').expect("closed")].to_string()
        })
        .collect()
}

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// Run `--workload all` at tiny sizes in `dir`; return stdout.
fn run_all(dir: &Path, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hpfbench"))
        .args([
            "--workload",
            "all",
            "--seed",
            "7",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--tiny",
        ])
        .current_dir(dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "exit {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check_metrics(stdout: &str, metrics: &[(String, String)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    for w in workload_names() {
        for (name, unit) in metrics {
            let entry = format!("\"{w}.{name}\": {{\"value\": ");
            let at = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{w}.{name} missing"));
            let rest = &last[at + entry.len()..];
            assert!(
                rest.starts_with(|c: char| c.is_ascii_digit() || c == '-'),
                "{w}.{name} has no number"
            );
            assert!(
                rest[..rest.find('}').expect("closed")].ends_with(&format!("\"unit\": \"{unit}\"")),
                "{w}.{name} unit is not {unit}"
            );
        }
    }
    // the human-readable table names every metric with its unit too
    for (name, unit) in metrics {
        assert!(
            stdout.lines().any(|l| l.starts_with(name.as_str())
                && l.split_whitespace().nth(2) == Some(unit.as_str())),
            "{name} [{unit}] missing from the table"
        );
    }
    // every workload ran oracle checks, none failed: at least one per
    // checkpoint restore (31), one of the whole restored state, and one of
    // a trajectory's digest
    let checks: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("# oracle checks: "))
        .collect();
    let runs = stdout
        .lines()
        .filter(|l| l.starts_with("# hpfbench "))
        .count();
    assert!(runs >= workload_names().len(), "{stdout}");
    assert_eq!(checks.len(), runs, "{stdout}");
    for l in checks {
        let n: u64 = l["# oracle checks: ".len()..]
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(n >= 33 && l.ends_with(", 0 failed"), "{l}");
    }
}

#[test]
fn untraced_run_prints_every_end_to_end_metric() {
    let dir = workdir("smoke-untraced");
    check_metrics(&run_all(&dir, "0"), &declared("end_to_end"));
}

#[test]
fn traced_run_prints_every_layer_metric_and_writes_spans() {
    let dir = workdir("smoke-traced");
    check_metrics(&run_all(&dir, "1"), &declared("per_layer"));
    for w in workload_names() {
        let spans = std::fs::read_to_string(dir.join(".bench_out").join(format!("spans-{w}.json")))
            .unwrap_or_else(|e| panic!("spans of {w}: {e}"));
        assert!(spans.starts_with("{\"traceEvents\":["));
        for name in [
            "frontend.elaborate",
            "frontend.lower",
            "plan.inspect",
            "plan.compile",
            "plan.verify",
            "session.cold_step",
            "session.step",
            "digest",
            "ckpt.write",
            "ckpt.restore",
        ] {
            assert!(
                spans.contains(&format!("\"name\":\"{name}\"")),
                "{w}: no {name} span"
            );
        }
        assert!(spans.contains("\"parent\":null") && spans.contains("\"parent\":0"));
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hpfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(workdir("smoke-unknown"))
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
