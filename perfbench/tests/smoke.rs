//! Tiny-n smoke of every workload, in both trace modes: each run must
//! pass its own checks and print the metrics `BENCHMARK.json` names.
//!
//! The seed comes from `PERFBENCH_SMOKE_SEED` (default 1), so another
//! seed is one environment variable away:
//!
//! ```sh
//! PERFBENCH_SMOKE_SEED=7 cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "closed_feedback",
    "churn_open",
    "serve_faulted",
    "record_replay",
];

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let section = text
        .split(&format!("\"{key}\""))
        .nth(1)
        .expect("section present");
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn smoke(workload: &str, trace: &str) -> String {
    let seed = std::env::var("PERFBENCH_SMOKE_SEED").unwrap_or_else(|_| "1".into());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = declared(key);
        assert!(!names.is_empty());
        for workload in WORKLOADS {
            let line = smoke(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
                "{workload} trace {trace}: {line}"
            );
            for name in &names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} lacks {name}"
                );
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                names.len(),
                "{workload}: {line}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
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
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
