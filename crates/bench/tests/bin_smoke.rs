//! Smoke tests: every figure/table report binary must run to completion and
//! print non-empty output. Guards against a bin rotting while the library
//! APIs it scripts drift (the bins are not exercised by unit tests).

use std::process::Command;

fn run(bin_path: &str, name: &str) {
    let output = Command::new(bin_path)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {name}: {e}"));
    assert!(
        output.status.success(),
        "{name} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().filter(|l| !l.trim().is_empty()).count() >= 3,
        "{name} printed almost nothing:\n{stdout}",
    );
}

macro_rules! bin_smoke_tests {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            run(env!(concat!("CARGO_BIN_EXE_", stringify!($name))), stringify!($name));
        }
    )*};
}

bin_smoke_tests!(
    fig02_workload,
    fig03_sparsity,
    fig06_bandwidth,
    fig10_config,
    fig11_hetero,
    fig12_pruning,
    fig13_bandwidth,
    table1_models,
    table2_gpu,
    ablations,
);

#[test]
fn serving_sweep() {
    // The serving sweep runs in smoke mode here: the full sweep is sized for
    // a release binary, not for the debug profile the test harness uses.
    let output = Command::new(env!("CARGO_BIN_EXE_serving_sweep"))
        .env("EDGEMM_SMOKE", "1")
        .output()
        .expect("spawn serving_sweep");
    assert!(
        output.status.success(),
        "serving_sweep exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("smoke"), "not in smoke mode:\n{stdout}");
    let (latency, rest) = stdout
        .split_once("== SLO sweep")
        .unwrap_or_else(|| panic!("missing SLO sweep section:\n{stdout}"));
    let (slo, rest) = rest
        .split_once("== Memory pressure")
        .unwrap_or_else(|| panic!("missing memory pressure section:\n{rest}"));
    let (memory, rest) = rest
        .split_once("== Paged vs reserved")
        .unwrap_or_else(|| panic!("missing paged-vs-reserved section:\n{rest}"));
    let (paged, fleet) = rest
        .split_once("== Fleet routing")
        .unwrap_or_else(|| panic!("missing fleet routing section:\n{rest}"));
    // Latency section: one line per (rate, cap, policy): 2 x 2 x 4 in smoke.
    let points = latency
        .lines()
        .filter(|l| POLICY_NAMES.iter().any(|name| l.contains(name)))
        .count();
    assert_eq!(points, 16, "unexpected latency sweep output:\n{latency}");
    // SLO section: one line per (rate, stack, class): 2 x 4 x 2 in smoke
    // (data rows lead with the numeric arrival rate).
    let slo_points = slo
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .count();
    assert_eq!(slo_points, 16, "unexpected SLO sweep output:\n{slo}");
    for marker in ["interactive", "edf/reject", "att%"] {
        assert!(slo.contains(marker), "SLO sweep lost {marker}:\n{slo}");
    }
    // Memory section: one line per (KV budget, chunk size): 2 x 2 in smoke.
    // Data rows lead with the budget ("16M" / "inf").
    let memory_points = memory
        .lines()
        .filter(|l| {
            let head = l.trim_start();
            head.chars().next().is_some_and(|c| c.is_ascii_digit()) || head.starts_with("inf")
        })
        .count();
    assert_eq!(
        memory_points, 4,
        "unexpected memory pressure output:\n{memory}"
    );
    for marker in ["peakKV", "whole", "preempt"] {
        assert!(
            memory.contains(marker),
            "memory sweep lost {marker}:\n{memory}"
        );
    }
    // Paged section: one line per (KV budget, allocation mode): 1 x 2 in
    // smoke. Data rows lead with the budget ("8M").
    let paged_points = paged
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .count();
    assert_eq!(
        paged_points, 2,
        "unexpected paged-vs-reserved output:\n{paged}"
    );
    for marker in ["reserved", "paged", "evict", "restart"] {
        assert!(
            paged.contains(marker),
            "paged sweep lost {marker}:\n{paged}"
        );
    }
    // Fleet section: one line per (replica count, routing policy): 2 x 4 in
    // smoke. Data rows lead with the replica count.
    let fleet_points = fleet
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .count();
    assert_eq!(fleet_points, 8, "unexpected fleet routing output:\n{fleet}");
    for marker in [
        "round-robin",
        "least-kv",
        "power-of-two",
        "prefix-affinity",
        "restart",
    ] {
        assert!(
            fleet.contains(marker),
            "fleet sweep lost {marker}:\n{fleet}"
        );
    }
}

const POLICY_NAMES: [&str; 4] = ["fcfs", "shortest-prompt", "pruning-aware", "edf"];

#[test]
fn table1_prints_the_papers_models() {
    let output = Command::new(env!("CARGO_BIN_EXE_table1_models"))
        .output()
        .expect("spawn table1_models");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for model in [
        "LLaVA-7B",
        "MobileVLM",
        "TinyGPT-V",
        "SPHINX-Tiny",
        "DeepSeek-VL",
        "KarmaVLM",
    ] {
        assert!(
            stdout.contains(model),
            "Table I output is missing {model}:\n{stdout}"
        );
    }
}
