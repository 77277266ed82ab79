//! Smoke checks over the checked-in `BENCH_serving.json`: the file is the
//! repo's record of the serving sweep's host parallelism (written by
//! `serving_sweep` under `EDGEMM_BENCH_JSON=1`), and these assertions keep
//! it structurally sound and honest — one `full_sweep` entry and nothing
//! else, its `parallel_speedup` consistent with its recorded wall times and
//! at or above 1.0 whenever the recording host actually had cores to
//! parallelise over. The serve engine and the fleet gateway are timed by
//! the repository benchmark (`perfbench/`), not here.
//!
//! Parsing is deliberately minimal (no JSON dependency, per the shim
//! policy): the file is machine-written with one `"key": value` pair per
//! line, which is the exact shape these helpers read.

use std::path::Path;

fn bench_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serving.json");
    std::fs::read_to_string(&path).expect("BENCH_serving.json is checked in")
}

/// Extracts the numeric value of `"key": <number>` from an entry's text.
fn number(entry: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &entry[entry.find(&needle)? + needle.len()..];
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

/// Splits the array body into object entries by brace balance.
fn entries(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in json.chars() {
        match c {
            '{' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth -= 1;
                current.push(c);
                if depth == 0 {
                    out.push(std::mem::take(&mut current));
                }
            }
            _ if depth > 0 => current.push(c),
            _ => {}
        }
    }
    out
}

#[test]
fn bench_file_parses_and_every_entry_is_well_formed() {
    let json = bench_json();
    let entries = entries(&json);
    assert_eq!(
        entries.len(),
        1,
        "BENCH_serving.json holds the full_sweep entry only"
    );
    let entry = &entries[0];
    assert!(
        entry.contains("\"bench\": \"serving_sweep/full_sweep\""),
        "not the full_sweep entry: {entry}"
    );
    assert!(
        entry.contains("\"unit\": \"sweep_wall_seconds\""),
        "entry missing unit: {entry}"
    );
    // Total sweep wall time, serial and at EDGEMM_THREADS, with enough host
    // metadata to interpret the recorded speedup.
    let points = number(entry, "points").expect("points present");
    let threads = number(entry, "threads").expect("threads present");
    let host = number(entry, "host_parallelism").expect("host_parallelism present");
    let serial = number(entry, "serial_wall_s").expect("serial_wall_s present");
    let wall = number(entry, "wall_s").expect("wall_s present");
    let speedup = number(entry, "parallel_speedup").expect("parallel_speedup present");
    assert!(points >= 4.0, "a sweep has at least one point per section");
    assert!(threads >= 1.0 && host >= 1.0, "host metadata: {entry}");
    assert!(serial > 0.0 && wall > 0.0, "wall times positive: {entry}");
    // The recorded speedup is derivable from the recorded times.
    let derived = serial / wall;
    assert!(
        (derived - speedup).abs() / derived < 0.01,
        "parallel_speedup {speedup} inconsistent with {serial} / {wall}"
    );
}

#[test]
fn full_sweep_parallelism_never_checks_in_a_slowdown() {
    let json = bench_json();
    let entry = entries(&json)
        .into_iter()
        .find(|e| e.contains("full_sweep"))
        .expect("full_sweep entry present");
    let host = number(&entry, "host_parallelism").expect("host_parallelism present");
    let threads = number(&entry, "threads").expect("threads present");
    let speedup = number(&entry, "parallel_speedup").expect("parallel_speedup present");
    if host >= 2.0 && threads >= 2.0 {
        // A multi-core host running multiple workers must not lose to the
        // serial pass — CI regenerates the file at EDGEMM_THREADS=4 on a
        // multi-core runner, where this is the real acceptance bar.
        assert!(
            speedup >= 1.0,
            "parallel sweep slower than serial on a {host}-core host: {speedup}"
        );
    } else {
        // On a single-core recording host (or a forced single-thread run)
        // parallelism cannot win; only guard against pathological pool
        // overhead.
        assert!(
            speedup >= 0.8,
            "pool overhead out of bounds on a {host}-core host: {speedup}"
        );
    }
}
