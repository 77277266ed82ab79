//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is one workload in this single-threaded process, a closed loop
//! with one client: an op (one serve of the trace, one fleet serve or one
//! figure regeneration) starts when the previous op returns. Inside an op
//! the modeled arrivals follow the trace's open-loop Poisson schedule and
//! simulated TTFT counts from each request's due arrival. Every op's output
//! is checked. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reruns the workload with span tracing and layer probes and reports the
//! per-layer metrics. The last stdout line is one JSON object. `--workload
//! all` runs every workload, untraced and then traced, each in its own
//! process, one at a time. README.md defines every workload and metric.

mod probes;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use edgemm::fleet::{FleetGateway, FleetReplica};
use edgemm::mllm::ModelWorkload;
use edgemm::serve::{ServeReport, ServeRequest, ServeScratch, ServeSimulator};
use edgemm::sim::PruningEffect;
use edgemm::units::Bytes;
use edgemm::{EdgeMm, FleetReport, RequestOptions};

use probes::median;
use spans::{Recorder, TracedPolicy, TracedRoute};
use workloads::{debug_hash, Workload};

/// Metric values by name.
type Values = Vec<(&'static str, f64)>;
/// One traced op: its span op id, wall seconds and layer metrics.
type TracedOp = (u32, f64, Values);

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed ops per run even when `--seconds` runs out first.
const MIN_OPS: usize = 3;
/// Traced/untraced op pairs per traced run at most: spans stay in memory
/// until the run ends.
const MAX_TRACED_PAIRS: usize = 8;
/// Trace requests whose shapes the `Machine` pricing probe prices.
const SIM_PROBE_REQUESTS: usize = 128;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("op_host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer that is not on
/// a workload's path reports 0 there.
const PER_LAYER: [(&str, &str); 65] = [
    ("requests_per_wall_s", "req/s"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p95_s", "s"),
    ("sim_tpot_p50_s", "s"),
    ("sim_tpot_p95_s", "s"),
    ("slo_attainment", "fraction"),
    ("sim_tokens_per_s", "tok/s"),
    ("paper_rel_error", "fraction"),
    ("trace.overhead_ratio", "fraction"),
    ("fleet.self_s", "s"),
    ("fleet.route_s", "s"),
    ("fleet.route_calls", "count"),
    ("fleet.reserved_requests", "count"),
    ("fleet.useful_ratio", "fraction"),
    ("fleet.stale_completion_ratio", "fraction"),
    ("fleet.load_imbalance", "ratio"),
    ("fleet.restarted_prefill_tokens", "tokens"),
    ("serve.run_s", "s"),
    ("serve.self_s", "s"),
    ("serve.policy_s", "s"),
    ("serve.policy_calls", "count"),
    ("serve.policy_candidates", "count"),
    ("serve.candidates_per_call", "count"),
    ("serve.events", "count"),
    ("serve.ns_per_event", "ns"),
    ("serve.decode_steps", "count"),
    ("serve.mean_batch_occupancy", "streams"),
    ("serve.preemptions", "count"),
    ("serve.max_queue_depth", "count"),
    ("mem.peak_kv_mib", "MiB"),
    ("mem.evictions", "count"),
    ("mem.spilled_mib", "MiB"),
    ("mem.restored_mib", "MiB"),
    ("mem.restarted_prefill_tokens", "tokens"),
    ("mem.recompute_ratio", "fraction"),
    ("mem.grow_ns", "ns"),
    ("mem.release_ns", "ns"),
    ("mem.attach_ns", "ns"),
    ("mem.spill_restore_ns", "ns"),
    ("event.push_pop_ns", "ns"),
    ("event.share", "fraction"),
    ("sim.price_cold_s", "s"),
    ("sim.price_warm_s", "s"),
    ("sim.op_cost_ns", "ns"),
    ("chip.encode_share", "fraction"),
    ("chip.projector_share", "fraction"),
    ("chip.prefill_share", "fraction"),
    ("chip.decode_share", "fraction"),
    ("chip.compute_share", "fraction"),
    ("chip.weight_dram_share", "fraction"),
    ("chip.kv_dram_share", "fraction"),
    ("chip.dma_mib", "MiB"),
    ("core.table2_s", "s"),
    ("core.fig11_s", "s"),
    ("core.fig12_s", "s"),
    ("core.fig13_s", "s"),
    ("mllm.gemv_calls", "count"),
    ("mllm.gemv_macs", "MAC"),
    ("mllm.gemv_bytes", "B"),
    ("mllm.gemv_mac_per_s", "MAC/s"),
    ("mllm.from_fn_s", "s"),
    ("mllm.fig12_share", "fraction"),
    ("pruning.select_ns", "ns"),
    ("pruning.measure_s", "s"),
    ("pruning.keep_ratio", "fraction"),
];

/// Untraced-run values printed beside the end-to-end metrics: the raw wall
/// times behind the reference-scaled ones, and the reference itself.
const RAW: [(&str, &str); 3] = [
    ("op_wall_s", "s"),
    ("setup_wall_s", "s"),
    ("reference_s", "s"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&RAW)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

const USAGE: &str =
    "usage: perfbench --workload <serve_light|serve_overload|fleet_route|paper_eval|all> \
     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match (workload, args.trace) {
        (Workload::ServeLight | Workload::ServeOverload, false) => untraced_requests(
            &args,
            start,
            serve_shape(workload),
            || leaked_system().serve_session(&workloads::model(), workloads::serve_options()),
            |session, trace| session.serve(trace),
            workloads::check_serve,
            workloads::request_metrics,
        ),
        (Workload::ServeLight | Workload::ServeOverload, true) => traced_serve(workload, &args),
        (Workload::FleetRoute, false) => untraced_requests(
            &args,
            start,
            FLEET_SHAPE,
            leaked_system,
            |system, trace| serve_fleet(system, trace),
            workloads::check_fleet,
            |report| workloads::request_metrics(&workloads::fleet_as_serve(report)),
        ),
        (Workload::FleetRoute, true) => traced_fleet(&args),
        (Workload::PaperEval, false) => untraced_paper(&args, start),
        (Workload::PaperEval, true) => traced_paper(&args),
    };
    outcome.print(workload, &args);
    ExitCode::SUCCESS
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let seconds = args.seconds.to_string();
            let seed = args.seed.to_string();
            let status = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", trace])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ops attempted and failed, and per input the digest every op's report
/// on that input must match.
#[derive(Debug, Default)]
struct OpLog {
    attempted: u64,
    failed: u64,
    references: BTreeMap<usize, u64>,
}

impl OpLog {
    /// Run one op on input `input` and time it, then (untimed) check its
    /// output and that the FNV-1a-64 digest of its `Debug` bytes matches the
    /// first op's on that input. Returns the wall seconds and output of an
    /// op that passed.
    fn run<R: Debug>(
        &mut self,
        input: usize,
        op: impl FnOnce() -> R,
        check: impl FnOnce(&R) -> Result<(), String>,
    ) -> Option<(f64, R)> {
        self.attempted += 1;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(op));
        let wall = start.elapsed().as_secs_f64();
        let verdict = match &result {
            Err(_) => Err("the op panicked".to_string()),
            Ok(out) => check(out).and_then(|()| {
                let digest = debug_hash(out);
                match *self.references.entry(input).or_insert(digest) {
                    first if first == digest => Ok(()),
                    first => Err(format!("digest {digest:016x} != first op's {first:016x}")),
                }
            }),
        };
        match verdict {
            Ok(()) => result.ok().map(|out| (wall, out)),
            Err(e) => {
                self.failed += 1;
                eprintln!("op {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

/// What a run prints.
#[derive(Debug, Default)]
struct Outcome {
    log: OpLog,
    /// Metric values by name. The JSON result carries the run's table;
    /// the lines before it show every metric set.
    metrics: BTreeMap<&'static str, f64>,
    /// Free-text lines printed before the result.
    lines: Vec<String>,
    /// A traced run whose reports differed from the untraced ones.
    mismatch: bool,
}

impl Outcome {
    fn set(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.metrics.extend(values);
    }

    fn print(&self, workload: Workload, args: &Args) {
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let value = |name: &str| {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if value.is_finite() {
                value
            } else {
                0.0
            }
        };
        let mode = if args.trace { "traced" } else { "untraced" };
        println!("== {} seed {} ({mode})", workload.name(), args.seed);
        let others = self
            .metrics
            .keys()
            .filter(|name| !table.iter().any(|(n, _)| n == *name));
        for name in table.iter().map(|(n, _)| *n).chain(others.copied()) {
            println!("{name} = {:.6} {}", value(name), unit_of(name));
        }
        println!("ops_attempted = {}", self.log.attempted);
        println!("ops_failed = {}", self.log.failed);
        for line in &self.lines {
            println!("{line}");
        }
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                    value(name)
                )
            })
            .collect();
        let correct = self.log.failed == 0 && self.log.attempted > 0 && !self.mismatch;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.log.attempted,
            self.log.failed,
            metrics.join(", ")
        );
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What [`reference_s`] takes at the host speed the bounds were set at.
const REFERENCE_NOMINAL_S: f64 = 0.005;

/// A fixed piece of host work that shares no code with the simulator:
/// ordered- and hashed-map churn plus float math, ~5 ms. The speed of the
/// host this benchmark was tuned on drifts by up to a third over tens of
/// seconds to minutes; timing this next to every op and set-up lets the
/// gated host times be reported at one reference speed.
fn reference_s() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let start = Instant::now();
    let mut tree = BTreeMap::new();
    let mut hash = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree.insert(x % 4096, i);
        *hash.entry(x % 1024).or_insert(0u64) += i;
        acc += ((x % 1000) as f64).sqrt();
        if let Some((_, v)) = tree.range(x % 4096..).next() {
            acc += *v as f64;
        }
    }
    std::hint::black_box((tree.len(), hash.len(), acc));
    start.elapsed().as_secs_f64()
}

/// Wall times of one kind, each beside the reference time measured next
/// to it.
#[derive(Debug, Default)]
struct Timing {
    walls: Vec<f64>,
    references: Vec<f64>,
}

impl Timing {
    fn push(&mut self, wall: f64, reference: f64) {
        self.walls.push(wall);
        self.references.push(reference);
    }

    /// Median wall seconds, and the median of the walls each scaled to the
    /// nominal reference speed.
    fn medians(&self) -> (f64, f64) {
        let scaled = self
            .walls
            .iter()
            .zip(&self.references)
            .map(|(wall, reference)| wall * REFERENCE_NOMINAL_S / reference)
            .collect();
        (median(self.walls.clone()), median(scaled))
    }
}

/// Times ops until `--seconds` ran out (and at least [`MIN_OPS`] ran),
/// passing each its index and timing the reference before each.
fn timed_loop(args: &Args, mut op: impl FnMut(usize) -> Option<f64>) -> Timing {
    let start = Instant::now();
    let mut timing = Timing::default();
    let mut attempts = 0;
    while attempts < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
        let reference = reference_s();
        if let Some(wall) = op(attempts) {
            timing.push(wall, reference);
        }
        attempts += 1;
    }
    timing
}

/// Set up [`SETUP_REPS`] times, timing each from its start (the first from
/// process start) to the end of its untimed cold op, then the reference
/// (median of 3); keeps the last set-up.
fn set_up<S>(start: Instant, mut setup: impl FnMut() -> S) -> (S, Timing) {
    let mut timing = Timing::default();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        let from = if rep == 0 { start } else { Instant::now() };
        state = Some(setup());
        let wall = from.elapsed().as_secs_f64();
        timing.push(wall, median((0..3).map(|_| reference_s()).collect()));
    }
    (state.expect("SETUP_REPS > 0"), timing)
}

/// The host-time values of an untraced run.
fn host_times(setups: &Timing, ops: &Timing) -> Values {
    let (setup_wall_s, setup_s) = setups.medians();
    let (op_wall_s, op_host_s) = ops.medians();
    vec![
        ("op_host_s", op_host_s),
        ("op_wall_s", op_wall_s),
        ("setup_s", setup_s),
        ("setup_wall_s", setup_wall_s),
        ("reference_s", median(ops.references.clone())),
        ("peak_rss_mib", peak_rss_mib()),
    ]
}

/// `T(N, rate)` of `fleet_route`.
const FLEET_SHAPE: (usize, f64) = (400, 48.0);

/// `T(N, rate)` of a `serve_*` workload.
fn serve_shape(workload: Workload) -> (usize, f64) {
    match workload {
        Workload::ServeOverload => (1600, 48.0),
        _ => (1600, 2.0),
    }
}

/// A system the run keeps for its whole life (sessions borrow it).
fn leaked_system() -> &'static EdgeMm {
    Box::leak(Box::new(EdgeMm::paper_default()))
}

/// An untraced run of a request workload: `open` builds a fresh system and
/// whatever serves on it, `serve` runs one op on one trace.
fn untraced_requests<S, R: Debug>(
    args: &Args,
    start: Instant,
    (requests, rate): (usize, f64),
    open: impl Fn() -> S,
    mut serve: impl FnMut(&mut S, &[ServeRequest]) -> R,
    check: impl Fn(&R, usize) -> Result<(), String>,
    modeled: impl Fn(&R) -> Values,
) -> Outcome {
    let mut out = Outcome::default();
    let mut metrics = Vec::new();
    let ((mut state, traces), setups) = set_up(start, || {
        let traces = workloads::run_traces(requests, rate, args.seed);
        let mut state = open();
        let trace = &traces[0];
        let cold = out
            .log
            .run(0, || serve(&mut state, trace), |r| check(r, trace.len()));
        if let (true, Some((_, report))) = (metrics.is_empty(), cold) {
            metrics = modeled(&report);
        }
        (state, traces)
    });
    let ops = timed_loop(args, |i| {
        let input = i % traces.len();
        let trace = &traces[input];
        out.log
            .run(
                input,
                || serve(&mut state, trace),
                |r| check(r, trace.len()),
            )
            .map(|(wall, _)| wall)
    });
    out.set(metrics);
    out.set(host_times(&setups, &ops));
    let op_wall_s = ops.medians().0;
    out.set([("requests_per_wall_s", traces[0].len() as f64 / op_wall_s)]);
    out
}

fn serve_fleet(system: &EdgeMm, trace: &[ServeRequest]) -> FleetReport {
    system.serve_fleet(
        &workloads::model(),
        trace,
        workloads::FLEET_REPLICAS,
        workloads::FLEET_ROUTING,
        workloads::fleet_options(),
    )
}

fn untraced_paper(args: &Args, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut modeled = None;
    let ((), setups) = set_up(start, || {
        let cold = out.log.run(
            0,
            || workloads::regenerate(args.seed, None),
            workloads::check_figures,
        );
        if let (None, Some((_, figures))) = (&modeled, cold) {
            modeled = Some(paper_metrics(&figures, &mut out));
        }
    });
    let ops = timed_loop(args, |_| {
        out.log
            .run(
                0,
                || workloads::regenerate(args.seed, None),
                workloads::check_figures,
            )
            .map(|(wall, _)| wall)
    });
    out.set(modeled.unwrap_or_default());
    out.set(host_times(&setups, &ops));
    out
}

/// `paper_rel_error` (with each paper value beside its regenerated value
/// in the printed lines) and Table II's modeled tokens/s.
fn paper_metrics(figures: &workloads::Figures, out: &mut Outcome) -> Values {
    for (what, paper, model) in workloads::paper_pairs(figures) {
        out.lines
            .push(format!("{what}: model {model:.4}, paper {paper:.2}"));
    }
    vec![
        ("paper_rel_error", workloads::paper_rel_error(figures)),
        (
            "sim_tokens_per_s",
            figures.table2.edgemm_pruned_tokens_per_second,
        ),
    ]
}

/// Where a traced run writes the spans of its median op.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{seed}.tsv", workload.name()))
}

/// The median over traced ops of each per-op metric, and the op whose
/// wall time is the median (whose spans get written out).
fn per_op_medians(per_op: &[TracedOp]) -> (Values, u32) {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (_, _, metrics) in per_op {
        for &(name, value) in metrics {
            by_name.entry(name).or_default().push(value);
        }
    }
    let mut walls: Vec<(f64, u32)> = per_op.iter().map(|(op, wall, _)| (*wall, *op)).collect();
    walls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let median_op = walls.get(walls.len() / 2).map_or(0, |w| w.1);
    (
        by_name.into_iter().map(|(k, v)| (k, median(v))).collect(),
        median_op,
    )
}

/// Runs untraced/traced op pairs until `--seconds` ran out (at least
/// [`MIN_OPS`], at most [`MAX_TRACED_PAIRS`] pairs). Returns the untraced
/// walls and, per traced op, its id, wall and the layer metrics `layers`
/// derives from it.
fn traced_pairs<R: Debug>(
    args: &Args,
    log: &mut OpLog,
    recorder: &Recorder,
    mut untraced: impl FnMut() -> R,
    mut traced: impl FnMut() -> R,
    check: impl Fn(&R) -> Result<(), String>,
    mut layers: impl FnMut(u32, &R) -> Values,
) -> (Vec<f64>, Vec<TracedOp>) {
    let start = Instant::now();
    let (mut plain, mut per_op) = (Vec::new(), Vec::new());
    for pair in 0..MAX_TRACED_PAIRS {
        if pair >= MIN_OPS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        plain.extend(log.run(0, &mut untraced, &check).map(|(wall, _)| wall));
        let op = recorder.begin_op();
        if let Some((wall, report)) = log.run(0, &mut traced, &check) {
            per_op.push((op, wall, layers(op, &report)));
        }
    }
    (plain, per_op)
}

/// `serve.*` metrics of traced op `op` that ran `report`.
fn serve_layers(recorder: &Recorder, op: u32, events: usize) -> Values {
    let layers = recorder.layers(op);
    let run = layers.get("serve.run").copied().unwrap_or_default();
    let policy = layers.get("serve.policy").copied().unwrap_or_default();
    vec![
        ("serve.run_s", run.total_s()),
        ("serve.self_s", run.self_s()),
        ("serve.policy_s", policy.total_s()),
        ("serve.policy_calls", policy.calls as f64),
        ("serve.policy_candidates", policy.items as f64),
        (
            "serve.candidates_per_call",
            policy.items as f64 / policy.calls.max(1) as f64,
        ),
        ("serve.events", events as f64),
        (
            "serve.ns_per_event",
            run.total_ns as f64 / events.max(1) as f64,
        ),
    ]
}

/// Modeled `serve.*` counts of a report.
fn serve_counts(report: &ServeReport) -> Values {
    vec![
        ("serve.decode_steps", report.decode_steps as f64),
        ("serve.mean_batch_occupancy", report.mean_batch_occupancy()),
        ("serve.preemptions", report.preemptions as f64),
        ("serve.max_queue_depth", report.max_queue_depth() as f64),
    ]
}

fn shapes(requests: &[ServeRequest]) -> Vec<(usize, usize)> {
    requests
        .iter()
        .map(|r| (r.text_tokens, r.output_tokens))
        .collect()
}

/// KV bytes one cached token occupies on `system`.
fn kv_bytes_per_token(system: &EdgeMm) -> u64 {
    workloads::model()
        .llm
        .kv_bytes_per_token(system.machine().config().mc_weight_bytes)
}

/// The layer probes shared by the request workloads, at `trace`'s shapes.
fn request_probes(
    out: &mut Outcome,
    system: &EdgeMm,
    trace: &[ServeRequest],
    config: edgemm::serve::ServeConfig,
    report: &ServeReport,
) {
    let model = workloads::model();
    let first = &trace[..trace.len().min(SIM_PROBE_REQUESTS)];
    let chunk = config.chunk_tokens.unwrap_or(usize::MAX);
    out.set(probes::sim(&model, &shapes(first), config.pruning, chunk));
    let clock_hz = f64::from(system.machine().config().chip.clock_mhz) * 1e6;
    let push_pop_ns = probes::event(trace, clock_hz);
    out.set([("event.push_pop_ns", push_pop_ns)]);
    out.set(probes::mem(
        trace,
        config.kv,
        config.block_tokens.unwrap_or(16),
        kv_bytes_per_token(system),
        config.spill_capacity_bytes,
    ));
    out.set(probes::pruning(&model, 7));
    out.set([("pruning.keep_ratio", config.pruning.keep_ratio)]);
    let dma = report.spilled_kv_bytes + report.restored_kv_bytes;
    out.set(probes::chip(
        system.machine(),
        &model,
        &shapes(trace),
        config.pruning,
        dma,
    ));
    out.set(workloads::request_metrics(report));
    out.set(workloads::mem_counts(
        report,
        workloads::prompt_tokens(&model, trace),
    ));
    let events = out.metrics.get("serve.events").copied().unwrap_or(0.0);
    let run_s = out.metrics.get("serve.run_s").copied().unwrap_or(0.0);
    out.set([(
        "event.share",
        events * push_pop_ns * 1e-9 / run_s.max(1e-12),
    )]);
}

/// The traced-minus-untraced wall time, as a share of the untraced.
fn overhead(plain: Vec<f64>, per_op: &[TracedOp]) -> (&'static str, f64) {
    let traced = median(per_op.iter().map(|p| p.1).collect());
    let plain = median(plain);
    ("trace.overhead_ratio", traced / plain - 1.0)
}

fn write_spans(out: &mut Outcome, recorder: &Recorder, op: u32, workload: Workload, seed: u64) {
    let path = spans_path(workload, seed);
    match recorder.write_op(op, &path) {
        Ok(()) => out
            .lines
            .push(format!("spans of the median traced op: {}", path.display())),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn traced_serve(workload: Workload, args: &Args) -> Outcome {
    let (requests, rate) = serve_shape(workload);
    let model = workloads::model();
    let options = workloads::serve_options();
    let system = leaked_system();
    let trace = workloads::trace(requests, rate, args.seed);
    let mut session = system.serve_session(&model, options);
    let config = workloads::lower(system, &model, options);
    let simulator = ServeSimulator::new(system.machine(), model.clone(), config);
    let mut scratch = ServeScratch::new();
    let recorder = Recorder::new();
    let policy = TracedPolicy {
        inner: options.policy.policy(),
        recorder: &recorder,
    };
    let mut out = Outcome::default();
    let check = |r: &ServeReport| workloads::check_serve(r, trace.len());
    let facade = out.log.run(0, || session.serve(&trace), check);
    let (plain, per_op) = traced_pairs(
        args,
        &mut out.log,
        &recorder,
        || session.serve(&trace),
        || {
            recorder.in_span("serve.run", trace.len() as u64, || {
                simulator.run_with_scratch(&trace, &policy, &mut scratch)
            })
        },
        check,
        |op, report| serve_layers(&recorder, op, report.queue_samples.len()),
    );
    let (medians, median_op) = per_op_medians(&per_op);
    out.set(medians);
    out.set([overhead(plain.clone(), &per_op)]);
    out.set([("requests_per_wall_s", trace.len() as f64 / median(plain))]);
    if let Some((_, report)) = &facade {
        out.set(serve_counts(report));
        request_probes(&mut out, system, &trace, config, report);
    }
    write_spans(&mut out, &recorder, median_op, workload, args.seed);
    out
}

fn traced_fleet(args: &Args) -> Outcome {
    let model = workloads::model();
    let options = workloads::fleet_options();
    let system = leaked_system();
    let trace = workloads::trace(FLEET_SHAPE.0, FLEET_SHAPE.1, args.seed);
    let recorder = Recorder::new();
    let mut out = Outcome::default();
    let check = |r: &FleetReport| workloads::check_fleet(r, trace.len());
    let facade = out.log.run(0, || serve_fleet(system, &trace), check);
    let traced_op = || {
        recorder.in_span("fleet.serve", trace.len() as u64, || {
            let config = workloads::lower(system, &model, options);
            let replicas = (0..workloads::FLEET_REPLICAS)
                .map(|_| {
                    let simulator = ServeSimulator::new(system.machine(), model.clone(), config);
                    FleetReplica::new(simulator, options.policy)
                })
                .collect();
            let mut routing = TracedRoute {
                inner: workloads::FLEET_ROUTING.policy(options.seed),
                recorder: &recorder,
            };
            FleetGateway::new(replicas).serve(&trace, &mut routing)
        })
    };
    let fleet_layers = |op: u32, report: &FleetReport| {
        let layers = recorder.layers(op);
        let serve = layers.get("fleet.serve").copied().unwrap_or_default();
        let route = layers.get("fleet.route").copied().unwrap_or_default();
        let events = report.completion_events + report.stale_completions;
        vec![
            ("fleet.self_s", serve.self_s()),
            ("fleet.route_s", route.total_s()),
            ("fleet.route_calls", route.calls as f64),
            ("fleet.reserved_requests", route.items as f64),
            (
                "fleet.useful_ratio",
                report.dispatched() as f64 / route.items.max(1) as f64,
            ),
            (
                "fleet.stale_completion_ratio",
                report.stale_completions as f64 / events.max(1) as f64,
            ),
        ]
    };
    let (plain, per_op) = traced_pairs(
        args,
        &mut out.log,
        &recorder,
        || serve_fleet(system, &trace),
        traced_op,
        check,
        fleet_layers,
    );
    let (medians, median_op) = per_op_medians(&per_op);
    out.set(medians);
    out.set([overhead(plain.clone(), &per_op)]);
    out.set([("requests_per_wall_s", trace.len() as f64 / median(plain))]);
    if let Some((_, report)) = &facade {
        out.set([
            ("fleet.load_imbalance", report.load_imbalance()),
            (
                "fleet.restarted_prefill_tokens",
                report.restarted_prefill_tokens().as_f64(),
            ),
        ]);
        let config = workloads::lower(system, &model, options);
        out.mismatch |= !reserve_replicas(&mut out, &recorder, system, config, &trace, report);
        let merged = workloads::fleet_as_serve(report);
        out.set(serve_counts(&merged));
        out.set([(
            "serve.max_queue_depth",
            report
                .replicas
                .iter()
                .map(|r| r.max_queue_depth())
                .max()
                .unwrap_or(0) as f64,
        )]);
        request_probes(&mut out, system, &trace, config, &merged);
    }
    write_spans(
        &mut out,
        &recorder,
        median_op,
        Workload::FleetRoute,
        args.seed,
    );
    out
}

/// The serve layer at the fleet's own shapes: each replica's final
/// sub-trace re-served through the decorated policy, three times. Every
/// re-serve must equal the replica's report in the fleet run. Sets the
/// `serve.*` span metrics (summed over replicas, median over passes).
fn reserve_replicas(
    out: &mut Outcome,
    recorder: &Recorder,
    system: &EdgeMm,
    config: edgemm::serve::ServeConfig,
    trace: &[ServeRequest],
    report: &FleetReport,
) -> bool {
    let model = workloads::model();
    let options = workloads::fleet_options();
    let policy = TracedPolicy {
        inner: options.policy.policy(),
        recorder,
    };
    let mut identical = true;
    let mut passes = Vec::new();
    for _ in 0..3 {
        let op = recorder.begin_op();
        let mut events = 0;
        for (replica, expected) in report.replicas.iter().enumerate() {
            let subtrace: Vec<ServeRequest> = trace
                .iter()
                .zip(&report.assignments)
                .filter(|(_, &a)| a == replica)
                .map(|(r, _)| *r)
                .collect();
            let simulator = ServeSimulator::new(system.machine(), model.clone(), config);
            let served = recorder.in_span("serve.run", subtrace.len() as u64, || {
                simulator.run_with_scratch(&subtrace, &policy, &mut ServeScratch::new())
            });
            identical &= served == *expected;
            events += served.queue_samples.len();
        }
        passes.push((op, 0.0, serve_layers(recorder, op, events)));
    }
    out.set(per_op_medians(&passes).0);
    if !identical {
        eprintln!("a re-served replica sub-trace differs from the fleet's report");
    }
    identical
}

fn traced_paper(args: &Args) -> Outcome {
    let model = workloads::model();
    let recorder = Recorder::new();
    let mut out = Outcome::default();
    let check = workloads::check_figures;
    let facade = out
        .log
        .run(0, || workloads::regenerate(args.seed, None), check);
    let core_layers = |op: u32, _: &workloads::Figures| {
        let layers = recorder.layers(op);
        let seconds = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s());
        vec![
            ("core.table2_s", seconds("core.table2")),
            ("core.fig11_s", seconds("core.fig11")),
            ("core.fig12_s", seconds("core.fig12")),
            ("core.fig13_s", seconds("core.fig13")),
        ]
    };
    let (plain, per_op) = traced_pairs(
        args,
        &mut out.log,
        &recorder,
        || workloads::regenerate(args.seed, None),
        || workloads::regenerate(args.seed, Some(&recorder)),
        check,
        core_layers,
    );
    let (medians, median_op) = per_op_medians(&per_op);
    out.set(medians);
    out.set([overhead(plain, &per_op)]);
    let (mllm, gemv_s) = probes::mllm(&model, args.seed);
    out.set(mllm);
    let fig12_s = out.metrics.get("core.fig12_s").copied().unwrap_or(0.0);
    out.set([("mllm.fig12_share", gemv_s / fig12_s.max(1e-12))]);
    out.set(probes::pruning(&model, 7));
    // Table II's request: 20 text tokens, pruned decode at the keep ratio
    // the facade measures for it.
    let system = EdgeMm::paper_default();
    let table2 = ModelWorkload::new(model.clone(), 20, workloads::PAPER_OUTPUT_TOKENS);
    let keep = system
        .measure_pruning(&table2, RequestOptions::with_pruning().seed, 4)
        .average_keep_ratio
        .clamp(0.01, 1.0);
    let pruning = PruningEffect::with_keep_ratio(keep);
    let shape = [(20, workloads::PAPER_OUTPUT_TOKENS)];
    out.set(probes::sim(&model, &shape, pruning, usize::MAX));
    out.set(probes::chip(
        system.machine(),
        &model,
        &shape,
        pruning,
        Bytes::ZERO,
    ));
    if let Some((_, figures)) = &facade {
        let ratios = &figures.fig12.layer_pruning_ratio;
        let keep = 1.0 - ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        out.set([("pruning.keep_ratio", keep)]);
        let metrics = paper_metrics(figures, &mut out);
        out.set(metrics);
    }
    write_spans(
        &mut out,
        &recorder,
        median_op,
        Workload::PaperEval,
        args.seed,
    );
    out
}
