//! Serving sweep: latency percentiles, throughput and SLO attainment of the
//! multi-request simulator over arrival rate x batch capacity x scheduling
//! policy x admission mode x memory configuration.
//!
//! Not a paper artifact — this probes the serving behaviour the ROADMAP's
//! north star targets (heavy concurrent traffic with latency deadlines) on
//! top of the paper's design point. Three sections:
//!
//! 1. **Latency sweep**: p50/p95/p99 end-to-end latency and tokens/s per
//!    (arrival rate, batch cap, policy) on an interactive trace.
//! 2. **SLO sweep**: per-class TTFT/TPOT tails, SLO attainment and
//!    deadline-miss/reject counts per (arrival rate, scheduling stack) on a
//!    mixed interactive + background trace — the arrival-rate axis shows
//!    where each stack stops holding its deadlines.
//! 3. **Memory pressure**: attainment, throughput, peak resident KV and
//!    chunk-preemption counts per (KV budget x prefill chunk size) on the
//!    overload trace, with batch membership governed by the KV pool instead
//!    of a constant cap — shows where the byte budget starts costing
//!    deadlines and how much chunked prefill buys back.
//! 4. **Paged vs reserved**: the same overload trace per (KV budget x
//!    allocation mode) — whole-request peak reservation against paged
//!    block allocation with mid-decode eviction — splitting the interactive
//!    misses into TTFT and TPOT so the decode-slot revocation win (and the
//!    re-prefill recompute tax it pays) are both visible.
//! 5. **Fleet routing**: the multi-tenant overload trace through the fleet
//!    gateway per (replica count x routing policy) — SLO attainment, load
//!    imbalance and cross-replica restarted-prefill tokens show what each
//!    router trades at 4-16 replicas.
//!
//! Every section computes its sweep points through the `edgemm-exec` pool
//! (`Pool::par_map`), so independent points run on all host cores while the
//! printed rows keep their serial order — results are byte-identical under
//! any `EDGEMM_THREADS` setting (the `parallel_sweep_is_byte_identical_to_serial`
//! property pins this).
//!
//! Set `EDGEMM_SMOKE=1` to run a small, fast configuration (used by CI and
//! the bin smoke test). See `docs/serving.md` and `docs/memory.md` for how
//! to read the output.
//!
//! Set `EDGEMM_BENCH_JSON=1` to also write `BENCH_serving.json`: one
//! `full_sweep` entry timing the whole five-section sweep serially and at
//! `EDGEMM_THREADS`, whose ratio is the recorded `parallel_speedup`. The
//! serve engine and the fleet gateway are timed by the repository
//! benchmark (`perfbench/`), and their work is pinned by the
//! `golden_cc_dispatch_counters` test.

use edgemm::serve::{merge, AdmissionControl, PolicyKind, ServeRequest, TraceConfig};
use edgemm::units::Bytes;
use edgemm::{EdgeMm, RoutingKind, ServeOptions};
use edgemm_exec::Pool;
use edgemm_mllm::zoo;

struct Sweep {
    requests: usize,
    rates: Vec<f64>,
    caps: Vec<usize>,
}

fn sweep_scale() -> (Sweep, &'static str) {
    let smoke = std::env::var("EDGEMM_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    if smoke {
        (
            Sweep {
                requests: 12,
                rates: vec![4.0, 16.0],
                caps: vec![1, 8],
            },
            "smoke",
        )
    } else {
        (
            Sweep {
                requests: 64,
                rates: vec![2.0, 8.0, 32.0],
                caps: vec![1, 4, 16],
            },
            "full",
        )
    }
}

/// The scheduling stacks the SLO sweep compares: the pre-SLO baseline, plain
/// EDF, and EDF with each hopeless-request admission mode.
const STACKS: [(PolicyKind, AdmissionControl); 4] = [
    (PolicyKind::Fcfs, AdmissionControl::Serve),
    (PolicyKind::EarliestDeadlineFirst, AdmissionControl::Serve),
    (PolicyKind::EarliestDeadlineFirst, AdmissionControl::Defer),
    (PolicyKind::EarliestDeadlineFirst, AdmissionControl::Reject),
];

/// The pre-rendered rows of all four sweep sections, in print order. Row
/// *computation* (the simulator work) fans out over the exec pool; row
/// *text* is assembled per point, so the printed output is independent of
/// completion order.
#[derive(Debug, PartialEq)]
struct SweepRows {
    latency: Vec<String>,
    slo: Vec<String>,
    memory: Vec<String>,
    paged: Vec<String>,
    fleet: Vec<String>,
}

impl SweepRows {
    fn points(&self) -> usize {
        self.latency.len()
            + self.slo.len()
            + self.memory.len()
            + self.paged.len()
            + self.fleet.len()
    }
}

/// Computes every section's rows through `pool`. This is the whole sweep's
/// simulator work in one call — the unit the `full_sweep` bench entry times
/// serially and in parallel.
fn sweep_rows(system: &EdgeMm, sweep: &Sweep, smoke: bool, pool: &Pool) -> SweepRows {
    SweepRows {
        latency: latency_rows(system, sweep, pool),
        slo: slo_rows(system, sweep, pool),
        memory: memory_rows(system, sweep, smoke, pool),
        paged: paged_rows(system, sweep, smoke, pool),
        fleet: fleet_rows(system, smoke, pool),
    }
}

fn latency_rows(system: &EdgeMm, sweep: &Sweep, pool: &Pool) -> Vec<String> {
    let model = zoo::sphinx_tiny();
    let points: Vec<(f64, usize, PolicyKind)> = sweep
        .rates
        .iter()
        .flat_map(|&rate| {
            sweep.caps.iter().flat_map(move |&cap| {
                PolicyKind::ALL
                    .into_iter()
                    .map(move |kind| (rate, cap, kind))
            })
        })
        .collect();
    pool.par_map(&points, |_, &(rate, cap, kind)| {
        let trace = TraceConfig::interactive(sweep.requests, rate, 11);
        let options = ServeOptions {
            batch_cap: Some(cap),
            policy: kind,
            ..ServeOptions::with_pruning()
        };
        let report = system.serve_trace(&model, &trace, options);
        format!(
            "{:>8.1} {:>5} {:>16} {:>7.0}ms {:>7.0}ms {:>7.0}ms {:>9.1} {:>7.2} {:>6}",
            rate,
            cap,
            kind.name(),
            report.p50_latency_s() * 1e3,
            report.p95_latency_s() * 1e3,
            report.p99_latency_s() * 1e3,
            report.tokens_per_second(),
            report.mean_batch_occupancy(),
            report.max_queue_depth(),
        )
    })
}

fn latency_sweep(rows: &[String], sweep: &Sweep, scale: &str) {
    println!(
        "== Serving sweep on SPHINX-Tiny ({scale}: {} requests/point, pruning on) ==",
        sweep.requests
    );
    println!(
        "{:>8} {:>5} {:>16} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6}",
        "rate/s", "cap", "policy", "p50", "p95", "p99", "tok/s", "occ", "depth"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(cap = decode stream-batch capacity; occ = mean streams per decode step; \
         depth = max requests waiting)"
    );
}

fn slo_rows(system: &EdgeMm, sweep: &Sweep, pool: &Pool) -> Vec<String> {
    let model = zoo::sphinx_tiny();
    let background = (sweep.requests / 4).max(1);
    let points: Vec<(f64, PolicyKind, AdmissionControl)> = sweep
        .rates
        .iter()
        .flat_map(|&rate| {
            STACKS
                .into_iter()
                .map(move |(policy, admission)| (rate, policy, admission))
        })
        .collect();
    pool.par_map(&points, |_, &(rate, policy, admission)| {
        // Regenerated per point: trace generation is seeded, so every stack
        // at the same rate sees the identical request stream.
        let mixed = merge(&[
            TraceConfig::interactive(sweep.requests, rate, 11).generate(),
            TraceConfig::background(background, rate / 4.0, 12).generate(),
        ]);
        let options = ServeOptions {
            policy,
            admission,
            ..ServeOptions::with_pruning()
        };
        let report = system.serve(&model, &mixed, options);
        let stack = format!("{}/{}", policy.name(), admission.name());
        report
            .class_stats()
            .into_iter()
            .map(|class| {
                format!(
                    "{:>8.1} {:>12} {:>12} {:>6.1} {:>5} {:>4} {:>6.0}ms {:>6.0}ms {:>6.1}ms {:>6.1}ms",
                    rate,
                    stack,
                    class.priority.name(),
                    class.attainment * 100.0,
                    class.misses,
                    class.rejected,
                    class.p95_ttft_s * 1e3,
                    class.p99_ttft_s * 1e3,
                    class.p95_tpot_s * 1e3,
                    class.p99_tpot_s * 1e3,
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    })
}

fn slo_sweep(rows: &[String], sweep: &Sweep) {
    let background = (sweep.requests / 4).max(1);
    println!(
        "\n== SLO sweep (mixed traffic: {} interactive + {} background requests/point, cap 8) ==",
        sweep.requests, background
    );
    println!(
        "{:>8} {:>12} {:>12} {:>6} {:>5} {:>4} {:>8} {:>8} {:>8} {:>8}",
        "rate/s",
        "stack",
        "class",
        "att%",
        "miss",
        "rej",
        "p95ttft",
        "p99ttft",
        "p95tpot",
        "p99tpot"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(att = SLO attainment over submitted requests, rejects count as misses; \
         miss = completed-but-missed + rejected;\n stack = CC policy / admission mode — \
         interactive class: 250 ms TTFT, 30 ms TPOT; background class: no deadlines)"
    );
}

/// The KV-budget x chunk-size grid of the memory-pressure section. `None`
/// entries are the unbounded / unchunked references.
fn memory_grid(smoke: bool) -> (Vec<Option<u64>>, Vec<Option<usize>>) {
    const MIB: u64 = 1 << 20;
    // Chunk 320 ~ one interactive SPHINX-Tiny prompt (288 vision + a few
    // dozen text tokens): interactive prefills stay 1-2 chunks (little
    // self-overhead) while long background prompts split into preemptible
    // pieces. Finer chunks buy more preemption points but tax every
    // request's own prefill.
    if smoke {
        (vec![Some(16 * MIB), None], vec![Some(320), None])
    } else {
        (
            vec![Some(16 * MIB), Some(48 * MIB), None],
            vec![Some(160), Some(320), None],
        )
    }
}

/// The shared overload trace of the memory-pressure and paged sections:
/// interactive traffic plus long-prompt background work (dashcam-summary-
/// sized: 512-768 text tokens on top of the 288 vision tokens) — the
/// traffic whose unpreemptible prefills starve interactive TTFT and whose
/// KV footprints stress the pool. Fixed at 12 req/s — past the serial CC
/// stage's knee (scheduling and memory policy matter) but short of
/// free-fall saturation, where every queued request is already hopeless and
/// preemption has nothing left to save. The same regime as the pinned
/// golden_memory_pressure_point.
fn overload_trace(sweep: &Sweep, rate: f64) -> Vec<ServeRequest> {
    let background = (sweep.requests / 4).max(1);
    merge(&[
        TraceConfig::interactive(sweep.requests, rate, 11).generate(),
        TraceConfig {
            text_tokens: (512, 768),
            ..TraceConfig::background(background, rate / 4.0, 12)
        }
        .generate(),
    ])
}

fn memory_rows(system: &EdgeMm, sweep: &Sweep, smoke: bool, pool: &Pool) -> Vec<String> {
    let model = zoo::sphinx_tiny();
    let mixed = overload_trace(sweep, 12.0);
    let (budgets, chunks) = memory_grid(smoke);
    let points: Vec<(Option<u64>, Option<usize>)> = budgets
        .iter()
        .flat_map(|&budget| chunks.iter().map(move |&chunk| (budget, chunk)))
        .collect();
    pool.par_map(&points, |_, &(budget, chunk)| {
        let options = ServeOptions {
            batch_cap: None,
            chunk_tokens: chunk,
            kv_budget_bytes: budget.map(Bytes::new),
            ..ServeOptions::slo_aware()
        };
        let report = system.serve(&model, &mixed, options);
        format!(
            "{:>8} {:>7} {:>6.1} {:>5} {:>9.1} {:>6.1}M {:>8} {:>6.0}ms",
            budget.map_or("inf".to_string(), |b| format!("{}M", b >> 20)),
            chunk.map_or("whole".to_string(), |c| c.to_string()),
            report.slo_attainment() * 100.0,
            report.deadline_misses(),
            report.tokens_per_second(),
            report.peak_kv_bytes.as_f64() / (1u64 << 20) as f64,
            report.preemptions,
            report.ttft_percentile_s(95.0) * 1e3,
        )
    })
}

fn memory_sweep(rows: &[String], sweep: &Sweep) {
    let total = sweep.requests + (sweep.requests / 4).max(1);
    println!(
        "\n== Memory pressure (edf/defer, no batch cap: KV budget x prefill chunk, \
         {total} requests at 12/s) =="
    );
    println!(
        "{:>8} {:>7} {:>6} {:>5} {:>9} {:>8} {:>8} {:>8}",
        "kv", "chunk", "att%", "miss", "tok/s", "peakKV", "preempt", "p95ttft"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(kv = KV-pool byte budget governing decode-batch admission (inf = unbounded); \
         chunk = prefill chunk tokens\n (whole = unpreemptible); peakKV = high-water \
         resident KV — always within the budget; preempt = chunk-boundary\n preemptions. \
         On-chip tier: 4 MiB of MC SRAM; spilled KV pays the bandwidth penalty.)"
    );
}

fn paged_rows(system: &EdgeMm, sweep: &Sweep, smoke: bool, pool: &Pool) -> Vec<String> {
    use edgemm::serve::{Priority, ServeReport};
    let model = zoo::sphinx_tiny();
    // The same overload regime as the memory-pressure section, under
    // budgets tight enough that a single long-prompt background context
    // rivals (or overflows) the pool.
    let mixed = overload_trace(sweep, 12.0);
    let budgets: &[u64] = if smoke { &[8] } else { &[8, 12, 24] };
    let interactive = |report: &ServeReport, miss: fn(&edgemm::serve::CompletedRequest) -> bool| {
        report
            .completed
            .iter()
            .filter(|c| c.slo.priority == Priority::Interactive && miss(c))
            .count()
            + report.rejected.len()
    };
    let points: Vec<(u64, bool)> = budgets
        .iter()
        .flat_map(|&budget| [false, true].into_iter().map(move |paged| (budget, paged)))
        .collect();
    pool.par_map(&points, |_, &(budget, paged)| {
        let mut options = ServeOptions::memory_aware(Bytes::new(budget << 20), 320);
        if paged {
            options = options.paged(16);
        }
        let report = system.serve(&model, &mixed, options);
        format!(
            "{:>7}M {:>9} {:>6.1} {:>6} {:>6} {:>9.1} {:>6.1}M {:>8} {:>8}",
            budget,
            if paged { "paged" } else { "reserved" },
            report.slo_attainment() * 100.0,
            interactive(&report, |c| !c.meets_ttft()),
            interactive(&report, |c| !c.meets_tpot()),
            report.tokens_per_second(),
            report.peak_kv_bytes.as_f64() / (1u64 << 20) as f64,
            report.evictions,
            report.restarted_prefill_tokens,
        )
    })
}

fn paged_sweep(rows: &[String], sweep: &Sweep) {
    let total = sweep.requests + (sweep.requests / 4).max(1);
    println!(
        "\n== Paged vs reserved (edf/defer, chunk 320, block 16: KV budget x allocation, \
         {total} requests at 12/s) =="
    );
    println!(
        "{:>8} {:>9} {:>6} {:>6} {:>6} {:>9} {:>7} {:>8} {:>8}",
        "kv", "alloc", "att%", "i-ttft", "i-tpot", "tok/s", "peakKV", "evict", "restart"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(alloc = KV admission mode: whole-request peak reservation vs 16-token paged blocks \
         with mid-decode\n eviction; i-ttft/i-tpot = interactive TTFT/TPOT deadline misses \
         (rejects count in both); evict =\n mid-decode evictions; restart = re-prefilled \
         tokens evictions forced back through the CC stage.\n Revoking decode slots erases \
         the TPOT misses; the recompute load can add TTFT misses — docs/memory.md\n walks \
         the pinned 8 MiB point by hand.)"
    );
}

/// The multi-tenant overload trace of the fleet section — the full scale is
/// the exact trace `golden_fleet_routing_point` pins (six tenants plus
/// long-prompt background), the smoke scale a quarter of it.
fn fleet_trace(smoke: bool) -> Vec<ServeRequest> {
    let (requests, background) = if smoke { (24, 4) } else { (96, 8) };
    merge(&[
        TraceConfig::multi_tenant(6, requests, 48.0, 23).generate(),
        TraceConfig {
            text_tokens: (512, 768),
            ..TraceConfig::background(background, 12.0, 123)
        }
        .generate(),
    ])
}

/// The fleet serving stack: paged KV with prefix sharing but no spill area,
/// so every eviction recomputes — restarted-prefill tokens measure how much
/// KV each routing policy threw away (`golden_fleet_routing_point` pins the
/// 16-replica cell of this grid).
fn fleet_options() -> ServeOptions {
    ServeOptions {
        prefix_sharing: true,
        ..ServeOptions::memory_aware(Bytes::new(8 << 20), 64).paged(16)
    }
}

fn fleet_rows(system: &EdgeMm, smoke: bool, pool: &Pool) -> Vec<String> {
    let model = zoo::sphinx_tiny();
    let trace = fleet_trace(smoke);
    let options = fleet_options();
    let replica_counts: &[usize] = if smoke { &[2, 4] } else { &[4, 8, 16] };
    let points: Vec<(usize, RoutingKind)> = replica_counts
        .iter()
        .flat_map(|&replicas| {
            RoutingKind::ALL
                .into_iter()
                .map(move |kind| (replicas, kind))
        })
        .collect();
    pool.par_map(&points, |_, &(replicas, kind)| {
        let report = system.serve_fleet(&model, &trace, replicas, kind, options);
        format!(
            "{:>9} {:>16} {:>6.1} {:>8} {:>9.2} {:>8.2}s",
            replicas,
            kind.name(),
            report.slo_attainment() * 100.0,
            report.restarted_prefill_tokens(),
            report.load_imbalance(),
            report.makespan_s,
        )
    })
}

fn fleet_sweep(rows: &[String], smoke: bool) {
    let total = fleet_trace(smoke).len();
    println!(
        "\n== Fleet routing (gateway over N replicas: replica count x policy, \
         {total} multi-tenant requests, 8 MiB paged KV + sharing per replica) =="
    );
    println!(
        "{:>9} {:>16} {:>6} {:>8} {:>9} {:>9}",
        "replicas", "routing", "att%", "restart", "imbal", "makespan"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "\n(restart = re-prefilled tokens summed over replicas — duplicated tenant \
         prefixes overflow the paged\n pools and evict; imbal = max replica share x \
         replica count (1.0 = perfectly even).\n docs/fleet.md walks the 16-replica row \
         by hand.)"
    );
}

/// Writes `BENCH_serving.json`: a JSON array holding one `full_sweep`
/// entry — wall seconds for all five sweep sections' points, computed
/// serially and again at `EDGEMM_THREADS` workers. `parallel_speedup` is
/// the ratio, and the recorded `threads` / `host_parallelism` say what the
/// host could actually offer.
///
/// Wall-clock use is deliberate and confined to this bin: the simulated
/// *reports* stay bit-identical across runs and thread counts (the
/// `sim-determinism` and `raw-thread` lints guard the cores); only the
/// host-side speed of producing them varies.
fn bench_json(system: &EdgeMm, sweep: &Sweep, smoke: bool) {
    use std::time::Instant;
    // The printed run in main() already served as the warm-up pass for
    // both timed passes.
    let serial_start = Instant::now();
    let serial = sweep_rows(system, sweep, smoke, &Pool::serial());
    let serial_wall_s = serial_start.elapsed().as_secs_f64();
    let pool = Pool::from_env();
    let parallel_start = Instant::now();
    let parallel = sweep_rows(system, sweep, smoke, &pool);
    let wall_s = parallel_start.elapsed().as_secs_f64();
    assert_eq!(
        serial, parallel,
        "parallel sweep rows diverged from the serial rows"
    );
    let points = parallel.points();
    let parallel_speedup = serial_wall_s / wall_s;
    println!(
        "[bench] full_sweep: {points} points, serial {serial_wall_s:.2}s, \
         {} thread(s) {wall_s:.2}s ({parallel_speedup:.2}x)",
        pool.threads()
    );
    let json = format!(
        "[\n  {{\n    \"bench\": \"serving_sweep/full_sweep\",\n    \
         \"unit\": \"sweep_wall_seconds\",\n    \
         \"points\": {points},\n    \"threads\": {},\n    \
         \"host_parallelism\": {},\n    \"serial_wall_s\": {serial_wall_s:.6},\n    \
         \"wall_s\": {wall_s:.6},\n    \"parallel_speedup\": {parallel_speedup:.2}\n  }}\n]\n",
        pool.threads(),
        edgemm_exec::host_parallelism(),
    );
    let path = "BENCH_serving.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("[bench] wrote {path}"),
        Err(e) => eprintln!("[bench] failed to write {path}: {e}"),
    }
}

fn main() {
    let (sweep, scale) = sweep_scale();
    let smoke = scale == "smoke";
    let system = EdgeMm::paper_default();
    let pool = Pool::from_env();
    let rows = sweep_rows(&system, &sweep, smoke, &pool);
    latency_sweep(&rows.latency, &sweep, scale);
    slo_sweep(&rows.slo, &sweep);
    memory_sweep(&rows.memory, &sweep);
    paged_sweep(&rows.paged, &sweep);
    fleet_sweep(&rows.fleet, smoke);
    let bench = std::env::var("EDGEMM_BENCH_JSON").is_ok_and(|v| v != "0" && !v.is_empty());
    if bench {
        bench_json(&system, &sweep, smoke);
    }
}
