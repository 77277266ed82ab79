//! Layer probes, each timing one layer's public functions at a workload's
//! own shapes, and the modeled-chip attribution of a trace.

use std::hint::black_box;
use std::time::Instant;

use edgemm::arch::ClusterKind;
use edgemm::mem::{prefix_key, BlockTable, KvPool, PagedKvPool};
use edgemm::mllm::{
    gemv, ActivationGenerator, ActivationProfile, MatmulOp, Matrix, MllmConfig, ModelWorkload,
    Phase, TrafficClass,
};
use edgemm::pruning::{DynamicTopK, FixedRatioPruning, Pruner};
use edgemm::serve::ServeRequest;
use edgemm::sim::{Machine, PruningEffect, SimConfig};
use edgemm::units::{Bytes, Cycles, Tokens};
use edgemm::EdgeMm;
use edgemm_event::EventQueue;

/// Repetitions of each probe; every probe reports its median.
const REPS: usize = 5;

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn seconds(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// `Machine` pricing of the given `(text, output)` request shapes: one pass
/// over a fresh machine (`price_cold_s`), the same pass again
/// (`price_warm_s`), and the warm cost of one `op_cost` call.
pub fn sim(
    model: &MllmConfig,
    shapes: &[(usize, usize)],
    pruning: PruningEffect,
    chunk_tokens: usize,
) -> Vec<(&'static str, f64)> {
    let workloads: Vec<ModelWorkload> = shapes
        .iter()
        .map(|&(text, output)| ModelWorkload::new(model.clone(), text, output))
        .collect();
    let cc = ClusterKind::ComputeCentric;
    let mc = ClusterKind::MemoryCentric;
    let setup_ops: Vec<MatmulOp> = workloads
        .iter()
        .flat_map(|w| [Phase::VisionEncode, Phase::Projector].map(|p| w.phase_ops(p)))
        .flatten()
        .collect();
    let price = |machine: &Machine| {
        for op in &setup_ops {
            black_box(machine.op_cost(op, cc, PruningEffect::disabled()));
        }
        for w in &workloads {
            black_box(machine.prefill_chunk_costs(w, cc, chunk_tokens));
            black_box(machine.decode_step_costs_at(w, mc, pruning, w.average_context_tokens()));
        }
    };
    let mut priced: Vec<(MatmulOp, ClusterKind, PruningEffect)> = setup_ops
        .iter()
        .map(|op| (op.clone(), cc, PruningEffect::disabled()))
        .collect();
    for w in &workloads {
        let prompt = w.prompt_tokens();
        let mut cached = 0;
        while cached < prompt {
            let len = chunk_tokens.min(prompt - cached);
            let ops = w.prefill_chunk_ops(cached, len);
            priced.extend(
                ops.into_iter()
                    .map(|op| (op, cc, PruningEffect::disabled())),
            );
            cached += len;
        }
        let decode = w.decode_step_ops(w.average_context_tokens());
        priced.extend(decode.into_iter().map(|op| (op, mc, pruning)));
    }
    let (mut cold, mut warm, mut per_op) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let machine = Machine::new(SimConfig::paper_default());
        let start = Instant::now();
        price(&machine);
        cold.push(seconds(start));
        let start = Instant::now();
        price(&machine);
        warm.push(seconds(start));
        let start = Instant::now();
        for (op, kind, pruning) in &priced {
            black_box(machine.op_cost(op, *kind, *pruning));
        }
        per_op.push(seconds(start) * 1e9 / priced.len().max(1) as f64);
    }
    vec![
        ("sim.price_cold_s", median(cold)),
        ("sim.price_warm_s", median(warm)),
        ("sim.op_cost_ns", median(per_op)),
    ]
}

/// `EventQueue` push plus pop, per event, with the trace's arrivals as the
/// heap contents (the engine pushes every arrival up front).
pub fn event(requests: &[ServeRequest], clock_hz: f64) -> f64 {
    let cycles: Vec<Cycles> = requests
        .iter()
        .map(|r| Cycles::from_seconds_round(r.arrival_s, clock_hz))
        .collect();
    let mut queue = EventQueue::new();
    let mut samples = Vec::new();
    for _ in 0..4 * REPS {
        let start = Instant::now();
        for (i, &cycle) in cycles.iter().enumerate() {
            queue.push(cycle, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
        samples.push(seconds(start) * 1e9 / cycles.len().max(1) as f64);
    }
    median(samples)
}

/// `PagedKvPool` calls at the stack's pool shape: per request, attach its
/// shared prefix, grow to its full context, spill and restore the image
/// (when the stack has a spill area) and release. Nanoseconds per call.
pub fn mem(
    requests: &[ServeRequest],
    kv: KvPool,
    block_tokens: usize,
    bytes_per_token: u64,
    spill_capacity: Option<Bytes>,
) -> Vec<(&'static str, f64)> {
    let (mut grow, mut release, mut attach, mut spill) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let pool = PagedKvPool::new(kv, block_tokens, Bytes::per_token(bytes_per_token));
        let mut pool = match spill_capacity {
            Some(capacity) => pool.with_spill_capacity(capacity),
            None => pool,
        };
        let (mut grow_s, mut release_s, mut attach_s, mut spill_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut attaches, mut spills) = (0usize, 0usize);
        for request in requests {
            let mut table = BlockTable::empty();
            if let Some(prefix) = request.shared_prefix.filter(|p| p.tokens > 0) {
                let start = Instant::now();
                black_box(pool.try_attach_prefix(
                    &mut table,
                    prefix_key(prefix.id, prefix.tokens),
                    Tokens::new(prefix.tokens),
                ));
                attach_s += seconds(start);
                attaches += 1;
            }
            let context = Tokens::new(request.text_tokens + request.output_tokens);
            let start = Instant::now();
            black_box(pool.try_grow_to(&mut table, context));
            grow_s += seconds(start);
            if spill_capacity.is_some() && !table.is_empty() {
                let start = Instant::now();
                if let Some(ticket) = pool.try_spill(&mut table) {
                    black_box(pool.try_restore(&mut table, &ticket, true));
                }
                spill_s += seconds(start);
                spills += 1;
            }
            let start = Instant::now();
            pool.release(&mut table);
            release_s += seconds(start);
        }
        let n = requests.len().max(1) as f64;
        grow.push(grow_s * 1e9 / n);
        release.push(release_s * 1e9 / n);
        attach.push(attach_s * 1e9 / attaches.max(1) as f64);
        spill.push(spill_s * 1e9 / spills.max(1) as f64);
    }
    vec![
        ("mem.grow_ns", median(grow)),
        ("mem.release_ns", median(release)),
        ("mem.attach_ns", median(attach)),
        ("mem.spill_restore_ns", median(spill)),
    ]
}

/// The GEMV work of one Fig. 12 regeneration, timed through `gemv` at the
/// full FFN shape: per layer one dense reference product and three masked
/// ones (dynamic Top-k, fixed 0.1 and fixed 0.7 pruning), as
/// `figures::fig12_pruning` issues them. MACs and bytes are computed from
/// the tensor sizes; `gemv` skips zero inputs, so a masked product reads
/// and multiplies only the kept rows. Returns the metrics and the GEMV
/// seconds of one pass.
pub fn mllm(model: &MllmConfig, seed: u64) -> (Vec<(&'static str, f64)>, f64) {
    let (rows, cols, layers) = (model.llm.d_model, model.llm.d_ffn, model.llm.layers);
    let mut from_fn = Vec::new();
    let mut weights = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let m = Matrix::from_fn(rows, cols, |r, c| {
            let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 1000;
            (h as f32 / 1000.0 - 0.5) * 0.1
        });
        from_fn.push(seconds(start));
        weights = Some(black_box(m));
    }
    let weights = weights.expect("REPS > 0");
    let generator =
        ActivationGenerator::new(ActivationProfile::sphinx_tiny_like(layers, rows), seed);
    let mut dynamic = DynamicTopK::paper_default(rows);
    let mut mild = FixedRatioPruning::new(0.1);
    let mut aggressive = FixedRatioPruning::new(0.7);
    let mut inputs = Vec::with_capacity(4 * layers);
    for layer in 0..layers {
        let x = generator.generate(layer, 0);
        inputs.push(dynamic.select(layer, &x).mask(&x));
        inputs.push(mild.select(layer, &x).mask(&x));
        inputs.push(aggressive.select(layer, &x).mask(&x));
        inputs.push(x);
    }
    let nonzero: usize = inputs
        .iter()
        .map(|x| x.iter().filter(|v| **v != 0.0).count())
        .sum();
    let macs = (nonzero * cols) as f64;
    let bytes = (4 * (nonzero * cols + inputs.len() * (rows + cols))) as f64;
    let mut gemv_s = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        for x in &inputs {
            black_box(gemv(black_box(x), &weights));
        }
        gemv_s.push(seconds(start));
    }
    let gemv_s = median(gemv_s);
    (
        vec![
            ("mllm.gemv_calls", inputs.len() as f64),
            ("mllm.gemv_macs", macs),
            ("mllm.gemv_bytes", bytes),
            ("mllm.gemv_mac_per_s", macs / gemv_s),
            ("mllm.from_fn_s", median(from_fn)),
        ],
        gemv_s,
    )
}

/// `DynamicTopK::select` per call over the synthetic activations of four
/// tokens, and one cold `EdgeMm::measure_pruning` (fresh system).
pub fn pruning(model: &MllmConfig, seed: u64) -> Vec<(&'static str, f64)> {
    let (layers, channels) = (model.llm.layers, model.llm.d_model);
    let generator =
        ActivationGenerator::new(ActivationProfile::sphinx_tiny_like(layers, channels), seed);
    let tokens: Vec<Vec<Vec<f32>>> = (0..4).map(|t| generator.generate_token(t)).collect();
    let (mut select, mut measure) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let mut pruner = DynamicTopK::paper_default(channels);
        let start = Instant::now();
        for token in &tokens {
            pruner.reset();
            for (layer, x) in token.iter().enumerate() {
                black_box(pruner.select(layer, x));
            }
        }
        select.push(seconds(start) * 1e9 / (tokens.len() * layers) as f64);
        let system = EdgeMm::paper_default();
        let reference = ModelWorkload::new(model.clone(), 20, 32);
        let start = Instant::now();
        black_box(system.measure_pruning(&reference, 7, 4));
        measure.push(seconds(start));
    }
    vec![
        ("pruning.select_ns", median(select)),
        ("pruning.measure_s", median(measure)),
    ]
}

/// Modeled-chip attribution: every request's solo op stream (vision
/// encode, projector and prefill on the CC clusters, its decode steps at
/// the average context on the MC clusters) priced with `Machine::op_cost`
/// under `pruning`. Each op's `max(compute, dram)` cycles go to its phase
/// and to its bound: compute, or DRAM of its traffic class (KV cache or
/// weights). `dma_bytes` (spilled plus restored KV) comes from the report.
pub fn chip(
    machine: &Machine,
    model: &MllmConfig,
    requests: &[(usize, usize)],
    pruning: PruningEffect,
    dma_bytes: Bytes,
) -> Vec<(&'static str, f64)> {
    let mut phase = [0.0f64; 4];
    let mut bound = [0.0f64; 3];
    let mut add = |slot: usize, ops: &[MatmulOp], kind, pruning, repeat: f64| {
        for op in ops {
            let cost = machine.op_cost(op, kind, pruning);
            let cycles = cost.latency_cycles().get() as f64 * repeat;
            phase[slot] += cycles;
            let b = if cost.compute_cycles >= cost.dram_cycles {
                0
            } else if cost.traffic_class == TrafficClass::KvCache {
                2
            } else {
                1
            };
            bound[b] += cycles;
        }
    };
    let cc = ClusterKind::ComputeCentric;
    for &(text, output) in requests {
        let w = ModelWorkload::new(model.clone(), text, output);
        let off = PruningEffect::disabled();
        add(0, &w.phase_ops(Phase::VisionEncode), cc, off, 1.0);
        add(1, &w.phase_ops(Phase::Projector), cc, off, 1.0);
        add(2, &w.phase_ops(Phase::Prefill), cc, off, 1.0);
        let step = w.decode_step_ops(w.average_context_tokens());
        add(3, &step, ClusterKind::MemoryCentric, pruning, output as f64);
    }
    let total: f64 = phase.iter().sum::<f64>().max(1.0);
    vec![
        ("chip.encode_share", phase[0] / total),
        ("chip.projector_share", phase[1] / total),
        ("chip.prefill_share", phase[2] / total),
        ("chip.decode_share", phase[3] / total),
        ("chip.compute_share", bound[0] / total),
        ("chip.weight_dram_share", bound[1] / total),
        ("chip.kv_dram_share", bound[2] / total),
        ("chip.dma_mib", dma_bytes.as_f64() / (1u64 << 20) as f64),
    ]
}
