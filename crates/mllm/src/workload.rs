//! Operator streams of the MLLM inference phases.
//!
//! The evaluation never needs real weight values at the architecture level —
//! it needs to know *which matrix multiplications of which shapes* run in
//! each phase, how many FLOPs they perform and how much DRAM traffic they
//! generate. [`ModelWorkload`] expands an [`MllmConfig`] into that operator
//! stream:
//!
//! * **Vision encode** — dense GEMMs over all patch tokens (compute-bound);
//! * **Projector** — a couple of small GEMMs (negligible, per Fig. 2a);
//! * **LLM prefill** — dense GEMMs over all prompt tokens;
//! * **LLM decode** — GEMVs touching every weight matrix once per generated
//!   token (memory-bound), plus the KV-cache attention.

use crate::config::MllmConfig;

/// Semantic class of the DRAM traffic an operator's weights generate.
///
/// Mirrors `edgemm_mem::TrafficClass` (the memory crate must not depend on the
/// workload crate). No code converts: op costs carry this, DMA requests that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Feed-forward network weights.
    FfnWeights,
    /// Attention projection weights.
    AttentionWeights,
    /// KV cache reads/writes.
    KvCache,
    /// Activations and embeddings.
    Activations,
    /// Vision encoder weights.
    EncoderWeights,
}

/// The inference phases of an MLLM (paper Fig. 1a / Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Vision-encoder forward pass over the image patches.
    VisionEncode,
    /// Projector aligning vision tokens with the LLM.
    Projector,
    /// LLM prefill over all prompt tokens.
    Prefill,
    /// LLM autoregressive decoding (one token per step).
    Decode,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 4] = [
        Phase::VisionEncode,
        Phase::Projector,
        Phase::Prefill,
        Phase::Decode,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::VisionEncode => "vision encoder",
            Phase::Projector => "projector",
            Phase::Prefill => "LLM prefill",
            Phase::Decode => "LLM decode",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether an operator is a multi-row GEMM or a single-row GEMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Multi-token matrix-matrix multiply (compute-bound).
    Gemm,
    /// Single-token matrix-vector multiply (memory-bound).
    Gemv,
}

/// One matrix-multiplication operator of the workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatmulOp {
    /// Operator name, e.g. `"layer3.ffn.gate"`.
    pub name: String,
    /// Phase the operator belongs to.
    pub phase: Phase,
    /// GEMM or GEMV.
    pub kind: OpKind,
    /// Output rows (number of token vectors processed).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Traffic class of the stationary (weight) operand.
    pub weight_class: TrafficClass,
    /// Whether the stationary operand must be streamed from DRAM (true for
    /// weights and KV cache; false for on-chip activation-only ops).
    pub weights_from_dram: bool,
    /// Whether the operator is an FFN GEMV eligible for activation-aware
    /// weight pruning.
    pub prunable: bool,
}

impl MatmulOp {
    /// Floating-point operations (multiply-accumulate counted as 2 FLOPs).
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Bytes of the stationary operand at the given weight precision
    /// (zero when the operand is already on-chip).
    pub fn weight_bytes(&self, bytes_per_weight: usize) -> u64 {
        if self.weights_from_dram {
            self.k as u64 * self.n as u64 * bytes_per_weight as u64
        } else {
            0
        }
    }

    /// Bytes of streaming activations in and out (BF16).
    pub fn activation_bytes(&self) -> u64 {
        2 * (self.m as u64 * self.k as u64 + self.m as u64 * self.n as u64)
    }

    /// Arithmetic intensity in FLOPs per DRAM byte.
    pub fn arithmetic_intensity(&self, bytes_per_weight: usize) -> f64 {
        let bytes = self.weight_bytes(bytes_per_weight) + self.activation_bytes();
        if bytes == 0 {
            f64::INFINITY
        } else {
            self.flops() as f64 / bytes as f64
        }
    }
}

/// Expansion of an [`MllmConfig`] into per-phase operator streams for a
/// given request (one image plus `text_tokens` of prompt, generating
/// `output_tokens`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWorkload {
    config: MllmConfig,
    text_tokens: usize,
    output_tokens: usize,
}

impl ModelWorkload {
    /// Create a workload for one request.
    ///
    /// # Panics
    ///
    /// Panics if `output_tokens` is zero.
    pub fn new(config: MllmConfig, text_tokens: usize, output_tokens: usize) -> Self {
        assert!(output_tokens > 0, "must generate at least one token");
        ModelWorkload {
            config,
            text_tokens,
            output_tokens,
        }
    }

    /// The underlying model configuration.
    pub fn config(&self) -> &MllmConfig {
        &self.config
    }

    /// Number of prompt tokens fed to the LLM (vision + text).
    pub fn prompt_tokens(&self) -> usize {
        self.config.prompt_tokens(self.text_tokens)
    }

    /// Number of output tokens generated.
    pub fn output_tokens(&self) -> usize {
        self.output_tokens
    }

    /// Operators of the vision-encoder phase.
    pub fn vision_encoder_ops(&self) -> Vec<MatmulOp> {
        let v = &self.config.vision;
        let s = v.patch_tokens;
        let d = v.d_model;
        let f = v.d_ffn;
        let mut ops = Vec::with_capacity(v.layers * 6);
        for layer in 0..v.layers {
            let mk_op =
                |name: &str, m: usize, k: usize, n: usize, class, from_dram: bool| MatmulOp {
                    name: format!("vision.layer{layer}.{name}"),
                    phase: Phase::VisionEncode,
                    kind: OpKind::Gemm,
                    m,
                    k,
                    n,
                    weight_class: class,
                    weights_from_dram: from_dram,
                    prunable: false,
                };
            ops.push(mk_op(
                "qkv",
                s,
                d,
                3 * d,
                TrafficClass::EncoderWeights,
                true,
            ));
            ops.push(mk_op(
                "attn.scores",
                s,
                d,
                s,
                TrafficClass::Activations,
                false,
            ));
            ops.push(mk_op(
                "attn.values",
                s,
                s,
                d,
                TrafficClass::Activations,
                false,
            ));
            ops.push(mk_op(
                "attn.out",
                s,
                d,
                d,
                TrafficClass::EncoderWeights,
                true,
            ));
            ops.push(mk_op(
                "mlp.fc1",
                s,
                d,
                f,
                TrafficClass::EncoderWeights,
                true,
            ));
            ops.push(mk_op(
                "mlp.fc2",
                s,
                f,
                d,
                TrafficClass::EncoderWeights,
                true,
            ));
        }
        ops
    }

    /// Operators of the projector phase.
    pub fn projector_ops(&self) -> Vec<MatmulOp> {
        let p = &self.config.projector;
        let s = self.config.vision.patch_tokens;
        vec![
            MatmulOp {
                name: "projector.fc1".to_string(),
                phase: Phase::Projector,
                kind: OpKind::Gemm,
                m: s,
                k: p.d_in,
                n: p.d_out,
                weight_class: TrafficClass::EncoderWeights,
                weights_from_dram: true,
                prunable: false,
            },
            MatmulOp {
                name: "projector.fc2".to_string(),
                phase: Phase::Projector,
                kind: OpKind::Gemm,
                m: p.output_tokens,
                k: p.d_out,
                n: p.d_out,
                weight_class: TrafficClass::EncoderWeights,
                weights_from_dram: true,
                prunable: false,
            },
        ]
    }

    /// Operators of one decoder layer, parameterised by the number of query
    /// rows `m` (the prompt length for prefill, 1 for decode) and the number
    /// of cached tokens visible to attention.
    fn decoder_layer_ops(
        &self,
        layer: usize,
        phase: Phase,
        m: usize,
        cached: usize,
    ) -> Vec<MatmulOp> {
        let llm = &self.config.llm;
        let d = llm.d_model;
        let kv = llm.kv_dim();
        let f = llm.d_ffn;
        let kind = if m == 1 { OpKind::Gemv } else { OpKind::Gemm };
        let op = |name: String, k: usize, n: usize, class, from_dram, prunable| MatmulOp {
            name,
            phase,
            kind,
            m,
            k,
            n,
            weight_class: class,
            weights_from_dram: from_dram,
            prunable,
        };
        vec![
            op(
                format!("layer{layer}.attn.qkv"),
                d,
                d + 2 * kv,
                TrafficClass::AttentionWeights,
                true,
                false,
            ),
            // Attention score and value aggregation against the cached
            // context; the stationary operand is the KV cache.
            MatmulOp {
                name: format!("layer{layer}.attn.scores"),
                phase,
                kind,
                m,
                k: d,
                n: cached,
                weight_class: TrafficClass::KvCache,
                weights_from_dram: true,
                prunable: false,
            },
            MatmulOp {
                name: format!("layer{layer}.attn.context"),
                phase,
                kind,
                m,
                k: cached,
                n: d,
                weight_class: TrafficClass::KvCache,
                weights_from_dram: true,
                prunable: false,
            },
            op(
                format!("layer{layer}.attn.out"),
                d,
                d,
                TrafficClass::AttentionWeights,
                true,
                false,
            ),
            op(
                format!("layer{layer}.ffn.gate"),
                d,
                f,
                TrafficClass::FfnWeights,
                true,
                m == 1,
            ),
            op(
                format!("layer{layer}.ffn.up"),
                d,
                f,
                TrafficClass::FfnWeights,
                true,
                m == 1,
            ),
            op(
                format!("layer{layer}.ffn.down"),
                f,
                d,
                TrafficClass::FfnWeights,
                true,
                m == 1,
            ),
        ]
    }

    /// Operators of the LLM prefill phase.
    pub fn prefill_ops(&self) -> Vec<MatmulOp> {
        let s = self.prompt_tokens();
        (0..self.config.llm.layers)
            .flat_map(|layer| self.decoder_layer_ops(layer, Phase::Prefill, s, s))
            .collect()
    }

    /// Operators of one prefill *chunk*: `chunk_tokens` prompt tokens
    /// processed while `cached_tokens` earlier tokens already sit in the KV
    /// cache (Sarathi/vLLM-style chunked prefill). Causal attention within
    /// the chunk sees the cached prefix plus the chunk itself, so the
    /// KV-facing operators read `cached_tokens + chunk_tokens` entries —
    /// the per-chunk KV traffic grows with the prefix exactly as it does on
    /// real hardware, instead of charging the whole prompt at once.
    ///
    /// `prefill_chunk_ops(0, prompt_tokens())` is identical to
    /// [`Self::prefill_ops`]: the unchunked prefill is the one-chunk special
    /// case.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is empty or `cached_tokens + chunk_tokens`
    /// exceeds the prompt length.
    pub fn prefill_chunk_ops(&self, cached_tokens: usize, chunk_tokens: usize) -> Vec<MatmulOp> {
        assert!(
            chunk_tokens >= 1,
            "prefill chunk must cover at least one token"
        );
        assert!(
            cached_tokens + chunk_tokens <= self.prompt_tokens(),
            "chunk [{cached_tokens}, {}) exceeds the {}-token prompt",
            cached_tokens + chunk_tokens,
            self.prompt_tokens()
        );
        let visible = cached_tokens + chunk_tokens;
        (0..self.config.llm.layers)
            .flat_map(|layer| self.decoder_layer_ops(layer, Phase::Prefill, chunk_tokens, visible))
            .collect()
    }

    /// Operators of one decode step when `past_tokens` tokens are cached.
    pub fn decode_step_ops(&self, past_tokens: usize) -> Vec<MatmulOp> {
        (0..self.config.llm.layers)
            .flat_map(|layer| self.decoder_layer_ops(layer, Phase::Decode, 1, past_tokens))
            .collect()
    }

    /// The two KV-facing attention operators — score and context
    /// aggregation, in stream order — of one decode step with `past_tokens`
    /// tokens cached. They are identical in every decoder layer except for
    /// the label, so this single pair (layer 0's) prices the KV side of a
    /// whole step; it is carved from the same per-layer stream as
    /// [`Self::decode_step_ops`], so the shapes can never drift apart.
    pub fn decode_kv_ops(&self, past_tokens: usize) -> (MatmulOp, MatmulOp) {
        let mut kv_ops = self
            .decoder_layer_ops(0, Phase::Decode, 1, past_tokens)
            .into_iter()
            .filter(|op| op.weight_class == TrafficClass::KvCache);
        // lint:allow(no-unwrap): every decoder layer emits both KV ops
        let scores = kv_ops.next().expect("attention scores op");
        // lint:allow(no-unwrap): every decoder layer emits both KV ops
        let aggregate = kv_ops.next().expect("attention context op");
        (scores, aggregate)
    }

    /// The "average" decode context length: prompt plus half the output.
    /// This is the single representative context the whole-phase decode
    /// model prices every step at; per-step serving costs instead price the
    /// actual context via [`Self::decode_step_ops`].
    pub fn average_context_tokens(&self) -> usize {
        self.prompt_tokens() + self.output_tokens / 2
    }

    /// Operators of an "average" decode step (cached length =
    /// [`Self::average_context_tokens`]), used when a single representative
    /// step is enough.
    pub fn average_decode_step_ops(&self) -> Vec<MatmulOp> {
        self.decode_step_ops(self.average_context_tokens())
    }

    /// Operators of a whole phase. For [`Phase::Decode`] this returns the
    /// average step (multiply cycle results by [`Self::output_tokens`] to
    /// cover the full generation).
    pub fn phase_ops(&self, phase: Phase) -> Vec<MatmulOp> {
        match phase {
            Phase::VisionEncode => self.vision_encoder_ops(),
            Phase::Projector => self.projector_ops(),
            Phase::Prefill => self.prefill_ops(),
            Phase::Decode => self.average_decode_step_ops(),
        }
    }

    /// Total FLOPs of a phase (decode counted over all generated tokens).
    pub fn phase_flops(&self, phase: Phase) -> u64 {
        let per_pass: u64 = self.phase_ops(phase).iter().map(MatmulOp::flops).sum();
        match phase {
            Phase::Decode => per_pass * self.output_tokens as u64,
            _ => per_pass,
        }
    }

    /// Total DRAM weight traffic of a phase in bytes (decode counted over all
    /// generated tokens — weights are re-read every step).
    pub fn phase_weight_bytes(&self, phase: Phase) -> u64 {
        let bytes_per_weight = self.config.weight_bytes;
        let per_pass: u64 = self
            .phase_ops(phase)
            .iter()
            .map(|op| op.weight_bytes(bytes_per_weight))
            .sum();
        match phase {
            Phase::Decode => per_pass * self.output_tokens as u64,
            _ => per_pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn workload() -> ModelWorkload {
        ModelWorkload::new(zoo::sphinx_tiny(), 20, 64)
    }

    #[test]
    fn prefill_is_gemm_decode_is_gemv() {
        let w = workload();
        assert!(w.prefill_ops().iter().all(|op| op.kind == OpKind::Gemm));
        assert!(w
            .decode_step_ops(300)
            .iter()
            .all(|op| op.kind == OpKind::Gemv));
    }

    #[test]
    fn decode_flops_orders_of_magnitude_below_prefill_per_pass() {
        // Fig. 2b: decode uses the same weights as prefill but two orders of
        // magnitude fewer FLOPs per pass (single token vs ~300 tokens).
        let w = workload();
        let prefill: u64 = w.prefill_ops().iter().map(MatmulOp::flops).sum();
        let decode_step: u64 = w.decode_step_ops(308).iter().map(MatmulOp::flops).sum();
        let ratio = prefill as f64 / decode_step as f64;
        assert!(ratio > 100.0, "ratio = {ratio}");
    }

    #[test]
    fn decode_weight_traffic_equals_prefill_weight_traffic_per_pass() {
        // Same parameters are touched; only the FLOPs differ.
        let w = workload();
        let bytes = |ops: &[MatmulOp]| -> u64 {
            ops.iter()
                .filter(|o| o.weight_class != TrafficClass::KvCache)
                .map(|o| o.weight_bytes(2))
                .sum()
        };
        let prefill = bytes(&w.prefill_ops());
        let decode = bytes(&w.decode_step_ops(308));
        assert_eq!(prefill, decode);
    }

    #[test]
    fn ffn_dominates_decode_weight_traffic() {
        // Fig. 2c: FFN weights are the largest memory-access contributor.
        let w = workload();
        let ops = w.decode_step_ops(308);
        let total: u64 = ops.iter().map(|o| o.weight_bytes(2)).sum();
        let ffn: u64 = ops
            .iter()
            .filter(|o| o.weight_class == TrafficClass::FfnWeights)
            .map(|o| o.weight_bytes(2))
            .sum();
        assert!(
            ffn as f64 / total as f64 > 0.5,
            "FFN fraction = {}",
            ffn as f64 / total as f64
        );
    }

    #[test]
    fn kv_cache_traffic_is_minor_for_short_contexts() {
        let w = workload();
        let ops = w.decode_step_ops(308);
        let total: u64 = ops.iter().map(|o| o.weight_bytes(2)).sum();
        let kv: u64 = ops
            .iter()
            .filter(|o| o.weight_class == TrafficClass::KvCache)
            .map(|o| o.weight_bytes(2))
            .sum();
        assert!(
            (kv as f64 / total as f64) < 0.15,
            "KV fraction = {}",
            kv as f64 / total as f64
        );
    }

    #[test]
    fn only_ffn_gemvs_are_prunable() {
        let w = workload();
        for op in w.decode_step_ops(100) {
            if op.prunable {
                assert_eq!(op.weight_class, TrafficClass::FfnWeights);
                assert_eq!(op.kind, OpKind::Gemv);
            }
        }
        // Prefill FFN GEMMs are not prunable (pruning targets GEMV decode).
        assert!(w.prefill_ops().iter().all(|op| !op.prunable));
    }

    #[test]
    fn vision_encoder_is_compute_dense() {
        let w = workload();
        let ops = w.vision_encoder_ops();
        assert!(!ops.is_empty());
        // Arithmetic intensity of encoder GEMMs should be high (compute-bound).
        let qkv = &ops[0];
        assert!(qkv.arithmetic_intensity(2) > 50.0);
    }

    #[test]
    fn decode_gemv_intensity_is_low() {
        let w = workload();
        let ops = w.decode_step_ops(300);
        let ffn = ops.iter().find(|o| o.name.contains("ffn.gate")).unwrap();
        assert!(ffn.arithmetic_intensity(2) < 2.0);
    }

    #[test]
    fn projector_is_negligible() {
        let w = workload();
        let projector: u64 = w.projector_ops().iter().map(MatmulOp::flops).sum();
        let prefill: u64 = w.prefill_ops().iter().map(MatmulOp::flops).sum();
        assert!(projector < prefill / 50);
    }

    #[test]
    fn phase_flops_scale_decode_by_output_tokens() {
        let w = workload();
        let one_step: u64 = w
            .average_decode_step_ops()
            .iter()
            .map(MatmulOp::flops)
            .sum();
        assert_eq!(w.phase_flops(Phase::Decode), one_step * 64);
    }

    #[test]
    fn one_chunk_prefill_is_the_whole_prefill() {
        let w = workload();
        assert_eq!(w.prefill_chunk_ops(0, w.prompt_tokens()), w.prefill_ops());
    }

    #[test]
    fn chunked_prefill_flops_sum_to_the_unchunked_flops() {
        // Splitting the prompt never changes the total multiply-accumulate
        // work of the weight-facing GEMMs; only the KV-facing attention ops
        // redistribute (chunk i sees a shorter prefix than the full prompt).
        let w = workload();
        let s = w.prompt_tokens();
        let chunk = 96;
        let weight_flops = |ops: &[MatmulOp]| -> u64 {
            ops.iter()
                .filter(|o| o.weight_class != TrafficClass::KvCache)
                .map(MatmulOp::flops)
                .sum()
        };
        let mut chunked = 0u64;
        let mut start = 0;
        while start < s {
            let len = chunk.min(s - start);
            chunked += weight_flops(&w.prefill_chunk_ops(start, len));
            start += len;
        }
        assert_eq!(chunked, weight_flops(&w.prefill_ops()));
    }

    #[test]
    fn chunk_attention_reads_only_the_visible_prefix() {
        let w = workload();
        let ops = w.prefill_chunk_ops(100, 50);
        let scores = ops.iter().find(|o| o.name.contains("attn.scores")).unwrap();
        assert_eq!(scores.m, 50);
        assert_eq!(scores.n, 150);
        let context = ops
            .iter()
            .find(|o| o.name.contains("attn.context"))
            .unwrap();
        assert_eq!(context.k, 150);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn chunk_past_the_prompt_panics() {
        let w = workload();
        let s = w.prompt_tokens();
        w.prefill_chunk_ops(s - 1, 2);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_chunk_panics() {
        workload().prefill_chunk_ops(0, 0);
    }

    #[test]
    fn op_counts_match_layer_counts() {
        let w = workload();
        assert_eq!(w.prefill_ops().len(), w.config().llm.layers * 7);
        assert_eq!(w.vision_encoder_ops().len(), w.config().vision.layers * 6);
    }

    #[test]
    #[should_panic(expected = "must generate at least one token")]
    fn zero_output_tokens_panics() {
        ModelWorkload::new(zoo::sphinx_tiny(), 10, 0);
    }

    #[test]
    fn phase_labels() {
        assert_eq!(Phase::Decode.to_string(), "LLM decode");
        assert_eq!(Phase::ALL.len(), 4);
    }
}
