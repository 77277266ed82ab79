//! Model geometry descriptions: vision encoder, projector and LLM.

/// Geometry of a decoder-only LLM with a gated-MLP FFN (Llama/Qwen style).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LlmConfig {
    /// Human-readable name (e.g. "TinyLlama-1.1B").
    pub name: String,
    /// Number of decoder layers.
    pub layers: usize,
    /// Model (embedding) dimension.
    pub d_model: usize,
    /// FFN hidden dimension (typically several times `d_model`).
    pub d_ffn: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Number of key/value heads (grouped-query attention when < heads).
    pub kv_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl LlmConfig {
    /// Dimension of one attention head.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }

    /// Combined K/V projection width (`kv_heads * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// Parameter count of one decoder layer (attention + gated MLP),
    /// excluding norms (negligible).
    pub fn params_per_layer(&self) -> u64 {
        let d = self.d_model as u64;
        let kv = self.kv_dim() as u64;
        let f = self.d_ffn as u64;
        // Q and O projections d x d, K and V projections d x kv,
        // gate/up/down of the gated MLP.
        d * d + 2 * d * kv + d * d + 3 * d * f
    }

    /// Total decoder parameters, including embedding and LM head.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.layers as u64 + 2 * (self.vocab as u64 * self.d_model as u64)
    }

    /// KV-cache bytes for `tokens` cached tokens at `bytes_per_value` precision.
    pub fn kv_cache_bytes(&self, tokens: usize, bytes_per_value: usize) -> u64 {
        2 * self.layers as u64 * tokens as u64 * self.kv_dim() as u64 * bytes_per_value as u64
    }

    /// KV-cache bytes one cached token occupies across every layer (K and V)
    /// at `bytes_per_value` precision — the unit a block-granular KV
    /// allocator sizes its pages in.
    pub fn kv_bytes_per_token(&self, bytes_per_value: usize) -> u64 {
        self.kv_cache_bytes(1, bytes_per_value)
    }
}

/// Geometry of a ViT-style vision encoder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VisionEncoderConfig {
    /// Human-readable name (e.g. "CLIP ViT-L/14").
    pub name: String,
    /// Number of Transformer layers.
    pub layers: usize,
    /// Encoder embedding dimension.
    pub d_model: usize,
    /// Encoder MLP hidden dimension.
    pub d_ffn: usize,
    /// Number of image patch tokens produced per image.
    pub patch_tokens: usize,
}

impl VisionEncoderConfig {
    /// Parameter count of the encoder (attention is dense QKVO, MLP is 2-layer).
    pub fn total_params(&self) -> u64 {
        let d = self.d_model as u64;
        let f = self.d_ffn as u64;
        self.layers as u64 * (4 * d * d + 2 * d * f)
    }
}

/// The projector aligning vision tokens with the language model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjectorKind {
    /// A small MLP (most edge MLLMs).
    Mlp,
    /// A lightweight downsampling projector (MobileVLM's LDP).
    Ldp,
    /// A Q-former (BLIP-2 style).
    QFormer,
}

/// Projector configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProjectorConfig {
    /// Projector family.
    pub kind: ProjectorKind,
    /// Input (vision) dimension.
    pub d_in: usize,
    /// Output (LLM) dimension.
    pub d_out: usize,
    /// Number of vision tokens after projection (LDP/Q-former reduce it).
    pub output_tokens: usize,
}

impl ProjectorConfig {
    /// Parameter count (two-layer MLP equivalent).
    pub fn total_params(&self) -> u64 {
        (self.d_in as u64 + self.d_out as u64) * self.d_out as u64
    }
}

/// A complete multimodal LLM: encoder + projector + language model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MllmConfig {
    /// Model name as used in the paper (e.g. "SPHINX-Tiny").
    pub name: String,
    /// Vision encoder geometry.
    pub vision: VisionEncoderConfig,
    /// Projector geometry.
    pub projector: ProjectorConfig,
    /// Language model geometry.
    pub llm: LlmConfig,
    /// Bytes per weight parameter as deployed (2 = BF16, 1 = INT8).
    pub weight_bytes: usize,
}

impl MllmConfig {
    /// Total parameters of the full MLLM.
    pub fn total_params(&self) -> u64 {
        self.vision.total_params() + self.projector.total_params() + self.llm.total_params()
    }

    /// Total weight bytes as deployed.
    pub fn total_weight_bytes(&self) -> u64 {
        self.total_params() * self.weight_bytes as u64
    }

    /// Number of prompt tokens fed to the LLM for one image + `text_tokens`
    /// of text (vision tokens after projection plus the text).
    pub fn prompt_tokens(&self, text_tokens: usize) -> usize {
        self.projector.output_tokens + text_tokens
    }
}

#[cfg(test)]
mod tests {
    use crate::zoo;

    #[test]
    fn head_and_kv_dims() {
        let llm = zoo::tinyllama_1_1b();
        assert_eq!(llm.head_dim(), 2048 / 32);
        assert_eq!(llm.kv_dim(), 4 * 64);
    }

    #[test]
    fn tinyllama_param_count_close_to_1_1b() {
        let llm = zoo::tinyllama_1_1b();
        let params = llm.total_params() as f64;
        assert!(
            (0.9e9..1.3e9).contains(&params),
            "TinyLlama params = {params}"
        );
    }

    #[test]
    fn qwen_0_5b_param_count() {
        let llm = zoo::qwen1_5_0_5b();
        let params = llm.total_params() as f64;
        // Qwen1.5-0.5B has ~620M params including its large vocabulary.
        assert!((0.4e9..0.75e9).contains(&params), "Qwen params = {params}");
    }

    #[test]
    fn clip_vit_l_param_count_close_to_0_3b() {
        let vit = zoo::clip_vit_l14();
        let params = vit.total_params() as f64;
        assert!((0.25e9..0.4e9).contains(&params), "CLIP params = {params}");
    }

    #[test]
    fn kv_cache_grows_linearly_with_tokens() {
        let llm = zoo::tinyllama_1_1b();
        let one = llm.kv_cache_bytes(100, 2);
        let two = llm.kv_cache_bytes(200, 2);
        assert_eq!(two, 2 * one);
        // 100 tokens of GQA cache in BF16 should be small (< 10 MB),
        // consistent with Fig. 2c's observation that KV traffic is minor.
        assert!(one < 10_000_000);
    }

    #[test]
    fn sphinx_tiny_prompt_tokens_about_300() {
        // The paper profiles with ~300 input tokens, primarily vision tokens.
        let model = zoo::sphinx_tiny();
        let prompt = model.prompt_tokens(20);
        assert!((250..=350).contains(&prompt), "prompt tokens = {prompt}");
    }

    #[test]
    fn total_weight_bytes_uses_precision() {
        let mut model = zoo::karmavlm();
        let bf16 = model.total_weight_bytes();
        model.weight_bytes = 1;
        assert_eq!(model.total_weight_bytes() * 2, bf16);
    }

    #[test]
    fn projector_params_are_small() {
        let model = zoo::sphinx_tiny();
        assert!(model.projector.total_params() < model.llm.total_params() / 50);
    }
}
