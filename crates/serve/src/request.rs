//! Requests entering and leaving the serving simulator.

use edgemm_core::units::Tokens;

use crate::slo::SloClass;

/// A declared shared prompt prefix: the leading `tokens` text tokens of the
/// request's prompt are a system prompt identified by `id` — byte-identical
/// across every request carrying the same `(id, tokens)` pair (a tenant's
/// system prompt). The paged pool maps one physical copy of its KV blocks
/// across all of them when prefix sharing is enabled.
///
/// The shared text precedes the image: it occupies the first `tokens`
/// positions of the text prompt, before the model's vision tokens and the
/// request's own user text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Identity of the shared prompt (e.g. a tenant id). Two requests share
    /// KV exactly when both `id` and `tokens` match.
    pub id: u64,
    /// Length of the shared prompt in text tokens; at most the request's
    /// `text_tokens`.
    pub tokens: usize,
}

/// One inference request submitted to the serving queue: an image plus a
/// text prompt, generating `output_tokens` tokens, served under an
/// [`SloClass`] (best effort unless set via [`ServeRequest::with_slo`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRequest {
    /// Caller-assigned identifier, unique within one trace.
    pub id: u64,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// Text prompt length in tokens (the image contributes the model's
    /// vision tokens on top).
    pub text_tokens: usize,
    /// Number of output tokens the request generates.
    pub output_tokens: usize,
    /// Priority class and latency deadlines the request is served under.
    pub slo: SloClass,
    /// The request's shared system prompt, if it declares one. Metadata
    /// only unless the simulator runs with prefix sharing enabled.
    pub shared_prefix: Option<SharedPrefix>,
}

/// Panics unless request `id` arrives at a finite, non-negative number of
/// seconds: a NaN or negative arrival would round to cycle 0, and an
/// infinite one has no cycle. [`ServeRequest::new`] and every engine's
/// admission check arrivals here, so a bad one fails with the same message
/// wherever it enters.
pub(crate) fn assert_valid_arrival(id: u64, arrival_s: f64) {
    assert!(
        arrival_s >= 0.0 && arrival_s.is_finite(),
        "request {id} arrives at invalid time {arrival_s}"
    );
}

impl ServeRequest {
    /// Create a best-effort request (no deadlines, standard priority).
    ///
    /// # Panics
    ///
    /// Panics if `output_tokens` is zero, or with "request {id} arrives at
    /// invalid time {t}" if `arrival_s` is negative, NaN or infinite (the
    /// message every engine's admission gives a struct literal with such
    /// an arrival).
    pub fn new(id: u64, arrival_s: f64, text_tokens: usize, output_tokens: usize) -> Self {
        assert!(output_tokens > 0, "must generate at least one token");
        assert_valid_arrival(id, arrival_s);
        ServeRequest {
            id,
            arrival_s,
            text_tokens,
            output_tokens,
            slo: SloClass::best_effort(),
            shared_prefix: None,
        }
    }

    /// The same request served under `slo`.
    pub fn with_slo(self, slo: SloClass) -> Self {
        ServeRequest { slo, ..self }
    }

    /// The same request declaring that its first `tokens` text tokens are
    /// the shared system prompt identified by `id`.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` exceeds the request's `text_tokens`.
    pub fn with_shared_prefix(self, id: u64, tokens: usize) -> Self {
        assert!(
            tokens <= self.text_tokens,
            "shared prefix cannot exceed the text prompt"
        );
        ServeRequest {
            shared_prefix: Some(SharedPrefix { id, tokens }),
            ..self
        }
    }
}

/// The recorded timeline of one finished request. All times are seconds
/// from the start of the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// The request's identifier.
    pub id: u64,
    /// When the request arrived.
    pub arrival_s: f64,
    /// When the CC stage started its vision encode + prefill.
    pub prefill_start_s: f64,
    /// When the CC stage finished (the request's first token exists here).
    pub prefill_end_s: f64,
    /// When the request joined the decode batch on the MC stage.
    pub decode_start_s: f64,
    /// When the last output token was generated.
    pub finish_s: f64,
    /// Number of output tokens generated.
    pub output_tokens: usize,
    /// The SLO class the request was served under.
    pub slo: SloClass,
}

impl CompletedRequest {
    /// End-to-end latency: arrival to last token.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Time from arrival until the prefill produced the first token.
    pub fn time_to_first_token_s(&self) -> f64 {
        self.prefill_end_s - self.arrival_s
    }

    /// Mean time per output token after the first: prefill end to last
    /// token, divided by the generation length. Charges the wait for a free
    /// decode slot to the request — what the user streaming the answer sees,
    /// not the machine's raw step rate.
    pub fn time_per_output_token_s(&self) -> f64 {
        (self.finish_s - self.prefill_end_s) / Tokens::new(self.output_tokens).as_f64()
    }

    /// Total time spent waiting in queues (for the CC stage and then for a
    /// free decode slot) rather than being served.
    pub fn queue_wait_s(&self) -> f64 {
        (self.prefill_start_s - self.arrival_s) + (self.decode_start_s - self.prefill_end_s)
    }

    /// Did the first token arrive within the class's TTFT deadline?
    /// Deadline-free classes always pass.
    pub fn meets_ttft(&self) -> bool {
        self.slo
            .ttft_deadline_s
            .map_or(true, |d| self.time_to_first_token_s() <= d + 1e-12)
    }

    /// Did the generation stream within the class's TPOT deadline?
    /// Deadline-free classes always pass.
    pub fn meets_tpot(&self) -> bool {
        self.slo
            .tpot_deadline_s
            .map_or(true, |d| self.time_per_output_token_s() <= d + 1e-12)
    }

    /// Did the request meet every deadline its class sets?
    pub fn meets_slo(&self) -> bool {
        self.meets_ttft() && self.meets_tpot()
    }
}

/// A request dropped by [`crate::AdmissionControl::Reject`] because its TTFT
/// deadline was already unreachable when the CC stage looked for work. It
/// generated no tokens and appears in no completion metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectedRequest {
    /// The request's identifier.
    pub id: u64,
    /// When the request arrived.
    pub arrival_s: f64,
    /// When admission control dropped it.
    pub reject_s: f64,
    /// The SLO class whose TTFT deadline had become unreachable.
    pub slo: SloClass,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::Priority;

    fn done(slo: SloClass) -> CompletedRequest {
        CompletedRequest {
            id: 3,
            arrival_s: 1.0,
            prefill_start_s: 1.5,
            prefill_end_s: 2.0,
            decode_start_s: 2.25,
            finish_s: 3.0,
            output_tokens: 8,
            slo,
        }
    }

    #[test]
    fn derived_times_are_consistent() {
        let done = done(SloClass::best_effort());
        assert!((done.latency_s() - 2.0).abs() < 1e-12);
        assert!((done.time_to_first_token_s() - 1.0).abs() < 1e-12);
        assert!((done.time_per_output_token_s() - 0.125).abs() < 1e-12);
        assert!((done.queue_wait_s() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn best_effort_always_meets_slo() {
        assert!(done(SloClass::best_effort()).meets_slo());
        assert!(done(SloClass::batch()).meets_slo());
    }

    #[test]
    fn deadlines_separate_ttft_from_tpot() {
        // TTFT is 1.0 s, TPOT is 0.125 s in the fixture.
        let tight_ttft = done(SloClass::batch().with_ttft(0.5));
        assert!(!tight_ttft.meets_ttft() && tight_ttft.meets_tpot());
        let tight_tpot = done(SloClass::batch().with_tpot(0.1));
        assert!(tight_tpot.meets_ttft() && !tight_tpot.meets_tpot());
        let loose = done(SloClass::batch().with_ttft(1.5).with_tpot(0.2));
        assert!(loose.meets_slo());
    }

    #[test]
    fn with_slo_attaches_the_class() {
        let r = ServeRequest::new(0, 0.0, 8, 4).with_slo(SloClass::interactive());
        assert_eq!(r.slo.priority, Priority::Interactive);
        assert_eq!(ServeRequest::new(0, 0.0, 8, 4).slo, SloClass::best_effort());
    }

    #[test]
    fn shared_prefix_attaches_and_bounds_check() {
        let r = ServeRequest::new(0, 0.0, 64, 4).with_shared_prefix(7, 48);
        assert_eq!(r.shared_prefix, Some(SharedPrefix { id: 7, tokens: 48 }));
        assert_eq!(ServeRequest::new(0, 0.0, 64, 4).shared_prefix, None);
    }

    #[test]
    #[should_panic(expected = "cannot exceed the text prompt")]
    fn oversized_shared_prefix_rejected() {
        ServeRequest::new(0, 0.0, 8, 4).with_shared_prefix(1, 9);
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_output_tokens_rejected() {
        ServeRequest::new(0, 0.0, 8, 0);
    }

    #[test]
    #[should_panic(expected = "request 0 arrives at invalid time -1")]
    fn negative_arrival_rejected() {
        ServeRequest::new(0, -1.0, 8, 4);
    }

    #[test]
    #[should_panic(expected = "request 7 arrives at invalid time inf")]
    fn infinite_arrival_rejected_at_construction() {
        ServeRequest::new(7, f64::INFINITY, 8, 4);
    }
}
