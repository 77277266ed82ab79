//! Routing policies: which replica's queue an arriving request joins.
//!
//! A [`RoutePolicy`] sees the arriving request plus one [`ReplicaView`] per
//! replica — each replica's live load at the fleet clock — and picks an
//! index. Policies are stateful (round-robin keeps a
//! cursor, prefix-affinity a tenant map) but must be deterministic: the
//! gateway calls them exactly once per request, in fleet-clock order, and
//! the whole fleet run is replayed byte-identically from the same inputs.

use std::collections::HashMap;

use edgemm_core::units::Bytes;
use edgemm_serve::ServeRequest;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One replica's load as the gateway sees it at a routing instant.
///
/// The view is *model time*, not host time: it is read from the replica's
/// engine advanced through the fleet clock of the arrival being routed,
/// over the requests dispatched to it so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaView {
    /// Index of the replica this view describes.
    pub replica: usize,
    /// Requests dispatched to the replica so far (including finished ones).
    pub dispatched: usize,
    /// Dispatched requests the replica has not finished (completed or
    /// rejected) at the fleet clock.
    pub in_flight: usize,
    /// KV-cache bytes resident in the replica's pool at the fleet clock
    /// (after its last event at or before it; zero before the first).
    pub kv_bytes: Bytes,
}

impl ReplicaView {
    /// The load key every built-in policy ranks replicas by: KV bytes
    /// first (the resource that actually runs out), then in-flight depth,
    /// then total dispatched, with the replica index as the deterministic
    /// tiebreak.
    fn load_key(&self) -> (Bytes, usize, usize, usize) {
        (self.kv_bytes, self.in_flight, self.dispatched, self.replica)
    }
}

/// Index of the least-loaded view (by [`ReplicaView::load_key`]).
fn least_loaded(views: &[ReplicaView]) -> usize {
    assert!(!views.is_empty(), "routing over an empty fleet");
    let mut best = 0;
    for i in 1..views.len() {
        if views[i].load_key() < views[best].load_key() {
            best = i;
        }
    }
    best
}

/// A pluggable fleet routing policy. Implementations must be deterministic
/// — any randomness must come from a fixed-seed generator owned by the
/// policy (see [`PowerOfTwoChoices`]).
pub trait RoutePolicy: std::fmt::Debug {
    /// Short human-readable name for reports and sweep tables.
    fn name(&self) -> &'static str;

    /// Index into `views` of the replica `request` is dispatched to.
    /// `views` is never empty and carries one entry per replica in replica
    /// order; the returned index must be in range.
    fn route(&mut self, request: &ServeRequest, views: &[ReplicaView]) -> usize;
}

/// Round-robin: dispatch to replicas in rotation, ignoring load. The
/// baseline every load-aware policy must beat — and the cheapest, since it
/// never reads a view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A fresh rotation starting at replica 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _request: &ServeRequest, views: &[ReplicaView]) -> usize {
        let target = self.next % views.len();
        self.next = (target + 1) % views.len();
        target
    }
}

/// Least-KV-loaded: dispatch to the replica with the fewest resident
/// KV-cache bytes at the fleet clock (ties broken by in-flight depth, then
/// dispatched count, then index). KV headroom is what admits decode streams
/// on a replica, so routing on it sends work where it can actually run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastKvLoaded;

impl RoutePolicy for LeastKvLoaded {
    fn name(&self) -> &'static str {
        "least-kv"
    }

    fn route(&mut self, _request: &ServeRequest, views: &[ReplicaView]) -> usize {
        least_loaded(views)
    }
}

/// Power-of-two-choices: sample two distinct replicas from a fixed-seed
/// generator and dispatch to the less loaded of the pair — the classic
/// "two random choices" result that gets most of least-loaded's balance at
/// a fraction of its state. Deterministic because the generator is a
/// caller-seeded [`StdRng`] (the sim-determinism lint keeps host entropy
/// out of this crate).
#[derive(Debug)]
pub struct PowerOfTwoChoices {
    rng: StdRng,
}

impl PowerOfTwoChoices {
    /// A sampler over the given seed; the same seed replays the same
    /// choice sequence.
    pub fn new(seed: u64) -> Self {
        PowerOfTwoChoices {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl RoutePolicy for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _request: &ServeRequest, views: &[ReplicaView]) -> usize {
        let n = views.len();
        if n == 1 {
            return 0;
        }
        let a = self.rng.gen_range(0usize..n);
        let mut b = self.rng.gen_range(0usize..n - 1);
        if b >= a {
            b += 1;
        }
        if views[b].load_key() < views[a].load_key() {
            b
        } else {
            a
        }
    }
}

/// Prefix-affinity: route every request of a tenant (identified by its
/// [`edgemm_serve::SharedPrefix`] id) to the replica that served the
/// tenant first, so the tenant's copy-on-write prefix blocks are allocated
/// once per fleet instead of once per replica the tenant happens to land
/// on. A tenant's first request — and any request without a declared
/// prefix — falls back to least-KV-loaded.
///
/// This is the PR 7 sharing win surviving sharding: scatter a tenant
/// across R replicas and each replica pays for (and evicts under pressure)
/// its own copy of the system prompt; pin the tenant and one copy serves
/// every stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefixAffinity {
    tenants: HashMap<u64, usize>,
}

impl PrefixAffinity {
    /// An affinity map with no pinned tenants yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RoutePolicy for PrefixAffinity {
    fn name(&self) -> &'static str {
        "prefix-affinity"
    }

    fn route(&mut self, request: &ServeRequest, views: &[ReplicaView]) -> usize {
        match request.shared_prefix {
            Some(prefix) => match self.tenants.get(&prefix.id) {
                Some(&replica) => replica,
                None => {
                    let replica = least_loaded(views);
                    self.tenants.insert(prefix.id, replica);
                    replica
                }
            },
            None => least_loaded(views),
        }
    }
}

/// The built-in routing policies, enumerable for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastKvLoaded`].
    LeastKvLoaded,
    /// [`PowerOfTwoChoices`].
    PowerOfTwoChoices,
    /// [`PrefixAffinity`].
    PrefixAffinity,
}

impl RoutingKind {
    /// All built-in routing policies, in presentation order.
    pub const ALL: [RoutingKind; 4] = [
        RoutingKind::RoundRobin,
        RoutingKind::LeastKvLoaded,
        RoutingKind::PowerOfTwoChoices,
        RoutingKind::PrefixAffinity,
    ];

    /// A fresh policy instance. `seed` feeds the power-of-two-choices
    /// sampler; the deterministic policies ignore it.
    pub fn policy(self, seed: u64) -> Box<dyn RoutePolicy> {
        match self {
            RoutingKind::RoundRobin => Box::new(RoundRobin::new()),
            RoutingKind::LeastKvLoaded => Box::new(LeastKvLoaded),
            RoutingKind::PowerOfTwoChoices => Box::new(PowerOfTwoChoices::new(seed)),
            RoutingKind::PrefixAffinity => Box::new(PrefixAffinity::new()),
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingKind::RoundRobin => "round-robin",
            RoutingKind::LeastKvLoaded => "least-kv",
            RoutingKind::PowerOfTwoChoices => "power-of-two",
            RoutingKind::PrefixAffinity => "prefix-affinity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgemm_serve::{ServeRequest, SharedPrefix, SloClass};

    fn view(replica: usize, in_flight: usize, kv: u64) -> ReplicaView {
        ReplicaView {
            replica,
            dispatched: in_flight,
            in_flight,
            kv_bytes: Bytes::new(kv),
        }
    }

    fn request(id: u64, prefix: Option<u64>) -> ServeRequest {
        ServeRequest {
            id,
            arrival_s: 0.0,
            text_tokens: 16,
            output_tokens: 8,
            slo: SloClass::best_effort(),
            shared_prefix: prefix.map(|id| SharedPrefix { id, tokens: 32 }),
        }
    }

    #[test]
    fn round_robin_rotates_regardless_of_load() {
        let mut policy = RoundRobin::new();
        let views = [view(0, 9, 900), view(1, 0, 0), view(2, 5, 500)];
        let picks: Vec<usize> = (0..6)
            .map(|i| policy.route(&request(i, None), &views))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_kv_prefers_bytes_then_depth_then_index() {
        let mut policy = LeastKvLoaded;
        let views = [view(0, 1, 500), view(1, 3, 100), view(2, 2, 100)];
        // Replica 1 and 2 tie on bytes; 2 has fewer in flight.
        assert_eq!(policy.route(&request(0, None), &views), 2);
        let tied = [view(0, 1, 100), view(1, 1, 100)];
        assert_eq!(policy.route(&request(1, None), &tied), 0);
    }

    #[test]
    fn power_of_two_is_seed_deterministic_and_in_range() {
        let views: Vec<ReplicaView> = (0..8).map(|i| view(i, i, 100 * i as u64)).collect();
        let run = |seed: u64| -> Vec<usize> {
            let mut policy = PowerOfTwoChoices::new(seed);
            (0..32)
                .map(|i| policy.route(&request(i, None), &views))
                .collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed must replay the same choices");
        assert!(a.iter().all(|&r| r < views.len()));
        assert_ne!(a, run(8), "different seeds should explore differently");
    }

    #[test]
    fn power_of_two_picks_the_less_loaded_of_its_pair() {
        // With two replicas every draw compares the same pair, so the
        // policy must always land on the unloaded one.
        let views = [view(0, 9, 900), view(1, 0, 0)];
        let mut policy = PowerOfTwoChoices::new(3);
        for i in 0..16 {
            assert_eq!(policy.route(&request(i, None), &views), 1);
        }
    }

    #[test]
    fn prefix_affinity_pins_a_tenant_to_its_first_replica() {
        let mut policy = PrefixAffinity::new();
        let views = [view(0, 4, 400), view(1, 0, 0), view(2, 2, 200)];
        // First sighting of tenant 42 goes least-loaded (replica 1) …
        assert_eq!(policy.route(&request(0, Some(42)), &views), 1);
        // … and stays there even once replica 1 is the most loaded.
        let loaded = [view(0, 0, 0), view(1, 9, 900), view(2, 2, 200)];
        assert_eq!(policy.route(&request(1, Some(42)), &loaded), 1);
        // A different tenant and a prefix-free request route by load.
        assert_eq!(policy.route(&request(2, Some(7)), &loaded), 0);
        assert_eq!(policy.route(&request(3, None), &loaded), 0);
    }

    #[test]
    fn kinds_enumerate_distinct_policies() {
        let names: Vec<&str> = RoutingKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["round-robin", "least-kv", "power-of-two", "prefix-affinity"]
        );
        for kind in RoutingKind::ALL {
            assert_eq!(kind.policy(0).name(), kind.name());
        }
    }
}
