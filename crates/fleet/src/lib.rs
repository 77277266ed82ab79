//! # edgemm-fleet
//!
//! The fleet tier of the EdgeMM reproduction: N serving replicas — each a
//! full [`edgemm_serve::ServeSimulator`] over its own machine, run as a
//! resumable [`edgemm_serve::ServeEngine`] — behind one gateway. The
//! gateway steps every replica's engine on one fleet clock: at each
//! arrival it advances them all to that instant, routes on their live load
//! and pushes the request into the chosen engine, so the tier above a
//! single chip is nothing but the chip-level engine, several times over.
//!
//! The paper (PAPER.md) prices one chip serving one queue; production
//! traffic from millions of users needs many chips behind a router. This
//! crate composes that router entirely from costs the simulator already
//! models: every replica is priced by the single-chip serve engine, and the
//! gateway only decides *which* replica's queue each request joins.
//!
//! ## Layout
//!
//! * [`route`] — the [`RoutePolicy`] trait and the four built-in policies
//!   (round-robin, least-KV-loaded, power-of-two-choices, prefix-affinity),
//!   enumerable through [`RoutingKind`].
//! * [`gateway`] — [`FleetGateway`]: the arrival loop over one
//!   [`edgemm_serve::ServeSession`] per replica and the live replica views
//!   it routes on.
//! * [`report`] — [`FleetReport`]: per-replica [`edgemm_serve::ServeReport`]s
//!   plus fleet-level SLO attainment, load imbalance and cross-replica
//!   restarted-prefill accounting, and the run's [`FleetCounters`].
//!
//! ## Determinism
//!
//! The gateway is bit-deterministic: routing happens in fleet-clock order
//! (ties broken by submission order), the only randomized policy
//! (power-of-two-choices) draws from
//! a caller-seeded [`rand::rngs::StdRng`], and nothing reads host time or
//! hashes with a random state. A fleet of one replica degenerates to the
//! single-machine engine byte for byte — pinned by the workspace
//! `fleet_of_one_is_byte_identical_to_serve` property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gateway;
pub mod report;
pub mod route;

pub use gateway::{FleetGateway, FleetReplica, FLEET_CLOCK_HZ};
pub use report::{FleetCounters, FleetReport};
pub use route::{
    LeastKvLoaded, PowerOfTwoChoices, PrefixAffinity, ReplicaView, RoundRobin, RoutePolicy,
    RoutingKind,
};
