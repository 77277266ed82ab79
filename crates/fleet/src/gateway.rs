//! The fleet gateway: N resumable serve engines stepped on one clock.
//!
//! Every replica is a [`ServeSession`] over its own machine, run as a
//! resumable [`ServeEngine`]. The gateway walks the trace in fleet-clock
//! order — `(fleet cycle, submission index)` on a fixed 1 GHz tick — and
//! for each arrival:
//!
//! 1. **Views**: advances every replica's engine *through* the arrival
//!    instant and reads its live load — requests in flight and resident KV
//!    bytes — into a [`ReplicaView`].
//! 2. **Routing**: the [`RoutePolicy`] picks a replica from those views.
//! 3. **Dispatch**: the request is pushed into the chosen engine.
//!
//! Once the trace is exhausted every engine drains, and its report is the
//! replica's [`ServeReport`] in the [`FleetReport`].
//!
//! ## Live replica state as the load model
//!
//! A view at instant `t` reads an engine that has processed every event at
//! a model time ≤ `t` — including the processing at `t` of requests already
//! routed at `t`. An engine's state at `t` depends only on requests
//! arriving at or before `t`, so nothing routed later changes what a view
//! saw: each view is exactly what a full serve of the replica's sub-trace
//! shows at `t`, and each final report is byte-identical to a one-shot
//! serve of that sub-trace (which pins a fleet of one to the
//! single-machine engine, byte for byte). The one case the engine cannot
//! take in its stride is a request arriving at or before its target's
//! last processed event — a same-instant burst routed after the target
//! already ran that instant's events. The engine then replays: it resets
//! and re-pushes its requests, and the next advance re-processes them
//! (see [`ServeEngine::push`]).

use edgemm_core::units::Cycles;
use edgemm_serve::{ServeEngine, ServeReport, ServeRequest, ServeSession};

use crate::report::{FleetCounters, FleetReport};
use crate::route::{ReplicaView, RoutePolicy};

/// Resolution of the fleet clock: cycles per second. Replica engines run at
/// their own chip clocks; the gateway only needs a common timeline to order
/// arrivals on, so it uses a fixed 1 GHz tick (nanoseconds).
pub const FLEET_CLOCK_HZ: f64 = 1.0e9;

/// A fleet replica: a [`ServeSession`]. The alias remains only for callers
/// that build replicas as `FleetReplica::new` (the benchmark does).
pub type FleetReplica<'a> = ServeSession<'a>;

/// The routed multi-replica gateway. Build one from one [`ServeSession`]
/// per replica, then [`serve`](Self::serve) traces through it; replica
/// pricing caches and scratch allocations persist across calls, while all
/// run state is per call. Replicas may be heterogeneous — each simulator
/// borrows its own machine, so a Fig. 11-style mixed fleet is just a mixed
/// vector.
#[derive(Debug)]
pub struct FleetGateway<'a> {
    replicas: Vec<ServeSession<'a>>,
}

impl<'a> FleetGateway<'a> {
    /// A gateway over the given replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<ServeSession<'a>>) -> Self {
        assert!(!replicas.is_empty(), "a fleet needs at least one replica");
        FleetGateway { replicas }
    }

    /// Number of replicas behind the gateway.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Serve `requests` across the fleet under `routing`.
    ///
    /// Arrivals are routed in fleet-clock order, same-instant arrivals in
    /// submission order. Each is routed exactly once, against views of the
    /// replicas' live state at its arrival instant (see the module docs).
    /// The returned [`FleetReport`] carries each replica's final report —
    /// byte-identical to a one-shot serve of that replica's sub-trace.
    ///
    /// # Panics
    ///
    /// Panics if `routing` returns an out-of-range replica index, a
    /// request arrives at a negative or non-finite time, or two requests
    /// share an id.
    pub fn serve(
        &mut self,
        requests: &[ServeRequest],
        routing: &mut dyn RoutePolicy,
    ) -> FleetReport {
        // Checked here, not left to the replicas: a replica sees only its
        // own sub-trace, so a duplicate routed to two replicas would pass.
        let mut ids: Vec<u64> = requests.iter().map(|request| request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), requests.len(), "request ids must be unique");
        let mut arrivals: Vec<(Cycles, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                (
                    Cycles::from_seconds_round(request.arrival_s, FLEET_CLOCK_HZ),
                    i,
                )
            })
            .collect();
        arrivals.sort_unstable();
        let mut engines: Vec<ServeEngine<'_, 'a>> =
            self.replicas.iter_mut().map(ServeSession::engine).collect();
        let mut assignments = vec![0usize; requests.len()];
        for &(cycle, i) in &arrivals {
            let now_s = cycle.seconds_at(FLEET_CLOCK_HZ);
            let views: Vec<ReplicaView> = engines
                .iter_mut()
                .enumerate()
                .map(|(replica, engine)| {
                    engine.advance_until(now_s);
                    ReplicaView {
                        replica,
                        dispatched: engine.pushed(),
                        in_flight: engine.in_flight(),
                        kv_bytes: engine.kv_bytes(),
                    }
                })
                .collect();
            let target = routing.route(&requests[i], &views);
            assert!(
                target < engines.len(),
                "routing policy `{}` returned replica {} of {}",
                routing.name(),
                target,
                engines.len()
            );
            assignments[i] = target;
            engines[target].push(&requests[i]);
        }
        let replays = engines.iter().map(ServeEngine::replays).sum();
        let replicas: Vec<ServeReport> = engines.into_iter().map(ServeEngine::finish).collect();
        let counters = FleetCounters {
            serve: self.replicas.iter().map(ServeSession::counters).sum(),
            replays,
        };
        // The fleet drains when the last arrival is routed and the last
        // replica has finished (completed or rejected) its last request.
        let last_arrival = arrivals.last().map_or(Cycles::ZERO, |&(cycle, _)| cycle);
        let makespan = replicas
            .iter()
            .map(|report| {
                let finishes = report.completed.iter().map(|r| r.finish_s);
                let rejects = report.rejected.iter().map(|r| r.reject_s);
                let drain_s = finishes.chain(rejects).fold(0.0, f64::max);
                Cycles::from_seconds_round(drain_s, FLEET_CLOCK_HZ)
            })
            .fold(last_arrival, Cycles::max);
        let busy_replicas = replicas.iter().filter(|r| r.submitted() > 0).count();
        FleetReport {
            replicas,
            assignments,
            completion_events: u64::try_from(busy_replicas).unwrap_or(u64::MAX),
            stale_completions: 0,
            makespan_s: makespan.seconds_at(FLEET_CLOCK_HZ),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{LeastKvLoaded, RoundRobin, RoutingKind};
    use edgemm_mllm::zoo;
    use edgemm_serve::{PolicyKind, ServeConfig, ServeSimulator, TraceConfig};
    use edgemm_sim::{Machine, SimConfig};

    fn machine() -> Machine {
        Machine::new(SimConfig::paper_default())
    }

    fn replica(machine: &Machine) -> ServeSession<'_> {
        ServeSession::new(
            ServeSimulator::new(machine, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(4)),
            PolicyKind::Fcfs,
        )
    }

    fn trace(requests: usize, seed: u64) -> Vec<ServeRequest> {
        TraceConfig::interactive(requests, 20.0, seed).generate()
    }

    #[test]
    fn a_fleet_of_one_serves_the_whole_trace_verbatim() {
        let m = machine();
        let trace = trace(6, 11);
        let mut gateway = FleetGateway::new(vec![replica(&m)]);
        let report = gateway.serve(&trace, &mut RoundRobin::new());
        let direct = ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(4))
            .run(&trace, PolicyKind::Fcfs.policy());
        assert_eq!(report.replicas.len(), 1);
        assert_eq!(report.replicas[0], direct);
        assert!(report.assignments.iter().all(|&r| r == 0));
    }

    #[test]
    fn every_request_lands_on_exactly_one_replica() {
        let m = machine();
        let trace = trace(9, 3);
        let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m), replica(&m)]);
        for kind in RoutingKind::ALL {
            let report = gateway.serve(&trace, kind.policy(5).as_mut());
            assert_eq!(report.dispatched(), trace.len(), "{}", kind.name());
            assert_eq!(report.submitted(), trace.len(), "{}", kind.name());
            assert_eq!(
                report.completed() + report.rejected(),
                trace.len(),
                "{}",
                kind.name()
            );
            let busy = report.replicas.iter().filter(|r| r.submitted() > 0).count();
            assert_eq!(
                report.completion_events,
                u64::try_from(busy).expect("fits"),
                "{}",
                kind.name()
            );
            assert_eq!(report.stale_completions, 0, "{}", kind.name());
        }
    }

    #[test]
    fn round_robin_splits_a_saturated_trace_evenly() {
        let m = machine();
        let trace = TraceConfig::saturated(8, 24, 8).generate();
        let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m)]);
        let report = gateway.serve(&trace, &mut RoundRobin::new());
        // All arrivals share cycle 0; the queue's FIFO tie order must hand
        // them to the rotation in submission order.
        assert_eq!(report.assignments, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        let imbalance = report.load_imbalance();
        assert!((imbalance - 1.0).abs() < 1e-12, "even split: {imbalance}");
    }

    #[test]
    fn repeat_serves_through_one_gateway_are_identical() {
        let m = machine();
        let trace = trace(7, 23);
        let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m)]);
        let first = gateway.serve(&trace, &mut LeastKvLoaded);
        let second = gateway.serve(&trace, &mut LeastKvLoaded);
        assert_eq!(first, second);
    }

    #[test]
    fn retired_event_counters_count_busy_replicas_and_no_stale_events() {
        let m = machine();
        // Round-robin hands two requests to the first two of three
        // replicas: two replicas served requests, one stayed idle.
        let pair = TraceConfig::saturated(2, 16, 4).generate();
        let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m), replica(&m)]);
        let report = gateway.serve(&pair, &mut RoundRobin::new());
        assert_eq!(report.assignments, vec![0, 1]);
        assert_eq!(report.completion_events, 2);
        assert_eq!(report.stale_completions, 0);
        let empty = gateway.serve(&[], &mut RoundRobin::new());
        assert_eq!(empty.completion_events, 0);
        assert_eq!(empty.stale_completions, 0);
        assert_eq!(empty.makespan_s, 0.0);
    }

    #[test]
    fn every_router_rejects_a_duplicated_id() {
        // Two replicas each see only their own sub-trace, so a duplicate
        // the router splits across them would pass both engines' checks.
        let m = machine();
        let mut trace = trace(4, 5);
        trace[1].id = trace[0].id;
        for kind in RoutingKind::ALL {
            let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m)]);
            let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gateway.serve(&trace, kind.policy(5).as_mut())
            }));
            let Err(panic) = served else {
                panic!("{}: a duplicated id was served", kind.name());
            };
            let message = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                message.contains("request ids must be unique"),
                "{}: {message}",
                kind.name()
            );
        }
    }

    #[test]
    fn one_shot_runs_and_fleets_reject_a_bad_arrival() {
        // Every engine admits through one check, so a one-shot run and a
        // routed fleet refuse a NaN, negative or infinite arrival with the
        // same message instead of serving it at cycle 0.
        let m = machine();
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            let mut trace = trace(4, 5);
            trace[2].arrival_s = bad;
            let want = format!("request {} arrives at invalid time {bad}", trace[2].id);
            let simulator =
                ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(4));
            let one_shot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                simulator.run(&trace, PolicyKind::Fcfs.policy());
            }));
            let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m)]);
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                gateway.serve(&trace, &mut RoundRobin::new());
            }));
            for (path, served) in [("run", one_shot), ("fleet", routed)] {
                let Err(panic) = served else {
                    panic!("{path}: arrival {bad} was served");
                };
                let message = panic.downcast_ref::<String>().map_or("", String::as_str);
                assert_eq!(message, want, "{path}");
            }
        }
    }

    /// Least-KV routing that records every view it routes on.
    #[derive(Debug, Default)]
    struct RecordingLeastKv {
        seen: Vec<(f64, Vec<ReplicaView>)>,
    }

    impl RoutePolicy for RecordingLeastKv {
        fn name(&self) -> &'static str {
            "recording-least-kv"
        }

        fn route(&mut self, request: &ServeRequest, views: &[ReplicaView]) -> usize {
            let now = Cycles::from_seconds_round(request.arrival_s, FLEET_CLOCK_HZ);
            self.seen
                .push((now.seconds_at(FLEET_CLOCK_HZ), views.to_vec()));
            LeastKvLoaded.route(request, views)
        }
    }

    #[test]
    fn live_views_match_the_final_reports_at_every_routing_instant() {
        // Causality: a replica's load at instant t, read from its live
        // engine, is what its final report shows at t — completions and
        // rejections at or before t are finished, and the resident KV is
        // that of its last sample at or before t. Reject admission under a
        // tight TTFT budget makes rejections part of the count.
        let m = machine();
        let slo = edgemm_serve::SloClass::interactive().with_ttft(0.15);
        let trace: Vec<ServeRequest> = TraceConfig::interactive(24, 60.0, 13)
            .generate()
            .into_iter()
            .map(|r| r.with_slo(slo))
            .collect();
        let config =
            ServeConfig::with_batch_cap(2).with_admission(edgemm_serve::AdmissionControl::Reject);
        let replicas = (0..2)
            .map(|_| {
                let simulator = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
                ServeSession::new(simulator, PolicyKind::EarliestDeadlineFirst)
            })
            .collect();
        let mut routing = RecordingLeastKv::default();
        let report = FleetGateway::new(replicas).serve(&trace, &mut routing);
        assert!(report.rejected() > 0, "no rejection exercised the views");
        for (i, (now_s, views)) in routing.seen.iter().enumerate() {
            for (replica, view) in views.iter().enumerate() {
                let final_report = &report.replicas[replica];
                let routed = report.assignments[..i]
                    .iter()
                    .filter(|&&a| a == replica)
                    .count();
                let finished = final_report
                    .completed
                    .iter()
                    .filter(|c| c.finish_s <= *now_s)
                    .count()
                    + final_report
                        .rejected
                        .iter()
                        .filter(|r| r.reject_s <= *now_s)
                        .count();
                let kv_bytes = final_report
                    .queue_samples
                    .iter()
                    .take_while(|s| s.time_s <= *now_s)
                    .last()
                    .map(|s| s.kv_bytes)
                    .unwrap_or_default();
                let expected = ReplicaView {
                    replica,
                    dispatched: routed,
                    in_flight: routed - finished,
                    kv_bytes,
                };
                assert_eq!(*view, expected, "routing decision {i}");
            }
        }
    }

    #[test]
    fn heterogeneous_replicas_serve_under_their_own_configs() {
        let m = machine();
        let fast = ServeSession::new(
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(8)),
            PolicyKind::EarliestDeadlineFirst,
        );
        let slow = ServeSession::new(
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(1)),
            PolicyKind::Fcfs,
        );
        let trace = trace(8, 41);
        let mut gateway = FleetGateway::new(vec![fast, slow]);
        let report = gateway.serve(&trace, &mut RoundRobin::new());
        assert_eq!(report.submitted(), trace.len());
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn makespan_covers_the_last_drain() {
        let m = machine();
        let trace = trace(5, 2);
        let mut gateway = FleetGateway::new(vec![replica(&m), replica(&m)]);
        let report = gateway.serve(&trace, &mut LeastKvLoaded);
        let last_finish = report
            .replicas
            .iter()
            .flat_map(|r| r.completed.iter().map(|c| c.finish_s))
            .fold(0.0, f64::max);
        assert!(report.makespan_s >= last_finish - 1e-9);
    }
}
