//! Fleet gateway: a rack of EdgeMM boxes behind one routed front door.
//!
//! One edge box serves one neighbourhood of users; a deployment serves a
//! building. This example puts sixteen EdgeMM replicas behind the fleet
//! gateway and pushes a multi-tenant overload trace through every routing
//! policy, showing what the fleet operator watches: SLO attainment, load
//! imbalance, and — the multi-tenant tell — how many prefill tokens had to
//! be *recomputed* because evictions threw away KV that a smarter router
//! would have kept shared. It closes with a Fig. 11-style heterogeneous
//! fleet — mostly paper-default chips plus two memory-centric ones — and
//! the routing trap that mix springs on a load-only policy.
//!
//! Run with `cargo run --example fleet_gateway --release`.

use edgemm::serve::{merge, TraceConfig};
use edgemm::units::Bytes;
use edgemm::{EdgeMm, RoutingKind, ServeOptions};
use edgemm_mllm::zoo;

fn main() {
    let system = EdgeMm::paper_default();
    let model = zoo::sphinx_tiny();

    // Six tenants hammering 96 chat requests at ~48 req/s, plus a handful
    // of long background prompts — the same overload point the golden
    // harness pins. Every tenant's requests repeat its system prompt, so
    // where a request lands decides whether that prompt's KV is shared or
    // duplicated.
    let trace = merge(&[
        TraceConfig::multi_tenant(6, 96, 48.0, 23).generate(),
        TraceConfig {
            text_tokens: (512, 768),
            ..TraceConfig::background(8, 12.0, 123)
        }
        .generate(),
    ]);
    // Paged KV with prefix sharing but no spill area: when a replica runs
    // out of pool, the evicted stream re-prefills from scratch and the
    // recomputed tokens show up in the fleet report.
    let options = ServeOptions {
        prefix_sharing: true,
        ..ServeOptions::memory_aware(Bytes::new(8 << 20), 64).paged(16)
    };

    const REPLICAS: usize = 16;
    println!(
        "== Fleet gateway on SPHINX-Tiny ({REPLICAS} replicas, {} requests) ==\n",
        trace.len()
    );
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10}",
        "routing", "SLO%", "restarted", "imbalance", "makespan"
    );
    for kind in RoutingKind::ALL {
        let report = system.serve_fleet(&model, &trace, REPLICAS, kind, options);
        println!(
            "{:<16} {:>5.1}% {:>10} {:>10.2} {:>8.2} s",
            kind.name(),
            report.slo_attainment() * 100.0,
            report.restarted_prefill_tokens(),
            report.load_imbalance(),
            report.makespan_s,
        );
    }

    // Where did prefix-affinity put everyone? Each tenant's stream sticks
    // to the replica that already holds its system prompt.
    let affinity = system.serve_fleet(
        &model,
        &trace,
        REPLICAS,
        RoutingKind::PrefixAffinity,
        options,
    );
    println!("\nper-replica occupancy under prefix-affinity ('*' = one request):");
    for (replica, report) in affinity.replicas.iter().enumerate() {
        let served = report.submitted();
        if served > 0 {
            println!("  replica {replica:>2} |{}", "*".repeat(served));
        }
    }

    // A Fig. 11-style mixed rack: fourteen paper-default chips plus two
    // homo-MC chips, which decode respectably but prefill an order of
    // magnitude slower. The gateway prices each replica on its own
    // machine — and that exposes a classic routing trap: a load-only
    // policy keeps picking the slow chips *because* their near-empty KV
    // pools make them look idle.
    let mc = EdgeMm::homo_mc();
    let mut rack: Vec<&EdgeMm> = vec![&system; REPLICAS - 2];
    rack.push(&mc);
    rack.push(&mc);
    println!("\nheterogeneous rack (14x paper-default + 2x homo-MC), least-kv routing:");
    let hetero = EdgeMm::serve_fleet_on(&rack, &model, &trace, RoutingKind::LeastKvLoaded, options);
    let homo = system.serve_fleet(
        &model,
        &trace,
        REPLICAS,
        RoutingKind::LeastKvLoaded,
        options,
    );
    println!(
        "  homogeneous: SLO {:>5.1}%  makespan {:.2} s",
        homo.slo_attainment() * 100.0,
        homo.makespan_s
    );
    println!(
        "  mixed rack:  SLO {:>5.1}%  makespan {:.2} s",
        hetero.slo_attainment() * 100.0,
        hetero.makespan_s
    );
    let specialists: usize = hetero.replicas[REPLICAS - 2..]
        .iter()
        .map(|r| r.submitted())
        .sum();
    println!(
        "  the two slow MC chips absorbed {specialists} of {} requests: a KV-load \
         projection alone cannot see that the emptiest replica is empty \
         because it is slow",
        trace.len()
    );
}
