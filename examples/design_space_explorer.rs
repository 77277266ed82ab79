//! Design-space exploration: sweep the architecture parameters the paper
//! calls scalable (Sec. III-A) and see how the end-to-end MLLM performance
//! responds. This is the kind of study the in-house "mapping explorer" was
//! built for.
//!
//! Run with `cargo run --example design_space_explorer --release`.

use edgemm::arch::{ChipConfig, CimGeometry, SystolicGeometry};
use edgemm::sim::{Machine, PruningEffect, SimConfig};
use edgemm_mllm::{zoo, ModelWorkload};

fn run_point(chip: ChipConfig, workload: &ModelWorkload) -> f64 {
    let machine = Machine::new(SimConfig {
        chip,
        ..SimConfig::paper_default()
    });
    machine
        .run_request(workload, PruningEffect::disabled())
        .total_seconds()
}

fn main() {
    let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 64);
    let baseline = run_point(ChipConfig::paper_default(), &workload);
    println!("== EdgeMM design-space exploration (SPHINX-Tiny, 64 output tokens) ==");
    println!(
        "paper-default design point: {:.2} ms per request\n",
        baseline * 1e3
    );

    println!("-- group count (chip scaling) --");
    for groups in [1usize, 2, 4, 8] {
        let chip = ChipConfig::builder()
            .groups(groups)
            .build()
            .expect("valid config");
        let latency = run_point(chip, &workload);
        println!(
            "  {groups} groups: {:>8.2} ms  ({:.2}x vs default)",
            latency * 1e3,
            baseline / latency
        );
    }

    println!("\n-- CC : MC cluster mix per group --");
    for (cc, mc) in [(4usize, 0usize), (3, 1), (2, 2), (1, 3), (0, 4)] {
        let chip = ChipConfig::builder()
            .cc_clusters_per_group(cc)
            .mc_clusters_per_group(mc)
            .build();
        match chip {
            Ok(chip) => {
                let latency = run_point(chip, &workload);
                println!(
                    "  {cc} CC : {mc} MC -> {:>8.2} ms  ({:.2}x vs default)",
                    latency * 1e3,
                    baseline / latency
                );
            }
            Err(err) => println!("  {cc} CC : {mc} MC -> rejected ({err})"),
        }
    }

    println!("\n-- systolic array shape --");
    for (rows, cols) in [(8usize, 8usize), (16, 16), (32, 16), (32, 32)] {
        let chip = ChipConfig::builder()
            .systolic(SystolicGeometry {
                rows,
                cols,
                matrix_registers: 4,
            })
            .build()
            .expect("valid config");
        let latency = run_point(chip, &workload);
        println!(
            "  {rows:>2} x {cols:<2}: {:>8.2} ms  ({:.2}x vs default)",
            latency * 1e3,
            baseline / latency
        );
    }

    println!("\n-- CIM activation bit-serial width --");
    for bits in [4u8, 8, 16] {
        let chip = ChipConfig::builder()
            .cim(CimGeometry {
                activation_bits: bits,
                ..CimGeometry::paper_default()
            })
            .build()
            .expect("valid config");
        let latency = run_point(chip, &workload);
        println!(
            "  W = {bits:>2}: {:>8.2} ms  ({:.2}x vs default)",
            latency * 1e3,
            baseline / latency
        );
    }

    println!("\n-- external memory bandwidth --");
    for bw in [17.0f64, 34.0, 68.0, 136.0] {
        let chip = ChipConfig::builder()
            .dram_bandwidth_gib_s(bw)
            .build()
            .expect("valid config");
        let mut config = SimConfig {
            chip,
            ..SimConfig::paper_default()
        };
        config.dram.peak_gib_s = bw;
        let machine = Machine::new(config);
        let latency = machine
            .run_request(&workload, PruningEffect::disabled())
            .total_seconds();
        println!(
            "  {bw:>5.1} GiB/s: {:>8.2} ms  ({:.2}x vs default)",
            latency * 1e3,
            baseline / latency
        );
    }
}
