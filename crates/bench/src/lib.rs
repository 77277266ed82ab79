//! Figure-report binaries for the EdgeMM reproduction.
//!
//! Every table and figure of the paper's evaluation has a report binary that
//! regenerates it from the library:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig02_workload` | Fig. 2 — workload analysis (latency breakdown, FLOPs, memory accesses) |
//! | `fig03_sparsity` | Fig. 3 — FFN activation sparsity across layers |
//! | `fig06_bandwidth` | Fig. 6b — effective DMA bandwidth vs transfer size |
//! | `fig10_config` | Fig. 10 — design configuration, area and power |
//! | `fig11_hetero` | Fig. 11 — homo-CC / homo-MC / heterogeneous speedups |
//! | `fig12_pruning` | Fig. 12 — dynamic Top-k pruning evaluation |
//! | `fig13_bandwidth` | Fig. 13 — bandwidth management latency/throughput gains |
//! | `table1_models` | Table I — representative MLLMs |
//! | `table2_gpu` | Table II — EdgeMM vs RTX 3060 Laptop |
//!
//! Run them all with `cargo run -p edgemm-bench --bin <name> --release`.
//! `ablations` sweeps four of the paper's design choices and
//! `serving_sweep` sweeps the serving stack beyond the paper (its one
//! wall-clock number is the thread pool's parallel speedup). The
//! repository benchmark (`perfbench/`) times the serve engine, the fleet
//! gateway and the figure generators.

/// Format a byte count with a binary-prefix unit.
pub fn format_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// Format a duration in seconds with an adaptive unit.
pub fn format_seconds(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{:.3} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(512), "512.00 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(format_seconds(2.5), "2.500 s");
        assert_eq!(format_seconds(0.0021), "2.100 ms");
        assert_eq!(format_seconds(3.0e-6), "3.000 us");
    }
}
