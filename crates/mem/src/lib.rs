//! Memory system of EdgeMM: DRAM, DMA channels and bandwidth allocation.
//!
//! The whole chip shares one external DRAM interface through a hierarchy of
//! AXI crossbars. Every cluster owns a distributed DMA engine that moves
//! tensor shards between DRAM and the cluster's on-chip data memory. Two
//! properties of this subsystem drive the paper's results:
//!
//! 1. **Effective bandwidth depends on transfer size** (Fig. 6b): small
//!    transfers are dominated by fixed per-transfer overhead, so the larger
//!    data memory of MC clusters — which permits bigger blocks per DMA — is
//!    itself a bandwidth optimisation.
//! 2. **Bandwidth can be reallocated between cluster kinds** (Sec. IV-B):
//!    a [`BandwidthAllocation`] splits the interface between the CC and MC
//!    clusters by a `Bc:Bm` ratio, and adjusting that ratio rebalances the
//!    encode/prefill vs decode pipeline for different output token lengths
//!    (Fig. 13). The hardware enforces the split with a per-cluster budget
//!    per interval, counted by performance-monitoring counters in the DMA;
//!    that enforcement is described, not modeled: every transfer is priced
//!    at its side's static share, and a [`DmaEngine`] is a serial channel
//!    at one share.
//!
//! On top of the raw timing models sits the KV-cache capacity model that
//! the serving layer uses to admit decode streams by memory headroom
//! instead of a constant batch cap. A [`KvPool`] configures it: a byte
//! budget with two tiers (on-chip SRAM + DRAM spill). A [`PagedKvPool`]
//! over that configuration is the one account of resident KV. It
//! allocates KV in token blocks: one-token blocks grown to a stream's peak
//! make a whole-request reservation, and larger blocks grown lazily as
//! decode progresses make a paged allocator. It shares refcounted
//! prompt-prefix blocks across requests (deterministic [`prefix_key`]
//! hashing, copy-on-write divergence) and supports mid-decode eviction of
//! a running stream — by DMA spill-and-restore when a spill area is
//! configured, by recompute otherwise (see `docs/memory.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod dma;
mod dram;
mod kv;
mod paged;

pub use bandwidth::BandwidthAllocation;
pub use dma::DmaEngine;
pub use dram::DramModel;
pub use kv::KvPool;
pub use paged::{fnv1a_64, prefix_key, BlockTable, PagedKvPool, PrefixAttach, SpillTicket};
