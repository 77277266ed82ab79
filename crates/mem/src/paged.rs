//! Block-granular ("paged") KV-cache allocation with mid-decode eviction,
//! cross-request prefix sharing and spill-and-restore.
//!
//! [`KvPool`](crate::KvPool) admits decode streams by reserving each
//! stream's *whole-request peak* footprint up front — conservative and
//! simple, but it refuses joins that would fit right now and it can never
//! take memory back from a running stream. [`PagedKvPool`] is the
//! vLLM-style refinement: KV is allocated in fixed-size **token blocks**,
//! lazily, as decode actually extends each stream's context. A stream's
//! [`BlockTable`] grows one block at a time, so
//!
//! * a join needs only the blocks for its *current* context (the prompt
//!   prefix plus whatever it has generated so far), not its peak;
//! * occupancy tracks real resident KV, so more streams share the same
//!   byte budget; and
//! * under pressure the pool can **evict** a running stream — either
//!   spill-and-restore ([`Self::try_spill`] / [`Self::try_restore`], when a
//!   DRAM spill area is configured) or recompute ([`Self::evict`]: blocks
//!   freed, request re-queued for re-prefill) — instead of blocking a
//!   higher-priority arrival behind a full drain.
//!
//! On top of the per-stream tables sits a **shared-prefix registry**
//! ([`Self::try_attach_prefix`]): requests that declare a common prompt
//! prefix (a tenant's system prompt) are keyed by a deterministic FNV-1a
//! hash of the prefix identity and map the *same physical blocks*. A
//! shared block is refcounted and freed only when its last holder releases
//! it; a stream's first divergent write past the shared full blocks —
//! which happens immediately, since every request appends its own tokens —
//! copies the partially filled tail block at a price the caller charges to
//! the DMA engine (copy-on-write).
//!
//! The pool keeps the two-tier spill model of [`KvPool`](crate::KvPool):
//! occupied bytes up to the on-chip tier are read back each step without
//! touching DRAM, everything above re-streams at the spill penalty, and the
//! per-step scaling applied to a batch's KV DRAM cycles is
//!
//! ```text
//! factor = max(occupied − onchip, 0) / occupied × spill_penalty
//! ```
//!
//! with `occupied = allocated_blocks × block_bytes` (a partially filled
//! tail block occupies a whole block — the internal-fragmentation cost of
//! paging, bounded by `block_tokens − 1` tokens per stream).
//!
//! One escape hatch mirrors the flat pool's: a stream that holds *every*
//! allocated block (it has the pool to itself) may grow past the budget, so
//! an oversized request degrades to running solo instead of deadlocking.

use edgemm_core::units::{Bytes, BytesPerToken, Tokens};

use crate::kv::{spill_traffic_factor, KvPool};

/// Deterministic 64-bit FNV-1a over a byte slice.
///
/// The prefix registry must hash identically across runs and across
/// processes — `std::collections::hash_map::DefaultHasher` seeds itself
/// with random state per process and would make block sharing (and every
/// golden number downstream of it) non-reproducible, so the serving stack
/// bans it (`edgemm-lint`'s `sim-determinism` rule) and uses this hash.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The registry key of a shared prompt prefix: FNV-1a over the prefix
/// identity (tenant id) and its token count. Two requests share physical
/// blocks exactly when both components match. Never zero — zero is the
/// [`BlockTable`]'s "no prefix attached" sentinel.
pub fn prefix_key(id: u64, tokens: usize) -> u64 {
    let mut data = [0u8; 16];
    data[..8].copy_from_slice(&id.to_le_bytes());
    // lint:allow(unit-cast): fixed-width encoding of the count for hashing
    data[8..].copy_from_slice(&(tokens as u64).to_le_bytes());
    fnv1a_64(&data).max(1)
}

/// One shared prompt prefix: the physical blocks it occupies and how many
/// streams currently map them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrefixEntry {
    key: u64,
    blocks: u64,
    refs: u64,
}

/// The result of attaching a stream to a shared prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixAttach {
    /// Whether the prefix was already resident (a registry hit). On a miss
    /// the stream allocates the shared blocks itself and must prefill them;
    /// later streams hit and reuse both the bytes and the compute.
    pub hit: bool,
    /// Bytes the copy-on-write divergence copies (one tail block when the
    /// prefix does not end on a block boundary, on a hit). The caller
    /// prices this transfer on its DMA engine.
    pub copied_bytes: Bytes,
    /// Prefix tokens whose KV the stream reuses without recomputation
    /// (zero on a miss — the creating stream prefills the whole prefix).
    pub reused_tokens: Tokens,
}

/// A spilled stream's claim on the DRAM spill area: how many blocks (and
/// the context tokens they covered) were written out, to be restored
/// verbatim on re-admission. Bytes spilled always equal bytes restored —
/// the conservation is property-tested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillTicket {
    blocks: u64,
    tokens: Tokens,
    bytes: Bytes,
}

impl SpillTicket {
    /// Blocks the spill image covers.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Context tokens the spilled KV covered.
    pub fn tokens(&self) -> Tokens {
        self.tokens
    }

    /// Bytes written to the spill area (and read back on restore).
    pub fn bytes(&self) -> Bytes {
        self.bytes
    }
}

/// The per-stream page table: how many KV tokens a stream has materialised
/// and how many fixed-size blocks back them — including, for a stream
/// attached to a shared prefix, the refcounted blocks it maps but does not
/// own exclusively.
///
/// A table starts empty, grows through [`PagedKvPool::try_grow_to`], and
/// returns its blocks through [`PagedKvPool::release`] (completion) or
/// [`PagedKvPool::evict`] / [`PagedKvPool::try_spill`] (revocation). It is
/// plain data — all accounting lives in the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTable {
    tokens: Tokens,
    blocks: u64,
    /// Blocks (a prefix of the table) backed by the shared registry.
    shared_blocks: u64,
    /// Registry key of the attached prefix, `0` when unshared.
    prefix: u64,
}

impl BlockTable {
    /// An empty table holding no blocks.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Tokens the table is currently sized for.
    pub fn tokens(&self) -> Tokens {
        self.tokens
    }

    /// Blocks currently allocated to the table (shared blocks included).
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Blocks backed by the shared-prefix registry (refcounted, not owned).
    pub fn shared_blocks(&self) -> u64 {
        self.shared_blocks
    }

    /// Blocks this table holds exclusively.
    pub fn private_blocks(&self) -> u64 {
        self.blocks - self.shared_blocks
    }

    /// The registry key of the attached shared prefix, if any.
    pub fn prefix_key(&self) -> Option<u64> {
        (self.prefix != 0).then_some(self.prefix)
    }

    /// Whether the table holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }
}

/// A block-granular KV pool: the byte budget, on-chip tier and spill
/// penalty of a [`KvPool`], allocated in fixed `block_tokens`-token blocks,
/// reclaimable mid-decode via [`Self::evict`] or [`Self::try_spill`], and
/// shareable across requests with a common prompt prefix via
/// [`Self::try_attach_prefix`].
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvPool {
    budget_bytes: Bytes,
    onchip_bytes: Bytes,
    spill_penalty: f64,
    block_tokens: usize,
    block_bytes: Bytes,
    /// Physical blocks allocated: every stream's private blocks plus each
    /// shared prefix's blocks counted once.
    occupied_blocks: u64,
    peak_bytes: Bytes,
    evictions: u64,
    evicted_blocks: u64,
    /// Shared-prefix registry. A `Vec` scanned linearly: tenants are few,
    /// and the order is deterministic (no randomized hashing in the sim).
    shared: Vec<PrefixEntry>,
    /// DRAM spill area capacity; [`Bytes::ZERO`] disables spill-and-restore
    /// (every eviction falls back to recompute).
    spill_capacity_bytes: Bytes,
    spill_used_bytes: Bytes,
    spilled_bytes: Bytes,
    restored_bytes: Bytes,
    cow_copies: u64,
    shared_block_hits: u64,
}

impl PagedKvPool {
    /// Build a paged pool over `pool`'s budget, on-chip tier and spill
    /// penalty, with blocks of `block_tokens` tokens at `bytes_per_token`
    /// KV bytes per token (across all layers, both K and V).
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` or `bytes_per_token` is zero.
    pub fn new(pool: KvPool, block_tokens: usize, bytes_per_token: BytesPerToken) -> Self {
        assert!(block_tokens > 0, "block size must be at least one token");
        assert!(
            bytes_per_token.get() > 0,
            "KV bytes per token must be positive"
        );
        PagedKvPool {
            budget_bytes: pool.budget_bytes(),
            onchip_bytes: pool.onchip_bytes(),
            spill_penalty: pool.spill_penalty(),
            block_tokens,
            block_bytes: bytes_per_token * block_tokens,
            occupied_blocks: 0,
            peak_bytes: Bytes::ZERO,
            evictions: 0,
            evicted_blocks: 0,
            shared: Vec::new(),
            spill_capacity_bytes: Bytes::ZERO,
            spill_used_bytes: Bytes::ZERO,
            spilled_bytes: Bytes::ZERO,
            restored_bytes: Bytes::ZERO,
            cow_copies: 0,
            shared_block_hits: 0,
        }
    }

    /// The same pool with a DRAM spill area of `capacity` bytes: evictions
    /// write their blocks out via [`Self::try_spill`] (restored verbatim on
    /// re-admission) instead of recomputing, until the area is full.
    pub fn with_spill_capacity(mut self, capacity: Bytes) -> Self {
        self.spill_capacity_bytes = capacity;
        self
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> Bytes {
        self.block_bytes
    }

    /// The byte budget ([`Bytes::MAX`] when unbounded).
    pub fn budget_bytes(&self) -> Bytes {
        self.budget_bytes
    }

    /// Blocks needed to hold `tokens` cached tokens.
    pub fn blocks_for(&self, tokens: Tokens) -> u64 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Physical blocks currently allocated (shared blocks counted once).
    pub fn occupied_blocks(&self) -> u64 {
        self.occupied_blocks
    }

    /// Bytes currently occupied: allocated blocks times the block size
    /// (a partially filled tail block counts whole).
    pub fn occupied_bytes(&self) -> Bytes {
        self.block_bytes
            .checked_mul(self.occupied_blocks)
            .unwrap_or(Bytes::MAX)
    }

    /// High-water mark of occupied bytes over the pool's lifetime.
    pub fn peak_bytes(&self) -> Bytes {
        self.peak_bytes
    }

    /// Streams evicted over the pool's lifetime (spill and recompute both).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Blocks reclaimed by evictions over the pool's lifetime.
    pub fn evicted_blocks(&self) -> u64 {
        self.evicted_blocks
    }

    /// The DRAM spill area capacity (zero when spill-and-restore is off).
    pub fn spill_capacity_bytes(&self) -> Bytes {
        self.spill_capacity_bytes
    }

    /// Bytes currently parked in the spill area.
    pub fn spill_used_bytes(&self) -> Bytes {
        self.spill_used_bytes
    }

    /// Lifetime bytes written to the spill area.
    pub fn spilled_bytes(&self) -> Bytes {
        self.spilled_bytes
    }

    /// Lifetime bytes restored from the spill area.
    pub fn restored_bytes(&self) -> Bytes {
        self.restored_bytes
    }

    /// Copy-on-write tail-block copies performed for shared prefixes.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// Blocks that registry hits mapped without allocating new memory.
    pub fn shared_block_hits(&self) -> u64 {
        self.shared_block_hits
    }

    /// Physical blocks currently held by the shared-prefix registry.
    pub fn shared_registry_blocks(&self) -> u64 {
        self.shared.iter().map(|e| e.blocks).sum()
    }

    /// Streams currently mapping the prefix under `key` (zero when the
    /// prefix is not resident).
    pub fn prefix_refs(&self, key: u64) -> u64 {
        self.shared
            .iter()
            .find(|e| e.key == key)
            .map_or(0, |e| e.refs)
    }

    /// Whether the prefix under `key` is resident in the registry.
    pub fn prefix_resident(&self, key: u64) -> bool {
        self.prefix_refs(key) > 0
    }

    /// Physical blocks that releasing `table` right now would reclaim: its
    /// private blocks, plus its shared blocks when it is their last holder.
    pub fn reclaimable_blocks(&self, table: &BlockTable) -> u64 {
        let shared = match table.prefix_key() {
            Some(key) if self.prefix_refs(key) <= 1 => table.shared_blocks,
            _ => 0,
        };
        table.private_blocks() + shared
    }

    /// Whether `table` holds (or maps) every allocated block — the
    /// sole-owner condition of the oversize escape hatch. A table sharing
    /// its prefix with another live stream is never sole owner.
    fn sole_owner(&self, table: &BlockTable) -> bool {
        table.blocks == self.occupied_blocks
            && table
                .prefix_key()
                .map_or(true, |key| self.prefix_refs(key) <= 1)
    }

    fn note_peak(&mut self) {
        self.peak_bytes = self.peak_bytes.max(self.occupied_bytes());
    }

    /// Attach `table` to the shared prefix under `key`, covering
    /// `prefix_tokens` leading tokens of the stream's prompt. On a registry
    /// *hit* the stream maps the resident blocks (refcount bumped, no new
    /// memory) and reuses their KV without recomputation; when the prefix
    /// does not end on a block boundary the partially filled tail block is
    /// copied for the stream's own appends ([`PrefixAttach::copied_bytes`]
    /// — copy-on-write, priced by the caller). On a *miss* the full blocks
    /// of the prefix are allocated into the registry with this stream as
    /// the first holder; `None` when that allocation would exceed the
    /// budget (and the stream is not sole owner of the pool).
    ///
    /// Prefixes shorter than one block attach trivially (nothing to
    /// share). The table must not already have a prefix or blocks.
    pub fn try_attach_prefix(
        &mut self,
        table: &mut BlockTable,
        key: u64,
        prefix_tokens: Tokens,
    ) -> Option<PrefixAttach> {
        debug_assert!(table.prefix == 0 && table.blocks == 0);
        debug_assert!(key != 0, "key 0 is the unshared sentinel");
        // lint:allow(unit-cast): whole-block count of the prefix
        let shared_full = prefix_tokens.get() as u64 / self.block_tokens as u64;
        // Only the whole blocks are shareable; their token coverage rounds
        // the prefix down to a block boundary.
        let covered = Tokens::new(prefix_tokens.get() / self.block_tokens * self.block_tokens);
        if shared_full == 0 {
            return Some(PrefixAttach {
                hit: false,
                copied_bytes: Bytes::ZERO,
                reused_tokens: Tokens::ZERO,
            });
        }
        let misaligned = prefix_tokens.get() % self.block_tokens != 0;
        if let Some(entry) = self.shared.iter_mut().find(|e| e.key == key) {
            entry.refs += 1;
            self.shared_block_hits += shared_full;
            table.prefix = key;
            table.shared_blocks = shared_full;
            table.blocks = shared_full;
            table.tokens = covered;
            let copied_bytes = if misaligned {
                self.cow_copies += 1;
                self.block_bytes
            } else {
                Bytes::ZERO
            };
            return Some(PrefixAttach {
                hit: true,
                copied_bytes,
                // The tail tokens of a misaligned prefix are covered by the
                // copied block, so a hit always reuses the whole prefix.
                reused_tokens: prefix_tokens,
            });
        }
        let fits = self
            .occupied_blocks
            .checked_add(shared_full)
            .and_then(|blocks| self.block_bytes.checked_mul(blocks))
            .is_some_and(|bytes| bytes <= self.budget_bytes);
        if !fits && !self.sole_owner(table) {
            return None;
        }
        self.shared.push(PrefixEntry {
            key,
            blocks: shared_full,
            refs: 1,
        });
        self.occupied_blocks += shared_full;
        table.prefix = key;
        table.shared_blocks = shared_full;
        table.blocks = shared_full;
        table.tokens = covered;
        self.note_peak();
        Some(PrefixAttach {
            hit: false,
            copied_bytes: Bytes::ZERO,
            reused_tokens: Tokens::ZERO,
        })
    }

    /// Grow `table` to cover `tokens` cached tokens, allocating whatever
    /// blocks the growth needs. All-or-nothing: returns `false` (changing
    /// nothing) when the new blocks would push occupancy past the budget —
    /// unless `table` already holds every allocated block (the stream has
    /// the pool to itself), in which case the growth is admitted over
    /// budget so an oversized request runs solo instead of deadlocking.
    ///
    /// Growth past an attached prefix allocates private blocks only — the
    /// shared blocks stay shared.
    ///
    /// Growing to a token count the table already covers (or fewer tokens)
    /// only updates the token count and always succeeds: blocks are never
    /// returned by shrinking, only by [`Self::release`] / [`Self::evict`].
    pub fn try_grow_to(&mut self, table: &mut BlockTable, tokens: Tokens) -> bool {
        let needed = self.blocks_for(tokens);
        if needed <= table.blocks {
            table.tokens = tokens;
            return true;
        }
        let delta = needed - table.blocks;
        let solo = self.sole_owner(table);
        let fits = self
            .occupied_blocks
            .checked_add(delta)
            .and_then(|blocks| self.block_bytes.checked_mul(blocks))
            .is_some_and(|bytes| bytes <= self.budget_bytes);
        if !fits && !solo {
            return false;
        }
        self.occupied_blocks += delta;
        table.blocks = needed;
        table.tokens = tokens;
        self.note_peak();
        true
    }

    /// [`Self::try_grow_to`] without the budget check: the caller has
    /// decided the stream must run (the decode batch is empty and nothing
    /// can otherwise make progress). Mirrors the sole-owner hatch for the
    /// accounted-prefix configurations, where ready streams hold blocks and
    /// the pool is never empty when the batch drains.
    pub fn grow_to_forced(&mut self, table: &mut BlockTable, tokens: Tokens) {
        let needed = self.blocks_for(tokens);
        if needed <= table.blocks {
            table.tokens = tokens;
            return;
        }
        self.occupied_blocks += needed - table.blocks;
        table.blocks = needed;
        table.tokens = tokens;
        self.note_peak();
    }

    /// Detach `table` from its shared prefix (refcount decrement), freeing
    /// the registry blocks when this was the last holder. Returns the
    /// physical blocks freed.
    fn detach_prefix(&mut self, table: &BlockTable) -> u64 {
        let Some(key) = table.prefix_key() else {
            return 0;
        };
        let pos = self
            .shared
            .iter()
            .position(|e| e.key == key)
            // lint:allow(no-unwrap): an attached table's entry is registered
            .expect("attached prefix must be registered");
        self.shared[pos].refs -= 1;
        if self.shared[pos].refs == 0 {
            let blocks = self.shared[pos].blocks;
            self.shared.remove(pos);
            blocks
        } else {
            0
        }
    }

    /// Return a finished stream's blocks to the pool: its private blocks
    /// always, its shared blocks only when it was their last holder.
    pub fn release(&mut self, table: &mut BlockTable) {
        debug_assert!(table.private_blocks() <= self.occupied_blocks);
        self.occupied_blocks -= table.private_blocks();
        self.occupied_blocks -= self.detach_prefix(table);
        *table = BlockTable::empty();
    }

    /// Revoke a running stream's blocks and count the eviction: the
    /// recompute flavour — the caller re-queues the request for re-prefill
    /// over its accumulated context. Prefer [`Self::try_spill`] when a
    /// spill area is configured; this is its fallback when the area is
    /// exhausted (and the only path when it is not configured).
    pub fn evict(&mut self, table: &mut BlockTable) {
        self.evictions += 1;
        self.evicted_blocks += self.reclaimable_blocks(table);
        self.release(table);
    }

    /// Revoke a running stream's blocks by writing its KV image (every
    /// block it maps, shared blocks copied rather than stolen) to the DRAM
    /// spill area. Returns the [`SpillTicket`] to restore from — the caller
    /// prices the transfer on its DMA engine and re-queues the stream for
    /// re-admission, *not* re-prefill. `None` when no spill area is
    /// configured or the area cannot hold the image (recompute fallback:
    /// call [`Self::evict`]).
    pub fn try_spill(&mut self, table: &mut BlockTable) -> Option<SpillTicket> {
        debug_assert!(!table.is_empty(), "spilling an empty table");
        let bytes = self.block_bytes.checked_mul(table.blocks)?;
        let fits = self
            .spill_used_bytes
            .checked_add(bytes)
            .is_some_and(|used| used <= self.spill_capacity_bytes);
        if !fits {
            return None;
        }
        let ticket = SpillTicket {
            blocks: table.blocks,
            tokens: table.tokens,
            bytes,
        };
        self.evictions += 1;
        self.evicted_blocks += self.reclaimable_blocks(table);
        self.spill_used_bytes += bytes;
        self.spilled_bytes += bytes;
        self.release(table);
        Some(ticket)
    }

    /// Re-admit a spilled stream: allocate the ticket's blocks and read the
    /// image back (the caller prices the transfer). The restored stream is
    /// unshared — its prefix association was dissolved by the spill. Fails
    /// (changing nothing) when the blocks would exceed the budget, unless
    /// the pool is empty or `force` is set (the caller's batch is empty and
    /// decode must progress).
    pub fn try_restore(
        &mut self,
        table: &mut BlockTable,
        ticket: &SpillTicket,
        force: bool,
    ) -> bool {
        debug_assert!(table.is_empty(), "restoring into a live table");
        let fits = self
            .occupied_blocks
            .checked_add(ticket.blocks)
            .and_then(|blocks| self.block_bytes.checked_mul(blocks))
            .is_some_and(|bytes| bytes <= self.budget_bytes);
        if !fits && self.occupied_blocks != 0 && !force {
            return false;
        }
        self.occupied_blocks += ticket.blocks;
        *table = BlockTable {
            tokens: ticket.tokens,
            blocks: ticket.blocks,
            shared_blocks: 0,
            prefix: 0,
        };
        self.spill_used_bytes -= ticket.bytes;
        self.restored_bytes += ticket.bytes;
        self.note_peak();
        true
    }

    /// Park a *prefilling* stream's KV in the DRAM spill area so the serving
    /// pool never stalls the CC stage: the blocks the table already maps are
    /// moved out (the caller prices that transfer) and the image is sized up
    /// front to cover `tokens`, with the chunk's fresh KV written straight
    /// through to the area. Unlike [`Self::try_spill`] this is not counted
    /// as an eviction — nothing is revoked, the stream keeps running.
    /// Returns `None` (changing nothing) when the area cannot hold the
    /// image; the table may be empty (first chunk of a full pool).
    pub fn try_park(&mut self, table: &mut BlockTable, tokens: Tokens) -> Option<SpillTicket> {
        let tokens = Tokens::new(tokens.get().max(table.tokens.get()));
        let blocks = self.blocks_for(tokens).max(table.blocks);
        let bytes = self.block_bytes.checked_mul(blocks)?;
        let fits = self
            .spill_used_bytes
            .checked_add(bytes)
            .is_some_and(|used| used <= self.spill_capacity_bytes);
        if !fits {
            return None;
        }
        self.spill_used_bytes += bytes;
        self.spilled_bytes += bytes;
        self.release(table);
        Some(SpillTicket {
            blocks,
            tokens,
            bytes,
        })
    }

    /// Extend a parked prefill's spill image in place to cover `tokens`:
    /// each further chunk's KV is written straight through to the area
    /// (no pool residency, no transfer to price — the KV is written exactly
    /// once either way; the full image is priced when it is read back by
    /// [`Self::try_restore`]). Fails (changing nothing) when the area
    /// cannot hold the extension. Covering fewer tokens than the ticket
    /// already holds is a no-op success.
    pub fn try_grow_spilled(&mut self, ticket: &mut SpillTicket, tokens: Tokens) -> bool {
        let blocks = self.blocks_for(tokens).max(ticket.blocks);
        let Some(delta) = self.block_bytes.checked_mul(blocks - ticket.blocks) else {
            return false;
        };
        let fits = self
            .spill_used_bytes
            .checked_add(delta)
            .is_some_and(|used| used <= self.spill_capacity_bytes);
        if !fits {
            return false;
        }
        self.spill_used_bytes += delta;
        self.spilled_bytes += delta;
        ticket.blocks = blocks;
        if tokens > ticket.tokens {
            ticket.tokens = tokens;
        }
        ticket.bytes += delta;
        true
    }

    /// The multiplier the current occupancy applies to a decode step's KV
    /// DRAM cycles — the same two-tier spill formula as
    /// [`KvPool::kv_traffic_factor`], over block-granular occupancy.
    pub fn kv_traffic_factor(&self) -> f64 {
        spill_traffic_factor(self.occupied_bytes(), self.onchip_bytes, self.spill_penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(budget: u64, block_tokens: usize, bytes_per_token: u64) -> PagedKvPool {
        PagedKvPool::new(
            KvPool::with_budget(Bytes::new(budget)),
            block_tokens,
            Bytes::per_token(bytes_per_token),
        )
    }

    #[test]
    fn blocks_allocate_lazily_and_round_up() {
        let mut p = pool(1000, 4, 10); // block = 40 bytes, 25 blocks fit
        let mut t = BlockTable::empty();
        assert!(p.try_grow_to(&mut t, Tokens::new(3)));
        assert_eq!((t.tokens(), t.blocks()), (Tokens::new(3), 1));
        assert_eq!(p.occupied_bytes(), 40);
        // Growing within the tail block allocates nothing.
        assert!(p.try_grow_to(&mut t, Tokens::new(4)));
        assert_eq!(t.blocks(), 1);
        assert!(p.try_grow_to(&mut t, Tokens::new(5)));
        assert_eq!(t.blocks(), 2);
        assert_eq!(p.occupied_bytes(), 80);
        assert_eq!(p.peak_bytes(), 80);
    }

    #[test]
    fn budget_blocks_growth_and_release_frees() {
        let mut p = pool(100, 2, 10); // block = 20 bytes, 5 blocks
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(6))); // 3 blocks
        assert!(p.try_grow_to(&mut b, Tokens::new(4))); // 2 blocks -> full
        assert!(
            !p.try_grow_to(&mut b, Tokens::new(6)),
            "over-budget growth admitted"
        );
        assert_eq!(
            (b.tokens(), b.blocks()),
            (Tokens::new(4), 2),
            "failed growth mutated"
        );
        p.release(&mut a);
        assert!(a.is_empty());
        assert!(p.try_grow_to(&mut b, Tokens::new(6)));
        assert_eq!(p.peak_bytes(), 100);
    }

    #[test]
    fn solo_stream_may_exceed_the_budget() {
        let mut p = pool(100, 2, 10);
        let mut a = BlockTable::empty();
        assert!(
            p.try_grow_to(&mut a, Tokens::new(40)),
            "solo oversized stream must run"
        );
        assert_eq!(p.occupied_bytes(), 400);
        let mut b = BlockTable::empty();
        assert!(
            !p.try_grow_to(&mut b, Tokens::new(2)),
            "nothing may join an oversized solo"
        );
        // Once another stream holds blocks, the hatch closes for everyone.
        p.release(&mut a);
        assert!(p.try_grow_to(&mut b, Tokens::new(2)));
        let mut c = BlockTable::empty();
        assert!(
            !p.try_grow_to(&mut c, Tokens::new(40)),
            "escape hatch requires sole ownership"
        );
    }

    #[test]
    fn eviction_frees_blocks_and_counts() {
        let mut p = pool(100, 2, 10);
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(6)));
        assert!(p.try_grow_to(&mut b, Tokens::new(4)));
        p.evict(&mut a);
        assert!(a.is_empty());
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.evicted_blocks(), 3);
        assert_eq!(p.occupied_bytes(), 40);
        // The freed blocks are immediately reusable.
        let mut c = BlockTable::empty();
        assert!(p.try_grow_to(&mut c, Tokens::new(6)));
    }

    #[test]
    fn traffic_factor_follows_the_spill_formula() {
        let kv = KvPool::with_budget(Bytes::new(1000))
            .with_onchip(Bytes::new(400))
            .with_spill_penalty(1.5);
        let mut p = PagedKvPool::new(kv, 10, Bytes::per_token(10)); // block = 100 bytes
        assert_eq!(p.kv_traffic_factor(), 1.0, "empty pool is neutral");
        let mut a = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(20))); // 200 bytes, all on chip
        assert_eq!(p.kv_traffic_factor(), 0.0);
        let mut b = BlockTable::empty();
        assert!(p.try_grow_to(&mut b, Tokens::new(60))); // 800 total: 400 of 800 spilled
        assert!((p.kv_traffic_factor() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unbounded_pool_never_blocks() {
        let mut p = PagedKvPool::new(KvPool::unbounded(), 16, Bytes::per_token(1 << 20));
        let mut tables = [BlockTable::empty(); 4];
        for t in &mut tables {
            assert!(p.try_grow_to(t, Tokens::new(10_000)));
            assert_eq!(p.kv_traffic_factor(), 1.0);
        }
    }

    #[test]
    fn shrinking_never_returns_blocks() {
        let mut p = pool(1000, 4, 10);
        let mut t = BlockTable::empty();
        assert!(p.try_grow_to(&mut t, Tokens::new(8)));
        assert_eq!(t.blocks(), 2);
        assert!(p.try_grow_to(&mut t, Tokens::new(2)));
        assert_eq!((t.tokens(), t.blocks()), (Tokens::new(2), 2));
        assert_eq!(p.occupied_bytes(), 80);
    }

    #[test]
    #[should_panic(expected = "block size must be at least one token")]
    fn zero_block_tokens_rejected() {
        pool(100, 0, 1);
    }

    #[test]
    #[should_panic(expected = "KV bytes per token must be positive")]
    fn zero_bytes_per_token_rejected() {
        pool(100, 1, 0);
    }

    // ---------------------------------------------------- prefix sharing

    #[test]
    fn prefix_key_is_deterministic_and_nonzero() {
        assert_eq!(prefix_key(3, 256), prefix_key(3, 256));
        assert_ne!(prefix_key(3, 256), prefix_key(4, 256));
        assert_ne!(prefix_key(3, 256), prefix_key(3, 255));
        assert_ne!(prefix_key(0, 0), 0, "zero is the unshared sentinel");
    }

    #[test]
    fn shared_prefix_blocks_are_allocated_once() {
        let mut p = pool(1000, 4, 10); // block = 40 bytes
        let key = prefix_key(7, 8); // 8 tokens = 2 full blocks, aligned
        let mut a = BlockTable::empty();
        let first = p
            .try_attach_prefix(&mut a, key, Tokens::new(8))
            .expect("fits");
        assert!(!first.hit);
        assert_eq!(first.reused_tokens, 0);
        assert_eq!((a.blocks(), a.shared_blocks()), (2, 2));
        assert_eq!(p.occupied_blocks(), 2);
        // Second stream maps the same physical blocks: occupancy unchanged.
        let mut b = BlockTable::empty();
        let second = p
            .try_attach_prefix(&mut b, key, Tokens::new(8))
            .expect("hit never fails");
        assert!(second.hit);
        assert_eq!(second.reused_tokens, 8);
        assert_eq!(second.copied_bytes, 0, "aligned prefix needs no copy");
        assert_eq!(p.occupied_blocks(), 2);
        assert_eq!(p.prefix_refs(key), 2);
        assert_eq!(p.shared_block_hits(), 2);
        // Private growth past the prefix allocates only the new blocks.
        assert!(p.try_grow_to(&mut a, Tokens::new(12)));
        assert!(p.try_grow_to(&mut b, Tokens::new(10)));
        assert_eq!(p.occupied_blocks(), 2 + 1 + 1);
        assert_eq!(a.private_blocks(), 1);
    }

    #[test]
    fn shared_blocks_survive_until_the_last_holder_releases() {
        let mut p = pool(1000, 4, 10);
        let key = prefix_key(1, 8);
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        p.try_attach_prefix(&mut a, key, Tokens::new(8)).unwrap();
        p.try_attach_prefix(&mut b, key, Tokens::new(8)).unwrap();
        p.try_grow_to(&mut a, Tokens::new(16));
        p.release(&mut a);
        // b still maps the prefix: its blocks must not have been freed.
        assert!(p.prefix_resident(key));
        assert_eq!(p.occupied_blocks(), 2);
        p.release(&mut b);
        assert!(!p.prefix_resident(key));
        assert_eq!(p.occupied_blocks(), 0);
        assert_eq!(p.shared_registry_blocks(), 0);
    }

    #[test]
    fn misaligned_prefix_hit_prices_a_cow_copy() {
        let mut p = pool(1000, 4, 10);
        let key = prefix_key(2, 10); // 2 full blocks + 2 tail tokens
        let mut a = BlockTable::empty();
        let first = p.try_attach_prefix(&mut a, key, Tokens::new(10)).unwrap();
        assert_eq!(first.copied_bytes, 0, "the creator owns its tail");
        assert_eq!(a.shared_blocks(), 2, "only full blocks are shared");
        let mut b = BlockTable::empty();
        let second = p.try_attach_prefix(&mut b, key, Tokens::new(10)).unwrap();
        assert!(second.hit);
        assert_eq!(second.copied_bytes, p.block_bytes());
        assert_eq!(second.reused_tokens, 10, "the copied tail is reused too");
        assert_eq!(p.cow_copies(), 1);
    }

    #[test]
    fn sub_block_prefix_attaches_trivially() {
        let mut p = pool(1000, 16, 10);
        let mut t = BlockTable::empty();
        let attach = p
            .try_attach_prefix(&mut t, prefix_key(1, 5), Tokens::new(5))
            .expect("nothing to allocate");
        assert!(!attach.hit);
        assert!(t.prefix_key().is_none());
        assert_eq!(p.occupied_blocks(), 0);
    }

    #[test]
    fn prefix_attach_respects_the_budget() {
        let mut p = pool(100, 2, 10); // 5 blocks
        let mut a = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(8))); // 4 blocks
        let mut b = BlockTable::empty();
        assert!(
            p.try_attach_prefix(&mut b, prefix_key(1, 4), Tokens::new(4))
                .is_none(),
            "2 new shared blocks cannot fit beside 4 private ones"
        );
        assert!(b.is_empty());
        p.release(&mut a);
        assert!(p
            .try_attach_prefix(&mut b, prefix_key(1, 4), Tokens::new(4))
            .is_some());
    }

    #[test]
    fn shared_table_is_never_sole_owner_while_shared() {
        let mut p = pool(100, 2, 10); // 5 blocks
        let key = prefix_key(9, 10); // 5 full blocks: fills the pool
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        p.try_attach_prefix(&mut a, key, Tokens::new(10)).unwrap();
        p.try_attach_prefix(&mut b, key, Tokens::new(10)).unwrap();
        // a maps every allocated block, but b shares them: the oversize
        // hatch must stay closed.
        assert!(!p.try_grow_to(&mut a, Tokens::new(12)));
        p.release(&mut b);
        assert!(p.try_grow_to(&mut a, Tokens::new(12)), "sole holder again");
    }

    // ------------------------------------------------- spill and restore

    #[test]
    fn spill_then_restore_conserves_bytes_and_frees_memory() {
        let mut p = pool(100, 2, 10).with_spill_capacity(Bytes::new(1000));
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(6))); // 3 blocks, 60 B
        assert!(p.try_grow_to(&mut b, Tokens::new(4))); // 2 blocks
        let ticket = p.try_spill(&mut a).expect("area has room");
        assert!(a.is_empty());
        assert_eq!(
            (ticket.blocks(), ticket.tokens(), ticket.bytes()),
            (3, Tokens::new(6), Bytes::new(60))
        );
        assert_eq!(p.occupied_blocks(), 2);
        assert_eq!(p.evictions(), 1);
        assert_eq!(p.spill_used_bytes(), 60);
        assert_eq!(p.spilled_bytes(), 60);
        assert!(p.try_restore(&mut a, &ticket, false));
        assert_eq!((a.tokens(), a.blocks()), (Tokens::new(6), 3));
        assert_eq!(p.occupied_blocks(), 5);
        assert_eq!(p.spill_used_bytes(), 0);
        assert_eq!(p.restored_bytes(), p.spilled_bytes());
    }

    #[test]
    fn exhausted_spill_area_falls_back_to_none() {
        let mut p = pool(200, 2, 10).with_spill_capacity(Bytes::new(50));
        let mut a = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(6))); // 60 B > 50 B area
        assert!(p.try_spill(&mut a).is_none(), "image exceeds the area");
        assert_eq!(a.blocks(), 3, "failed spill must not free anything");
        assert_eq!(p.evictions(), 0);
        // The recompute fallback still works.
        p.evict(&mut a);
        assert_eq!(p.evictions(), 1);
    }

    #[test]
    fn spill_without_an_area_is_refused() {
        let mut p = pool(200, 2, 10);
        let mut a = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(2)));
        assert!(p.try_spill(&mut a).is_none());
    }

    #[test]
    fn restore_respects_the_budget_unless_forced() {
        let mut p = pool(100, 2, 10).with_spill_capacity(Bytes::new(1000));
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        assert!(p.try_grow_to(&mut a, Tokens::new(6)));
        let ticket = p.try_spill(&mut a).expect("room");
        assert!(p.try_grow_to(&mut b, Tokens::new(8))); // 4 of 5 blocks
        assert!(!p.try_restore(&mut a, &ticket, false), "3 more do not fit");
        assert_eq!(p.spill_used_bytes(), 60, "failed restore keeps the image");
        assert!(p.try_restore(&mut a, &ticket, true), "forced restore runs");
        assert_eq!(p.occupied_blocks(), 7);
        assert_eq!(p.restored_bytes(), 60);
    }

    #[test]
    fn spilling_a_shared_table_copies_rather_than_steals() {
        let mut p = pool(1000, 4, 10).with_spill_capacity(Bytes::new(1000));
        let key = prefix_key(5, 8);
        let mut a = BlockTable::empty();
        let mut b = BlockTable::empty();
        p.try_attach_prefix(&mut a, key, Tokens::new(8)).unwrap();
        p.try_attach_prefix(&mut b, key, Tokens::new(8)).unwrap();
        assert!(p.try_grow_to(&mut a, Tokens::new(12))); // 2 shared + 1 private
        let ticket = p.try_spill(&mut a).expect("room");
        // The image covers all 3 mapped blocks, but only the private one
        // was physically freed — b still reads the shared prefix.
        assert_eq!(ticket.blocks(), 3);
        assert_eq!(p.occupied_blocks(), 2);
        assert!(p.prefix_resident(key));
        // The restored stream is unshared: its blocks are all private.
        assert!(p.try_restore(&mut a, &ticket, false));
        assert_eq!((a.blocks(), a.shared_blocks()), (3, 0));
        assert_eq!(p.occupied_blocks(), 5);
    }
}
