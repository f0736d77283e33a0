//! The inode-layer buffer cache.
//!
//! [`BlockCache`] is an LRU cache of committed block contents sitting
//! between [`crate::fs::InodeFs`] and its block device, mirroring the
//! superblock-level caching the dbfs2 lineage puts between a filesystem and
//! its store.  The write path is deliberately **not** cached ahead of the
//! device:
//!
//! * **read-through** — every internal block read consults the open
//!   transaction overlay first (uncommitted data), then the cache, then the
//!   device; misses populate the cache;
//! * **write-back within the transaction overlay** — dirty blocks of a
//!   compound mutation live only in the overlay of
//!   [`crate::fs::InodeFs::begin_tx`], never in this cache, so the cache
//!   can never hold data the journal has not seen;
//! * **flush barrier at commit** — when a transaction commits, the write
//!   set is journaled, applied in place, flushed, and only then copied into
//!   the cache, so cache contents always equal committed device contents.
//!
//! Keeping the cache coherent with the device (rather than ahead of it) is
//! what lets the crash-point harness keep its guarantee: a crash wipes the
//! cache along with the overlay, and recovery only ever reasons about the
//! device.
//!
//! Crypto-erasure imposes one extra obligation: an erased record's
//! plaintext must not outlive the erasure *in the cache* either.  Every
//! committed write updates the cached copy in place (tombstone ciphertext
//! and zero-on-free scrubs included), and [`BlockCache::contains_pattern`]
//! exists so tests can scan the cache the way `scan_for_pattern` scans the
//! raw device.

use rgpdos_trace::Counter;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Hit/miss counters of a [`BlockCache`], as reported by
/// [`crate::fs::InodeFs::cache_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the device.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} hit_rate={:.1}%",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

/// Default cache capacity, in blocks, used by a freshly formatted or
/// mounted [`crate::fs::InodeFs`].
pub const DEFAULT_CACHE_BLOCKS: usize = 1024;

/// An LRU cache of committed block contents (see the module docs for the
/// coherence protocol).  A capacity of zero disables caching entirely.
#[derive(Debug)]
pub struct BlockCache {
    capacity: usize,
    /// Block number -> (recency stamp, committed contents).
    blocks: HashMap<u64, (u64, Vec<u8>)>,
    /// Recency stamp -> block number; the smallest stamp is the LRU victim.
    by_stamp: BTreeMap<u64, u64>,
    tick: u64,
    /// Bumped by every invalidation ([`BlockCache::invalidate`],
    /// [`BlockCache::clear`], [`BlockCache::set_capacity`]).  A miss-fill
    /// that released the cache lock while reading the device must re-check
    /// this before installing: if an invalidation (i.e. a committed write)
    /// happened in between, the just-read contents may be stale and must
    /// not overwrite the committed copy.
    epoch: u64,
    /// Hit/miss tallies are trace [`Counter`]s (shared atomics) rather than
    /// plain integers, so a metrics registry can adopt the same handles and
    /// read them without taking the cache's lock.
    hits: Counter,
    misses: Counter,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks (zero disables).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            blocks: HashMap::new(),
            by_stamp: BTreeMap::new(),
            tick: 0,
            epoch: 0,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The configured capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks currently cached.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Hit/miss counters since creation.  They are cumulative:
    /// [`BlockCache::clear`] and [`BlockCache::set_capacity`] do not reset
    /// them.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// The shared hit/miss counter handles, for adoption into a metrics
    /// registry (both views read the same atomics).
    pub fn counters(&self) -> (Counter, Counter) {
        (self.hits.clone(), self.misses.clone())
    }

    /// Reconfigures the capacity, dropping every cached block.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.clear();
    }

    /// The invalidation epoch (see the field docs): unchanged since a miss
    /// was taken means no invalidation raced the device read, so the
    /// miss-fill may be installed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks a block up, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, block: u64) -> Option<Vec<u8>> {
        if self.capacity == 0 {
            return None;
        }
        let stamp = self.next_tick();
        match self.blocks.get_mut(&block) {
            Some((old, data)) => {
                self.by_stamp.remove(old);
                self.by_stamp.insert(stamp, block);
                *old = stamp;
                self.hits.inc();
                Some(data.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Installs (or refreshes) the committed contents of a block, evicting
    /// the least-recently-used entries beyond capacity.  Does not touch the
    /// hit/miss counters: installs happen on the miss-fill and commit-apply
    /// paths, which are not lookups.
    pub fn insert(&mut self, block: u64, data: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.next_tick();
        if let Some((old, _)) = self.blocks.get(&block) {
            self.by_stamp.remove(old);
        }
        self.by_stamp.insert(stamp, block);
        self.blocks.insert(block, (stamp, data));
        while self.blocks.len() > self.capacity {
            let (&victim_stamp, &victim) = self
                .by_stamp
                .iter()
                .next()
                .expect("a non-empty cache has an LRU victim");
            self.by_stamp.remove(&victim_stamp);
            self.blocks.remove(&victim);
        }
    }

    /// Installs the just-committed contents of a block, advancing the
    /// invalidation epoch.
    ///
    /// Commit-path installs must advance the epoch, unlike plain
    /// [`BlockCache::insert`]: a racing miss-fill that sampled the epoch
    /// after the commit's `invalidate` but read the device *before* the
    /// in-place write would otherwise pass its epoch check and clobber the
    /// fresh entry with pre-commit bytes — leaving the cache stale behind
    /// the device (and, for crypto-erasure commits, leaving erased
    /// plaintext resident in the cache).  The rgpdos-conc model suite pins
    /// this rule (`model_block_cache` in the bench crate).
    pub fn install_committed(&mut self, block: u64, data: Vec<u8>) {
        self.epoch += 1;
        self.insert(block, data);
    }

    /// Drops one block, if cached, and advances the invalidation epoch.
    pub fn invalidate(&mut self, block: u64) {
        self.epoch += 1;
        if let Some((stamp, _)) = self.blocks.remove(&block) {
            self.by_stamp.remove(&stamp);
        }
    }

    /// Drops every cached block (counters are kept) and advances the
    /// invalidation epoch.
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.blocks.clear();
        self.by_stamp.clear();
    }

    /// Whether any cached block contains `pattern` — the cache-level
    /// analogue of the raw-device forensic scan, used to prove that
    /// crypto-erasure leaves no plaintext behind in the buffer cache.
    pub fn contains_pattern(&self, pattern: &[u8]) -> bool {
        if pattern.is_empty() {
            return false;
        }
        self.blocks
            .values()
            .any(|(_, data)| data.windows(pattern.len()).any(|w| w == pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_and_lru_eviction() {
        let mut cache = BlockCache::new(2);
        assert!(cache.get(7).is_none());
        cache.insert(7, vec![7]);
        cache.insert(8, vec![8]);
        assert_eq!(cache.get(7), Some(vec![7]));
        // 8 is now the LRU victim; inserting 9 evicts it.
        cache.insert(9, vec![9]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(8).is_none());
        assert_eq!(cache.get(7), Some(vec![7]));
        assert_eq!(cache.get(9), Some(vec![9]));
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut cache = BlockCache::new(2);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        cache.insert(1, vec![10]);
        cache.insert(3, vec![3]);
        // 2 was the coldest entry, not 1 (which was refreshed).
        assert!(cache.get(2).is_none());
        assert_eq!(cache.get(1), Some(vec![10]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = BlockCache::new(0);
        cache.insert(1, vec![1]);
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        // A disabled cache does not even count misses: there is no cache to
        // miss in.
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn cache_stats_hit_rate_and_display() {
        let stats = CacheStats { hits: 1, misses: 1 };
        assert!((stats.hit_rate() - 0.5).abs() < f64::EPSILON);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(stats.to_string(), "hits=1 misses=1 hit_rate=50.0%");
    }

    #[test]
    fn invalidate_and_clear() {
        let mut cache = BlockCache::new(4);
        cache.insert(1, vec![1]);
        cache.insert(2, vec![2]);
        cache.invalidate(1);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 4);
        cache.set_capacity(8);
        assert_eq!(cache.capacity(), 8);
    }

    #[test]
    fn invalidations_advance_the_epoch() {
        let mut cache = BlockCache::new(4);
        let e0 = cache.epoch();
        cache.insert(1, vec![1]);
        // Inserts and lookups do not advance the epoch...
        let _ = cache.get(1);
        assert_eq!(cache.epoch(), e0);
        // ...every form of invalidation does.
        cache.invalidate(1);
        assert!(cache.epoch() > e0);
        let e1 = cache.epoch();
        cache.clear();
        assert!(cache.epoch() > e1);
        let e2 = cache.epoch();
        cache.set_capacity(2);
        assert!(cache.epoch() > e2);
    }

    #[test]
    fn pattern_scan_sees_cached_bytes() {
        let mut cache = BlockCache::new(4);
        cache.insert(3, b"xxSECRETxx".to_vec());
        assert!(cache.contains_pattern(b"SECRET"));
        cache.insert(3, b"xx______xx".to_vec());
        assert!(!cache.contains_pattern(b"SECRET"));
        assert!(!cache.contains_pattern(b""));
    }
}
