//! CDN → edge prefetch cache.
//!
//! The edge server prefetches video chunks from the CDN PoP; how many
//! chunks of a video are present at a scheduling point determines the
//! paper's `K_m` (eq. 1, Fig. 4: some users' windows are partly
//! unavailable). Two pieces live here:
//!
//! * [`PrefetchCache`] — a size-bounded LRU of cached chunks with
//!   hit/miss accounting;
//! * [`PrefetchPolicy`] — how far ahead of a playhead the edge
//!   prefetches, optionally boosted by channel popularity.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;

/// How aggressively the edge prefetches ahead of each viewer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PrefetchPolicy {
    /// Everything already produced is cached (sufficient storage).
    Full,
    /// A fixed look-ahead window of `chunks` beyond the playhead.
    Window {
        /// Chunks prefetched beyond the playhead.
        chunks: usize,
    },
    /// An 8-chunk window widened for popular channels: 4 more chunks
    /// per 100 concurrent viewers, capped at 30 (one slot).
    PopularityBoosted,
}

/// Base look-ahead window of [`PrefetchPolicy::PopularityBoosted`].
const BOOST_BASE: usize = 8;

/// Extra chunks per 100 viewers of [`PrefetchPolicy::PopularityBoosted`].
const BOOST_PER_HUNDRED_VIEWERS: usize = 4;

/// Cap on the window of [`PrefetchPolicy::PopularityBoosted`].
const BOOST_MAX_CHUNKS: usize = 30;

impl PrefetchPolicy {
    /// Number of chunks available at a scheduling point for a video of
    /// `produced` chunks with the viewer's playhead at `playhead`
    /// (chunks already played) and `viewers` watching the channel.
    ///
    /// Returns the paper's `K_m`: how many not-yet-played chunks the
    /// edge holds.
    pub fn available_chunks(&self, produced: usize, playhead: usize, viewers: u32) -> usize {
        let remaining = produced.saturating_sub(playhead);
        match *self {
            PrefetchPolicy::Full => remaining,
            PrefetchPolicy::Window { chunks } => remaining.min(chunks),
            PrefetchPolicy::PopularityBoosted => {
                let boost = (viewers as usize / 100) * BOOST_PER_HUNDRED_VIEWERS;
                remaining.min((BOOST_BASE + boost).min(BOOST_MAX_CHUNKS))
            }
        }
    }
}

/// A size-bounded LRU cache with hit/miss accounting.
///
/// Keys are whatever the caller uses to identify chunks (e.g.
/// `(VideoId, ChunkId)`); values carry only their size, since the
/// emulator never needs chunk *bytes*.
///
/// # Example
///
/// ```
/// use lpvs_edge::cache::PrefetchCache;
///
/// let mut cache: PrefetchCache<(u64, u32)> = PrefetchCache::new(1.0);
/// cache.insert((1, 0), 0.4);
/// cache.insert((1, 1), 0.4);
/// cache.insert((1, 2), 0.4); // evicts (1, 0)
/// assert!(!cache.contains(&(1, 0)));
/// assert!(cache.contains(&(1, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchCache<K: Eq + Hash + Clone> {
    capacity_gb: f64,
    used_gb: f64,
    /// Key → (size, last-use stamp).
    entries: HashMap<K, (f64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> PrefetchCache<K> {
    /// Creates a cache with the given capacity in GB.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    pub fn new(capacity_gb: f64) -> Self {
        assert!(capacity_gb > 0.0, "cache capacity must be positive");
        Self {
            capacity_gb,
            used_gb: 0.0,
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Bytes currently cached, in GB.
    pub fn used_gb(&self) -> f64 {
        self.used_gb
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits recorded by [`PrefetchCache::lookup`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses recorded by [`PrefetchCache::lookup`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio in `[0, 1]` (0 before any lookup).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Membership check without touching recency or statistics.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Records an access: refreshes recency on hit, counts a miss
    /// otherwise. Returns whether it was a hit.
    pub fn lookup(&mut self, key: &K) -> bool {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(key) {
            entry.1 = self.clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts (or refreshes) an entry of `size_gb`, evicting the
    /// least-recently-used entries until it fits. An entry larger than
    /// the whole cache is rejected (returns `false`).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite size.
    pub fn insert(&mut self, key: K, size_gb: f64) -> bool {
        assert!(size_gb.is_finite() && size_gb >= 0.0, "entry size must be nonnegative");
        if size_gb > self.capacity_gb {
            return false;
        }
        self.clock += 1;
        if let Some((old, _)) = self.entries.remove(&key) {
            self.used_gb -= old;
        }
        while self.used_gb + size_gb > self.capacity_gb + 1e-12 {
            self.evict_lru();
        }
        self.entries.insert(key, (size_gb, self.clock));
        self.used_gb += size_gb;
        true
    }

    /// Evicts the least-recently-used entry, if any.
    pub fn evict_lru(&mut self) -> Option<K> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())?;
        if let Some((size, _)) = self.entries.remove(&victim) {
            self.used_gb -= size;
        }
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c: PrefetchCache<u32> = PrefetchCache::new(3.0);
        c.insert(1, 1.0);
        c.insert(2, 1.0);
        c.insert(3, 1.0);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.lookup(&1));
        c.insert(4, 1.0);
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
        assert!(c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn hit_ratio_accounting() {
        let mut c: PrefetchCache<u32> = PrefetchCache::new(2.0);
        c.insert(1, 1.0);
        assert!(c.lookup(&1));
        assert!(!c.lookup(&9));
        assert!(!c.lookup(&9));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reinserting_updates_size() {
        let mut c: PrefetchCache<u32> = PrefetchCache::new(2.0);
        c.insert(1, 1.5);
        c.insert(1, 0.5); // shrink in place
        assert!((c.used_gb() - 0.5).abs() < 1e-12);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c: PrefetchCache<u32> = PrefetchCache::new(1.0);
        assert!(!c.insert(1, 2.0));
        assert!(c.is_empty());
    }

    #[test]
    fn policy_full_exposes_everything_remaining() {
        let p = PrefetchPolicy::Full;
        assert_eq!(p.available_chunks(100, 40, 5), 60);
        assert_eq!(p.available_chunks(10, 50, 5), 0);
    }

    #[test]
    fn policy_window_caps_lookahead() {
        let p = PrefetchPolicy::Window { chunks: 30 };
        assert_eq!(p.available_chunks(1000, 0, 5), 30);
        assert_eq!(p.available_chunks(20, 5, 5), 15);
    }

    #[test]
    fn policy_popularity_boosts_and_caps() {
        let p = PrefetchPolicy::PopularityBoosted;
        assert_eq!(p.available_chunks(1000, 0, 50), 8); // no boost yet
        assert_eq!(p.available_chunks(1000, 0, 250), 16); // +2 × 4
        assert_eq!(p.available_chunks(1000, 0, 100_000), 30); // capped
        assert_eq!(p.available_chunks(12, 0, 100_000), 12); // what was produced
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _: PrefetchCache<u32> = PrefetchCache::new(0.0);
    }
}
