//! Shared page-walk cache (PWC).
//!
//! Table I: "16-way 8KB, 10-cycle latency". The PWC caches intermediate
//! page-table nodes (levels 2–4); a hit at level *k* lets the walker skip
//! the memory references for levels ≥ *k*. With 8-byte entries, 8 KB
//! gives 1024 entries in 64 sets of 16 ways.
//!
//! Like [`crate::tlb::Tlb`], probes run on [`IndexedSets`] instead of a
//! per-set scan. The PWC sits on the hot path of every L2-TLB miss —
//! each walk costs one lookup plus up to three inserts, each of which
//! used to scan a 16-way set. Replacement stays exact true LRU
//! (bit-identical to the seed's min-stamp scan; see the equivalence
//! test against `legacy::ScanWalkCache`).

use crate::assoc::{mix64, IndexKey, IndexedSets};
use crate::page_table::NodeId;
use sim_core::stats::Counter;

impl IndexKey for NodeId {
    #[inline]
    fn index_hash(self) -> u64 {
        // Fold level into the prefix above any realistic VPN bits so
        // different levels of the same prefix never alias in the index.
        mix64(self.prefix ^ (u64::from(self.level) << 56))
    }
}

/// Set-associative cache over [`NodeId`]s with true-LRU replacement.
#[derive(Debug)]
pub struct WalkCache {
    sets: IndexedSets<NodeId, ()>,
    n_sets: usize,
    hit_latency: u64,
    /// Probe hits.
    pub hits: Counter,
    /// Probe misses.
    pub misses: Counter,
}

impl WalkCache {
    /// Table I geometry: 8 KB / 8 B = 1024 entries, 16-way, 10-cycle.
    #[must_use]
    pub fn table1_default() -> Self {
        Self::new(1024, 16, 10)
    }

    /// Build a PWC with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    /// Panics on degenerate geometry.
    #[must_use]
    pub fn new(entries: usize, assoc: usize, hit_latency: u64) -> Self {
        assert!(entries > 0 && assoc > 0 && entries.is_multiple_of(assoc));
        let n_sets = entries / assoc;
        WalkCache {
            sets: IndexedSets::new(n_sets, assoc),
            n_sets,
            hit_latency,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    #[inline]
    fn set_index(&self, node: NodeId) -> usize {
        // Mix level into the index so different levels of the same prefix
        // do not collide systematically.
        ((node.prefix ^ (u64::from(node.level) << 61)) % self.n_sets as u64) as usize
    }

    /// Probe for `node`, updating LRU and counters.
    #[inline]
    pub fn lookup(&mut self, node: NodeId) -> bool {
        if self.sets.get(node).is_some() {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// Fill `node` after a walk fetched it from memory.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.sets.insert(self.set_index(node), node, ());
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }
}

/// The seed's scan-based PWC, kept as the oracle for the equivalence
/// model test.
#[cfg(test)]
pub mod legacy {
    use crate::page_table::NodeId;
    use sim_core::stats::Counter;

    /// Scan-probed set-associative node cache (pre-fast-lane structure).
    #[derive(Debug)]
    pub struct ScanWalkCache {
        sets: Vec<Vec<(NodeId, u64)>>,
        n_sets: usize,
        assoc: usize,
        hit_latency: u64,
        tick: u64,
        /// Probe hits.
        pub hits: Counter,
        /// Probe misses.
        pub misses: Counter,
    }

    impl ScanWalkCache {
        /// Build a PWC with `entries` total entries and `assoc` ways.
        ///
        /// # Panics
        /// Panics on degenerate geometry.
        #[must_use]
        pub fn new(entries: usize, assoc: usize, hit_latency: u64) -> Self {
            assert!(entries > 0 && assoc > 0 && entries.is_multiple_of(assoc));
            let n_sets = entries / assoc;
            ScanWalkCache {
                sets: (0..n_sets).map(|_| Vec::with_capacity(assoc)).collect(),
                n_sets,
                assoc,
                hit_latency,
                tick: 0,
                hits: Counter::default(),
                misses: Counter::default(),
            }
        }

        #[inline]
        fn set_index(&self, node: NodeId) -> usize {
            ((node.prefix ^ (u64::from(node.level) << 61)) % self.n_sets as u64) as usize
        }

        /// Probe for `node`, updating LRU and counters.
        pub fn lookup(&mut self, node: NodeId) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(node);
            if let Some(way) = self.sets[set].iter_mut().find(|(n, _)| *n == node) {
                way.1 = tick;
                self.hits.inc();
                true
            } else {
                self.misses.inc();
                false
            }
        }

        /// Fill `node` after a walk fetched it from memory.
        pub fn insert(&mut self, node: NodeId) {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(node);
            let assoc = self.assoc;
            let ways = &mut self.sets[set];
            if let Some(way) = ways.iter_mut().find(|(n, _)| *n == node) {
                way.1 = tick;
                return;
            }
            if ways.len() == assoc {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(i, _)| i)
                    .expect("full set");
                ways.swap_remove(lru);
            }
            ways.push((node, tick));
        }

        /// Hit latency in cycles.
        #[must_use]
        pub fn hit_latency(&self) -> u64 {
            self.hit_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::node_for;
    use crate::types::VirtPage;

    #[test]
    fn miss_insert_hit() {
        let mut pwc = WalkCache::new(8, 2, 10);
        let n = node_for(VirtPage(0), 2);
        assert!(!pwc.lookup(n));
        pwc.insert(n);
        assert!(pwc.lookup(n));
        assert_eq!(pwc.hits.get(), 1);
        assert_eq!(pwc.misses.get(), 1);
    }

    #[test]
    fn lru_within_set() {
        let mut pwc = WalkCache::new(2, 2, 10); // single set, 2 ways
        let a = node_for(VirtPage(0), 2);
        let b = node_for(VirtPage(512), 2);
        let c = node_for(VirtPage(1024), 2);
        pwc.insert(a);
        pwc.insert(b);
        pwc.lookup(a); // b becomes LRU
        pwc.insert(c); // evicts b
        assert!(pwc.lookup(a));
        assert!(!pwc.lookup(b));
        assert!(pwc.lookup(c));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut pwc = WalkCache::new(2, 2, 10);
        let a = node_for(VirtPage(0), 2);
        pwc.insert(a);
        pwc.insert(a);
        let b = node_for(VirtPage(512), 2);
        let c = node_for(VirtPage(1024), 2);
        pwc.insert(b);
        pwc.insert(c); // must evict exactly one of a/b, not find a dup
        let present = [a, b, c].iter().filter(|&&n| pwc.lookup(n)).count();
        assert_eq!(present, 2);
    }

    #[test]
    fn default_geometry() {
        let pwc = WalkCache::table1_default();
        assert_eq!(pwc.hit_latency(), 10);
    }

    #[test]
    fn levels_do_not_alias() {
        let mut pwc = WalkCache::new(1024, 16, 10);
        let l2 = node_for(VirtPage(0), 2);
        let l3 = node_for(VirtPage(0), 3);
        pwc.insert(l2);
        assert!(!pwc.lookup(l3), "level-3 node must not hit on level-2 fill");
    }

    /// Random walk-shaped op streams through both implementations must
    /// agree on every probe result and counter — the PWC half of the
    /// bit-identity contract.
    #[test]
    fn indexed_pwc_matches_scan_pwc_on_random_ops() {
        let mut new = WalkCache::new(64, 16, 10); // 4 sets → heavy churn
        let mut old = legacy::ScanWalkCache::new(64, 16, 10);
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let node = node_for(VirtPage((x % 4096) << 9), 2 + (x >> 32) as u32 % 3);
            if (x >> 8).is_multiple_of(2) {
                assert_eq!(
                    new.lookup(node),
                    old.lookup(node),
                    "lookup({node:?}) at step {step}"
                );
            } else {
                new.insert(node);
                old.insert(node);
            }
        }
        assert_eq!(new.hits.get(), old.hits.get());
        assert_eq!(new.misses.get(), old.misses.get());
        assert!(new.hits.get() > 1000, "model test never hit");
    }
}
