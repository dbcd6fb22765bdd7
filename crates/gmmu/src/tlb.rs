//! Set-associative, LRU-replacement TLB.
//!
//! One structure serves both levels of the paper's hierarchy:
//! * per-SM private L1 TLB — 128 entries, 1-cycle hit latency,
//! * shared L2 TLB — 512 entries, 16-way, 10-cycle hit latency.
//!
//! Entries map a [`VirtPage`] to its [`Frame`]. Evicting a page from GPU
//! memory must shoot the translation down from every TLB, which the
//! `uvm` driver does through [`Tlb::invalidate`].
//!
//! Probes and replacement run on [`IndexedSets`]: an open-addressed
//! key → slot index plus per-set intrusive LRU lists, so a lookup is a
//! couple of index probes instead of a scan over every filled way and
//! the replacement victim is the list tail instead of a min-stamp scan.
//! For the fully-associative 128-entry L1 that turns up to three
//! 128-way scans per access (miss probe, insert existence check, victim
//! search) into O(1) work. Replacement behaviour is exactly the seed's
//! true-LRU — `legacy::ScanTlb` keeps the scan implementation alive and
//! a model test drives both through random op streams to prove every
//! hit, miss and victim choice identical.

use crate::assoc::{mix64, IndexKey, IndexedSets};
use crate::types::{Frame, VirtPage};
use sim_core::stats::Counter;

impl IndexKey for VirtPage {
    #[inline]
    fn index_hash(self) -> u64 {
        mix64(self.0)
    }
}

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set (`entries` for fully associative).
    pub associativity: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl TlbConfig {
    /// Table I per-SM L1 TLB: 128 entries, single port, 1-cycle, LRU.
    /// Associativity is unspecified in the paper; we model it fully
    /// associative, which is common for small first-level TLBs.
    #[must_use]
    pub fn l1_default() -> Self {
        TlbConfig {
            entries: 128,
            associativity: 128,
            hit_latency: 1,
        }
    }

    /// Table I shared L2 TLB: 512 entries, 16-way, 10-cycle, LRU.
    #[must_use]
    pub fn l2_default() -> Self {
        TlbConfig {
            entries: 512,
            associativity: 16,
            hit_latency: 10,
        }
    }
}

/// A set-associative TLB with true-LRU replacement.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: IndexedSets<VirtPage, Frame>,
    n_sets: usize,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
}

impl Tlb {
    /// Build a TLB from `cfg`.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero entries, or entries not
    /// divisible by associativity).
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.associativity > 0);
        assert!(
            cfg.entries.is_multiple_of(cfg.associativity),
            "entries {} not divisible by associativity {}",
            cfg.entries,
            cfg.associativity
        );
        let n_sets = cfg.entries / cfg.associativity;
        Tlb {
            cfg,
            sets: IndexedSets::new(n_sets, cfg.associativity),
            n_sets,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    #[inline]
    fn set_index(&self, page: VirtPage) -> usize {
        (page.0 % self.n_sets as u64) as usize
    }

    /// Look up `page`, updating LRU state and hit/miss counters.
    /// Returns the cached frame on a hit.
    #[inline]
    pub fn lookup(&mut self, page: VirtPage) -> Option<Frame> {
        if let Some(frame) = self.sets.get(page) {
            self.hits.inc();
            Some(frame)
        } else {
            self.misses.inc();
            None
        }
    }

    /// Peek without touching LRU state or counters (used by tests and
    /// by coherence assertions in the `gpu` crate).
    #[must_use]
    pub fn probe(&self, page: VirtPage) -> Option<Frame> {
        self.sets.peek(page)
    }

    /// Install (or refresh) a translation, evicting the set's LRU way if
    /// the set is full. Returns the victim translation, if any.
    #[inline]
    pub fn insert(&mut self, page: VirtPage, frame: Frame) -> Option<(VirtPage, Frame)> {
        self.sets.insert(self.set_index(page), page, frame)
    }

    /// Shoot down the translation for `page`. Returns true if present.
    pub fn invalidate(&mut self, page: VirtPage) -> bool {
        self.sets.remove(page)
    }

    /// Drop every translation (generation bump — the index is not
    /// walked).
    pub fn flush(&mut self) {
        self.sets.clear();
    }

    /// Hit latency from the config.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.occupancy()
    }
}

/// The seed's scan-based TLB, kept as the oracle for the equivalence
/// model test below. Same observable semantics as [`Tlb`]: true LRU by
/// monotone use stamp.
#[cfg(test)]
pub mod legacy {
    use super::TlbConfig;
    use crate::types::{Frame, VirtPage};
    use sim_core::stats::Counter;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        page: VirtPage,
        frame: Frame,
        /// Monotone use stamp for LRU (larger = more recent).
        stamp: u64,
    }

    const EMPTY_WAY: Way = Way {
        page: VirtPage(u64::MAX),
        frame: Frame(0),
        stamp: 0,
    };

    /// Scan-probed set-associative TLB (the pre-fast-lane structure).
    #[derive(Debug)]
    pub struct ScanTlb {
        cfg: TlbConfig,
        /// Flat way storage: set `s` occupies
        /// `ways[s*assoc .. s*assoc+lens[s]]`.
        ways: Vec<Way>,
        /// Filled ways per set.
        lens: Vec<u32>,
        n_sets: usize,
        tick: u64,
        /// Lookup hits.
        pub hits: Counter,
        /// Lookup misses.
        pub misses: Counter,
    }

    impl ScanTlb {
        /// Build a TLB from `cfg`.
        ///
        /// # Panics
        /// Panics on degenerate geometry.
        #[must_use]
        pub fn new(cfg: TlbConfig) -> Self {
            assert!(cfg.entries > 0 && cfg.associativity > 0);
            assert!(cfg.entries.is_multiple_of(cfg.associativity));
            let n_sets = cfg.entries / cfg.associativity;
            ScanTlb {
                cfg,
                ways: vec![EMPTY_WAY; cfg.entries],
                lens: vec![0; n_sets],
                n_sets,
                tick: 0,
                hits: Counter::default(),
                misses: Counter::default(),
            }
        }

        #[inline]
        fn set_index(&self, page: VirtPage) -> usize {
            (page.0 % self.n_sets as u64) as usize
        }

        /// Look up `page`, updating LRU state and counters.
        pub fn lookup(&mut self, page: VirtPage) -> Option<Frame> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            let filled = &mut self.ways[base..base + self.lens[set] as usize];
            if let Some(way) = filled.iter_mut().find(|w| w.page == page) {
                way.stamp = tick;
                self.hits.inc();
                Some(way.frame)
            } else {
                self.misses.inc();
                None
            }
        }

        /// Peek without touching LRU state or counters.
        #[must_use]
        pub fn probe(&self, page: VirtPage) -> Option<Frame> {
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            self.ways[base..base + self.lens[set] as usize]
                .iter()
                .find(|w| w.page == page)
                .map(|w| w.frame)
        }

        /// Install or refresh, evicting the min-stamp way of a full set.
        pub fn insert(&mut self, page: VirtPage, frame: Frame) -> Option<(VirtPage, Frame)> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(page);
            let assoc = self.cfg.associativity;
            let base = set * assoc;
            let len = self.lens[set] as usize;
            let filled = &mut self.ways[base..base + len];
            if let Some(way) = filled.iter_mut().find(|w| w.page == page) {
                way.frame = frame;
                way.stamp = tick;
                return None;
            }
            let mut victim = None;
            let mut slot = len;
            if len == assoc {
                let lru = filled
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .expect("full set has ways");
                let w = filled[lru];
                victim = Some((w.page, w.frame));
                slot = lru;
            } else {
                self.lens[set] += 1;
            }
            self.ways[base + slot] = Way {
                page,
                frame,
                stamp: tick,
            };
            victim
        }

        /// Shoot down `page`'s translation. Returns true if present.
        pub fn invalidate(&mut self, page: VirtPage) -> bool {
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            let len = self.lens[set] as usize;
            let filled = &mut self.ways[base..base + len];
            if let Some(pos) = filled.iter().position(|w| w.page == page) {
                filled[pos] = filled[len - 1];
                self.ways[base + len - 1] = EMPTY_WAY;
                self.lens[set] -= 1;
                true
            } else {
                false
            }
        }

        /// Drop every translation.
        pub fn flush(&mut self) {
            self.ways.fill(EMPTY_WAY);
            self.lens.fill(0);
        }

        /// Number of currently valid entries.
        #[must_use]
        pub fn occupancy(&self) -> usize {
            self.lens.iter().map(|&l| l as usize).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        // 4 entries, 2-way → 2 sets.
        Tlb::new(TlbConfig {
            entries: 4,
            associativity: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert_eq!(t.lookup(VirtPage(0)), None);
        t.insert(VirtPage(0), Frame(9));
        assert_eq!(t.lookup(VirtPage(0)), Some(Frame(9)));
        assert_eq!(t.hits.get(), 1);
        assert_eq!(t.misses.get(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny();
        // Pages 0, 2, 4 all map to set 0 (page % 2 == 0).
        t.insert(VirtPage(0), Frame(0));
        t.insert(VirtPage(2), Frame(2));
        t.lookup(VirtPage(0)); // make page 2 the LRU way
        let victim = t.insert(VirtPage(4), Frame(4));
        assert_eq!(victim, Some((VirtPage(2), Frame(2))));
        assert!(t.probe(VirtPage(0)).is_some());
        assert!(t.probe(VirtPage(2)).is_none());
        assert!(t.probe(VirtPage(4)).is_some());
    }

    #[test]
    fn insert_refresh_does_not_evict() {
        let mut t = tiny();
        t.insert(VirtPage(0), Frame(0));
        t.insert(VirtPage(2), Frame(2));
        assert_eq!(t.insert(VirtPage(0), Frame(7)), None);
        assert_eq!(t.probe(VirtPage(0)), Some(Frame(7)));
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn invalidate_removes() {
        let mut t = tiny();
        t.insert(VirtPage(5), Frame(1));
        assert!(t.invalidate(VirtPage(5)));
        assert!(!t.invalidate(VirtPage(5)));
        assert_eq!(t.lookup(VirtPage(5)), None);
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = tiny();
        for i in 0..4 {
            t.insert(VirtPage(i), Frame(i as u32));
        }
        assert_eq!(t.occupancy(), 4);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        for i in 0..4 {
            assert_eq!(t.probe(VirtPage(i)), None);
        }
    }

    #[test]
    fn sets_are_independent() {
        let mut t = tiny();
        // Fill set 0 beyond capacity; set 1 entries must survive.
        t.insert(VirtPage(1), Frame(100)); // set 1
        for i in 0..10u64 {
            t.insert(VirtPage(i * 2), Frame(i as u32)); // set 0
        }
        assert_eq!(t.probe(VirtPage(1)), Some(Frame(100)));
    }

    #[test]
    fn probe_does_not_count() {
        let mut t = tiny();
        t.insert(VirtPage(0), Frame(0));
        let _ = t.probe(VirtPage(0));
        let _ = t.probe(VirtPage(1));
        assert_eq!(t.hits.get(), 0);
        assert_eq!(t.misses.get(), 0);
    }

    #[test]
    fn default_geometries_construct() {
        let l1 = Tlb::new(TlbConfig::l1_default());
        let l2 = Tlb::new(TlbConfig::l2_default());
        assert_eq!(l1.hit_latency(), 1);
        assert_eq!(l2.hit_latency(), 10);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 10,
            associativity: 3,
            hit_latency: 1,
        });
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut t = tiny();
        for i in 0..100u64 {
            t.insert(VirtPage(i), Frame(i as u32));
        }
        assert!(t.occupancy() <= 4);
    }

    #[test]
    fn victim_slot_reuse_keeps_set_consistent() {
        // Replacement writes the new way into the victim's slot; every
        // surviving way must remain probeable afterwards.
        let mut t = tiny();
        t.insert(VirtPage(0), Frame(0));
        t.insert(VirtPage(2), Frame(2));
        t.lookup(VirtPage(2)); // page 0 becomes LRU
        let victim = t.insert(VirtPage(4), Frame(4));
        assert_eq!(victim, Some((VirtPage(0), Frame(0))));
        assert_eq!(t.probe(VirtPage(2)), Some(Frame(2)));
        assert_eq!(t.probe(VirtPage(4)), Some(Frame(4)));
        assert_eq!(t.occupancy(), 2);
    }

    /// Model-based equivalence with the seed's scan implementation:
    /// millions of random lookup/insert/invalidate/flush ops over both
    /// the fully-associative L1 geometry and the 16-way L2 geometry
    /// must agree on every result, victim and counter. This is the
    /// local half of the bit-identity contract (the golden fingerprints
    /// in `tests/perf_identity.rs` are the end-to-end half).
    #[test]
    fn indexed_tlb_matches_scan_tlb_on_random_ops() {
        for cfg in [
            TlbConfig {
                entries: 16,
                associativity: 16,
                hit_latency: 1,
            },
            TlbConfig {
                entries: 32,
                associativity: 4,
                hit_latency: 10,
            },
        ] {
            let mut new = Tlb::new(cfg);
            let mut old = legacy::ScanTlb::new(cfg);
            let mut x: u64 = 0x1357_9BDF_2468_ACE0 ^ cfg.associativity as u64;
            for step in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = VirtPage(x % 48); // ~3× capacity → constant churn
                match (x >> 8) % 16 {
                    0..=5 => {
                        assert_eq!(
                            new.lookup(page),
                            old.lookup(page),
                            "lookup({page:?}) at step {step}"
                        );
                    }
                    6..=11 => {
                        assert_eq!(
                            new.insert(page, Frame((x >> 16) as u32)),
                            old.insert(page, Frame((x >> 16) as u32)),
                            "insert({page:?}) victim at step {step}"
                        );
                    }
                    12 | 13 => {
                        assert_eq!(
                            new.invalidate(page),
                            old.invalidate(page),
                            "invalidate({page:?}) at step {step}"
                        );
                    }
                    14 => {
                        assert_eq!(new.probe(page), old.probe(page));
                    }
                    _ => {
                        if (x >> 24).is_multiple_of(64) {
                            new.flush();
                            old.flush();
                        }
                    }
                }
                assert_eq!(new.occupancy(), old.occupancy(), "occupancy at {step}");
            }
            assert_eq!(new.hits.get(), old.hits.get());
            assert_eq!(new.misses.get(), old.misses.get());
            assert!(new.hits.get() > 1000, "model test never hit");
        }
    }
}
