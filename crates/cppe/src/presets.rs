//! Named policy configurations used throughout the evaluation.
//!
//! Each [`PolicyPreset`] is one bar/series in the paper's figures; the
//! harness sweeps over these. [`PolicyPreset::build`] constructs a fresh
//! [`PolicyEngine`] (policies are stateful, so each run gets its own).

use crate::engine::PolicyEngine;
use crate::evict::clock::ClockPolicy;
use crate::evict::hpe::HpePolicy;
use crate::evict::lru::LruPolicy;
use crate::evict::mhpe::{MhpeConfig, MhpePolicy};
use crate::evict::random::RandomPolicy;
use crate::evict::reserved_lru::ReservedLruPolicy;
use crate::evict::rrip::SrripPolicy;
use crate::prefetch::pattern::{DeletionScheme, PatternAwarePrefetcher};
use crate::prefetch::sequential::SequentialLocalPrefetcher;
use crate::prefetch::tree::TreeNeighborhoodPrefetcher;
use crate::prefetch::NonePrefetcher;

/// Every preset without a parameter, in declaration order.
const FIXED: [PolicyPreset; 15] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru10,
    PolicyPreset::ReservedLru20,
    PolicyPreset::DisablePfOnFull,
    PolicyPreset::Cppe,
    PolicyPreset::CppeScheme1,
    PolicyPreset::MhpeOnly,
    PolicyPreset::HpeNaive,
    PolicyPreset::HpeNoPf,
    PolicyPreset::LruNoPf,
    PolicyPreset::LruTree,
    PolicyPreset::MhpeNoSwitch,
    PolicyPreset::Clock,
    PolicyPreset::Srrip,
];

/// The policy combinations evaluated in the paper (plus extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyPreset {
    /// State-of-the-art baseline: LRU pre-eviction + naïve sequential-
    /// local prefetcher (Figs. 8–10 normalize to this).
    Baseline,
    /// Random eviction + naïve prefetcher (Figs. 3, 9).
    Random,
    /// Reserved LRU, top 10 % protected, + naïve prefetcher.
    ReservedLru10,
    /// Reserved LRU, top 20 % protected, + naïve prefetcher.
    ReservedLru20,
    /// LRU + prefetcher disabled once memory fills (Figs. 4, 10).
    DisablePfOnFull,
    /// CPPE = MHPE + pattern-aware prefetcher, Scheme-2 (the default).
    Cppe,
    /// CPPE with deletion Scheme-1 (Fig. 7 comparison).
    CppeScheme1,
    /// MHPE + naïve prefetcher (ablation: eviction policy alone).
    MhpeOnly,
    /// HPE + naïve prefetcher (motivation: counter pollution).
    HpeNaive,
    /// HPE without prefetching (HPE as originally published).
    HpeNoPf,
    /// LRU without prefetching.
    LruNoPf,
    /// LRU + tree-neighbourhood prefetcher (extension/ablation).
    LruTree,
    /// MHPE with a pinned forward distance and switching left on
    /// (`mhpe-fd{N}`). Not the §IV-B sweep's engine: that sweep also
    /// disables switching and builds its engine itself.
    MhpeFixedFd(usize),
    /// MHPE with a custom T3 limit (sensitivity, §VI-A).
    MhpeT3(usize),
    /// MHPE pinned to MRU with switching disabled (Tables III/IV data
    /// collection).
    MhpeNoSwitch,
    /// CLOCK (second chance) + naïve prefetcher (extension baseline).
    Clock,
    /// Chunk-level SRRIP + naïve prefetcher (extension baseline; the
    /// paper cites RRIP as the CPU-cache answer to thrashing).
    Srrip,
}

impl PolicyPreset {
    /// Human-readable name matching the paper's figure labels.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicyPreset::Baseline => "baseline".into(),
            PolicyPreset::Random => "random".into(),
            PolicyPreset::ReservedLru10 => "lru-10%".into(),
            PolicyPreset::ReservedLru20 => "lru-20%".into(),
            PolicyPreset::DisablePfOnFull => "nopf-on-full".into(),
            PolicyPreset::Cppe => "cppe".into(),
            PolicyPreset::CppeScheme1 => "cppe-s1".into(),
            PolicyPreset::MhpeOnly => "mhpe-naive-pf".into(),
            PolicyPreset::HpeNaive => "hpe-naive-pf".into(),
            PolicyPreset::HpeNoPf => "hpe-nopf".into(),
            PolicyPreset::LruNoPf => "lru-nopf".into(),
            PolicyPreset::LruTree => "lru-tree".into(),
            PolicyPreset::MhpeFixedFd(fd) => format!("mhpe-fd{fd}"),
            PolicyPreset::MhpeT3(t3) => format!("mhpe-t3-{t3}"),
            PolicyPreset::MhpeNoSwitch => "mhpe-noswitch".into(),
            PolicyPreset::Clock => "clock".into(),
            PolicyPreset::Srrip => "srrip".into(),
        }
    }

    /// Parse a policy name back into its preset: every [`label`]
    /// (including `mhpe-fd{N}` and `mhpe-t3-{N}`) plus the short aliases
    /// `lru-10`, `lru-20`, `nopf`, `mhpe`, `hpe` and `tree`.
    ///
    /// [`label`]: PolicyPreset::label
    #[must_use]
    pub fn parse(name: &str) -> Option<PolicyPreset> {
        if let Some(fd) = name.strip_prefix("mhpe-fd") {
            return fd.parse().ok().map(PolicyPreset::MhpeFixedFd);
        }
        if let Some(t3) = name.strip_prefix("mhpe-t3-") {
            return t3.parse().ok().map(PolicyPreset::MhpeT3);
        }
        Some(match name {
            "lru-10" => PolicyPreset::ReservedLru10,
            "lru-20" => PolicyPreset::ReservedLru20,
            "nopf" => PolicyPreset::DisablePfOnFull,
            "mhpe" => PolicyPreset::MhpeOnly,
            "hpe" => PolicyPreset::HpeNaive,
            "tree" => PolicyPreset::LruTree,
            _ => return FIXED.into_iter().find(|p| p.label() == name),
        })
    }

    /// Build a fresh engine for this preset. `seed` feeds the Random
    /// policy (ignored by deterministic policies).
    #[must_use]
    pub fn build(&self, seed: u64) -> PolicyEngine {
        match self {
            PolicyPreset::Baseline => PolicyEngine::new(
                Box::new(LruPolicy::new()),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::Random => PolicyEngine::new(
                Box::new(RandomPolicy::new(seed)),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::ReservedLru10 => PolicyEngine::new(
                Box::new(ReservedLruPolicy::new(10)),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::ReservedLru20 => PolicyEngine::new(
                Box::new(ReservedLruPolicy::new(20)),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::DisablePfOnFull => PolicyEngine::new(
                Box::new(LruPolicy::new()),
                Box::new(SequentialLocalPrefetcher::disable_on_full()),
            ),
            PolicyPreset::Cppe => PolicyEngine::new(
                Box::new(MhpePolicy::new()),
                Box::new(PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme2)),
            ),
            PolicyPreset::CppeScheme1 => PolicyEngine::new(
                Box::new(MhpePolicy::new()),
                Box::new(PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme1)),
            ),
            PolicyPreset::MhpeOnly => PolicyEngine::new(
                Box::new(MhpePolicy::new()),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::HpeNaive => PolicyEngine::new(
                Box::new(HpePolicy::new()),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::HpeNoPf => {
                PolicyEngine::new(Box::new(HpePolicy::new()), Box::new(NonePrefetcher::new()))
            }
            PolicyPreset::LruNoPf => {
                PolicyEngine::new(Box::new(LruPolicy::new()), Box::new(NonePrefetcher::new()))
            }
            PolicyPreset::LruTree => PolicyEngine::new(
                Box::new(LruPolicy::new()),
                Box::new(TreeNeighborhoodPrefetcher::new()),
            ),
            PolicyPreset::MhpeFixedFd(fd) => PolicyEngine::new(
                Box::new(MhpePolicy::with_config(MhpeConfig {
                    fixed_fd: Some(*fd),
                    ..MhpeConfig::default()
                })),
                Box::new(PatternAwarePrefetcher::new()),
            ),
            PolicyPreset::MhpeT3(t3) => PolicyEngine::new(
                Box::new(MhpePolicy::with_config(MhpeConfig {
                    t3: *t3,
                    ..MhpeConfig::default()
                })),
                Box::new(PatternAwarePrefetcher::new()),
            ),
            PolicyPreset::MhpeNoSwitch => PolicyEngine::new(
                Box::new(MhpePolicy::with_config(MhpeConfig {
                    disable_switch: true,
                    ..MhpeConfig::default()
                })),
                Box::new(PatternAwarePrefetcher::new()),
            ),
            PolicyPreset::Clock => PolicyEngine::new(
                Box::new(ClockPolicy::new()),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
            PolicyPreset::Srrip => PolicyEngine::new(
                Box::new(SrripPolicy::new()),
                Box::new(SequentialLocalPrefetcher::naive()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_preset() -> Vec<PolicyPreset> {
        let mut all = FIXED.to_vec();
        all.extend([PolicyPreset::MhpeFixedFd(5), PolicyPreset::MhpeT3(24)]);
        all
    }

    #[test]
    fn every_preset_builds() {
        for p in every_preset() {
            let e = p.build(42);
            assert!(!e.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn every_label_parses_back() {
        for p in every_preset() {
            assert_eq!(PolicyPreset::parse(&p.label()), Some(p), "{}", p.label());
        }
        assert_eq!(PolicyPreset::parse("bogus"), None);
        assert_eq!(PolicyPreset::parse("mhpe-fd"), None);
    }

    #[test]
    fn short_aliases_parse() {
        for (alias, p) in [
            ("lru-10", PolicyPreset::ReservedLru10),
            ("lru-20", PolicyPreset::ReservedLru20),
            ("nopf", PolicyPreset::DisablePfOnFull),
            ("mhpe", PolicyPreset::MhpeOnly),
            ("hpe", PolicyPreset::HpeNaive),
            ("tree", PolicyPreset::LruTree),
        ] {
            assert_eq!(PolicyPreset::parse(alias), Some(p), "{alias}");
        }
    }

    #[test]
    fn baseline_matches_paper_description() {
        let e = PolicyPreset::Baseline.build(0);
        assert_eq!(e.name(), "lru+seq-local");
    }

    #[test]
    fn cppe_is_mhpe_plus_pattern_aware() {
        let e = PolicyPreset::Cppe.build(0);
        assert_eq!(e.name(), "mhpe+pattern-aware-s2");
        let e1 = PolicyPreset::CppeScheme1.build(0);
        assert_eq!(e1.name(), "mhpe+pattern-aware-s1");
    }

    #[test]
    fn parameterized_labels() {
        assert_eq!(PolicyPreset::MhpeFixedFd(7).label(), "mhpe-fd7");
        assert_eq!(PolicyPreset::MhpeT3(28).label(), "mhpe-t3-28");
    }
}
