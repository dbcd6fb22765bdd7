//! Latency attribution: from raw span records to "where did the time
//! go".
//!
//! [`LatencyAttribution::from_spans`] folds a run's span set into
//! per-stage latency distributions (count / total / mean / p50 / p95 /
//! p99 / max, via [`sim_core::stats::Histogram`]), a queueing-vs-service
//! decomposition per contended resource, and fault-time totals per SM
//! and per page region — the three views the paper's 20 µs far-fault
//! budget breaks down into. The harness renders these as report tables;
//! `cppe profile` exports them as `BENCH_profile.json`.

use crate::span::{SpanRecord, SpanStage};
use sim_core::stats::Histogram;
use std::collections::BTreeMap;

/// Pages per attribution region, as a power of two. 64 pages = 256 KiB
/// with 4 KiB pages — coarse enough to group hot data structures,
/// fine enough to separate them.
pub const REGION_PAGES_LOG2: u32 = 6;

/// Latency distribution of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// The stage.
    pub stage: SpanStage,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations (cycles).
    pub total_cycles: u64,
    /// Mean duration (cycles).
    pub mean: f64,
    /// Median duration (nearest-rank).
    pub p50: u64,
    /// 95th percentile duration.
    pub p95: u64,
    /// 99th percentile duration.
    pub p99: u64,
    /// Largest duration.
    pub max: u64,
}

/// Queueing vs. service decomposition for one contended resource.
#[derive(Debug, Clone, Copy)]
pub struct QueueServiceSplit {
    /// The waiting stage.
    pub queue: SpanStage,
    /// The working stage that drains it.
    pub service: SpanStage,
    /// Total cycles spent queueing.
    pub queue_cycles: u64,
    /// Total cycles spent in service.
    pub service_cycles: u64,
}

impl QueueServiceSplit {
    /// Fraction of the resource's total time spent queueing
    /// (0.0 when the resource was never used).
    #[must_use]
    pub fn queue_fraction(&self) -> f64 {
        let total = self.queue_cycles + self.service_cycles;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.queue_cycles as f64 / total as f64
            }
        }
    }
}

/// Fault-latency total attributed to one key (an SM or a page region).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttributedTotal {
    /// The SM index or region index.
    pub key: u64,
    /// Faults whose lifecycle completed under this key.
    pub faults: u64,
    /// Sum of their end-to-end latencies (cycles).
    pub total_cycles: u64,
}

/// The folded view of a run's spans.
#[derive(Debug, Clone, Default)]
pub struct LatencyAttribution {
    /// Per-stage summaries, in [`SpanStage::ALL`] order; stages with no
    /// spans are omitted.
    pub stages: Vec<StageSummary>,
    /// Queueing vs. service per contended resource (walker, driver
    /// fault queue, PCIe retry path), resources with no spans omitted.
    pub splits: Vec<QueueServiceSplit>,
    /// End-to-end fault time per SM, ascending SM index.
    pub per_sm: Vec<AttributedTotal>,
    /// End-to-end fault time per page region
    /// (`page >> REGION_PAGES_LOG2`), ascending region index.
    pub per_region: Vec<AttributedTotal>,
}

impl LatencyAttribution {
    /// Fold `spans` into the attribution views.
    #[must_use]
    pub fn from_spans(spans: &[SpanRecord]) -> Self {
        let mut hists: BTreeMap<SpanStage, Histogram> = BTreeMap::new();
        let mut per_sm: BTreeMap<u64, AttributedTotal> = BTreeMap::new();
        let mut per_region: BTreeMap<u64, AttributedTotal> = BTreeMap::new();
        for s in spans {
            hists.entry(s.stage).or_default().record(s.duration());
            if s.stage == SpanStage::FaultTotal {
                let region = s.page >> REGION_PAGES_LOG2;
                for (key, map) in [(u64::from(s.sm), &mut per_sm), (region, &mut per_region)] {
                    let t = map.entry(key).or_insert(AttributedTotal {
                        key,
                        faults: 0,
                        total_cycles: 0,
                    });
                    t.faults += 1;
                    t.total_cycles += s.duration();
                }
            }
        }

        let stages: Vec<StageSummary> = SpanStage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = hists.get(&stage)?;
                Some(StageSummary {
                    stage,
                    count: h.count(),
                    total_cycles: h.sum(),
                    mean: h.mean(),
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    max: h.max(),
                })
            })
            .collect();

        let total_of = |stage: SpanStage| hists.get(&stage).map_or(0, Histogram::sum);
        let present = |stage: SpanStage| hists.contains_key(&stage);
        let splits = [
            (SpanStage::WalkerQueue, SpanStage::PageWalk),
            (SpanStage::FaultQueueWait, SpanStage::BatchService),
            (SpanStage::RetryBackoff, SpanStage::PcieTransfer),
        ]
        .into_iter()
        .filter(|&(q, s)| present(q) || present(s))
        .map(|(queue, service)| QueueServiceSplit {
            queue,
            service,
            queue_cycles: total_of(queue),
            service_cycles: total_of(service),
        })
        .collect();

        LatencyAttribution {
            stages,
            splits,
            per_sm: per_sm.into_values().collect(),
            per_region: per_region.into_values().collect(),
        }
    }

    /// Summary of `stage`, if any span was recorded for it.
    #[must_use]
    pub fn stage(&self, stage: SpanStage) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, SpanRecorder};

    fn fault_tree(r: &mut SpanRecorder, sm: u16, lane: u32, page: u64, t0: u64) {
        let root = r.open(SpanStage::FaultTotal, t0, SpanId::NONE, sm, lane, page);
        r.complete(SpanStage::TlbL1, t0, t0 + 1, root, sm, lane, page);
        r.complete(
            SpanStage::WalkerQueue,
            t0 + 1,
            t0 + 51,
            root,
            sm,
            lane,
            page,
        );
        r.complete(SpanStage::PageWalk, t0 + 51, t0 + 101, root, sm, lane, page);
        r.complete(
            SpanStage::FaultQueueWait,
            t0 + 101,
            t0 + 201,
            root,
            sm,
            lane,
            page,
        );
        r.close(root, t0 + 301);
    }

    #[test]
    fn per_stage_summaries_and_quantiles() {
        let mut rec = SpanRecorder::new(64);
        for i in 0..10u64 {
            fault_tree(&mut rec, 0, i as u32, i, i * 1000);
        }
        let (spans, _, _) = rec.finish();
        let a = LatencyAttribution::from_spans(&spans);
        let total = a.stage(SpanStage::FaultTotal).unwrap();
        assert_eq!(total.count, 10);
        assert_eq!(total.p50, 301);
        assert_eq!(total.p99, 301);
        assert_eq!(total.max, 301);
        assert!(
            a.stage(SpanStage::Replay).is_none(),
            "absent stages omitted"
        );
    }

    #[test]
    fn queueing_vs_service_split() {
        let mut rec = SpanRecorder::new(64);
        fault_tree(&mut rec, 0, 0, 0, 0);
        let (spans, _, _) = rec.finish();
        let a = LatencyAttribution::from_spans(&spans);
        let walker = a
            .splits
            .iter()
            .find(|s| s.queue == SpanStage::WalkerQueue)
            .unwrap();
        assert_eq!(walker.queue_cycles, 50);
        assert_eq!(walker.service_cycles, 50);
        assert!((walker.queue_fraction() - 0.5).abs() < 1e-12);
        assert!(
            !a.splits.iter().any(|s| s.queue == SpanStage::RetryBackoff),
            "unused resources omitted"
        );
    }

    #[test]
    fn per_sm_and_per_region_totals() {
        let mut rec = SpanRecorder::new(64);
        fault_tree(&mut rec, 0, 0, 0, 0); // region 0
        fault_tree(&mut rec, 0, 1, 1, 5000); // region 0
        fault_tree(&mut rec, 3, 12, 64, 9000); // region 1
        let (spans, _, _) = rec.finish();
        let a = LatencyAttribution::from_spans(&spans);
        assert_eq!(a.per_sm.len(), 2);
        assert_eq!(
            a.per_sm[0],
            AttributedTotal {
                key: 0,
                faults: 2,
                total_cycles: 602
            }
        );
        assert_eq!(a.per_sm[1].key, 3);
        assert_eq!(a.per_region.len(), 2);
        assert_eq!(a.per_region[0].faults, 2, "pages 0 and 1 share region 0");
        assert_eq!(
            a.per_region[1],
            AttributedTotal {
                key: 1,
                faults: 1,
                total_cycles: 301
            }
        );
    }

    #[test]
    fn empty_spans_fold_to_empty_attribution() {
        let a = LatencyAttribution::from_spans(&[]);
        assert!(a.stages.is_empty());
        assert!(a.splits.is_empty());
        assert!(a.per_sm.is_empty());
    }
}
