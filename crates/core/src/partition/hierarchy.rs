//! Composing temporal and spatial layers into a hierarchy (paper §III-A).

use std::borrow::Cow;

use mocktails_trace::{Request, Trace};

use crate::config::{HierarchyConfig, LayerSpec, ModelOptions};

use super::{partitions, spatial, temporal, time_sorted, Partition};

/// Applies the hierarchy described by `config` to `trace`, returning the
/// leaf partitions in deterministic order (parents expanded depth-first,
/// children in the order their scheme produces).
///
/// Each leaf is an independently-modelable subset of requests; together the
/// leaves cover every request of the trace exactly once.
///
/// ```
/// use mocktails_core::partition::hierarchy;
/// use mocktails_core::HierarchyConfig;
/// use mocktails_trace::{Request, Trace};
///
/// let trace = Trace::from_requests(
///     (0..20u64).map(|i| Request::read(i * 100, (i % 2) * 0x10000 + i * 64, 64)).collect(),
/// );
/// let leaves = hierarchy::partition(&trace, &HierarchyConfig::two_level_ts(1_000));
/// let total: usize = leaves.iter().map(|l| l.len()).sum();
/// assert_eq!(total, trace.len());
/// ```
pub fn partition(trace: &Trace, config: &HierarchyConfig) -> Vec<Partition> {
    let leaves = Leaves::of(trace).apply(config.layers(), config.options());
    partitions(&leaves.requests, &leaves.ends)
}

/// Maximum byte gap bridged by HALO-style similar-region merging.
const SIMILAR_MERGE_GAP: u64 = 4096;

/// The leaves of a hierarchy, as [`partition`] orders them: one request
/// buffer in leaf order plus the end of each leaf in it.
///
/// Every layer splits each leaf of the layer above into consecutive runs
/// of the buffer, independently of every other leaf. Temporal layers only
/// cut a run, since it is already in arrival order; spatial layers
/// rewrite the whole buffer into a second one, group by group. The buffer
/// borrows the trace until the first spatial layer.
#[derive(Debug)]
pub(crate) struct Leaves<'a> {
    requests: Cow<'a, [Request]>,
    ends: Vec<usize>,
}

impl<'a> Leaves<'a> {
    /// The whole of `trace`, in arrival order, as one leaf (no leaf when
    /// the trace is empty).
    pub(crate) fn of(trace: &'a Trace) -> Self {
        let requests = time_sorted(trace.requests());
        let ends = if requests.is_empty() {
            Vec::new()
        } else {
            vec![requests.len()]
        };
        Self { requests, ends }
    }

    /// Applies `layers` in turn to every leaf.
    pub(crate) fn apply(self, layers: &[LayerSpec], options: ModelOptions) -> Self {
        let Self {
            mut requests,
            mut ends,
        } = self;
        let mut next = Vec::new();
        let mut out = Vec::new();
        // Dynamic regions before similar-region merging.
        let (mut regions, mut region_ends) = (Vec::new(), Vec::new());
        let mut scratch = spatial::Scratch::default();
        for &layer in layers {
            if layer.is_spatial() {
                out.reserve(requests.len());
            }
            next.clear();
            let mut start = 0;
            for &end in &ends {
                let seg = &requests[start..end];
                let first = next.len();
                match layer {
                    LayerSpec::TemporalRequestCount(n) => {
                        temporal::request_count_ends(seg.len(), n, &mut next);
                    }
                    LayerSpec::TemporalCycleCount(c) => {
                        temporal::cycle_count_ends(seg, c, &mut next);
                    }
                    LayerSpec::TemporalIntervalCount(k) => {
                        temporal::interval_count_ends(seg.len(), k, &mut next);
                    }
                    LayerSpec::SpatialDynamic if options.merge_similar => {
                        regions.clear();
                        region_ends.clear();
                        scratch.dynamic(seg, options.merge_lonely, &mut regions, &mut region_ends);
                        scratch.merge_similar(
                            &regions,
                            &region_ends,
                            SIMILAR_MERGE_GAP,
                            &mut out,
                            &mut next,
                        );
                    }
                    LayerSpec::SpatialDynamic => {
                        scratch.dynamic(seg, options.merge_lonely, &mut out, &mut next);
                    }
                    LayerSpec::SpatialFixed(b) => scratch.fixed_size(seg, b, &mut out, &mut next),
                }
                for child_end in &mut next[first..] {
                    *child_end += start;
                }
                start = end;
            }
            std::mem::swap(&mut ends, &mut next);
            if layer.is_spatial() {
                let previous =
                    std::mem::replace(&mut requests, Cow::Owned(std::mem::take(&mut out)));
                if let Cow::Owned(mut buffer) = previous {
                    buffer.clear();
                    out = buffer;
                }
            }
        }
        Self { requests, ends }
    }

    /// Cuts the leaves into at most `n` runs of consecutive leaves with
    /// about equal request counts, each borrowing this buffer. Leaf order
    /// is kept: the runs, concatenated, are these leaves.
    pub(crate) fn groups(&self, n: usize) -> Vec<Leaves<'_>> {
        let total = self.requests.len();
        let n = n.max(1);
        let mut groups = Vec::with_capacity(n);
        let (mut first, mut start) = (0, 0);
        for k in 1..=n {
            let cut = total / n * k + total % n * k / n;
            let last = first + self.ends[first..].partition_point(|&end| end <= cut);
            if last == first {
                continue;
            }
            let end = self.ends[last - 1];
            groups.push(Leaves {
                requests: Cow::Borrowed(&self.requests[start..end]),
                // lint: allow(L018, one list of leaf ends per group, and at most one group per thread)
                ends: self.ends[first..last].iter().map(|e| e - start).collect(),
            });
            (first, start) = (last, end);
        }
        groups
    }

    /// A second handle on the same leaves, borrowing this buffer.
    pub(crate) fn view(&self) -> Leaves<'_> {
        Leaves {
            requests: Cow::Borrowed(&self.requests),
            ends: self.ends.clone(),
        }
    }

    /// Each leaf's requests, in arrival order, leaf by leaf.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Request]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let leaf = &self.requests[start..end];
            start = end;
            leaf
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelOptions;
    use mocktails_trace::Request;

    /// Two spatial streams active in two separate time phases.
    fn two_phase_trace() -> Trace {
        let mut reqs = Vec::new();
        for i in 0..10u64 {
            reqs.push(Request::read(i * 10, 0x1000 + i * 64, 64));
            reqs.push(Request::write(i * 10 + 1, 0x9000 + i * 64, 64));
        }
        for i in 0..10u64 {
            reqs.push(Request::read(1_000_000 + i * 10, 0x1000 + i * 64, 64));
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn leaves_cover_trace_exactly() {
        let trace = two_phase_trace();
        for config in [
            HierarchyConfig::two_level_ts(1_000),
            HierarchyConfig::two_level_requests_dynamic(7),
            HierarchyConfig::two_level_requests_fixed(7, 4096),
            HierarchyConfig::two_level_st(2),
        ] {
            let leaves = partition(&trace, &config);
            let total: usize = leaves.iter().map(Partition::len).sum();
            assert_eq!(total, trace.len(), "config {config:?}");
        }
    }

    #[test]
    fn temporal_then_spatial_separates_streams() {
        let trace = two_phase_trace();
        let leaves = partition(&trace, &HierarchyConfig::two_level_ts(10_000));
        // Phase 1 has two streams (read @0x1000.., write @0x9000..); phase 2
        // has one. Expect three leaves.
        assert_eq!(leaves.len(), 3);
        // Each leaf is spatially homogeneous: strides within are constant.
        for leaf in &leaves {
            let strides = leaf.strides();
            assert!(
                strides.iter().all(|&s| s == strides[0]),
                "leaf strides should be uniform, got {strides:?}"
            );
        }
    }

    #[test]
    fn spatial_then_temporal_splits_reuse() {
        let trace = two_phase_trace();
        let leaves = partition(&trace, &HierarchyConfig::two_level_st(2));
        // The 0x1000 region is accessed in both phases; spatial-first puts
        // both passes in one region, then the temporal layer splits them.
        assert!(leaves.len() >= 3);
        let total: usize = leaves.iter().map(Partition::len).sum();
        assert_eq!(total, trace.len());
    }

    #[test]
    fn single_level_spatial() {
        let trace = two_phase_trace();
        let config = HierarchyConfig::builder()
            .layer(LayerSpec::SpatialDynamic)
            .build()
            .unwrap();
        let leaves = partition(&trace, &config);
        assert_eq!(leaves.len(), 2);
    }

    #[test]
    fn empty_trace_yields_no_leaves() {
        let leaves = partition(&Trace::new(), &HierarchyConfig::two_level_ts(1000));
        assert!(leaves.is_empty());
    }

    #[test]
    fn three_level_hierarchies_compose() {
        // Temporal → spatial → temporal: each spatial leaf of each phase
        // is further split into two intervals (the Table I refinement).
        let trace = two_phase_trace();
        let config = HierarchyConfig::builder()
            .layers([
                LayerSpec::TemporalCycleCount(10_000),
                LayerSpec::SpatialDynamic,
                LayerSpec::TemporalIntervalCount(2),
            ])
            .build()
            .unwrap();
        let leaves = partition(&trace, &config);
        let two_level = partition(&trace, &HierarchyConfig::two_level_ts(10_000));
        assert!(leaves.len() > two_level.len());
        let total: usize = leaves.iter().map(Partition::len).sum();
        assert_eq!(total, trace.len());
    }

    #[test]
    fn merge_lonely_option_propagates() {
        // Isolated singles in one time window.
        let trace = Trace::from_requests(vec![
            Request::read(0, 0x1_0000, 64),
            Request::read(1, 0x9_0300, 32),
        ]);
        let base = HierarchyConfig::two_level_ts(1000);
        let merged = partition(&trace, &base);
        assert_eq!(merged.len(), 1);

        let unmerged = partition(
            &trace,
            &base.clone().with_options(ModelOptions {
                strict_convergence: true,
                merge_lonely: false,
                merge_similar: false,
            }),
        );
        assert_eq!(unmerged.len(), 2);
    }
}
