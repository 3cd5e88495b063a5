//! Spatial partitioning schemes (paper §III-A, *Dynamic Memory Regions*).
//!
//! [`dynamic`] implements the paper's novel Alg. 1: request address ranges
//! are sorted and merged whenever they overlap or are adjacent, yielding
//! variable-sized memory regions that adapt to the access behaviour. Lonely
//! (single-request) regions are post-processed: equally-strided runs become
//! one partition, the rest are pooled together.
//!
//! [`fixed_size`] implements the prior-art alternative (HALO-style): aligned
//! blocks of a fixed byte size.

use mocktails_trace::{AddrRange, Request};

use super::{partitions, time_sorted, Partition};

/// Merges the address ranges of `requests` into non-overlapping,
/// non-adjacent regions — the raw output of the paper's Alg. 1, before
/// requests are assigned and lonely regions are post-processed.
///
/// The returned regions are sorted by start address.
pub fn merge_ranges(requests: &[Request]) -> Vec<AddrRange> {
    let mut scratch = Scratch::default();
    scratch.find_regions(requests);
    scratch
        .regions
        .iter()
        .map(|&(start, end, _)| AddrRange::new(start, end))
        .collect()
}

/// Dynamic spatial partitioning (paper Alg. 1 plus lonely-request merging).
///
/// Each returned partition groups the requests of one dynamic memory
/// region. When `merge_lonely` is `true` (the paper's behaviour),
/// single-request regions are post-processed: maximal runs of three or more
/// lonely requests equally spaced in memory become one partition each, and
/// the remaining lonely requests are pooled into a single partition.
///
/// Partitions are ordered by start time (ties broken by start address).
///
/// ```
/// use mocktails_core::partition::spatial;
/// use mocktails_trace::Request;
///
/// // Two separate streams and one isolated request.
/// let reqs = vec![
///     Request::read(0, 0x1000, 64),
///     Request::read(1, 0x1040, 64),  // adjacent: merges with the first
///     Request::read(2, 0x8000, 64),  // far away: its own region
///     Request::read(3, 0x8040, 64),
/// ];
/// let parts = spatial::dynamic(&reqs, true);
/// assert_eq!(parts.len(), 2);
/// assert_eq!(parts[0].len(), 2);
/// assert_eq!(parts[1].len(), 2);
/// ```
pub fn dynamic(requests: &[Request], merge_lonely: bool) -> Vec<Partition> {
    one_layer(requests, |scratch, seg, out, ends| {
        scratch.dynamic(seg, merge_lonely, out, ends);
    })
}

/// HALO-style post-merging of similar neighbouring regions (the paper
/// notes prior art "may be merged if two contiguous regions have similar
/// models", §III-A; off by default in Mocktails, exposed for ablations).
///
/// Two partitions merge when their ranges are within `max_gap` bytes of
/// each other and both exhibit the same *constant* behaviour: identical
/// single stride, identical operation, and identical request size. Only
/// such fully-deterministic neighbours can merge without creating model
/// variance that dynamic partitioning existed to remove.
pub fn merge_similar(partitions: Vec<Partition>, max_gap: u64) -> Vec<Partition> {
    if partitions.len() < 2 {
        return partitions;
    }
    let requests: Vec<Request> = partitions.iter().flatten().copied().collect();
    let part_ends: Vec<usize> = partitions
        .iter()
        .scan(0, |end, part| {
            *end += part.len();
            Some(*end)
        })
        .collect();
    let (mut out, mut ends) = (Vec::with_capacity(requests.len()), Vec::new());
    Scratch::default().merge_similar(&requests, &part_ends, max_gap, &mut out, &mut ends);
    super::partitions(&out, &ends)
}

/// Fixed-size spatial partitioning: requests are grouped by the aligned
/// `block_bytes` block containing their start address (HALO-style; the
/// paper evaluates 4 KiB blocks as *Mocktails (4KB)*).
///
/// Partitions are ordered by start time (ties broken by start address).
///
/// # Panics
///
/// Panics if `block_bytes` is zero.
pub fn fixed_size(requests: &[Request], block_bytes: u64) -> Vec<Partition> {
    assert!(block_bytes > 0, "block size must be non-zero");
    one_layer(requests, |scratch, seg, out, ends| {
        scratch.fixed_size(seg, block_bytes, out, ends);
    })
}

/// Runs one spatial layer over `requests` as a single segment.
fn one_layer(
    requests: &[Request],
    layer: impl FnOnce(&mut Scratch, &[Request], &mut Vec<Request>, &mut Vec<usize>),
) -> Vec<Partition> {
    let seg = time_sorted(requests);
    let (mut out, mut ends) = (Vec::with_capacity(seg.len()), Vec::new());
    if !seg.is_empty() {
        layer(&mut Scratch::default(), &seg, &mut out, &mut ends);
    }
    partitions(&out, &ends)
}

/// One output partition of a spatial layer: a run of the layer's grouped
/// request sequence.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: usize,
    end: usize,
}

/// Buffers one spatial layer reuses across the segments it splits.
///
/// Each method splits one segment — a run of requests in arrival order —
/// by appending the segment's requests to `out` partition after partition
/// and pushing each partition's end, relative to the segment's first
/// output position, to `ends`. Within a partition requests stay in
/// arrival order, and partitions come out ordered by start time, then
/// start address, then the order the scheme produced them in.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per request: its start address (dynamic regions) or block (fixed
    /// blocks) in the high 64 bits and its index in the low 64; sorted.
    keys: Vec<u128>,
    /// Per request index: its dynamic region.
    region_of: Vec<usize>,
    /// Per dynamic region, in address order: start and end address and
    /// request count.
    regions: Vec<(u64, u64, usize)>,
    /// Per dynamic region: its group.
    group_of: Vec<usize>,
    /// Lonely regions in address order.
    lonely: Vec<usize>,
    /// Request indices, group after group.
    perm: Vec<usize>,
    /// Similar-region merging: the merged partitions' requests, back to
    /// back.
    staged: Vec<Request>,
    groups: Vec<Group>,
    /// Group indices in output order.
    order: Vec<usize>,
    /// Similar-region merging: each input partition's bounds and range.
    parts: Vec<(usize, usize, AddrRange)>,
}

impl Scratch {
    /// Splits `seg` into dynamic regions (Alg. 1) with lonely-request
    /// grouping; see [`dynamic`].
    pub(crate) fn dynamic(
        &mut self,
        seg: &[Request],
        merge_lonely: bool,
        out: &mut Vec<Request>,
        ends: &mut Vec<usize>,
    ) {
        self.find_regions(seg);

        // Groups: the regions in address order (lonely ones set aside when
        // merging), then the lonely runs, then the lonely pool. A group's
        // `end` counts its requests until the scatter below.
        self.group_of.clear();
        self.groups.clear();
        self.lonely.clear();
        for (region, &(_, _, len)) in self.regions.iter().enumerate() {
            if len == 1 && merge_lonely {
                self.lonely.push(region);
                self.group_of.push(usize::MAX);
            } else {
                self.group_of.push(self.groups.len());
                self.groups.push(Group { start: 0, end: len });
            }
        }
        let first_lonely = self.groups.len();
        group_lonely(
            &self.lonely,
            &self.regions,
            &mut self.group_of,
            &mut self.groups,
        );

        // One stable scatter puts each group's requests together, in
        // arrival order.
        let mut offset = 0;
        for group in &mut self.groups {
            let len = group.end;
            *group = Group {
                start: offset,
                end: offset,
            };
            offset += len;
        }
        self.perm.resize(seg.len(), 0);
        for (i, &region) in self.region_of.iter().enumerate() {
            let group = &mut self.groups[self.group_of[region]];
            self.perm[group.end] = i;
            group.end += 1;
        }
        // Lonely groups were gathered in address order and then
        // stable-sorted by time, so same-cycle members keep address
        // (= region) order.
        for group in &self.groups[first_lonely..] {
            let members = &mut self.perm[group.start..group.end];
            for run in members.chunk_by_mut(|&a, &b| seg[a].timestamp == seg[b].timestamp) {
                run.sort_unstable_by_key(|&i| self.region_of[i]);
            }
        }
        let perm = &self.perm;
        emit(&self.groups, &mut self.order, |k| seg[perm[k]], out, ends);
    }

    /// Fills `keys` with `(key(request), index)` for every request of
    /// `seg`, sorted.
    fn sort_keys(&mut self, seg: &[Request], key: impl Fn(&Request) -> u64) {
        self.keys.clear();
        self.keys.extend(
            seg.iter()
                .enumerate()
                .map(|(i, r)| u128::from(key(r)) << 64 | i as u128),
        );
        self.keys.sort_unstable();
    }

    /// Alg. 1: sorts the request ranges of `seg` and merges each one into
    /// the region before it when they overlap or are adjacent. The sweep
    /// fills `regions` and assigns every request its region as it goes.
    fn find_regions(&mut self, seg: &[Request]) {
        // Ranges that share a start merge whatever their order, so sorting
        // by start alone finds the same regions.
        self.sort_keys(seg, |r| r.address);
        self.region_of.resize(seg.len(), 0);
        self.regions.clear();
        for &key in &self.keys {
            let (start, i) = split_key(key);
            let end = seg[i].end_address();
            match self.regions.last_mut() {
                Some(region) if start <= region.1 => {
                    region.1 = region.1.max(end);
                    region.2 += 1;
                }
                _ => self.regions.push((start, end, 1)),
            }
            self.region_of[i] = self.regions.len() - 1;
        }
    }

    /// Splits `seg` into aligned `block_bytes` blocks; see [`fixed_size`].
    pub(crate) fn fixed_size(
        &mut self,
        seg: &[Request],
        block_bytes: u64,
        out: &mut Vec<Request>,
        ends: &mut Vec<usize>,
    ) {
        assert!(block_bytes > 0, "block size must be non-zero");
        self.sort_keys(seg, |r| r.address / block_bytes);
        self.perm.clear();
        self.perm
            .extend(self.keys.iter().map(|&key| split_key(key).1));
        self.groups.clear();
        let mut start = 0;
        for block in self.keys.chunk_by(|&a, &b| a >> 64 == b >> 64) {
            self.groups.push(Group {
                start,
                end: start + block.len(),
            });
            start += block.len();
        }
        let perm = &self.perm;
        emit(&self.groups, &mut self.order, |k| seg[perm[k]], out, ends);
    }

    /// Merges similar neighbours among the partitions laid out back to
    /// back in `parts` and ending at `part_ends`; see [`merge_similar`].
    pub(crate) fn merge_similar(
        &mut self,
        parts: &[Request],
        part_ends: &[usize],
        max_gap: u64,
        out: &mut Vec<Request>,
        ends: &mut Vec<usize>,
    ) {
        self.parts.clear();
        let mut start = 0;
        for &end in part_ends {
            self.parts.push((start, end, range_of(&parts[start..end])));
            start = end;
        }
        self.parts
            .sort_unstable_by_key(|&(start, _, range)| (range.start(), start));

        // Merged partitions are staged back to back; `prev` is the last
        // one's range and signature.
        self.staged.clear();
        self.groups.clear();
        let mut prev: Option<(AddrRange, Option<Signature>)> = None;
        for &(start, end, range) in &self.parts {
            let part = &parts[start..end];
            let mergeable = prev.is_some_and(|(prev_range, prev_signature)| {
                let gap = range.start().saturating_sub(prev_range.end());
                gap <= max_gap
                    && !prev_range.overlaps(&range)
                    && prev_signature.is_some()
                    && prev_signature == signature(part)
            });
            self.staged.extend_from_slice(part);
            match self.groups.last_mut() {
                Some(group) if mergeable => {
                    group.end = self.staged.len();
                    let merged = &mut self.staged[group.start..];
                    merged.sort_by_key(|r| r.timestamp);
                    prev =
                        prev.map(|(prev_range, _)| (prev_range.union(&range), signature(merged)));
                }
                _ => {
                    self.groups.push(Group {
                        start: self.staged.len() - part.len(),
                        end: self.staged.len(),
                    });
                    prev = Some((range, signature(part)));
                }
            }
        }
        let staged = &self.staged;
        emit(&self.groups, &mut self.order, |k| staged[k], out, ends);
    }
}

/// Splits a [`Scratch`] sort key into its high word and request index.
fn split_key(key: u128) -> (u64, usize) {
    ((key >> 64) as u64, key as u64 as usize)
}

/// Assigns the lonely regions (single-request regions, in address order)
/// to groups per the paper: maximal runs of ≥ 3 requests with a constant
/// address stride become one group each; everything left is pooled into
/// one last group.
fn group_lonely(
    lonely: &[usize],
    regions: &[(u64, u64, usize)],
    group_of: &mut [usize],
    groups: &mut Vec<Group>,
) {
    let address = |k: usize| regions[lonely[k]].0;
    let mut pool = 0;
    let mut i = 0;
    while i < lonely.len() {
        // Extend the longest constant-stride run starting at i.
        let mut j = i + 1;
        if j < lonely.len() {
            let stride = address(j).wrapping_sub(address(i));
            while j + 1 < lonely.len() && address(j + 1).wrapping_sub(address(j)) == stride {
                j += 1;
            }
        }
        let run_len = j - i + 1;
        if run_len >= 3 {
            for &region in &lonely[i..=j] {
                group_of[region] = groups.len();
            }
            groups.push(Group {
                start: 0,
                end: run_len,
            });
            i = j + 1;
        } else {
            pool += 1;
            i += 1;
        }
    }
    if pool > 0 {
        for &region in lonely {
            if group_of[region] == usize::MAX {
                group_of[region] = groups.len();
            }
        }
        groups.push(Group {
            start: 0,
            end: pool,
        });
    }
}

/// Appends `groups` — runs of the grouped sequence whose `k`-th request
/// is `at(k)` — to `out` by start time, then start address, then group
/// order, and pushes each one's end relative to the first appended
/// request.
fn emit(
    groups: &[Group],
    order: &mut Vec<usize>,
    at: impl Fn(usize) -> Request,
    out: &mut Vec<Request>,
    ends: &mut Vec<usize>,
) {
    order.clear();
    order.extend(0..groups.len());
    order.sort_unstable_by_key(|&g| {
        let first = at(groups[g].start);
        (first.timestamp, first.address, g)
    });
    let base = out.len();
    for &g in order.iter() {
        out.extend((groups[g].start..groups[g].end).map(&at));
        ends.push(out.len() - base);
    }
}

/// The constant `(stride, op, size)` behaviour of a partition, when it
/// has one.
type Signature = (i64, i64, i64);

fn signature(part: &[Request]) -> Option<Signature> {
    let first = part.first()?;
    let stride = part.get(1).map_or(0, |second| {
        second.address.wrapping_sub(first.address) as i64
    });
    let constant = part
        .windows(2)
        .all(|w| w[1].address.wrapping_sub(w[0].address) as i64 == stride)
        && part
            .iter()
            .all(|r| r.op.as_bit() == first.op.as_bit() && r.size == first.size);
    constant.then_some((stride, i64::from(first.op.as_bit()), i64::from(first.size)))
}

/// The smallest range covering every byte of a non-empty run.
fn range_of(part: &[Request]) -> AddrRange {
    part.iter()
        .skip(1)
        .fold(part[0].range(), |acc, r| acc.union(&r.range()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_ranges_merges_overlap_and_adjacency() {
        let reqs = vec![
            Request::read(0, 0x100, 64),
            Request::read(1, 0x120, 64), // overlaps the first
            Request::read(2, 0x160, 32), // adjacent to the merged range
            Request::read(3, 0x400, 64), // separate
        ];
        let regions = merge_ranges(&reqs);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0], AddrRange::new(0x100, 0x180));
        assert_eq!(regions[1], AddrRange::new(0x400, 0x440));
    }

    #[test]
    fn merge_ranges_is_sorted_and_disjoint() {
        let reqs = vec![
            Request::read(0, 0x900, 64),
            Request::read(1, 0x100, 64),
            Request::read(2, 0x500, 64),
            Request::read(3, 0x140, 64),
        ];
        let regions = merge_ranges(&reqs);
        for w in regions.windows(2) {
            assert!(w[0].end() < w[1].start(), "regions must not touch");
        }
    }

    #[test]
    fn dynamic_partitions_cover_every_request() {
        let reqs: Vec<Request> = (0..50u64)
            .map(|i| Request::read(i, 0x1000 + (i % 5) * 0x1000, 64))
            .collect();
        let parts = dynamic(&reqs, true);
        let total: usize = parts.iter().map(Partition::len).sum();
        assert_eq!(total, reqs.len());
    }

    #[test]
    fn dynamic_reuse_lands_in_same_region() {
        // Two passes over the same region (like partition F in Fig. 2).
        let reqs = vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1040, 64),
            Request::read(100, 0x1000, 64),
            Request::read(101, 0x1040, 64),
        ];
        let parts = dynamic(&reqs, true);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 4);
    }

    #[test]
    fn dynamic_lonely_equal_stride_grouped() {
        // Three isolated requests equally spaced by 0x1000.
        let reqs = vec![
            Request::read(0, 0x1_0000, 64),
            Request::read(1, 0x1_1000, 64),
            Request::read(2, 0x1_2000, 64),
        ];
        let parts = dynamic(&reqs, true);
        assert_eq!(parts.len(), 1, "equal-stride lonely requests group");
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn dynamic_lonely_pooled_otherwise() {
        // Two isolated requests with nothing in common: pooled (partition D
        // style).
        let reqs = vec![
            Request::read(0, 0x1_0000, 64),
            Request::read(1, 0x5_0300, 32),
        ];
        let parts = dynamic(&reqs, true);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 2);
    }

    #[test]
    fn dynamic_lonely_disabled_keeps_singletons() {
        let reqs = vec![
            Request::read(0, 0x1_0000, 64),
            Request::read(1, 0x5_0300, 32),
        ];
        let parts = dynamic(&reqs, false);
        assert_eq!(parts.len(), 2);
    }

    #[test]
    fn dynamic_single_request_trace() {
        let parts = dynamic(&[Request::read(0, 0x40, 64)], true);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 1);
    }

    #[test]
    fn dynamic_empty_input() {
        assert!(dynamic(&[], true).is_empty());
    }

    #[test]
    fn dynamic_places_a_request_at_the_top_address() {
        // Its range saturates to the empty [MAX, MAX); the sweep still
        // gives it a region.
        let reqs = vec![
            Request::read(0, u64::MAX - 64, 64),
            Request::read(1, u64::MAX, 1),
            Request::read(2, 0x1000, 64),
        ];
        for merge_lonely in [true, false] {
            let parts = dynamic(&reqs, merge_lonely);
            let total: usize = parts.iter().map(Partition::len).sum();
            assert_eq!(total, reqs.len());
        }
    }

    #[test]
    fn dynamic_regions_are_tight() {
        // Requests touch only part of a 4 KiB block; the dynamic region
        // must hug the touched bytes (§V: "requests within a dynamic memory
        // region are guaranteed to touch the entire address range").
        let reqs = vec![Request::read(0, 0x1f00, 64), Request::read(1, 0x1f40, 64)];
        let parts = dynamic(&reqs, true);
        let range = parts[0].addr_range();
        assert_eq!(range.start(), 0x1f00);
        assert_eq!(range.end(), 0x1f80);
    }

    #[test]
    fn dynamic_ordering_is_by_start_time() {
        let reqs = vec![
            Request::read(50, 0x1000, 64),
            Request::read(51, 0x1040, 64),
            Request::read(0, 0x8000, 64),
            Request::read(1, 0x8040, 64),
        ];
        let parts = dynamic(&reqs, true);
        assert_eq!(parts[0].start_address(), 0x8000);
        assert_eq!(parts[1].start_address(), 0x1000);
    }

    #[test]
    fn fig2_partition_structure() {
        // A sketch of Fig. 2: six clusters inside one 4 KiB block, two of
        // them revisited. Dynamic partitioning should find distinct regions
        // rather than one coarse block.
        let mut reqs = Vec::new();
        let clusters: [(u64, u64); 4] = [(0x000, 4), (0x400, 6), (0x900, 3), (0xc00, 5)];
        let mut t = 0;
        for &(base, n) in &clusters {
            for i in 0..n {
                reqs.push(Request::read(t, 0x8000_0000 + base + i * 64, 64));
                t += 10;
            }
        }
        let parts = dynamic(&reqs, true);
        assert_eq!(parts.len(), clusters.len());
        let fixed = fixed_size(&reqs, 4096);
        assert_eq!(fixed.len(), 1, "a 4 KiB scheme sees a single block");
    }

    #[test]
    fn merge_similar_joins_constant_neighbours() {
        // Two nearby linear read streams with identical stride/size.
        let a = Partition::new(
            (0..4u64)
                .map(|i| Request::read(i, 0x1000 + i * 64, 64))
                .collect(),
        );
        let b = Partition::new(
            (0..4u64)
                .map(|i| Request::read(10 + i, 0x1200 + i * 64, 64))
                .collect(),
        );
        let merged = merge_similar(vec![a, b], 4096);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].len(), 8);
    }

    #[test]
    fn merge_similar_respects_gap_limit() {
        let a = Partition::new(vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1040, 64),
        ]);
        let b = Partition::new(vec![
            Request::read(2, 0x9000, 64),
            Request::read(3, 0x9040, 64),
        ]);
        let merged = merge_similar(vec![a, b], 4096);
        assert_eq!(merged.len(), 2, "0x8000-byte gap exceeds the limit");
    }

    #[test]
    fn merge_similar_keeps_dissimilar_neighbours() {
        // Same addresses but one stream writes: signatures differ.
        let a = Partition::new(vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1040, 64),
        ]);
        let b = Partition::new(vec![
            Request::write(2, 0x1100, 64),
            Request::write(3, 0x1140, 64),
        ]);
        let merged = merge_similar(vec![a, b], 4096);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_similar_skips_variable_partitions() {
        // Irregular strides: no constant signature, never merged.
        let a = Partition::new(vec![
            Request::read(0, 0x1000, 64),
            Request::read(1, 0x1048, 64),
            Request::read(2, 0x1040, 64),
        ]);
        let b = Partition::new(vec![
            Request::read(3, 0x1200, 64),
            Request::read(4, 0x1240, 64),
        ]);
        let merged = merge_similar(vec![a, b], 4096);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_similar_single_partition_is_identity() {
        let a = Partition::new(vec![Request::read(0, 0x1000, 64)]);
        let merged = merge_similar(vec![a.clone()], 4096);
        assert_eq!(merged, vec![a]);
    }

    #[test]
    fn fixed_size_groups_by_block() {
        let reqs = vec![
            Request::read(0, 0x0fc0, 64),
            Request::read(1, 0x1000, 64), // next 4 KiB block
            Request::read(2, 0x1fff, 1),
            Request::read(3, 0x0004, 4),
        ];
        let parts = fixed_size(&reqs, 4096);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(Partition::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn fixed_size_empty_input() {
        assert!(fixed_size(&[], 4096).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn fixed_size_zero_block_panics() {
        let _ = fixed_size(&[], 0);
    }
}
