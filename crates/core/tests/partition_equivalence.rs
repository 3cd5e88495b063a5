//! Equivalence of the leaf-buffer partitioner with the per-layer
//! partitioner it replaced. The reference below is that partitioner,
//! kept verbatim: every layer copies each request into a new
//! `Partition`, dynamic regions are found by binary-searching each
//! request into the merged ranges, and lonely runs, the lonely pool and
//! similar-region merges are rebuilt as `Vec`s. Seeded random traces —
//! with same-cycle requests, overlapping and adjacent ranges, lonely
//! requests on and off a common stride, and addresses near the top of the
//! address space — run through both for every layer stack of one to three
//! layers under every lonely/similar merging option, as do the 18
//! Table II traces; the leaves, and the profiles fitted on them, must be
//! equal.

use mocktails_core::partition::{hierarchy, spatial, temporal};
use mocktails_core::{HierarchyConfig, LayerSpec, LeafModel, ModelOptions, Partition, Profile};
use mocktails_pool::Parallelism;
use mocktails_trace::rng::{Prng, Rng};
use mocktails_trace::{Op, Request, Trace};

/// The per-layer partitioner, as it was.
mod reference {
    use std::collections::BTreeMap;

    use mocktails_core::{HierarchyConfig, LayerSpec, ModelOptions, Partition};
    use mocktails_trace::{AddrRange, Request, Trace};

    pub fn partition(trace: &Trace, config: &HierarchyConfig) -> Vec<Partition> {
        if trace.is_empty() {
            return Vec::new();
        }
        let options = config.options();
        let mut current = vec![Partition::new(trace.requests().to_vec())];
        for layer in config.layers() {
            let mut next = Vec::with_capacity(current.len());
            for part in &current {
                next.extend(apply_layer(part, *layer, options));
            }
            current = next;
        }
        current
    }

    const SIMILAR_MERGE_GAP: u64 = 4096;

    fn apply_layer(part: &Partition, layer: LayerSpec, options: ModelOptions) -> Vec<Partition> {
        match layer {
            LayerSpec::TemporalRequestCount(n) => by_request_count(part.requests(), n),
            LayerSpec::TemporalCycleCount(c) => by_cycle_count(part.requests(), c),
            LayerSpec::TemporalIntervalCount(k) => by_interval_count(part.requests(), k),
            LayerSpec::SpatialDynamic => {
                let parts = dynamic(part.requests(), options.merge_lonely);
                if options.merge_similar {
                    merge_similar(parts, SIMILAR_MERGE_GAP)
                } else {
                    parts
                }
            }
            LayerSpec::SpatialFixed(b) => fixed_size(part.requests(), b),
        }
    }

    pub fn by_request_count(requests: &[Request], n: usize) -> Vec<Partition> {
        assert!(n > 0, "request count per interval must be non-zero");
        requests
            .chunks(n)
            .map(|chunk| Partition::new(chunk.to_vec()))
            .collect()
    }

    pub fn by_cycle_count(requests: &[Request], cycles: u64) -> Vec<Partition> {
        assert!(cycles > 0, "cycle count per interval must be non-zero");
        let Some(first) = requests.first() else {
            return Vec::new();
        };
        let origin = first.timestamp;
        let mut partitions = Vec::new();
        let mut current: Vec<Request> = Vec::new();
        let mut current_window = 0u64;
        for &r in requests {
            assert!(
                r.timestamp >= origin,
                "requests must be sorted by timestamp"
            );
            let window = (r.timestamp - origin) / cycles;
            if window != current_window && !current.is_empty() {
                partitions.push(Partition::new(std::mem::take(&mut current)));
            }
            current_window = window;
            current.push(r);
        }
        if !current.is_empty() {
            partitions.push(Partition::new(current));
        }
        partitions
    }

    pub fn by_interval_count(requests: &[Request], k: usize) -> Vec<Partition> {
        assert!(k > 0, "interval count must be non-zero");
        if requests.is_empty() {
            return Vec::new();
        }
        let k = k.min(requests.len());
        let base = requests.len() / k;
        let remainder = requests.len() % k;
        let mut partitions = Vec::with_capacity(k);
        let mut offset = 0;
        for i in 0..k {
            let take = base + usize::from(i < remainder);
            partitions.push(Partition::new(requests[offset..offset + take].to_vec()));
            offset += take;
        }
        partitions
    }

    fn merge_ranges(requests: &[Request]) -> Vec<AddrRange> {
        let mut ranges: Vec<AddrRange> = requests.iter().map(Request::range).collect();
        ranges.sort();
        let mut regions: Vec<AddrRange> = Vec::new();
        for range in ranges {
            match regions.last_mut() {
                Some(group) if group.touches(&range) => group.expand(&range),
                _ => regions.push(range),
            }
        }
        regions
    }

    pub fn dynamic(requests: &[Request], merge_lonely: bool) -> Vec<Partition> {
        if requests.is_empty() {
            return Vec::new();
        }
        let regions = merge_ranges(requests);
        let mut buckets: Vec<Vec<Request>> = vec![Vec::new(); regions.len()];
        for &r in requests {
            let idx = match regions.binary_search_by(|g| {
                if g.end() <= r.address {
                    std::cmp::Ordering::Less
                } else if g.start() > r.address {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            }) {
                Ok(i) => i,
                Err(_) => unreachable!("every request lies inside a merged region"),
            };
            buckets[idx].push(r);
        }

        let mut partitions: Vec<Partition> = Vec::new();
        let mut lonely: Vec<Request> = Vec::new();
        for bucket in buckets {
            if bucket.len() == 1 && merge_lonely {
                lonely.push(bucket[0]);
            } else {
                partitions.push(Partition::new(bucket));
            }
        }

        partitions.extend(group_lonely(lonely));
        partitions.sort_by_key(|p| (p.start_time(), p.start_address()));
        partitions
    }

    fn group_lonely(mut lonely: Vec<Request>) -> Vec<Partition> {
        if lonely.is_empty() {
            return Vec::new();
        }
        if lonely.len() == 1 {
            return vec![Partition::new(lonely)];
        }
        lonely.sort_by_key(|r| r.address);

        let mut partitions = Vec::new();
        let mut pool: Vec<Request> = Vec::new();
        let mut i = 0;
        while i < lonely.len() {
            let mut j = i + 1;
            if j < lonely.len() {
                let stride = lonely[j].address.wrapping_sub(lonely[i].address);
                while j + 1 < lonely.len()
                    && lonely[j + 1].address.wrapping_sub(lonely[j].address) == stride
                {
                    j += 1;
                }
            }
            let run_len = j - i + 1;
            if run_len >= 3 {
                partitions.push(Partition::new(lonely[i..=j].to_vec()));
                i = j + 1;
            } else {
                pool.push(lonely[i]);
                i += 1;
            }
        }
        if !pool.is_empty() {
            partitions.push(Partition::new(pool));
        }
        partitions
    }

    pub fn merge_similar(partitions: Vec<Partition>, max_gap: u64) -> Vec<Partition> {
        if partitions.len() < 2 {
            return partitions;
        }
        fn signature(p: &Partition) -> Option<(i64, i64, i64)> {
            let strides = p.strides();
            let stride = match strides.split_first() {
                None => 0,
                Some((&first, rest)) if rest.iter().all(|&s| s == first) => first,
                _ => return None,
            };
            let ops = p.op_states();
            if !ops.iter().all(|&o| o == ops[0]) {
                return None;
            }
            let sizes = p.size_states();
            if !sizes.iter().all(|&s| s == sizes[0]) {
                return None;
            }
            Some((stride, ops[0], sizes[0]))
        }

        let mut by_addr: Vec<Partition> = partitions;
        by_addr.sort_by_key(|p| p.addr_range().start());
        let mut out: Vec<Partition> = Vec::with_capacity(by_addr.len());
        for part in by_addr {
            let mergeable = out.last().is_some_and(|prev| {
                let prev_range = prev.addr_range();
                let range = part.addr_range();
                let gap = range.start().saturating_sub(prev_range.end());
                gap <= max_gap
                    && !prev_range.overlaps(&range)
                    && signature(prev).is_some()
                    && signature(prev) == signature(&part)
            });
            if mergeable {
                let prev = out.pop().expect("checked non-empty");
                let mut requests = prev.requests().to_vec();
                requests.extend(part.requests().iter().copied());
                out.push(Partition::new(requests));
            } else {
                out.push(part);
            }
        }
        out.sort_by_key(|p| (p.start_time(), p.start_address()));
        out
    }

    pub fn fixed_size(requests: &[Request], block_bytes: u64) -> Vec<Partition> {
        assert!(block_bytes > 0, "block size must be non-zero");
        let mut buckets: BTreeMap<u64, Vec<Request>> = BTreeMap::new();
        for &r in requests {
            buckets.entry(r.address / block_bytes).or_default().push(r);
        }
        let mut partitions: Vec<Partition> = buckets.into_values().map(Partition::new).collect();
        partitions.sort_by_key(|p| (p.start_time(), p.start_address()));
        partitions
    }
}

const TRACES: u64 = 24;

/// A request stream mixing the cases the tie-break rules decide: bursts
/// of same-cycle requests, dense streams whose ranges overlap or touch,
/// lonely requests on a common stride and off it, and a cluster just
/// below the top of the address space.
fn random_requests(rng: &mut Prng, len: usize) -> Vec<Request> {
    let bases = [
        0u64,
        0x8000_0000,
        0x8000_1000,
        0x9_0000_0000,
        u64::MAX - 0x400_0000,
    ];
    let sizes = [1u32, 4, 32, 64, 64, 128];
    let mut time = 0u64;
    let mut requests = Vec::with_capacity(len);
    for i in 0..len {
        time += match rng.gen_range(0..10u32) {
            0..=3 => 0,
            4..=7 => rng.gen_range(1..20u64),
            8 => rng.gen_range(100..3000u64),
            _ => rng.gen_range(10_000..100_000u64),
        };
        let base = bases[rng.gen_range(0..bases.len())];
        let address = match rng.gen_range(0..5u32) {
            // A dense stream: overlapping and adjacent ranges.
            0 | 1 => base + (i as u64 % 32) * 64,
            // Scattered inside a 4 KiB block.
            2 => base + rng.gen_range(0..4096u64),
            // Lonely, equally strided.
            3 => base + 0x4_0000 + rng.gen_range(0..8u64) * 0x1_0000,
            // Lonely anywhere.
            _ => base + rng.gen_range(0..0x8_0000u64) * 0x40,
        };
        let op = if rng.gen_bool(0.3) {
            Op::Write
        } else {
            Op::Read
        };
        requests.push(Request::new(
            time,
            address,
            op,
            sizes[rng.gen_range(0..sizes.len())],
        ));
    }
    requests
}

/// One layer of each kind, with parameters drawn from `rng`.
fn layer_kinds(rng: &mut Prng) -> [LayerSpec; 5] {
    [
        LayerSpec::TemporalRequestCount(rng.gen_range(1..40usize)),
        LayerSpec::TemporalCycleCount(rng.gen_range(1..20_000u64)),
        LayerSpec::TemporalIntervalCount(rng.gen_range(1..6usize)),
        LayerSpec::SpatialDynamic,
        LayerSpec::SpatialFixed([64u64, 256, 4096][rng.gen_range(0..3usize)]),
    ]
}

/// Every lonely/similar merging combination.
fn all_options() -> impl Iterator<Item = ModelOptions> {
    [(true, false), (false, false), (true, true), (false, true)]
        .into_iter()
        .map(|(merge_lonely, merge_similar)| ModelOptions {
            strict_convergence: true,
            merge_lonely,
            merge_similar,
        })
}

/// Every stack of one to three layers drawn from `kinds`.
fn stacks(kinds: &[LayerSpec]) -> Vec<Vec<LayerSpec>> {
    let mut stacks: Vec<Vec<LayerSpec>> = kinds.iter().map(|&k| vec![k]).collect();
    let mut last = stacks.clone();
    for _ in 1..3 {
        last = last
            .iter()
            .flat_map(|stack| {
                kinds.iter().map(move |&k| {
                    let mut longer = stack.clone();
                    longer.push(k);
                    longer
                })
            })
            .collect();
        stacks.extend(last.iter().cloned());
    }
    stacks
}

#[test]
fn leaves_match_the_per_layer_partitioner_on_every_stack() {
    let mut rng = Prng::seed_from_u64(0x9A27);
    let mut configs = 0;
    for case in 0..TRACES {
        let len = rng.gen_range(1..=240usize);
        let trace = Trace::from_requests(random_requests(&mut rng, len));
        for layers in stacks(&layer_kinds(&mut rng)) {
            for options in all_options() {
                let config = HierarchyConfig::builder()
                    .layers(layers.clone())
                    .options(options)
                    .build()
                    .unwrap();
                assert_eq!(
                    hierarchy::partition(&trace, &config),
                    reference::partition(&trace, &config),
                    "case {case}: {config:?}"
                );
                configs += 1;
            }
        }
    }
    assert_eq!(configs, TRACES * 155 * 4);
}

#[test]
fn single_layer_wrappers_match_on_unsorted_input() {
    let mut rng = Prng::seed_from_u64(0x51DE);
    for case in 0..200 {
        let len = rng.gen_range(0..=120usize);
        let mut requests = random_requests(&mut rng, len);
        // The wrappers take any order; shuffle some of the inputs.
        if rng.gen_bool(0.5) {
            for i in (1..requests.len()).rev() {
                requests.swap(i, rng.gen_range(0..=i));
            }
        }
        let n = rng.gen_range(1..30usize);
        let k = rng.gen_range(1..8usize);
        let block = [64u64, 4096][rng.gen_range(0..2usize)];
        assert_eq!(
            temporal::by_request_count(&requests, n),
            reference::by_request_count(&requests, n),
            "case {case}"
        );
        assert_eq!(
            temporal::by_interval_count(&requests, k),
            reference::by_interval_count(&requests, k),
            "case {case}"
        );
        for merge_lonely in [true, false] {
            assert_eq!(
                spatial::dynamic(&requests, merge_lonely),
                reference::dynamic(&requests, merge_lonely),
                "case {case}"
            );
        }
        assert_eq!(
            spatial::fixed_size(&requests, block),
            reference::fixed_size(&requests, block),
            "case {case}"
        );
        // Similar-region merging takes partitions in any order.
        let mut parts = reference::fixed_size(&requests, 256);
        if rng.gen_bool(0.5) {
            parts.reverse();
        }
        assert_eq!(
            spatial::merge_similar(parts.clone(), 4096),
            reference::merge_similar(parts, 4096),
            "case {case}"
        );
        let mut sorted = requests.clone();
        sorted.sort_by_key(|r| r.timestamp);
        let cycles = rng.gen_range(1..5000u64);
        assert_eq!(
            temporal::by_cycle_count(&sorted, cycles),
            reference::by_cycle_count(&sorted, cycles),
            "case {case}"
        );
    }
}

/// Similar-region merging only acts on neighbours of constant behaviour;
/// build partitions that have it so the merge path runs, not just the
/// no-merge path.
#[test]
fn similar_region_merging_matches_on_constant_neighbours() {
    let mut rng = Prng::seed_from_u64(0x3E6E);
    let mut merged_any = false;
    for case in 0..200 {
        let mut parts = Vec::new();
        for p in 0..rng.gen_range(2..8u64) {
            let base = 0x10_0000 + p * rng.gen_range(1..3u64) * 0x400;
            let stride = [64u64, 128][rng.gen_range(0..2usize)];
            let op = if rng.gen_bool(0.2) {
                Op::Write
            } else {
                Op::Read
            };
            let start = rng.gen_range(0..50u64);
            let requests = (0..rng.gen_range(1..6u64))
                .map(|i| {
                    Request::new(
                        start + i * rng.gen_range(0..3u64),
                        base + i * stride,
                        op,
                        64,
                    )
                })
                .collect();
            parts.push(Partition::new(requests));
        }
        let want = reference::merge_similar(parts.clone(), 4096);
        merged_any |= want.len() < parts.len();
        assert_eq!(spatial::merge_similar(parts, 4096), want, "case {case}");
    }
    assert!(merged_any);
}

#[test]
fn table_ii_leaves_and_profiles_match() {
    let cycles = 500_000;
    for spec in mocktails_workloads::catalog::all() {
        let trace = spec.generate();
        for options in all_options() {
            let config = HierarchyConfig::two_level_ts(cycles).with_options(options);
            let leaves = hierarchy::partition(&trace, &config);
            let want = reference::partition(&trace, &config);
            assert_eq!(leaves, want, "{} {options:?}", spec.name());
            let profile = Profile::fit_with(&trace, &config, Parallelism::new(2));
            let fitted = Profile::from_parts(config, want.iter().map(LeafModel::fit).collect());
            assert_eq!(profile, fitted, "{} {options:?}", spec.name());
        }
    }
}
