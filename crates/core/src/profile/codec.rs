//! Binary encoding of statistical profiles.
//!
//! Reuses the varint/zigzag primitives of [`mocktails_trace::codec`] so
//! profiles and traces share one encoding family (keeping Fig. 17's size
//! comparison apples-to-apples). Layout:
//!
//! ```text
//! magic "MPRO" | version u8
//! layer count  | per layer: tag u8 + parameter varint
//! options byte (bit 0: strict convergence, bit 1: merge lonely)
//! leaf count   | per leaf:
//!   start_time varint | start_address varint
//!   range start varint | range length varint | request count varint
//!   4 × McC: tag u8 (0 = constant, 1 = markov)
//!     constant: zigzag value
//!     markov: zigzag initial | state count | per state:
//!             zigzag from | edge count | per edge (zigzag to, count varint)
//! ```

use mocktails_trace::codec::{write_i64, write_u64, ByteCursor};
use mocktails_trace::{checked_usize, AddrRange, DecodeLimits, DecodeOptions};

use crate::config::{HierarchyConfig, LayerSpec, ModelOptions};
use crate::model::{check_parts, RowChecks};
use crate::synth::{Feature, FeatureRef, LeafMeta, SynthPlan};
use crate::ProfileError;

use super::{Profile, TOTAL_OVERFLOW};

/// Magic bytes identifying an encoded profile.
pub const PROFILE_MAGIC: [u8; 4] = *b"MPRO";
/// Current profile codec version.
pub const PROFILE_VERSION: u8 = 1;

/// Appends the encoding of `profile` to `w`.
pub fn write_profile(w: &mut Vec<u8>, profile: &Profile) {
    w.extend_from_slice(&PROFILE_MAGIC);
    w.push(PROFILE_VERSION);
    write_config(w, profile.config());
    let leaves = profile.plan.leaves();
    write_u64(w, leaves.len() as u64);
    for (meta, features) in leaves {
        write_u64(w, meta.start_time);
        write_u64(w, meta.start_address);
        write_u64(w, meta.range.start());
        write_u64(w, meta.range.len());
        write_u64(w, meta.count);
        for feature in features {
            write_feature(w, feature);
        }
    }
}

/// Appends a hierarchy configuration — the layer list and options byte —
/// exactly as it appears inside a profile encoding. Shared between
/// [`write_profile`] and the serving layer's fit cache key, which hashes
/// this encoding so two fits with different configs never collide.
pub(crate) fn write_config(w: &mut Vec<u8>, config: &HierarchyConfig) {
    let layers = config.layers();
    write_u64(w, layers.len() as u64);
    for layer in layers {
        let (tag, param) = match *layer {
            LayerSpec::TemporalRequestCount(n) => (0u8, n as u64),
            LayerSpec::TemporalCycleCount(c) => (1, c),
            LayerSpec::TemporalIntervalCount(k) => (2, k as u64),
            LayerSpec::SpatialDynamic => (3, 0),
            LayerSpec::SpatialFixed(b) => (4, b),
        };
        w.push(tag);
        write_u64(w, param);
    }
    let options = config.options();
    let options_byte = u8::from(options.strict_convergence)
        | (u8::from(options.merge_lonely) << 1)
        | (u8::from(options.merge_similar) << 2);
    w.push(options_byte);
}

fn write_feature(w: &mut Vec<u8>, feature: FeatureRef<'_>) {
    match feature {
        FeatureRef::Constant(v) => {
            w.push(0);
            write_i64(w, v);
        }
        FeatureRef::Markov(chain) => {
            w.push(1);
            write_i64(w, chain.initial());
            let rows = chain.rows();
            write_u64(w, rows.len() as u64);
            for (from, targets, counts) in rows {
                write_i64(w, from);
                write_u64(w, targets.len() as u64);
                for (&to, &count) in targets.iter().zip(counts) {
                    write_i64(w, to);
                    write_u64(w, count);
                }
            }
        }
    }
}

/// Decodes a profile written by [`write_profile`] from the front of `r`
/// under default [`DecodeOptions`], advancing `r` past the encoding.
///
/// # Errors
///
/// Returns [`ProfileError`] for malformed input, limit violations, semantic
/// invariant violations or I/O failures.
pub fn read_profile(r: &mut &[u8]) -> Result<Profile, ProfileError> {
    read_profile_with(r, &DecodeOptions::default())
}

/// Decodes a profile under caller-chosen [`DecodeOptions`].
///
/// Every count declared by the input — layers, leaves, Markov states and
/// edges — is checked against the options' limits *before* any allocation
/// sized by it. Layers and leaves reserve no more entries than the bytes
/// left could hold, and Markov rows go into buffers reused across chains
/// that grow only as edges are read, so peak memory is bounded by the
/// bytes actually supplied. Markov rows may arrive in any order; each
/// chain stores them sorted by state.
///
/// The decode is one pass. Each leaf's metadata is checked as the leaf
/// is built, and each chain's rows as they close; a chain's fault is
/// reported once all of the chain's bytes are read, so a short input
/// later in the same chain is reported first. When
/// [`DecodeOptions::validates`] is set (the default), the request total
/// is checked too, after the last leaf: with it, a successful return has
/// passed every check of [`Profile::validate`] and is safe to synthesize
/// from. [`DecodeOptions::trusted`] skips that check for locally-produced
/// inputs.
///
/// [`Profile::read`] is the method-form equivalent.
///
/// # Errors
///
/// Returns [`ProfileError`] for malformed input, limit violations, semantic
/// invariant violations or I/O failures.
pub fn read_profile_with(r: &mut &[u8], options: &DecodeOptions) -> Result<Profile, ProfileError> {
    let limits = options.limits();
    let mut c = ByteCursor::new(r);
    if c.array()? != PROFILE_MAGIC {
        return Err(ProfileError::Corrupt("bad profile magic".into()));
    }
    let version = c.u8()?;
    if version != PROFILE_VERSION {
        return Err(ProfileError::Corrupt(format!(
            "unsupported profile version {version}"
        )));
    }

    let layer_count = limits.check("layers", c.varint()?, limits.max_layers)?;
    if layer_count == 0 {
        return Err(ProfileError::Corrupt("zero layer count".into()));
    }
    // A layer takes at least two bytes: its tag and a one-byte parameter.
    let mut layers = Vec::with_capacity(layer_count.min(c.len() / 2));
    for _ in 0..layer_count {
        let tag = c.u8()?;
        let param = c.varint()?;
        if param == 0 && tag != 3 {
            return Err(ProfileError::Corrupt("zero layer parameter".into()));
        }
        let layer = match tag {
            // lint: allow(L018, checked_usize formats lazily and only when a u64 cannot narrow to usize on a 32-bit host)
            0 => LayerSpec::TemporalRequestCount(checked_usize(param, "layer parameter")?),
            1 => LayerSpec::TemporalCycleCount(param),
            // lint: allow(L018, checked_usize formats lazily and only when a u64 cannot narrow to usize on a 32-bit host)
            2 => LayerSpec::TemporalIntervalCount(checked_usize(param, "layer parameter")?),
            3 => LayerSpec::SpatialDynamic,
            4 => LayerSpec::SpatialFixed(param),
            t => {
                return Err(ProfileError::UnknownTag {
                    what: "layer",
                    tag: t,
                })
            }
        };
        layers.push(layer);
    }
    let options_byte = c.u8()?;
    let model_options = ModelOptions {
        strict_convergence: options_byte & 1 != 0,
        merge_lonely: options_byte & 2 != 0,
        merge_similar: options_byte & 4 != 0,
    };
    // Layer count and parameters were already rejected above when invalid,
    // so the builder cannot actually fail here; map any residual error to
    // Corrupt as belt-and-braces rather than unwrapping.
    let config = HierarchyConfig::builder()
        .layers(layers)
        .options(model_options)
        .build()
        .map_err(|e| ProfileError::Corrupt(e.to_string()))?;

    let leaf_count = limits.check("leaves", c.varint()?, limits.max_leaves)?;
    let mut plan = SynthPlan::default();
    // A leaf takes at least 13 bytes: five one-byte varints and four
    // two-byte constant McCs.
    plan.reserve(leaf_count.min(c.len() / 13));
    let mut checks = RowChecks::default();
    // The request total, `None` once it overflows `u64`.
    let mut total = Some(0u64);
    for _ in 0..leaf_count {
        // lint: allow(L018, decode output construction: the arena growing under a leaf IS the decoded profile, and its error branches allocate only to abort)
        let count = read_leaf(&mut c, limits, &mut plan, &mut checks)?;
        total = total.and_then(|total| total.checked_add(count));
    }
    // Every check `Profile::validate` makes has been made by now except
    // the request total's: each leaf's metadata by `check_parts`, each
    // chain by `RowChecks`.
    if options.validates() && total.is_none() {
        return Err(ProfileError::Invalid(TOTAL_OVERFLOW.into()));
    }
    Ok(Profile::from_plan(config, plan))
}

/// Reads one leaf into `plan`, returning its request count.
fn read_leaf(
    c: &mut ByteCursor<'_, '_>,
    limits: &DecodeLimits,
    plan: &mut SynthPlan,
    checks: &mut RowChecks,
) -> Result<u64, ProfileError> {
    let start_time = c.varint()?;
    let start_address = c.varint()?;
    let range_start = c.varint()?;
    let range_len = c.varint()?;
    let count = c.varint()?;
    let range = AddrRange::from_start_size(range_start, range_len);
    let base = plan.base();
    let delta_time = read_feature(c, limits, plan, checks, base)?;
    let stride = read_feature(c, limits, plan, checks, base)?;
    let op = read_feature(c, limits, plan, checks, base)?;
    let size = read_feature(c, limits, plan, checks, base)?;
    check_parts(start_address, range, count).map_err(ProfileError::Corrupt)?;
    let meta = LeafMeta {
        start_time,
        start_address,
        range,
        count,
    };
    plan.push_leaf(meta, [delta_time, stride, op, size], base);
    Ok(count)
}

/// Reads one feature model of the leaf at `base`, writing a Markov
/// chain's rows straight into `plan`'s arena.
fn read_feature(
    c: &mut ByteCursor<'_, '_>,
    limits: &DecodeLimits,
    plan: &mut SynthPlan,
    checks: &mut RowChecks,
    base: usize,
) -> Result<Feature, ProfileError> {
    match c.u8()? {
        0 => Ok(Feature::Constant(c.zigzag()?)),
        1 => {
            let initial = c.zigzag()?;
            let state_count =
                limits.check("markov states", c.varint()?, limits.max_markov_states)?;
            let arena = plan.arena_mut();
            for _ in 0..state_count {
                let from = c.zigzag()?;
                let edge_count =
                    limits.check("markov edges", c.varint()?, limits.max_markov_edges)?;
                for _ in 0..edge_count {
                    let to = c.zigzag()?;
                    let count = c.varint()?;
                    if count == 0 {
                        return Err(ProfileError::Corrupt("zero transition count".into()));
                    }
                    arena.push_edge(to, count);
                }
                // lint: allow(L018, end_row allocates only for rows out of state order: it builds the seen-state set once per chain)
                if let Err(state) = checks.end_row(arena, from) {
                    // lint: allow(L018, cold error branch: allocates once for the duplicate state, then aborts the decode)
                    return Err(ProfileError::Corrupt(format!(
                        "duplicate markov state {state}"
                    )));
                }
            }
            checks.finish(arena).map_err(ProfileError::Corrupt)?;
            Ok(plan.close_chain(initial, base))
        }
        t => Err(ProfileError::UnknownTag {
            what: "McC",
            tag: t,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::{Request, Trace};

    fn profile_with_variety() -> Profile {
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            let op_write = i % 5 == 0;
            let addr = 0x8000_0000 + (i % 13) * 64 + (i / 50) * 0x10_0000;
            let size = if i % 7 == 0 { 128 } else { 64 };
            let r = if op_write {
                Request::write(i * 11, addr, size)
            } else {
                Request::read(i * 11, addr, size)
            };
            reqs.push(r);
        }
        Profile::fit(
            &Trace::from_requests(reqs),
            &HierarchyConfig::two_level_ts(500),
        )
    }

    #[test]
    fn round_trip_preserves_profile() {
        let profile = profile_with_variety();
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile);
        let back = read_profile(&mut buf.as_slice()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn round_trip_preserves_options() {
        let trace = Trace::from_requests(vec![Request::read(0, 0, 64)]);
        let config =
            HierarchyConfig::two_level_requests_fixed(100, 4096).with_options(ModelOptions {
                strict_convergence: false,
                merge_lonely: false,
                merge_similar: false,
            });
        let profile = Profile::fit(&trace, &config);
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile);
        let back = read_profile(&mut buf.as_slice()).unwrap();
        assert_eq!(back.config(), profile.config());
    }

    #[test]
    fn synthesized_output_identical_after_round_trip() {
        let profile = profile_with_variety();
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile);
        let back = read_profile(&mut buf.as_slice()).unwrap();
        assert_eq!(back.synthesize(42), profile.synthesize(42));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01".to_vec();
        assert!(matches!(
            read_profile(&mut buf.as_slice()),
            Err(ProfileError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile_with_variety());
        buf[4] = 200;
        assert!(matches!(
            read_profile(&mut buf.as_slice()),
            Err(ProfileError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile_with_variety());
        buf.truncate(buf.len() / 2);
        assert!(read_profile(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn hostile_declared_leaf_count_is_limit_exceeded_not_oom() {
        use mocktails_trace::TraceError;
        // Header + 1 layer + options, then a declared 2^60 leaves with no
        // payload behind it. Must fail fast with a typed limit error, not
        // attempt a 2^60-element allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MPRO\x01");
        write_u64(&mut buf, 1); // layer count
        buf.push(3); // SpatialDynamic
        write_u64(&mut buf, 0); // its (ignored) parameter
        buf.push(0b01); // options
        write_u64(&mut buf, 1 << 60); // hostile leaf count
        let err = read_profile(&mut buf.as_slice()).unwrap_err();
        match err {
            ProfileError::Codec(TraceError::LimitExceeded { what, declared, .. }) => {
                assert_eq!(what, "leaves");
                assert_eq!(declared, 1 << 60);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn hostile_markov_counts_are_limit_exceeded() {
        use mocktails_trace::TraceError;
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MPRO\x01");
        write_u64(&mut buf, 1);
        buf.push(3);
        write_u64(&mut buf, 0);
        buf.push(0b01);
        write_u64(&mut buf, 1); // one leaf
                                // Leaf metadata: start_time, start_addr, range_start, range_len, count.
        for v in [0u64, 0, 0, 64, 10] {
            write_u64(&mut buf, v);
        }
        buf.push(1); // delta-time model: markov
        write_i64(&mut buf, 0); // initial state
        write_u64(&mut buf, 1 << 60); // hostile state count
        let err = read_profile(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::Codec(TraceError::LimitExceeded {
                    what: "markov states",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn custom_limits_are_honored() {
        use mocktails_trace::TraceError;
        let profile = profile_with_variety();
        let mut buf = Vec::new();
        write_profile(&mut buf, &profile);
        let tight = DecodeLimits {
            max_leaves: 1,
            ..DecodeLimits::default()
        };
        let err = read_profile_with(
            &mut buf.as_slice(),
            &DecodeOptions::new().with_limits(tight),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ProfileError::Codec(TraceError::LimitExceeded { what: "leaves", .. })
            ),
            "{err:?}"
        );
        // Trusted options accept the same input the defaults do.
        let back = read_profile_with(&mut buf.as_slice(), &DecodeOptions::trusted()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn duplicate_markov_state_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MPRO\x01");
        write_u64(&mut buf, 1);
        buf.push(3);
        write_u64(&mut buf, 0);
        buf.push(0b01);
        write_u64(&mut buf, 1);
        for v in [0u64, 0, 0, 64, 10] {
            write_u64(&mut buf, v);
        }
        buf.push(1); // markov delta-time model
        write_i64(&mut buf, 0);
        write_u64(&mut buf, 2); // two states...
        for _ in 0..2 {
            write_i64(&mut buf, 7); // ...with the same id
            write_u64(&mut buf, 1);
            write_i64(&mut buf, 7);
            write_u64(&mut buf, 3);
        }
        let err = read_profile(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(&err, ProfileError::Corrupt(m) if m.contains("duplicate markov state")),
            "{err:?}"
        );
    }

    /// A one-leaf profile whose delta-time model is a Markov chain from
    /// `initial` with the given `(from, [(to, count)])` rows, written in
    /// that order.
    fn markov_rows(initial: i64, rows: &[(i64, &[(i64, u64)])]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MPRO\x01");
        write_u64(&mut buf, 1);
        buf.push(3);
        write_u64(&mut buf, 0);
        buf.push(0b01);
        write_u64(&mut buf, 1);
        for v in [0u64, 0, 0, 64, 10] {
            write_u64(&mut buf, v);
        }
        buf.push(1);
        write_i64(&mut buf, initial);
        write_u64(&mut buf, rows.len() as u64);
        for &(from, edges) in rows {
            write_i64(&mut buf, from);
            write_u64(&mut buf, edges.len() as u64);
            for &(to, count) in edges {
                write_i64(&mut buf, to);
                write_u64(&mut buf, count);
            }
        }
        for _ in 0..3 {
            buf.push(0);
            write_i64(&mut buf, 64);
        }
        buf
    }

    #[test]
    fn markov_rows_in_any_order_decode_sorted() {
        let rows: [(i64, &[(i64, u64)]); 3] = [(5, &[(-2, 1)]), (-2, &[(9, 2)]), (9, &[(5, 3)])];
        let shuffled = read_profile(&mut markov_rows(5, &rows).as_slice()).unwrap();
        let mut sorted_rows = rows;
        sorted_rows.sort_by_key(|row| row.0);
        let sorted = read_profile(&mut markov_rows(5, &sorted_rows).as_slice()).unwrap();
        assert_eq!(shuffled, sorted);
        let leaf = shuffled.leaves().next().unwrap();
        let crate::McC::Markov(chain) = leaf.delta_time_model() else {
            panic!("expected a Markov delta-time model");
        };
        let states: Vec<i64> = chain.rows().map(|(from, _)| from).collect();
        assert_eq!(states, vec![-2, 5, 9]);
        // Re-encoding writes the rows sorted.
        let mut encoded = Vec::new();
        write_profile(&mut encoded, &shuffled);
        assert_eq!(read_profile(&mut encoded.as_slice()).unwrap(), shuffled);
    }

    #[test]
    fn out_of_order_duplicate_and_empty_rows_are_corrupt() {
        for (rows, want) in [
            (
                &[(5, &[(1, 1)][..]), (1, &[(5, 1)][..]), (5, &[(1, 1)][..])][..],
                "duplicate markov state 5",
            ),
            (&[(5, &[(1, 1)][..]), (1, &[][..])][..], "no out-edges"),
            (
                &[(5, &[(1, 0)][..]), (1, &[(5, 1)][..])][..],
                "zero transition count",
            ),
        ] {
            let err = read_profile(&mut markov_rows(5, rows).as_slice()).unwrap_err();
            assert!(
                matches!(&err, ProfileError::Corrupt(m) if m.contains(want)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn profile_is_smaller_than_structured_trace() {
        // A long, patterned trace should compress to a much smaller profile
        // (the Fig. 17 effect).
        let reqs: Vec<Request> = (0..50_000u64)
            .map(|i| Request::read(i * 4, 0x1000 + (i % 1024) * 64, 64))
            .collect();
        let trace = Trace::from_requests(reqs);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let trace_size = mocktails_trace::codec::trace_encoded_size(&trace);
        let profile_size = profile.metadata_size();
        assert!(
            profile_size * 10 < trace_size,
            "profile {profile_size} B not ≪ trace {trace_size} B"
        );
    }
}
