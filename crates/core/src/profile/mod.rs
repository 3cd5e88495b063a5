//! Statistical profiles: the distributable artifact of Mocktails.
//!
//! A [`Profile`] is the collection of leaf models produced by hierarchical
//! partitioning plus the hierarchy configuration itself. It is the artifact
//! industry would share in the paper's Fig. 1 workflow: it reveals only
//! per-region feature statistics — never the original request sequence —
//! and is typically far smaller than the trace (Fig. 17).

mod codec;
mod record;
mod summary;

pub use codec::{read_profile, read_profile_with, write_profile};
pub use record::{ProfileRecord, RECORD_TAG_PROFILE};
pub use summary::ProfileSummary;

use std::sync::Arc;

use mocktails_pool::Parallelism;
use mocktails_trace::{fnv1a, DecodeOptions, Trace};

use crate::config::HierarchyConfig;
use crate::model::LeafModel;
use crate::partition::hierarchy::Leaves;
use crate::synth::{FeatureRef, LeafMeta, SynthPlan, Synthesizer};
use crate::ProfileError;

/// A Mocktails statistical profile.
///
/// A profile holds its leaves in the one layout synthesis reads (a
/// [`SynthPlan`]): leaf metadata in one table and every Markov chain in
/// one arena. The fit and the decoder write that layout directly, and
/// synthesizers share it.
///
/// ```
/// use mocktails_core::{HierarchyConfig, Profile};
/// use mocktails_trace::{DecodeOptions, Request, Trace};
///
/// let trace = Trace::from_requests(
///     (0..200u64).map(|i| Request::read(i * 5, 0x4000 + (i % 32) * 64, 64)).collect(),
/// );
/// let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100));
///
/// // Round-trip through the binary format.
/// let mut buf = Vec::new();
/// profile.write(&mut buf)?;
/// let back = Profile::read(&mut buf.as_slice(), &DecodeOptions::default())?;
/// assert_eq!(back, profile);
///
/// // Option A: synthesize a stand-alone trace.
/// let synthetic = profile.synthesize(7);
/// assert_eq!(synthetic.len(), trace.len());
/// # Ok::<(), mocktails_core::ProfileError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    config: HierarchyConfig,
    plan: Arc<SynthPlan>,
}

impl Profile {
    /// Fits a profile: partitions `trace` per `config` and models every
    /// leaf (the paper's *model generator*), fanning the work out across
    /// [`Parallelism::current`] worker threads.
    pub fn fit(trace: &Trace, config: &HierarchyConfig) -> Self {
        Self::fit_with(trace, config, Parallelism::current())
    }

    /// [`Profile::fit`] with an explicit thread count.
    ///
    /// The first layer of the hierarchy is applied once. Its leaves (the
    /// phases, under a temporal first layer) are then cut into one run
    /// per thread, of about equal request counts, and each worker applies
    /// the remaining layers to its run and fits the leaves it yields into
    /// its own fragment of the profile. The fragments are joined in
    /// order, and every layer splits each leaf on its own, so the leaves
    /// come out in the same order at any thread count and the profile is
    /// bit-identical.
    pub fn fit_with(trace: &Trace, config: &HierarchyConfig, parallelism: Parallelism) -> Self {
        let layers = config.layers();
        let (first, rest) = layers.split_at(layers.len().min(1));
        let top = Leaves::of(trace).apply(first, config.options());
        let groups = top.groups(parallelism.threads());
        let fragments = parallelism.map(&groups, |group| {
            let leaves = group.view().apply(rest, config.options());
            let mut fragment = SynthPlan::default();
            let mut pairs = Vec::new();
            for leaf in leaves.iter() {
                fragment.push_fitted(leaf, &mut pairs);
            }
            fragment
        });
        Self::from_plan(config.clone(), SynthPlan::concat(fragments))
    }

    /// Builds a profile from explicit parts (used by baselines that
    /// substitute their own leaf models), laying the leaves out once.
    pub fn from_parts(config: HierarchyConfig, leaves: Vec<LeafModel>) -> Self {
        let strict = config.options().strict_convergence;
        Self {
            config,
            plan: Arc::new(SynthPlan::new(&leaves, strict)),
        }
    }

    /// A profile holding `plan`, written leaf by leaf.
    fn from_plan(config: HierarchyConfig, plan: SynthPlan) -> Self {
        let plan = plan.seal(config.options().strict_convergence);
        Self {
            config,
            plan: Arc::new(plan),
        }
    }

    /// The hierarchy configuration the profile was fitted with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// The leaf models, in leaf order, each copied out of the profile's
    /// layout into an owned [`LeafModel`].
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = LeafModel> + '_ {
        self.plan.leaf_models()
    }

    /// Total requests the profile will synthesize.
    pub fn total_requests(&self) -> u64 {
        self.plan.total_requests()
    }

    /// Creates a streaming synthesizer (Fig. 1, Option B: couple it to a
    /// simulator and feed backpressure through
    /// [`Synthesizer::add_delay`]). It shares the profile's
    /// [`SynthPlan`], so starting one costs O(1).
    pub fn synthesizer(&self, seed: u64) -> Synthesizer {
        Synthesizer::from_plan(self.synth_plan(), seed)
    }

    /// The profile's leaves in the layout synthesis reads, shared: the
    /// profile holds its leaves in this form, so this is a reference
    /// count, not a copy.
    pub fn synth_plan(&self) -> Arc<SynthPlan> {
        Arc::clone(&self.plan)
    }

    /// Synthesizes a complete trace (Fig. 1, Option A).
    pub fn synthesize(&self, seed: u64) -> Trace {
        self.synthesizer(seed).into_trace()
    }

    /// Checks the profile's semantic invariants: each leaf models at least
    /// one request anchored inside its address range, the total request
    /// count fits in `u64`, and every Markov feature model passes
    /// [`crate::MarkovChain::validate`] (positive counts, bounded row
    /// totals, normalized rows).
    ///
    /// A validated [`Profile::read`] (the default [`DecodeOptions`])
    /// makes every one of these checks while it reads, rather than in a
    /// second walk: each leaf's metadata as the leaf is built, each
    /// chain's rows as they close, and the request total after the last
    /// leaf. So a decoded profile is always safe to synthesize from;
    /// profiles assembled via [`Profile::from_parts`] should be validated
    /// before synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Invalid`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let mut total: u64 = 0;
        let fault = self
            .plan
            .leaves()
            .enumerate()
            .find_map(|(i, (meta, features))| {
                check_leaf(meta, features, &mut total)
                    .err()
                    .map(|fault| (i, fault))
            });
        fault.map_or(Ok(()), |(i, fault)| Err(fault.into_error(i)))
    }

    /// Validates the profile, then synthesizes a complete trace.
    ///
    /// The fallible counterpart to [`Profile::synthesize`] for profiles of
    /// untrusted provenance: instead of risking a panic or runaway loop
    /// inside the samplers, semantic violations surface as a typed error
    /// before any request is generated.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::Invalid`] if [`Profile::validate`] rejects
    /// the profile.
    pub fn try_synthesize(&self, seed: u64) -> Result<Trace, ProfileError> {
        self.validate()?;
        Ok(self.synthesize(seed))
    }

    /// Serializes the profile to `w` in the compact binary format: encodes
    /// it with [`write_profile`], then hands `w` the bytes in one
    /// `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> Result<(), ProfileError> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// The profile's canonical encoding.
    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        codec::write_profile(&mut bytes, self);
        bytes
    }

    /// Deserializes a profile written by [`Profile::write`] from the front
    /// of `r` under the given [`DecodeOptions`], advancing `r` past it.
    /// With [`DecodeOptions::default`] the decode is fully guarded: the
    /// resource limits, and every invariant of [`Profile::validate`],
    /// checked as the bytes are read. [`DecodeOptions::trusted`], for
    /// locally-produced inputs, lifts the limits and skips the one check
    /// validation adds to the structural decode, the request total's
    /// overflow; every leaf and chain is still checked.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] for malformed or truncated input.
    pub fn read(r: &mut &[u8], options: &DecodeOptions) -> Result<Self, ProfileError> {
        codec::read_profile_with(r, options)
    }

    /// Composition summary: constants vs Markov chains per feature — the
    /// metadata trade-off the paper discusses around Fig. 17.
    pub fn summary(&self) -> ProfileSummary {
        ProfileSummary::of(self)
    }

    /// FNV-1a fingerprint of the profile's canonical binary encoding.
    ///
    /// Because encoding is deterministic, equal profiles always hash
    /// equal; the serving layer uses this digest as the cache key under
    /// which a profile is stored and later addressed by `Synthesize`
    /// requests.
    pub fn content_fingerprint(&self) -> u64 {
        fnv1a(&self.encode())
    }

    /// Size of the serialized profile in bytes — the metadata overhead of
    /// Fig. 17.
    pub fn metadata_size(&self) -> u64 {
        self.encode().len() as u64
    }
}

/// [`Profile::validate`]'s message for a request total past `u64::MAX`,
/// which the decoder reports too.
const TOTAL_OVERFLOW: &str = "total request count overflows u64";

/// The first invariant a leaf breaks in [`Profile::validate`].
enum LeafFault {
    ZeroCount,
    StartOutsideRange,
    TotalOverflow,
    /// A feature's Markov chain failed [`crate::MarkovChain::validate`].
    Model(&'static str, String),
}

impl LeafFault {
    fn into_error(self, leaf: usize) -> ProfileError {
        ProfileError::Invalid(match self {
            LeafFault::ZeroCount => format!("leaf {leaf} declares zero requests"),
            LeafFault::StartOutsideRange => format!("leaf {leaf} start address outside its range"),
            LeafFault::TotalOverflow => TOTAL_OVERFLOW.to_string(),
            LeafFault::Model(feature, msg) => format!("leaf {leaf} {feature} model: {msg}"),
        })
    }
}

/// Checks one leaf for [`Profile::validate`], adding its request count
/// to `total`.
fn check_leaf<'a>(
    meta: &LeafMeta,
    features: impl Iterator<Item = FeatureRef<'a>>,
    total: &mut u64,
) -> Result<(), LeafFault> {
    if meta.count == 0 {
        return Err(LeafFault::ZeroCount);
    }
    if !meta.range.contains(meta.start_address) {
        return Err(LeafFault::StartOutsideRange);
    }
    *total = total
        .checked_add(meta.count)
        .ok_or(LeafFault::TotalOverflow)?;
    for (feature, model) in ["delta-time", "stride", "op", "size"]
        .into_iter()
        .zip(features)
    {
        if let FeatureRef::Markov(chain) = model {
            chain
                .check()
                .map_err(|msg| LeafFault::Model(feature, msg))?;
        }
    }
    Ok(())
}

/// Cache key for a fit request: the digest of the *inputs* to fitting —
/// the raw trace bytes (pre-hashed by the caller with
/// [`mocktails_trace::fnv1a`]) and the hierarchy configuration, hashed via
/// its canonical profile encoding.
///
/// By the workspace's determinism invariant, equal inputs produce
/// bit-identical profiles at any thread count, so a fit served from a
/// cache under this key is indistinguishable from a fresh fit. The serving
/// layer uses it to skip refitting entirely on repeat uploads.
pub fn fit_key(trace_bytes_fingerprint: u64, config: &HierarchyConfig) -> u64 {
    let mut bytes = trace_bytes_fingerprint.to_le_bytes().to_vec();
    codec::write_config(&mut bytes, config);
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelOptions;
    use mocktails_trace::Request;

    fn mixed_trace() -> Trace {
        let mut reqs = Vec::new();
        for i in 0..100u64 {
            reqs.push(Request::read(i * 10, 0x1000 + (i % 20) * 64, 64));
            if i % 4 == 0 {
                reqs.push(Request::write(i * 10 + 3, 0x20_0000 + i * 128, 128));
            }
        }
        Trace::from_requests(reqs)
    }

    #[test]
    fn fit_produces_leaves_covering_trace() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        assert!(profile.leaves().len() > 1);
        assert_eq!(profile.total_requests(), trace.len() as u64);
    }

    #[test]
    fn synthesis_matches_request_and_op_counts() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        let synthetic = profile.synthesize(5);
        assert_eq!(synthetic.len(), trace.len());
        assert_eq!(synthetic.reads(), trace.reads());
        assert_eq!(synthetic.writes(), trace.writes());
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        assert_eq!(profile.synthesize(1), profile.synthesize(1));
    }

    #[test]
    fn different_seeds_differ_for_stochastic_profiles() {
        // A trace with genuinely random strides so the Markov sampling has
        // choices to make.
        let mut reqs = Vec::new();
        let offsets = [0u64, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9];
        for (i, &o) in offsets.iter().cycle().take(200).enumerate() {
            reqs.push(Request::read(i as u64 * 7, 0x1000 + o * 64, 64));
        }
        let trace = Trace::from_requests(reqs);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100));
        // Same length either way...
        assert_eq!(profile.synthesize(1).len(), profile.synthesize(2).len());
    }

    #[test]
    fn empty_trace_profile() {
        let profile = Profile::fit(&Trace::new(), &HierarchyConfig::two_level_ts(100));
        assert_eq!(profile.total_requests(), 0);
        assert!(profile.synthesize(0).is_empty());
    }

    #[test]
    fn metadata_size_is_positive_and_matches_encoding() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        let mut buf = Vec::new();
        profile.write(&mut buf).unwrap();
        assert_eq!(profile.metadata_size(), buf.len() as u64);
        assert!(profile.metadata_size() > 0);
    }

    #[test]
    fn fitted_profiles_validate() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        profile.validate().unwrap();
        assert_eq!(profile.try_synthesize(5).unwrap(), profile.synthesize(5));
    }

    #[test]
    fn overflowing_total_request_count_is_invalid() {
        use crate::model::McC;
        use mocktails_trace::AddrRange;
        let leaf = |count| {
            LeafModel::from_parts(
                0,
                0,
                AddrRange::new(0, 64),
                count,
                McC::Constant(1),
                McC::Constant(0),
                McC::Constant(0),
                McC::Constant(64),
            )
        };
        let profile = Profile::from_parts(
            HierarchyConfig::two_level_ts(100),
            vec![leaf(u64::MAX), leaf(2)],
        );
        let err = profile.validate().unwrap_err();
        assert!(matches!(err, ProfileError::Invalid(_)), "{err}");
        assert!(profile.try_synthesize(0).is_err());
    }

    #[test]
    fn content_fingerprint_matches_encoded_bytes() {
        let trace = mixed_trace();
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(200));
        let mut buf = Vec::new();
        profile.write(&mut buf).unwrap();
        assert_eq!(profile.content_fingerprint(), mocktails_trace::fnv1a(&buf));
        // Distinct profiles hash distinct.
        let other = Profile::fit(&trace, &HierarchyConfig::two_level_ts(500));
        assert_ne!(profile.content_fingerprint(), other.content_fingerprint());
    }

    #[test]
    fn fit_key_separates_trace_and_config_inputs() {
        let a = HierarchyConfig::two_level_ts(100);
        let b = HierarchyConfig::two_level_ts(200);
        assert_eq!(fit_key(1, &a), fit_key(1, &a));
        assert_ne!(fit_key(1, &a), fit_key(2, &a));
        assert_ne!(fit_key(1, &a), fit_key(1, &b));
    }

    #[test]
    fn fit_key_values_are_pinned() {
        // Fit keys are persisted in the store's log and checkpoints, and a
        // restarted server finds repeat uploads by them: a change to the
        // digest or to the config encoding orphans every stored alias.
        let config =
            HierarchyConfig::two_level_requests_fixed(1024, 4096).with_options(ModelOptions {
                strict_convergence: false,
                merge_lonely: true,
                merge_similar: true,
            });
        assert_eq!(
            fit_key(1, &HierarchyConfig::two_level_ts(500_000)),
            0xa3ae_d782_c5eb_5e9d
        );
        assert_eq!(fit_key(0xfeed_beef, &config), 0xdbc1_0f95_2291_53e3);
    }

    #[test]
    fn non_strict_option_still_synthesizes_full_length() {
        let trace = mixed_trace();
        let config = HierarchyConfig::two_level_ts(200).with_options(ModelOptions {
            strict_convergence: false,
            merge_lonely: true,
            merge_similar: false,
        });
        let profile = Profile::fit(&trace, &config);
        assert_eq!(profile.synthesize(3).len(), trace.len());
    }
}
