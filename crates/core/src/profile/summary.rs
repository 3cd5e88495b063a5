//! Profile introspection: the metadata trade-off of Fig. 17, quantified.
//!
//! The paper explains profile sizes by composition: "The amount of
//! metadata required for Mocktails is a trade-off between how many random
//! variables are modeled with a constant versus how many requests each
//! leaf node models" (§V). [`ProfileSummary`] reports exactly that
//! breakdown.

use crate::synth::FeatureRef;

use super::Profile;

/// Aggregate composition of a profile's leaf models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Number of leaf models.
    pub leaves: usize,
    /// Total requests the profile synthesizes.
    pub requests: u64,
    /// Feature models stored as constants (of `4 × leaves` total).
    pub constant_features: usize,
    /// Feature models stored as Markov chains.
    pub markov_features: usize,
    /// Total states across all Markov chains.
    pub markov_states: u64,
    /// Total transition edges across all Markov chains.
    pub markov_edges: u64,
    /// Leaves whose four features are all constants (fully deterministic
    /// replay).
    pub fully_constant_leaves: usize,
}

impl ProfileSummary {
    /// Computes the summary of `profile`.
    pub fn of(profile: &Profile) -> Self {
        let mut summary = Self {
            leaves: profile.plan.leaves().len(),
            requests: profile.total_requests(),
            constant_features: 0,
            markov_features: 0,
            markov_states: 0,
            markov_edges: 0,
            fully_constant_leaves: 0,
        };
        for (_, features) in profile.plan.leaves() {
            let mut constants_here = 0;
            for feature in features {
                match feature {
                    FeatureRef::Constant(_) => {
                        summary.constant_features += 1;
                        constants_here += 1;
                    }
                    FeatureRef::Markov(chain) => {
                        summary.markov_features += 1;
                        summary.markov_states += chain.rows().len() as u64;
                        summary.markov_edges += chain.num_edges() as u64;
                    }
                }
            }
            if constants_here == 4 {
                summary.fully_constant_leaves += 1;
            }
        }
        summary
    }

    /// Fraction of feature models that are constants (0 for an empty
    /// profile).
    pub fn constant_fraction(&self) -> f64 {
        let total = self.constant_features + self.markov_features;
        if total == 0 {
            0.0
        } else {
            self.constant_features as f64 / total as f64
        }
    }

    /// Mean requests per leaf (0 for an empty profile).
    pub fn requests_per_leaf(&self) -> f64 {
        if self.leaves == 0 {
            0.0
        } else {
            self.requests as f64 / self.leaves as f64
        }
    }
}

impl std::fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} leaves over {} requests ({:.1} req/leaf); {:.0}% of feature \
             models constant ({} fully-constant leaves); {} Markov chains \
             with {} states / {} edges",
            self.leaves,
            self.requests,
            self.requests_per_leaf(),
            self.constant_fraction() * 100.0,
            self.fully_constant_leaves,
            self.markov_features,
            self.markov_states,
            self.markov_edges,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;
    use mocktails_trace::{Request, Trace};

    #[test]
    fn fully_linear_trace_is_all_constants() {
        let trace = Trace::from_requests(
            (0..100u64)
                .map(|i| Request::read(i * 10, i * 64, 64))
                .collect(),
        );
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(10_000));
        let s = ProfileSummary::of(&profile);
        assert_eq!(s.constant_fraction(), 1.0);
        assert_eq!(s.fully_constant_leaves, s.leaves);
        assert_eq!(s.markov_features, 0);
        assert_eq!(s.markov_states, 0);
        assert_eq!(s.requests, 100);
    }

    #[test]
    fn irregular_trace_uses_markov_chains() {
        let offsets = [0u64, 7, 3, 9, 1, 6, 2, 8];
        let trace = Trace::from_requests(
            (0..200usize)
                .map(|i| Request::read(i as u64 * 10, 0x1000 + offsets[i % 8] * 64, 64))
                .collect(),
        );
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let s = ProfileSummary::of(&profile);
        assert!(s.markov_features > 0);
        assert!(s.markov_states > 0);
        assert!(s.markov_edges >= s.markov_states);
        assert!(s.constant_fraction() < 1.0);
    }

    #[test]
    fn counts_are_consistent() {
        let trace = Trace::from_requests(
            (0..150u64)
                .map(|i| {
                    if i % 3 == 0 {
                        Request::write(i * 5, 0x2000 + (i % 10) * 64, 128)
                    } else {
                        Request::read(i * 5, 0x2000 + (i % 10) * 64, 64)
                    }
                })
                .collect(),
        );
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(100_000));
        let s = ProfileSummary::of(&profile);
        assert_eq!(s.constant_features + s.markov_features, s.leaves * 4);
        assert_eq!(s.requests, 150);
        assert!(s.requests_per_leaf() > 0.0);
    }

    #[test]
    fn empty_profile_summary() {
        let profile = Profile::fit(&Trace::new(), &HierarchyConfig::two_level_ts(1000));
        let s = ProfileSummary::of(&profile);
        assert_eq!(s.leaves, 0);
        assert_eq!(s.constant_fraction(), 0.0);
        assert_eq!(s.requests_per_leaf(), 0.0);
    }

    #[test]
    fn display_is_informative() {
        let trace = Trace::from_requests(vec![Request::read(0, 0, 64)]);
        let profile = Profile::fit(&trace, &HierarchyConfig::two_level_ts(1000));
        let text = ProfileSummary::of(&profile).to_string();
        assert!(text.contains("1 leaves"));
        assert!(text.contains("constant"));
    }
}
