//! Data-value modeling with differential privacy (the paper's §VI
//! future work).
//!
//! Mocktails models four request features and explicitly leaves the
//! *data* feature for future work: "we envision that techniques such as
//! differential privacy could be applied to obscure sensitive information
//! while allowing patterns to be discerned ... Mocktails' hierarchical
//! partitioning can complement future models by uncovering patterns in
//! the data feature once differential privacy has been applied."
//!
//! This module implements that proposal at the leaf level: a
//! [`ValueModel`] fits a [`McC`] to a value-delta sequence (the same
//! delta-encoding insight the address feature uses — counters, pointers
//! and pixel gradients all have low-entropy deltas), and optionally
//! perturbs the fitted Markov transition counts with the Laplace
//! mechanism so the shared model is ε-differentially private with respect
//! to any single transition observation.
//!
//! ```
//! use mocktails_core::value::ValueModel;
//!
//! // A counter-like data column.
//! let values: Vec<u64> = (0..100u64).map(|i| i * 8).collect();
//! let model = ValueModel::fit(&values, None).unwrap();
//! let out = model.synthesize(100, 7);
//! assert_eq!(out, values); // constant delta: exact replay
//! ```

use mocktails_trace::rng::Prng;
use mocktails_trace::rng::Rng;

use crate::error::ValueError;
use crate::model::McC;
use crate::MarkovChain;

/// Draws Laplace(0, scale) noise via inverse-CDF sampling.
fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Statistics of a value column, for value-locality research (the §VI
/// motivations: approximate computing, value prediction, compression).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueStats {
    /// Number of values observed.
    pub count: usize,
    /// Number of distinct values.
    pub distinct: usize,
    /// Fraction of consecutive pairs with identical values (value
    /// locality in the Lipasti sense).
    pub zero_delta_fraction: f64,
    /// Shannon entropy of the value distribution, in bits.
    pub entropy_bits: f64,
}

impl ValueStats {
    /// Computes statistics over a value sequence.
    pub fn from_values(values: &[u64]) -> Self {
        use std::collections::BTreeMap;
        // A BTreeMap keeps the entropy summation order fixed, so the f64
        // result is bit-stable across runs (L008).
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for &v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        let n = values.len() as f64;
        let entropy_bits = if values.is_empty() {
            0.0
        } else {
            -counts
                .values()
                .map(|&c| {
                    let p = c as f64 / n;
                    p * p.log2()
                })
                .sum::<f64>()
        };
        let zero_deltas = values.windows(2).filter(|w| w[0] == w[1]).count();
        Self {
            count: values.len(),
            distinct: counts.len(),
            zero_delta_fraction: if values.len() < 2 {
                0.0
            } else {
                zero_deltas as f64 / (values.len() - 1) as f64
            },
            entropy_bits,
        }
    }
}

/// A statistical model of one leaf's data values.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueModel {
    start: u64,
    deltas: McC,
    /// The ε used when fitting, `None` for a noise-free model.
    epsilon: Option<f64>,
}

impl ValueModel {
    /// Fits a model to a value sequence. With `epsilon = Some(ε)` the
    /// fitted Markov transition counts are perturbed by Laplace(1/ε)
    /// noise (rounded, floored at zero, empty rows dropped), making the
    /// released model ε-differentially private per transition. Smaller ε
    /// means stronger privacy and a coarser model.
    ///
    /// The noise RNG is seeded from the data length so fitting stays
    /// deterministic; a release pipeline would use an external entropy
    /// source.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::EmptyColumn`] if `values` is empty and
    /// [`ValueError::NonPositiveEpsilon`] if ε is not strictly positive.
    pub fn fit(values: &[u64], epsilon: Option<f64>) -> Result<Self, ValueError> {
        if values.is_empty() {
            return Err(ValueError::EmptyColumn);
        }
        if let Some(e) = epsilon {
            // NaN is rejected too: only Greater grants a privacy budget.
            if e.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(ValueError::NonPositiveEpsilon(e));
            }
        }
        let deltas: Vec<i64> = values
            .windows(2)
            .map(|w| w[1].wrapping_sub(w[0]) as i64)
            .collect();
        let mut model = McC::fit_or(&deltas, 0);
        if let (Some(eps), McC::Markov(chain)) = (epsilon, &model) {
            model = perturb(chain, eps, values.len() as u64);
        }
        Ok(Self {
            start: values[0],
            deltas: model,
            epsilon,
        })
    }

    /// The first observed value (anchors synthesis).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// The fitted delta model.
    pub fn delta_model(&self) -> &McC {
        &self.deltas
    }

    /// The privacy budget the model was fitted with.
    pub fn epsilon(&self) -> Option<f64> {
        self.epsilon
    }

    /// Synthesizes `n` values. Strict convergence only applies to
    /// noise-free models (perturbed counts no longer sum to the observed
    /// transition count, so the sampler runs stationary).
    pub fn synthesize(&self, n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Prng::seed_from_u64(seed);
        let strict = self.epsilon.is_none();
        let mut sampler = self.deltas.sampler(strict);
        let mut out = Vec::with_capacity(n);
        let mut value = self.start;
        for i in 0..n {
            if i > 0 {
                value = value.wrapping_add(sampler.next_value(&mut rng) as u64);
            }
            out.push(value);
        }
        out
    }
}

/// Applies the Laplace mechanism to a fitted chain's transition counts.
fn perturb(chain: &MarkovChain, epsilon: f64, seed: u64) -> McC {
    let mut rng = Prng::seed_from_u64(seed ^ 0xD1FF_C0DE);
    let scale = 1.0 / epsilon;
    let mut transitions = std::collections::BTreeMap::new();
    for (from, edges) in chain.rows() {
        let mut noisy: Vec<(i64, u64)> = edges
            .iter()
            .filter_map(|&(to, count)| {
                let perturbed = count as f64 + laplace(&mut rng, scale);
                let rounded = perturbed.round();
                (rounded >= 1.0).then_some((to, rounded as u64))
            })
            .collect();
        noisy.sort_unstable();
        if !noisy.is_empty() {
            transitions.insert(from, noisy);
        }
    }
    if transitions.is_empty() {
        // Everything was noised away: fall back to the initial value.
        McC::Constant(chain.initial())
    } else {
        McC::Markov(MarkovChain::from_parts(chain.initial(), transitions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_replays_exactly() {
        let values: Vec<u64> = (0..50u64).map(|i| 1000 + i * 4).collect();
        let model = ValueModel::fit(&values, None).unwrap();
        assert!(model.delta_model().is_constant());
        assert_eq!(model.synthesize(50, 0), values);
    }

    #[test]
    fn repeating_pattern_preserves_multiset() {
        // Pixel-gradient-like data: small deltas cycling.
        let mut values = vec![100u64];
        for i in 0..99 {
            let delta = [1i64, 1, 2, -3][i % 4];
            values.push(values.last().unwrap().wrapping_add(delta as u64));
        }
        let model = ValueModel::fit(&values, None).unwrap();
        let out = model.synthesize(100, 3);
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], 100);
        // Strict convergence: the delta multiset is exact, so the final
        // value matches (sum of deltas is order-independent).
        assert_eq!(out.last(), values.last());
    }

    #[test]
    fn dp_model_differs_but_stays_in_family() {
        let mut values = vec![0u64];
        for i in 0..199 {
            let delta = [8i64, 8, 8, -16, 8][i % 5];
            values.push(values.last().unwrap().wrapping_add(delta as u64));
        }
        let clean = ValueModel::fit(&values, None).unwrap();
        let private = ValueModel::fit(&values, Some(0.5)).unwrap();
        assert_eq!(private.epsilon(), Some(0.5));
        assert_ne!(clean, private, "noise must perturb the model");
        // Synthesized values still only move by observed deltas.
        let out = private.synthesize(200, 9);
        for w in out.windows(2) {
            let d = w[1].wrapping_sub(w[0]) as i64;
            assert!([8, -16].contains(&d), "unexpected delta {d}");
        }
    }

    #[test]
    fn dp_fitting_is_deterministic() {
        let values: Vec<u64> = (0..100u64).map(|i| (i * i) % 97).collect();
        assert_eq!(
            ValueModel::fit(&values, Some(1.0)).unwrap(),
            ValueModel::fit(&values, Some(1.0)).unwrap()
        );
    }

    #[test]
    fn tiny_epsilon_degrades_to_heavy_noise() {
        let values: Vec<u64> = (0..100u64).map(|i| (i * 7) % 13).collect();
        // With a huge privacy budget the model barely changes; with a tiny
        // one, the transition structure is strongly perturbed.
        let loose = ValueModel::fit(&values, Some(100.0)).unwrap();
        let clean = ValueModel::fit(&values, None).unwrap();
        if let (McC::Markov(a), McC::Markov(b)) = (loose.delta_model(), clean.delta_model()) {
            assert_eq!(a.num_states(), b.num_states(), "ε=100 barely perturbs");
        } else {
            panic!("expected Markov models");
        }
    }

    #[test]
    fn single_value_column() {
        let model = ValueModel::fit(&[42], None).unwrap();
        assert_eq!(model.synthesize(3, 0), vec![42, 42, 42]);
    }

    #[test]
    fn empty_column_is_a_typed_error() {
        assert_eq!(ValueModel::fit(&[], None), Err(ValueError::EmptyColumn));
    }

    #[test]
    fn non_positive_epsilon_is_a_typed_error() {
        assert_eq!(
            ValueModel::fit(&[1, 2], Some(0.0)),
            Err(ValueError::NonPositiveEpsilon(0.0))
        );
        assert!(matches!(
            ValueModel::fit(&[1, 2], Some(f64::NAN)),
            Err(ValueError::NonPositiveEpsilon(e)) if e.is_nan()
        ));
    }

    #[test]
    fn value_stats_basics() {
        let stats = ValueStats::from_values(&[5, 5, 5, 7]);
        assert_eq!(stats.count, 4);
        assert_eq!(stats.distinct, 2);
        assert!((stats.zero_delta_fraction - 2.0 / 3.0).abs() < 1e-9);
        // Entropy of {3/4, 1/4}.
        let expect = -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((stats.entropy_bits - expect).abs() < 1e-9);
    }

    #[test]
    fn value_stats_empty_and_single() {
        let empty = ValueStats::from_values(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.entropy_bits, 0.0);
        let one = ValueStats::from_values(&[9]);
        assert_eq!(one.zero_delta_fraction, 0.0);
        assert_eq!(one.distinct, 1);
    }

    #[test]
    fn constant_column_has_zero_entropy_full_locality() {
        let stats = ValueStats::from_values(&[3; 100]);
        assert_eq!(stats.entropy_bits, 0.0);
        assert_eq!(stats.zero_delta_fraction, 1.0);
    }
}
