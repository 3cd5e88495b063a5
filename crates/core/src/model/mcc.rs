//! The McC (Markov chain or Constant) per-feature model.

use mocktails_trace::rng::Rng;

use super::{MarkovChain, MarkovSampler};

/// A per-feature model: a **C**onstant when the feature shows no
/// variability in the leaf, otherwise a **M**arkov **c**hain (paper
/// §III-B: "We call our approach, choosing between a Markov chain or
/// Constant value, the McC model").
///
/// ```
/// use mocktails_core::McC;
///
/// assert!(matches!(McC::fit(&[64, 64, 64]), McC::Constant(64)));
/// assert!(matches!(McC::fit(&[64, 8, 64]), McC::Markov(_)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McC {
    /// The feature always takes this value.
    Constant(i64),
    /// The feature varies; transitions between observed values are modeled.
    Markov(MarkovChain),
}

impl McC {
    /// Fits a model to an observed value sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is empty; use [`McC::fit_or`] when a feature
    /// may legitimately have no observations (e.g. strides of a
    /// single-request leaf).
    pub fn fit(sequence: &[i64]) -> Self {
        assert!(!sequence.is_empty(), "cannot fit McC to no values");
        let first = sequence[0];
        if sequence.iter().all(|&v| v == first) {
            McC::Constant(first)
        } else {
            McC::Markov(MarkovChain::fit(sequence))
        }
    }

    /// Fits a model, returning `Constant(default)` for an empty sequence.
    pub fn fit_or(sequence: &[i64], default: i64) -> Self {
        if sequence.is_empty() {
            McC::Constant(default)
        } else {
            Self::fit(sequence)
        }
    }

    /// Returns `true` for the constant variant.
    pub fn is_constant(&self) -> bool {
        matches!(self, McC::Constant(_))
    }

    /// Creates a streaming sampler (see [`MarkovSampler`] for the meaning
    /// of `strict`).
    pub fn sampler(&self, strict: bool) -> McCSampler {
        match self {
            McC::Constant(v) => McCSampler::Constant(*v),
            McC::Markov(chain) => McCSampler::Markov(Box::new(chain.sampler(strict))),
        }
    }

    /// Generates `n` values at once.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, strict: bool, rng: &mut R) -> Vec<i64> {
        let mut sampler = self.sampler(strict);
        (0..n).map(|_| sampler.next_value(rng)).collect()
    }
}

/// Streaming sampler for a [`McC`] model.
#[derive(Debug, Clone)]
pub enum McCSampler {
    /// Emits the same value forever.
    Constant(i64),
    /// Walks the fitted Markov chain.
    Markov(Box<MarkovSampler>),
}

impl McCSampler {
    /// Emits the next value.
    pub fn next_value<R: Rng + ?Sized>(&mut self, rng: &mut R) -> i64 {
        match self {
            McCSampler::Constant(v) => *v,
            McCSampler::Markov(s) => s.next_state(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mocktails_trace::rng::Prng;

    #[test]
    fn constant_when_uniform() {
        let m = McC::fit(&[7, 7, 7, 7]);
        assert_eq!(m, McC::Constant(7));
        assert!(m.is_constant());
    }

    #[test]
    fn markov_when_varying() {
        let m = McC::fit(&[1, 2, 1]);
        assert!(!m.is_constant());
    }

    #[test]
    fn fit_or_defaults_on_empty() {
        assert_eq!(McC::fit_or(&[], 9), McC::Constant(9));
        assert_eq!(McC::fit_or(&[3, 3], 9), McC::Constant(3));
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn fit_empty_panics() {
        let _ = McC::fit(&[]);
    }

    #[test]
    fn constant_generates_constant() {
        let mut rng = Prng::seed_from_u64(0);
        let out = McC::Constant(5).generate(10, true, &mut rng);
        assert_eq!(out, vec![5; 10]);
    }

    #[test]
    fn markov_generation_preserves_multiset_under_strict() {
        let seq = [1i64, 2, 1, 3, 1, 2, 2, 3];
        let m = McC::fit(&seq);
        let mut rng = Prng::seed_from_u64(4);
        let mut out = m.generate(seq.len(), true, &mut rng);
        let mut expect = seq.to_vec();
        out.sort_unstable();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn single_observation_is_constant() {
        // A leaf with one request has one op/size observation.
        assert_eq!(McC::fit(&[128]), McC::Constant(128));
    }
}
