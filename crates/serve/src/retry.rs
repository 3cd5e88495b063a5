//! Jittered exponential backoff for `Busy` rejections.
//!
//! The server sheds load with typed `Busy` frames rather than queueing
//! unboundedly (PR 4). A polite client retries those — but naive
//! fixed-delay retries from many clients synchronize into thundering
//! herds that re-saturate the queue at the same instant. The standard
//! fix is exponential backoff with *half-to-full jitter*: attempt `n`
//! sleeps a uniform draw from `[cap/2, cap)` where
//! `cap = base * 2^n` (clamped to a maximum), which decorrelates
//! clients while keeping a deterministic, seedable schedule for tests.
//!
//! The sleep itself is injected as a closure so unit tests record the
//! schedule instead of actually waiting, and the jitter stream is the
//! workspace [`Prng`] — the same seed always produces the same delays.

use mocktails_trace::rng::{Prng, Rng};

/// Backoff schedule for retrying `Busy` rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay cap for the first retry, in microseconds; doubles per
    /// attempt. Caps below 2 are raised to 2, so the jitter window
    /// `[cap/2, cap)` is never empty.
    pub base_delay_micros: u64,
    /// Upper clamp on the delay cap, in microseconds.
    pub max_delay_micros: u64,
    /// Retries after the initial attempt; `0` disables retrying.
    pub max_retries: u32,
    /// Seed for the jitter stream. Two clients with different seeds
    /// draw decorrelated schedules; the same seed replays identically.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_delay_micros: 2_000,
            max_delay_micros: 500_000,
            max_retries: 6,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The full delay schedule this policy would sleep through if every
    /// attempt came back `Busy`: one entry per retry, half-to-full
    /// jittered, deterministic in `jitter_seed`.
    pub fn schedule(&self) -> Vec<u64> {
        let mut rng = Prng::seed_from_u64(self.jitter_seed);
        (0..self.max_retries)
            .map(|attempt| self.delay_for(attempt, &mut rng))
            .collect()
    }

    /// Draws the jittered delay for 0-based retry `attempt`.
    fn delay_for(&self, attempt: u32, rng: &mut Prng) -> u64 {
        let cap = self
            .base_delay_micros
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.max_delay_micros.max(self.base_delay_micros))
            .max(2);
        rng.gen_range(cap / 2..cap)
    }
}

/// Runs `operation` under `policy`, sleeping via `sleep_micros` between
/// `Busy` rejections. Any other outcome — success or a different error —
/// is returned immediately; retries never mask real failures.
///
/// # Errors
///
/// The final `Busy` error once retries are exhausted, or the first
/// non-`Busy` error.
pub fn retry_busy<T, F, S>(
    policy: &RetryPolicy,
    mut sleep_micros: S,
    mut operation: F,
) -> Result<T, crate::ServeError>
where
    F: FnMut() -> Result<T, crate::ServeError>,
    S: FnMut(u64),
{
    let mut rng = Prng::seed_from_u64(policy.jitter_seed);
    let mut attempt = 0u32;
    loop {
        match operation() {
            Err(crate::ServeError::Remote { code, .. })
                if code == crate::ErrorCode::Busy && attempt < policy.max_retries =>
            {
                sleep_micros(policy.delay_for(attempt, &mut rng));
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorCode, ServeError};

    fn busy() -> ServeError {
        ServeError::Remote {
            code: ErrorCode::Busy,
            message: "queue full".into(),
        }
    }

    #[test]
    fn schedule_is_deterministic_and_half_to_full_jittered() {
        let policy = RetryPolicy {
            base_delay_micros: 1_000,
            max_delay_micros: 8_000,
            max_retries: 6,
            jitter_seed: 7,
        };
        let schedule = policy.schedule();
        assert_eq!(schedule, policy.schedule(), "same seed, same delays");
        assert_eq!(schedule.len(), 6);
        // Caps double then clamp: 1000, 2000, 4000, 8000, 8000, 8000.
        for (i, (&delay, cap)) in schedule
            .iter()
            .zip([1_000u64, 2_000, 4_000, 8_000, 8_000, 8_000])
            .enumerate()
        {
            assert!(
                (cap / 2..cap).contains(&delay),
                "retry {i}: {delay} outside [{}, {cap})",
                cap / 2
            );
        }
        let other = RetryPolicy {
            jitter_seed: 8,
            ..policy
        };
        assert_ne!(schedule, other.schedule(), "seeds decorrelate clients");

        // Bases below 2 floor the cap at 2 rather than panicking: the
        // window is [1, 2) until the doubling passes 2.
        for base in [0u64, 1] {
            let tiny = RetryPolicy {
                base_delay_micros: base,
                ..policy
            };
            let schedule = tiny.schedule();
            assert_eq!(schedule, tiny.schedule(), "base {base}: same delays");
            assert_eq!(schedule.len(), 6);
            for (i, &delay) in schedule.iter().enumerate() {
                let cap = (base << i).clamp(2, 8_000);
                assert!(
                    (cap / 2..cap).contains(&delay),
                    "base {base}, retry {i}: {delay} outside [{}, {cap})",
                    cap / 2
                );
            }
        }
    }

    /// Golden schedule: the exact microsecond delays for two fixed
    /// policies. Any change to the PRNG, the draw order, or the window
    /// arithmetic shows up here as a literal diff — the contract is that
    /// recorded experiments replay the same backoff forever.
    #[test]
    fn golden_schedules_are_pinned_to_the_exact_delays() {
        let policy = RetryPolicy {
            base_delay_micros: 2_000,
            max_delay_micros: 500_000,
            max_retries: 8,
            jitter_seed: 0xc0ffee,
        };
        assert_eq!(
            policy.schedule(),
            [1_070, 3_121, 7_759, 10_523, 31_461, 41_848, 84_823, 253_898],
        );

        // A tight cap: windows clamp to [200, 400) from retry 2 onward,
        // but the draws keep advancing the jitter stream, so the capped
        // tail still varies draw to draw.
        let capped = RetryPolicy {
            base_delay_micros: 100,
            max_delay_micros: 400,
            max_retries: 6,
            jitter_seed: 1,
        };
        let schedule = capped.schedule();
        assert_eq!(schedule, [85, 152, 314, 278, 339, 228]);
        for &delay in &schedule[2..] {
            assert!(
                (200..400).contains(&delay),
                "capped draws must stay in [cap/2, cap): {delay}"
            );
        }
    }

    /// `retry_busy` must consume the same jitter stream `schedule()`
    /// describes: the sleeps a retrying call records are a prefix of the
    /// pinned schedule, and only `Busy` consumes a draw.
    #[test]
    fn injected_sleeps_replay_the_pinned_schedule_prefix() {
        let policy = RetryPolicy {
            base_delay_micros: 2_000,
            max_delay_micros: 500_000,
            max_retries: 8,
            jitter_seed: 0xc0ffee,
        };
        let mut sleeps = Vec::new();
        let mut calls = 0;
        let result = retry_busy(
            &policy,
            |micros| sleeps.push(micros),
            || {
                calls += 1;
                if calls <= 3 {
                    Err(busy())
                } else {
                    Ok("served")
                }
            },
        )
        .unwrap();
        assert_eq!(result, "served");
        assert_eq!(sleeps, [1_070, 3_121, 7_759], "golden prefix, in order");
    }

    #[test]
    fn retries_busy_until_success_recording_the_sleeps() {
        let policy = RetryPolicy {
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let mut sleeps = Vec::new();
        let mut calls = 0;
        let result = retry_busy(
            &policy,
            |micros| sleeps.push(micros),
            || {
                calls += 1;
                if calls < 4 {
                    Err(busy())
                } else {
                    Ok(calls)
                }
            },
        )
        .unwrap();
        assert_eq!(result, 4);
        assert_eq!(sleeps, policy.schedule()[..3], "slept the exact schedule");
    }

    #[test]
    fn non_busy_errors_pass_through_without_sleeping() {
        let mut sleeps = Vec::new();
        let err = retry_busy(
            &RetryPolicy::default(),
            |micros| sleeps.push(micros),
            || -> Result<(), _> { Err(ServeError::Protocol("bad frame".into())) },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Protocol(_)));
        assert!(sleeps.is_empty(), "no backoff for non-Busy failures");
    }

    #[test]
    fn exhausted_retries_surface_the_final_busy() {
        let policy = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let mut sleeps = Vec::new();
        let mut calls = 0u32;
        let err = retry_busy(
            &policy,
            |micros| sleeps.push(micros),
            || -> Result<(), _> {
                calls += 1;
                Err(busy())
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Remote {
                code: ErrorCode::Busy,
                ..
            }
        ));
        assert_eq!(calls, 4, "initial attempt plus three retries");
        assert_eq!(sleeps.len(), 3);
    }
}
