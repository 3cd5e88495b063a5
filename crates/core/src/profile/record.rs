//! Stable on-disk framing for a profile plus its fit metadata.
//!
//! [`ProfileRecord`] is the unit the persistent store appends to its
//! write-ahead log and lists in its checkpoints: the profile's canonical
//! encoding, its content fingerprint, and the fit key that aliases a
//! repeat upload to it. The framing is versioned by a leading tag byte so
//! future record kinds (partition-level fingerprints for incremental
//! re-fit, say) can join the same log without breaking replay of old
//! files.
//!
//! ```text
//! tag u8 (1 = profile) | fingerprint u64 LE
//! fit-key flag u8 (0 = absent, 1 = present) | fit_key u64 LE (if present)
//! profile bytes (canonical [`Profile::write`] encoding, to end of record)
//! ```
//!
//! Decoding re-hashes the profile bytes and rejects a record whose stored
//! fingerprint disagrees — so a record that decodes at all is known to
//! carry exactly the bytes that were written, independent of any outer
//! checksum the log adds.

use mocktails_trace::codec::ByteCursor;
use mocktails_trace::{fnv1a, DecodeOptions};

use crate::ProfileError;

use super::Profile;

/// Record tag for a fitted profile (the only kind so far).
pub const RECORD_TAG_PROFILE: u8 = 1;

/// One durable store entry: an encoded profile plus its identifying
/// metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// FNV-1a fingerprint of `profile_bytes` — the cache/store key.
    pub fingerprint: u64,
    /// The fit key (trace fingerprint + config digest) that produced this
    /// profile, if it arrived via a fit; repeat fits alias through it.
    pub fit_key: Option<u64>,
    /// The profile's canonical binary encoding.
    pub profile_bytes: Vec<u8>,
}

impl ProfileRecord {
    /// Builds a record from a fitted profile: encodes it canonically and
    /// fingerprints the encoding.
    pub fn from_profile(profile: &Profile, fit_key: Option<u64>) -> Self {
        let mut profile_bytes = Vec::new();
        super::write_profile(&mut profile_bytes, profile);
        Self {
            fingerprint: fnv1a(&profile_bytes),
            fit_key,
            profile_bytes,
        }
    }

    /// Encodes the record into the framing documented on the module.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.profile_bytes.len() + 18);
        buf.push(RECORD_TAG_PROFILE);
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        match self.fit_key {
            Some(key) => {
                buf.push(1);
                buf.extend_from_slice(&key.to_le_bytes());
            }
            None => buf.push(0),
        }
        buf.extend_from_slice(&self.profile_bytes);
        buf
    }

    /// Decodes one record, verifying the stored fingerprint against a
    /// re-hash of the profile bytes.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Corrupt`] for an unknown tag, a short body, or a
    /// fingerprint that does not match the carried bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ProfileError> {
        let mut input = payload;
        let mut c = ByteCursor::new(&mut input);
        let short = |what: &str| ProfileError::Corrupt(format!("record ends before {what}"));
        let tag = c
            .u8()
            .map_err(|_| ProfileError::Corrupt("empty record".to_string()))?;
        if tag != RECORD_TAG_PROFILE {
            return Err(ProfileError::Corrupt(format!("unknown record tag {tag}")));
        }
        let fingerprint = c.u64().map_err(|_| short("fingerprint"))?;
        let fit_key = match c.u8().map_err(|_| short("fit-key flag"))? {
            0 => None,
            1 => Some(c.u64().map_err(|_| short("fit key"))?),
            other => {
                return Err(ProfileError::Corrupt(format!(
                    "unknown fit-key flag {other}"
                )))
            }
        };
        let profile_bytes = c.rest();
        if fnv1a(profile_bytes) != fingerprint {
            return Err(ProfileError::Corrupt(format!(
                "record fingerprint {fingerprint:#018x} does not match its profile bytes"
            )));
        }
        Ok(Self {
            fingerprint,
            fit_key,
            profile_bytes: profile_bytes.to_vec(),
        })
    }

    /// Decodes and validates the carried profile under `options` — the
    /// per-record half of store recovery, run across records via
    /// `Parallelism::map`.
    ///
    /// # Errors
    ///
    /// Propagates the profile decode/validation failure.
    pub fn decode_profile(&self, options: &DecodeOptions) -> Result<Profile, ProfileError> {
        Profile::read(&mut self.profile_bytes.as_slice(), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;
    use mocktails_trace::{Request, Trace};

    fn sample_profile(salt: u64) -> Profile {
        let trace = Trace::from_requests(
            (0..60u64)
                .map(|i| Request::read(i * 4 + salt, 0x2000 + (i % 16) * 64, 64))
                .collect(),
        );
        Profile::fit(&trace, &HierarchyConfig::two_level_ts(120))
    }

    #[test]
    fn record_round_trips_with_and_without_fit_key() {
        let profile = sample_profile(0);
        for fit_key in [None, Some(0xfeed_beefu64)] {
            let record = ProfileRecord::from_profile(&profile, fit_key);
            assert_eq!(record.fingerprint, profile.content_fingerprint());
            let back = ProfileRecord::decode(&record.encode()).unwrap();
            assert_eq!(back, record);
            assert_eq!(
                back.decode_profile(&DecodeOptions::default()).unwrap(),
                profile
            );
        }
    }

    #[test]
    fn mismatched_fingerprint_is_rejected() {
        let record = ProfileRecord::from_profile(&sample_profile(1), None);
        let mut bytes = record.encode();
        // Flip a profile byte: the stored fingerprint no longer matches.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = ProfileRecord::decode(&bytes).unwrap_err();
        assert!(matches!(err, ProfileError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn structural_corruption_is_rejected() {
        assert!(ProfileRecord::decode(&[]).is_err(), "empty");
        assert!(ProfileRecord::decode(&[9]).is_err(), "unknown tag");
        assert!(ProfileRecord::decode(&[1, 1, 2, 3]).is_err(), "short body");
        let record = ProfileRecord::from_profile(&sample_profile(2), Some(7));
        let bytes = record.encode();
        // Cut inside the fit key.
        assert!(ProfileRecord::decode(&bytes[..12]).is_err());
        // Unknown fit-key flag byte.
        let mut bad = bytes;
        bad[9] = 2;
        assert!(ProfileRecord::decode(&bad).is_err());
    }
}
