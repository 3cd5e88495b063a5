//! Order-sensitive trace fingerprinting.
//!
//! The workspace's headline parallelism invariant — *bit-identical output
//! at any thread count* — needs a cheap, order-sensitive probe that two
//! traces are the same request stream, not merely statistically similar.
//! [`fingerprint`] hashes every field of every request in trace order with
//! FNV-1a, so a single transposed request, flipped op bit or shifted
//! timestamp changes the digest.
//!
//! The serving layer reuses the same primitives in incremental form:
//! [`Fingerprinter`] digests a request stream one record at a time (so a
//! server can fingerprint what it streams without buffering the trace),
//! and [`fnv1a`] hashes raw encoded bytes for cache keys.
//!
//! The algorithm (including the field mix order) is pinned by the golden
//! regression tests in `crates/workloads/tests/golden.rs`; changing it
//! invalidates every recorded fingerprint in the repository.

use crate::{Op, Request, Trace};

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POWERS[k]` is `PRIME^k` (wrapping): FNV-1a over `k` zero bytes
/// is one multiply by it, since XOR with a zero byte changes nothing.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    powers
};

/// FNV-1a over the 8 little-endian bytes of `value`, continuing from
/// `hash`: the low bytes up to the highest non-zero one one at a time,
/// then every zero high byte at once.
fn mix_u64(mut hash: u64, value: u64) -> u64 {
    let significant = 8 - value.leading_zeros() as usize / 8;
    for byte in value.to_le_bytes().iter().take(significant) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(PRIME);
    }
    let zeros = PRIME_POWERS.get(8 - significant).copied().unwrap_or(1);
    hash.wrapping_mul(zeros)
}

/// FNV-1a over an arbitrary byte string.
///
/// Used by the serving layer to derive cache keys from encoded trace and
/// profile bytes: equal byte strings — and therefore, by the determinism
/// invariant, equal inputs — always map to the same key.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Incremental form of [`fingerprint`]: push requests one at a time and
/// read the digest at any point.
///
/// Pushing the requests of a trace in order yields exactly
/// `fingerprint(&trace)`, so a streaming producer and a whole-trace
/// consumer agree on the digest without either materializing the other's
/// view.
///
/// ```
/// use mocktails_trace::{fingerprint, Fingerprinter, Request, Trace};
///
/// let requests = vec![Request::read(0, 0x1000, 64), Request::write(4, 0x2000, 32)];
/// let mut f = Fingerprinter::new();
/// for r in &requests {
///     f.push(r);
/// }
/// assert_eq!(f.digest(), fingerprint(&Trace::from_requests(requests)));
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    hash: u64,
    count: u64,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A fingerprinter over the empty stream (digest = FNV offset basis).
    pub fn new() -> Self {
        Self {
            hash: OFFSET,
            count: 0,
        }
    }

    /// Mixes one request into the digest, in the pinned field order
    /// (timestamp, address, size, op), each field as its 8 little-endian
    /// bytes.
    pub fn push(&mut self, request: &Request) {
        let op = match request.op {
            Op::Read => 0,
            Op::Write => 1,
        };
        let mut hash = mix_u64(self.hash, request.timestamp);
        hash = mix_u64(hash, request.address);
        hash = mix_u64(hash, u64::from(request.size));
        self.hash = mix_u64(hash, op);
        self.count += 1;
    }

    /// Digest of everything pushed so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Number of requests pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// FNV-1a over every field of every request, in trace order.
///
/// Per request, the fields are mixed as little-endian `u64`s in the fixed
/// order timestamp, address, size, op (`Read` = 0, `Write` = 1). Equal
/// traces always produce equal fingerprints; distinct request streams
/// produce distinct fingerprints with the usual 64-bit collision odds.
///
/// ```
/// use mocktails_trace::{fingerprint, Request, Trace};
///
/// let a = Trace::from_requests(vec![Request::read(0, 0x1000, 64)]);
/// let b = Trace::from_requests(vec![Request::read(0, 0x1040, 64)]);
/// assert_eq!(fingerprint(&a), fingerprint(&a));
/// assert_ne!(fingerprint(&a), fingerprint(&b));
/// ```
pub fn fingerprint(trace: &Trace) -> u64 {
    let mut f = Fingerprinter::new();
    for r in trace.iter() {
        f.push(r);
    }
    f.digest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Request;

    #[test]
    fn empty_trace_hashes_to_the_offset_basis() {
        assert_eq!(fingerprint(&Trace::new()), OFFSET);
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let ab = Trace::from_sorted_requests(vec![
            Request::read(0, 0x1000, 64),
            Request::write(0, 0x2000, 64),
        ]);
        let ba = Trace::from_sorted_requests(vec![
            Request::write(0, 0x2000, 64),
            Request::read(0, 0x1000, 64),
        ]);
        assert_ne!(fingerprint(&ab), fingerprint(&ba));
    }

    #[test]
    fn every_field_participates() {
        let base = Trace::from_requests(vec![Request::read(5, 0x1000, 64)]);
        let variants = [
            Trace::from_requests(vec![Request::read(6, 0x1000, 64)]),
            Trace::from_requests(vec![Request::read(5, 0x1001, 64)]),
            Trace::from_requests(vec![Request::read(5, 0x1000, 32)]),
            Trace::from_requests(vec![Request::write(5, 0x1000, 64)]),
        ];
        for variant in &variants {
            assert_ne!(fingerprint(&base), fingerprint(variant));
        }
    }

    #[test]
    fn incremental_fingerprinter_matches_whole_trace() {
        let requests = vec![
            Request::read(0, 0x8100_2eb8, 128),
            Request::read(8, 0x8100_2ec0, 64),
            Request::write(16, 0x8100_2f00, 64),
        ];
        let mut f = Fingerprinter::new();
        for r in &requests {
            f.push(r);
        }
        assert_eq!(f.count(), 3);
        assert_eq!(f.digest(), fingerprint(&Trace::from_requests(requests)));
    }

    /// The byte-at-a-time digest of one request, as the format pins it.
    fn reference_push(hash: u64, request: &Request) -> u64 {
        let op = match request.op {
            Op::Read => 0u64,
            Op::Write => 1,
        };
        let mut bytes = Vec::new();
        for field in [
            request.timestamp,
            request.address,
            u64::from(request.size),
            op,
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes
            .iter()
            .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
    }

    #[test]
    fn zero_byte_fast_path_matches_byte_at_a_time_fnv() {
        let edges = [
            0u64,
            1,
            0xff,
            0x100,
            0x1_0000_0001,
            0x00ff_0000_ff00_0000,
            0x8000_0000_0000_0000,
            u64::MAX,
        ];
        let mut requests = Vec::new();
        for &a in &edges {
            for &b in &edges {
                let size = (b as u32).max(1);
                requests.push(Request::read(a, b, size));
                requests.push(Request::write(b, a, (a as u32 >> 8).max(1)));
            }
        }
        let mut rng = crate::rng::Prng::seed_from_u64(26);
        use crate::rng::Rng;
        for _ in 0..4096 {
            // Random widths, so every count of zero high bytes and many
            // interior zero bytes occur.
            let mut field = || {
                let width = rng.gen_range(0..65u64);
                let v = rng.next_u64();
                let v = if width == 64 {
                    v
                } else {
                    v & ((1u64 << width) - 1)
                };
                v & !(0xffu64 << (8 * rng.gen_range(0..8u64)))
            };
            let (t, a) = (field(), field());
            let size = (field() as u32).max(1);
            requests.push(if t & 1 == 0 {
                Request::read(t, a, size)
            } else {
                Request::write(t, a, size)
            });
        }
        let mut f = Fingerprinter::new();
        let mut want = OFFSET;
        for request in &requests {
            f.push(request);
            want = reference_push(want, request);
            assert_eq!(f.digest(), want, "{request:?}");
        }
        assert_eq!(f.count(), requests.len() as u64);
    }

    #[test]
    fn fnv1a_empty_is_offset_basis_and_input_sensitive() {
        assert_eq!(fnv1a(&[]), OFFSET);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
