//! Compact binary codec for traces (and primitives reused by profiles).
//!
//! The paper stores traces and statistical profiles with Google protobuf and
//! gzip (§V, Fig. 17). This workspace substitutes a self-contained codec so
//! no code-generation dependency is needed: LEB128 varints for unsigned
//! integers, zigzag for signed, and delta encoding of the timestamp and
//! address columns (consecutive requests are near each other in time and
//! often in space, so deltas are small and varints shrink them).
//!
//! Both traces and Mocktails profiles run through the same primitives, which
//! keeps the Fig. 17 size comparison (trace bytes vs. profile bytes) fair.
//!
//! # Example
//!
//! ```
//! use mocktails_trace::{codec, Request, Trace};
//!
//! let trace = Trace::from_requests(vec![
//!     Request::read(0, 0x1000, 64),
//!     Request::read(4, 0x1040, 64),
//! ]);
//! let mut buf = Vec::new();
//! codec::write_trace(&mut buf, &trace)?;
//! let back = codec::read_trace(&mut buf.as_slice())?;
//! assert_eq!(back, trace);
//! # Ok::<(), mocktails_trace::TraceError>(())
//! ```

use std::io::{Read, Write};

use crate::{DecodeOptions, Op, Request, Trace, TraceError};

/// Magic bytes identifying an encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"MTRC";
/// Current codec version.
pub const CODEC_VERSION: u8 = 1;

// The writers are `#[inline]`, like the readers of `ByteCursor`: the
// profile codec calls them per field from another crate.

/// Appends `value` to `w` as an LEB128 varint.
#[inline]
pub fn write_u64(w: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        w.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    w.push(value as u8);
}

/// Zigzag-encodes a signed value so small magnitudes become small varints.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Appends a signed value to `w` as a zigzag varint.
#[inline]
pub fn write_i64(w: &mut Vec<u8>, value: i64) {
    write_u64(w, zigzag(value));
}

/// The one byte reader of the workspace: a zero-copy cursor over an
/// in-memory encoding that every decoder — traces, profiles, store
/// records, checkpoints, the write-ahead log and the serving protocol —
/// reads through. Its mirror on the encode side is a plain `Vec<u8>`:
/// [`write_u64`], [`write_i64`] and every encoder built on them append
/// to one.
///
/// The cursor borrows the caller's slice and advances it past every byte
/// it consumes, so a decoder that takes `&mut &[u8]` leaves the slice at
/// the first byte it did not read. A read past the end fails with the
/// `UnexpectedEof` error `Read::read_exact` gives on the remainder (wrapped
/// in [`TraceError::Io`]); formats with their own short-input messages map
/// that error, or [`ByteCursor::take`]'s `None`, at the call site.
///
/// The cursor reads from its own copy of the slice and moves the caller's
/// slice up to it when dropped. So a decoder's loop keeps its position in
/// a register rather than in the caller's memory, and every short or
/// overlong read is handled out of line, away from the readers that
/// decoders inline.
///
/// ```
/// use mocktails_trace::codec::{write_u64, ByteCursor};
///
/// let mut buf = vec![7u8, 0x01, 0x00];
/// write_u64(&mut buf, 300);
/// let mut input = buf.as_slice();
/// let mut cursor = ByteCursor::new(&mut input);
/// assert_eq!(cursor.u8()?, 7);
/// assert_eq!(cursor.array::<2>()?, [0x01, 0x00]);
/// assert_eq!(cursor.varint()?, 300);
/// assert!(cursor.is_empty());
/// assert!(cursor.u8().is_err());
/// drop(cursor);
/// assert!(input.is_empty());
/// # Ok::<(), mocktails_trace::TraceError>(())
/// ```
#[derive(Debug)]
pub struct ByteCursor<'c, 'a> {
    /// The bytes not yet consumed.
    bytes: &'a [u8],
    /// The caller's slice, advanced to `bytes` on drop.
    source: &'c mut &'a [u8],
}

impl Drop for ByteCursor<'_, '_> {
    #[inline]
    fn drop(&mut self) {
        *self.source = self.bytes;
    }
}

// The readers are `#[inline]`: decoders in other crates call them per
// field, and without it they could not be inlined there.
impl<'c, 'a> ByteCursor<'c, 'a> {
    /// A cursor reading from, and advancing, `bytes`.
    #[inline]
    pub fn new(bytes: &'c mut &'a [u8]) -> Self {
        Self {
            bytes: *bytes,
            source: bytes,
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] (`UnexpectedEof`) at the end of the input.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads the next `N` bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] (`UnexpectedEof`) if fewer than `N` bytes are
    /// left; the remainder is consumed.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        match self.bytes.split_first_chunk::<N>() {
            Some((head, rest)) => {
                self.bytes = rest;
                Ok(*head)
            }
            None => {
                let (result, rest) = short_read(self.bytes);
                self.bytes = rest;
                result
            }
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// See [`ByteCursor::array`].
    #[inline]
    pub fn u32(&mut self) -> Result<u32, TraceError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// See [`ByteCursor::array`].
    #[inline]
    pub fn u64(&mut self) -> Result<u64, TraceError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Borrows the next `n` bytes, or `None` (consuming nothing) if fewer
    /// are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.bytes.split_at_checked(n)?;
        self.bytes = rest;
        Some(head)
    }

    /// Borrows every byte left.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    /// Reads an LEB128 varint written by [`write_u64`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Corrupt`] if the varint overflows 64 bits;
    /// [`TraceError::Io`] (`UnexpectedEof`) if the input ends inside it.
    #[inline(always)]
    pub fn varint(&mut self) -> Result<u64, TraceError> {
        // `always`: with a plain hint the trace and profile decoders still
        // called it once per field. The first nine bytes hold at most 63
        // bits, so a varint that ends within them cannot overflow. Longer
        // varints, and input that ends inside one, take the checked path.
        let (mut value, mut shift) = (0u64, 0);
        let mut rest = self.bytes;
        while let Some((&b, tail)) = rest.split_first() {
            value |= u64::from(b & 0x7f) << shift;
            rest = tail;
            if b < 0x80 {
                self.bytes = rest;
                return Ok(value);
            }
            shift += 7;
            if shift > 56 {
                break;
            }
        }
        let (result, rest) = varint_checked(self.bytes);
        self.bytes = rest;
        result
    }

    /// Reads a signed value written by [`write_i64`].
    ///
    /// # Errors
    ///
    /// See [`ByteCursor::varint`].
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, TraceError> {
        Ok(unzigzag(self.varint()?))
    }
}

/// A read of `N` bytes past a shorter remainder `bytes`: std's
/// `read_exact` consumes the remainder and reports it with its own error.
/// Returns the outcome and what is left.
#[cold]
#[inline(never)]
fn short_read<const N: usize>(mut bytes: &[u8]) -> (Result<[u8; N], TraceError>, &[u8]) {
    let mut buf = [0u8; N];
    // lint: allow(L017, read_exact on an in-memory slice returns at once and never blocks)
    let result = bytes.read_exact(&mut buf).map(|()| buf);
    (result.map_err(TraceError::from), bytes)
}

/// [`ByteCursor::varint`] byte by byte with every check, for a varint
/// longer than nine bytes or cut short by the end of `bytes`. Returns the
/// outcome and what is left.
#[cold]
#[inline(never)]
fn varint_checked(bytes: &[u8]) -> (Result<u64, TraceError>, &[u8]) {
    let mut value = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        let shift = 7 * i as u32;
        let rest = bytes.get(i + 1..).unwrap_or_default();
        if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
            return (Err(corrupt("varint overflows u64")), rest);
        }
        value |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return (Ok(value), rest);
        }
    }
    // The input ends inside the varint: every byte is consumed, and
    // reading one more reports the short input.
    let (result, rest) = short_read::<1>(&[]);
    (result.map(|[b]| u64::from(b)), rest)
}

/// Incremental, header-free encoder for the per-request record layout of
/// [`write_trace`]: time delta varint, zigzag address delta, op bit folded
/// into the size varint.
///
/// The encoder owns the delta state (previous timestamp and address), so a
/// request stream can be encoded across several output buffers — the
/// serving layer's chunked synthesis streams do exactly that — and the
/// concatenation of those buffers is byte-identical to the record section
/// a single [`write_trace`] call would have produced.
///
/// ```
/// use mocktails_trace::codec::{write_trace, RecordEncoder};
/// use mocktails_trace::{Request, Trace};
///
/// let requests = vec![Request::read(0, 0x1000, 64), Request::read(8, 0x1040, 64)];
/// let mut whole = Vec::new();
/// write_trace(&mut whole, &Trace::from_requests(requests.clone()))?;
///
/// // Encode the same records one at a time into separate chunks.
/// let mut encoder = RecordEncoder::new();
/// let mut chunks = Vec::new();
/// for r in &requests {
///     let mut chunk = Vec::new();
///     encoder.encode(&mut chunk, r)?;
///     chunks.extend_from_slice(&chunk);
/// }
/// // Records start after magic (4) + version (1) + count varint (1).
/// assert_eq!(&whole[6..], &chunks[..]);
/// # Ok::<(), mocktails_trace::TraceError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct RecordEncoder {
    last_time: u64,
    last_addr: i64,
}

impl RecordEncoder {
    /// An encoder positioned before the first record (deltas are taken
    /// against timestamp 0 and address 0, matching [`write_trace`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one request's record to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] if `request` precedes the previous
    /// record's timestamp (records must be encoded in stream order); `w`
    /// is then unchanged.
    #[inline]
    pub fn encode(&mut self, w: &mut Vec<u8>, request: &Request) -> Result<(), TraceError> {
        let dt = request
            .timestamp
            .checked_sub(self.last_time)
            .ok_or_else(|| {
                TraceError::Corrupt("records must be encoded in timestamp order".into())
            })?;
        write_u64(w, dt);
        // Wrapping, like the decoder: a jump across 2^63 encodes as the
        // delta that wraps back to the target address.
        write_i64(w, (request.address as i64).wrapping_sub(self.last_addr));
        write_u64(
            w,
            (u64::from(request.size) << 1) | u64::from(request.op.as_bit()),
        );
        self.last_time = request.timestamp;
        self.last_addr = request.address as i64;
        Ok(())
    }
}

/// Incremental decoder for records produced by [`RecordEncoder`] (the
/// record section of [`write_trace`]'s layout, after the header).
///
/// Mirrors [`RecordEncoder`]: the decoder owns the delta state, so records
/// arriving in separate buffers — e.g. the serving layer's synthesis
/// chunks — decode to exactly the requests a whole-trace decode would
/// yield.
#[derive(Debug, Default, Clone)]
pub struct RecordDecoder {
    last_time: u64,
    last_addr: i64,
}

impl RecordDecoder {
    /// A decoder positioned before the first record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one record from the front of `r`, advancing it past the
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] for malformed fields (varint or
    /// timestamp overflow, oversized or zero request size, a byte range
    /// past the end of the address space), or [`TraceError::Io`]
    /// (`UnexpectedEof`) on a truncated record.
    #[inline]
    pub fn decode(&mut self, r: &mut &[u8]) -> Result<Request, TraceError> {
        self.decode_from(&mut ByteCursor::new(r))
    }

    /// [`RecordDecoder::decode`] from a cursor, so that a run of records
    /// shares one.
    #[inline]
    fn decode_from(&mut self, c: &mut ByteCursor<'_, '_>) -> Result<Request, TraceError> {
        let dt = c.varint()?;
        let da = c.zigzag()?;
        let size_op = c.varint()?;
        let size =
            u32::try_from(size_op >> 1).map_err(|_| corrupt("request size overflows u32"))?;
        if size == 0 {
            return Err(corrupt("zero-size request"));
        }
        let op = Op::from_bit((size_op & 1) as u8);
        self.last_time = self
            .last_time
            .checked_add(dt)
            .ok_or_else(|| corrupt("timestamp overflows u64"))?;
        self.last_addr = self.last_addr.wrapping_add(da);
        check_range(self.last_addr as u64, size)?;
        Ok(Request::new(
            self.last_time,
            self.last_addr as u64,
            op,
            size,
        ))
    }
}

/// A [`TraceError::Corrupt`] built out of line, so that the decoders'
/// hot paths carry no string construction.
#[cold]
#[inline(never)]
fn corrupt(msg: &str) -> TraceError {
    TraceError::Corrupt(msg.into())
}

/// Rejects a request whose exclusive end `address + size` overflows
/// `u64`: its range would saturate, and a request at the top address
/// would get an empty range that no memory region contains.
fn check_range(address: u64, size: u32) -> Result<(), TraceError> {
    match address.checked_add(u64::from(size)) {
        Some(_) => Ok(()),
        None => Err(corrupt("request range overflows the address space")),
    }
}

/// Appends the encoding of `trace` to `w`.
///
/// Layout: magic, version, request count, then four delta/varint-encoded
/// columns interleaved per request (time delta, zigzag address delta, op
/// bit folded into the size varint).
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] if the requests are not in timestamp
/// order (see [`RecordEncoder::encode`]); a [`Trace`] built by its
/// constructors always is.
pub fn write_trace(w: &mut Vec<u8>, trace: &Trace) -> Result<(), TraceError> {
    w.extend_from_slice(&TRACE_MAGIC);
    w.push(CODEC_VERSION);
    write_u64(w, trace.len() as u64);
    let mut encoder = RecordEncoder::new();
    for r in trace.iter() {
        encoder.encode(w, r)?;
    }
    Ok(())
}

/// Decodes a trace written by [`write_trace`] from the front of `r` using
/// default [`DecodeOptions`], advancing `r` past the encoding.
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] for bad magic or malformed fields,
/// [`TraceError::UnsupportedVersion`] for a version mismatch,
/// [`TraceError::LimitExceeded`] for an implausible declared request
/// count, or [`TraceError::Io`] (`UnexpectedEof`) for a truncated input.
pub fn read_trace(r: &mut &[u8]) -> Result<Trace, TraceError> {
    read_trace_with(r, &DecodeOptions::default())
}

/// Decodes a trace written by [`write_trace`] under caller-chosen
/// [`DecodeOptions`]. The declared request count is validated against the
/// options' limits before any allocation, and the request buffer reserves
/// no more records than the bytes left could hold, so a hostile header
/// cannot force memory proportional to its claims.
///
/// [`Trace::read`] is the method-form equivalent.
///
/// # Errors
///
/// See [`read_trace`].
pub fn read_trace_with(r: &mut &[u8], options: &DecodeOptions) -> Result<Trace, TraceError> {
    let limits = options.limits();
    let mut c = ByteCursor::new(r);
    let count = limits.check("requests", read_header(&mut c)?, limits.max_requests)?;
    // A record takes at least three bytes (three one-byte varints).
    let mut requests = Vec::with_capacity(count.min(c.len() / 3));
    let mut decoder = RecordDecoder::new();
    for _ in 0..count {
        requests.push(decoder.decode_from(&mut c)?);
    }
    Ok(Trace::from_sorted_requests(requests))
}

/// Reads and checks a trace header (magic, version) and returns the
/// declared request count, unchecked against any limit.
fn read_header(c: &mut ByteCursor<'_, '_>) -> Result<u64, TraceError> {
    if c.array()? != TRACE_MAGIC {
        return Err(TraceError::Corrupt("bad trace magic".into()));
    }
    let version = c.u8()?;
    if version != CODEC_VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: version,
            expected: CODEC_VERSION,
        });
    }
    c.varint()
}

/// Writes a trace as CSV (`timestamp,address,op,size`, addresses in hex)
/// for interoperability with external tools and spreadsheets.
///
/// # Errors
///
/// Propagates errors from the underlying writer.
pub fn write_csv<W: Write>(w: &mut W, trace: &Trace) -> Result<(), TraceError> {
    writeln!(w, "timestamp,address,op,size")?;
    for r in trace.iter() {
        writeln!(w, "{},{:#x},{},{}", r.timestamp, r.address, r.op, r.size)?;
    }
    Ok(())
}

/// Reads a trace written by [`write_csv`] (or hand-authored in the same
/// shape). Addresses accept `0x`-prefixed hex or plain decimal; the header
/// line is optional.
///
/// Consumes all of `r`.
///
/// # Errors
///
/// Returns [`TraceError::Corrupt`] for malformed rows, or for text that
/// is not UTF-8 (naming the offset of the first invalid byte).
pub fn read_csv(r: &mut &[u8]) -> Result<Trace, TraceError> {
    let bytes = std::mem::take(r);
    let text = std::str::from_utf8(bytes).map_err(|e| {
        TraceError::Corrupt(format!("CSV is not UTF-8 at byte {}", e.valid_up_to()))
    })?;
    let mut requests = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || (lineno == 0 && line.starts_with("timestamp")) {
            continue;
        }
        let mut fields = line.split(',').map(str::trim);
        // lint: allow(L018, the closure body formats only when a field fails to parse; the happy path never calls it)
        let bad = |what: &str| TraceError::Corrupt(format!("line {}: {what}", lineno + 1));
        let timestamp: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("bad timestamp"))?;
        let addr_field = fields.next().ok_or_else(|| bad("missing address"))?;
        let address = if let Some(hex) = addr_field.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| bad("bad hex address"))?
        } else {
            addr_field.parse().map_err(|_| bad("bad address"))?
        };
        let op = match fields.next().ok_or_else(|| bad("missing op"))? {
            "read" | "r" | "R" => Op::Read,
            "write" | "w" | "W" => Op::Write,
            other => {
                // lint: allow(L018, cold error branch: allocates once for the malformed line, then aborts the parse)
                return Err(TraceError::Corrupt(format!(
                    "line {}: unknown op {other:?}",
                    lineno + 1
                )));
            }
        };
        let size: u32 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .filter(|&s| s > 0)
            .ok_or_else(|| bad("bad size"))?;
        if fields.next().is_some() {
            return Err(bad("too many fields"));
        }
        check_range(address, size)?;
        requests.push(Request::new(timestamp, address, op, size));
    }
    Ok(Trace::from_requests(requests))
}

/// Encoded size of `trace` in bytes: the length of its encoding.
pub fn trace_encoded_size(trace: &Trace) -> u64 {
    let mut bytes = Vec::new();
    write_trace(&mut bytes, trace).expect("a Trace keeps its requests sorted by timestamp"); // lint: allow(L001, every Trace constructor keeps its requests sorted, so the order check cannot fail)
    bytes.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecodeLimits;

    #[test]
    fn varint_round_trip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut input = buf.as_slice();
            assert_eq!(ByteCursor::new(&mut input).varint().unwrap(), v);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 bytes of continuation overflows 64 bits.
        let buf = [0xffu8; 11];
        assert!(matches!(
            ByteCursor::new(&mut buf.as_slice()).varint(),
            Err(TraceError::Corrupt(_))
        ));
        // A tenth byte above 1 overflows too; a varint cut short is EOF.
        let mut tenth = [0xffu8; 10];
        tenth[9] = 0x02;
        assert!(matches!(
            ByteCursor::new(&mut tenth.as_slice()).varint(),
            Err(TraceError::Corrupt(_))
        ));
        assert!(matches!(
            ByteCursor::new(&mut &[0x80u8, 0x80][..]).varint(),
            Err(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn cursor_reads_fixed_width_fields_and_advances_the_slice() {
        let bytes = [1u8, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 8, 7];
        let mut input = &bytes[..];
        let mut c = ByteCursor::new(&mut input);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.u32().unwrap(), 2);
        assert_eq!(c.u64().unwrap(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.take(4), None, "a short take consumes nothing");
        assert_eq!(c.take(1), Some(&[9u8][..]));
        assert_eq!(c.rest(), &[8u8, 7][..]);
        assert!(c.is_empty());
        drop(c);
        assert!(input.is_empty());
    }

    #[test]
    fn short_reads_fail_like_read_exact_and_consume_the_rest() {
        let bytes = [1u8, 2, 3];
        let mut input = &bytes[..];
        let err = ByteCursor::new(&mut input).u64().unwrap_err();
        let mut reference = &bytes[..];
        let want = reference.read_exact(&mut [0u8; 8]).unwrap_err();
        assert!(matches!(&err, TraceError::Io(e) if e.kind() == want.kind()));
        assert_eq!(err.to_string(), TraceError::Io(want).to_string());
        assert!(input.is_empty());
        assert!(ByteCursor::new(&mut input).u8().is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    fn sample_trace() -> Trace {
        Trace::from_requests(vec![
            Request::read(0, 0x8100_2eb8, 128),
            Request::read(8, 0x8100_2ec0, 64),
            Request::write(16, 0x8100_2f00, 64),
            Request::read(1_000_000, 0x10, 32),
        ])
    }

    #[test]
    fn trace_round_trip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_trace_round_trip() {
        let trace = Trace::new();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"XXXX\x01\x00".to_vec();
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn truncated_input_is_io_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn hostile_declared_count_is_limit_exceeded_not_oom() {
        // Header that declares 2^60 requests with no payload: must fail
        // fast with a typed error, allocating nothing proportional.
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.push(CODEC_VERSION);
        write_u64(&mut buf, 1 << 60);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::LimitExceeded {
                what: "requests",
                declared,
                ..
            }) if declared == 1 << 60
        ));
    }

    #[test]
    fn declared_count_beyond_payload_is_detected() {
        // Declares 1000 requests but carries only one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.push(CODEC_VERSION);
        write_u64(&mut buf, 1000);
        write_u64(&mut buf, 0); // dt
        write_i64(&mut buf, 0x40); // da
        write_u64(&mut buf, 64 << 1); // size varint, read op
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn custom_limits_are_honored() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let tight = DecodeOptions::default().with_limits(DecodeLimits {
            max_requests: 2,
            ..DecodeLimits::default()
        });
        assert!(matches!(
            read_trace_with(&mut buf.as_slice(), &tight),
            Err(TraceError::LimitExceeded { .. })
        ));
        assert_eq!(
            read_trace_with(&mut buf.as_slice(), &DecodeOptions::trusted()).unwrap(),
            trace
        );
    }

    #[test]
    fn encoded_size_matches_buffer() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(trace_encoded_size(&trace), buf.len() as u64);
    }

    #[test]
    fn delta_encoding_compresses_sequential_trace() {
        // Sequential accesses: deltas are tiny, so the encoding should be
        // far smaller than the 21-byte worst case per request.
        let trace: Trace = (0..1000u64)
            .map(|i| Request::read(i * 4, 0x1000 + i * 64, 64))
            .collect();
        let size = trace_encoded_size(&trace);
        assert!(size < 1000 * 6, "sequential trace encoded to {size} bytes");
    }

    #[test]
    fn csv_round_trip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&mut buf, &trace).unwrap();
        let back = read_csv(&mut buf.as_slice()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn csv_that_is_not_utf8_is_corrupt_not_io() {
        let err = read_csv(&mut b"0,4096,r,64\n\xff\xfe".as_slice()).unwrap_err();
        match err {
            TraceError::Corrupt(msg) => assert_eq!(msg, "CSV is not UTF-8 at byte 12"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn csv_accepts_headerless_decimal_and_short_ops() {
        let text = "0,4096,r,64\n10,0x2000,W,32\n";
        let trace = read_csv(&mut text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.requests()[0].address, 4096);
        assert!(trace.requests()[1].op.is_write());
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        for bad in [
            "0,0x10,read\n",          // missing size
            "0,0x10,frob,64\n",       // bad op
            "x,0x10,read,64\n",       // bad timestamp
            "0,0xzz,read,64\n",       // bad hex
            "0,0x10,read,0\n",        // zero size
            "0,0x10,read,64,extra\n", // too many fields
        ] {
            assert!(read_csv(&mut bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn csv_skips_blank_lines() {
        let text = "timestamp,address,op,size\n\n5,0x40,write,16\n\n";
        let trace = read_csv(&mut text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn record_encoder_chunks_concatenate_to_whole_trace_bytes() {
        let trace = sample_trace();
        let mut whole = Vec::new();
        write_trace(&mut whole, &trace).unwrap();
        // Encode each record into its own buffer, as a chunked stream would.
        let mut encoder = RecordEncoder::new();
        let mut concat = Vec::new();
        for r in trace.iter() {
            let mut chunk = Vec::new();
            encoder.encode(&mut chunk, r).unwrap();
            concat.extend_from_slice(&chunk);
        }
        let mut header = Vec::new();
        header.extend_from_slice(&TRACE_MAGIC);
        header.push(CODEC_VERSION);
        write_u64(&mut header, trace.len() as u64);
        header.extend_from_slice(&concat);
        assert_eq!(header, whole);
    }

    #[test]
    fn record_decoder_round_trips_across_chunk_boundaries() {
        let trace = sample_trace();
        let mut encoder = RecordEncoder::new();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        for r in trace.iter() {
            let mut chunk = Vec::new();
            encoder.encode(&mut chunk, r).unwrap();
            chunks.push(chunk);
        }
        // Decode each chunk independently; delta state must carry over.
        let mut decoder = RecordDecoder::new();
        let mut back = Vec::new();
        for chunk in &chunks {
            let mut slice = chunk.as_slice();
            while !slice.is_empty() {
                back.push(decoder.decode(&mut slice).unwrap());
            }
        }
        assert_eq!(back, trace.requests());
    }

    #[test]
    fn address_jumps_across_the_sign_boundary_round_trip() {
        // Deltas between addresses on either side of 2^63 wrap in i64;
        // encoder and decoder must wrap the same way, in both directions.
        let trace = Trace::from_requests(vec![
            Request::read(0, 0x7fff_ffff_ffff_ff00, 64),
            Request::write(1, 0x8000_0000_0000_0000, 64),
            Request::read(2, 0x10, 64),
            Request::read(3, u64::MAX - 64, 64),
            Request::write(4, 0x7fff_ffff_ffff_ffc0, 64),
            Request::read(5, 0, 4),
        ]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn decoders_advance_the_slice_past_what_they_read() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        buf.extend_from_slice(b"tail");
        let mut input = buf.as_slice();
        assert_eq!(read_trace(&mut input).unwrap(), trace);
        assert_eq!(input, b"tail");
    }

    #[test]
    fn record_encoder_rejects_timestamp_regression() {
        let mut encoder = RecordEncoder::new();
        let mut buf = Vec::new();
        encoder
            .encode(&mut buf, &Request::read(100, 0x10, 4))
            .unwrap();
        assert!(matches!(
            encoder.encode(&mut buf, &Request::read(50, 0x20, 4)),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn record_decoder_rejects_zero_size_and_overflow() {
        let mut bad_size = Vec::new();
        write_u64(&mut bad_size, 0); // dt
        write_i64(&mut bad_size, 0); // da
        write_u64(&mut bad_size, 0); // size 0, read op
        assert!(matches!(
            RecordDecoder::new().decode(&mut bad_size.as_slice()),
            Err(TraceError::Corrupt(_))
        ));

        let mut huge_size = Vec::new();
        write_u64(&mut huge_size, 0);
        write_i64(&mut huge_size, 0);
        write_u64(&mut huge_size, (u64::from(u32::MAX) + 1) << 1);
        assert!(matches!(
            RecordDecoder::new().decode(&mut huge_size.as_slice()),
            Err(TraceError::Corrupt(_))
        ));
    }

    #[test]
    fn requests_past_the_top_of_the_address_space_are_corrupt() {
        // The encoder writes what it is given; the decoder refuses a
        // request whose range would run past u64::MAX.
        for (address, size) in [(u64::MAX, 1), (u64::MAX - 63, 64)] {
            let trace = Trace::from_requests(vec![
                Request::read(0, 0x1000, 64),
                Request::write(5, address, size),
            ]);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).unwrap();
            let err = read_trace(&mut buf.as_slice()).unwrap_err();
            assert!(
                matches!(&err, TraceError::Corrupt(m) if m.contains("address space")),
                "{err:?}"
            );
            let mut csv = Vec::new();
            write_csv(&mut csv, &trace).unwrap();
            assert!(matches!(
                read_csv(&mut csv.as_slice()),
                Err(TraceError::Corrupt(_))
            ));
        }
        // The highest range that still ends inside u64 decodes.
        let top = Trace::from_requests(vec![Request::read(0, u64::MAX - 64, 64)]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &top).unwrap();
        assert_eq!(read_trace(&mut buf.as_slice()).unwrap(), top);
    }
}
