//! Streaming trace I/O: encode and decode request-by-request without
//! materializing the whole trace in memory.
//!
//! The paper's motivation for profiles is that traces of "larger and
//! longer running applications ... would be particularly cumbersome to
//! store or distribute" (§V). A library a downstream user adopts must
//! therefore be able to process such traces incrementally; these types
//! wrap the [`crate::codec`] format behind an iterator/writer pair.
//!
//! ```
//! use mocktails_trace::{Request, StreamWriter, StreamReader};
//!
//! let mut buf = Vec::new();
//! let mut writer = StreamWriter::new(&mut buf)?;
//! writer.write(&Request::read(0, 0x1000, 64))?;
//! writer.write(&Request::read(8, 0x1040, 64))?;
//! writer.finish()?;
//!
//! let reader = StreamReader::new(buf.as_slice())?;
//! let requests: Result<Vec<_>, _> = reader.collect();
//! assert_eq!(requests?.len(), 2);
//! # Ok::<(), mocktails_trace::TraceError>(())
//! ```

use std::io::{Read, Seek, SeekFrom, Write};

use crate::codec::{
    read_header, write_u64, RecordDecoder, RecordEncoder, CODEC_VERSION, TRACE_MAGIC,
};
use crate::{Request, TraceError};

/// Placeholder request count written while streaming; [`StreamWriter`]
/// patches it on [`StreamWriter::finish`] when the sink supports seeking,
/// and the reader treats it as "count unknown, read until EOF".
const COUNT_UNKNOWN: u64 = u64::MAX;

/// Incremental encoder for the binary trace format.
///
/// Requests must be written in non-decreasing timestamp order (the order
/// a memory system observes them).
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    sink: W,
    encoder: RecordEncoder,
    last_time: u64,
    written: u64,
    finished: bool,
}

impl<W: Write> StreamWriter<W> {
    /// Writes the header and returns a writer ready for requests.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W) -> Result<Self, TraceError> {
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&[CODEC_VERSION])?;
        // Fixed-width count placeholder (10-byte varint encoding of
        // u64::MAX) so seekable sinks can patch it in place.
        write_u64(&mut sink, COUNT_UNKNOWN)?;
        Ok(Self {
            sink,
            encoder: RecordEncoder::new(),
            last_time: 0,
            written: 0,
            finished: false,
        })
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    ///
    /// # Panics
    ///
    /// Panics if the request's timestamp precedes the previous one, or if
    /// the writer was already finished.
    pub fn write(&mut self, request: &Request) -> Result<(), TraceError> {
        assert!(!self.finished, "writer already finished");
        assert!(
            request.timestamp >= self.last_time,
            "requests must be written in timestamp order"
        );
        self.encoder.encode(&mut self.sink, request)?;
        self.last_time = request.timestamp;
        self.written += 1;
        Ok(())
    }

    /// Number of requests written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the sink. The encoded stream keeps the
    /// "count unknown" marker; readers stop at end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.finished = true;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write + Seek> StreamWriter<W> {
    /// Like [`StreamWriter::finish`], but patches the header's request
    /// count in place so the stream is byte-compatible with
    /// [`crate::codec::read_trace`]'s expectations of an exact count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish_seekable(mut self) -> Result<W, TraceError> {
        self.finished = true;
        self.sink.seek(SeekFrom::Start(5))?;
        // Re-encode the count in exactly 10 bytes (continuation-padded
        // varint) so it occupies the placeholder space.
        let mut v = self.written;
        let mut bytes = [0x80u8; 10];
        for b in bytes.iter_mut().take(9) {
            *b = ((v & 0x7f) as u8) | 0x80;
            v >>= 7;
        }
        bytes[9] = (v & 0x7f) as u8;
        self.sink.write_all(&bytes)?;
        self.sink.seek(SeekFrom::End(0))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Incremental decoder: an iterator over the requests of an encoded
/// trace.
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    source: R,
    decoder: RecordDecoder,
    remaining: Option<u64>,
}

impl<R: Read> StreamReader<R> {
    /// Reads and validates the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] for bad magic,
    /// [`TraceError::UnsupportedVersion`] for a version mismatch, or an
    /// I/O error from the source.
    pub fn new(mut source: R) -> Result<Self, TraceError> {
        let count = read_header(&mut source)?;
        Ok(Self {
            source,
            decoder: RecordDecoder::new(),
            remaining: (count != COUNT_UNKNOWN).then_some(count),
        })
    }

    /// Requests left, when the stream declared a count.
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }

    fn read_one(&mut self) -> Result<Option<Request>, TraceError> {
        let request = match &mut self.remaining {
            Some(0) => return Ok(None),
            Some(n) => {
                *n -= 1;
                self.decoder.decode(&mut self.source)?
            }
            // Unknown-count streams end at end of input, but only at a
            // record boundary: a record cut short is an error.
            None => match read_byte(&mut self.source)? {
                None => return Ok(None),
                Some(first) => {
                    let mut record = std::slice::from_ref(&first).chain(&mut self.source);
                    self.decoder.decode(&mut record)?
                }
            },
        };
        Ok(Some(request))
    }
}

/// Reads one byte, or `None` at end of input.
fn read_byte<R: Read>(r: &mut R) -> Result<Option<u8>, TraceError> {
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

impl<R: Read> Iterator for StreamReader<R> {
    type Item = Result<Request, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_one().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_trace, write_trace};
    use crate::Trace;

    fn sample() -> Vec<Request> {
        (0..100u64)
            .map(|i| {
                if i % 3 == 0 {
                    Request::write(i * 7, 0x1000 + i * 64, 128)
                } else {
                    Request::read(i * 7, 0x9000 - i * 32, 64)
                }
            })
            .collect()
    }

    #[test]
    fn stream_round_trip() {
        let reqs = sample();
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        assert_eq!(w.written(), 100);
        w.finish().unwrap();

        let r = StreamReader::new(buf.as_slice()).unwrap();
        let back: Result<Vec<Request>, TraceError> = r.collect();
        assert_eq!(back.unwrap(), reqs);
    }

    #[test]
    fn seekable_finish_is_batch_compatible() {
        let reqs = sample();
        let mut cursor = std::io::Cursor::new(Vec::new());
        let mut w = StreamWriter::new(&mut cursor).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        w.finish_seekable().unwrap();
        let bytes = cursor.into_inner();
        // The batch decoder accepts the patched stream.
        let trace = read_trace(&mut bytes.as_slice()).unwrap();
        assert_eq!(trace.requests(), reqs.as_slice());
    }

    #[test]
    fn reader_accepts_batch_encoded_traces() {
        let trace = Trace::from_requests(sample());
        let mut buf = Vec::new();
        write_trace(&mut buf, &trace).unwrap();
        let r = StreamReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.remaining(), Some(100));
        let back: Vec<Request> = r.map(Result::unwrap).collect();
        assert_eq!(back, trace.requests());
    }

    #[test]
    fn empty_stream() {
        let mut buf = Vec::new();
        StreamWriter::new(&mut buf).unwrap().finish().unwrap();
        let mut r = StreamReader::new(buf.as_slice()).unwrap();
        assert!(r.next().is_none());
    }

    #[test]
    fn truncated_stream_is_an_error_not_silence() {
        let reqs = sample();
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        // Chop inside a request record (not at a boundary).
        buf.truncate(buf.len() - 1);
        let r = StreamReader::new(buf.as_slice()).unwrap();
        let items: Vec<Result<Request, TraceError>> = r.collect();
        assert!(items.last().unwrap().is_err(), "mid-record cut must error");
    }

    #[test]
    fn cut_inside_a_multi_byte_time_delta_is_an_error() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf).unwrap();
        for i in 0..10u64 {
            w.write(&Request::read(i * 1_000, 0x1000 + i * 64, 64))
                .unwrap();
        }
        w.finish().unwrap();
        // Header (15 bytes) + record 0 (5 bytes), then record 1 opens with
        // the two-byte varint of its 1,000-cycle time delta.
        assert_eq!(buf[20] & 0x80, 0x80, "byte 20 continues a varint");
        buf.truncate(21);
        let items: Vec<Result<Request, TraceError>> =
            StreamReader::new(buf.as_slice()).unwrap().collect();
        assert_eq!(items.len(), 2, "{items:?}");
        assert!(items[0].is_ok());
        assert!(items[1].is_err(), "mid-varint cut must error");
    }

    #[test]
    #[should_panic(expected = "timestamp order")]
    fn out_of_order_write_panics() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf).unwrap();
        w.write(&Request::read(10, 0, 4)).unwrap();
        let _ = w.write(&Request::read(5, 0, 4));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"XXXX\x01".to_vec();
        assert!(StreamReader::new(buf.as_slice()).is_err());
    }
}
