//! The shared request-record codec.
//!
//! One definition of how a [`Request`] becomes bytes, used by every
//! encode/decode path in the workspace: an LEB128 varint of
//! `(node_id << 1) | is_negative`, so hot small node ids cost one byte.
//! This is the OTCT trace body ([`crate::trace::TraceWriter`] /
//! [`crate::trace::TraceReader`]) *and* the `otc-serve` wire protocol's
//! request payload — factoring it here is what guarantees a live
//! service's log replays through the exact bytes-level format the
//! offline tooling reads.
//!
//! Decoding is strict: continuation chains past 64 bits, payload bits
//! shifted out of the top of the `u64`, and node ids overflowing `u32`
//! are rejected as corruption — never silently misparsed into a
//! plausible value (`crates/workloads/tests/proptest_trace.rs` and the
//! serve wire proptests both pin this).

// Codec modules hold the panic-freedom line hardest: a narrowing cast
// or an out-of-bounds index here turns a corrupt record into a wrong
// answer or a crash. CI runs clippy with -D warnings, so these are
// hard gates for this file.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::indexing_slicing)]

use std::io::{self, Read};

use otc_core::request::{Request, Sign};
use otc_core::tree::NodeId;

/// Builds an `InvalidData` error (the kind every corruption path uses).
fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends `value` to `buf` as an LEB128 varint (1–10 bytes).
pub fn encode_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        // otc-lint: allow(R4 reason="masked to 7 bits, provably lossless")
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `src`.
///
/// Returns `Ok(None)` on a clean EOF *before the first byte* (the
/// stream-ended case); EOF mid-varint is an `UnexpectedEof` error.
/// `Interrupted` reads are retried transparently.
///
/// # Errors
/// `InvalidData` on a continuation chain past 64 bits or payload bits
/// that would be shifted out of the top of the `u64`; `UnexpectedEof` on
/// truncation inside a varint.
pub fn decode_varint<R: Read>(src: &mut R) -> io::Result<Option<u64>> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        let read = loop {
            match src.read(&mut byte) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if read == 0 {
            if first {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "byte stream truncated inside a varint",
            ));
        }
        // Reject any continuation past 64 bits *and* any payload bits that
        // would be shifted out of the top of the u64 — a corrupt body must
        // never silently misparse into a plausible value.
        let bits = u64::from(byte[0] & 0x7F);
        let shifted = bits.checked_shl(shift).filter(|v| v >> shift == bits);
        let Some(shifted) = shifted else {
            return Err(bad_data("varint overflows u64"));
        };
        value |= shifted;
        shift += 7;
        first = false;
        if byte[0] & 0x80 == 0 {
            return Ok(Some(value));
        }
    }
}

/// The varint payload of one request record:
/// `(node_id << 1) | is_negative`.
#[must_use]
pub fn request_to_varint(req: Request) -> u64 {
    (u64::from(req.node.0) << 1) | u64::from(req.sign == Sign::Negative)
}

/// Decodes a request record payload (the inverse of
/// [`request_to_varint`]).
///
/// # Errors
/// `InvalidData` when the node id overflows `u32`.
pub fn request_from_varint(value: u64) -> io::Result<Request> {
    let node = u32::try_from(value >> 1)
        .map_err(|_| bad_data(format!("node id {} overflows u32", value >> 1)))?;
    let sign = if value & 1 == 1 { Sign::Negative } else { Sign::Positive };
    Ok(Request { node: NodeId(node), sign })
}

/// Appends one request record to `buf` (LEB128 of
/// [`request_to_varint`]).
pub fn encode_request(buf: &mut Vec<u8>, req: Request) {
    encode_varint(buf, request_to_varint(req));
}

/// Reads one request record from `src`; `Ok(None)` on clean EOF before
/// the record starts.
///
/// # Errors
/// Everything [`decode_varint`] and [`request_from_varint`] reject.
pub fn decode_request<R: Read>(src: &mut R) -> io::Result<Option<Request>> {
    match decode_varint(src)? {
        Some(value) => Ok(Some(request_from_varint(value)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "tests index fixture buffers they just built; a panic here is a failing test, not a service crash"
)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            encode_varint(&mut buf, v);
        }
        let mut src = Cursor::new(buf);
        for &v in &values {
            assert_eq!(decode_varint(&mut src).unwrap(), Some(v));
        }
        assert_eq!(decode_varint(&mut src).unwrap(), None, "clean EOF");
    }

    #[test]
    fn requests_round_trip_and_pack_small_ids() {
        for req in [
            Request::pos(NodeId(0)),
            Request::neg(NodeId(0)),
            Request::pos(NodeId(63)),
            Request::neg(NodeId(u32::MAX)),
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, req);
            let back = decode_request(&mut Cursor::new(&buf)).unwrap().unwrap();
            assert_eq!(back, req);
        }
        let mut buf = Vec::new();
        encode_request(&mut buf, Request::pos(NodeId(63)));
        assert_eq!(buf.len(), 1, "ids below 64 cost one byte");
    }

    #[test]
    fn truncation_and_overflow_are_rejected() {
        // EOF mid-varint.
        let err = decode_varint(&mut Cursor::new([0x80u8])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Payload bits beyond u64.
        let bytes = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let err = decode_varint(&mut Cursor::new(bytes)).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got: {err}");
        // Continuation chain past 10 groups.
        let mut long = vec![0x80u8; 10];
        long.push(0x01);
        let err = decode_varint(&mut Cursor::new(long)).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got: {err}");
        // Node id overflowing u32 (varint itself fine).
        let err = request_from_varint(u64::from(u32::MAX) << 2).unwrap_err();
        assert!(err.to_string().contains("u32"), "got: {err}");
    }
}
