//! The serving wire protocol: versioned, length-prefixed binary frames.
//!
//! Layout of every frame, client→server and server→client alike:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────┐
//! │ u32 LE len │ opcode  │ payload          │   len = 1 + |payload|
//! └────────────┴─────────┴──────────────────┘
//! ```
//!
//! Request payloads reuse the **OTCT record codec**
//! ([`otc_workloads::wire`]): each request is the LEB128 varint of
//! `(node << 1) | sign`, byte-identical to a binary trace body. That is
//! deliberate — the server logs exactly what it accepts, so the log *is*
//! an OTCT trace and `ShardedEngine::replay_trace` replays the live run
//! without any re-encoding.
//!
//! Decoding is strict, mirroring `TraceReader`: unknown opcodes, bad
//! magic, unsupported versions, oversized or truncated frames, trailing
//! garbage after a payload, and varint overflows are all
//! `InvalidData`/`UnexpectedEof` errors, never silently skipped. The
//! server answers any such error with one [`Message::Error`] frame and
//! closes the connection. Round-trips and rejections are pinned by
//! `crates/serve/tests/proptest_wire.rs`.

// Codec modules hold the panic-freedom line hardest: a narrowing cast
// or an out-of-bounds index here turns corrupt peer input into a wrong
// answer or a crash. CI runs clippy with -D warnings, so these are
// hard gates for this file.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::indexing_slicing)]

use std::io::{self, Read, Write};

use otc_core::request::Request;
use otc_workloads::wire as codec;

/// Magic bytes inside the handshake frames (`Hello` / `HelloAck`).
pub const WIRE_MAGIC: [u8; 4] = *b"OTCW";

/// Current protocol version. Servers reject anything else.
pub const WIRE_VERSION: u16 = 1;

/// Hard cap on a frame's length prefix (opcode + payload). Anything
/// larger is treated as corruption — a real client batches well below
/// this.
pub const MAX_FRAME: u32 = 1 << 24;

/// One protocol message. See the module docs for the frame layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client's opening frame: magic + version. Anything else first is a
    /// protocol error.
    Hello {
        /// The protocol version the client speaks.
        version: u16,
    },
    /// Server's reply to a valid [`Message::Hello`]: magic + version +
    /// the service's global universe size and shard count.
    HelloAck {
        /// The protocol version the server speaks.
        version: u16,
        /// Size of the global node-id space requests must stay inside.
        universe: u32,
        /// Number of shards behind the service.
        shards: u32,
    },
    /// A batch of globally-addressed requests (OTCT record encoding).
    /// Answered by [`Message::Ack`] with the accepted count, or
    /// [`Message::Error`] — in which case the whole batch was rejected
    /// atomically.
    Submit {
        /// The requests, in submission order.
        requests: Vec<Request>,
    },
    /// Ask for a [`Message::MetricsReply`] — the server's one live
    /// read-out: stage-latency histograms, operational counters and the
    /// paper's cost totals (see [`crate::obs`]). Serving a scrape never
    /// perturbs results (observability invariant #8); on a server
    /// running without metrics the reply is the valid empty exposition.
    Metrics,
    /// The metrics scrape (reply to [`Message::Metrics`]): a canonical
    /// `otc-obs/1` JSON document (see `otc_obs::MetricsSnapshot`).
    MetricsReply {
        /// The exposition JSON, UTF-8.
        json: String,
    },
    /// Barrier: block until everything accepted so far (service-wide) has
    /// been executed by the shard workers. Answered by [`Message::Ack`].
    Drain,
    /// Graceful goodbye; the server acknowledges and closes.
    Bye,
    /// Positive acknowledgement; `accepted` is the number of requests
    /// taken from a [`Message::Submit`] (0 for other acknowledged ops).
    Ack {
        /// Requests accepted by the acknowledged operation.
        accepted: u64,
    },
    /// The operation (or the connection) failed; the server closes the
    /// connection after sending this.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Opcode bytes. Client→server opcodes have the high bit clear,
/// server→client replies have it set. `0x03` and `0x83` (a retired
/// cost-counter request and its reply, now scrape series) are never
/// reused: they decode as unknown opcodes.
mod op {
    pub const HELLO: u8 = 0x01;
    pub const SUBMIT: u8 = 0x02;
    pub const DRAIN: u8 = 0x04;
    pub const BYE: u8 = 0x05;
    pub const METRICS: u8 = 0x06;
    pub const HELLO_ACK: u8 = 0x81;
    pub const ACK: u8 = 0x82;
    pub const METRICS_REPLY: u8 = 0x84;
    pub const ERROR: u8 = 0xEE;
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// First `N` bytes of `b`, zero-padded — the panic-free spelling of
/// `b.try_into().expect("len checked")` for callers that have already
/// length-checked the slice.
fn le_bytes<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    a
}

/// Opens a frame: writes the placeholder length prefix and the opcode,
/// returning the position [`end_frame`] patches.
fn begin_frame(buf: &mut Vec<u8>, opcode: u8) -> usize {
    let frame_start = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes()); // patched by end_frame
    buf.push(opcode);
    frame_start
}

/// Closes a frame opened by [`begin_frame`]: patches the length prefix.
fn end_frame(buf: &mut [u8], frame_start: usize) {
    // Saturation would need a >4 GiB frame (MAX_FRAME caps decoding far
    // below that); if it ever engaged, the peer rejects the length
    // mismatch with a typed error instead of misframing the stream.
    let len = u32::try_from(buf.len() - frame_start - 4).unwrap_or(u32::MAX);
    // The slot always exists: begin_frame wrote the placeholder at
    // frame_start. get_mut keeps the encoder panic-free by construction.
    if let Some(slot) = buf.get_mut(frame_start..frame_start + 4) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Appends a complete `Submit` frame for `requests` straight from a
/// slice — the client hot path, sparing the `Message::Submit` `Vec`
/// clone per batch. `Message::encode_into` delegates here, so the two
/// paths cannot drift.
pub fn encode_submit(buf: &mut Vec<u8>, requests: &[Request]) {
    let frame_start = begin_frame(buf, op::SUBMIT);
    codec::encode_varint(buf, requests.len() as u64);
    for &r in requests {
        codec::encode_request(buf, r);
    }
    end_frame(buf, frame_start);
}

/// Checks a payload's handshake preamble (magic + version) and returns
/// the version plus the remaining payload.
fn take_handshake(payload: &[u8]) -> io::Result<(u16, &[u8])> {
    let Some((magic, rest)) = payload.split_at_checked(4) else {
        return Err(bad_data("handshake payload truncated"));
    };
    if magic != WIRE_MAGIC {
        return Err(bad_data(format!("bad handshake magic {magic:?}, expected {WIRE_MAGIC:?}")));
    }
    let Some((version, rest)) = rest.split_at_checked(2) else {
        return Err(bad_data("handshake payload truncated"));
    };
    Ok((u16::from_le_bytes(le_bytes(version)), rest))
}

impl Message {
    /// This message's opcode byte.
    #[must_use]
    pub fn opcode(&self) -> u8 {
        match self {
            Message::Hello { .. } => op::HELLO,
            Message::Submit { .. } => op::SUBMIT,
            Message::Metrics => op::METRICS,
            Message::Drain => op::DRAIN,
            Message::Bye => op::BYE,
            Message::HelloAck { .. } => op::HELLO_ACK,
            Message::Ack { .. } => op::ACK,
            Message::MetricsReply { .. } => op::METRICS_REPLY,
            Message::Error { .. } => op::ERROR,
        }
    }

    /// Appends the complete frame (length prefix, opcode, payload) to
    /// `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        if let Message::Submit { requests } = self {
            return encode_submit(buf, requests);
        }
        let frame_start = begin_frame(buf, self.opcode());
        match self {
            Message::Hello { version } => {
                buf.extend_from_slice(&WIRE_MAGIC);
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Message::HelloAck { version, universe, shards } => {
                buf.extend_from_slice(&WIRE_MAGIC);
                buf.extend_from_slice(&version.to_le_bytes());
                buf.extend_from_slice(&universe.to_le_bytes());
                buf.extend_from_slice(&shards.to_le_bytes());
            }
            // Submit took the early return above; nothing to add here.
            Message::Submit { .. } | Message::Metrics | Message::Drain | Message::Bye => {}
            Message::MetricsReply { json } => buf.extend_from_slice(json.as_bytes()),
            Message::Ack { accepted } => codec::encode_varint(buf, *accepted),
            Message::Error { message } => buf.extend_from_slice(message.as_bytes()),
        }
        end_frame(buf, frame_start);
    }

    /// Decodes a frame body (opcode + payload, the bytes the length
    /// prefix counts). Strict: the payload must be consumed exactly.
    ///
    /// # Errors
    /// `InvalidData` on unknown opcodes, bad magic, malformed or
    /// trailing-garbage payloads; `UnexpectedEof` on truncation inside a
    /// varint.
    pub fn decode(opcode: u8, payload: &[u8]) -> io::Result<Message> {
        match opcode {
            op::HELLO => {
                let (version, rest) = take_handshake(payload)?;
                if !rest.is_empty() {
                    return Err(bad_data("trailing bytes after Hello"));
                }
                Ok(Message::Hello { version })
            }
            op::HELLO_ACK => {
                let (version, rest) = take_handshake(payload)?;
                let (lo, hi) = rest
                    .split_at_checked(4)
                    .filter(|(_, hi)| hi.len() == 4)
                    .ok_or_else(|| bad_data("HelloAck payload must be magic+version+u32+u32"))?;
                let universe = u32::from_le_bytes(le_bytes(lo));
                let shards = u32::from_le_bytes(le_bytes(hi));
                Ok(Message::HelloAck { version, universe, shards })
            }
            op::SUBMIT => {
                let mut src = io::Cursor::new(payload);
                let count = codec::decode_varint(&mut src)?
                    .ok_or_else(|| bad_data("Submit payload missing its count"))?;
                // Each record is at least one byte, so a count beyond the
                // remaining payload is corruption — reject it *before*
                // trusting it as an allocation size.
                let capacity = usize::try_from(count)
                    .ok()
                    .filter(|&c| c <= payload.len())
                    .ok_or_else(|| {
                        bad_data(format!(
                            "Submit declares {count} records but carries only {} payload bytes",
                            payload.len()
                        ))
                    })?;
                let mut requests = Vec::with_capacity(capacity);
                for i in 0..count {
                    match codec::decode_request(&mut src)? {
                        Some(r) => requests.push(r),
                        None => {
                            return Err(bad_data(format!(
                                "Submit declared {count} records but ended after {i}"
                            )));
                        }
                    }
                }
                if src.position() != payload.len() as u64 {
                    return Err(bad_data("trailing bytes after Submit records"));
                }
                Ok(Message::Submit { requests })
            }
            op::METRICS | op::DRAIN | op::BYE => {
                if !payload.is_empty() {
                    return Err(bad_data("unexpected payload on a bare opcode"));
                }
                Ok(match opcode {
                    op::METRICS => Message::Metrics,
                    op::DRAIN => Message::Drain,
                    _ => Message::Bye,
                })
            }
            op::ACK => {
                let mut src = io::Cursor::new(payload);
                let accepted = codec::decode_varint(&mut src)?
                    .ok_or_else(|| bad_data("Ack payload missing its count"))?;
                if src.position() != payload.len() as u64 {
                    return Err(bad_data("trailing bytes after Ack"));
                }
                Ok(Message::Ack { accepted })
            }
            op::METRICS_REPLY => {
                let json = std::str::from_utf8(payload)
                    .map_err(|_| bad_data("MetricsReply payload is not UTF-8"))?
                    .to_string();
                Ok(Message::MetricsReply { json })
            }
            op::ERROR => {
                let message = std::str::from_utf8(payload)
                    .map_err(|_| bad_data("Error message is not UTF-8"))?
                    .to_string();
                Ok(Message::Error { message })
            }
            other => Err(bad_data(format!("unknown opcode {other:#04x}"))),
        }
    }
}

/// Writes one message as a frame. `scratch` is a reusable encode buffer
/// (cleared here), so steady-state writes allocate nothing once warm.
///
/// # Errors
/// Propagates I/O errors from `sink`.
pub fn write_message<W: Write>(
    sink: &mut W,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.clear();
    msg.encode_into(scratch);
    sink.write_all(scratch)
}

/// Reads one frame and decodes it. `Ok(None)` on a clean EOF *before*
/// the length prefix (the peer hung up between frames); EOF anywhere
/// inside a frame is `UnexpectedEof`. `scratch` is a reusable read
/// buffer.
///
/// # Errors
/// `InvalidData` on zero-length or oversized frames and everything
/// [`Message::decode`] rejects; `UnexpectedEof` on truncation.
pub fn read_message<R: Read>(src: &mut R, scratch: &mut Vec<u8>) -> io::Result<Option<Message>> {
    // Length prefix, tolerating a clean EOF before its first byte.
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        // got < 4 makes the range valid; the empty-slice fallback keeps
        // this panic-free and would surface as UnexpectedEof below.
        let dst = len_bytes.get_mut(got..).unwrap_or(&mut []);
        match src.read(dst) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(bad_data("zero-length frame (opcode missing)"));
    }
    if len > MAX_FRAME {
        return Err(bad_data(format!("frame of {len} bytes exceeds the {MAX_FRAME} cap")));
    }
    scratch.clear();
    scratch.resize(len as usize, 0);
    src.read_exact(scratch)?;
    let Some((&opcode, body)) = scratch.split_first() else {
        return Err(bad_data("zero-length frame (opcode missing)"));
    };
    Message::decode(opcode, body).map(Some)
}

/// Whether `buf` begins with one whole frame by [`read_message`]'s
/// length rules: a 4-byte prefix declaring `1..=MAX_FRAME` bytes, and
/// that many bytes after it. A short prefix, a short body, and a zero
/// or over-cap length all answer `false`. The server reads its read
/// buffer with this to tell a `read_message` that cannot block from one
/// that may.
pub(crate) fn holds_complete_frame(buf: &[u8]) -> bool {
    let Some(prefix) = buf.get(..4) else {
        return false;
    };
    let len = u32::from_le_bytes(le_bytes(prefix));
    (1..=MAX_FRAME).contains(&len) && buf.len() - 4 >= len as usize
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "tests index and truncate fixture buffers they just built; a panic here is a failing test, not a service crash"
)]
mod tests {
    use super::*;
    use otc_core::tree::NodeId;

    fn round_trip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        msg.encode_into(&mut buf);
        let mut scratch = Vec::new();
        let back = read_message(&mut io::Cursor::new(&buf), &mut scratch)
            .expect("own encoding decodes")
            .expect("not EOF");
        assert_eq!(&back, msg);
        back
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(&Message::Hello { version: WIRE_VERSION });
        round_trip(&Message::HelloAck { version: 1, universe: 4096, shards: 8 });
        round_trip(&Message::Submit { requests: vec![] });
        round_trip(&Message::Submit {
            requests: vec![
                Request::pos(NodeId(0)),
                Request::neg(NodeId(127)),
                Request::pos(NodeId(u32::MAX)),
            ],
        });
        round_trip(&Message::Metrics);
        round_trip(&Message::MetricsReply {
            json: "{\"format\":\"otc-obs/1\",\"metrics\":[]}".to_string(),
        });
        round_trip(&Message::Drain);
        round_trip(&Message::Bye);
        round_trip(&Message::Ack { accepted: 12345 });
        round_trip(&Message::Error { message: "shard 2: capacity exceeded".to_string() });
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut scratch = Vec::new();
        assert!(read_message(&mut io::Cursor::new(&[][..]), &mut scratch).unwrap().is_none());
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        let mut buf = Vec::new();
        Message::Submit { requests: vec![Request::pos(NodeId(300)); 4] }.encode_into(&mut buf);
        let mut scratch = Vec::new();
        for cut in 1..buf.len() {
            let err = read_message(&mut io::Cursor::new(&buf[..cut]), &mut scratch)
                .expect_err("every proper prefix must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn a_complete_frame_is_told_from_every_prefix() {
        let mut buf = Vec::new();
        Message::Submit { requests: vec![Request::pos(NodeId(300)); 4] }.encode_into(&mut buf);
        // Exactly one frame, and the same frame with the next one begun.
        assert!(holds_complete_frame(&buf));
        let mut two = buf.clone();
        Message::Drain.encode_into(&mut two);
        assert!(holds_complete_frame(&two));
        assert!(holds_complete_frame(&two[..buf.len() + 2]));
        // Every proper prefix, the empty one and one byte short included,
        // is incomplete: cuts inside the length prefix and inside the body.
        for cut in 0..buf.len() {
            assert!(!holds_complete_frame(&buf[..cut]), "cut at {cut}");
        }
        // The smallest frame: a bare opcode.
        assert!(holds_complete_frame(&[1, 0, 0, 0, 0x04]));
        assert!(!holds_complete_frame(&[1, 0, 0, 0]));
    }

    #[test]
    fn frames_read_message_rejects_are_never_complete() {
        // Zero length: read_message refuses it, so it must not defer.
        assert!(!holds_complete_frame(&[0, 0, 0, 0, 0x04, 0x04]));
        // One over the cap, with the body "present" as far as a short
        // buffer can tell, and the cap itself declared but not present.
        let mut over = (MAX_FRAME + 1).to_le_bytes().to_vec();
        over.resize(4 + MAX_FRAME as usize + 1, 0x04);
        assert!(!holds_complete_frame(&over));
        let at_cap = MAX_FRAME.to_le_bytes();
        assert!(!holds_complete_frame(&at_cap));
        let mut full = at_cap.to_vec();
        full.resize(4 + MAX_FRAME as usize, 0x04);
        assert!(holds_complete_frame(&full));
        assert!(!holds_complete_frame(&full[..full.len() - 1]));
        assert!(!holds_complete_frame(&u32::MAX.to_le_bytes()));
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let mut scratch = Vec::new();
        // Zero-length frame.
        let err =
            read_message(&mut io::Cursor::new(&0u32.to_le_bytes()[..]), &mut scratch).unwrap_err();
        assert!(err.to_string().contains("zero-length"), "got: {err}");
        // Oversized length prefix.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let err = read_message(&mut io::Cursor::new(&huge[..]), &mut scratch).unwrap_err();
        assert!(err.to_string().contains("cap"), "got: {err}");
        // Unknown opcodes, the two retired ones included.
        for opcode in [0x7F, 0x03, 0x83] {
            let mut frame = 1u32.to_le_bytes().to_vec();
            frame.push(opcode);
            let err = read_message(&mut io::Cursor::new(&frame), &mut scratch).unwrap_err();
            assert!(err.to_string().contains("unknown opcode"), "{opcode:#04x}: {err}");
        }
        // Bad handshake magic.
        let mut buf = Vec::new();
        Message::Hello { version: 1 }.encode_into(&mut buf);
        buf[5] = b'X'; // first magic byte (after 4-byte len + opcode)
        let err = read_message(&mut io::Cursor::new(&buf), &mut scratch).unwrap_err();
        assert!(err.to_string().contains("magic"), "got: {err}");
        // Trailing garbage after a Submit payload.
        let mut buf = Vec::new();
        Message::Submit { requests: vec![Request::pos(NodeId(1))] }.encode_into(&mut buf);
        buf.push(0x00);
        let len = (buf.len() - 4) as u32;
        buf[..4].copy_from_slice(&len.to_le_bytes());
        let err = read_message(&mut io::Cursor::new(&buf), &mut scratch).unwrap_err();
        assert!(err.to_string().contains("trailing"), "got: {err}");
        // Submit whose count promises more records than it carries.
        let mut buf = Vec::new();
        Message::Submit { requests: vec![Request::pos(NodeId(1)); 3] }.encode_into(&mut buf);
        let cut = buf.len() - 1;
        let mut short = buf[..cut].to_vec();
        let len = (short.len() - 4) as u32;
        short[..4].copy_from_slice(&len.to_le_bytes());
        let err = read_message(&mut io::Cursor::new(&short), &mut scratch).unwrap_err();
        assert!(err.to_string().contains("ended after"), "got: {err}");
    }
}
