//! Property tests for the serving wire protocol, mirroring the trace
//! reader's guarantees: arbitrary messages round-trip exactly through
//! frames, frame streams reassemble, and truncated or corrupt bytes are
//! rejected — never silently misparsed.

use std::io::Cursor;

use otc_core::request::{Request, Sign};
use otc_core::tree::NodeId;
use otc_serve::wire::{read_message, Message, MAX_FRAME, WIRE_VERSION};
use proptest::prelude::*;

fn requests_from(seeds: &[(u32, bool)]) -> Vec<Request> {
    seeds
        .iter()
        .map(|&(id, pos)| Request {
            node: NodeId(id),
            sign: if pos { Sign::Positive } else { Sign::Negative },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Submit frames round-trip exactly for arbitrary request batches
    /// (the full u32 id space, both signs, any length).
    #[test]
    fn submit_round_trip_is_exact(
        seeds in prop::collection::vec((any::<u32>(), any::<bool>()), 0..600),
    ) {
        let msg = Message::Submit { requests: requests_from(&seeds) };
        let mut buf = Vec::new();
        msg.encode_into(&mut buf);
        let mut scratch = Vec::new();
        let back = read_message(&mut Cursor::new(&buf), &mut scratch)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .expect("not EOF");
        prop_assert_eq!(back, msg);
    }

    /// A stream of mixed frames reassembles message by message, in
    /// order, and ends with a clean EOF.
    #[test]
    fn frame_streams_reassemble(
        batches in prop::collection::vec(
            prop::collection::vec((any::<u32>(), any::<bool>()), 0..40),
            0..12,
        ),
        accepted in any::<u64>(),
    ) {
        let mut messages: Vec<Message> = vec![
            Message::Hello { version: WIRE_VERSION },
            Message::HelloAck { version: WIRE_VERSION, universe: 1024, shards: 4 },
        ];
        for b in &batches {
            messages.push(Message::Submit { requests: requests_from(b) });
        }
        messages.push(Message::Ack { accepted });
        messages.push(Message::Drain);
        messages.push(Message::Bye);

        let mut buf = Vec::new();
        for m in &messages {
            m.encode_into(&mut buf);
        }
        let mut src = Cursor::new(&buf);
        let mut scratch = Vec::new();
        for want in &messages {
            let got = read_message(&mut src, &mut scratch)
                .map_err(|e| TestCaseError::fail(e.to_string()))?
                .expect("frame present");
            prop_assert_eq!(&got, want);
        }
        prop_assert!(read_message(&mut src, &mut scratch).unwrap().is_none(), "clean EOF");
    }

    /// Every proper prefix of a frame is rejected as truncation (or, for
    /// the empty prefix, reported as clean EOF) — no prefix ever decodes
    /// into a message.
    #[test]
    fn every_truncation_is_detected(
        seeds in prop::collection::vec((any::<u32>(), any::<bool>()), 1..80),
    ) {
        let msg = Message::Submit { requests: requests_from(&seeds) };
        let mut buf = Vec::new();
        msg.encode_into(&mut buf);
        let mut scratch = Vec::new();
        prop_assert!(
            read_message(&mut Cursor::new(&buf[..0]), &mut scratch).unwrap().is_none(),
            "empty prefix is clean EOF"
        );
        for cut in 1..buf.len() {
            let err = read_message(&mut Cursor::new(&buf[..cut]), &mut scratch)
                .expect_err("proper prefixes never decode");
            prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {}", cut);
        }
    }

    /// Flipping the length prefix to lie (shorter or longer than the real
    /// body, zero, or over the cap) never yields a valid message.
    #[test]
    fn corrupt_length_prefixes_are_rejected(
        seeds in prop::collection::vec((any::<u32>(), any::<bool>()), 1..40),
        lie in any::<u32>(),
    ) {
        let msg = Message::Submit { requests: requests_from(&seeds) };
        let mut buf = Vec::new();
        msg.encode_into(&mut buf);
        let truth = u32::from_le_bytes(buf[..4].try_into().unwrap());
        // (No prop_assume in the vendored proptest: nudge collisions away.)
        let lie = if lie == truth { lie.wrapping_add(1) } else { lie };
        buf[..4].copy_from_slice(&lie.to_le_bytes());
        let mut scratch = Vec::new();
        match read_message(&mut Cursor::new(&buf), &mut scratch) {
            Err(_) => {} // rejected: good
            Ok(None) => prop_assert!(false, "a lying frame must not look like EOF"),
            Ok(Some(got)) => {
                // A shorter-but-valid length can only succeed if the
                // re-framed bytes happen to decode; it must then NOT
                // equal the original message (no silent misparse of the
                // same payload), and the cap must have been respected.
                prop_assert!(lie < truth && lie <= MAX_FRAME);
                // No silent misparse of the same payload allowed.
                prop_assert_ne!(got, msg);
            }
        }
    }

    /// Unknown opcodes are rejected whatever the payload.
    #[test]
    fn unknown_opcodes_are_rejected(
        opcode in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Remap known opcodes to an unassigned one (no prop_assume in the
        // vendored proptest). The retired 0x03 and 0x83 stay in the draw.
        let opcode = if [0x01, 0x02, 0x04, 0x05, 0x06, 0x81, 0x82, 0x84, 0xEE].contains(&opcode) {
            0x7F
        } else {
            opcode
        };
        let mut buf = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
        buf.push(opcode);
        buf.extend_from_slice(&payload);
        let mut scratch = Vec::new();
        let err = read_message(&mut Cursor::new(&buf), &mut scratch).unwrap_err();
        prop_assert!(err.to_string().contains("unknown opcode"), "got: {}", err);
    }
}
