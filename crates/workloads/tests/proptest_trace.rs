//! Property tests for the request-trace serialization seam, the binary
//! OTCT format (`Trace::save` / `Trace::load`) the engine replays from
//! files: round trips must be exact for arbitrary request sequences and
//! corrupt headers must be rejected, never misparsed.

use otc_core::request::{Request, Sign};
use otc_core::tree::NodeId;
use otc_workloads::trace::{Trace, TraceHeader};
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

    #[test]
    fn binary_round_trip_is_identity(
        seeds in prop::collection::vec((any::<u32>(), any::<bool>()), 0..800),
        seed in any::<u64>(),
        shard_map in prop::collection::vec(any::<u32>(), 0..6),
        name in prop::collection::vec(97u8..123, 0..24),
    ) {
        // universe = 0 disables the bound, so the full u32 id range must
        // survive the varint encoding bit-for-bit.
        let trace = Trace {
            header: TraceHeader {
                universe: 0,
                shard_map,
                seed,
                generator: String::from_utf8(name).unwrap(),
            },
            requests: requests_from(&seeds),
        };
        let back = Trace::from_bytes(&trace.to_bytes()).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn corrupt_headers_are_rejected_not_misparsed(
        seeds in prop::collection::vec((0u32..1000, any::<bool>()), 1..50),
        flip_at in 0usize..20,
        flip_bit in 0u8..8,
    ) {
        // Flipping any bit in the fixed part of the header must either be
        // rejected outright or change only *metadata* fields it legally
        // may (universe / seed / shard sizes) — never panic, never yield a
        // different request sequence under the same magic+version+flags.
        let trace = Trace {
            header: TraceHeader::single_tree(1000, 7, "prop"),
            requests: requests_from(&seeds),
        };
        let mut bytes = trace.to_bytes();
        if flip_at < bytes.len() {
            bytes[flip_at] ^= 1 << flip_bit;
            match Trace::from_bytes(&bytes) {
                Err(_) => {} // rejected: fine
                Ok(back) => {
                    // Accepted: the magic/version region (bytes 0..6) must
                    // have been untouched for this to parse at all. One flip
                    // in the flags word is legal — bit 0 of byte 6 is
                    // TRACE_FLAG_REBALANCE, which only *permits* extra
                    // records without changing how requests parse. Either
                    // way the requests must come back identical — a
                    // metadata-field flip cannot corrupt the body silently.
                    let rebalance_bit = flip_at == 6 && flip_bit == 0;
                    prop_assert!(
                        flip_at >= 8 || rebalance_bit,
                        "flips in magic/version/flags must be rejected"
                    );
                    prop_assert_eq!(back.requests, trace.requests);
                }
            }
        }
    }

    #[test]
    fn truncated_bodies_are_detected(
        seeds in prop::collection::vec((0u32..1000, any::<bool>()), 1..100),
        cut in 1usize..16,
    ) {
        let trace = Trace {
            header: TraceHeader::single_tree(1000, 3, "prop"),
            requests: requests_from(&seeds),
        };
        let bytes = trace.to_bytes();
        if cut < bytes.len() {
            // The declared record count makes any truncation detectable.
            prop_assert!(Trace::from_bytes(&bytes[..bytes.len() - cut]).is_err());
        }
    }
}
