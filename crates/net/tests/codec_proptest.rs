//! Codec fuzzing: the wire format's totality contract.
//!
//! Every message round-trips bit-exactly; every damaged input — any
//! prefix truncation, any byte flip, any oversized declared length —
//! decodes to a *typed* [`WireError`], never a panic and never an
//! allocation beyond the input's own size. The generators build messages
//! from seeded RNG draws (realistic queries via the catalog generator,
//! adversarial float patterns by hand), then attack the encodings
//! mechanically.

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_net::wire::{
    decode_message, encode_message, read_frame, write_frame, Message, PlanSummary, WireError,
    WireOutcome, WireProtocolError, WireRequest, WireResponse, MAX_FRAME_LEN,
};
use mpq_service::SubmittedQuery;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random message of any kind, driven entirely by `seed`.
fn arbitrary_message(seed: u64) -> Message {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_tables = rng.gen_range(2usize..5);
    let topology = if rng.gen_range(0u32..2) == 0 {
        Topology::Chain
    } else {
        Topology::Star
    };
    let query = generate(&GeneratorConfig::paper(num_tables, topology, 1), &mut rng);
    match rng.gen_range(0u32..6) {
        0 => Message::Request(WireRequest {
            request_id: rng.gen_range(0u64..u64::MAX),
            digest: rng.gen_range(0u64..u64::MAX),
            attempt: rng.gen_range(0u32..8),
            trace_id: rng.gen_range(0u64..u64::MAX),
            submitted: SubmittedQuery {
                query,
                deadline: if rng.gen_range(0u32..2) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0.0..1e6))
                },
            },
        }),
        1 => {
            // Adversarial float payloads: signed zeros, subnormals,
            // extremes — all must survive as exact bit patterns.
            let specials = [
                0.0,
                -0.0,
                f64::MIN_POSITIVE,
                f64::MAX,
                -f64::MAX,
                1.0 / 3.0,
                2.2250738585072014e-308,
            ];
            let frontiers: Vec<Vec<(u64, Vec<f64>)>> = (0..rng.gen_range(0usize..4))
                .map(|_| {
                    (0..rng.gen_range(0usize..4))
                        .map(|_| {
                            let costs: Vec<f64> = (0..rng.gen_range(1usize..4))
                                .map(|_| specials[rng.gen_range(0usize..specials.len())])
                                .collect();
                            (rng.gen_range(0u64..1000), costs)
                        })
                        .collect()
                })
                .collect();
            Message::Response(WireResponse {
                request_id: rng.gen_range(0u64..u64::MAX),
                digest: rng.gen_range(0u64..u64::MAX),
                trace_id: rng.gen_range(0u64..u64::MAX),
                shard: rng.gen_range(0u32..8),
                dedup: rng.gen_range(0u32..2) == 1,
                outcome: WireOutcome::Ok(PlanSummary {
                    plans_created: rng.gen_range(0u64..1 << 40),
                    plans_pruned: rng.gen_range(0u64..1 << 40),
                    lps_solved_query: rng.gen_range(0u64..1 << 30),
                    final_plan_count: rng.gen_range(0u64..1 << 20),
                    frontiers,
                }),
                served_epsilon: if rng.gen_range(0u32..2) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0.0..1.0))
                },
            })
        }
        2 => Message::Response(WireResponse {
            request_id: rng.gen_range(0u64..u64::MAX),
            digest: rng.gen_range(0u64..u64::MAX),
            trace_id: rng.gen_range(0u64..u64::MAX),
            shard: rng.gen_range(0u32..8),
            dedup: false,
            outcome: WireOutcome::Panicked {
                message: format!("injected panic {}", rng.gen_range(0u64..1000)),
            },
            served_epsilon: None,
        }),
        3 => Message::Response(WireResponse {
            request_id: rng.gen_range(0u64..u64::MAX),
            digest: rng.gen_range(0u64..u64::MAX),
            trace_id: rng.gen_range(0u64..u64::MAX),
            shard: 0,
            dedup: false,
            outcome: match rng.gen_range(0u32..4) {
                0 => WireOutcome::TimedOut,
                1 => WireOutcome::Rejected,
                2 => WireOutcome::Shutdown,
                _ => WireOutcome::Unavailable,
            },
            served_epsilon: None,
        }),
        4 => Message::Error(WireProtocolError {
            request_id: rng.gen_range(0u64..u64::MAX),
            message: "truncated frame: needed 8 more bytes, have 3".into(),
        }),
        _ => Message::Request(WireRequest {
            request_id: 0,
            digest: 0,
            attempt: 0,
            trace_id: 0,
            submitted: SubmittedQuery {
                query,
                deadline: None,
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, for every message kind.
    #[test]
    fn every_message_round_trips(seed in 0u64..1 << 48) {
        let msg = arbitrary_message(seed);
        let bytes = encode_message(&msg);
        prop_assert!(bytes.len() <= MAX_FRAME_LEN, "encodings fit one frame");
        let back = decode_message(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&msg));
        // And a second encode is byte-identical (canonical encoding).
        let Ok(back) = back else { unreachable!() };
        prop_assert_eq!(encode_message(&back), bytes);
    }

    /// Every strict prefix of a valid encoding decodes to a typed error.
    #[test]
    fn every_truncation_is_a_typed_error(seed in 0u64..1 << 48, cut in 0usize..1 << 12) {
        let bytes = encode_message(&arbitrary_message(seed));
        let keep = cut % bytes.len(); // strict prefix
        let err = decode_message(&bytes[..keep]);
        prop_assert!(err.is_err(), "prefix of length {} decoded", keep);
        // Rendering the diagnosis must not panic either.
        let _ = err.expect_err("checked above").to_string();
    }

    /// Any single corrupted byte is detected: body and checksum damage
    /// as `Corrupt`, header damage as its own typed diagnosis. No flip
    /// yields the original message back, and none panics.
    #[test]
    fn every_byte_flip_is_detected(seed in 0u64..1 << 48, pos in 0usize..1 << 12, xor in 1u32..=255) {
        let msg = arbitrary_message(seed);
        let mut bytes = encode_message(&msg);
        let pos = pos % bytes.len();
        bytes[pos] ^= xor as u8;
        match decode_message(&bytes) {
            // Damage in or after the checksum field is always caught by
            // the digest comparison.
            Err(err) => {
                if pos >= 4 {
                    prop_assert!(
                        matches!(err, WireError::Corrupt { .. }),
                        "flip at {} gave {:?}, expected Corrupt",
                        pos,
                        err
                    );
                }
            }
            // A flipped message *tag* (byte 3) can reinterpret the body
            // as another kind whose checksum still matches; it must at
            // least never reproduce the original.
            Ok(other) => {
                prop_assert!(pos < 4, "body flip at {} decoded successfully", pos);
                prop_assert_ne!(other, msg);
            }
        }
    }

    /// Garbage of any length never panics the decoder and never
    /// succeeds by luck (the checksum makes a false positive a ~2⁻⁶⁴
    /// event; these seeds contain none).
    #[test]
    fn random_garbage_never_panics(seed in 0u64..1 << 48, len in 0usize..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        prop_assert!(decode_message(&bytes).is_err());
    }
}

/// A frame whose length prefix declares more than [`MAX_FRAME_LEN`] is
/// refused before any buffer is allocated — the no-over-allocation
/// guarantee at the framing layer (the message layer's sequence caps are
/// covered in the wire unit tests).
#[test]
fn oversized_frame_prefix_is_refused_without_allocating() {
    for declared in [MAX_FRAME_LEN as u32 + 1, u32::MAX, u32::MAX - 7, 1 << 30] {
        let mut stream = std::io::Cursor::new(declared.to_le_bytes().to_vec());
        let err = read_frame(&mut stream, || false).expect_err("oversized prefix must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
    // At exactly the cap the length is honored (and then fails on EOF,
    // not on the cap).
    let mut stream = std::io::Cursor::new((MAX_FRAME_LEN as u32).to_le_bytes().to_vec());
    let err = read_frame(&mut stream, || false).expect_err("no payload follows");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

/// Interleaved frames on one stream stay in lockstep, and a stream that
/// dies mid-frame reports `UnexpectedEof` rather than yielding a short
/// payload.
#[test]
fn framing_survives_interleaving_and_detects_midframe_eof() {
    let a = encode_message(&arbitrary_message(1));
    let b = encode_message(&arbitrary_message(2));
    let mut stream = Vec::new();
    write_frame(&mut stream, &a).unwrap();
    write_frame(&mut stream, &b).unwrap();
    // Chop the second frame short.
    stream.truncate(4 + a.len() + 4 + b.len() / 2);
    let mut cursor = std::io::Cursor::new(stream);
    assert_eq!(
        read_frame(&mut cursor, || false).unwrap().as_deref(),
        Some(&a[..])
    );
    let err = read_frame(&mut cursor, || false).expect_err("mid-frame EOF");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}
