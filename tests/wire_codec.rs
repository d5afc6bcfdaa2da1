//! Property and golden-fixture tests for the `/2` binary frame codec.
//!
//! Every numeric field crosses as the raw little-endian bytes of its **bit
//! pattern**, so encode→decode is exact for every `u64` word and every `f32`
//! — including `−0.0`, NaNs, and subnormals — and decoding returns typed
//! [`WireError`]s for truncated, corrupt, or wrong-version input instead of
//! panicking or accepting it.

use marsit::simnet::wire::{sole_frame, Writer};
use marsit::simnet::{Frame, FrameKind, Payload, TraceCtx, WireError, DRIVER};
use proptest::prelude::*;

/// All frame kinds, for exhaustive sweeps.
const KINDS: [FrameKind; 7] = [
    FrameKind::Hello,
    FrameKind::Data,
    FrameKind::Round,
    FrameKind::Result,
    FrameKind::Failed,
    FrameKind::Down,
    FrameKind::Stop,
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_fixture_lines_are_pinned() {
    // The wire format is a protocol: these exact bytes (hex dumps recorded
    // for format /2) must keep decoding, and the frames must keep encoding
    // to them. Header = magic, version, kind, body length, CRC-32; body =
    // from, to, payload tag (0 empty / 1 words), [count, words].
    let cases: &[(&str, Frame)] = &[
        (
            concat!(
                "4d525354",
                "02",
                "02",
                "1d000000",
                "3cdbc616",
                "03000000",
                "01000000",
                "01",
                "02000000",
                "01000000efbeadde",
                "0700000000000000",
            ),
            Frame::words(
                FrameKind::Data,
                3,
                1,
                vec![0xdead_beef_0000_0001, 0x0000_0000_0000_0007],
            ),
        ),
        (
            concat!("4d525354", "02", "07", "09000000", "de61d550", "ffffffff", "02000000", "00",),
            Frame::control(FrameKind::Stop, DRIVER, 2),
        ),
        (
            concat!("4d525354", "02", "01", "09000000", "f4df6bb8", "05000000", "ffffffff", "00",),
            Frame::control(FrameKind::Hello, 5, DRIVER),
        ),
    ];
    for (dump, frame) in cases {
        let encoded = frame.encode();
        assert_eq!(&hex(&encoded), dump);
        assert_eq!(&Frame::decode(&encoded).unwrap(), frame);
    }
}

/// Round-trips an `f32` slice through the `Writer` / `Reader` pair the
/// checkpoint relies on and returns what came back.
fn f32s_through_the_codec(values: &[f32]) -> Vec<f32> {
    let mut w = Writer::new(0x7f, 4 + 4 * values.len());
    w.f32s(values);
    let frame = w.finish();
    let (kind, mut body) = sole_frame(&frame).expect("own frame");
    assert_eq!(kind, 0x7f);
    let back = body.f32s().expect("own slice");
    body.finish().expect("nothing after the slice");
    back
}

#[test]
fn float_special_values_round_trip_bit_exact() {
    let specials: [f32; 8] = [
        0.0,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 2.0,     // subnormal
        f32::from_bits(0x0000_0001), // smallest subnormal
        f32::from_bits(0xffc0_0001), // negative quiet NaN with payload
    ];
    let got = f32s_through_the_codec(&specials);
    assert_eq!(got.len(), specials.len());
    for (a, b) in specials.iter().zip(&got) {
        assert_eq!(a.to_bits(), b.to_bits(), "bit pattern not preserved");
    }
}

#[test]
fn typed_errors_for_malformed_frames() {
    let good = Frame::words(FrameKind::Data, 0, 1, vec![0xdead_beef_0000_0001]).encode();
    let mutate = |f: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = good.clone();
        f(&mut bytes);
        bytes
    };
    // A CRC-valid frame with a body of the caller's making.
    let sealed = |kind: u8, body: &[u8]| {
        let mut w = Writer::new(kind, body.len());
        for &b in body {
            w.u8(b);
        }
        w.finish()
    };
    type ErrCheck = fn(&WireError) -> bool;
    let cases: Vec<(&str, Vec<u8>, ErrCheck)> = vec![
        ("empty input", Vec::new(), |e| {
            matches!(e, WireError::Truncated)
        }),
        ("half a header", good[..9].to_vec(), |e| {
            matches!(e, WireError::Truncated)
        }),
        ("a line of text", b"hello 0 1 -\n".to_vec(), |e| {
            matches!(e, WireError::BadMagic { .. })
        }),
        ("one foreign byte", b"x".to_vec(), |e| {
            matches!(e, WireError::BadMagic { .. })
        }),
        ("version 9", mutate(&|b| b[4] = 9), |e| {
            matches!(e, WireError::UnsupportedVersion { found: 9 })
        }),
        ("body damaged", mutate(&|b| b[20] ^= 0x10), |e| {
            matches!(e, WireError::BadCrc { .. })
        }),
        ("kind damaged", mutate(&|b| b[5] = 3), |e| {
            matches!(e, WireError::BadCrc { .. })
        }),
        ("kind 0x7f", sealed(0x7f, &[0; 9]), |e| {
            matches!(e, WireError::UnknownKind { found: 0x7f })
        }),
        (
            "payload tag 9",
            sealed(2, &[0, 0, 0, 0, 1, 0, 0, 0, 9]),
            |e| matches!(e, WireError::BadPayload { .. }),
        ),
        (
            "half a trace context",
            sealed(2, &[0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2, 3]),
            |e| matches!(e, WireError::Truncated),
        ),
        (
            "a second frame behind the first",
            [good.clone(), good.clone()].concat(),
            |e| matches!(e, WireError::BadPayload { .. }),
        ),
    ];
    for (what, bytes, matches_expected) in &cases {
        let err = Frame::decode(bytes).expect_err(what);
        assert!(matches_expected(&err), "{what}: got {err:?}");
    }
}

/// Never accept damage: every strict prefix of a frame is `Truncated`, and
/// every single-bit flip — header, payload or trace context — is rejected.
#[test]
fn every_truncation_and_bit_flip_is_rejected() {
    let frame = Frame::words(
        FrameKind::Data,
        2,
        5,
        vec![1, u64::MAX, 0x0123_4567_89ab_cdef],
    )
    .with_ctx(TraceCtx {
        round: 3,
        seq: 40,
        sender: 2,
        send_ns: 1_700_000_000_000_000_000,
    });
    let bytes = frame.encode();
    assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    for cut in 0..bytes.len() {
        assert_eq!(
            Frame::decode(&bytes[..cut]),
            Err(WireError::Truncated),
            "cut at {cut}"
        );
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            Frame::decode(&flipped).is_err(),
            "bit {bit} flipped and the frame still decoded"
        );
    }
}

/// A count that promises more than the input holds is `Truncated` before
/// anything is allocated for it — in the header's length field and in a
/// CRC-valid body alike.
#[test]
fn overlong_length_claims_are_truncated_not_allocated() {
    let mut header_lies = Frame::words(FrameKind::Data, 0, 1, vec![7]).encode();
    header_lies[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Frame::decode(&header_lies), Err(WireError::Truncated));

    for tag in [1u8, 2] {
        let mut body_lies = Writer::new(FrameKind::Data as u8, 0);
        body_lies.u32(0);
        body_lies.u32(1);
        body_lies.u8(tag); // words, then bytes
        body_lies.u32(u32::MAX); // 4 Gi of them, none present
        assert_eq!(
            Frame::decode(&body_lies.finish()),
            Err(WireError::Truncated),
            "payload tag {tag}"
        );
    }
}

proptest! {
    /// Any words frame round-trips exactly: kind, endpoints, and every
    /// 64-bit pattern in the payload.
    #[test]
    fn words_frames_round_trip(
        kind_ix in 0usize..7,
        from in any::<u32>(),
        to in any::<u32>(),
        words in proptest::collection::vec(any::<u64>(), 0..17),
    ) {
        let frame = Frame::words(KINDS[kind_ix], from, to, words);
        let bytes = frame.encode();
        prop_assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    /// Any bytes payload round-trips exactly, with or without a trace
    /// context, and the context costs exactly its fixed width.
    #[test]
    fn bytes_frames_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        ctx in any::<(u64, u64, u64)>(),
        sender in any::<u32>(),
    ) {
        let plain = Frame {
            kind: FrameKind::Telem,
            from: 1,
            to: DRIVER,
            payload: Payload::Bytes(payload),
            ctx: None,
        };
        let traced = plain.clone().with_ctx(TraceCtx {
            round: ctx.0,
            seq: ctx.1,
            sender,
            send_ns: ctx.2,
        });
        prop_assert_eq!(&Frame::decode(&plain.encode()).unwrap(), &plain);
        prop_assert_eq!(&Frame::decode(&traced.encode()).unwrap(), &traced);
        prop_assert_eq!(
            traced.encode().len(),
            plain.encode().len() + marsit::simnet::CTX_WIRE_BYTES
        );
    }

    /// Any float slice round-trips bit-exactly through the codec's f32-slice
    /// pair, whatever the bit pattern (we synthesize floats from raw bits,
    /// hitting NaNs and subnormals).
    #[test]
    fn float_frames_round_trip_all_bit_patterns(
        bits in proptest::collection::vec(any::<u32>(), 1..9),
    ) {
        let floats: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let got = f32s_through_the_codec(&floats);
        prop_assert_eq!(got.len(), bits.len());
        for (b, f) in bits.iter().zip(&got) {
            prop_assert_eq!(*b, f.to_bits());
        }
    }

    /// Truncating a valid frame anywhere never panics and never yields a
    /// frame: a strict prefix is always the typed `Truncated`.
    #[test]
    fn truncation_never_panics(
        words in proptest::collection::vec(any::<u64>(), 1..9),
        cut_seed in any::<u64>(),
    ) {
        let bytes = Frame::words(FrameKind::Data, 2, 5, words).encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert_eq!(Frame::decode(&bytes[..cut]), Err(WireError::Truncated));
    }

    /// Arbitrary garbage bytes never panic the decoder — bare, or sealed
    /// into a CRC-valid data frame so they reach the field reader.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        prop_assert!(Frame::decode(&bytes).is_err());
        let mut sealed = Writer::new(FrameKind::Data as u8, bytes.len());
        for &b in &bytes {
            sealed.u8(b);
        }
        let _ = Frame::decode(&sealed.finish());
    }
}
