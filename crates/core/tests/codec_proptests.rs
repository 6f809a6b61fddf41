//! Property-based tests for the compact wire codec: varints must reject
//! malformed input, the compact encoding must never lose a value, and
//! every frame tag outside 6–10 — including the reserved fixed-width
//! tags 1–5 — must be refused. `scripts/ci.sh` runs this file by name
//! so a test filter cannot silently drop it.

use bytes::{BufMut, BytesMut};
use privtopk_core::{BatchMessage, SlotMessage, TokenMessage};
use privtopk_domain::{TopKVector, Value, ValueDomain};
use privtopk_ring::wire::{
    decode_from_bytes, decode_from_slice, encode_to_bytes, get_topk_compact, get_uvarint,
    put_topk_compact, put_uvarint, unzigzag, zigzag,
};
use privtopk_ring::RingError;
use proptest::prelude::*;

fn domain() -> ValueDomain {
    ValueDomain::paper_default()
}

fn arb_vector() -> impl Strategy<Value = TopKVector> {
    (1usize..=8, prop::collection::vec(1i64..=10_000, 1..=8)).prop_map(|(k, vals)| {
        TopKVector::from_values(k, vals.into_iter().map(Value::new), &domain()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// LEB128 varints roundtrip every u64.
    #[test]
    fn uvarint_roundtrips(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, v);
        let mut slice = &buf[..];
        prop_assert_eq!(get_uvarint(&mut slice).unwrap(), v);
        prop_assert!(slice.is_empty(), "decoder must consume the whole varint");
    }

    /// A truncated varint is rejected, never misread: chopping any
    /// non-empty suffix off a continuation-carrying encoding errors.
    #[test]
    fn truncated_uvarint_rejected(v in 0x80u64..=u64::MAX, cut in 1usize..10) {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, v);
        let cut = cut.min(buf.len() - 1).max(1);
        let mut slice = &buf[..buf.len() - cut];
        prop_assert!(get_uvarint(&mut slice).is_err());
    }

    /// Zigzag is a bijection on i64.
    #[test]
    fn zigzag_roundtrips(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    /// The delta-compact top-k layout roundtrips arbitrary domain
    /// vectors and never exceeds the legacy fixed-width size.
    #[test]
    fn compact_topk_roundtrips(v in arb_vector()) {
        let mut buf = BytesMut::new();
        put_topk_compact(&mut buf, &v);
        let legacy = 4 + 8 * v.k();
        prop_assert!(buf.len() <= legacy, "compact {} > legacy {legacy}", buf.len());
        let mut slice = &buf[..];
        prop_assert_eq!(get_topk_compact(&mut slice).unwrap(), v);
    }

    /// Token and slot frames roundtrip through the compact tags 6, 7
    /// and 10 (batch frames have their own roundtrip in `proptests.rs`),
    /// and the same frame with one stray byte appended is refused.
    #[test]
    fn token_and_slot_frames_roundtrip(
        query in any::<u64>(),
        round in 1u32..=64,
        vector in arb_vector(),
        finished in any::<bool>(),
        stray in any::<u8>(),
    ) {
        let inner = if finished {
            TokenMessage::Finished { vector }
        } else {
            TokenMessage::Token { round, vector }
        };
        let frame = encode_to_bytes(&inner);
        let token: TokenMessage = decode_from_bytes(&frame).unwrap();
        prop_assert_eq!(&token, &inner);
        let padded = decode_from_slice::<TokenMessage>(&[frame.as_ref(), &[stray]].concat());
        prop_assert!(matches!(padded, Err(RingError::Decode { .. })), "{:?}", padded);
        let slot = SlotMessage { query, inner };
        let frame = encode_to_bytes(&slot);
        let back: SlotMessage = decode_from_bytes(&frame).unwrap();
        prop_assert_eq!(&back, &slot);
        let padded = decode_from_slice::<SlotMessage>(&[frame.as_ref(), &[stray]].concat());
        prop_assert!(matches!(padded, Err(RingError::Decode { .. })), "{:?}", padded);
    }

    /// Truncating a compact frame anywhere past the tag never decodes:
    /// the length and value varints notice the missing bytes.
    #[test]
    fn truncated_compact_frame_rejected(vector in arb_vector(), cut in 1usize..16) {
        let msg = TokenMessage::Token { round: 3, vector };
        let full = encode_to_bytes(&msg);
        let cut = cut.min(full.len() - 1);
        let r: Result<TokenMessage, _> = decode_from_slice(
            &full[..full.len() - cut],
        );
        prop_assert!(r.is_err());
    }
}

/// Appends a vector in the retired fixed-width layout: `u32` k, then k
/// `i64` values.
fn put_fixed_vector(buf: &mut BytesMut, values: &[i64]) {
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_i64_le(v);
    }
}

/// A frame that was well-formed under the retired fixed-width layout of
/// `tag` (1 token, 2 finished, 3 batch tokens, 4 batch finished, 5 slot).
fn fixed_width_frame(tag: u8) -> BytesMut {
    let values = [9, 5, 5];
    let mut buf = BytesMut::new();
    buf.put_u8(tag);
    match tag {
        1 => {
            buf.put_u32_le(7); // round
            put_fixed_vector(&mut buf, &values);
        }
        2 => put_fixed_vector(&mut buf, &values),
        3 | 4 => {
            if tag == 3 {
                buf.put_u32_le(7); // round
            }
            buf.put_u32_le(2); // entries
            put_fixed_vector(&mut buf, &values);
            put_fixed_vector(&mut buf, &values);
        }
        5 => {
            buf.put_u64_le(12); // query
            buf.extend_from_slice(&fixed_width_frame(1));
        }
        _ => unreachable!("tags 1-5 only"),
    }
    buf
}

#[test]
fn reserved_legacy_tags_are_rejected() {
    let mut frames: Vec<(u8, BytesMut)> = (1..=5).map(|t| (t, fixed_width_frame(t))).collect();
    // Every other unassigned tag, followed by a well-formed compact
    // finished-token body (k = 3, values [9, 5, 5]).
    for tag in std::iter::once(0).chain(11..=255) {
        let mut buf = BytesMut::new();
        buf.put_u8(tag);
        buf.extend_from_slice(&[3, 18, 4, 0]);
        frames.push((tag, buf));
    }
    for (tag, frame) in &frames {
        let token = decode_from_slice::<TokenMessage>(frame);
        assert!(
            matches!(token, Err(RingError::Decode { .. })),
            "tag {tag}: token decoder returned {token:?}"
        );
        let batch = decode_from_slice::<BatchMessage>(frame);
        assert!(
            matches!(batch, Err(RingError::Decode { .. })),
            "tag {tag}: batch decoder returned {batch:?}"
        );
        let slot = decode_from_slice::<SlotMessage>(frame);
        assert!(
            matches!(slot, Err(RingError::Decode { .. })),
            "tag {tag}: slot decoder returned {slot:?}"
        );
    }
}
