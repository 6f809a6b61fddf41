//! Wire messages exchanged by the distributed protocol drivers.
//!
//! | tag | message      | layout                                    |
//! |-----|--------------|-------------------------------------------|
//! | 6   | token        | varint round, compact vector              |
//! | 7   | finished     | compact vector                            |
//! | 8   | batch tokens | varint round, varint len, compact vectors |
//! | 9   | batch fin.   | varint len, compact vectors               |
//! | 10  | slot         | varint slot, token frame or batch frame   |
//!
//! A *compact vector* is the sort-exploiting delta layout of
//! [`put_topk_compact`]: varint k, zigzag-varint first value, then
//! unsigned varint descending deltas. Tags 1–5 belonged to an earlier
//! fixed-width layout; they are reserved, and every decoder rejects them
//! like any other unknown tag.

use bytes::{BufMut, BytesMut};

use privtopk_domain::TopKVector;
use privtopk_ring::wire::{
    get_topk_compact, get_uvarint, put_topk_compact, put_uvarint, WireDecode, WireEncode,
};
use privtopk_ring::RingError;

/// A message circulating on the ring.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenMessage {
    /// The global top-k vector in flight during computation round `round`.
    Token {
        /// 1-based round number.
        round: u32,
        /// The current global top-k vector.
        vector: TopKVector,
    },
    /// The termination circulation: the final result, passed once around
    /// the ring so every node learns it ("in the termination round all
    /// nodes simply passes on the final result").
    Finished {
        /// The final global top-k vector.
        vector: TopKVector,
    },
}

const TAG_TOKEN: u8 = 6;
const TAG_FINISHED: u8 = 7;
const TAG_BATCH_TOKENS: u8 = 8;
const TAG_BATCH_FINISHED: u8 = 9;
const TAG_SLOT: u8 = 10;

/// Hard cap on the number of piggybacked queries in one [`BatchMessage`].
///
/// Together with the per-vector `k` cap implied by the transport's maximum
/// frame length, this bounds the allocation an adversarial length prefix
/// can trigger during decode.
pub const MAX_BATCH_ENTRIES: usize = 4096;

impl WireEncode for TokenMessage {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            TokenMessage::Token { round, vector } => {
                buf.put_u8(TAG_TOKEN);
                put_uvarint(buf, u64::from(*round));
                put_topk_compact(buf, vector);
            }
            TokenMessage::Finished { vector } => {
                buf.put_u8(TAG_FINISHED);
                put_topk_compact(buf, vector);
            }
        }
    }
}

impl WireDecode for TokenMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        let tag = u8::decode(buf)?;
        match tag {
            TAG_TOKEN => Ok(TokenMessage::Token {
                round: decode_round(buf)?,
                vector: get_topk_compact(buf)?,
            }),
            TAG_FINISHED => Ok(TokenMessage::Finished {
                vector: get_topk_compact(buf)?,
            }),
            _ => Err(RingError::Decode {
                reason: "unknown token message tag",
            }),
        }
    }
}

/// Reads a varint-encoded round number, rejecting values beyond `u32`.
fn decode_round(buf: &mut &[u8]) -> Result<u32, RingError> {
    u32::try_from(get_uvarint(buf)?).map_err(|_| RingError::Decode {
        reason: "round number exceeds u32",
    })
}

/// A service-runtime frame: one query's [`TokenMessage`] tagged with the
/// query id assigned by the scheduler.
///
/// The persistent service keeps several independent queries in flight on
/// the same ring at once; the tag is what lets a long-lived worker
/// demultiplex interleaved traversals back onto the right per-query slot
/// (each slot owns its own RNG stream, so the transcript of every tagged
/// query is bit-identical to its solo run regardless of interleaving).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMessage {
    /// Scheduler-assigned query id; unique over a service's lifetime.
    pub query: u64,
    /// The hop payload, exactly as a solo run would frame it.
    pub inner: TokenMessage,
}

impl WireEncode for SlotMessage {
    fn encode(&self, buf: &mut BytesMut) {
        put_slot_header(buf, self.query);
        self.inner.encode(buf);
    }
}

/// Decodes through `SlotFrame`, the decoder every service worker runs;
/// a slot frame carrying a batch group's hop is not a `SlotMessage`.
impl WireDecode for SlotMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        let SlotFrame { slot, payload } = SlotFrame::decode(buf)?;
        match payload {
            SlotPayload::Token(inner) => Ok(SlotMessage { query: slot, inner }),
            SlotPayload::Batch(_) => Err(RingError::Decode {
                reason: "slot message carries a batch frame",
            }),
        }
    }
}

/// The tag-10 header shared by [`SlotMessage`] and [`SlotFrame`].
fn put_slot_header(buf: &mut BytesMut, slot: u64) {
    buf.put_u8(TAG_SLOT);
    put_uvarint(buf, slot);
}

/// A slot frame as a service worker reads it: tag 10 and the varint slot
/// id, then a token frame for a one-member slot or a batch frame for a
/// batch group. A one-member frame is byte-for-byte a [`SlotMessage`].
#[derive(Debug)]
pub(crate) struct SlotFrame {
    pub(crate) slot: u64,
    pub(crate) payload: SlotPayload,
}

/// What a slot frame carries: one query's token, or one lock-step hop of
/// every member of a batch group.
#[derive(Debug)]
pub(crate) enum SlotPayload {
    Token(TokenMessage),
    Batch(BatchMessage),
}

impl WireEncode for SlotFrame {
    fn encode(&self, buf: &mut BytesMut) {
        put_slot_header(buf, self.slot);
        match &self.payload {
            SlotPayload::Token(token) => token.encode(buf),
            SlotPayload::Batch(batch) => batch.encode(buf),
        }
    }
}

impl WireDecode for SlotFrame {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        if u8::decode(buf)? != TAG_SLOT {
            return Err(RingError::Decode {
                reason: "unknown slot message tag",
            });
        }
        let slot = get_uvarint(buf)?;
        let payload = match buf.first() {
            Some(&(TAG_BATCH_TOKENS | TAG_BATCH_FINISHED)) => {
                SlotPayload::Batch(BatchMessage::decode(buf)?)
            }
            _ => SlotPayload::Token(TokenMessage::decode(buf)?),
        };
        Ok(SlotFrame { slot, payload })
    }
}

/// A batched ring message: the payloads of B independent queries
/// piggybacked in one frame per hop.
///
/// Entry `i` is the exact vector query `i` of the batch group would have
/// carried in its own [`TokenMessage`] at this hop; the `round` field is
/// shared because a batch group advances in lock-step. This is what
/// amortizes per-hop framing cost across the batch without perturbing any
/// individual query's transcript.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchMessage {
    /// Round `round` in flight for every query of the batch group.
    Tokens {
        /// 1-based round number, shared by the whole group.
        round: u32,
        /// Per-query global vectors, in batch-group order.
        vectors: Vec<TopKVector>,
    },
    /// The termination circulation for the whole group.
    Finished {
        /// Per-query final vectors, in batch-group order.
        vectors: Vec<TopKVector>,
    },
}

impl BatchMessage {
    /// Number of piggybacked queries.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BatchMessage::Tokens { vectors, .. } | BatchMessage::Finished { vectors } => {
                vectors.len()
            }
        }
    }

    /// Whether the batch carries no queries (never valid on the wire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn decode_batch_vectors(buf: &mut &[u8]) -> Result<Vec<TopKVector>, RingError> {
    let len = get_uvarint(buf)? as usize;
    if len == 0 {
        return Err(RingError::Decode {
            reason: "batch message with zero entries",
        });
    }
    if len > MAX_BATCH_ENTRIES {
        return Err(RingError::Decode {
            reason: "batch message exceeds entry cap",
        });
    }
    // Each compact vector costs at least two bytes (k + first value), so
    // the cap plus this bound keep adversarial lengths from allocating.
    if len * 2 > buf.len() {
        return Err(RingError::Decode {
            reason: "batch entry count exceeds frame",
        });
    }
    let mut vectors = Vec::with_capacity(len);
    for _ in 0..len {
        vectors.push(get_topk_compact(buf)?);
    }
    Ok(vectors)
}

fn put_batch_vectors(buf: &mut BytesMut, vectors: &[TopKVector]) {
    put_uvarint(buf, vectors.len() as u64);
    for vector in vectors {
        put_topk_compact(buf, vector);
    }
}

impl WireEncode for BatchMessage {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BatchMessage::Tokens { round, vectors } => {
                buf.put_u8(TAG_BATCH_TOKENS);
                put_uvarint(buf, u64::from(*round));
                put_batch_vectors(buf, vectors);
            }
            BatchMessage::Finished { vectors } => {
                buf.put_u8(TAG_BATCH_FINISHED);
                put_batch_vectors(buf, vectors);
            }
        }
    }
}

impl WireDecode for BatchMessage {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        let tag = u8::decode(buf)?;
        match tag {
            TAG_BATCH_TOKENS => {
                let round = decode_round(buf)?;
                Ok(BatchMessage::Tokens {
                    round,
                    vectors: decode_batch_vectors(buf)?,
                })
            }
            TAG_BATCH_FINISHED => Ok(BatchMessage::Finished {
                vectors: decode_batch_vectors(buf)?,
            }),
            _ => Err(RingError::Decode {
                reason: "unknown batch message tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use privtopk_domain::{Value, ValueDomain};
    use privtopk_ring::wire::{decode_from_bytes, encode_to_bytes};

    fn vector() -> TopKVector {
        TopKVector::from_values(3, [9, 5, 5].map(Value::new), &ValueDomain::paper_default())
            .unwrap()
    }

    #[test]
    fn token_roundtrip() {
        let msg = TokenMessage::Token {
            round: 7,
            vector: vector(),
        };
        let frame = encode_to_bytes(&msg);
        assert_eq!(decode_from_bytes::<TokenMessage>(&frame).unwrap(), msg);
    }

    #[test]
    fn finished_roundtrip() {
        let msg = TokenMessage::Finished { vector: vector() };
        let frame = encode_to_bytes(&msg);
        assert_eq!(decode_from_bytes::<TokenMessage>(&frame).unwrap(), msg);
    }

    #[test]
    fn unknown_tag_rejected() {
        let frame = Bytes::from_static(&[99]);
        assert!(decode_from_bytes::<TokenMessage>(&frame).is_err());
        assert!(decode_from_bytes::<BatchMessage>(&frame).is_err());
        assert!(decode_from_bytes::<SlotMessage>(&frame).is_err());
    }

    #[test]
    fn slot_roundtrip() {
        for inner in [
            TokenMessage::Token {
                round: 9,
                vector: vector(),
            },
            TokenMessage::Finished { vector: vector() },
        ] {
            let msg = SlotMessage {
                query: u64::MAX - 3,
                inner,
            };
            let frame = encode_to_bytes(&msg);
            assert_eq!(decode_from_bytes::<SlotMessage>(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_slot_rejected() {
        let msg = SlotMessage {
            query: 12,
            inner: TokenMessage::Finished { vector: vector() },
        };
        let frame = encode_to_bytes(&msg);
        let short = frame.slice(0..frame.len() - 2);
        assert!(decode_from_bytes::<SlotMessage>(&short).is_err());
    }

    #[test]
    fn truncated_token_rejected() {
        let msg = TokenMessage::Token {
            round: 1,
            vector: vector(),
        };
        let frame = encode_to_bytes(&msg);
        let short = frame.slice(0..frame.len() - 3);
        assert!(decode_from_bytes::<TokenMessage>(&short).is_err());
    }

    #[test]
    fn batch_roundtrip() {
        let msg = BatchMessage::Tokens {
            round: 3,
            vectors: vec![vector(); 5],
        };
        assert_eq!(msg.len(), 5);
        let frame = encode_to_bytes(&msg);
        assert_eq!(decode_from_bytes::<BatchMessage>(&frame).unwrap(), msg);

        let fin = BatchMessage::Finished {
            vectors: vec![vector(); 2],
        };
        let frame = encode_to_bytes(&fin);
        assert_eq!(decode_from_bytes::<BatchMessage>(&frame).unwrap(), fin);
    }

    #[test]
    fn oversized_batch_rejected() {
        // A batch of MAX_BATCH_ENTRIES + 1 k=1 vectors is structurally
        // valid but must be refused by the entry cap.
        let v = TopKVector::from_values(1, [Value::new(1)], &ValueDomain::paper_default()).unwrap();
        let msg = BatchMessage::Finished {
            vectors: vec![v; MAX_BATCH_ENTRIES + 1],
        };
        let frame = encode_to_bytes(&msg);
        assert!(decode_from_bytes::<BatchMessage>(&frame).is_err());
    }

    #[test]
    fn shared_round_field_amortizes_per_entry_bytes() {
        // The per-hop byte criterion: a batch of B entries must be
        // strictly smaller than B solo token frames.
        let b = 64;
        let solo = encode_to_bytes(&TokenMessage::Token {
            round: 4,
            vector: vector(),
        });
        let batch = encode_to_bytes(&BatchMessage::Tokens {
            round: 4,
            vectors: vec![vector(); b],
        });
        assert!(batch.len() < b * solo.len());
    }

    #[test]
    fn compact_golden_bytes() {
        // Pinned byte-for-byte so the compact layout cannot drift
        // silently: tag 6, varint round 7, k = 3, zigzag(9) = 18, then
        // descending deltas 4 and 0 for values [9, 5, 5].
        let token = TokenMessage::Token {
            round: 7,
            vector: vector(),
        };
        assert_eq!(encode_to_bytes(&token).as_ref(), &[6, 7, 3, 18, 4, 0]);

        // Tag 8, varint round 300 (0xAC 0x02), varint len 2, two compact
        // vectors.
        let batch = BatchMessage::Tokens {
            round: 300,
            vectors: vec![vector(); 2],
        };
        assert_eq!(
            encode_to_bytes(&batch).as_ref(),
            &[8, 0xAC, 0x02, 2, 3, 18, 4, 0, 3, 18, 4, 0]
        );

        // Tag 10, varint query, then the compact finished token (tag 7).
        let slot = SlotMessage {
            query: 5,
            inner: TokenMessage::Finished { vector: vector() },
        };
        assert_eq!(encode_to_bytes(&slot).as_ref(), &[10, 5, 7, 3, 18, 4, 0]);
    }

    #[test]
    fn slot_frames_are_a_slot_header_on_a_token_or_batch_frame() {
        // A one-member slot frame is exactly the public slot message.
        let token = TokenMessage::Finished { vector: vector() };
        let one = SlotFrame {
            slot: 5,
            payload: SlotPayload::Token(token.clone()),
        };
        let message = SlotMessage {
            query: 5,
            inner: token,
        };
        assert_eq!(encode_to_bytes(&one), encode_to_bytes(&message));
        // A group's frame: tag 10, varint slot 2, then the batch frame.
        let group = SlotFrame {
            slot: 2,
            payload: SlotPayload::Batch(BatchMessage::Tokens {
                round: 300,
                vectors: vec![vector(); 2],
            }),
        };
        let frame = encode_to_bytes(&group);
        assert_eq!(
            frame.as_ref(),
            &[10, 2, 8, 0xAC, 0x02, 2, 3, 18, 4, 0, 3, 18, 4, 0]
        );
        for frame in [frame, encode_to_bytes(&one)] {
            let back: SlotFrame = decode_from_bytes(&frame).unwrap();
            assert_eq!(encode_to_bytes(&back), frame);
        }
    }

    #[test]
    fn slot_decoders_reject_group_frames_and_unknown_inner_tags() {
        let group = encode_to_bytes(&SlotFrame {
            slot: 2,
            payload: SlotPayload::Batch(BatchMessage::Finished {
                vectors: vec![vector(); 3],
            }),
        });
        let as_message = decode_from_bytes::<SlotMessage>(&group);
        assert!(matches!(as_message, Err(RingError::Decode { .. })));
        for len in 0..group.len() {
            assert!(decode_from_bytes::<SlotFrame>(&group.slice(..len)).is_err());
        }
        // After the slot header only tags 6-9 start a payload.
        for tag in (0..=255u8).filter(|tag| !(6..=9).contains(tag)) {
            let frame = Bytes::from(vec![10, 2, tag, 3, 18, 4, 0]);
            let decoded = decode_from_bytes::<SlotFrame>(&frame);
            assert!(
                matches!(decoded, Err(RingError::Decode { .. })),
                "tag {tag}: {decoded:?}"
            );
        }
    }

    #[test]
    fn compact_empty_batch_rejected() {
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(TAG_BATCH_TOKENS);
        buf.put_u8(3); // round
        buf.put_u8(0); // zero entries
        assert!(decode_from_bytes::<BatchMessage>(&buf.freeze()).is_err());

        let mut buf = bytes::BytesMut::new();
        buf.put_u8(TAG_BATCH_FINISHED);
        buf.put_u8(0); // zero entries
        assert!(decode_from_bytes::<BatchMessage>(&buf.freeze()).is_err());
    }

    #[test]
    fn compact_batch_length_lie_rejected() {
        // An entry count that cannot fit in the remaining payload must be
        // refused before allocation, not trusted.
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(8);
        buf.put_u8(1); // round
        buf.put_u8(200); // claims 200 entries, no payload follows
        assert!(decode_from_bytes::<BatchMessage>(&buf.freeze()).is_err());
    }
}
