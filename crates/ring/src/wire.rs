//! The ring's frame codec.
//!
//! A frame is a tag byte followed by LEB128 varints ([`put_uvarint`],
//! zigzag-mapped with [`zigzag`] where a value can be negative) and
//! compact sorted top-k vectors ([`put_topk_compact`]). The frame types
//! themselves, and the table of their tags and layouts, live in
//! `privtopk_core::messages`; this module holds the traits they
//! implement, the whole-frame entry points and the field codecs they are
//! built from. Every decoder treats its input as hostile: truncation,
//! varint overflow, `k = 0`, a `k` beyond the payload, a non-descending
//! vector and trailing bytes are all [`RingError::Decode`], never a
//! panic.
//!
//! # Example
//!
//! ```
//! use bytes::BytesMut;
//! use privtopk_domain::{TopKVector, Value};
//! use privtopk_ring::wire::{get_topk_compact, put_topk_compact};
//!
//! let vector = TopKVector::from_sorted(vec![Value::new(900), Value::new(812)]).unwrap();
//! let mut buf = BytesMut::new();
//! put_topk_compact(&mut buf, &vector);
//! assert_eq!(buf.as_ref(), &[2, 136, 14, 88]);
//! let mut cursor = buf.as_ref();
//! assert_eq!(get_topk_compact(&mut cursor)?, vector);
//! assert!(cursor.is_empty());
//! # Ok::<(), privtopk_ring::RingError>(())
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use privtopk_domain::{TopKVector, Value};

use crate::RingError;

/// Types that can be written to a wire frame.
pub trait WireEncode {
    /// Appends the binary representation of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
}

/// Types that can be read back from a wire frame.
///
/// The cursor is a plain `&[u8]` borrowed from the frame, so decoding
/// never copies the frame itself; only the decoded value owns storage.
pub trait WireDecode: Sized {
    /// Consumes bytes from the front of `buf` and reconstructs a value.
    ///
    /// # Errors
    ///
    /// Returns [`RingError::Decode`] on truncated or malformed input.
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError>;
}

/// Encodes a value into a standalone byte frame.
pub fn encode_to_bytes<T: WireEncode>(value: &T) -> Bytes {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze()
}

/// Encodes a value into a caller-provided buffer, reusing its allocation.
///
/// The buffer is cleared first; after the call it holds exactly the frame
/// for `value`. Pairs with frame pooling in the transport layer: acquire a
/// pooled buffer, `encode_into`, freeze, send, and the receiver recycles
/// the storage.
pub fn encode_into<T: WireEncode>(value: &T, buf: &mut BytesMut) {
    buf.clear();
    value.encode(buf);
}

/// Decodes a value from a standalone byte frame, requiring the frame to be
/// fully consumed.
///
/// # Errors
///
/// Returns [`RingError::Decode`] on truncated, malformed, or over-long
/// input.
pub fn decode_from_bytes<T: WireDecode>(frame: &Bytes) -> Result<T, RingError> {
    decode_from_slice(frame.as_ref())
}

/// Decodes a value from a byte slice, requiring it to be fully consumed.
///
/// This is the zero-copy fast path: the cursor borrows the frame, so no
/// intermediate frame copy is made and compact vectors are read straight
/// out of the borrowed storage.
///
/// # Errors
///
/// Returns [`RingError::Decode`] on truncated, malformed, or over-long
/// input.
pub fn decode_from_slice<T: WireDecode>(frame: &[u8]) -> Result<T, RingError> {
    let mut buf = frame;
    let value = T::decode(&mut buf)?;
    if buf.has_remaining() {
        return Err(RingError::Decode {
            reason: "trailing bytes after value",
        });
    }
    Ok(value)
}

fn need(buf: &[u8], n: usize) -> Result<(), RingError> {
    if buf.remaining() < n {
        Err(RingError::Decode {
            reason: "unexpected end of frame",
        })
    } else {
        Ok(())
    }
}

/// Reads a frame's one-byte tag. Encoders write tags with `put_u8`.
impl WireDecode for u8 {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 1)?;
        Ok(buf.get_u8())
    }
}

// ---------------------------------------------------------------------------
// Varints and the compact sorted-vector codec
// ---------------------------------------------------------------------------

/// Longest LEB128 encoding of a `u64`: nine 7-bit groups plus a final
/// byte carrying the top bit.
const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as an LEB128 varint (7 bits per byte, little-endian
/// groups, high bit = continuation).
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Reads an LEB128 varint, rejecting truncated input and encodings that
/// overflow 64 bits (more than 10 bytes, or a 10th byte above 1).
///
/// # Errors
///
/// Returns [`RingError::Decode`] on truncation or overflow.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, RingError> {
    let mut value = 0u64;
    for i in 0..MAX_VARINT_LEN {
        need(buf, 1)?;
        let byte = buf.get_u8();
        let group = u64::from(byte & 0x7F);
        if i == MAX_VARINT_LEN - 1 && group > 1 {
            return Err(RingError::Decode {
                reason: "varint overflows u64",
            });
        }
        value |= group << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(RingError::Decode {
        reason: "varint longer than 10 bytes",
    })
}

/// Maps a signed value onto the unsigned varint domain so that small
/// magnitudes of either sign stay short: 0, -1, 1, -2, ... ↦ 0, 1, 2, 3.
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[must_use]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a [`TopKVector`] in the compact sorted codec:
/// `varint(k)`, `zigzag-varint(values[0])`, then `k - 1` unsigned varint
/// deltas `values[i-1] - values[i]` (exact in wrapping arithmetic for any
/// `i64` pair, and never negative because the vector is descending).
pub fn put_topk_compact(buf: &mut BytesMut, v: &TopKVector) {
    let values = v.as_slice();
    put_uvarint(buf, values.len() as u64);
    put_uvarint(buf, zigzag(values[0].get()));
    for pair in values.windows(2) {
        put_uvarint(buf, pair[0].get().wrapping_sub(pair[1].get()) as u64);
    }
}

/// Reads a [`TopKVector`] written by [`put_topk_compact`], re-validating
/// the descending invariant (a delta whose wrapping subtraction climbs is
/// a malformed frame, never a panic).
///
/// # Errors
///
/// Returns [`RingError::Decode`] on `k = 0`, truncation, varint overflow,
/// or a non-descending reconstruction.
pub fn get_topk_compact(buf: &mut &[u8]) -> Result<TopKVector, RingError> {
    let k = get_uvarint(buf)? as usize;
    if k == 0 {
        return Err(RingError::Decode {
            reason: "top-k vector with k = 0",
        });
    }
    // Every element costs at least one byte, so a k beyond the remaining
    // payload is a lie — reject before allocating.
    if k > buf.remaining() {
        return Err(RingError::Decode {
            reason: "top-k vector length exceeds frame",
        });
    }
    let mut values = Vec::with_capacity(k);
    let mut prev = unzigzag(get_uvarint(buf)?);
    values.push(Value::new(prev));
    for _ in 1..k {
        let delta = get_uvarint(buf)?;
        let cur = prev.wrapping_sub(delta as i64);
        if cur > prev {
            return Err(RingError::Decode {
                reason: "top-k vector not sorted descending",
            });
        }
        values.push(Value::new(cur));
        prev = cur;
    }
    TopKVector::from_sorted(values).map_err(|_| RingError::Decode {
        reason: "invalid top-k vector",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topk(vals: &[i64]) -> TopKVector {
        TopKVector::from_sorted(vals.iter().copied().map(Value::new).collect()).unwrap()
    }

    /// A frame holding one compact vector and nothing else.
    #[derive(Debug, PartialEq)]
    struct VectorFrame(TopKVector);

    impl WireEncode for VectorFrame {
        fn encode(&self, buf: &mut BytesMut) {
            put_topk_compact(buf, &self.0);
        }
    }

    impl WireDecode for VectorFrame {
        fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
            get_topk_compact(buf).map(VectorFrame)
        }
    }

    fn vector_frame() -> VectorFrame {
        VectorFrame(topk(&[9000, 812, 811, 4]))
    }

    #[test]
    fn decoders_agree_and_reject_truncated_frames() {
        let frame = encode_to_bytes(&vector_frame());
        assert_eq!(
            decode_from_bytes::<VectorFrame>(&frame).unwrap(),
            vector_frame()
        );
        assert_eq!(
            decode_from_slice::<VectorFrame>(frame.as_ref()).unwrap(),
            vector_frame()
        );
        for len in 0..frame.len() {
            assert!(decode_from_bytes::<VectorFrame>(&frame.slice(0..len)).is_err());
            assert!(decode_from_slice::<VectorFrame>(&frame[..len]).is_err());
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut buf = BytesMut::new();
        vector_frame().encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(
            decode_from_bytes::<VectorFrame>(&buf.freeze()),
            Err(RingError::Decode { .. })
        ));
    }

    #[test]
    fn encode_into_reuses_allocation() {
        let mut buf = BytesMut::with_capacity(64);
        encode_into(&vector_frame(), &mut buf);
        let first = buf.as_ref().to_vec();
        let cap = buf.capacity();
        encode_into(&vector_frame(), &mut buf);
        assert_eq!(buf.as_ref(), first.as_slice());
        assert_eq!(buf.capacity(), cap, "re-encode must not reallocate");
    }

    #[test]
    fn decode_leaves_frame_untouched() {
        // The borrowing decoder must not advance or mutate the frame
        // handle, so callers can recycle the storage afterwards.
        let frame = encode_to_bytes(&vector_frame());
        let before = frame.to_vec();
        let _: VectorFrame = decode_from_bytes(&frame).unwrap();
        assert_eq!(frame.len(), before.len());
        assert_eq!(frame.as_ref(), before.as_slice());
    }

    #[test]
    fn uvarint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let mut cursor = buf.as_ref();
            assert_eq!(get_uvarint(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn uvarint_overflow_and_truncation_rejected() {
        // 10 continuation bytes: longer than any u64 encoding.
        let over = [0xFFu8; 11];
        assert!(get_uvarint(&mut &over[..]).is_err());
        // 10th byte with a group value above 1 overflows bit 63.
        let mut hot = [0x80u8; 10];
        hot[9] = 0x02;
        assert!(get_uvarint(&mut &hot[..]).is_err());
        // Truncated mid-continuation.
        let cut = [0x80u8, 0x80];
        assert!(get_uvarint(&mut &cut[..]).is_err());
        // The maximal legal encoding still decodes.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(get_uvarint(&mut &max[..]).unwrap(), u64::MAX);
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -12345, 67890] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn compact_topk_roundtrips_and_undercuts_legacy() {
        for vals in [
            &[9000i64, 812, 811, 4][..],
            &[5, 5, 5, 5][..],
            &[i64::MAX, 0, i64::MIN][..],
            &[42][..],
        ] {
            let v = topk(vals);
            let mut buf = BytesMut::new();
            put_topk_compact(&mut buf, &v);
            let mut cursor = buf.as_ref();
            assert_eq!(get_topk_compact(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
        // Small paper-domain values: the compact form is a fraction of the
        // 4 + 8k legacy layout.
        let v = topk(&[9000, 812, 811, 4]);
        let mut buf = BytesMut::new();
        put_topk_compact(&mut buf, &v);
        assert!(buf.len() < 4 + 8 * v.k());
    }

    #[test]
    fn compact_topk_rejects_malformed_frames() {
        // k = 0.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 0);
        assert!(get_topk_compact(&mut buf.as_ref()).is_err());
        // k beyond the remaining payload.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 50);
        put_uvarint(&mut buf, zigzag(7));
        assert!(get_topk_compact(&mut buf.as_ref()).is_err());
        // A delta whose wrapping subtraction climbs (prev 0, delta -1).
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 2);
        put_uvarint(&mut buf, zigzag(0));
        put_uvarint(&mut buf, u64::MAX);
        assert!(get_topk_compact(&mut buf.as_ref()).is_err());
        // Truncated between elements.
        let v = topk(&[900, 800, 700]);
        let mut buf = BytesMut::new();
        put_topk_compact(&mut buf, &v);
        let frame = buf.freeze();
        assert!(get_topk_compact(&mut &frame[..frame.len() - 1]).is_err());
    }
}
