//! A small self-contained binary wire codec.
//!
//! The offline dependency set contains `serde` but no serde *format* crate
//! (no bincode / serde_json), so frames on the ring are encoded with this
//! hand-rolled, length-checked little-endian codec instead. The protocol
//! messages are tiny and flat, which keeps this entirely mechanical.
//!
//! Layout conventions:
//!
//! - fixed-width integers are little-endian;
//! - `bool` is one byte (`0`/`1`, anything else is a decode error);
//! - collections are a `u32` length followed by the elements;
//! - `Option<T>` is a presence byte followed by the value if present.
//!
//! # Example
//!
//! ```
//! use privtopk_ring::wire::{decode_from_bytes, encode_to_bytes, WireDecode, WireEncode};
//!
//! let frame = encode_to_bytes(&(42u64, String::from("hi")));
//! let back: (u64, String) = decode_from_bytes(&frame)?;
//! assert_eq!(back, (42, "hi".to_string()));
//! # Ok::<(), privtopk_ring::RingError>(())
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use privtopk_domain::{NodeId, RingPosition, TopKVector, Value};

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
/// intermediate frame copy is made and variable-length fields (strings,
/// vectors) are read straight out of the borrowed storage.
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

macro_rules! impl_wire_int {
    ($ty:ty, $put:ident, $get:ident, $bytes:expr) => {
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
        }
        impl WireDecode for $ty {
            fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
                need(buf, $bytes)?;
                Ok(buf.$get())
            }
        }
    };
}

impl_wire_int!(u8, put_u8, get_u8, 1);
impl_wire_int!(u16, put_u16_le, get_u16_le, 2);
impl_wire_int!(u32, put_u32_le, get_u32_le, 4);
impl_wire_int!(u64, put_u64_le, get_u64_le, 8);
impl_wire_int!(i64, put_i64_le, get_i64_le, 8);
impl_wire_int!(f64, put_f64_le, get_f64_le, 8);

impl WireEncode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RingError::Decode {
                reason: "invalid boolean byte",
            }),
        }
    }
}

impl WireEncode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
}

impl WireDecode for usize {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 8)?;
        let raw = buf.get_u64_le();
        usize::try_from(raw).map_err(|_| RingError::Decode {
            reason: "usize overflow",
        })
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut BytesMut) {
        let bytes = self.as_bytes();
        buf.put_u32_le(bytes.len() as u32);
        buf.put_slice(bytes);
    }
}

impl WireDecode for String {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 4)?;
        let len = buf.get_u32_le() as usize;
        need(buf, len)?;
        // Validate in place on the borrowed frame; the only copy is the
        // one that materializes the owned `String` itself.
        let (raw, rest) = buf.split_at(len);
        let text = std::str::from_utf8(raw).map_err(|_| RingError::Decode {
            reason: "invalid utf-8 string",
        })?;
        *buf = rest;
        Ok(text.to_owned())
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 4)?;
        let len = buf.get_u32_le() as usize;
        // Defensive cap: an adversarial length prefix must not trigger a
        // huge allocation before the data is even present.
        if len > buf.remaining() {
            return Err(RingError::Decode {
                reason: "collection length exceeds frame",
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(RingError::Decode {
                reason: "invalid option tag",
            }),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl WireEncode for Value {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(self.get());
    }
}

impl WireDecode for Value {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        need(buf, 8)?;
        Ok(Value::new(buf.get_i64_le()))
    }
}

impl WireEncode for NodeId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.get() as u64);
    }
}

impl WireDecode for NodeId {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        let raw = usize::decode(buf)?;
        Ok(NodeId::new(raw))
    }
}

impl WireEncode for RingPosition {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.get() as u64);
    }
}

impl WireDecode for RingPosition {
    fn decode(buf: &mut &[u8]) -> Result<Self, RingError> {
        let raw = usize::decode(buf)?;
        Ok(RingPosition::new(raw))
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

/// Bytes [`put_topk_compact`] will emit for `v` — used by batch senders
/// to reserve frame capacity up front.
#[must_use]
pub fn topk_compact_len(v: &TopKVector) -> usize {
    let values = v.as_slice();
    let mut len = uvarint_len(values.len() as u64) + uvarint_len(zigzag(values[0].get()));
    for pair in values.windows(2) {
        len += uvarint_len(pair[0].get().wrapping_sub(pair[1].get()) as u64);
    }
    len
}

/// Bytes [`put_uvarint`] will emit for `v`.
#[must_use]
pub fn uvarint_len(v: u64) -> usize {
    // 1 byte per started 7-bit group; v = 0 still takes one byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let frame = encode_to_bytes(&v);
        let back: T = decode_from_bytes(&frame).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(9999u16);
        roundtrip(123_456u32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(3.5f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
        roundtrip(String::from("hello ring"));
        roundtrip(String::new());
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7i64));
        roundtrip(Option::<i64>::None);
        roundtrip((42u64, String::from("pair")));
    }

    #[test]
    fn domain_type_roundtrips() {
        roundtrip(Value::new(-12345));
        roundtrip(NodeId::new(7));
        roundtrip(RingPosition::new(3));
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_to_bytes(&12345u64);
        let short = frame.slice(0..4);
        assert!(decode_from_bytes::<u64>(&short).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut buf = BytesMut::new();
        7u64.encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(
            decode_from_bytes::<u64>(&buf.freeze()),
            Err(RingError::Decode { .. })
        ));
    }

    #[test]
    fn invalid_bool_and_option_tags_error() {
        let frame = Bytes::from_static(&[2]);
        assert!(decode_from_bytes::<bool>(&frame).is_err());
        assert!(decode_from_bytes::<Option<u8>>(&frame).is_err());
    }

    #[test]
    fn adversarial_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX); // claims 4 billion elements
        assert!(decode_from_bytes::<Vec<u64>>(&buf.freeze()).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(decode_from_bytes::<String>(&buf.freeze()).is_err());
    }

    #[test]
    fn encode_into_reuses_allocation() {
        let mut buf = BytesMut::with_capacity(64);
        encode_into(&(7u64, String::from("first")), &mut buf);
        let first = buf.as_ref().to_vec();
        let cap = buf.capacity();
        encode_into(&(7u64, String::from("first")), &mut buf);
        assert_eq!(buf.as_ref(), first.as_slice());
        assert_eq!(buf.capacity(), cap, "re-encode must not reallocate");
    }

    #[test]
    fn decode_from_slice_matches_decode_from_bytes() {
        let frame = encode_to_bytes(&(9u32, String::from("slice path")));
        let a: (u32, String) = decode_from_bytes(&frame).unwrap();
        let b: (u32, String) = decode_from_slice(frame.as_ref()).unwrap();
        assert_eq!(a, b);
        assert!(decode_from_slice::<u64>(&frame[..3]).is_err());
    }

    #[test]
    fn decode_leaves_frame_untouched() {
        // The borrowing decoder must not advance or mutate the frame
        // handle, so callers can recycle the storage afterwards.
        let frame = encode_to_bytes(&String::from("recyclable"));
        let before = frame.to_vec();
        let _: String = decode_from_bytes(&frame).unwrap();
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
            assert_eq!(buf.len(), uvarint_len(v), "length model for {v}");
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

    fn topk(vals: &[i64]) -> TopKVector {
        TopKVector::from_sorted(vals.iter().copied().map(Value::new).collect()).unwrap()
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
            assert_eq!(buf.len(), topk_compact_len(&v), "length model");
            let mut cursor = buf.as_ref();
            assert_eq!(get_topk_compact(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
        // Small paper-domain values: the compact form is a fraction of the
        // 4 + 8k legacy layout.
        let v = topk(&[9000, 812, 811, 4]);
        assert!(topk_compact_len(&v) < 4 + 8 * v.k());
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
