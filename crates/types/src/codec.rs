//! Canonical binary encoding for checkpointable state.
//!
//! [`Encode`] walks a value once into a byte vector; [`Decode`] reads it
//! back from a [`Reader`] over untrusted bytes. The encoding is
//! **positional** (no field names, no self-description: a struct is its
//! fields in declaration order) and **canonical** (one value has exactly
//! one encoding, and the decoder rejects every other spelling of it), so
//! equal state means equal bytes and `encode(decode(b)) == b` for every
//! `b` the decoder accepts.
//!
//! | type | encoding |
//! |---|---|
//! | `u8` | the byte |
//! | `u32`, `u64` | LEB128 varint, shortest form only |
//! | `i32`, `i64` | zigzag, then varint |
//! | `bool` | one byte, `0` or `1` |
//! | `Option<T>` | tag byte `0`, or `1` then `T` |
//! | `String` | varint byte length, then UTF-8 |
//! | `Vec<T>` | varint element count, then the elements |
//! | `(A, B)`, `[T; N]` | the members in order, no length |
//! | fieldless enum | one pinned tag byte ([`codec_enum!`](crate::codec_enum)) |
//! | struct | its fields in order ([`codec_struct!`](crate::codec_struct)) |
//!
//! The decoder is the trust boundary for checkpoint files: every length
//! prefix is checked against the bytes that remain *before* anything is
//! allocated for it, so hostile input costs at most a small multiple of its
//! own length, and every failure is a [`DecodeError`], never a panic.

use std::fmt;

/// Why a byte string is not a canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset the decoder had reached.
    pub offset: usize,
    /// What was wrong there.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// Appends the canonical encoding of `self` to `out`.
pub trait Encode {
    /// Appends the encoding. Infallible: every value has one.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Reads one canonically encoded value.
pub trait Decode: Sized {
    /// Consumes exactly the value's bytes from `r`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the bytes are truncated, non-canonical, or out
    /// of the type's range.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// A cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// An error at the current offset.
    pub fn bad(&self, what: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
        }
    }

    /// Succeeds only when every byte was consumed: trailing bytes would be
    /// a second spelling of the same value.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.bad("trailing bytes"))
        }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when fewer than `n` remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let rest = &self.buf[self.pos..];
        if n > rest.len() {
            return Err(self.bad("truncated"));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(self.bad("truncated"));
        };
        self.pos += 1;
        Ok(b)
    }

    /// A LEB128 varint in its shortest form.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when truncated, padded with a zero continuation
    /// group, or wider than 64 bits.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(self.bad("varint overflows 64 bits"));
            }
            value |= group << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(self.bad("padded varint"));
                }
                return Ok(value);
            }
        }
        Err(self.bad("varint overflows 64 bits"))
    }

    /// A length prefix: a varint that cannot exceed the bytes remaining
    /// (every element or byte it counts occupies at least one), checked
    /// here so callers may size buffers from it.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the varint is bad or promises more than the
    /// input holds.
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let len = self.varint()?;
        match usize::try_from(len) {
            Ok(len) if len <= self.remaining() => Ok(len),
            _ => Err(self.bad("length exceeds input")),
        }
    }
}

/// Appends `v` as a shortest-form LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.varint()
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u32::try_from(r.varint()?).map_err(|_| r.bad("value exceeds 32 bits"))
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, ((*self << 1) ^ (*self >> 63)) as u64);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let z = r.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

impl Encode for i32 {
    fn encode(&self, out: &mut Vec<u8>) {
        i64::from(*self).encode(out);
    }
}

impl Decode for i32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        i32::try_from(i64::decode(r)?).map_err(|_| r.bad("value exceeds 32 bits"))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.bad("bool is not 0 or 1")),
        }
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.bad("option tag is not 0 or 1")),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix()?;
        let bytes = r.bytes(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(r.bad("string is not UTF-8")),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix()?;
        // Reserve no more memory than the input has bytes left: a count
        // the input could hold in one-byte elements may still be far more
        // than it holds of `T`.
        let fits = r.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(len.min(fits));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::decode(r)?;
        }
        Ok(out)
    }
}

/// Implements [`Encode`] and [`Decode`] for a struct as the listed fields
/// (`0` for a newtype's), in the listed order. The order *is* the wire layout: adding, removing
/// or reordering a field changes every checkpoint's bytes and needs a
/// format-version bump.
#[macro_export]
macro_rules! codec_struct {
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Encode::encode(&self.$field, out); )+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                Ok(Self { $( $field: $crate::codec::Decode::decode(r)?, )+ })
            }
        }
    };
}

/// Implements [`Encode`] and [`Decode`] for a fieldless enum as one tag
/// byte. Tags are written out, not derived from declaration order, so
/// inserting a variant cannot silently renumber the ones already on disk.
#[macro_export]
macro_rules! codec_enum {
    ($ty:ty { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(match self { $( Self::$variant => $tag, )+ });
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::DecodeError> {
                match r.u8()? {
                    $( $tag => Ok(Self::$variant), )+
                    _ => Err(r.bad(concat!("unknown ", stringify!($ty), " tag"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes_of<T: Encode + ?Sized>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    fn decode_all<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = T::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn varints_use_the_shortest_form() {
        assert_eq!(bytes_of(&0u64), [0]);
        assert_eq!(bytes_of(&127u64), [0x7f]);
        assert_eq!(bytes_of(&128u64), [0x80, 0x01]);
        assert_eq!(bytes_of(&u64::MAX).len(), 10);
        assert_eq!(decode_all::<u64>(&bytes_of(&u64::MAX)), Ok(u64::MAX));
    }

    #[test]
    fn non_canonical_spellings_are_rejected() {
        // 0 padded to two bytes; 1 padded to two bytes.
        assert!(decode_all::<u64>(&[0x80, 0x00]).is_err());
        assert!(decode_all::<u64>(&[0x81, 0x00]).is_err());
        // 65th bit set, and an eleventh byte.
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert!(decode_all::<u64>(&wide).is_err());
        assert!(decode_all::<u64>(&[0xff; 11]).is_err());
        assert!(decode_all::<u32>(&bytes_of(&(u64::from(u32::MAX) + 1))).is_err());
        assert!(decode_all::<bool>(&[2]).is_err());
        assert!(decode_all::<Option<u8>>(&[2, 0]).is_err());
        assert!(decode_all::<u8>(&[1, 2]).is_err(), "trailing byte");
        assert!(decode_all::<String>(&[2, 0xc3, 0x28]).is_err(), "bad UTF-8");
    }

    #[test]
    fn length_prefixes_are_bounded_by_the_input() {
        // Claims 2^40 elements with three bytes behind it: refused before
        // any allocation, not after an out-of-memory abort.
        let mut bytes = bytes_of(&(1u64 << 40));
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(decode_all::<Vec<u64>>(&bytes).is_err());
        assert!(decode_all::<String>(&bytes).is_err());
        // Exactly as many one-byte elements as remain is fine.
        assert_eq!(decode_all::<Vec<u8>>(&[3, 7, 8, 9]), Ok(vec![7, 8, 9]));
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_short() {
        assert_eq!(bytes_of(&0i64), [0]);
        assert_eq!(bytes_of(&-1i64), [1]);
        assert_eq!(bytes_of(&1i64), [2]);
        for v in [i64::MIN, i64::MAX, -64, 63] {
            assert_eq!(decode_all::<i64>(&bytes_of(&v)), Ok(v));
        }
        assert!(decode_all::<i32>(&bytes_of(&(i64::from(i32::MAX) + 1))).is_err());
    }

    #[test]
    fn domain_types_round_trip_with_pinned_tags() {
        use crate::{
            AppId, ErrorCategory, ExitClass, ExitStatus, FailureCause, JobId, NodeId, NodeSet,
            NodeType, Severity, SimDuration, Sym, Timestamp, UserFailureKind, UserId,
        };
        // A tag is the variant's position in its `ALL` table at the time
        // the format was cut; a reordered table must not move it.
        for (tag, c) in ErrorCategory::ALL.into_iter().enumerate() {
            assert_eq!(bytes_of(&c), [tag as u8]);
            assert_eq!(decode_all::<ErrorCategory>(&[tag as u8]), Ok(c));
        }
        assert!(decode_all::<ErrorCategory>(&[19]).is_err());
        assert_eq!(bytes_of(&Severity::Fatal), [4]);
        assert_eq!(bytes_of(&NodeType::Service), [2]);
        assert_eq!(
            bytes_of(&ExitClass::SystemFailure(FailureCause::Undetermined)),
            [1, 7]
        );
        assert_eq!(
            bytes_of(&ExitClass::UserFailure(UserFailureKind::Cancelled)),
            [2, 4]
        );
        for class in [
            ExitClass::Success,
            ExitClass::SystemFailure(FailureCause::Gpu),
            ExitClass::UserFailure(UserFailureKind::Abort),
            ExitClass::WalltimeExceeded,
            ExitClass::Unknown,
        ] {
            assert_eq!(decode_all::<ExitClass>(&bytes_of(&class)), Ok(class));
        }
        assert!(decode_all::<ExitClass>(&[5]).is_err());

        let t = Timestamp::PRODUCTION_EPOCH;
        assert_eq!(decode_all::<Timestamp>(&bytes_of(&t)), Ok(t));
        let d = SimDuration::from_secs(-90);
        assert_eq!(decode_all::<SimDuration>(&bytes_of(&d)), Ok(d));
        assert_eq!(bytes_of(&NodeId::new(300)), bytes_of(&300u32));
        assert_eq!(
            decode_all::<JobId>(&bytes_of(&JobId::new(9))),
            Ok(JobId::new(9))
        );
        assert_eq!(
            decode_all::<AppId>(&bytes_of(&AppId::new(9))),
            Ok(AppId::new(9))
        );
        assert_eq!(
            decode_all::<UserId>(&bytes_of(&UserId::new(9))),
            Ok(UserId::new(9))
        );
        let status = ExitStatus::with_signal(11).and_node_failed();
        assert_eq!(decode_all::<ExitStatus>(&bytes_of(&status)), Ok(status));
        let sym = Sym::intern("codec-test-queue");
        assert_eq!(bytes_of(&sym), bytes_of("codec-test-queue"));
        assert_eq!(decode_all::<Sym>(&bytes_of(&sym)), Ok(sym));

        let set: NodeSet = [1u32, 2, 3, 100, 4000]
            .into_iter()
            .map(NodeId::new)
            .collect();
        let back = decode_all::<NodeSet>(&bytes_of(&set)).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.len(), 5, "population recounted from the bits");
        // A word count the input cannot back is refused up front.
        assert!(decode_all::<NodeSet>(&[4, 0xff, 0xff, 0xff, 0xff]).is_err());
    }

    proptest! {
        #[test]
        fn containers_round_trip(
            raw in proptest::collection::vec((any::<u64>(), any::<bool>(), any::<i32>()), 0..40),
            s in ".{0,40}",
        ) {
            let v: Vec<(u64, Option<i32>)> =
                raw.iter().map(|&(a, some, b)| (a, some.then_some(b))).collect();
            let flags: [bool; 5] = std::array::from_fn(|i| raw.get(i).is_some_and(|r| r.1));
            prop_assert_eq!(decode_all::<Vec<(u64, Option<i32>)>>(&bytes_of(&v)), Ok(v));
            prop_assert_eq!(decode_all::<String>(&bytes_of(&s)), Ok(s));
            prop_assert_eq!(decode_all::<[bool; 5]>(&bytes_of(&flags)), Ok(flags));
        }

        /// Arbitrary bytes either fail or are the one canonical spelling of
        /// what they decode to.
        #[test]
        fn accepted_bytes_re_encode_identically(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            if let Ok(v) = decode_all::<Vec<(u32, Option<i64>)>>(&bytes) {
                prop_assert_eq!(bytes_of(&v), bytes.clone());
            }
            if let Ok(v) = decode_all::<Vec<String>>(&bytes) {
                prop_assert_eq!(bytes_of(&v), bytes);
            }
        }
    }
}
