//! Binary encode/decode: primitives, the [`Wire`] trait, and the
//! [`wire!`](crate::wire!) macro that generates both directions of a
//! layout from one table.
//!
//! All integers are big-endian. Strings are a `u32` byte length followed by
//! UTF-8 bytes; vectors are a `u32` element count followed by elements;
//! `Option<T>` is a bool, then the value when it is `true`. [`Pairs`]
//! holds a string-pair list as the bytes of that layout, so it moves
//! through encode and decode as one buffer.
//! Decoding is *total*: any byte string produces either a value or a typed
//! [`WireError`] — never a panic, never an allocation proportional to a
//! length prefix that the remaining input cannot back (a declared length is
//! validated against the bytes actually present before any reservation).
//!
//! That bound is [`Wire::MIN_BYTES`], the fewest bytes any encoding of a
//! type occupies: `Vec<T>` passes `T::MIN_BYTES` to [`Reader::count`], so
//! an element count is checked against what the rest of the input could
//! hold. A table-declared struct's bound is the sum of its fields' and an
//! enum's is 1 (its tag), so no bound is typed by hand.

use std::fmt;
use std::sync::Arc;

/// Frames larger than this are rejected on both send and receive: a
/// corrupt or malicious length prefix must not make the peer allocate
/// gigabytes. 64 MiB comfortably holds the largest legitimate message
/// (a worker's block shard at registration).
pub const MAX_FRAME: usize = 64 << 20;

/// A decode (or frame) error. Every malformed input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value it declared.
    Truncated,
    /// A frame length prefix exceeded [`MAX_FRAME`].
    OversizeFrame(u64),
    /// An unknown message (or enum) tag byte.
    UnknownTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// Bytes remained after the message was fully decoded.
    TrailingBytes(usize),
    /// A frame's payload checksum did not match its header — the bytes
    /// were damaged in flight (or by a chaos layer). The connection that
    /// produced it can no longer be trusted; the process can.
    ChecksumMismatch {
        /// Checksum declared in the frame header.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The peer's handshake magic was wrong (not a pnats-rpc peer).
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version this side speaks.
        ours: u32,
        /// Version the peer declared.
        theirs: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::OversizeFrame(n) => {
                write!(f, "frame of {n} bytes exceeds max {MAX_FRAME}")
            }
            WireError::UnknownTag(t) => write!(f, "unknown tag {t:#04x}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::ChecksumMismatch { declared, computed } => {
                write!(f, "frame checksum mismatch: declared {declared:#010x}, computed {computed:#010x}")
            }
            WireError::BadMagic(m) => write!(f, "bad handshake magic {m:#010x}"),
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, theirs {theirs}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a over `bytes`, 32-bit — the frame payload checksum. Not
/// cryptographic; it exists to catch bytes damaged in flight (bit flips,
/// truncation splices, chaos-layer corruption) before they decode into a
/// *valid but wrong* message.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append-only encoder; values go in through [`Wire::put`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a byte slice; values come out through
/// [`Wire::get`].
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the input was consumed exactly.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u32` element count, sanity-bounded by the remaining input:
    /// every element occupies at least `min_elem_bytes` on the wire, so a
    /// count the input cannot back fails *before* any allocation.
    #[inline]
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

/// A type with one fixed byte layout: `put` writes it and `get` reads it
/// back, in the same field order.
pub trait Wire: Sized {
    /// The fewest bytes any encoding of `Self` occupies — the per-element
    /// bound `Vec<Self>` hands to [`Reader::count`].
    const MIN_BYTES: usize;
    /// Append the encoding of `self`.
    fn put(&self, w: &mut Writer);
    /// Read one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

macro_rules! big_endian_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_be_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(Self::MIN_BYTES)?;
                Ok(<$t>::from_be_bytes(bytes.try_into().expect("take returns MIN_BYTES bytes")))
            }
        }
    )*};
}

big_endian_wire!(u8, u32, u64);

/// One byte, 0 or 1; any other byte is [`WireError::BadBool`].
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.buf.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

/// A `u32` byte length, then UTF-8. The length is checked against the
/// remaining input before anything is copied.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        w.buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = u32::get(r)? as usize;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        for x in self {
            x.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A list of `(key, value)` string pairs held as the bytes
/// `Vec<(String, String)>` encodes to: a `u32` count, then per pair a
/// `u32` key length, the key, a `u32` value length and the value. One
/// buffer instead of two `String`s per pair, with no byte moved on the
/// wire: encoding is one copy and decoding one buffer. The buffer is
/// shared, so a clone — a held map output handed to a fetch reply — bumps
/// a reference count instead of copying the bytes; the first `push` to a
/// shared list copies it.
///
/// Decoding is as total as the `Vec` decoder's and accepts exactly the same
/// byte strings: every length is checked against the remaining input and
/// every key and value as UTF-8 before anything is copied.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Pairs {
    /// Pair count: the `u32` that leads the encoding.
    len: u32,
    /// Every pair's encoding, back to back.
    body: Arc<Vec<u8>>,
}

impl Pairs {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one pair. Panics on a key or value of 4 GiB or more, which
    /// no frame could carry.
    pub fn push(&mut self, key: &str, value: &str) {
        let body = Arc::make_mut(&mut self.body);
        for s in [key, value] {
            let len = u32::try_from(s.len()).expect("a pair field fits a u32 length");
            body.extend_from_slice(&len.to_be_bytes());
            body.extend_from_slice(s.as_bytes());
        }
        self.len += 1;
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when there is no pair.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key plus value bytes over every pair, length prefixes excluded.
    pub fn data_bytes(&self) -> u64 {
        (self.body.len() - 8 * self.len()) as u64
    }

    /// The pairs in order, borrowed from the buffer.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut rest = &self.body[..];
        let mut field = move || {
            let (n, tail) = rest.split_at(4);
            let n = u32::from_be_bytes(n.try_into().expect("split at 4")) as usize;
            let (s, tail) = tail.split_at(n);
            rest = tail;
            std::str::from_utf8(s).expect("every field was checked as UTF-8 on the way in")
        };
        (0..self.len).map(move |_| (field(), field()))
    }

    /// The pairs as owned strings.
    pub fn to_vec(&self) -> Vec<(String, String)> {
        self.iter().map(|(k, v)| (k.to_owned(), v.to_owned())).collect()
    }
}

impl<K: AsRef<str>, V: AsRef<str>> FromIterator<(K, V)> for Pairs {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut pairs = Pairs::new();
        for (k, v) in iter {
            pairs.push(k.as_ref(), v.as_ref());
        }
        pairs
    }
}

impl fmt::Debug for Pairs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Wire for Pairs {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.buf.reserve(4 + self.body.len());
        self.len.put(w);
        w.buf.extend_from_slice(&self.body);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count(<(String, String)>::MIN_BYTES)?;
        let start = r.pos;
        for _ in 0..2 * n {
            let len = u32::get(r)? as usize;
            std::str::from_utf8(r.take(len)?).map_err(|_| WireError::BadUtf8)?;
        }
        Ok(Pairs { len: n as u32, body: Arc::new(r.buf[start..r.pos].to_vec()) })
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(x) = self {
            x.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? { Some(T::get(r)?) } else { None })
    }
}

/// Declares a byte layout once and generates both directions from it.
///
/// Wrapped around a struct or enum *definition* (docs, derives and all),
/// it emits the type unchanged plus its [`Wire`] impl. A struct is its
/// fields in order. An enum variant is written `Variant = tag { field:
/// Type, … }` (or `Variant = tag` when it has no fields) and is its tag
/// byte, then its fields in order. `crate::msg` is the worked example.
///
/// The names-only form, `fn put_x, get_x for Enum { Variant = tag {
/// field, … }, … }`, serves an enum from another crate, which the orphan
/// rule keeps from implementing [`Wire`] there. It emits
/// `put_x(&Enum, &mut Writer)` and `get_x(tag, &mut Reader) ->
/// Result<Option<Enum>, WireError>`, where `Ok(None)` means no row has that
/// tag, so tables and hand-written arms can share one tag space. `put_x`
/// panics on a variant without a row: route those elsewhere first.
#[macro_export]
macro_rules! wire {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 0 $( + <$ty as $crate::wire::Wire>::MIN_BYTES )*;
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                $( $crate::wire::Wire::put(&self.$field, w); )*
            }
            #[inline]
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $( $field: $crate::wire::Wire::get(r)?, )* })
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $var:ident = $tag:literal $({
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $var $({ $( $(#[$fmeta])* $field: $ty, )* })?, )*
        }

        impl $crate::wire::Wire for $name {
            const MIN_BYTES: usize = 1;
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                $crate::wire!(@put $name, self, w; $( $var = $tag $({ $($field),* })? ),*)
            }
            #[inline]
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                let tag = <u8 as $crate::wire::Wire>::get(r)?;
                Ok($crate::wire!(@get $name, tag, r,
                    return Err($crate::wire::WireError::UnknownTag(tag));
                    $( $var = $tag $({ $($field),* })? ),*))
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis fn $put:ident, $get:ident for $name:ident {
            $( $var:ident = $tag:literal { $($field:ident),* $(,)? } ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis fn $put(v: &$name, w: &mut $crate::wire::Writer) {
            $crate::wire!(@put $name, v, w; $( $var = $tag { $($field),* } ),*)
        }

        #[doc = concat!("Read the `", stringify!($name), "` row tagged `tag`, if there is one.")]
        $vis fn $get(
            tag: u8,
            r: &mut $crate::wire::Reader<'_>,
        ) -> Result<Option<$name>, $crate::wire::WireError> {
            Ok(Some($crate::wire!(@get $name, tag, r, return Ok(None);
                $( $var = $tag { $($field),* } ),*)))
        }
    };

    (@put $name:ident, $v:expr, $w:ident;
        $( $var:ident = $tag:literal $({ $($field:ident),* })? ),*) => {
        match $v {
            $( $name::$var $({ $($field),* })? => {
                <u8 as $crate::wire::Wire>::put(&$tag, $w);
                $($( $crate::wire::Wire::put($field, $w); )*)?
            } )*
            #[allow(unreachable_patterns)]
            _ => unreachable!(concat!("a variant has no row in the ", stringify!($name), " table")),
        }
    };

    (@get $name:ident, $t:expr, $r:ident, $none:expr;
        $( $var:ident = $tag:literal $({ $($field:ident),* })? ),*) => {
        match $t {
            $( $tag => $name::$var $({ $( $field: $crate::wire::Wire::get($r)?, )* })?, )*
            _ => $none,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(v: &impl Wire) -> Vec<u8> {
        let mut w = Writer::new();
        v.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        7u8.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        (u64::MAX - 1).put(&mut w);
        true.put(&mut w);
        false.put(&mut w);
        String::from("héllo").put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::get(&mut r).unwrap(), 7);
        assert_eq!(u32::get(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::get(&mut r).unwrap(), u64::MAX - 1);
        assert!(bool::get(&mut r).unwrap());
        assert!(!bool::get(&mut r).unwrap());
        assert_eq!(String::get(&mut r).unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&String::from("hello"));
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(String::get(&mut r), Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn oversize_count_fails_before_allocating() {
        // A count of u32::MAX with 4-byte elements over a 4-byte input
        // must fail without reserving anything.
        let bytes = encode(&u32::MAX);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(4), Err(WireError::Truncated));
        assert_eq!(Vec::<u32>::get(&mut Reader::new(&bytes)), Err(WireError::Truncated));
    }

    #[test]
    fn bad_utf8_and_bad_bool_are_typed() {
        let bytes = [0, 0, 0, 2, 0xFF, 0xFE];
        assert_eq!(String::get(&mut Reader::new(&bytes)), Err(WireError::BadUtf8));
        assert_eq!(bool::get(&mut Reader::new(&[9])), Err(WireError::BadBool(9)));
        assert_eq!(Option::<u32>::get(&mut Reader::new(&[2])), Err(WireError::BadBool(2)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(3)));
    }

    wire! {
        /// A struct row.
        #[derive(Debug, PartialEq)]
        struct Pair {
            a: u32,
            b: Option<u64>,
        }
    }

    wire! {
        /// An enum table with a unit variant.
        #[derive(Debug, PartialEq)]
        enum Toy {
            Two = 1 { a: u32, b: String },
            Nested = 2 { pairs: Vec<Pair> },
            Empty = 9,
        }
    }

    #[test]
    fn tables_lay_out_tag_then_fields_in_order() {
        assert_eq!(Pair::MIN_BYTES, 5);
        let two = Toy::Two { a: 7, b: "x".into() };
        assert_eq!(encode(&two), [1, 0, 0, 0, 7, 0, 0, 0, 1, b'x']);
        assert_eq!(encode(&Toy::Empty), [9]);
        let nested = Toy::Nested { pairs: vec![Pair { a: 1, b: Some(2) }, Pair { a: 3, b: None }] };
        for toy in [two, nested, Toy::Empty] {
            let bytes = encode(&toy);
            let mut r = Reader::new(&bytes);
            assert_eq!(Toy::get(&mut r), Ok(toy));
            r.finish().unwrap();
        }
        assert_eq!(Toy::get(&mut Reader::new(&[3])), Err(WireError::UnknownTag(3)));
    }

    #[test]
    fn names_only_tables_share_a_tag_space() {
        wire! {
            /// `Toy`'s `Two` row under a second tag.
            fn put_two, get_two for Toy {
                Two = 5 { a, b },
            }
        }
        let two = Toy::Two { a: 7, b: "x".into() };
        let mut w = Writer::new();
        put_two(&two, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 5);
        assert_eq!(bytes[1..], encode(&two)[1..]);
        let mut r = Reader::new(&bytes[1..]);
        assert_eq!(get_two(5, &mut r), Ok(Some(two)));
        assert_eq!(get_two(1, &mut r), Ok(None), "a tag with no row consumes nothing");
        r.finish().unwrap();
    }
}
