//! The byte codec of bdbms, shared by WAL records, checkpoint snapshots,
//! and wire-protocol frames.
//!
//! A type is written with [`Encode`] and read back with [`Decode`] from a
//! [`Cur`].  The encoding is little-endian and length-prefixed:
//!
//! * integers are fixed-width; `usize` travels as a `u64`;
//! * `bool` is one byte, `0` or `1`;
//! * strings, slices, and maps are a `u32` count followed by the items
//!   (a map's items are its `(key, value)` pairs in key order);
//! * `Option<T>` is a presence byte (`0` or `1`) followed by the value
//!   when present;
//! * tuples are their fields in order, and [`Value`]s use
//!   [`Value::encode`] (`tag byte || payload`).
//!
//! Record types state their field order once:
//! [`codec_struct!`](crate::codec_struct) and
//! [`codec_enum!`](crate::codec_enum) generate both directions from one
//! field list.
//!
//! Decoding is fully bounds-checked and every failure is
//! [`ErrorCode::Corrupt`](crate::ErrorCode::Corrupt): the bytes came off
//! disk or off a socket, so a short or mangled buffer must be an error,
//! never a panic or an absurd allocation.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::{BdbmsError, Result, Value};

/// A type with a byte encoding.
pub trait Encode {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// The inverse of [`Encode`].  Every encoding takes at least one byte,
/// which is what lets [`Cur::count`] reject a count larger than the
/// bytes left.
pub trait Decode: Sized {
    /// Read one value, advancing the cursor past it.
    fn decode(cur: &mut Cur<'_>) -> Result<Self>;
}

/// Decode a whole buffer as one `T`; bytes left over are an error.
pub fn decode_exact<T: Decode>(buf: &[u8]) -> Result<T> {
    let mut cur = Cur::new(buf);
    let v = cur.get()?;
    if !cur.is_empty() {
        return Err(BdbmsError::corrupt("trailing bytes after encoding"));
    }
    Ok(v)
}

/// Assert the laws every [`Encode`] + [`Decode`] pair keeps, on one
/// value (the property tests of each crate call this for every codec
/// type they define):
///
/// * **round trip** — decoding the encoding and encoding again gives the
///   same bytes;
/// * **truncation** — every strict prefix of the encoding decodes to
///   [`ErrorCode::Corrupt`](crate::ErrorCode::Corrupt), never a panic;
/// * **damage** — the encoding with byte `flip.0 % len` XOR-ed by
///   `flip.1` decodes to anything or an error, but does not panic.
pub fn assert_codec_laws<T: Encode + Decode>(value: &T, flip: (u64, u8)) {
    let mut bytes = Vec::new();
    value.encode(&mut bytes);
    let back: T = decode_exact(&bytes).unwrap_or_else(|e| panic!("round trip failed: {e}"));
    let mut again = Vec::new();
    back.encode(&mut again);
    assert_eq!(again, bytes, "round trip changed the encoding");
    for len in 0..bytes.len() {
        match decode_exact::<T>(&bytes[..len]) {
            Ok(_) => panic!("a {len}-byte prefix of {} bytes decoded", bytes.len()),
            Err(e) => assert_eq!(e.code, crate::ErrorCode::Corrupt, "{len}-byte prefix: {e}"),
        }
    }
    let pos = (flip.0 % bytes.len() as u64) as usize;
    bytes[pos] ^= flip.1;
    let _ = decode_exact::<T>(&bytes);
}

/// Encode `items` as a sequence (`u32` count, then each item): the
/// encoding of a `Vec` of them, without collecting one.
pub fn encode_iter<T: Encode>(out: &mut Vec<u8>, items: impl ExactSizeIterator<Item = T>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// A bounds-checked cursor over encoded bytes.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    /// Every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| BdbmsError::corrupt("truncated encoding"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decode the next `T`.
    pub fn get<T: Decode>(&mut self) -> Result<T> {
        T::decode(self)
    }

    /// A sequence count about to drive a loop.  Each item takes at least
    /// one byte, so a count beyond the bytes left is corrupt.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let n = self.get::<u32>()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(BdbmsError::corrupt(format!(
                "implausible length prefix {n}"
            )));
        }
        Ok(n)
    }
}

macro_rules! le_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $t {
            #[inline]
            fn decode(cur: &mut Cur<'_>) -> Result<Self> {
                let bytes = cur.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}

le_int!(u8, u16, u32, u64);

impl Encode for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}

impl Decode for usize {
    #[inline]
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let v = cur.get::<u64>()?;
        usize::try_from(v).map_err(|_| BdbmsError::corrupt(format!("{v} overflows usize")))
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        match cur.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BdbmsError::corrupt(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for str {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    #[inline]
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let n = cur.get::<u32>()? as usize;
        let bytes = cur.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| BdbmsError::corrupt("invalid utf8 in stored string"))
    }
}

impl Encode for Value {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        Value::encode(self, out);
    }
}

impl Decode for Value {
    #[inline]
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        // Value::decode reports Storage (it also reads heap rows); bytes
        // here came off a WAL, a snapshot, or a socket: re-badge Corrupt
        Value::decode(cur.buf, &mut cur.pos).map_err(|e| BdbmsError::corrupt(e.message))
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Encode> Encode for Rc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Rc<T> {
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        cur.get().map(Rc::new)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_iter(out, self.iter());
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let n = cur.count()?;
        // an item can take far more memory than its one-byte minimum, so
        // reserve for at most 1024 up front and let honest input grow
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(cur.get()?);
        }
        Ok(out)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_iter(out, self.iter());
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        let n = cur.count()?;
        (0..n).map(|_| cur.get()).collect()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.is_some().encode(out);
        if let Some(v) = self {
            v.encode(out);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(cur: &mut Cur<'_>) -> Result<Self> {
        Ok(if cur.get::<bool>()? {
            Some(cur.get()?)
        } else {
            None
        })
    }
}

macro_rules! tuple {
    ($($n:tt $t:ident),*) => {
        impl<$($t: Encode),*> Encode for ($($t,)*) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$n.encode(out);)*
            }
        }

        impl<$($t: Decode),*> Decode for ($($t,)*) {
            fn decode(cur: &mut Cur<'_>) -> Result<Self> {
                Ok(($(cur.get::<$t>()?,)*))
            }
        }
    };
}

tuple!(0 A, 1 B);
tuple!(0 A, 1 B, 2 C);
tuple!(0 A, 1 B, 2 C, 3 D);
tuple!(0 A, 1 B, 2 C, 3 D, 4 E);

/// [`Encode`] + [`Decode`] for a struct, from its fields in encoding
/// order.  Fields the encoding omits are rebuilt after the listed ones
/// decode, in a trailing `derive { field: expr }` block that may name
/// the decoded fields; those need a type (`raw: String`) because the
/// expression reads them before the struct is built.
///
/// ```
/// use bdbms_common::codec::{decode_exact, Encode};
///
/// #[derive(Debug, PartialEq)]
/// struct Pair {
///     left: u64,
///     right: String,
///     len: usize,
/// }
/// bdbms_common::codec_struct!(Pair { left, right: String } derive { len: right.len() });
///
/// let mut out = Vec::new();
/// Pair { left: 7, right: "ab".into(), len: 2 }.encode(&mut out);
/// assert_eq!(out, [7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'a', b'b']);
/// assert_eq!(decode_exact::<Pair>(&out).unwrap().len, 2);
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident { $($f:ident $(: $t:ty)?),* $(,)? } $(derive { $($d:ident: $e:expr),* $(,)? })?) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$f, out);)*
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(cur: &mut $crate::codec::Cur<'_>) -> $crate::Result<Self> {
                $(let $f $(: $t)? = cur.get()?;)*
                $($(let $d = $e;)*)?
                Ok($ty { $($f,)* $($($d,)*)? })
            }
        }
    };
}

/// [`Encode`] + [`Decode`] for an enum: a tag byte per variant, then
/// the variant's fields in the listed order.  An optional `[Unit]`
/// after the tag names a unit struct encoded between the tag and the
/// fields (a version stamp whose `Decode` validates it).  An unknown tag
/// decodes to `Corrupt` ("unknown `what` tag N").
///
/// ```
/// use bdbms_common::codec::{decode_exact, Encode};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line { from: u64, to: u64 },
/// }
/// bdbms_common::codec_enum!(Shape, "shape", {
///     0 => Dot,
///     1 => Line { from, to },
/// });
///
/// let mut out = Vec::new();
/// Shape::Dot.encode(&mut out);
/// assert_eq!(out, [0]);
/// assert!(decode_exact::<Shape>(&[9]).is_err());
/// ```
#[macro_export]
macro_rules! codec_enum {
    ($ty:ident, $what:literal, {
        $($tag:tt $([$pre:ident])? => $var:ident $({ $($f:ident),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($f),* })? => {
                        let tag: u8 = $tag;
                        out.push(tag);
                        $($crate::codec::Encode::encode(&$pre, out);)?
                        $($($crate::codec::Encode::encode($f, out);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(cur: &mut $crate::codec::Cur<'_>) -> $crate::Result<Self> {
                Ok(match cur.get::<u8>()? {
                    $($tag => {
                        $(cur.get::<$pre>()?;)?
                        $ty::$var $({ $($f: cur.get()?),* })?
                    })*
                    t => {
                        return Err($crate::BdbmsError::corrupt(format!(
                            concat!("unknown ", $what, " tag {}"),
                            t
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorCode;

    #[test]
    fn roundtrip_primitives() {
        let mut out = Vec::new();
        7u8.encode(&mut out);
        true.encode(&mut out);
        513u16.encode(&mut out);
        70_000u32.encode(&mut out);
        (u64::MAX - 1).encode(&mut out);
        "géne".encode(&mut out);
        None::<String>.encode(&mut out);
        Some("x").encode(&mut out);
        vec![Value::Int(-3), Value::Null].encode(&mut out);
        vec![1u64, 2, 3].encode(&mut out);
        vec!["a".to_string(), "b".to_string()].encode(&mut out);
        let mut c = Cur::new(&out);
        assert_eq!(c.get::<u8>().unwrap(), 7);
        assert!(c.get::<bool>().unwrap());
        assert_eq!(c.get::<u16>().unwrap(), 513);
        assert_eq!(c.get::<u32>().unwrap(), 70_000);
        assert_eq!(c.get::<u64>().unwrap(), u64::MAX - 1);
        assert_eq!(c.get::<String>().unwrap(), "géne");
        assert_eq!(c.get::<Option<String>>().unwrap(), None);
        assert_eq!(c.get::<Option<String>>().unwrap(), Some("x".into()));
        assert_eq!(
            c.get::<Vec<Value>>().unwrap(),
            vec![Value::Int(-3), Value::Null]
        );
        assert_eq!(c.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert_eq!(
            c.get::<Vec<String>>().unwrap(),
            vec!["a".to_string(), "b".to_string()]
        );
        assert!(c.is_empty());
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let mut out = Vec::new();
        "hello".encode(&mut out);
        out.truncate(6);
        let mut c = Cur::new(&out);
        let err = c.get::<String>().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt);
        let mut c = Cur::new(&[1, 0, 0]);
        assert_eq!(c.get::<u64>().unwrap_err().code(), ErrorCode::Corrupt);
    }

    /// Values are encoded by the storage layer, whose errors say
    /// Storage; through the codec they must say Corrupt like every
    /// other malformed byte.
    #[test]
    fn malformed_values_are_corrupt() {
        let mut text = Vec::new();
        Value::Text("abc".into()).encode(&mut text);
        let bad_utf8 = [&text[..5], &[0xff, 0xfe, 0xfd]].concat();
        for bytes in [&text[..6], &bad_utf8[..], &[9u8][..]] {
            let err = decode_exact::<Value>(bytes).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Corrupt, "{bytes:?}: {err}");
        }
    }

    /// One rule for every presence byte and bool: 0 or 1, else Corrupt.
    #[test]
    fn presence_and_bool_bytes_are_zero_or_one() {
        let mut some = Vec::new();
        Some(5u64).encode(&mut some);
        assert_eq!(decode_exact::<Option<u64>>(&some).unwrap(), Some(5));
        some[0] = 2;
        let err = decode_exact::<Option<u64>>(&some).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt);
        assert_eq!(
            decode_exact::<bool>(&[0xff]).unwrap_err().code(),
            ErrorCode::Corrupt
        );
    }

    #[test]
    fn counts_beyond_the_buffer_are_rejected_before_allocating() {
        let mut out = Vec::new();
        u32::MAX.encode(&mut out);
        let err = decode_exact::<Vec<u64>>(&out).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Corrupt);
        assert!(decode_exact::<u8>(&[1, 2]).is_err(), "trailing byte");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The codec laws for every codec type this crate defines, on
        /// random values and random damage.
        #[test]
        fn codec_laws_hold(
            n in any::<u64>(),
            s in "[a-zA-Z0-9é ]{0,12}",
            pos in any::<u64>(),
            mask in 1u8..=255,
        ) {
            use crate::ids::{AnnotationId, OperationId, RuleId, TableId};
            use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
            use crate::{BdbmsError, ColumnDef, DataType, Schema, Span};

            let flip = (pos, mask);
            assert_codec_laws(&(n as u8), flip);
            assert_codec_laws(&(n as u16), flip);
            assert_codec_laws(&(n as u32), flip);
            assert_codec_laws(&n, flip);
            assert_codec_laws(&(n as usize), flip);
            assert_codec_laws(&n.is_multiple_of(2), flip);
            assert_codec_laws(&s, flip);
            let values = vec![
                Value::Null,
                Value::Int(n as i64),
                Value::Float(n as f64 / 7.0),
                Value::Text(s.clone()),
                Value::Bool(n.is_multiple_of(3)),
                Value::Timestamp(n),
            ];
            for v in &values {
                assert_codec_laws(v, flip);
            }
            assert_codec_laws(&values, flip);
            assert_codec_laws(&Some(s.clone()), flip);
            assert_codec_laws(&None::<u64>, flip);
            assert_codec_laws(&Rc::new((n, s.clone(), n as u8)), flip);
            assert_codec_laws(&(n, s.clone(), true, n as u16, Value::Null), flip);
            assert_codec_laws(&BTreeMap::from([(n, s.clone()), (n / 2, String::new())]), flip);

            let code = ErrorCode::ALL[(n % ErrorCode::ALL.len() as u64) as usize];
            assert_codec_laws(&code, flip);
            let span = Span::new(n as usize / 2, n as usize);
            assert_codec_laws(&span, flip);
            for span in [None, Some(span)] {
                assert_codec_laws(&BdbmsError { code, message: s.clone(), span }, flip);
            }
            let ty = [DataType::Int, DataType::Float, DataType::Text, DataType::Bool, DataType::Timestamp]
                [(n % 5) as usize];
            assert_codec_laws(&ty, flip);
            let col = ColumnDef::new(format!("c{s}"), ty);
            assert_codec_laws(&col, flip);
            assert_codec_laws(&Schema::new(vec![col, ColumnDef::new("k", DataType::Int)]).unwrap(), flip);
            let histogram = HistogramSnapshot { count: n, sum: n / 3, buckets: vec![(n, 1), (7, n)] };
            assert_codec_laws(&histogram, flip);
            assert_codec_laws(
                &MetricsSnapshot {
                    counters: vec![(s.clone(), n)],
                    gauges: vec![("g".into(), n / 5)],
                    histograms: vec![(s.clone(), histogram)],
                },
                flip,
            );
            assert_codec_laws(&TableId(n), flip);
            assert_codec_laws(&AnnotationId(n), flip);
            assert_codec_laws(&RuleId(n), flip);
            assert_codec_laws(&OperationId(n), flip);
        }

        /// Any reader sequence over any bytes: errors, never panics,
        /// and the count check keeps `with_capacity` bounded.
        #[test]
        fn cursor_never_panics(
            bytes in prop::collection::vec(any::<u8>(), 0..128),
            ops in prop::collection::vec(0u8..10, 1..16),
        ) {
            let mut c = Cur::new(&bytes);
            for op in ops {
                let _ = match op {
                    0 => c.get::<u8>().map(|_| ()),
                    1 => c.get::<bool>().map(|_| ()),
                    2 => c.get::<u16>().map(|_| ()),
                    3 => c.get::<u32>().map(|_| ()),
                    4 => c.get::<u64>().map(|_| ()),
                    5 => c.get::<String>().map(|_| ()),
                    6 => c.get::<Option<String>>().map(|_| ()),
                    7 => c.get::<Vec<Value>>().map(|_| ()),
                    8 => c.get::<Vec<u64>>().map(|_| ()),
                    _ => c.get::<Vec<String>>().map(|_| ()),
                };
            }
        }
    }
}
