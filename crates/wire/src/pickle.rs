//! The *pickle* marshaling format.
//!
//! Network Objects marshals method arguments and results as *pickles*: a
//! compact, self-describing binary encoding. This module provides:
//!
//! - [`PickleWriter`] / [`PickleReader`]: streaming encoder and decoder.
//! - [`Pickle`]: a trait implemented by every marshalable type.
//! - [`Value`]: a dynamically typed pickle value, useful for generic tools
//!   and for property-testing the format.
//!
//! # Encoding
//!
//! Every value starts with a one-byte tag followed by a tag-specific body.
//! Integers use LEB128 varints (zigzag for signed), lengths use unsigned
//! varints, and floats are 8-byte little-endian IEEE-754. Network object
//! references travel as their [`WireRep`] under a dedicated tag so that the
//! runtime can locate embedded references while unmarshaling (this is how
//! surrogates get created and dirty calls get issued).
//!
//! The format is byte-order independent and has no alignment requirements.
//! Decoders are fully defensive: any byte sequence either decodes or fails
//! with a [`WireError`]; malformed input never panics.

use std::collections::BTreeMap;

use crate::error::WireError;
use crate::ids::{ObjIx, SpaceId, WireRep};
use crate::typecode::{TypeCode, TypeList};
use crate::Result;

/// Tags identifying each pickled value kind.
///
/// Kept in a module rather than an enum so that readers can match on raw
/// bytes without a fallible conversion step in the hot path.
pub mod tag {
    /// The unit value.
    pub const UNIT: u8 = 0x00;
    /// Boolean false.
    pub const FALSE: u8 = 0x01;
    /// Boolean true.
    pub const TRUE: u8 = 0x02;
    /// Signed integer (zigzag varint).
    pub const INT: u8 = 0x03;
    /// Unsigned integer (varint).
    pub const UINT: u8 = 0x04;
    /// 64-bit float, little-endian.
    pub const FLOAT: u8 = 0x05;
    /// UTF-8 text: varint length + bytes.
    pub const TEXT: u8 = 0x06;
    /// Raw bytes: varint length + bytes.
    pub const BYTES: u8 = 0x07;
    /// Sequence: varint count + that many values.
    pub const SEQ: u8 = 0x08;
    /// Map: varint count + that many (key, value) pairs.
    pub const MAP: u8 = 0x09;
    /// Option: `NONE` stands alone.
    pub const NONE: u8 = 0x0a;
    /// Option: `SOME` followed by the contained value.
    pub const SOME: u8 = 0x0b;
    /// A network object reference: 16-byte space id + varint object index.
    pub const WIREREP: u8 = 0x0c;
    /// A type fingerprint: 8 bytes.
    pub const TYPECODE: u8 = 0x0d;
    /// A record: varint field count + fields in declaration order.
    pub const RECORD: u8 = 0x0e;
    /// An enum variant: varint discriminant + payload value.
    pub const VARIANT: u8 = 0x0f;
}

/// Default sanity limit on declared lengths (64 MiB).
///
/// Real deployments negotiate message limits at the transport layer; this
/// guard only prevents a hostile length prefix from provoking a huge
/// allocation during decoding.
pub const MAX_DECODE_LEN: u64 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming pickle encoder.
///
/// A writer owns a byte buffer; [`PickleWriter::into_bytes`] yields the
/// finished pickle. Writers are cheap to create and may be reused via
/// [`PickleWriter::clear`] to amortise allocation in hot paths.
#[derive(Debug, Default)]
pub struct PickleWriter {
    buf: Vec<u8>,
}

impl PickleWriter {
    /// Creates an empty writer.
    pub fn new() -> PickleWriter {
        PickleWriter::default()
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> PickleWriter {
        PickleWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Creates a writer over a recycled buffer, clearing its contents but
    /// keeping the allocation — pairs with [`bytes::Bytes::try_reclaim`]
    /// to reuse a send buffer once the transport has released it.
    pub fn from_vec(mut buf: Vec<u8>) -> PickleWriter {
        buf.clear();
        PickleWriter { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Returns the bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Clears the buffer for reuse, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    // -- raw primitives ----------------------------------------------------

    /// Appends a raw byte.
    pub fn put_raw_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends raw bytes verbatim.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends an unsigned LEB128 varint.
    pub fn put_varu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a signed integer using zigzag + LEB128.
    pub fn put_vari64(&mut self, v: i64) {
        self.put_varu64(zigzag_encode(v));
    }

    // -- tagged values -----------------------------------------------------

    /// Writes the unit value.
    pub fn put_unit(&mut self) {
        self.put_raw_u8(tag::UNIT);
    }

    /// Writes a boolean.
    pub fn put_bool(&mut self, v: bool) {
        self.put_raw_u8(if v { tag::TRUE } else { tag::FALSE });
    }

    /// Writes a signed integer.
    pub fn put_i64(&mut self, v: i64) {
        self.put_raw_u8(tag::INT);
        self.put_vari64(v);
    }

    /// Writes an unsigned integer.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw_u8(tag::UINT);
        self.put_varu64(v);
    }

    /// Writes a 64-bit float.
    pub fn put_f64(&mut self, v: f64) {
        self.put_raw_u8(tag::FLOAT);
        self.put_raw(&v.to_le_bytes());
    }

    /// Writes a text value.
    pub fn put_text(&mut self, v: &str) {
        self.put_raw_u8(tag::TEXT);
        self.put_varu64(v.len() as u64);
        self.put_raw(v.as_bytes());
    }

    /// Writes a raw byte-string value.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_bytes_header(v.len());
        self.put_raw(v);
    }

    /// Writes the header of a `len`-byte byte string: everything of
    /// [`PickleWriter::put_bytes`] but the bytes themselves, which the
    /// caller sends right after this pickle's prefix without copying them
    /// in.
    pub fn put_bytes_header(&mut self, len: usize) {
        self.put_raw_u8(tag::BYTES);
        self.put_varu64(len as u64);
    }

    /// Writes a sequence header; the caller then writes `count` values.
    pub fn begin_seq(&mut self, count: usize) {
        self.put_raw_u8(tag::SEQ);
        self.put_varu64(count as u64);
    }

    /// Writes a map header; the caller then writes `count` key/value pairs.
    pub fn begin_map(&mut self, count: usize) {
        self.put_raw_u8(tag::MAP);
        self.put_varu64(count as u64);
    }

    /// Writes a record header; the caller then writes `fields` values.
    pub fn begin_record(&mut self, fields: usize) {
        self.put_raw_u8(tag::RECORD);
        self.put_varu64(fields as u64);
    }

    /// Writes an enum-variant header; the caller then writes the payload.
    pub fn begin_variant(&mut self, discriminant: u64) {
        self.put_raw_u8(tag::VARIANT);
        self.put_varu64(discriminant);
    }

    /// Writes `None`.
    pub fn put_none(&mut self) {
        self.put_raw_u8(tag::NONE);
    }

    /// Writes the `Some` tag; the caller then writes the contained value.
    pub fn begin_some(&mut self) {
        self.put_raw_u8(tag::SOME);
    }

    /// Writes a network object reference.
    pub fn put_wirerep(&mut self, w: WireRep) {
        self.put_raw_u8(tag::WIREREP);
        self.put_raw(&w.space.as_raw().to_le_bytes());
        self.put_varu64(w.ix.0);
    }

    /// Writes a type fingerprint.
    pub fn put_typecode(&mut self, t: TypeCode) {
        self.put_raw_u8(tag::TYPECODE);
        self.put_raw(&t.as_raw().to_le_bytes());
    }
}

fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Streaming pickle decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct PickleReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PickleReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> PickleReader<'a> {
        PickleReader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns an error if any input remains.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    // -- raw primitives ----------------------------------------------------

    /// Reads one raw byte.
    pub fn get_raw_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof {
            needed: 1,
            remaining: 0,
        })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Peeks at the next tag byte without consuming it.
    pub fn peek_tag(&self) -> Result<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or(WireError::UnexpectedEof {
                needed: 1,
                remaining: 0,
            })
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varu64(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_raw_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Reads a signed zigzag varint.
    pub fn get_vari64(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.get_varu64()?))
    }

    fn get_len(&mut self) -> Result<usize> {
        let n = self.get_varu64()?;
        if n > MAX_DECODE_LEN {
            return Err(WireError::LengthOverflow {
                declared: n,
                limit: MAX_DECODE_LEN,
            });
        }
        Ok(n as usize)
    }

    fn expect_tag(&mut self, want: u8, what: &'static str) -> Result<()> {
        let t = self.get_raw_u8()?;
        if t == want {
            Ok(())
        } else {
            Err(WireError::BadTag {
                found: t,
                expected: what,
            })
        }
    }

    // -- tagged values -----------------------------------------------------

    /// Reads the unit value.
    pub fn get_unit(&mut self) -> Result<()> {
        self.expect_tag(tag::UNIT, "unit")
    }

    /// Reads a boolean.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_raw_u8()? {
            tag::FALSE => Ok(false),
            tag::TRUE => Ok(true),
            t => Err(WireError::BadTag {
                found: t,
                expected: "bool",
            }),
        }
    }

    /// Reads a signed integer.
    pub fn get_i64(&mut self) -> Result<i64> {
        match self.get_raw_u8()? {
            tag::INT => self.get_vari64(),
            // Allow a non-negative UINT where an INT is expected; writers for
            // unsigned Rust types use UINT and readers for `i64` may see it.
            tag::UINT => {
                let v = self.get_varu64()?;
                i64::try_from(v).map_err(|_| WireError::OutOfRange("uint does not fit in i64"))
            }
            t => Err(WireError::BadTag {
                found: t,
                expected: "int",
            }),
        }
    }

    /// Reads an unsigned integer.
    pub fn get_u64(&mut self) -> Result<u64> {
        match self.get_raw_u8()? {
            tag::UINT => self.get_varu64(),
            tag::INT => {
                let v = self.get_vari64()?;
                u64::try_from(v)
                    .map_err(|_| WireError::OutOfRange("negative int where uint expected"))
            }
            t => Err(WireError::BadTag {
                found: t,
                expected: "uint",
            }),
        }
    }

    /// Reads a 64-bit float.
    pub fn get_f64(&mut self) -> Result<f64> {
        self.expect_tag(tag::FLOAT, "float")?;
        let raw = self.get_raw(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(f64::from_le_bytes(b))
    }

    /// Reads a text value.
    pub fn get_text(&mut self) -> Result<&'a str> {
        self.expect_tag(tag::TEXT, "text")?;
        let n = self.get_len()?;
        let raw = self.get_raw(n)?;
        std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)
    }

    /// Reads a byte-string value.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        self.expect_tag(tag::BYTES, "bytes")?;
        let n = self.get_len()?;
        self.get_raw(n)
    }

    /// Reads a byte-string value as a shared slice of `src` — the reader's
    /// `Bytes` mode. `src` must be the same buffer this reader decodes
    /// (typically the received frame); the returned [`bytes::Bytes`] shares
    /// its storage, so large payloads cross the decode boundary without a
    /// copy.
    pub fn get_bytes_shared(&mut self, src: &bytes::Bytes) -> Result<bytes::Bytes> {
        let raw = self.get_bytes()?;
        Ok(src.slice_ref(raw))
    }

    /// Reads a sequence header, returning the element count.
    pub fn begin_seq(&mut self) -> Result<usize> {
        self.expect_tag(tag::SEQ, "seq")?;
        self.get_len()
    }

    /// Reads a map header, returning the entry count.
    pub fn begin_map(&mut self) -> Result<usize> {
        self.expect_tag(tag::MAP, "map")?;
        self.get_len()
    }

    /// Reads a record header, returning the field count.
    pub fn begin_record(&mut self) -> Result<usize> {
        self.expect_tag(tag::RECORD, "record")?;
        self.get_len()
    }

    /// Reads a record header and checks the field count.
    pub fn expect_record(&mut self, fields: usize) -> Result<()> {
        let n = self.begin_record()?;
        if n == fields {
            Ok(())
        } else {
            Err(WireError::OutOfRange("record field count mismatch"))
        }
    }

    /// Reads an enum-variant header, returning the discriminant.
    pub fn begin_variant(&mut self) -> Result<u64> {
        self.expect_tag(tag::VARIANT, "variant")?;
        self.get_varu64()
    }

    /// Reads an option header: `Ok(true)` for `Some`, `Ok(false)` for `None`.
    pub fn begin_option(&mut self) -> Result<bool> {
        match self.get_raw_u8()? {
            tag::NONE => Ok(false),
            tag::SOME => Ok(true),
            t => Err(WireError::BadTag {
                found: t,
                expected: "option",
            }),
        }
    }

    /// Reads a network object reference.
    pub fn get_wirerep(&mut self) -> Result<WireRep> {
        self.expect_tag(tag::WIREREP, "wirerep")?;
        let raw = self.get_raw(16)?;
        let mut b = [0u8; 16];
        b.copy_from_slice(raw);
        let space = SpaceId::from_raw(u128::from_le_bytes(b));
        let ix = ObjIx(self.get_varu64()?);
        Ok(WireRep { space, ix })
    }

    /// Reads a type fingerprint.
    pub fn get_typecode(&mut self) -> Result<TypeCode> {
        self.expect_tag(tag::TYPECODE, "typecode")?;
        let raw = self.get_raw(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(TypeCode::from_raw(u64::from_le_bytes(b)))
    }
}

// ---------------------------------------------------------------------------
// The Pickle trait
// ---------------------------------------------------------------------------

/// A type that can be marshaled to and from the pickle format.
///
/// All method arguments and results of network object methods must implement
/// `Pickle`. Implementations must be *total* on the decode side: any byte
/// input either decodes or returns an error.
pub trait Pickle: Sized {
    /// Encodes `self` onto the writer.
    fn pickle(&self, w: &mut PickleWriter);

    /// Decodes a value from the reader.
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self>;

    /// Convenience: encodes `self` into a fresh byte vector.
    fn to_pickle_bytes(&self) -> Vec<u8> {
        let mut w = PickleWriter::new();
        self.pickle(&mut w);
        w.into_bytes()
    }

    /// Convenience: decodes a value that must consume the whole input.
    fn from_pickle_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = PickleReader::new(bytes);
        let v = Self::unpickle(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

impl Pickle for () {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_unit();
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        r.get_unit()
    }
}

impl Pickle for bool {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_bool(*self);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        r.get_bool()
    }
}

macro_rules! impl_pickle_signed {
    ($($t:ty),*) => {$(
        impl Pickle for $t {
            fn pickle(&self, w: &mut PickleWriter) {
                w.put_i64(*self as i64);
            }
            fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
                let v = r.get_i64()?;
                <$t>::try_from(v).map_err(|_| WireError::OutOfRange(stringify!($t)))
            }
        }
    )*};
}

macro_rules! impl_pickle_unsigned {
    ($($t:ty),*) => {$(
        impl Pickle for $t {
            fn pickle(&self, w: &mut PickleWriter) {
                w.put_u64(*self as u64);
            }
            fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
                let v = r.get_u64()?;
                <$t>::try_from(v).map_err(|_| WireError::OutOfRange(stringify!($t)))
            }
        }
    )*};
}

impl_pickle_signed!(i8, i16, i32, i64, isize);
impl_pickle_unsigned!(u8, u16, u32, u64, usize);

impl Pickle for f64 {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_f64(*self);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl Pickle for f32 {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_f64(f64::from(*self));
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        Ok(r.get_f64()? as f32)
    }
}

impl Pickle for String {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_text(self);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        Ok(r.get_text()?.to_owned())
    }
}

impl Pickle for char {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_u64(u64::from(u32::from(*self)));
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        let v = r.get_u64()?;
        u32::try_from(v)
            .ok()
            .and_then(char::from_u32)
            .ok_or(WireError::OutOfRange("char"))
    }
}

impl<T: Pickle> Pickle for Option<T> {
    fn pickle(&self, w: &mut PickleWriter) {
        match self {
            None => w.put_none(),
            Some(v) => {
                w.begin_some();
                v.pickle(w);
            }
        }
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        if r.begin_option()? {
            Ok(Some(T::unpickle(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Pickle> Pickle for Vec<T> {
    fn pickle(&self, w: &mut PickleWriter) {
        w.begin_seq(self.len());
        for v in self {
            v.pickle(w);
        }
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        let n = r.begin_seq()?;
        // Guard against a hostile count: cap the pre-allocation, let the
        // decode loop fail naturally on EOF instead.
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::unpickle(r)?);
        }
        Ok(out)
    }
}

impl<K: Pickle + Ord, V: Pickle> Pickle for BTreeMap<K, V> {
    fn pickle(&self, w: &mut PickleWriter) {
        w.begin_map(self.len());
        for (k, v) in self {
            k.pickle(w);
            v.pickle(w);
        }
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        let n = r.begin_map()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unpickle(r)?;
            let v = V::unpickle(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

macro_rules! impl_pickle_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Pickle),+> Pickle for ($($name,)+) {
            fn pickle(&self, w: &mut PickleWriter) {
                $(self.$idx.pickle(w);)+
            }
            fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
                Ok(($($name::unpickle(r)?,)+))
            }
        }
    };
}

impl_pickle_tuple!(A: 0);
impl_pickle_tuple!(A: 0, B: 1);
impl_pickle_tuple!(A: 0, B: 1, C: 2);
impl_pickle_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_pickle_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_pickle_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// A byte string that pickles under the compact `BYTES` tag.
///
/// `Vec<u8>` uses the generic sequence encoding (one tag per element) for
/// uniformity; bulk payloads should use `Blob`, which encodes as a single
/// length-prefixed byte run — the representation the paper's data-transfer
/// measurements assume.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Blob(pub Vec<u8>);

impl Pickle for Blob {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_bytes(&self.0);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        Ok(Blob(r.get_bytes()?.to_vec()))
    }
}

impl From<Vec<u8>> for Blob {
    fn from(v: Vec<u8>) -> Blob {
        Blob(v)
    }
}

impl Pickle for WireRep {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_wirerep(*self);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        r.get_wirerep()
    }
}

impl Pickle for SpaceId {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_bytes(&self.as_raw().to_le_bytes());
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        let raw = r.get_bytes()?;
        if raw.len() != 16 {
            return Err(WireError::OutOfRange("space id must be 16 bytes"));
        }
        let mut b = [0u8; 16];
        b.copy_from_slice(raw);
        Ok(SpaceId::from_raw(u128::from_le_bytes(b)))
    }
}

impl Pickle for TypeCode {
    fn pickle(&self, w: &mut PickleWriter) {
        w.put_typecode(*self);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        r.get_typecode()
    }
}

impl Pickle for TypeList {
    fn pickle(&self, w: &mut PickleWriter) {
        w.begin_seq(self.codes().len());
        for c in self.codes() {
            w.put_typecode(*c);
        }
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        let n = r.begin_seq()?;
        let mut codes = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            codes.push(r.get_typecode()?);
        }
        Ok(TypeList::from_codes(codes))
    }
}

// ---------------------------------------------------------------------------
// Dynamic values
// ---------------------------------------------------------------------------

/// A dynamically typed pickle value.
///
/// `Value` can represent anything the format can encode; it is the basis for
/// generic tooling (tracing, fuzzing, property tests) and for the runtime's
/// reference scanner, which must find every [`WireRep`] embedded in an
/// argument pickle regardless of the static types involved.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A 64-bit float.
    Float(f64),
    /// UTF-8 text.
    Text(String),
    /// A raw byte string.
    Bytes(Vec<u8>),
    /// A sequence of values.
    Seq(Vec<Value>),
    /// An ordered map of values.
    Map(Vec<(Value, Value)>),
    /// An optional value.
    Opt(Option<Box<Value>>),
    /// A network object reference.
    Ref(WireRep),
    /// A type fingerprint.
    Type(TypeCode),
    /// A record of fields.
    Record(Vec<Value>),
    /// An enum variant with a payload.
    Variant(u64, Box<Value>),
}

impl Value {
    /// Collects every [`WireRep`] embedded anywhere in this value.
    ///
    /// The runtime uses this to find the network object references inside an
    /// argument pickle so that surrogates can be created and dirty calls
    /// issued before the call proceeds.
    pub fn collect_refs(&self, out: &mut Vec<WireRep>) {
        match self {
            Value::Ref(w) => out.push(*w),
            Value::Seq(vs) | Value::Record(vs) => {
                for v in vs {
                    v.collect_refs(out);
                }
            }
            Value::Map(kvs) => {
                for (k, v) in kvs {
                    k.collect_refs(out);
                    v.collect_refs(out);
                }
            }
            Value::Opt(Some(v)) => v.collect_refs(out),
            Value::Variant(_, v) => v.collect_refs(out),
            _ => {}
        }
    }

    /// Decodes a single `Value` without requiring end-of-input.
    pub fn decode(r: &mut PickleReader<'_>) -> Result<Value> {
        Self::decode_depth(r, 0)
    }

    /// Maximum nesting depth accepted when decoding dynamic values.
    pub const MAX_DEPTH: usize = 128;

    fn decode_depth(r: &mut PickleReader<'_>, depth: usize) -> Result<Value> {
        if depth > Self::MAX_DEPTH {
            return Err(WireError::OutOfRange("value nesting too deep"));
        }
        let t = r.peek_tag()?;
        Ok(match t {
            tag::UNIT => {
                r.get_unit()?;
                Value::Unit
            }
            tag::FALSE | tag::TRUE => Value::Bool(r.get_bool()?),
            tag::INT => Value::Int(r.get_i64()?),
            tag::UINT => Value::UInt(r.get_u64()?),
            tag::FLOAT => Value::Float(r.get_f64()?),
            tag::TEXT => Value::Text(r.get_text()?.to_owned()),
            tag::BYTES => Value::Bytes(r.get_bytes()?.to_vec()),
            tag::SEQ => {
                let n = r.begin_seq()?;
                let mut vs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    vs.push(Self::decode_depth(r, depth + 1)?);
                }
                Value::Seq(vs)
            }
            tag::RECORD => {
                let n = r.begin_record()?;
                let mut vs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    vs.push(Self::decode_depth(r, depth + 1)?);
                }
                Value::Record(vs)
            }
            tag::MAP => {
                let n = r.begin_map()?;
                let mut kvs = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let k = Self::decode_depth(r, depth + 1)?;
                    let v = Self::decode_depth(r, depth + 1)?;
                    kvs.push((k, v));
                }
                Value::Map(kvs)
            }
            tag::NONE | tag::SOME => {
                if r.begin_option()? {
                    Value::Opt(Some(Box::new(Self::decode_depth(r, depth + 1)?)))
                } else {
                    Value::Opt(None)
                }
            }
            tag::WIREREP => Value::Ref(r.get_wirerep()?),
            tag::TYPECODE => Value::Type(r.get_typecode()?),
            tag::VARIANT => {
                let d = r.begin_variant()?;
                Value::Variant(d, Box::new(Self::decode_depth(r, depth + 1)?))
            }
            other => {
                return Err(WireError::BadTag {
                    found: other,
                    expected: "any value",
                })
            }
        })
    }

    /// Encodes this value onto a writer.
    pub fn encode(&self, w: &mut PickleWriter) {
        match self {
            Value::Unit => w.put_unit(),
            Value::Bool(v) => w.put_bool(*v),
            Value::Int(v) => w.put_i64(*v),
            Value::UInt(v) => w.put_u64(*v),
            Value::Float(v) => w.put_f64(*v),
            Value::Text(v) => w.put_text(v),
            Value::Bytes(v) => w.put_bytes(v),
            Value::Seq(vs) => {
                w.begin_seq(vs.len());
                for v in vs {
                    v.encode(w);
                }
            }
            Value::Record(vs) => {
                w.begin_record(vs.len());
                for v in vs {
                    v.encode(w);
                }
            }
            Value::Map(kvs) => {
                w.begin_map(kvs.len());
                for (k, v) in kvs {
                    k.encode(w);
                    v.encode(w);
                }
            }
            Value::Opt(None) => w.put_none(),
            Value::Opt(Some(v)) => {
                w.begin_some();
                v.encode(w);
            }
            Value::Ref(r) => w.put_wirerep(*r),
            Value::Type(t) => w.put_typecode(*t),
            Value::Variant(d, v) => {
                w.begin_variant(*d);
                v.encode(w);
            }
        }
    }
}

impl Pickle for Value {
    fn pickle(&self, w: &mut PickleWriter) {
        self.encode(w);
    }
    fn unpickle(r: &mut PickleReader<'_>) -> Result<Self> {
        Value::decode(r)
    }
}

/// Scans a pickle byte buffer and returns every embedded [`WireRep`].
///
/// This is the hook used by the runtime's marshaling layer: before a message
/// carrying arguments leaves a space, the references inside it must be
/// protected by transient dirty entries, and upon receipt each one must be
/// bound to a local surrogate or concrete object.
pub fn scan_refs(bytes: &[u8]) -> Result<Vec<WireRep>> {
    let mut r = PickleReader::new(bytes);
    let mut out = Vec::new();
    while r.remaining() > 0 {
        let v = Value::decode(&mut r)?;
        v.collect_refs(&mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Pickle + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_pickle_bytes();
        let back = T::from_pickle_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(());
        roundtrip(true);
        roundtrip(false);
        roundtrip(0i64);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(u64::MAX);
        roundtrip(42u8);
        roundtrip(-42i8);
        roundtrip(3.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip('x');
        roundtrip('\u{1F600}');
        roundtrip(String::from("hello, pickles"));
        roundtrip(String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(7i32));
        roundtrip(Option::<i32>::None);
        roundtrip((1u8, String::from("two"), 3.0f64));
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), 1u64);
        m.insert(String::from("b"), 2u64);
        roundtrip(m);
        roundtrip(vec![vec![vec![1i16]]]);
    }

    #[test]
    fn wirerep_roundtrip() {
        let w = WireRep::new(SpaceId::from_raw(0xdead_beef_cafe), ObjIx(17));
        roundtrip(w);
    }

    #[test]
    fn zigzag_is_correct() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, 1 << 40, -(1 << 40)] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn varint_edge_widths() {
        let mut w = PickleWriter::new();
        w.put_varu64(u64::MAX);
        assert_eq!(w.len(), 10);
        let mut r = PickleReader::new(w.as_bytes());
        assert_eq!(r.get_varu64().unwrap(), u64::MAX);

        let mut w = PickleWriter::new();
        w.put_varu64(127);
        assert_eq!(w.len(), 1);
        let mut w2 = PickleWriter::new();
        w2.put_varu64(128);
        assert_eq!(w2.len(), 2);
    }

    #[test]
    fn varint_overflow_is_detected() {
        // Eleven continuation bytes cannot be a valid u64 varint.
        let bytes = [0xffu8; 11];
        let mut r = PickleReader::new(&bytes);
        assert_eq!(r.get_varu64(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncated_input_errors() {
        let v = String::from("hello");
        let bytes = v.to_pickle_bytes();
        for cut in 0..bytes.len() {
            let r = String::from_pickle_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u32.to_pickle_bytes();
        bytes.push(0);
        assert!(matches!(
            u32::from_pickle_bytes(&bytes),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn wrong_tag_rejected() {
        let bytes = true.to_pickle_bytes();
        assert!(matches!(
            String::from_pickle_bytes(&bytes),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn narrowing_out_of_range() {
        let bytes = 300u64.to_pickle_bytes();
        assert!(matches!(
            u8::from_pickle_bytes(&bytes),
            Err(WireError::OutOfRange(_))
        ));
        let bytes = (-5i64).to_pickle_bytes();
        assert!(u64::from_pickle_bytes(&bytes).is_err());
    }

    #[test]
    fn cross_width_int_compat() {
        // A u32 pickles as UINT; reading it as i64 must work.
        let bytes = 7u32.to_pickle_bytes();
        assert_eq!(i64::from_pickle_bytes(&bytes).unwrap(), 7);
        // An i32 pickles as INT; reading it as u64 must work when
        // non-negative.
        let bytes = 7i32.to_pickle_bytes();
        assert_eq!(u64::from_pickle_bytes(&bytes).unwrap(), 7);
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut w = PickleWriter::new();
        w.put_raw_u8(tag::BYTES);
        w.put_varu64(u64::MAX / 2);
        let got = Blob::from_pickle_bytes(w.as_bytes());
        assert!(matches!(got, Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn hostile_seq_count_does_not_overallocate() {
        // Declares 1M elements but provides none: must fail with EOF, not
        // allocate gigabytes.
        let mut w = PickleWriter::new();
        w.begin_seq(1_000_000);
        let got = Vec::<u64>::from_pickle_bytes(w.as_bytes());
        assert!(matches!(got, Err(WireError::UnexpectedEof { .. })));
    }

    #[test]
    fn value_roundtrip_and_ref_scan() {
        let w1 = WireRep::new(SpaceId::from_raw(1), ObjIx(2));
        let w2 = WireRep::new(SpaceId::from_raw(3), ObjIx(4));
        let v = Value::Record(vec![
            Value::Text("x".into()),
            Value::Seq(vec![Value::Ref(w1), Value::Int(-9)]),
            Value::Map(vec![(Value::UInt(1), Value::Ref(w2))]),
            Value::Opt(Some(Box::new(Value::Variant(3, Box::new(Value::Ref(w1)))))),
        ]);
        let bytes = v.to_pickle_bytes();
        let back = Value::from_pickle_bytes(&bytes).unwrap();
        assert_eq!(v, back);
        let refs = scan_refs(&bytes).unwrap();
        assert_eq!(refs, vec![w1, w2, w1]);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut bytes = vec![tag::SOME; Value::MAX_DEPTH + 10];
        bytes.push(tag::UNIT);
        let got = Value::from_pickle_bytes(&bytes);
        assert!(got.is_err());
    }

    #[test]
    fn pathological_container_nesting_errors_without_overflow() {
        // 10 000 nested container headers — far past MAX_DEPTH, and far
        // past what a recursive decoder without a depth check survives.
        // Each level is a header (tag + varint count 1) announcing a
        // single child; the innermost payload never arrives.
        const DEEP: usize = 10_000;
        for t in [tag::SEQ, tag::RECORD] {
            let mut bytes = Vec::with_capacity(2 * DEEP + 1);
            for _ in 0..DEEP {
                bytes.push(t);
                bytes.push(1); // varint count: one element
            }
            bytes.push(tag::UNIT);
            assert_eq!(
                Value::from_pickle_bytes(&bytes),
                Err(WireError::OutOfRange("value nesting too deep")),
                "tag {t:#04x} must hit the depth limit"
            );
            // The runtime's receive path scans every argument pickle for
            // references before dispatch; it must be bounded too.
            assert!(scan_refs(&bytes).is_err());
        }
        // Maps nest through both keys and values; nest through the key.
        let mut bytes = Vec::with_capacity(2 * DEEP + 3);
        for _ in 0..DEEP {
            bytes.push(tag::MAP);
            bytes.push(1); // one key/value pair
        }
        bytes.push(tag::UNIT); // innermost key
        bytes.push(tag::UNIT); // innermost value
        assert_eq!(
            Value::from_pickle_bytes(&bytes),
            Err(WireError::OutOfRange("value nesting too deep"))
        );
        assert!(scan_refs(&bytes).is_err());
    }

    #[test]
    fn nesting_at_the_depth_limit_still_decodes() {
        // MAX_DEPTH itself is legal — only one past it errors.
        let mut bytes = Vec::new();
        for _ in 0..Value::MAX_DEPTH {
            bytes.push(tag::SEQ);
            bytes.push(1);
        }
        bytes.push(tag::UNIT);
        let v = Value::from_pickle_bytes(&bytes).expect("depth exactly at limit decodes");
        let mut depth = 0;
        let mut cur = &v;
        while let Value::Seq(inner) = cur {
            depth += 1;
            cur = &inner[0];
        }
        assert_eq!(depth, Value::MAX_DEPTH);
    }

    #[test]
    fn writer_reuse() {
        let mut w = PickleWriter::with_capacity(64);
        w.put_text("one");
        let first = w.as_bytes().to_vec();
        w.clear();
        assert!(w.is_empty());
        w.put_text("one");
        assert_eq!(w.as_bytes(), &first[..]);
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing
// ---------------------------------------------------------------------------

impl Value {
    /// Renders the value as indented, human-readable text — the debugging
    /// view of a pickle (`netobj`'s answer to a wire sniffer).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            Value::Unit => {
                let _ = writeln!(out, "{pad}unit");
            }
            Value::Bool(v) => {
                let _ = writeln!(out, "{pad}bool {v}");
            }
            Value::Int(v) => {
                let _ = writeln!(out, "{pad}int {v}");
            }
            Value::UInt(v) => {
                let _ = writeln!(out, "{pad}uint {v}");
            }
            Value::Float(v) => {
                let _ = writeln!(out, "{pad}float {v}");
            }
            Value::Text(v) => {
                let shown: String = v.chars().take(48).collect();
                let ellipsis = if v.chars().count() > 48 { "…" } else { "" };
                let _ = writeln!(out, "{pad}text {shown:?}{ellipsis}");
            }
            Value::Bytes(v) => {
                let _ = writeln!(out, "{pad}bytes[{}]", v.len());
            }
            Value::Seq(vs) => {
                let _ = writeln!(out, "{pad}seq[{}]", vs.len());
                for v in vs {
                    v.render_into(out, depth + 1);
                }
            }
            Value::Record(vs) => {
                let _ = writeln!(out, "{pad}record[{}]", vs.len());
                for v in vs {
                    v.render_into(out, depth + 1);
                }
            }
            Value::Map(kvs) => {
                let _ = writeln!(out, "{pad}map[{}]", kvs.len());
                for (k, v) in kvs {
                    k.render_into(out, depth + 1);
                    v.render_into(out, depth + 2);
                }
            }
            Value::Opt(None) => {
                let _ = writeln!(out, "{pad}none");
            }
            Value::Opt(Some(v)) => {
                let _ = writeln!(out, "{pad}some");
                v.render_into(out, depth + 1);
            }
            Value::Ref(w) => {
                let _ = writeln!(out, "{pad}ref {w}");
            }
            Value::Type(t) => {
                let _ = writeln!(out, "{pad}typecode {t}");
            }
            Value::Variant(d, v) => {
                let _ = writeln!(out, "{pad}variant#{d}");
                v.render_into(out, depth + 1);
            }
        }
    }
}

/// Renders a pickle byte buffer for debugging: each top-level value on its
/// own indented block, or an error description for malformed input.
pub fn render_pickle(bytes: &[u8]) -> String {
    let mut r = PickleReader::new(bytes);
    let mut out = String::new();
    while r.remaining() > 0 {
        match Value::decode(&mut r) {
            Ok(v) => out.push_str(&v.render()),
            Err(e) => {
                out.push_str(&format!("<malformed at byte {}: {e}>\n", r.position()));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod render_tests {
    use super::*;

    #[test]
    fn render_shows_structure() {
        let w = WireRep::new(SpaceId::from_raw(0xabcd), ObjIx(3));
        let v = Value::Record(vec![
            Value::Text("hello".into()),
            Value::Ref(w),
            Value::Seq(vec![Value::Int(-1), Value::UInt(2)]),
            Value::Opt(Some(Box::new(Value::Bytes(vec![0; 10])))),
        ]);
        let s = v.render();
        assert!(s.contains("record[4]"));
        assert!(s.contains("text \"hello\""));
        assert!(s.contains("ref abcd.3"));
        assert!(s.contains("seq[2]"));
        assert!(s.contains("bytes[10]"));
    }

    #[test]
    fn render_pickle_handles_malformed() {
        let good = Value::Int(42).to_pickle_bytes();
        assert!(render_pickle(&good).contains("int 42"));
        let s = render_pickle(&[0xff, 0x00]);
        assert!(s.contains("malformed"));
    }

    #[test]
    fn long_text_is_truncated() {
        let v = Value::Text("x".repeat(100));
        assert!(v.render().contains('…'));
    }
}
