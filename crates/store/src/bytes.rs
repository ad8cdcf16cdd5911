//! Minimal little-endian byte codec for record payloads.
//!
//! ks-core serializes `Binary` through these helpers; the store header
//! itself uses them too. The discipline mirrors the hasher's: strings
//! and byte slices are length-prefixed, enums are written as explicit
//! tags by the caller. [`ByteReader`] returns typed [`StoreError`]s —
//! truncation and malformed lengths are recoverable decode failures,
//! never panics, because payloads come from disk and may be torn or
//! tampered.

use crate::StoreError;

/// Append-only little-endian writer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Raw bytes, no length prefix (fixed-width data only).
    pub fn bytes_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes_raw(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes_raw(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.bytes_raw(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes_raw(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// f32 by IEEE-754 bit pattern.
    pub fn f32_bits(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes_raw(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A length-prefixed section whose body `write` appends in place:
    /// the same bytes as [`ByteWriter::bytes`] over what `write` wrote,
    /// without a second buffer. [`ByteReader::bytes`] reads it back.
    pub fn section(&mut self, write: impl FnOnce(&mut ByteWriter)) {
        let at = self.buf.len();
        self.u64(0);
        write(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Cursor-based reader over a payload slice.
///
/// Decoding a record is one accessor call per field, so the accessors
/// are `#[inline]` and every error is built out of line in a `#[cold]`
/// function: the hot path is a bounds check and a load.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[cold]
#[inline(never)]
fn truncated(needed: usize, available: usize) -> StoreError {
    StoreError::Truncated { needed, available }
}

#[cold]
#[inline(never)]
fn corrupt(msg: std::fmt::Arguments) -> StoreError {
    StoreError::Corrupt(msg.to_string())
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole payload was consumed (trailing garbage is
    /// a corruption signal, not slack).
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(corrupt(format_args!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(truncated(self.pos.saturating_add(n), self.buf.len()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn bool(&mut self) -> Result<bool, StoreError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format_args!("bad bool byte {b:#04x}"))),
        }
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u128(&mut self) -> Result<u128, StoreError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format_args!("length {v} exceeds usize")))
    }

    /// Item count of a sequence whose items take at least one byte each.
    /// A count beyond the bytes left cannot be met, so it fails here as
    /// `Truncated` and the caller can presize its vector with it.
    #[inline]
    pub fn count(&mut self) -> Result<usize, StoreError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(truncated(self.pos.saturating_add(n), self.buf.len()));
        }
        Ok(n)
    }

    #[inline]
    pub fn f32_bits(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Length-prefixed byte slice. The declared length is bounded by
    /// the bytes actually remaining, so a corrupted length field fails
    /// with `Truncated` instead of attempting a huge allocation.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, StoreError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|e| corrupt(format_args!("invalid utf-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f32_bits(1.5);
        w.f32_bits(f32::NAN);
        w.str("héllo");
        w.bytes(b"\x00\x01\x02");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f32_bits().unwrap(), 1.5);
        assert!(r.f32_bits().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"\x00\x01\x02");
        r.expect_end().unwrap();
    }

    #[test]
    fn a_section_is_a_length_prefixed_byte_slice() {
        let mut w = ByteWriter::new();
        w.u8(9);
        w.section(|w| {
            w.u32(0xDEAD_BEEF);
            w.str("body");
        });
        w.u8(7);
        let mut body = ByteWriter::new();
        body.u32(0xDEAD_BEEF);
        body.str("body");
        let mut want = ByteWriter::new();
        want.u8(9);
        want.bytes(body.as_slice());
        want.u8(7);
        assert_eq!(w.as_slice(), want.as_slice());
        let mut r = ByteReader::new(w.as_slice());
        r.u8().unwrap();
        assert_eq!(r.bytes().unwrap(), body.as_slice());
        assert_eq!(r.u8().unwrap(), 7);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = ByteWriter::new();
        w.u32(5);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf[..2]);
        assert!(matches!(r.u32(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_truncated_not_alloc() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd declared length
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn count_beyond_remaining_bytes_is_truncated() {
        let mut w = ByteWriter::new();
        w.usize(2);
        w.u8(0);
        w.u8(0);
        w.usize(u64::MAX as usize);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf[..10]);
        assert_eq!(r.count().unwrap(), 2);
        let mut r = ByteReader::new(&buf[..9]);
        assert!(matches!(r.count(), Err(StoreError::Truncated { .. })));
        let mut r = ByteReader::new(&buf[10..]);
        assert!(matches!(r.count(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corrupt() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool(), Err(StoreError::Corrupt(_))));
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.str(), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_flagged() {
        let mut w = ByteWriter::new();
        w.u8(1);
        w.u8(2);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        r.u8().unwrap();
        assert!(matches!(r.expect_end(), Err(StoreError::Corrupt(_))));
    }
}
