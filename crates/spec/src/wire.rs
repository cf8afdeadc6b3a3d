//! The byte codec: one little-endian format for everything the stack
//! sends, stores or rings — blockstore messages, journal records,
//! membership views and heartbeats, rdt headers, SQE and CQE slots.
//!
//! "The marshalling obligation is guaranteeing that calling read results
//! in its parameters and return values being correctly marshalled across
//! the user- and kernel-space boundary. We can prove that values
//! correctly round-trip through serialization and deserialization"
//! (§3). `veros-core`'s `marshalling_bytes_roundtrip` obligation checks
//! this codec, and every format inherits the check by being written
//! with it.
//!
//! The format has no self-description (both sides are compiled from the
//! same schema): a `u8`, `u16`, `u32` or `u64` is its little-endian
//! bytes; a byte run or UTF-8 string is a `u32` length then the bytes;
//! a list of `u16`s is a `u32` count then the items. A [`Writer`]
//! appends to a caller-owned buffer, so the caller allocates once, at
//! the message's final size. A [`Reader`] never panics on hostile input
//! and never reserves more than the input left can hold.

/// Decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A length prefix or count exceeded its bound.
    LengthOverflow,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after decoding finished.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "input truncated",
            WireError::LengthOverflow => "length prefix too large",
            WireError::BadUtf8 => "invalid utf-8 in string",
            WireError::TrailingBytes => "trailing bytes after value",
        };
        f.write_str(s)
    }
}

/// Largest length prefix a [`Reader`] accepts (a corrupted prefix must
/// not make it read gigabytes).
pub const MAX_FIELD: usize = 1 << 24;

/// Encoded size of a length-prefixed field holding `len` bytes.
#[inline]
pub const fn field_len(len: usize) -> usize {
    4 + len
}

/// Appends values to a caller-owned buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Self { buf }
    }

    /// Appends a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Appends a length-prefixed field of `len` zero bytes and returns
    /// it, for the caller to fill in place (a block read from a file
    /// straight into its message).
    #[inline]
    pub fn bytes_slot(&mut self, len: usize) -> &mut [u8] {
        self.u32(len as u32);
        let start = self.buf.len();
        self.buf.resize(start + len, 0);
        &mut self.buf[start..]
    }

    /// Appends a counted list of `u16`s.
    #[inline]
    pub fn u16s(&mut self, v: &[u16]) -> &mut Self {
        self.u32(v.len() as u32);
        for &x in v {
            self.u16(x);
        }
        self
    }
}

/// Reads values back out of a byte buffer.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless everything was consumed — catches schema drift where
    /// the encoder wrote more fields than the decoder read.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// Reads a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [v] = self.array()?;
        Ok(v)
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD {
            return Err(WireError::LengthOverflow);
        }
        let (head, rest) = self.rest.split_at_checked(len).ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(head.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a counted list of `u16`s; a count above `max` is
    /// `LengthOverflow`.
    #[inline]
    pub fn u16s(&mut self, max: usize) -> Result<Vec<u16>, WireError> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(WireError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(n.min(self.remaining() / 2));
        for _ in 0..n {
            out.push(self.u16()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).u8(7).u16(0xbeef).u32(0xdead_beef).u64(u64::MAX);
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8);
        let mut d = Reader::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        d.finish().unwrap();
    }

    #[test]
    fn bytes_and_strings_round_trip() {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        w.bytes(b"\x00\xff\x42").str("grüße / 你好").bytes(b"").u16s(&[1, 0xffff]);
        w.bytes_slot(2).copy_from_slice(b"ab");
        let mut d = Reader::new(&bytes);
        assert_eq!(d.bytes().unwrap(), b"\x00\xff\x42");
        assert_eq!(d.str().unwrap(), "grüße / 你好");
        assert_eq!(d.bytes().unwrap(), b"");
        assert_eq!(d.u16s(2).unwrap(), [1, 0xffff]);
        assert_eq!(d.bytes().unwrap(), b"ab");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).u64(1).bytes(b"hello").u16s(&[3, 4]);
        for cut in 0..bytes.len() {
            let mut d = Reader::new(&bytes[..cut]);
            let r = d.u64().and_then(|_| d.bytes()).and_then(|_| d.u16s(2));
            assert_eq!(r, Err(WireError::Truncated), "cut at {cut} must fail");
        }
    }

    #[test]
    fn malformed_input_is_an_error() {
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(Reader::new(&huge).bytes(), Err(WireError::LengthOverflow));
        assert_eq!(Reader::new(&huge).u16s(64), Err(WireError::LengthOverflow));
        let mut bytes = Vec::new();
        Writer::new(&mut bytes).bytes(&[0xff, 0xfe]).u8(9);
        let mut d = Reader::new(&bytes);
        assert_eq!(d.str(), Err(WireError::BadUtf8));
        assert_eq!(d.finish(), Err(WireError::TrailingBytes));
    }
}
