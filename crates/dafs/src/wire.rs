//! DAFS wire encoding: a compact little-endian TLV-free format.
//!
//! DAFS defined its own marshalling (not XDR); we keep the same spirit:
//! fixed-width little-endian integers, length-prefixed byte strings, no
//! padding. Request and response payloads are built with [`Enc`] and parsed
//! with [`Dec`]. A decoder reads a refcounted frame and returns byte-string
//! fields as views of it, so a payload is never copied just to be parsed.

use simnet::{Bytes, Rope};

/// Wire encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Fresh encoder with room for `n` bytes, for a frame of known size.
    pub fn with_capacity(n: usize) -> Enc {
        Enc {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes encoded so far, for a producer that appends a payload in
    /// place (`HostMem::read_into`) behind a length prefix it encoded.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Append a u8.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed byte string held as a rope of views (the
    /// copy of file pages into a reply message).
    pub fn rope(&mut self, v: &Rope) -> &mut Self {
        self.u32(v.len() as u32);
        v.copy_into(&mut self.buf);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Append already-encoded wire bytes verbatim (no length prefix).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finish, returning the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decode failure (truncated or malformed message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

/// Wire decoder over a received frame. A clone reads on from the same
/// position without moving the original (a peek).
#[derive(Clone)]
pub struct Dec<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a Bytes) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError);
        }
        let s = &self.buf.as_slice()[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u8.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte string, as a view of the frame.
    pub fn bytes(&mut self) -> Result<Bytes, WireError> {
        let n = self.u32()? as usize;
        let start = self.pos;
        self.take(n)?;
        Ok(self.buf.slice(start..start + n))
    }

    /// Read a length-prefixed string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError)
    }

    /// Bytes not yet consumed.
    #[cfg(test)]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed() {
        let mut e = Enc::new();
        e.u8(7)
            .u32(0xABCD)
            .u64(1 << 40)
            .str("file.dat")
            .bytes(b"xyz");
        let b = Bytes::from_vec(e.finish());
        let mut d = Dec::new(&b);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xABCD);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.str().unwrap(), "file.dat");
        let field = d.bytes().unwrap();
        assert_eq!(field, b"xyz".as_slice());
        // A view of the frame, not a copy.
        assert!(std::ptr::eq(field.as_ptr(), &b[b.len() - 3]));
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.u32(10).u8(1);
        let b = Bytes::from_vec(e.finish());
        let mut d = Dec::new(&b);
        assert_eq!(d.bytes(), Err(WireError));
        let short = Bytes::from_vec(vec![1, 2]);
        assert_eq!(Dec::new(&short).u32(), Err(WireError));
    }

    #[test]
    fn rope_encodes_like_its_concatenation() {
        let whole = Bytes::from_vec(b"pages of a file".to_vec());
        let mut rope = Rope::new();
        rope.push(whole.slice(..5));
        rope.push(Bytes::from_vec(b" of a".to_vec()));
        rope.push(whole.slice(10..));
        let (mut a, mut b) = (Enc::new(), Enc::new());
        a.rope(&rope);
        b.bytes(&whole);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn empty_bytes_ok() {
        let mut e = Enc::new();
        e.bytes(b"");
        let b = Bytes::from_vec(e.finish());
        assert_eq!(Dec::new(&b).bytes().unwrap(), b"".as_slice());
    }
}
