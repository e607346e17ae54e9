//! Minimal XDR (RFC 1832) encoding, as used by ONC RPC / NFSv3.
//!
//! Big-endian fixed-width integers; opaque byte strings carry a length and
//! are padded to 4-byte alignment. Only the subset the NFS procedures need.

/// XDR encoder over a growable buffer.
#[derive(Default)]
pub struct XdrEnc {
    buf: Vec<u8>,
    /// The first four bytes are an RPC record mark, written at
    /// [`XdrEnc::finish_record`].
    record: bool,
}

/// Bytes of an RPC record mark (a single complete record's length).
const MARK: usize = 4;

impl XdrEnc {
    /// Fresh encoder.
    pub fn new() -> XdrEnc {
        XdrEnc::default()
    }

    /// A fresh encoder for one RPC record of about `body` bytes: room for
    /// the record mark is held at the front, so the record is built in one
    /// pass rather than copied again behind its mark.
    pub fn record(body: usize) -> XdrEnc {
        let mut buf = Vec::with_capacity(MARK + body);
        buf.extend_from_slice(&[0; MARK]);
        XdrEnc { buf, record: true }
    }

    /// Append an unsigned 32-bit integer.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append an unsigned 64-bit integer (XDR hyper).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a variable-length opaque: length, bytes, pad to 4.
    pub fn opaque(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self.pad(v.len())
    }

    /// Append a variable-length opaque held as a rope of views (the copy
    /// of file pages into a reply).
    pub fn opaque_rope(&mut self, v: &simnet::Rope) -> &mut Self {
        self.u32(v.len() as u32);
        v.copy_into(&mut self.buf);
        self.pad(v.len())
    }

    /// Pad an opaque body of `len` bytes to 4-byte alignment.
    fn pad(&mut self, len: usize) -> &mut Self {
        self.buf.extend(std::iter::repeat_n(0u8, (4 - len % 4) % 4));
        self
    }

    /// Append a string (XDR string == opaque of its UTF-8 bytes).
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.opaque(s.as_bytes())
    }

    /// Append already-encoded XDR bytes verbatim (no length prefix).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Finish, returning the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        assert!(!self.record, "a record is finished with finish_record");
        self.buf
    }

    /// Finish an [`XdrEnc::record`]: its record mark (the length of what was
    /// encoded), then the encoded bytes.
    pub fn finish_record(mut self) -> Vec<u8> {
        assert!(
            self.record,
            "finish_record on an encoder with no record mark"
        );
        let body = (self.buf.len() - MARK) as u32;
        self.buf[..MARK].copy_from_slice(&body.to_be_bytes());
        self.buf
    }

    /// Bytes encoded so far (a record's mark not counted).
    pub fn len(&self) -> usize {
        self.buf.len() - if self.record { MARK } else { 0 }
    }

    /// True if nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XdrError {
    /// Ran out of bytes.
    Truncated,
    /// A length field exceeded the remaining buffer.
    BadLength,
}

/// XDR decoder over a byte slice.
pub struct XdrDec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDec<'a> {
    /// Decode from `buf`.
    pub fn new(buf: &'a [u8]) -> XdrDec<'a> {
        XdrDec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.pos + n > self.buf.len() {
            return Err(XdrError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32, XdrError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64, XdrError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a variable-length opaque, borrowed from the message.
    pub fn opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(XdrError::BadLength);
        }
        let data = self.take(len)?;
        let pad = (4 - len % 4) % 4;
        self.take(pad)?;
        Ok(data)
    }

    /// Read a string.
    pub fn string(&mut self) -> Result<String, XdrError> {
        String::from_utf8(self.opaque()?.to_vec()).map_err(|_| XdrError::BadLength)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_record_is_its_body_behind_a_record_mark() {
        let body = |e: &mut XdrEnc| {
            e.u32(7).u64(1 << 40).opaque(b"abcde").string("nfs");
        };
        let mut plain = XdrEnc::new();
        body(&mut plain);
        let plain = plain.finish();
        let mut rec = XdrEnc::record(plain.len());
        body(&mut rec);
        assert_eq!(rec.len(), plain.len());
        let rec = rec.finish_record();
        assert_eq!(rec, crate::proto::frame(&plain));
        assert_eq!(rec.capacity(), rec.len(), "sized once, exactly");
    }

    #[test]
    fn ints_roundtrip() {
        let mut e = XdrEnc::new();
        e.u32(0xDEADBEEF).u64(0x0123456789ABCDEF);
        let b = e.finish();
        assert_eq!(b.len(), 12);
        let mut d = XdrDec::new(&b);
        assert_eq!(d.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.u64().unwrap(), 0x0123456789ABCDEF);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn opaque_pads_to_four() {
        for n in 0..9usize {
            let data: Vec<u8> = (0..n as u8).collect();
            let mut e = XdrEnc::new();
            e.opaque(&data);
            let b = e.finish();
            assert_eq!(b.len() % 4, 0, "n={n}");
            let mut d = XdrDec::new(&b);
            assert_eq!(d.opaque().unwrap(), data);
            assert_eq!(d.remaining(), 0);
            // The same bytes held as two views encode the same.
            let mut rope = simnet::Rope::new();
            rope.push(simnet::Bytes::copy_from_slice(&data[..n / 2]));
            rope.push(simnet::Bytes::copy_from_slice(&data[n / 2..]));
            let mut e = XdrEnc::new();
            e.opaque_rope(&rope);
            assert_eq!(e.finish(), b, "n={n}");
        }
    }

    #[test]
    fn string_roundtrip() {
        let mut e = XdrEnc::new();
        e.string("héllo.dat");
        let b = e.finish();
        let mut d = XdrDec::new(&b);
        assert_eq!(d.string().unwrap(), "héllo.dat");
    }

    #[test]
    fn truncated_detected() {
        let mut d = XdrDec::new(&[0, 0]);
        assert_eq!(d.u32(), Err(XdrError::Truncated));
    }

    #[test]
    fn bad_length_detected() {
        // Claims 100 bytes but only 2 follow.
        let mut e = XdrEnc::new();
        e.u32(100).u32(0);
        let b = e.finish();
        let mut d = XdrDec::new(&b);
        assert_eq!(d.opaque(), Err(XdrError::BadLength));
    }

    #[test]
    fn mixed_sequence() {
        let mut e = XdrEnc::new();
        e.u32(7).string("x").u64(9).opaque(b"abc");
        let b = e.finish();
        let mut d = XdrDec::new(&b);
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.string().unwrap(), "x");
        assert_eq!(d.u64().unwrap(), 9);
        assert_eq!(d.opaque().unwrap(), b"abc");
    }
}
