//! Property tests for the XDR codec: arbitrary sequences of fields must
//! round-trip, with every opaque padded to 4-byte alignment.
//!
//! Field sequences come from the in-tree deterministic PRNG
//! ([`simnet::Rng64`]); every run checks the same 256 cases.

use nfsv3::xdr::{XdrDec, XdrEnc};
use simnet::{Bytes, Rng64};

#[derive(Debug, Clone)]
enum Field {
    U32(u32),
    U64(u64),
    Opaque(Vec<u8>),
    Str(String),
}

const STR_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._/-";

fn gen_field(rng: &mut Rng64) -> Field {
    match rng.below(4) {
        0 => Field::U32(rng.next_u64() as u32),
        1 => Field::U64(rng.next_u64()),
        2 => {
            let len = rng.range_usize(0, 64);
            Field::Opaque(rng.bytes(len))
        }
        _ => {
            let len = rng.range_usize(0, 25);
            Field::Str(
                (0..len)
                    .map(|_| STR_CHARS[rng.range_usize(0, STR_CHARS.len())] as char)
                    .collect(),
            )
        }
    }
}

#[test]
fn sequences_roundtrip() {
    let mut rng = Rng64::new(0x0DD5_0001);
    for case in 0..256 {
        let fields: Vec<Field> = (0..rng.range_usize(0, 16))
            .map(|_| gen_field(&mut rng))
            .collect();
        let mut e = XdrEnc::new();
        for f in &fields {
            match f {
                Field::U32(v) => {
                    e.u32(*v);
                }
                Field::U64(v) => {
                    e.u64(*v);
                }
                Field::Opaque(v) => {
                    e.opaque(v);
                }
                Field::Str(s) => {
                    e.string(s);
                }
            }
        }
        let bytes = Bytes::from_vec(e.finish());
        assert_eq!(bytes.len() % 4, 0, "XDR stream must stay 4-aligned");
        let mut d = XdrDec::new(&bytes);
        for f in &fields {
            match f {
                Field::U32(v) => assert_eq!(d.u32().unwrap(), *v, "case {case}"),
                Field::U64(v) => assert_eq!(d.u64().unwrap(), *v, "case {case}"),
                Field::Opaque(v) => assert_eq!(&d.opaque().unwrap(), v, "case {case}"),
                Field::Str(s) => assert_eq!(&d.string().unwrap(), s, "case {case}"),
            }
        }
        assert_eq!(d.remaining(), 0);
    }
}

/// Decoding random garbage never panics — it either yields values or
/// errors.
#[test]
fn decoder_is_total() {
    let mut rng = Rng64::new(0x0DD5_0002);
    for _ in 0..256 {
        let len = rng.range_usize(0, 64);
        let bytes = Bytes::from_vec(rng.bytes(len));
        let mut d = XdrDec::new(&bytes);
        let _ = d.u32();
        let _ = d.opaque();
        let _ = d.string();
        let _ = d.u64();
    }
}
