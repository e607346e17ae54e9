//! Property tests for the DAFS wire encoding (public surface: request/
//! response headers and attribute marshalling round-trip through real
//! client/server traffic, so we exercise them via the protocol enums).
//!
//! The input domain is a single byte, so these check all 256 values
//! exhaustively instead of sampling.

use dafs::{DafsOp, DafsStatus};

/// Every op value either parses to an op that re-encodes to itself, or
/// rejects — no aliasing. 13, once a direct write, is unassigned.
#[test]
fn op_parse_is_partial_inverse() {
    for v in 0..=u8::MAX {
        match DafsOp::from_u8(v) {
            Some(op) => assert_eq!(op as u8, v),
            None => assert!(v == 0 || v == 13 || v >= 20, "unexpected reject for {v}"),
        }
    }
}

/// Status parsing is total and idempotent (unknown values collapse to
/// Inval, which re-parses to itself).
#[test]
fn status_parse_is_total_and_idempotent() {
    for v in 0..=u8::MAX {
        let s = DafsStatus::from_u8(v);
        assert_eq!(DafsStatus::from_u8(s as u8), s);
    }
}
