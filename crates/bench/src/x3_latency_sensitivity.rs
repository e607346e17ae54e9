//! X-3 (extension) — fabric-latency sensitivity of the DAFS advantage.
//!
//! The paper family's small-op wins come from the user-level network's
//! microsecond latency. This ablation sweeps the VIA wire latency from the
//! cLAN's 5 µs up to 100 µs (campus-scale fabric) while holding the TCP
//! baseline fixed, and reports the DAFS getattr latency and its advantage
//! over NFS.
//!
//! Expected shape: the advantage decays roughly as (NFS_fixed /
//! (2·latency + constant)); by ~100 µs one-way the fabrics converge and
//! protocol leanness is all that's left.

use dafs::{DafsClientConfig, DafsServerCost};
use memfs::ROOT_ID;
use simnet::time::units::*;
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{timed, with_dafs_client};

const ITERS: u64 = 20;

fn dafs_getattr_ns(wire_latency_us: u64) -> u64 {
    with_dafs_client(
        ViaCost {
            wire_latency: us(wire_latency_us),
            ..ViaCost::default()
        },
        DafsServerCost::default(),
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
            }) / ITERS
        },
    )
    .0
}

/// Run X-3.
pub fn run() -> Table {
    let mut t = Table::new(
        "X-3 (extension): DAFS getattr vs VIA wire latency (us)",
        &[
            ("wire latency", 0),
            ("DAFS getattr", 1),
            ("vs NFS (180.9us)", 1),
        ],
    );
    const NFS_BASELINE_NS: u64 = 180_900; // from R-T3 (fixed TCP fabric)
    for wire in [5u64, 10, 20, 50, 100] {
        let d = dafs_getattr_ns(wire);
        let label = format!("{wire}us");
        t.row([
            Cell::text(label),
            Cell::us(d),
            Cell::times(NFS_BASELINE_NS, d),
        ]);
    }
    t.note("the DAFS advantage is mostly the fabric: it decays from ~6x to ~1x as latency grows");
    t
}
