//! R-T3 — Small-file-operation latency: DAFS vs NFS.
//!
//! Expected shape: DAFS metadata and tiny-I/O ops land in the tens of
//! microseconds (one VIA round trip + a lean server); NFS in the hundreds
//! (kernel RPC path) — a 3–6× gap.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use nfsv3::NfsClientConfig;
use simnet::ActorCtx;
use via::ViaCost;

use crate::report::{Cell, Table, Unit};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

const ITERS: u64 = 20;

/// Virtual ns of [`ITERS`] calls of each op, in order.
fn elapsed_ns(ctx: &ActorCtx, ops: [&dyn Fn(); 4]) -> [u64; 4] {
    ops.map(|op| timed(ctx, || (0..ITERS).for_each(|_| op())))
}

/// (getattr, lookup, read512, write512): ns of [`ITERS`] calls each.
fn dafs_ops_ns() -> [u64; 4] {
    with_dafs_client(
        ViaCost::default(),
        DafsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "target").unwrap();
            fs.write(f.id, 0, &vec![1u8; 4096]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "target").unwrap();
            let buf = nic.host().mem.alloc(512);
            elapsed_ns(
                ctx,
                [
                    &|| _ = c.getattr(ctx, f.id).unwrap(),
                    &|| _ = c.lookup(ctx, ROOT_ID, "target").unwrap(),
                    &|| _ = c.read(ctx, f.id, 0, buf, 512).unwrap(),
                    &|| _ = c.write(ctx, f.id, 0, buf, 512).unwrap(),
                ],
            )
        },
    )
    .0
}

fn nfs_ops_ns() -> [u64; 4] {
    with_nfs_client(
        NfsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "target").unwrap();
            fs.write(f.id, 0, &vec![1u8; 4096]).unwrap();
        },
        move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "target").unwrap();
            let data = vec![2u8; 512];
            elapsed_ns(
                ctx,
                [
                    &|| _ = c.getattr_uncached(ctx, f.id).unwrap(),
                    &|| _ = c.lookup(ctx, ROOT_ID, "target").unwrap(),
                    &|| _ = c.read(ctx, f.id, 0, 512).unwrap(),
                    &|| _ = c.write(ctx, f.id, 0, &data).unwrap(),
                ],
            )
        },
    )
    .0
}

/// Run R-T3.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T3: small file-op latency (us)",
        &[("operation", 0), ("DAFS", 1), ("NFS", 1), ("NFS/DAFS", 1)],
    );
    let d = dafs_ops_ns();
    let n = nfs_ops_ns();
    for (i, name) in ["getattr", "lookup", "read 512B", "write 512B"]
        .iter()
        .enumerate()
    {
        t.row([
            Cell::text(*name),
            Cell::Ratio(d[i], ITERS, Unit::Us),
            Cell::Ratio(n[i], ITERS, Unit::Us),
            Cell::times(n[i], d[i]),
        ]);
    }
    t.note("expect DAFS ~25-50us per op, NFS ~150-300us; 3-6x gap");
    t
}
