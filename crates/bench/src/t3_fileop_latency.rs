//! R-T3 — Small-file-operation latency: DAFS vs NFS.
//!
//! Expected shape: DAFS metadata and tiny-I/O ops land in the tens of
//! microseconds (one VIA round trip + a lean server); NFS in the hundreds
//! (kernel RPC path) — a 3–6× gap.

use dafs::{DafsClientConfig, DafsServerCost};
use memfs::ROOT_ID;
use nfsv3::{NfsClientConfig, NfsServerCost};
use simnet::ActorCtx;
use tcpnet::TcpCost;
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

const ITERS: u64 = 20;

/// Mean virtual ns of each op over [`ITERS`] calls, in order.
fn mean_ns(ctx: &ActorCtx, ops: [&dyn Fn(); 4]) -> [u64; 4] {
    ops.map(|op| timed(ctx, || (0..ITERS).for_each(|_| op())) / ITERS)
}

/// (getattr, lookup, read512, write512) mean latencies in ns.
fn dafs_ops_ns() -> [u64; 4] {
    with_dafs_client(
        ViaCost::default(),
        DafsServerCost::default(),
        DafsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "target").unwrap();
            fs.write(f.id, 0, &vec![1u8; 4096]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "target").unwrap();
            let buf = nic.host().mem.alloc(512);
            mean_ns(
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
        TcpCost::default(),
        NfsServerCost::default(),
        NfsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "target").unwrap();
            fs.write(f.id, 0, &vec![1u8; 4096]).unwrap();
        },
        move |ctx, c| {
            let f = c.lookup(ctx, ROOT_ID, "target").unwrap();
            let data = vec![2u8; 512];
            mean_ns(
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
            Cell::us(d[i]),
            Cell::us(n[i]),
            Cell::times(n[i], d[i]),
        ]);
    }
    t.note("expect DAFS ~25-50us per op, NFS ~150-300us; 3-6x gap");
    t
}
