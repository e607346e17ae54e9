//! R-F2 — Single-client file-access bandwidth vs request size.
//!
//! Expected shape: the client reuses one buffer, so past the first two
//! requests DAFS reads go direct at every size past the floor (a few hundred
//! bytes: the 512-byte row stays inline) and climb to the wire; DAFS writes
//! keep the length rule (inline up to the 8 KiB threshold, and on this
//! fabric, which has no RDMA Read, above it too), and from the reused
//! buffer their inline bytes are sent in place; NFS stays host-limited
//! everywhere. Forced-inline DAFS shows what is lost without RDMA.

use dafs::{DafsClientConfig, DafsServerCost};
use memfs::ROOT_ID;
use nfsv3::{NfsClientConfig, NfsServerCost};
use tcpnet::TcpCost;
use via::ViaCost;

use crate::report::{human_size, mb_per_s, Table};
use crate::testbeds::{with_dafs_client, with_nfs_client, Cell};

const FILE: u64 = 8 << 20;

fn dafs_rw_mb_s(req: u64, force_inline: bool) -> (f64, f64) {
    let cfg = match force_inline {
        // Forcing inline = no length crosses the direct threshold, and no
        // buffer is ever warm (a reused one would go direct all the same).
        true => DafsClientConfig {
            direct_threshold: u64::MAX,
            use_regcache: false,
            ..Default::default()
        },
        false => DafsClientConfig::default(),
    };
    let wtime = Cell::new();
    let rtime = Cell::new();
    let (wt, rt) = (wtime.clone(), rtime.clone());
    with_dafs_client(
        ViaCost::default(),
        DafsServerCost::default(),
        cfg,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![3u8; FILE as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let buf = nic.host().mem.alloc(req as usize);
            // Sequential write pass.
            let t0 = ctx.now();
            let mut off = 0;
            while off < FILE {
                c.write(ctx, f.id, off, buf, req).unwrap();
                off += req;
            }
            wt.set(ctx.now().since(t0).as_nanos());
            // Sequential read pass.
            let t1 = ctx.now();
            let mut off = 0;
            while off < FILE {
                c.read(ctx, f.id, off, buf, req).unwrap();
                off += req;
            }
            rt.set(ctx.now().since(t1).as_nanos());
        },
    );
    (mb_per_s(FILE, wtime.get()), mb_per_s(FILE, rtime.get()))
}

fn nfs_rw_mb_s(req: u64) -> (f64, f64) {
    let wtime = Cell::new();
    let rtime = Cell::new();
    let (wt, rt) = (wtime.clone(), rtime.clone());
    with_nfs_client(
        TcpCost::default(),
        NfsServerCost::default(),
        NfsClientConfig::default(),
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![3u8; FILE as usize]).unwrap();
        },
        move |ctx, c| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let chunk = vec![5u8; req as usize];
            let t0 = ctx.now();
            let mut off = 0;
            while off < FILE {
                c.write(ctx, f.id, off, &chunk).unwrap();
                off += req;
            }
            wt.set(ctx.now().since(t0).as_nanos());
            let t1 = ctx.now();
            let mut off = 0;
            while off < FILE {
                c.read(ctx, f.id, off, req).unwrap();
                off += req;
            }
            rt.set(ctx.now().since(t1).as_nanos());
        },
    );
    (mb_per_s(FILE, wtime.get()), mb_per_s(FILE, rtime.get()))
}

/// Run R-F2.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F2: single-client file bandwidth vs request size (MB/s, read | write)",
        &[
            "request",
            "DAFS rd",
            "DAFS wr",
            "DAFS-inline rd",
            "NFS rd",
            "NFS wr",
        ],
    );
    for req in [512u64, 2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10] {
        let (dw, dr) = dafs_rw_mb_s(req, false);
        let (_, ir) = dafs_rw_mb_s(req, true);
        let (nw, nr) = nfs_rw_mb_s(req);
        t.row(vec![
            human_size(req),
            format!("{dr:.1}"),
            format!("{dw:.1}"),
            format!("{ir:.1}"),
            format!("{nr:.1}"),
            format!("{nw:.1}"),
        ]);
    }
    t.note("expect DAFS reads to pull away from 2K up (one reused buffer: direct past the floor) toward ~110; NFS flat-ish ~20-60");
    t.note("DAFS-inline column (no registration cache, no direct transfer) is what the copies cost: it matches DAFS rd only at 512, below the floor");
    t
}
