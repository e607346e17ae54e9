//! R-F2 — Single-client file-access bandwidth vs request size.
//!
//! Expected shape: the client reuses one buffer, so past the first two
//! requests DAFS reads go direct at every size past the floor (a few hundred
//! bytes: the 512-byte row stays inline) and climb to the wire; DAFS writes
//! keep the length rule (inline up to the 8 KiB threshold, and on this
//! fabric, which has no RDMA Read, above it too), and from the reused
//! buffer their inline bytes are sent in place; NFS stays host-limited
//! everywhere. Forced-inline DAFS shows what is lost without RDMA.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use nfsv3::NfsClientConfig;
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

/// Bytes each pass moves.
pub(crate) const FILE: u64 = 8 << 20;

/// Virtual ns of a sequential `req`-byte write pass, then read pass, over
/// an 8 MiB prefilled file through one DAFS client.
pub(crate) fn dafs_rw_ns(req: u64, force_inline: bool) -> (u64, u64) {
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
    with_dafs_client(
        ViaCost::default(),
        cfg,
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![3u8; FILE as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let buf = nic.host().mem.alloc(req as usize);
            let w = timed(ctx, || {
                for off in (0..FILE).step_by(req as usize) {
                    c.write(ctx, f.id, off, buf, req).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..FILE).step_by(req as usize) {
                    c.read(ctx, f.id, off, buf, req).unwrap();
                }
            });
            (w, r)
        },
    )
    .0
}

fn nfs_rw_ns(req: u64) -> (u64, u64) {
    with_nfs_client(
        NfsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![3u8; FILE as usize]).unwrap();
        },
        move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let chunk = vec![5u8; req as usize];
            let w = timed(ctx, || {
                for off in (0..FILE).step_by(req as usize) {
                    c.write(ctx, f.id, off, &chunk).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..FILE).step_by(req as usize) {
                    c.read(ctx, f.id, off, req).unwrap();
                }
            });
            (w, r)
        },
    )
    .0
}

/// Run R-F2.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F2: single-client file bandwidth vs request size (MB/s, read | write)",
        &[
            ("request", 0),
            ("DAFS rd", 1),
            ("DAFS wr", 1),
            ("DAFS-inline rd", 1),
            ("NFS rd", 1),
            ("NFS wr", 1),
        ],
    );
    for req in [512u64, 2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10] {
        let (dw, dr) = dafs_rw_ns(req, false);
        let (_, ir) = dafs_rw_ns(req, true);
        let (nw, nr) = nfs_rw_ns(req);
        let mbps = [dr, dw, ir, nr, nw].map(|ns| Cell::mbps(FILE, ns));
        t.row([Cell::Size(req)].into_iter().chain(mbps));
    }
    t.note("expect DAFS reads to pull away from 2K up (one reused buffer: direct past the floor) toward ~110; NFS flat-ish ~20-60");
    t.note("DAFS-inline column (no registration cache, no direct transfer) is what the copies cost: it matches DAFS rd only at 512, below the floor");
    t
}
