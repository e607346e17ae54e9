//! R-F5 — Inline→direct rule sweep: what `direct_threshold` prices.
//!
//! The threshold exists because *registering* a buffer costs more than
//! copying a small one — so it is a statement about the **cold** buffer,
//! one the NIC has never seen. The `cold` columns give every request a
//! buffer of its own: a low threshold pays a registration per small
//! request, a high one pays two copies per large request, and the default
//! (8 KiB) tracks the upper envelope of the two. The `warm` columns reuse
//! one buffer, as MPI-IO does: past the first two requests its registration
//! is free, so the client sends every read past the floor (a few hundred
//! bytes) direct whatever the threshold says — the two warm columns
//! coincide and lie on or above everything else. The last column is what
//! is left without RDMA at all: no registration cache, no direct transfer.
//!
//! Asserted: warm ≥ cold at every size, for either threshold; the default
//! configuration is the envelope — of the cold columns with a fresh buffer,
//! of every column with a reused one.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use via::ViaCost;

use crate::report::{human_size, Cell, Table};
use crate::testbeds::{timed, with_dafs_client};

const FILE: u64 = 4 << 20;

/// Sequential `req`-byte reads of the whole file; `cold` gives each request
/// the next `req` bytes of one file-sized arena (a range offered once),
/// otherwise all share the arena's head.
fn read_mb_s(req: u64, cfg: DafsClientConfig, cold: bool) -> Cell {
    let ns = with_dafs_client(
        ViaCost::default(),
        cfg,
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![1u8; FILE as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let arena = nic.host().mem.alloc(FILE as usize);
            if !cold {
                // Warm the buffer out of the measurement: seen, registered.
                for _ in 0..2 {
                    c.read(ctx, f.id, 0, arena, req).unwrap();
                }
            }
            timed(ctx, || {
                for off in (0..FILE).step_by(req as usize) {
                    let buf = arena.offset(if cold { off } else { 0 });
                    c.read(ctx, f.id, off, buf, req.min(FILE - off)).unwrap();
                }
            })
        },
    )
    .0;
    Cell::mbps(FILE, ns)
}

fn threshold(direct_threshold: u64) -> DafsClientConfig {
    DafsClientConfig {
        direct_threshold,
        ..Default::default()
    }
}

/// Run R-F5.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F5: inline/direct rule sweep, sequential reads (MB/s)",
        &[
            ("request", 0),
            ("cold, thresh 1K", 1),
            ("cold, thresh 8K", 1),
            ("warm, thresh 1K", 1),
            ("warm, thresh 8K", 1),
            ("inline-only", 1),
        ],
    );
    let inline_only = DafsClientConfig {
        direct_threshold: u64::MAX,
        use_regcache: false,
        ..Default::default()
    };
    for req in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let cold = [1u64 << 10, 8 << 10].map(|th| read_mb_s(req, threshold(th), true));
        let warm = [1u64 << 10, 8 << 10].map(|th| read_mb_s(req, threshold(th), false));
        let inline = read_mb_s(req, inline_only, false);
        let size = human_size(req);
        let (c, w) = (
            cold.each_ref().map(Cell::value),
            warm.each_ref().map(Cell::value),
        );
        for th in 0..2 {
            assert!(
                w[th] >= c[th],
                "{size}: warm {} below cold {}",
                w[th],
                c[th]
            );
        }
        assert!(
            c[1] >= c[0],
            "{size}: the default threshold is not the cold envelope ({c:?})"
        );
        let best = [c[0], c[1], w[0], inline.value()]
            .into_iter()
            .fold(0.0, f64::max);
        assert!(
            w[1] >= best,
            "{size}: the default configuration ({}) is not the envelope ({best})",
            w[1]
        );
        t.row(
            [Cell::Size(req)]
                .into_iter()
                .chain(cold)
                .chain(warm)
                .chain([inline]),
        );
    }
    t.note("cold = a fresh buffer per request: the threshold trades a registration against two copies, and 8K tracks the envelope");
    t.note("warm = one reused buffer: its registration is free, every read past the floor goes direct, the threshold is moot; asserted warm >= cold and default = envelope");
    t
}
