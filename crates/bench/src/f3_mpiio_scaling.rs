//! R-F3 — MPI-IO aggregate bandwidth vs process count (ROMIO `perf`
//! pattern: each rank its own contiguous 4 MiB partition of one file).
//!
//! Expected shape: DAFS scales until the server NIC saturates near the
//! 110 MB/s wire (one client nearly gets there); NFS saturates earlier and
//! lower on server CPU + packet processing; UFS (node-local, no network)
//! scales away above both as the "local bound".

use mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};

use crate::report::{Cell, Table};
use crate::testbeds::{run_ranks, timed};

const PER_RANK: usize = 4 << 20;

/// (write MB/s, read MB/s) aggregate for `ranks` on `backend`.
pub fn agg_rw(backend: Backend, ranks: usize) -> (Cell, Cell) {
    let (spans, _) = run_ranks(Testbed::new(backend), ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/perf",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let buf = host.mem.alloc(PER_RANK);
        let off = (comm.rank() * PER_RANK) as u64;
        comm.barrier(ctx);
        let w = timed(ctx, || {
            f.write_at(ctx, off, buf, PER_RANK as u64).unwrap();
            comm.barrier(ctx);
        });
        comm.barrier(ctx);
        let r = timed(ctx, || {
            f.read_at(ctx, off, buf, PER_RANK as u64).unwrap();
            comm.barrier(ctx);
        });
        (w, r)
    });
    let total = (ranks * PER_RANK) as u64;
    let w = spans.iter().map(|s| s.0).max().unwrap();
    let r = spans.iter().map(|s| s.1).max().unwrap();
    (Cell::mbps(total, w), Cell::mbps(total, r))
}

/// Run R-F3.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F3: MPI-IO aggregate bandwidth vs ranks (4 MiB/rank, MB/s)",
        &[
            ("ranks", 0),
            ("DAFS wr", 1),
            ("DAFS rd", 1),
            ("NFS wr", 1),
            ("NFS rd", 1),
            ("UFS wr", 0),
        ],
    );
    for ranks in [1usize, 2, 4, 8, 16] {
        let (dw, dr) = agg_rw(Backend::dafs(), ranks);
        let (nw, nr) = agg_rw(Backend::nfs(), ranks);
        let (uw, _) = agg_rw(Backend::ufs(), ranks);
        t.row([Cell::Int(ranks as u64), dw, dr, nw, nr, uw]);
    }
    t.note(
        "expect DAFS to pin at ~105-110 (server wire); NFS to plateau lower (server CPU/packets)",
    );
    t.note("UFS is the no-network local bound and scales with ranks");
    t
}
