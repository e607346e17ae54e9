//! R-F7 — Overlapped two-phase collective I/O (`romio_cb_pipeline`).
//!
//! The double-buffered sweep issues each window's filesystem batch
//! nonblocking and drains it under the next window's pack/exchange, so a
//! window costs roughly `max(exchange, io)` instead of `exchange + io`.
//!
//! Expected shape: the pipelined column beats the synchronous one on both
//! backends, with the larger gain on NFS — its slower per-window I/O is
//! hidden behind the same exchange, so more of the sweep overlaps. The
//! residual gap to the ideal `1/max` bound is visible in the
//! `mpiio.twophase.overlap_ns` / `io_ns` counters (run with
//! `MPIO_DAFS_TRACE=1` for the breakdown).

use mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, JobReport, MpiFile, OpenMode, Testbed,
};

use crate::report::{layer_breakdown, Cell, Table};
use crate::testbeds::run_ranks;

const RANKS: usize = 8;
const BLOCK: u64 = 4 << 10;

/// Full-size sweep geometry: 128 rounds × 4 KiB per rank with a 64 KiB
/// collective buffer gives each aggregator an 8-phase sweep.
pub const DEFAULT_ROUNDS: u64 = 128;
/// Collective buffer for the full-size run.
pub const DEFAULT_CB: u64 = 64 << 10;

/// One collective transfer of the rank-interleaved pattern; returns the
/// slowest rank's virtual ns for the timed operation.
fn run_case(
    backend: Backend,
    rounds: u64,
    cb: u64,
    write: bool,
    pipelined: bool,
) -> (u64, JobReport) {
    let (spans, report) = run_ranks(Testbed::new(backend), RANKS, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("romio_cb_write", "enable");
        hints.set("romio_cb_read", "enable");
        hints.set("cb_buffer_size", &cb.to_string());
        hints.set(
            "romio_cb_pipeline",
            if pipelined { "enable" } else { "disable" },
        );
        let f = MpiFile::open(ctx, adio, &host, "/overlap", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(BLOCK);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * BLOCK) as i64)], &el),
            0,
            comm.size() as u64 * BLOCK,
        );
        f.set_view(0, &el, &ft);
        let total = rounds * BLOCK;
        let buf = host.mem.alloc(total as usize);
        host.mem.fill(buf, total as usize, comm.rank() as u8 + 1);
        if !write {
            // Seed the file so the timed collective read has data.
            write_at_all(ctx, comm, &f, 0, buf, total).unwrap();
        }
        comm.barrier(ctx);
        let t0 = ctx.now();
        if write {
            write_at_all(ctx, comm, &f, 0, buf, total).unwrap();
        } else {
            read_at_all(ctx, comm, &f, 0, buf, total).unwrap();
        }
        comm.barrier(ctx);
        ctx.now().since(t0).as_nanos()
    });
    (spans.into_iter().max().unwrap(), report)
}

/// Run R-F7 with explicit geometry (`--smoke` shrinks it).
pub fn run_sized(rounds: u64, cb: u64) -> Table {
    let mut t = Table::new(
        "R-F7: overlapped two-phase sweep, 4 KiB interleave, 8 ranks (aggregate MB/s)",
        &[
            ("backend", 0),
            ("op", 0),
            ("synchronous", 1),
            ("pipelined", 1),
            ("speedup", 2),
        ],
    );
    let total = RANKS as u64 * rounds * BLOCK;
    let mut traced: Option<JobReport> = None;
    for (name, backend) in [("dafs", Backend::dafs()), ("nfs", Backend::nfs())] {
        for (op, write) in [("write", true), ("read", false)] {
            let (sync_ns, _) = run_case(backend.clone(), rounds, cb, write, false);
            let (pipe_ns, report) = run_case(backend.clone(), rounds, cb, write, true);
            traced = Some(report);
            t.row([
                Cell::text(name),
                Cell::text(op),
                Cell::mbps(total, sync_ns),
                Cell::mbps(total, pipe_ns),
                Cell::times(sync_ns, pipe_ns),
            ]);
        }
    }
    t.note("pipelined sweep pays max(exchange, io) per window instead of exchange + io");
    t.note("gain is largest on NFS, whose slower per-window I/O hides the whole exchange");
    t.note("mpiio.twophase.overlap_ns counts batch in-flight time recovered by the pipeline");
    // With MPIO_DAFS_TRACE set, split the last pipelined run per layer.
    if let Some(report) = traced.filter(|r| r.traced) {
        t.push_extra(layer_breakdown(
            "R-F7a: pipelined two-phase per-layer time (NFS read)",
            &report.snapshot,
        ));
    }
    t
}

/// Run R-F7 at full size.
pub fn run() -> Table {
    run_sized(DEFAULT_ROUNDS, DEFAULT_CB)
}
