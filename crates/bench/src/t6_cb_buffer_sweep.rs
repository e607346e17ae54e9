//! R-T6 — Collective-buffer size sweep (ablation of `cb_buffer_size`).
//!
//! Expected shape: tiny collective buffers mean many sweep phases (more
//! exchange rounds and more, smaller filesystem writes); the curve improves
//! with buffer size and flattens once one phase covers each aggregator's
//! whole file domain.
//!
//! The `striped(2)` columns run the same sweep over two servers (64 KiB
//! stripes): the sweep lays its windows on the stripe grid and hands each
//! phase's consecutive stripes to consecutive aggregators, so every phase
//! drives both wires and the curve sits near twice the one-server one.

use mpiio::{write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed};

use crate::report::{Cell, Table};
use crate::testbeds::run_ranks;

const RANKS: usize = 8;
const BLOCK: u64 = 4 << 10;
const ROUNDS: u64 = 64;

fn run_cb(backend: Backend, cb_bytes: u64, pipelined: bool) -> Cell {
    let (spans, _) = run_ranks(Testbed::new(backend), RANKS, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        hints.set("romio_cb_write", "enable");
        hints.set("cb_buffer_size", &cb_bytes.to_string());
        hints.set(
            "romio_cb_pipeline",
            if pipelined { "enable" } else { "disable" },
        );
        let f = MpiFile::open(ctx, adio, &host, "/cbsweep", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(BLOCK);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * BLOCK) as i64)], &el),
            0,
            comm.size() as u64 * BLOCK,
        );
        f.set_view(0, &el, &ft);
        let src = host.mem.alloc((ROUNDS * BLOCK) as usize);
        comm.barrier(ctx);
        let t0 = ctx.now();
        write_at_all(ctx, comm, &f, 0, src, ROUNDS * BLOCK).unwrap();
        comm.barrier(ctx);
        ctx.now().since(t0).as_nanos()
    });
    let span = spans.into_iter().max().unwrap();
    Cell::mbps(RANKS as u64 * ROUNDS * BLOCK, span)
}

/// Run R-T6.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T6: cb_buffer_size sweep (8 ranks, 4 KiB interleave, MB/s)",
        &[
            ("cb_buffer_size", 0),
            ("synchronous", 1),
            ("pipelined", 1),
            ("striped(2) sync", 1),
            ("striped(2) pipelined", 1),
        ],
    );
    for cb in [64u64 << 10, 256 << 10, 1 << 20, 4 << 20] {
        let cells = [
            run_cb(Backend::dafs(), cb, false),
            run_cb(Backend::dafs(), cb, true),
            run_cb(Backend::dafs_striped(2), cb, false),
            run_cb(Backend::dafs_striped(2), cb, true),
        ];
        if cb == 64 << 10 {
            assert!(
                cells[3].value() >= 1.5 * cells[1].value(),
                "two servers must carry a 64K-window pipelined sweep at >= 1.5x one: {cells:?}"
            );
        }
        t.row([Cell::Size(cb)].into_iter().chain(cells));
    }
    t.note("expect improvement with buffer size, flattening once one phase covers a file domain");
    t.note("pipelining helps most mid-sweep: many phases to overlap but windows still sizable");
    t.note("striped(2): windows on the stripe grid, each phase's stripes dealt round the aggregators, so both wires stay busy");
    t
}
