//! R-F4 — Collective vs independent MPI-IO for noncontiguous
//! (rank-interleaved, BTIO-like) access.
//!
//! Expected shape: for fine-grained interleaving, two-phase collective I/O
//! (few large contiguous transfers + interconnect exchange) beats
//! independent data-sieving (RMW windows) which in turn beats the naive
//! per-range path (one request per tiny block).

use mpiio::{write_at_all, Backend, Datatype, Hints, JobReport, MpiFile, OpenMode, Testbed};

use crate::report::{layer_breakdown, Cell, Table};
use crate::testbeds::run_ranks;

const BLOCK: u64 = 512; // fine-grained interleave: per-op costs dominate
const ROUNDS: u64 = 256;

/// Access-method variants under test.
#[derive(Clone, Copy)]
enum Method {
    /// Two-phase collective buffering.
    TwoPhase,
    /// Independent with data sieving (locked read-modify-write windows).
    Sieving,
    /// Independent with the driver's pipelined batch path.
    Batched,
    /// Pre-batching naive independent: one synchronous request per block.
    Naive,
}

/// Virtual ns to write the interleaved pattern with the given strategy,
/// plus the job's accounting report (metrics snapshot included).
fn run_pattern(ranks: usize, method: Method) -> (u64, JobReport) {
    let tb = Testbed::new(Backend::dafs());
    let (spans, report) = run_ranks(tb, ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let mut hints = Hints::default();
        match method {
            Method::TwoPhase => {
                hints.set("romio_cb_write", "enable");
            }
            Method::Sieving => {
                hints.set("romio_cb_write", "disable");
                hints.set("romio_ds_write", "enable");
            }
            Method::Batched | Method::Naive => {
                hints.set("romio_cb_write", "disable");
                hints.set("romio_ds_write", "disable");
            }
        }
        let f = MpiFile::open(ctx, adio, &host, "/ncontig", OpenMode::create(), hints).unwrap();
        let el = Datatype::bytes(BLOCK);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * BLOCK) as i64)], &el),
            0,
            comm.size() as u64 * BLOCK,
        );
        f.set_view(0, &el, &ft);
        let src = host.mem.alloc((ROUNDS * BLOCK) as usize);
        host.mem
            .fill(src, (ROUNDS * BLOCK) as usize, comm.rank() as u8 + 1);
        comm.barrier(ctx);
        let t0 = ctx.now();
        match method {
            Method::Naive => {
                // One synchronous request per block: the pre-batch-I/O
                // independent path of the era.
                for round in 0..ROUNDS {
                    f.write_at(ctx, round, src.offset(round * BLOCK), BLOCK)
                        .unwrap();
                }
                comm.barrier(ctx);
            }
            _ => {
                write_at_all(ctx, comm, &f, 0, src, ROUNDS * BLOCK).unwrap();
                comm.barrier(ctx);
            }
        }
        ctx.now().since(t0).as_nanos()
    });
    (spans.into_iter().max().unwrap(), report)
}

/// Run R-F4.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-F4: collective vs independent write, 512 B interleave (aggregate MB/s)",
        &[
            ("ranks", 0),
            ("two-phase", 1),
            ("indep batched", 1),
            ("indep sieved", 1),
            ("indep naive", 1),
        ],
    );
    let mut last_twophase: Option<JobReport> = None;
    for ranks in [4usize, 8, 16] {
        let total = ranks as u64 * ROUNDS * BLOCK;
        let (two_phase, tp_report) = run_pattern(ranks, Method::TwoPhase);
        let (batched, _) = run_pattern(ranks, Method::Batched);
        let (sieving, _) = run_pattern(ranks, Method::Sieving);
        let (naive, _) = run_pattern(ranks, Method::Naive);
        last_twophase = Some(tp_report);
        let cells = [two_phase, batched, sieving, naive].map(|ns| Cell::mbps(total, ns));
        t.row([Cell::Int(ranks as u64)].into_iter().chain(cells));
    }
    t.note("expect two-phase >> sieved/naive; at this grain the server pays per-op cost per 512B block");
    t.note(
        "sieved writes pay locked read-modify-write windows; naive pays one round trip per block",
    );
    t.note("DAFS batch pipelining hides client latency but not the server per-op work");
    // With MPIO_DAFS_TRACE set, split the 16-rank two-phase run into
    // aggregation / exchange / I/O / barrier-wait virtual time.
    if let Some(report) = last_twophase.filter(|r| r.traced) {
        t.push_extra(layer_breakdown(
            "R-F4a: two-phase per-layer time breakdown (16 ranks)",
            &report.snapshot,
        ));
    }
    t
}
