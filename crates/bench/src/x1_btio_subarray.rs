//! X-1 (extension) — BTIO-class 3-D subarray collective I/O.
//!
//! The NAS BT-IO benchmark writes a 3-D global array partitioned across
//! ranks, through `MPI_Type_create_subarray` file views — the canonical
//! "hard" MPI-IO pattern of the era. Each rank owns a slab along the
//! first dimension of an N×N×N array of 8-byte cells (contiguous within
//! the view, strided on disk for the verification read of a *transposed*
//! partitioning).
//!
//! Expected shape: DAFS sustains multiples of the NFS rate for both the
//! slab dump and the strided cross-read; collective buffering keeps the
//! cross-read from collapsing.

use mpiio::{read_at_all, write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed};

use crate::report::{Cell, Table};
use crate::testbeds::{run_ranks, timed};

const N: u64 = 64; // N^3 cells of 8 bytes = 2 MiB
const CELL: u64 = 8;
const RANKS: usize = 4;

/// (slab-write MB/s, cross-read MB/s).
fn run_backend(backend: Backend) -> (Cell, Cell) {
    let (spans, _) = run_ranks(Testbed::new(backend), RANKS, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/bt.arr",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let slab = N / comm.size() as u64;

        // Phase 1: dump my slab along dim 0 (contiguous on disk).
        let ft = Datatype::subarray(
            &[N, N, N],
            &[slab, N, N],
            &[comm.rank() as u64 * slab, 0, 0],
            &Datatype::bytes(CELL),
        );
        f.set_view(0, &Datatype::bytes(CELL), &ft);
        let mine = slab * N * N * CELL;
        let src = host.mem.alloc(mine as usize);
        host.mem.fill(src, mine as usize, comm.rank() as u8 + 1);
        comm.barrier(ctx);
        let w = timed(ctx, || {
            write_at_all(ctx, comm, &f, 0, src, mine).unwrap();
            comm.barrier(ctx);
        });

        // Phase 2: cross-read — slabs along dim 1 (strided on disk: each
        // rank's view is N runs of slab×N cells).
        let ft2 = Datatype::subarray(
            &[N, N, N],
            &[N, slab, N],
            &[0, comm.rank() as u64 * slab, 0],
            &Datatype::bytes(CELL),
        );
        f.set_view(0, &Datatype::bytes(CELL), &ft2);
        let dst = host.mem.alloc(mine as usize);
        comm.barrier(ctx);
        let mut n = 0;
        let r = timed(ctx, || {
            n = read_at_all(ctx, comm, &f, 0, dst, mine).unwrap();
            comm.barrier(ctx);
        });
        assert_eq!(n, mine);
        // Verify a sample: plane p of dim 0 was written by rank p/slab.
        let plane_bytes = slab * N * CELL; // one dim-0 plane within my view
        for p in [0u64, N / 2, N - 1] {
            let owner = (p / slab) as u8 + 1;
            let got = host.mem.read_vec(dst.offset(p * plane_bytes), 8);
            assert_eq!(got, vec![owner; 8], "plane {p}");
        }
        (w, r)
    });
    let total = N * N * N * CELL;
    let w = spans.iter().map(|s| s.0).max().unwrap();
    let r = spans.iter().map(|s| s.1).max().unwrap();
    (Cell::mbps(total, w), Cell::mbps(total, r))
}

/// Run X-1.
pub fn run() -> Table {
    let mut t = Table::new(
        "X-1 (extension): BT-IO 3-D subarray collective I/O (MB/s)",
        &[("backend", 0), ("slab write", 1), ("cross read", 1)],
    );
    for backend in [Backend::dafs(), Backend::nfs()] {
        let name = backend.kind().as_str();
        let (w, r) = run_backend(backend);
        t.row([Cell::text(name), w, r]);
    }
    t.note("cross-read is strided on disk; collective buffering keeps it near the slab rate");
    t
}
