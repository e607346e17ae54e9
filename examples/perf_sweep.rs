//! The ROMIO `perf`-style benchmark: every rank writes and reads its own
//! contiguous partition of one shared file, with and without an intervening
//! `MPI_File_sync`, across all three backends — the canonical way the
//! paper-era evaluations summarized MPI-IO throughput.
//!
//! Run with:
//! ```sh
//! cargo run --example perf_sweep --release
//! ```

use mpio_dafs::mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const RANKS: usize = 4;
const SLAB: usize = 4 << 20; // 4 MiB per rank

struct PerfRow {
    backend: &'static str,
    write_mb_s: f64,
    write_sync_mb_s: f64,
    read_mb_s: f64,
}

fn run(backend: Backend) -> PerfRow {
    let name = backend.kind().as_str();
    let testbed = Testbed::new(backend);
    // (write_ns, write_sync_ns, read_ns) — max across ranks.
    let write_ns = Arc::new(AtomicU64::new(0));
    let wsync_ns = Arc::new(AtomicU64::new(0));
    let read_ns = Arc::new(AtomicU64::new(0));
    let (w, ws, r) = (write_ns.clone(), wsync_ns.clone(), read_ns.clone());

    testbed.run(RANKS, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let file = MpiFile::open(
            ctx,
            adio,
            &host,
            "/perf.dat",
            OpenMode::create(),
            Hints::default(),
        )
        .expect("open");
        let buf = host.mem.alloc(SLAB);
        host.mem.fill(buf, SLAB, comm.rank() as u8 + 1);
        let my_off = (comm.rank() * SLAB) as u64;

        // Phase 1: plain write.
        comm.barrier(ctx);
        let t0 = ctx.now();
        file.write_at(ctx, my_off, buf, SLAB as u64).unwrap();
        comm.barrier(ctx);
        w.fetch_max(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);

        // Phase 2: write + sync.
        comm.barrier(ctx);
        let t1 = ctx.now();
        file.write_at(ctx, my_off, buf, SLAB as u64).unwrap();
        file.sync(ctx).unwrap();
        comm.barrier(ctx);
        ws.fetch_max(ctx.now().since(t1).as_nanos(), Ordering::Relaxed);

        // Phase 3: read back.
        let dst = host.mem.alloc(SLAB);
        comm.barrier(ctx);
        let t2 = ctx.now();
        let n = file.read_at(ctx, my_off, dst, SLAB as u64).unwrap();
        comm.barrier(ctx);
        r.fetch_max(ctx.now().since(t2).as_nanos(), Ordering::Relaxed);
        assert_eq!(n as usize, SLAB);
        assert_eq!(host.mem.read_vec(dst, 4), vec![comm.rank() as u8 + 1; 4]);
    });

    let total_mb = (RANKS * SLAB) as f64 / 1e6;
    let bw = |ns: &AtomicU64| total_mb / (ns.load(Ordering::Relaxed) as f64 / 1e9);
    PerfRow {
        backend: name,
        write_mb_s: bw(&write_ns),
        write_sync_mb_s: bw(&wsync_ns),
        read_mb_s: bw(&read_ns),
    }
}

fn main() {
    println!(
        "ROMIO perf pattern: {RANKS} ranks × {} MiB contiguous partitions\n",
        SLAB >> 20
    );
    println!(
        "{:<8} {:>12} {:>14} {:>12}",
        "backend", "write MB/s", "write+sync", "read MB/s"
    );
    let mut rows = Vec::new();
    for backend in [Backend::dafs(), Backend::nfs(), Backend::ufs()] {
        let row = run(backend);
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>12.1}",
            row.backend, row.write_mb_s, row.write_sync_mb_s, row.read_mb_s
        );
        rows.push(row);
    }
    // Shape assertions: DAFS beats NFS on both paths.
    let dafs = &rows[0];
    let nfs = &rows[1];
    assert!(dafs.read_mb_s > nfs.read_mb_s, "DAFS read must beat NFS");
    assert!(dafs.write_mb_s > nfs.write_mb_s, "DAFS write must beat NFS");
    println!("\nperf_sweep: OK (DAFS > NFS on both paths)");
}
