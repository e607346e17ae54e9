//! A copy budget `cargo test` holds without the benchmark: how many payload
//! bytes the harness materialises into refcounted buffers per byte an MPI-IO
//! job moves (`simnet::buf::bytes_total`, the benchmark's
//! `simnet.buf.copy_ratio`). A written byte is materialised twice — client
//! memory → request frame, frame → file page — where the machine modelled
//! copies it on each host; a read byte rides views of the pages into the
//! client's buffer and is materialised nowhere.
//!
//! The gauge is per OS thread: a job runs on the test's thread, so the test
//! reads only the bytes its own jobs materialised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpio_dafs::mpiio::{
    read_at_all, write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed,
};
use mpio_dafs::simnet::buf::{bytes_alive, bytes_total};

const MIB: u64 = 1 << 20;

/// Buffered bytes per byte moved, for the whole job and for its read half.
struct Ratios {
    job: f64,
    read_half: f64,
}

/// One rank: `total` bytes in `chunk`-sized `write_at`s, then read back.
fn independent(backend: Backend, total: u64, chunk: u64) -> Ratios {
    let read_half = Arc::new(AtomicU64::new(0));
    let out = read_half.clone();
    let report = Testbed::new(backend).run(1, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(ctx, adio, &host, "/b", OpenMode::create(), Hints::default())
            .expect("open");
        let buf = host.mem.alloc(chunk as usize);
        host.mem.fill(buf, chunk as usize, 0x5A);
        for off in (0..total).step_by(chunk as usize) {
            assert_eq!(f.write_at(ctx, off, buf, chunk), Ok(chunk));
        }
        f.sync(ctx).expect("sync");
        let before = bytes_total();
        for off in (0..total).step_by(chunk as usize) {
            assert_eq!(f.read_at(ctx, off, buf, chunk), Ok(chunk));
        }
        out.store(bytes_total() - before, Ordering::Relaxed);
        f.close(ctx, adio).expect("close");
    });
    Ratios {
        job: report.wall.bytes_buffered as f64 / (2 * total) as f64,
        read_half: read_half.load(Ordering::Relaxed) as f64 / total as f64,
    }
}

/// `ranks` ranks, 4 KiB-interleaved, each moving `per_rank` bytes through
/// `write_at_all` then `read_at_all`.
fn collective(backend: Backend, ranks: usize, per_rank: u64) -> f64 {
    let report = Testbed::new(backend).run(ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(ctx, adio, &host, "/c", OpenMode::create(), Hints::default())
            .expect("open");
        let el = Datatype::bytes(4096);
        let mine = Datatype::hindexed(&[(1, comm.rank() as i64 * 4096)], &el);
        f.set_view(0, &el, &Datatype::resized(&mine, 0, ranks as u64 * 4096));
        let buf = host.mem.alloc(per_rank as usize);
        host.mem.fill(buf, per_rank as usize, comm.rank() as u8 + 1);
        assert_eq!(write_at_all(ctx, comm, &f, 0, buf, per_rank), Ok(per_rank));
        f.sync(ctx).expect("sync");
        comm.barrier(ctx);
        assert_eq!(read_at_all(ctx, comm, &f, 0, buf, per_rank), Ok(per_rank));
        f.close(ctx, adio).expect("close");
    });
    report.wall.bytes_buffered as f64 / (2 * ranks as u64 * per_rank) as f64
}

#[test]
fn payload_bytes_buffered_per_byte_moved_stay_in_budget() {
    let alive = bytes_alive();

    // DAFS, independent: frame and page per written byte (plus 25 bytes of
    // header per 32 KiB message), nothing per read byte: 1.0013. The parent
    // held 1.5013 here — frame out of client memory, gathered send, file
    // growth — and 0.0004 on the read half, which already met its bound.
    let dafs = independent(Backend::dafs(), 8 * MIB, 128 << 10);
    println!(
        "dafs independent: job {:.4}, read half {:.4}",
        dafs.job, dafs.read_half
    );
    assert!(
        dafs.job <= 1.1,
        "DAFS buffered {:.3} bytes per byte moved",
        dafs.job
    );
    assert!(
        dafs.read_half <= 0.05,
        "DAFS reads buffered {:.3}",
        dafs.read_half
    );

    // Two-phase over two striped servers: the aggregators' window writes and
    // reads travel as list requests. Measured 1.0016 (parent: 1.5016); the
    // bound is that plus a tenth.
    let coll = collective(Backend::dafs_striped(2), 4, 2 * MIB);
    println!("dafs striped collective: job {coll:.4}");
    assert!(
        coll <= 1.102,
        "collective buffered {coll:.3} bytes per byte moved"
    );

    // NFS copies by design (the socket's user-to-kernel copy on each side);
    // the bound is that this change does not add to it. Measured 1.5022,
    // which is the parent's figure too: the parent already meets it.
    let nfs = independent(Backend::nfs(), 8 * MIB, 128 << 10);
    println!(
        "nfs independent: job {:.4}, read half {:.4}",
        nfs.job, nfs.read_half
    );
    assert!(
        nfs.job <= 1.5023,
        "NFS buffered {:.4} bytes per byte moved",
        nfs.job
    );

    assert_eq!(bytes_alive(), alive, "a job left payload bytes behind");
}
