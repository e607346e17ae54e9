//! Teardown: when `Testbed::run` returns, the simulation is gone — every
//! actor thread joined (server daemons included) and every payload buffer
//! the servers held (file pages, replay caches, frames) freed.
//!
//! One `#[test]` on purpose: `bytes_alive` and the thread count are
//! process-wide, and an integration-test file is its own process, so no
//! sibling test can move them under this one.

use mpio_dafs::mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};
use mpio_dafs::simnet::buf::bytes_alive;

/// Live threads of this process (`Threads:` in `/proc/self/status`);
/// `None` where there is no procfs, which skips the thread half.
fn live_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Each rank writes 256 KiB to its own region and reads it back, so the
/// servers end the run holding file pages and cached replies. Asserts that
/// payload bytes and threads are back at their pre-testbed values afterwards.
fn job_leaves_nothing_behind(name: &str, testbed: fn() -> Testbed, ranks: usize) {
    const LEN: usize = 256 << 10;
    let (bytes, threads) = (bytes_alive(), live_threads());
    let report = testbed().run(ranks, |ctx, comm, adio| {
        let host = comm.host().clone();
        let file = MpiFile::open(ctx, adio, &host, "/f", OpenMode::create(), Hints::default())
            .expect("open");
        let offset = (comm.rank() * LEN) as u64;
        let buf = host.mem.alloc(LEN);
        host.mem.fill(buf, LEN, comm.rank() as u8 + 1);
        assert_eq!(file.write_at(ctx, offset, buf, LEN as u64), Ok(LEN as u64));
        comm.barrier(ctx);
        assert_eq!(file.read_at(ctx, offset, buf, LEN as u64), Ok(LEN as u64));
        file.close(ctx, adio).expect("close");
    });
    assert!(
        report.wall.peak_bytes_alive > bytes,
        "{name}: buffered nothing"
    );
    assert_eq!(bytes_alive(), bytes, "{name}: payload bytes outlived run");
    // `join` returns when the kernel clears the thread's tid, which is a
    // moment before it leaves the process's `Threads:` count; let that
    // settle rather than fail one run in six on the gap.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while live_threads() != threads && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(live_threads(), threads, "{name}: threads outlived run");
}

#[test]
fn run_leaves_no_thread_and_no_buffer_behind() {
    job_leaves_nothing_behind("dafs", || Testbed::new(Backend::dafs()), 4);
    job_leaves_nothing_behind("nfs", || Testbed::new(Backend::nfs()), 4);
    job_leaves_nothing_behind("switched", || Testbed::switched(8, 2, 2), 8);
}
