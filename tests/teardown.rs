//! Teardown: when `Testbed::run` returns, the simulation is gone — every
//! actor unwound or dropped (server daemons included), every actor stack and
//! `HostMem` region unmapped, and every payload buffer the servers held (file
//! pages, replay caches, frames) freed. Actors are coroutines on the thread
//! inside `run`, so there never was a thread to leave behind: the thread
//! count must not move at all, not even while the job runs.
//!
//! One `#[test]` on purpose: the thread count, the mappings and the heap
//! are process-wide, and an integration-test file is its own process, so
//! no sibling test can move them under this one. (`bytes_alive` is per OS
//! thread; the job runs on this test's thread, so it needs no such care.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use mpio_dafs::mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};
use mpio_dafs::simnet::buf::bytes_alive;

/// The system allocator, counting the bytes it has handed out and not yet
/// got back. This test binary only.
struct Counting;

static HEAP_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        HEAP_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, that is from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Live threads of this process (`Threads:` in `/proc/self/status`);
/// `None` where there is no procfs, which skips the thread checks.
fn live_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What a job must not grow: the number and total size of the process's
/// memory mappings (a stack not unmapped adds lines, its guard page keeps it
/// from merging with a neighbour; a `HostMem` region not unmapped adds at
/// least bytes; `None` without procfs) and the heap bytes outstanding
/// (anything a finished coroutine's frame still owned was never dropped, and
/// shows up here). The size leaves out `[heap]`, whose extent is `malloc`'s
/// own business.
fn footprint() -> (Option<(usize, u64)>, isize) {
    let mappings = std::fs::read_to_string("/proc/self/maps").ok().map(|maps| {
        let size = |line: &str| {
            let (lo, hi) = line.split_once(' ')?.0.split_once('-')?;
            Some(u64::from_str_radix(hi, 16).ok()? - u64::from_str_radix(lo, 16).ok()?)
        };
        let sized = maps.lines().filter(|l| !l.ends_with("[heap]"));
        let bytes = sized.map(|l| size(l).expect("lo-hi first")).sum();
        (maps.lines().count(), bytes)
    });
    (mappings, HEAP_BYTES.load(Ordering::Relaxed))
}

/// Each rank writes 256 KiB to its own region and reads it back, so the
/// servers end the run holding file pages and cached replies. Asserts that
/// payload bytes are back at their pre-testbed value afterwards and that the
/// thread count is the same before, during and after.
fn job_leaves_nothing_behind(name: &str, testbed: fn() -> Testbed, ranks: usize) {
    const LEN: usize = 256 << 10;
    let (bytes, threads) = (bytes_alive(), live_threads());
    let report = testbed().run(ranks, move |ctx, comm, adio| {
        assert_eq!(live_threads(), threads, "an actor brought a thread");
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
    assert_eq!(live_threads(), threads, "{name}: thread count moved");
}

/// The first job fills what the process keeps on purpose (the frame pool,
/// lazily initialised statics); a second, identical one must add nothing.
fn second_job_adds_nothing(name: &str, testbed: fn() -> Testbed, ranks: usize) {
    job_leaves_nothing_behind(name, testbed, ranks);
    let after_first = footprint();
    job_leaves_nothing_behind(name, testbed, ranks);
    assert_eq!(
        footprint(),
        after_first,
        "{name}: ((mappings, mapped bytes), heap bytes) moved over a second identical job"
    );
}

#[test]
fn run_leaves_no_thread_and_no_buffer_behind() {
    second_job_adds_nothing("dafs", || Testbed::new(Backend::dafs()), 4);
    second_job_adds_nothing("nfs", || Testbed::new(Backend::nfs()), 4);
    second_job_adds_nothing("switched", || Testbed::switched(8, 2, 2), 8);
}
