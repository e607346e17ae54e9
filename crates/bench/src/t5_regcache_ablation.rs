//! R-T5 — Registration-cache ablation at the MPI-IO level.
//!
//! Expected shape: with the cache disabled, every direct transfer pays the
//! full pin/unpin cycle (tens of microseconds plus per-page work) and the
//! large-transfer throughput sags measurably; with it enabled the cost is
//! paid once per buffer.

use dafs::DafsClientConfig;
use mpiio::{Backend, Hints, MpiFile, OpenMode, Testbed};
use via::ViaCost;

use crate::report::{Cell, Table};
use crate::testbeds::{run_ranks, with_dafs_client};

const REQ: u64 = 1 << 20;
const COUNT: u64 = 64;

fn run_case(use_regcache: bool) -> (Cell, u64) {
    let backend = Backend::Dafs {
        client: DafsClientConfig {
            use_regcache,
            ..Default::default()
        },
        servers: 1,
    };
    let tb = Testbed::new(backend);
    // Pre-create the file content.
    let f = tb.fs.create(memfs::ROOT_ID, "big").unwrap();
    tb.fs.write(f.id, 0, &vec![1u8; REQ as usize]).unwrap();
    let (out, _) = run_ranks(tb, 1, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f =
            MpiFile::open(ctx, adio, &host, "/big", OpenMode::open(), Hints::default()).unwrap();
        let buf = host.mem.alloc(REQ as usize);
        let t0 = ctx.now();
        for _ in 0..COUNT {
            f.read_at(ctx, 0, buf, REQ).unwrap();
        }
        let dur = ctx.now().since(t0).as_nanos();
        (dur, comm.host().cpu.busy().as_nanos())
    });
    let (dur, cpu) = out[0];
    (Cell::mbps(REQ * COUNT, dur), cpu)
}

/// Silent invariant pass backing the table: the same direct-read workload
/// at the protocol level, asserting the registration-cache bookkeeping
/// balances. Any violation panics, aborting the run; nothing is printed,
/// so the table output is unchanged.
fn verify_regcache_invariants(use_regcache: bool) {
    let (stats, ran) = with_dafs_client(
        ViaCost::default(),
        DafsClientConfig {
            use_regcache,
            ..Default::default()
        },
        None,
        |fs| {
            let f = fs.create(memfs::ROOT_ID, "big").unwrap();
            fs.write(f.id, 0, &vec![1u8; REQ as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, memfs::ROOT_ID, "big").unwrap();
            let buf = nic.host().mem.alloc(REQ as usize);
            for _ in 0..COUNT {
                c.read(ctx, f.id, 0, buf, REQ).unwrap();
                // Nothing is in flight between reads, so pinned bytes are
                // exactly the cached working set: the one buffer when the
                // cache holds it, zero when every registration is transient.
                let expect = if use_regcache { REQ } else { 0 };
                assert_eq!(c.regcache_pinned(), expect, "pinned bytes drifted");
            }
            let rc = c.regcache();
            let (hits, misses, evictions) = (rc.hits.get(), rc.misses.get(), rc.evictions.get());
            // Each 1 MiB direct read acquires the buffer exactly once.
            assert_eq!(hits + misses, COUNT, "hit/miss counters must balance");
            assert_eq!(evictions, 0, "64 MiB budget never evicts a 1 MiB set");
            if use_regcache {
                assert_eq!(misses, 1, "one registration, then all hits");
            } else {
                assert_eq!(hits, 0, "disabled cache never hits");
            }
            // Flush must return the pinned accounting to exactly zero.
            c.regcache_flush(ctx);
            assert_eq!(c.regcache_pinned(), 0, "pinned must be zero after flush");
            [hits, misses, evictions]
        },
    );
    // The session's counters are its series of the run-wide metrics: with
    // one session, each rolled-up total is its count.
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    assert_eq!(counter("dafs.regcache.hits"), stats[0]);
    assert_eq!(counter("dafs.regcache.misses"), stats[1]);
    assert_eq!(counter("dafs.regcache.evictions"), stats[2]);
}

/// Run R-T5.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T5: registration-cache ablation (64 x 1 MiB direct reads)",
        &[
            ("regcache", 0),
            ("throughput MB/s", 1),
            ("client CPU (ms)", 2),
        ],
    );
    verify_regcache_invariants(true);
    verify_regcache_invariants(false);
    let (on_bw, on_cpu) = run_case(true);
    let (off_bw, off_cpu) = run_case(false);
    t.note(&format!(
        "cache saves {:.1}% client CPU and {:.1}% throughput on this workload",
        100.0 * (1.0 - on_cpu as f64 / off_cpu as f64),
        100.0 * (on_bw.value() / off_bw.value() - 1.0)
    ));
    t.row([Cell::text("on"), on_bw, Cell::ms(on_cpu)]);
    t.row([Cell::text("off"), off_bw, Cell::ms(off_cpu)]);
    t
}

use memfs;
