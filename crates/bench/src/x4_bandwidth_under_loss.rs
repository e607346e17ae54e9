//! R-X4 — File bandwidth under seeded packet loss (new scenario).
//!
//! Not in the paper: the original testbed's cLAN fabric never dropped a
//! message. This sweep injects seeded per-message loss into both transports
//! and measures sequential file bandwidth plus the recovery work each stack
//! performs. Expected shape: NFS degrades gradually — a lost RPC costs one
//! retransmit timeout and nothing else — while DAFS degrades more steeply
//! at high loss because VIA reliable delivery turns any lost message into a
//! broken VI, forcing a session reconnect (a new VI under the session's
//! protection tag, the receive ring re-posted on it, re-Hello, request
//! replay) before the stream continues.
//!
//! Every cell also verifies the data: the read pass must return exactly the
//! bytes the write pass put down, whatever the fault timeline did.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use nfsv3::NfsClientConfig;
use simnet::FaultPlan;
use via::ViaCost;

use crate::report::{Cell, Table, Unit};
use crate::testbeds::{timed, with_dafs_client, with_nfs_client};

const FILE: u64 = 1 << 20;
const REQ: u64 = 32 << 10;

/// Default fault seed; override with `--fault-seed` on the binary. The same
/// seed reproduces the same fault timeline — and the same table — exactly.
pub const DEFAULT_SEED: u64 = 0xDAF5_0001;

/// The loss probabilities swept, in parts per thousand (0 = fault-free
/// baseline).
pub const LOSS_SWEEP: [u64; 4] = [0, 1, 10, 50];

fn plan(seed: u64, per_mille: u64) -> Option<FaultPlan> {
    (per_mille > 0).then(|| {
        FaultPlan::builder(seed)
            .loss(per_mille as f64 / 1000.0)
            .build()
    })
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + 13) as u8).collect()
}

/// (MB/s write, MB/s read, reconnects, direct fallbacks)
fn dafs_case(seed: u64, loss: u64) -> (Cell, Cell, u64, u64) {
    let ((w, r), ran) = with_dafs_client(
        ViaCost::default(),
        DafsClientConfig::default(),
        plan(seed, loss),
        |fs| {
            fs.create(ROOT_ID, "f").unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let data = pattern(REQ as usize);
            let wbuf = nic.host().mem.alloc(REQ as usize);
            let rbuf = nic.host().mem.alloc(REQ as usize);
            nic.host().mem.write(wbuf, &data);
            let w = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    c.write(ctx, f.id, off, wbuf, REQ).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    let n = c.read(ctx, f.id, off, rbuf, REQ).unwrap();
                    assert_eq!(n, REQ, "short read at {off}");
                    assert_eq!(
                        nic.host().mem.read_vec(rbuf, REQ as usize),
                        data,
                        "corrupt read-back at {off} under loss"
                    );
                }
            });
            (w, r)
        },
    );
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    (
        Cell::mbps(FILE, w),
        Cell::mbps(FILE, r),
        counter("dafs.reconnects"),
        counter("dafs.direct_fallbacks"),
    )
}

/// (MB/s write, MB/s read, retransmissions)
fn nfs_case(seed: u64, loss: u64) -> (Cell, Cell, u64) {
    let ((w, r), ran) = with_nfs_client(
        NfsClientConfig::default(),
        plan(seed, loss),
        |fs| {
            fs.create(ROOT_ID, "f").unwrap();
        },
        move |ctx, c, _| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let data = pattern(REQ as usize);
            let w = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    c.write(ctx, f.id, off, &data).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    let got = c.read(ctx, f.id, off, REQ).unwrap();
                    assert_eq!(got, data, "corrupt read-back at {off} under loss");
                }
            });
            (w, r)
        },
    );
    let snap = ran.snapshot();
    let retrans = snap.expect("nfs.retrans").value();
    (Cell::mbps(FILE, w), Cell::mbps(FILE, r), retrans)
}

/// Run R-X4 with an explicit fault seed.
pub fn run_with_seed(seed: u64) -> Table {
    let mut t = Table::new(
        &format!("R-X4: file bandwidth under message loss (MB/s; seed {seed:#x})"),
        &[
            ("loss", 1),
            ("DAFS rd", 1),
            ("DAFS wr", 1),
            ("reconnects", 0),
            ("fallbacks", 0),
            ("NFS rd", 1),
            ("NFS wr", 1),
            ("retrans", 0),
        ],
    );
    for loss in LOSS_SWEEP {
        let (dw, dr, reconn, fall) = dafs_case(seed, loss);
        let (nw, nr, retrans) = nfs_case(seed, loss);
        t.row([
            Cell::Ratio(loss, 1000, Unit::Pct),
            dr,
            dw,
            Cell::Int(reconn),
            Cell::Int(fall),
            nr,
            nw,
            Cell::Int(retrans),
        ]);
    }
    t.note("every cell verified byte-identical read-back despite the injected faults");
    t.note("expect NFS to shed bandwidth gradually (one retransmit timeout per lost RPC)");
    t.note("expect DAFS to fall off steeply at high loss: a lost VIA message breaks the session (reconnect + replay)");
    t
}

/// Run R-X4 with the default seed.
pub fn run() -> Table {
    run_with_seed(DEFAULT_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::logged;

    /// Every simulation behind the table is logged once, in sweep order
    /// (DAFS then NFS at each loss), each lossy one under the table's seed,
    /// and the same seed logs the same runs.
    #[test]
    fn each_simulation_logs_its_run() {
        let seed = 0x5eed;
        let (_, runs) = logged(|| run_with_seed(seed));
        assert_eq!(runs.len(), 2 * LOSS_SWEEP.len());
        for (i, run) in runs.iter().enumerate() {
            let lossy = LOSS_SWEEP[i / 2] > 0;
            assert_eq!(run.fault_seed, lossy.then_some(seed), "run {i}");
            assert!(run.end_ns > 0 && run.events > 0, "run {i}: {run:?}");
        }
        assert_eq!(logged(|| run_with_seed(seed)).1, runs);
    }
}
