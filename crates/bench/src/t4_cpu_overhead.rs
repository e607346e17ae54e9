//! R-T4 — Client CPU overhead per unit of data moved.
//!
//! Expected shape: DAFS direct I/O leaves the client CPU almost idle (the
//! NIC places data); the NFS client burns milliseconds of CPU per MiB in
//! copies, per-packet processing, and interrupt handling. This is the
//! headline "offload" argument for DAFS on user-level networking.

use dafs::DafsClientConfig;
use memfs::ROOT_ID;
use nfsv3::NfsClientConfig;
use simnet::obs::Snapshot;
use via::ViaCost;

use crate::report::{layer_breakdown, Cell, Table, Unit};
use crate::testbeds::{with_dafs_client, with_nfs_client};

const LEN: u64 = 64 << 20;

/// The least NFS/DAFS client CPU ratio the table may show.
const RATIO_FLOOR: f64 = 50.0;

/// (client cpu ns, client kernel ns, the run's metrics when traced) for a
/// 64 MiB sequential read + write on DAFS.
fn dafs_overhead() -> (u64, u64, Option<Snapshot>) {
    let (host, ran) = with_dafs_client(
        ViaCost::default(),
        DafsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![1u8; LEN as usize]).unwrap();
        },
        move |ctx, c, nic| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let buf = nic.host().mem.alloc(LEN as usize);
            c.read(ctx, f.id, 0, buf, LEN).unwrap();
            c.write(ctx, f.id, 0, buf, LEN).unwrap();
            nic.host().clone()
        },
    );
    let snap = ran.obs.enabled().then(|| ran.snapshot());
    (host.cpu.busy().as_nanos(), 0, snap)
}

fn nfs_overhead() -> (u64, u64, Option<Snapshot>) {
    let ((host, fabric), ran) = with_nfs_client(
        NfsClientConfig::default(),
        None,
        |fs| {
            let f = fs.create(ROOT_ID, "f").unwrap();
            fs.write(f.id, 0, &vec![1u8; LEN as usize]).unwrap();
        },
        move |ctx, c, fabric| {
            let f = c.lookup(ctx, ROOT_ID, "f").unwrap();
            let data = c.read(ctx, f.id, 0, LEN).unwrap();
            c.write(ctx, f.id, 0, &data).unwrap();
            (c.host().clone(), fabric.clone())
        },
    );
    let snap = ran.obs.enabled().then(|| ran.snapshot());
    (
        host.cpu.busy().as_nanos(),
        fabric.kernel_busy(&host).as_nanos(),
        snap,
    )
}

/// Run R-T4.
pub fn run() -> Table {
    let mut t = Table::new(
        "R-T4: client CPU overhead for 64 MiB read + 64 MiB write",
        &[
            ("stack", 0),
            ("user CPU (ms)", 2),
            ("kernel CPU (ms)", 2),
            ("CPU ms / MiB moved", 3),
        ],
    );
    let (d_cpu, d_k, d_snap) = dafs_overhead();
    let (n_cpu, n_k, n_snap) = nfs_overhead();
    let mib_moved = 2 * (LEN >> 20);
    for (name, cpu, kernel) in [("dafs", d_cpu, d_k), ("nfs", n_cpu, n_k)] {
        t.row([
            Cell::text(name),
            Cell::ms(cpu),
            Cell::ms(kernel),
            Cell::Ratio(cpu + kernel, mib_moved, Unit::Ms),
        ]);
    }
    let ratio = (n_cpu + n_k) as f64 / (d_cpu + d_k).max(1) as f64;
    // A first claim as data (ROADMAP item 5): the table's headline, asserted.
    assert!(
        ratio >= RATIO_FLOOR,
        "NFS/DAFS client CPU ratio {ratio:.1}x is below {RATIO_FLOOR}x"
    );
    t.note(&format!(
        "NFS/DAFS client CPU ratio = {ratio:.1}x — direct I/O leaves the client CPU nearly idle"
    ));
    t.note("the NFS write path still pays copies; DAFS's inline write chunks send from the read's registered buffer in place");
    // With MPIO_DAFS_TRACE set, show where each stack's virtual time went.
    if let Some(snap) = d_snap {
        t.push_extra(layer_breakdown(
            "R-T4a: DAFS per-layer time breakdown",
            &snap,
        ));
    }
    if let Some(snap) = n_snap {
        t.push_extra(layer_breakdown(
            "R-T4b: NFS per-layer time breakdown",
            &snap,
        ));
    }
    t
}
