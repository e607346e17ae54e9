//! R-F8 — Server scaling: aggregate striped-file bandwidth vs server count
//! (new scenario).
//!
//! Not in the paper: the original testbed had a single DAFS server. This
//! experiment stripes each client's file round-robin over 1, 2, or 4
//! servers ([`DafsStripedFile`], 64 KiB stripes) and measures aggregate
//! sequential bandwidth at a fixed client count. Expected shape: with one
//! server the server NIC is the bottleneck (the R-F6 plateau); adding
//! servers adds wire, so aggregate bandwidth climbs until the client-side
//! links saturate — near-linear from 1 to 2 to 4.
//!
//! Two built-in cross-checks keep the striping layer honest:
//!
//! - the single-client single-server control row runs the exact R-F2 512 KiB
//!   workload both through the raw [`dafs::DafsClient`] and through a
//!   1-server [`DafsStripedFile`]; the striped driver must collapse to the
//!   identity and produce **bit-identical virtual times**;
//! - a degraded row re-runs the 4-server sweep with seeded packet loss on
//!   one server's links, exercising reconnect/replay under striping; every
//!   cell in every row verifies byte-exact read-back.

use dafs::{DafsClientConfig, DafsStripedFile};
use memfs::ROOT_ID;
use simnet::{FaultPlan, HostId};
use via::ViaCost;

use crate::f2_file_bandwidth::{self, FILE};
use crate::report::{mb_per_s, Cell, Table};
use crate::testbeds::{timed, with_dafs_cluster, Dial};

/// Bytes written (then read back) by each client.
const PER_CLIENT: u64 = 4 << 20;
/// Request size: the top of the R-F2 sweep, well past the direct threshold.
const REQ: u64 = 512 << 10;
/// Stripe size (the `DafsAdio` default).
const STRIPE: u64 = 64 << 10;
/// Fixed client count for the server sweep.
const CLIENTS: usize = 4;
/// Loss probability on the degraded server's links.
const DEGRADED_LOSS: f64 = 0.01;

/// Default fault seed for the degraded row; override with `--fault-seed`
/// on the binary. The same seed reproduces the same table exactly.
pub const DEFAULT_SEED: u64 = 0xDAF5_0008;

fn pattern(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 11 + rank * 3 + 7) as u8).collect()
}

/// Aggregate (write MB/s, read MB/s) for `clients` clients each striping
/// `per_client` bytes over `servers` servers. Every read is verified
/// byte-exact against what the writer put down.
fn striped_case(
    servers: usize,
    clients: usize,
    per_client: u64,
    plan: Option<FaultPlan>,
) -> (Cell, Cell, u64) {
    let (spans, ran, ..) = with_dafs_cluster(
        servers,
        clients,
        ViaCost::default(),
        DafsClientConfig::default(),
        plan,
        None,
        Dial::EveryServer,
        |_| {},
        move |ctx, rank, cs, nic| {
            // Each client stripes its own file over every server: one piece
            // file per server, same name everywhere.
            let name = format!("f{rank}");
            let fhs: Vec<_> = cs
                .iter()
                .map(|c| c.create(ctx, ROOT_ID, &name).unwrap().id)
                .collect();
            let file = DafsStripedFile::new(cs.to_vec(), fhs, STRIPE);
            let data = pattern(rank, REQ as usize);
            let buf = nic.host().mem.alloc(REQ as usize);
            nic.host().mem.write(buf, &data);
            let w = timed(ctx, || {
                for off in (0..per_client).step_by(REQ as usize) {
                    file.write(ctx, off, buf, REQ).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..per_client).step_by(REQ as usize) {
                    let n = file.read(ctx, off, buf, REQ).unwrap();
                    assert_eq!(n, REQ, "short striped read at {off}");
                    assert_eq!(
                        nic.host().mem.read_vec(buf, REQ as usize),
                        data,
                        "corrupt striped read-back at {off} ({servers} servers)"
                    );
                }
            });
            (w, r)
        },
    );
    let total = clients as u64 * per_client;
    let reconnects = ran.snapshot().expect("dafs.reconnects").value();
    let w = spans.iter().map(|s| s.0).max().unwrap();
    let r = spans.iter().map(|s| s.1).max().unwrap();
    (Cell::mbps(total, w), Cell::mbps(total, r), reconnects)
}

/// The R-F2 512 KiB workload ([`f2_file_bandwidth::dafs_rw_ns`]) through
/// a 1-server [`DafsStripedFile`]. A single server means every request is
/// one identity piece, so the striped driver must delegate straight to the
/// raw client — same ops, same virtual times.
fn striped_control_ns() -> (u64, u64) {
    let (spans, ..) = with_dafs_cluster(
        1,
        1,
        ViaCost::default(),
        DafsClientConfig::default(),
        None,
        None,
        Dial::EveryServer,
        |fss| {
            let f = fss[0].create(ROOT_ID, "f").unwrap();
            fss[0].write(f.id, 0, &vec![3u8; FILE as usize]).unwrap();
        },
        move |ctx, _rank, cs, nic| {
            let f = cs[0].lookup(ctx, ROOT_ID, "f").unwrap();
            let file = DafsStripedFile::new(cs.to_vec(), vec![f.id], STRIPE);
            let buf = nic.host().mem.alloc(REQ as usize);
            let w = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    file.write(ctx, off, buf, REQ).unwrap();
                }
            });
            let r = timed(ctx, || {
                for off in (0..FILE).step_by(REQ as usize) {
                    file.read(ctx, off, buf, REQ).unwrap();
                }
            });
            (w, r)
        },
    );
    spans[0]
}

/// A plan that degrades exactly one server: seeded loss on the links
/// between server `victim` and every client. Host ids follow the
/// [`with_dafs_cluster`] layout (servers first, then clients).
fn degraded_plan(seed: u64, servers: usize, clients: usize, victim: usize) -> FaultPlan {
    let mut b = FaultPlan::builder(seed);
    for c in 0..clients {
        b = b.link_loss(HostId(victim), HostId(servers + c), DEGRADED_LOSS);
    }
    b.build()
}

/// Run R-F8 with an explicit per-client size and fault seed.
pub fn run_sized(per_client: u64, seed: u64) -> Table {
    let mut t = Table::new(
        &format!(
            "R-F8: server scaling — aggregate striped bandwidth, {CLIENTS} clients (MB/s; seed {seed:#x})"
        ),
        &[("servers", 0), ("agg rd", 1), ("agg wr", 1)],
    );
    let mut prev = (0.0f64, 0.0f64);
    for servers in [1usize, 2, 4] {
        let (w, r, reconnects) = striped_case(servers, CLIENTS, per_client, None);
        assert_eq!(reconnects, 0, "fault-free rows must not reconnect");
        let (wv, rv) = (w.value(), r.value());
        assert!(
            wv > prev.0 && rv > prev.1,
            "aggregate bandwidth must climb with servers: {servers} servers gave {wv:.1}/{rv:.1} after {:.1}/{:.1}",
            prev.0,
            prev.1
        );
        prev = (wv, rv);
        t.row([Cell::Int(servers as u64), r, w]);
    }
    let (dw, dr, reconnects) = striped_case(
        4,
        CLIENTS,
        per_client,
        Some(degraded_plan(seed, 4, CLIENTS, 0)),
    );
    let degraded = format!("4 (one degraded, {:.0}% loss)", DEGRADED_LOSS * 100.0);
    t.row([Cell::text(degraded), dr, dw]);
    t.note(&format!(
        "degraded row survived {reconnects} session reconnect(s) with byte-exact read-back"
    ));
    // Identity control: the 1-server striped path must cost exactly what
    // the raw client costs on the R-F2 512K workload.
    let (raw_w, raw_r) = f2_file_bandwidth::dafs_rw_ns(REQ, false);
    let (str_w, str_r) = striped_control_ns();
    assert_eq!(
        (raw_w, raw_r),
        (str_w, str_r),
        "1-server striped path must be bit-identical to the raw client"
    );
    t.note(&format!(
        "1-server striped control is bit-identical to the raw R-F2 512K client: {:.1} rd / {:.1} wr MB/s",
        mb_per_s(FILE, raw_r),
        mb_per_s(FILE, raw_w),
    ));
    t.note("expect near-linear scaling 1→2→4: each server adds wire; asserted monotone");
    t
}

/// Run R-F8 with the default sizes and seed.
pub fn run() -> Table {
    run_sized(PER_CLIENT, DEFAULT_SEED)
}
