//! Determinism: the discrete-event substrate must produce bit-identical
//! virtual timelines for identical programs — the property every number in
//! EXPERIMENTS.md rests on.

use mpio_dafs::mpiio::{write_at_all, Backend, Datatype, Hints, MpiFile, OpenMode, Testbed};
use mpio_dafs::obs::{Obs, Snapshot};
use mpio_dafs::simnet::units::us;
use mpio_dafs::simnet::FaultPlan;

fn run_once(backend: Backend, ranks: usize) -> (u64, u64, Vec<u8>) {
    let tb = Testbed::new(backend);
    let fs = tb.fs.clone();
    let report = tb.run(ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/det",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let block = 16 << 10;
        let el = Datatype::bytes(block);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * block) as i64)], &el),
            0,
            ranks as u64 * block,
        );
        f.set_view(0, &el, &ft);
        let src = host.mem.alloc(3 * block as usize);
        host.mem
            .fill(src, 3 * block as usize, comm.rank() as u8 + 1);
        write_at_all(ctx, comm, &f, 0, src, 3 * block).unwrap();
        // Some independent traffic too.
        let dst = host.mem.alloc(block as usize);
        f.read_at(ctx, comm.rank() as u64, dst, block).unwrap();
    });
    let attr = fs.resolve("/det").unwrap();
    let bytes = fs.read(attr.id, 0, attr.size).unwrap();
    (
        report.end_time.as_nanos(),
        report.server_cpu.as_nanos(),
        bytes,
    )
}

#[test]
fn dafs_runs_are_bit_identical() {
    let a = run_once(Backend::dafs(), 4);
    let b = run_once(Backend::dafs(), 4);
    assert_eq!(a.0, b.0, "virtual end times differ");
    assert_eq!(a.1, b.1, "server CPU accounting differs");
    assert_eq!(a.2, b.2, "file contents differ");
}

#[test]
fn nfs_runs_are_bit_identical() {
    let a = run_once(Backend::nfs(), 4);
    let b = run_once(Backend::nfs(), 4);
    assert_eq!((a.0, a.1), (b.0, b.1));
    assert_eq!(a.2, b.2);
}

#[test]
fn rank_count_changes_timeline_not_contents_shape() {
    let two = run_once(Backend::dafs(), 2);
    let four = run_once(Backend::dafs(), 4);
    assert_ne!(two.0, four.0, "different jobs, different timelines");
    // Two-rank file covers 2 blocks per round, four-rank 4.
    assert_eq!(two.2.len(), 3 * 2 * (16 << 10));
    assert_eq!(four.2.len(), 3 * 4 * (16 << 10));
}

#[test]
fn backend_swap_changes_time_not_bytes() {
    let dafs = run_once(Backend::dafs(), 3);
    let nfs = run_once(Backend::nfs(), 3);
    assert_ne!(dafs.0, nfs.0);
    assert_eq!(dafs.2, nfs.2, "same program, same bytes, any backend");
}

// --- observability determinism ---------------------------------------------
//
// The observability layer must be as deterministic as the timeline it
// describes: two identical runs must produce byte-identical trace streams
// and equal metrics snapshots, and turning tracing *on* must not move the
// virtual clock.

/// Same program as [`run_once`], but traced into an in-memory buffer.
/// Returns (end ns, trace bytes, snapshot).
fn run_traced(backend: Backend, ranks: usize) -> (u64, Vec<u8>, Snapshot) {
    let (obs, buf) = Obs::buffered();
    let tb = Testbed::with_obs(backend, obs);
    let report = tb.run(ranks, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/det",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let block = 16 << 10;
        let el = Datatype::bytes(block);
        let ft = Datatype::resized(
            &Datatype::hindexed(&[(1, (comm.rank() as u64 * block) as i64)], &el),
            0,
            ranks as u64 * block,
        );
        f.set_view(0, &el, &ft);
        let src = host.mem.alloc(3 * block as usize);
        host.mem
            .fill(src, 3 * block as usize, comm.rank() as u8 + 1);
        write_at_all(ctx, comm, &f, 0, src, 3 * block).unwrap();
        let dst = host.mem.alloc(block as usize);
        f.read_at(ctx, comm.rank() as u64, dst, block).unwrap();
    });
    assert!(report.traced);
    (report.end_time.as_nanos(), buf.contents(), report.snapshot)
}

#[test]
fn traced_runs_emit_byte_identical_streams() {
    let a = run_traced(Backend::dafs(), 4);
    let b = run_traced(Backend::dafs(), 4);
    assert_eq!(a.0, b.0, "virtual end times differ");
    assert_eq!(a.2, b.2, "metrics snapshots differ");
    assert_eq!(a.1, b.1, "trace streams differ");
    // The stream is real: non-empty JSON lines ending in a snapshot record.
    let text = String::from_utf8(a.1).unwrap();
    assert!(text.lines().count() > 10, "suspiciously short trace");
    assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(text
        .lines()
        .last()
        .unwrap()
        .contains("\"type\":\"snapshot\""));
}

#[test]
fn nfs_traced_runs_emit_byte_identical_streams() {
    let a = run_traced(Backend::nfs(), 3);
    let b = run_traced(Backend::nfs(), 3);
    assert_eq!(a.0, b.0);
    assert_eq!(a.2, b.2);
    assert_eq!(a.1, b.1);
}

#[test]
fn tracing_does_not_perturb_the_timeline() {
    let silent = run_once(Backend::dafs(), 4);
    let traced = run_traced(Backend::dafs(), 4);
    assert_eq!(
        silent.0, traced.0,
        "enabling the trace sink moved the virtual clock"
    );
}

// --- fault-injection determinism --------------------------------------------
//
// A fault plan must not cost the simulation its reproducibility: the same
// seed must replay the same fault timeline (identical traces and metrics),
// and a *different* seed must change only the timeline, never the data.

/// Striped write + read-back under seeded loss and jitter, traced into a
/// buffer. Returns (end ns, trace bytes, snapshot, file bytes).
fn run_faulted(seed: u64) -> (u64, Vec<u8>, Snapshot, Vec<u8>) {
    let plan = FaultPlan::builder(seed).loss(0.05).jitter(us(20)).build();
    let (obs, buf) = Obs::buffered();
    let tb = Testbed::with_obs_and_faults(Backend::dafs(), obs, plan);
    let fs = tb.fs.clone();
    let report = tb.run(2, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/fdet",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let block = 128 << 10;
        let src = host.mem.alloc(block);
        host.mem.fill(src, block, comm.rank() as u8 + 1);
        f.write_at(ctx, (comm.rank() * block) as u64, src, block as u64)
            .unwrap();
        comm.barrier(ctx);
        let dst = host.mem.alloc(block);
        assert_eq!(
            f.read_at(ctx, (comm.rank() * block) as u64, dst, block as u64)
                .unwrap(),
            block as u64
        );
    });
    let attr = fs.resolve("/fdet").unwrap();
    let bytes = fs.read(attr.id, 0, attr.size).unwrap();
    (
        report.end_time.as_nanos(),
        buf.contents(),
        report.snapshot,
        bytes,
    )
}

#[test]
fn same_fault_seed_replays_identical_timeline() {
    let a = run_faulted(0xFA17);
    let b = run_faulted(0xFA17);
    assert_eq!(a.0, b.0, "virtual end times differ");
    assert_eq!(a.2, b.2, "metrics snapshots differ");
    assert_eq!(a.1, b.1, "trace streams differ");
    assert_eq!(a.3, b.3, "file contents differ");
    // The plan must actually have fired, or the assertions above are vacuous.
    assert!(
        a.2.get("sim.faults.dropped").unwrap().value() > 0,
        "seed 0xFA17 injected nothing"
    );
}

#[test]
fn different_fault_seed_changes_timeline_not_contents() {
    let a = run_faulted(0xFA17);
    let b = run_faulted(0xFA18);
    assert_ne!(
        a.1, b.1,
        "different seeds should produce different fault timelines"
    );
    assert_eq!(
        a.3, b.3,
        "recovery must converge to identical bytes on any timeline"
    );
}

#[test]
fn metrics_collect_even_when_tracing_is_disabled() {
    let tb = Testbed::new(Backend::dafs());
    let report = tb.run(2, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f =
            MpiFile::open(ctx, adio, &host, "/m", OpenMode::create(), Hints::default()).unwrap();
        let src = host.mem.alloc(4096);
        f.write_at(ctx, (comm.rank() * 4096) as u64, src, 4096)
            .unwrap();
    });
    assert!(!report.traced);
    assert!(report.snapshot.get("dafs.ops").unwrap().value() > 0);
    assert!(report.snapshot.get("via.doorbells").is_some());
}

// --- switched-fabric determinism --------------------------------------------
//
// Threading a routed topology under the transports must not cost the
// simulation its reproducibility: identical seeds replay identical
// timelines through switches, switch outages, and seeded loss — and the
// degenerate one-switch cut-through fabric is *byte-identical in virtual
// time* to the point-to-point wire it replaces.

use mpio_dafs::dafs::{DafsClient, DafsClientConfig, DafsServerCost};
use mpio_dafs::memfs::{MemFs, ROOT_ID};
use mpio_dafs::simnet::topo::{QueuePolicy, SwitchConfig, TopologyBuilder};
use mpio_dafs::simnet::units::ms;
use mpio_dafs::simnet::{Cluster, SimDuration, SimKernel, SimTime};
use mpio_dafs::via::ViaFabric;
use std::sync::Arc;

/// Striped write + verified read-back on a switched testbed, traced into a
/// buffer. Returns (end ns, trace bytes, snapshot, piece-file bytes).
fn run_switched(plan: Option<FaultPlan>) -> (u64, Vec<u8>, Snapshot, Vec<u8>) {
    let (obs, buf) = Obs::buffered();
    let tb = Testbed::switched_with(4, 2, 2, obs, plan);
    let pieces = tb.server_fss.clone();
    let report = tb.run(4, |ctx, comm, adio| {
        let host = comm.host().clone();
        let f = MpiFile::open(
            ctx,
            adio,
            &host,
            "/sdet",
            OpenMode::create(),
            Hints::default(),
        )
        .unwrap();
        let block = 128 << 10;
        let src = host.mem.alloc(block);
        host.mem.fill(src, block, comm.rank() as u8 + 1);
        f.write_at(ctx, (comm.rank() * block) as u64, src, block as u64)
            .unwrap();
        comm.barrier(ctx);
        let dst = host.mem.alloc(block);
        assert_eq!(
            f.read_at(ctx, (comm.rank() * block) as u64, dst, block as u64)
                .unwrap(),
            block as u64
        );
    });
    let mut bytes = Vec::new();
    for fs in &pieces {
        if let Ok(attr) = fs.resolve("/sdet") {
            bytes.extend(fs.read(attr.id, 0, attr.size).unwrap());
        }
    }
    assert!(!bytes.is_empty(), "striped write left no piece files");
    (
        report.end_time.as_nanos(),
        buf.contents(),
        report.snapshot,
        bytes,
    )
}

#[test]
fn switched_runs_are_byte_identical() {
    let a = run_switched(None);
    let b = run_switched(None);
    assert_eq!(a.0, b.0, "virtual end times differ through the switch");
    assert_eq!(a.2, b.2, "metrics snapshots differ through the switch");
    assert_eq!(a.1, b.1, "trace streams differ through the switch");
    assert_eq!(a.3, b.3, "piece files differ through the switch");
    // The fabric actually carried the job.
    assert!(a.2.get("fabric.frames").unwrap().value() > 0);
}

#[test]
fn switch_outage_replays_bit_identically() {
    // Crash the server leaf's pseudo-host for a mid-run window shorter than
    // a session's redial budget; sessions break and redial through it.
    // Pseudo-host ids are part of the deterministic host layout, so
    // discover them on a probe testbed and reuse them in the real plans.
    let probe = Testbed::switched_with(4, 2, 2, Obs::buffered().0, None);
    let leaf_srv = probe.topology().unwrap().switch_host(0);
    let plan = || {
        FaultPlan::builder(0xFA11_0B37)
            .host_crash(leaf_srv, SimTime::ZERO + ms(1), SimTime::ZERO + ms(40))
            .build()
    };
    let a = run_switched(Some(plan()));
    let b = run_switched(Some(plan()));
    assert_eq!(a.0, b.0, "virtual end times differ under an outage");
    assert_eq!(a.2, b.2, "metrics snapshots differ under an outage");
    assert_eq!(a.1, b.1, "trace streams differ under an outage");
    assert_eq!(a.3, b.3, "piece files differ under an outage");
    assert!(
        a.2.get("fabric.drops").unwrap().value() > 0,
        "the outage dropped nothing — the test is vacuous"
    );
}

#[test]
fn seeded_loss_through_a_switch_replays_bit_identically() {
    let plan = |seed| FaultPlan::builder(seed).loss(0.03).jitter(us(10)).build();
    let a = run_switched(Some(plan(0xFA17_5111)));
    let b = run_switched(Some(plan(0xFA17_5111)));
    assert_eq!((a.0, &a.2, &a.1, &a.3), (b.0, &b.2, &b.1, &b.3));
    assert!(
        a.2.get("sim.faults.dropped").unwrap().value() > 0,
        "seed injected nothing"
    );
    let c = run_switched(Some(plan(0xFA17_5112)));
    assert_ne!(a.1, c.1, "different seeds should change the fault timeline");
    assert_eq!(a.3, c.3, "recovery must converge to identical bytes");
}

/// Three clients incast-writing to one DAFS server, then reading back.
/// `switched` threads a single cut-through switch whose egress ports run
/// at the wire rate and whose hop latencies sum to the wire latency — the
/// degenerate topology the point-to-point testbeds collapse to.
fn incast_end_ns(switched: bool) -> u64 {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = Arc::new(ViaFabric::new(mpio_dafs::via::ViaCost::default()));
    let cost = *fabric.cost();
    let server_host = cluster.add_host("server0");
    if switched {
        let mut b = TopologyBuilder::new(&cluster);
        let sw = b.switch(
            "sw0",
            SwitchConfig {
                port_bw: cost.wire_bw,
                queue_capacity: 0,
                policy: QueuePolicy::Backpressure,
            },
        );
        b.attach(server_host.id, sw, cost.wire_latency);
        b.attach_default(sw, SimDuration::ZERO);
        fabric.set_topology(Arc::new(b.build()));
    }
    let nic = fabric.open_nic(server_host);
    let fs = MemFs::new();
    let _srv = mpio_dafs::dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        nic,
        fs,
        2049,
        DafsServerCost::default(),
    );
    for i in 0..3usize {
        let fabric = fabric.clone();
        let host = cluster.add_host(&format!("client{i}"));
        kernel.spawn(&format!("client{i}"), move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                mpio_dafs::simnet::HostId(0),
                2049,
                DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.create(ctx, ROOT_ID, &format!("f{i}")).unwrap();
            let len = 256usize << 10;
            let buf = nic.host().mem.alloc(len);
            host.mem.fill(buf, len, i as u8 + 1);
            let mut off = 0;
            while off < len as u64 {
                c.write(ctx, f.id, off, buf, 64 << 10).unwrap();
                off += 64 << 10;
            }
            let mut off = 0;
            while off < len as u64 {
                assert_eq!(c.read(ctx, f.id, off, buf, 64 << 10).unwrap(), 64 << 10);
                off += 64 << 10;
            }
            c.disconnect(ctx);
        });
    }
    kernel.run().as_nanos()
}

// --- payload aliasing --------------------------------------------------------
//
// The zero-copy payload path shares refcounted `Bytes` views of server
// pages and pooled wire frames instead of copying at every layer. The
// property that makes that safe: a buffer, once published (handed to a
// descriptor, stashed in a reply cache, delivered to a consumer), must
// never change — no matter what the file or the pool does afterwards.

use mpio_dafs::simnet::buf;

/// Deterministic xorshift so the property test needs no rand crate.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn published_file_views_survive_later_writes() {
    // memfs hands out refcounted views of its page data; a later write to
    // the same file must copy-on-write, never mutate the published view.
    let fs = MemFs::new();
    let attr = fs.create(ROOT_ID, "cow").unwrap();
    let size = 64usize << 10;
    let base: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    fs.write(attr.id, 0, &base).unwrap();

    let mut rng = Rng(0x0B0F_5EED);
    let mut published: Vec<(u64, Vec<u8>, buf::Bytes)> = Vec::new();
    for _ in 0..100 {
        let off = rng.next() % (size as u64 - 1);
        let len = 1 + rng.next() % (size as u64 - off);
        let view = fs.read_bytes(attr.id, off, len).unwrap();
        let expect = fs.read(attr.id, off, len).unwrap();
        assert_eq!(view, expect, "view disagrees with copying read");
        published.push((off, expect, view));
        // Overwrite a random overlapping range with fresh bytes.
        let woff = rng.next() % (size as u64);
        let wlen = (1 + rng.next() % 4096).min(size as u64 - woff) as usize;
        let fill = vec![(rng.next() % 256) as u8; wlen];
        fs.write(attr.id, woff, &fill).unwrap();
        // Every previously published view still reads its original bytes.
        for (o, snap, v) in &published {
            assert_eq!(
                v, snap,
                "write at {woff} mutated a view published at offset {o}"
            );
        }
    }
}

#[test]
fn frozen_pool_frames_survive_pool_reuse() {
    // Wire frames come from a recycling pool; freezing one must pin its
    // storage until the last reference drops, no matter how much the pool
    // churns afterwards.
    let mut kept = Vec::new();
    for round in 0..8u8 {
        let len = 1024 + 512 * round as usize;
        let mut frame = buf::frame_pool().alloc(len);
        frame.resize(len, round + 1);
        kept.push((round, len, frame.freeze()));
        // Churn the pool hard with junk of assorted sizes.
        for i in 0..32usize {
            let mut junk = buf::frame_pool().alloc(256 + i * 64);
            junk.resize(256 + i * 64, 0xEE);
            drop(junk.freeze());
        }
        for (r, l, b) in &kept {
            assert_eq!(b.len(), *l);
            assert!(
                b.iter().all(|&x| x == r + 1),
                "pool churn clobbered a frozen frame from round {r}"
            );
        }
    }
}

#[test]
fn subslices_alias_their_parent_without_copying() {
    // slice() must be a view (same backing storage), and equal views must
    // stay independent of the parent's lifetime.
    let parent = buf::Bytes::from_vec((0u16..2048).map(|i| (i % 256) as u8).collect());
    let mid = parent.slice(512..1536);
    assert_eq!(mid.len(), 1024);
    // Zero-cost: the sub-view points into the parent's storage.
    let p = parent.as_slice().as_ptr() as usize;
    let m = mid.as_slice().as_ptr() as usize;
    assert_eq!(m - p, 512, "slice() copied instead of aliasing");
    let of_mid = mid.slice(100..200);
    drop(parent);
    drop(mid);
    // Still valid and correct after every other handle is gone.
    assert_eq!(
        of_mid.as_slice(),
        &(0u16..2048).map(|i| (i % 256) as u8).collect::<Vec<_>>()[612..712]
    );
}

#[test]
fn delivered_read_is_immune_to_concurrent_overwrite() {
    // End to end through the zero-copy read path: a client reads a region
    // while another client overwrites it. Each read request snapshots one
    // refcounted server page view, so the delivered bytes must be all-old
    // or all-new — never a torn mix of the two — even though the server
    // never copies the page into a staging buffer anymore.
    use std::sync::Mutex;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = Arc::new(ViaFabric::new(mpio_dafs::via::ViaCost::default()));
    let server_host = cluster.add_host("server0");
    let nic = fabric.open_nic(server_host);
    let fs = MemFs::new();
    let len = 64usize << 10; // single direct/RDMA read per request
    {
        let attr = fs.create(ROOT_ID, "shared").unwrap();
        fs.write(attr.id, 0, &vec![0xAAu8; len]).unwrap();
    }
    let _srv = mpio_dafs::dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        nic,
        fs.clone(),
        2049,
        DafsServerCost::default(),
    );
    let got = Arc::new(Mutex::new(Vec::new()));
    {
        let (fabric, got) = (fabric.clone(), got.clone());
        let host = cluster.add_host("reader");
        kernel.spawn("reader", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                mpio_dafs::simnet::HostId(0),
                2049,
                DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
            let buf = host.mem.alloc(len);
            assert_eq!(c.read(ctx, f.id, 0, buf, len as u64).unwrap(), len as u64);
            *got.lock().unwrap() = host.mem.read_vec(buf, len);
            c.disconnect(ctx);
        });
    }
    {
        let fabric = fabric.clone();
        let host = cluster.add_host("writer");
        kernel.spawn("writer", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = DafsClient::connect(
                ctx,
                &fabric,
                &nic,
                mpio_dafs::simnet::HostId(0),
                2049,
                DafsClientConfig::default(),
            )
            .unwrap();
            let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
            let buf = host.mem.alloc(len);
            host.mem.fill(buf, len, 0xBB);
            c.write(ctx, f.id, 0, buf, len as u64).unwrap();
            c.disconnect(ctx);
        });
    }
    kernel.run();
    let got = got.lock().unwrap();
    assert_eq!(got.len(), len);
    assert!(
        got.iter().all(|&b| b == 0xAA) || got.iter().all(|&b| b == 0xBB),
        "torn read: delivered frame mixed old and new bytes"
    );
    let attr = fs.resolve("/shared").unwrap();
    assert!(fs
        .read(attr.id, 0, attr.size)
        .unwrap()
        .iter()
        .all(|&b| b == 0xBB));
}

/// The snapshot-at-post rule on the write side: the bytes a write carries
/// are the ones in the buffer while `write_at` runs. Rank 0 writes a
/// pattern and scribbles over its buffer the instant the call returns — the
/// request frame and the server's parked views of it are refcounted slabs
/// by then, and none of them may be a view of the *buffer*. Rank 1, on a session of its own, must read the
/// pattern, and so must the server's file image afterwards.
fn scribble_after_write(backend: Backend, hints: &[(&str, &str)], len: usize, strided: bool) {
    let dafs = backend.kind() == mpio_dafs::mpiio::DriverKind::Dafs;
    let tb = Testbed::new(backend);
    let fs = tb.fs.clone();
    let pairs: Vec<(String, String)> = hints
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let pattern: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
    let want = pattern.clone();
    let report = tb.run(2, move |ctx, comm, adio| {
        let host = comm.host().clone();
        let hints = Hints::from_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let f = MpiFile::open(ctx, adio, &host, "/alias", OpenMode::create(), hints).unwrap();
        if strided {
            // 1 KiB blocks a 1 KiB gap apart: the write leaves as a list.
            let block = Datatype::bytes(1024);
            f.set_view(0, &block, &Datatype::resized(&block, 0, 2048));
        }
        let buf = host.mem.alloc(len);
        if comm.rank() == 0 {
            host.mem.write(buf, &pattern);
            assert_eq!(f.write_at(ctx, 0, buf, len as u64), Ok(len as u64));
            host.mem.fill(buf, len, 0xEE);
            f.sync(ctx).unwrap();
        }
        comm.barrier(ctx);
        if comm.rank() == 1 {
            assert_eq!(f.read_at(ctx, 0, buf, len as u64), Ok(len as u64));
            assert!(
                host.mem.read_vec(buf, len) == pattern,
                "a second session read bytes the writer scribbled after its write returned"
            );
        }
        f.close(ctx, adio).unwrap();
    });
    if dafs {
        // The write did travel the path the case is named for.
        let snap = &report.snapshot;
        // Inline bytes either way; a direction that moved none has no series.
        let inline: u64 = ["read", "write"]
            .iter()
            .filter_map(|dir| snap.get(&format!("dafs.inline.{dir}.bytes")))
            .map(|e| e.value())
            .sum();
        assert!(inline >= len as u64);
        assert_eq!(snap.expect("dafs.list.reqs").value() > 0, strided);
    }
    let attr = fs.resolve("/alias").unwrap();
    let image = fs.read(attr.id, 0, attr.size).unwrap();
    let stored: Vec<u8> = if strided {
        image
            .chunks(2048)
            .flat_map(|c| &c[..1024.min(c.len())])
            .copied()
            .collect()
    } else {
        image
    };
    assert!(stored == want, "the file holds the scribble");
}

#[test]
fn buffer_overwritten_after_write_returns_does_not_reach_the_file() {
    // One inline message, the synchronous call path.
    scribble_after_write(Backend::dafs(), &[], 32 << 10, false);
    // Four inline chunks pipelined as a batch (the cLAN has no RDMA Read).
    scribble_after_write(Backend::dafs(), &[], 128 << 10, false);
    // Noncontiguous in the file, shipped as inline WriteList requests.
    let list = [("romio_ds_write", "disable"), ("dafs_listio", "enable")];
    scribble_after_write(Backend::dafs(), &list, 64 << 10, true);
    scribble_after_write(Backend::nfs(), &[], 128 << 10, false);
}

#[test]
fn descriptor_holding_page_views_delivers_the_bytes_it_was_built_with() {
    // The converse: a reply built from views of file pages (what the server
    // hands an RDMA write) is immune to the file changing under it. Build
    // the descriptor, overwrite every page it views, then post it: the
    // client's buffer gets the old bytes.
    use mpio_dafs::simnet::{Port, VirtAddr};
    use mpio_dafs::via::{
        DataSegment, MemAttributes, MemHandle, RemoteSegment, SendDesc, ViAttributes, ViaCost,
    };
    const LEN: usize = 96 << 10;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = ViaFabric::new(ViaCost::default());
    let snic = fabric.open_nic(cluster.add_host("server"));
    let cnic = fabric.open_nic(cluster.add_host("client"));
    let sid = snic.host().id;
    let fs = MemFs::new();
    let f = fs.create(ROOT_ID, "paged").unwrap();
    fs.write(f.id, 0, &vec![0xAAu8; LEN]).unwrap();
    // Client to server: where to write. Server to client: written.
    let target: Port<(VirtAddr, MemHandle)> = Port::new("target");
    let done: Port<()> = Port::new("done");
    {
        let (fabric, fs) = (fabric.clone(), fs.clone());
        let (target, done) = (target.clone(), done.clone());
        kernel.spawn_daemon("server", move |ctx| {
            let vi = fabric
                .listen(&snic, 9)
                .accept(ctx, ViAttributes::default())
                .unwrap();
            let stage = snic.host().mem.alloc(LEN);
            let sh = snic.register_mem(ctx, stage, LEN as u64, MemAttributes::local(vi.ptag()));
            let (addr, handle) = target.recv(ctx).unwrap();
            let views = fs.read_views(f.id, 0, LEN as u64).unwrap();
            assert!(views.iter().count() >= 3, "the read spans pages");
            let desc = SendDesc::rdma_write(
                vec![DataSegment::new(stage, LEN as u32, sh)],
                RemoteSegment { addr, handle },
            )
            .with_payload(views);
            fs.write(f.id, 0, &vec![0xBBu8; LEN]).unwrap();
            vi.post_send(ctx, desc);
            let c = vi.send_wait(ctx);
            assert!(c.status.is_ok());
            done.send(ctx, (), c.at);
        });
    }
    kernel.spawn("client", move |ctx| {
        let vi = fabric
            .connect(ctx, &cnic, sid, 9, ViAttributes::default())
            .unwrap();
        let buf = cnic.host().mem.alloc(LEN);
        let attrs = MemAttributes::rdma_write_target(vi.ptag());
        let h = cnic.register_mem(ctx, buf, LEN as u64, attrs);
        target.send(ctx, (buf, h), ctx.now());
        done.recv(ctx).unwrap();
        let got = cnic.host().mem.read_vec(buf, LEN);
        assert!(got.iter().all(|&b| b == 0xAA), "delivered the overwrite");
    });
    kernel.run();
    assert!(fs
        .read(f.id, 0, LEN as u64)
        .unwrap()
        .iter()
        .all(|&b| b == 0xBB));
}

#[test]
fn one_switch_cut_through_is_byte_identical_to_the_wire() {
    // The structural claim the whole integration rests on: existing
    // point-to-point testbeds are the degenerate one-switch case, exactly
    // — same virtual end time, even under 3-way incast contention.
    assert_eq!(
        incast_end_ns(false),
        incast_end_ns(true),
        "degenerate switch perturbed the timeline"
    );
}
