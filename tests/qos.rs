//! QoS scheduler suite: weighted-fair sharing properties, full-stack
//! two-tenant progress, crash-of-a-throttled-tenant chaos, and the DAFS
//! server's answers to malformed frames (a Hello without a client id, a
//! truncated request, an unknown opcode, a direct request naming a bad
//! buffer).
//!
//! Everything runs in virtual time on seeded inputs, so every assertion
//! here is exactly reproducible.

use mpio_dafs::dafs::sched::{QueuedReq, WfqSched};
use mpio_dafs::dafs::{self, SchedPolicy};
use mpio_dafs::memfs::ROOT_ID;
use mpio_dafs::simnet::units::*;
use mpio_dafs::simnet::{Bytes, Cluster, HostId, Rng64, SimKernel, SimTime};
use mpio_dafs::via::{self, DataSegment, MemAttributes, RecvDesc, SendDesc, ViAttributes, ViId};

const PORT: u16 = 2049;

/// DRR shares must track declared weights for randomized tenant mixes —
/// and no tenant may starve — while every queue stays backlogged.
#[test]
fn wfq_shares_track_weights_under_random_mixes() {
    for seed in [1u64, 7, 42, 0xDEAD, 0xBEEF, 0x5EED_0009] {
        let kernel = SimKernel::new();
        kernel.spawn("sched", move |ctx| {
            let mut rng = Rng64::new(seed);
            let tenants = rng.range_usize(2, 5); // 2..=4
            let weights: Vec<u32> = (0..tenants).map(|_| rng.range(1, 9) as u32).collect();
            let mut s = WfqSched::new(HostId(0));
            let mut offered = vec![0u64; tenants];
            for t in 0..tenants {
                for _ in 0..300 {
                    let cost = rng.range(4 << 10, 64 << 10);
                    offered[t] += cost;
                    s.push(
                        ctx,
                        QueuedReq {
                            vi: ViId(t as u64),
                            tenant: t as u64,
                            weight: weights[t],
                            cost,
                            small: false,
                            arrival: ctx.now(),
                            frame: Bytes::from_vec(Vec::new()),
                        },
                    );
                }
            }
            // Drain a quarter of the offered bytes: every tenant stays
            // backlogged for the whole window (the heaviest possible
            // weight share of the drain is below any tenant's backlog),
            // so observed shares are pure scheduling policy.
            let total: u64 = offered.iter().sum();
            let mut served = vec![0u64; tenants];
            let mut drained = 0u64;
            while drained < total / 4 {
                let q = s.pop(ctx).expect("all tenants backlogged");
                served[q.tenant as usize] += q.cost;
                drained += q.cost;
            }
            let wsum: u64 = weights.iter().map(|&w| u64::from(w)).sum();
            for t in 0..tenants {
                let share = served[t] as f64 / drained as f64;
                let want = f64::from(weights[t]) / wsum as f64;
                assert!(
                    (share - want).abs() < 0.08,
                    "seed {seed:#x}: tenant {t} (weight {}) got share {share:.3}, want {want:.3}",
                    weights[t]
                );
                assert!(
                    share > want * 0.5,
                    "seed {seed:#x}: tenant {t} starved ({share:.3} vs {want:.3})"
                );
            }
        });
        kernel.run();
    }
}

/// Full stack, two declared tenants on one WFQ server: both make progress
/// and the per-tenant scheduler telemetry appears in the registry.
#[test]
fn two_tenant_full_stack_progress() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let bulk = fs.create(ROOT_ID, "bulk").unwrap();
    fs.write(bulk.id, 0, &vec![3u8; 1 << 20]).unwrap();
    fs.create(ROOT_ID, "meta").unwrap();
    let _server = dafs::spawn_dafs_server_sched(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
        SchedPolicy::Wfq,
    );
    for (name, tenant, weight) in [("small", 1u64, 8u32), ("stream", 2, 1)] {
        let fabric = fabric.clone();
        let host = cluster.add_host(name);
        kernel.spawn(name, move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let cfg = dafs::DafsClientConfig {
                tenant: Some((tenant, weight)),
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, PORT, cfg).unwrap();
            if tenant == 1 {
                let f = c.lookup(ctx, ROOT_ID, "meta").unwrap();
                for _ in 0..50 {
                    c.getattr(ctx, f.id).unwrap();
                }
            } else {
                let f = c.lookup(ctx, ROOT_ID, "bulk").unwrap();
                let dst = nic.host().mem.alloc(1 << 20);
                for _ in 0..4 {
                    assert_eq!(c.read(ctx, f.id, 0, dst, 1 << 20).unwrap(), 1 << 20);
                }
            }
            c.disconnect(ctx);
        });
    }
    let obs = kernel.obs().clone();
    let end = kernel.run();
    assert!(
        end.as_nanos() < ms(500).as_nanos(),
        "two-tenant run wedged: {} ns",
        end.as_nanos()
    );
    let snap = obs.snapshot(end.as_nanos());
    // Both tenants flowed through the scheduler: each has its queue-delay
    // series on the server.
    let tenants: Vec<_> = snap
        .series("dafs.sched.queued_ns")
        .map(|e| e.labels)
        .collect();
    assert_eq!(
        tenants,
        [1, 2].map(|t| dafs::sched::tenant_labels(sid, t)),
        "one queue-delay series per tenant"
    );
}

/// Chaos ladder: a weight-1 (credit-throttled) streaming tenant holds a
/// cache lease and a queue backlog, then its host goes dark mid-stream.
/// The other tenant's conflicting writes — parked behind the recall of the
/// dead holder's lease — must replay and complete once the server reaps
/// the session; nothing wedges.
#[test]
fn throttled_tenant_crash_mid_queue_releases_parked_frames() {
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let shared = fs.create(ROOT_ID, "shared").unwrap();
    fs.write(shared.id, 0, &vec![1u8; 8 << 10]).unwrap();
    let bulk = fs.create(ROOT_ID, "bulk").unwrap();
    fs.write(bulk.id, 0, &vec![2u8; 1 << 20]).unwrap();
    let _server = dafs::spawn_dafs_server_sched(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
        SchedPolicy::Wfq,
    );
    let holder_host = cluster.add_host("holder");
    let writer_host = cluster.add_host("writer");
    let plan = mpio_dafs::simnet::FaultPlan::builder(0x0C_0A05)
        .host_crash(
            holder_host.id,
            SimTime::ZERO + ms(10),
            SimTime::ZERO + ms(10_000),
        )
        .build();
    fabric.set_fault_plan(plan);
    {
        // Throttled streaming tenant: grabs a read lease on "shared",
        // then keeps bulk reads queued until the crash kills the session.
        let fabric = fabric.clone();
        kernel.spawn("holder", move |ctx| {
            let nic = fabric.open_nic(holder_host.clone());
            let cfg = dafs::DafsClientConfig {
                tenant: Some((2, 1)),
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, PORT, cfg).unwrap();
            let sh = c.lookup(ctx, ROOT_ID, "shared").unwrap();
            let dst = nic.host().mem.alloc(1 << 20);
            c.cache_file(sh.id);
            c.read(ctx, sh.id, 0, dst, 4 << 10).unwrap();
            let b = c.lookup(ctx, ROOT_ID, "bulk").unwrap();
            // Stream until the crash surfaces as an error (the client
            // burns its bounded reconnect budget first — that must not
            // wedge either).
            while c.read(ctx, b.id, 0, dst, 1 << 20).is_ok() {}
        });
    }
    {
        // High-weight small tenant: conflicting writes to the leased file.
        let fabric = fabric.clone();
        kernel.spawn("writer", move |ctx| {
            ctx.advance(ms(20)); // strictly after the holder is dark
            let nic = fabric.open_nic(writer_host.clone());
            let cfg = dafs::DafsClientConfig {
                tenant: Some((1, 8)),
                ..Default::default()
            };
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, PORT, cfg).unwrap();
            let f = c.lookup(ctx, ROOT_ID, "shared").unwrap();
            let src = nic.host().mem.alloc(4 << 10);
            nic.host().mem.fill(src, 4 << 10, 0x7E);
            for i in 0..4u64 {
                c.write(ctx, f.id, i * (4 << 10), src, 4 << 10).unwrap();
            }
            assert!(
                ctx.now().as_nanos() < ms(2_000).as_nanos(),
                "writes behind a dead holder's recall wedged: {} ns",
                ctx.now().as_nanos()
            );
            c.disconnect(ctx);
        });
    }
    kernel.run();
    let attr = fs.resolve("/shared").unwrap();
    let data = fs.read(attr.id, 0, 16 << 10).unwrap();
    assert!(
        data.iter().all(|&b| b == 0x7E),
        "parked writes did not all replay after the holder was reaped"
    );
}

/// A Hello names the client's replay identity, so one without a client id
/// is a protocol error: one `Inval` reply, binding nothing. The session
/// lives on: a real Hello on it is answered, and a `WriteInline` after
/// that applies.
#[test]
fn a_hello_without_a_client_id_is_refused() {
    const INVAL: u8 = 7;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "a").unwrap().id;
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    {
        let fabric = fabric.clone();
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let vi = fabric
                .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let mem = &nic.host().mem;
            let (sbuf, rbuf) = (mem.alloc(1 << 10), mem.alloc(1 << 10));
            let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
            let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
            // One request, one reply: its reqid echoed and its status byte.
            let call = |reqid: u32, op: u8, body: &[u8]| -> u8 {
                let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                mem.write(sbuf, &frame);
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                );
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                );
                vi.send_wait(ctx);
                let resp = vi.recv_wait(ctx);
                assert!(resp.status.is_ok(), "op {op}: transport error");
                let reply = resp.payload.expect("reply frame");
                assert_eq!(reply[..4], reqid.to_le_bytes(), "op {op}: another reply");
                reply[4]
            };
            // Hello (op 18) with an empty body: header only.
            assert_eq!(call(1, 18, &[]), INVAL, "a Hello without a client id");
            assert_eq!(call(2, 18, &7u64.to_le_bytes()), 0, "a real Hello after it");
            // WriteInline (op 11): fh u64 | off u64 | len-prefixed data.
            let body = [
                &f.0.to_le_bytes()[..],
                &0u64.to_le_bytes(),
                &128u32.to_le_bytes(),
                &[0xAA; 128],
            ]
            .concat();
            assert_eq!(call(3, 11, &body), 0, "WriteInline");
            vi.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(fs.read(f, 0, 1 << 10).unwrap(), vec![0xAA; 128]);
    assert_eq!(server.stats.ops.get(), 3, "a frame went unserved");
}

/// A request on a VI no Hello has bound has no replay identity, so the
/// server cannot make it exactly-once: it is refused with one `Inval` reply,
/// applies nothing and caches nothing. A client posts its request right
/// behind a redial's Hello; were that Hello refused, this is what keeps a
/// re-posted write from running a second time. A real Hello then binds the
/// VI, and the same write — under the same id, so nothing was cached for it
/// — applies.
#[test]
fn a_request_before_any_hello_is_refused() {
    const INVAL: u8 = 7;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "a").unwrap().id;
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    {
        let (fabric, fs) = (fabric.clone(), fs.clone());
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let vi = fabric
                .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let mem = &nic.host().mem;
            let (sbuf, rbuf) = (mem.alloc(1 << 10), mem.alloc(1 << 10));
            let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
            let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
            let call = |reqid: u32, op: u8, body: &[u8]| -> u8 {
                let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                mem.write(sbuf, &frame);
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                );
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                );
                vi.send_wait(ctx);
                let resp = vi.recv_wait(ctx);
                assert!(resp.status.is_ok(), "op {op}: transport error");
                let reply = resp.payload.expect("reply frame");
                assert_eq!(reply[..4], reqid.to_le_bytes(), "op {op}: another reply");
                reply[4]
            };
            // WriteInline (op 11): fh u64 | off u64 | len-prefixed data.
            let body = [
                &f.0.to_le_bytes()[..],
                &0u64.to_le_bytes(),
                &128u32.to_le_bytes(),
                &[0xAA; 128],
            ]
            .concat();
            assert_eq!(call(1, 11, &body), INVAL, "a write before any Hello");
            assert!(fs.read(f, 0, 1 << 10).unwrap().is_empty(), "it applied");
            assert_eq!(call(2, 18, &7u64.to_le_bytes()), 0, "the Hello");
            assert_eq!(call(1, 11, &body), 0, "the same write, bound");
            vi.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(fs.read(f, 0, 1 << 10).unwrap(), vec![0xAA; 128]);
    assert_eq!(server.stats.ops.get(), 3, "a frame went unserved");
    assert_eq!(server.stats.inline_writes.ops.get(), 1, "writes applied");
}

/// The client refuses a write whose `off + len` passes `u64::MAX` before it
/// sends anything, so only a raw frame reaches the server's own check. A
/// `WriteInline` of 4 bytes at `u64::MAX - 1` gets one `Inval` reply and
/// applies nothing; a `GetAttr` on the same session after it is served,
/// and the file is what it was.
#[test]
fn a_write_past_the_last_offset_is_refused_by_the_server() {
    const INVAL: u8 = 7;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "edge").unwrap().id;
    fs.write(f, 0, &[0xAB; 16]).unwrap();
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    let image = move |fs: &mpio_dafs::memfs::MemFs| {
        (fs.getattr(f).unwrap(), fs.read(f, 0, 1 << 20).unwrap())
    };
    let before = image(&fs);
    {
        let fabric = fabric.clone();
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let vi = fabric
                .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let mem = &nic.host().mem;
            let (sbuf, rbuf) = (mem.alloc(1 << 10), mem.alloc(1 << 10));
            let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
            let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
            let call = |reqid: u32, op: u8, body: &[u8]| -> u8 {
                let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                mem.write(sbuf, &frame);
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                );
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                );
                vi.send_wait(ctx);
                let resp = vi.recv_wait(ctx);
                assert!(resp.status.is_ok(), "op {op}: transport error");
                let reply = resp.payload.expect("reply frame");
                assert_eq!(reply[..4], reqid.to_le_bytes(), "op {op}: another reply");
                reply[4]
            };
            assert_eq!(call(1, 18, &7u64.to_le_bytes()), 0, "Hello");
            // WriteInline (op 11): fh u64 | off u64 | len-prefixed data.
            let fh = f.0.to_le_bytes();
            let body = [
                &fh[..],
                &(u64::MAX - 1).to_le_bytes(),
                &4u32.to_le_bytes(),
                &[0xCD; 4],
            ]
            .concat();
            assert_eq!(call(2, 11, &body), INVAL, "a write past u64::MAX");
            assert_eq!(call(3, 1, &fh), 0, "GetAttr after it");
            vi.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(image(&fs), before, "the refused write changed the file");
    assert_eq!(server.stats.ops.get(), 3, "a frame went unserved");
    assert_eq!(server.stats.inline_writes.ops.get(), 0, "a write applied");
}

/// ROADMAP's hostile-input item ("The perf record as data, and hostile input
/// on both stacks"), the DAFS decoder's half: a request cut short anywhere
/// past its header is a protocol error — exactly one `Inval` reply — never
/// a panic, a hang or a half-applied op. A raw VIA client says a real
/// Hello, then for every op that has a body sends every proper prefix of a
/// frame that would have been valid (and, for the mutating ops, would have
/// changed something). Afterwards the same session still answers, and the
/// namespace and the file image are what they were. `Hello` is among them:
/// a body shorter than its client id binds nothing.
#[test]
fn truncated_frames_get_one_error_reply_and_change_nothing() {
    const INVAL: u8 = 7;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "f").unwrap().id;
    fs.write(f, 0, &[0x5A; 64]).unwrap();
    let d = fs.mkdir(ROOT_ID, "d").unwrap().id;
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    let snapshot = move |fs: &mpio_dafs::memfs::MemFs| {
        (
            fs.readdir(ROOT_ID).unwrap(),
            [ROOT_ID, f, d].map(|id| fs.getattr(id).unwrap()),
            fs.read(f, 0, 1 << 20).unwrap(),
        )
    };
    let before = snapshot(&fs);

    // Field encoders of the DAFS wire format (little-endian, u32 length
    // prefixes), and one valid body per op.
    let cat = |parts: &[&[u8]]| parts.concat();
    let u = |v: u64| v.to_le_bytes().to_vec();
    let s = |v: &[u8]| cat(&[&(v.len() as u32).to_le_bytes(), v]);
    let (root, fh) = (u(ROOT_ID.0), u(f.0));
    let remote = cat(&[&u(0x1000), &u(77)]); // client buffer address, handle
    let segs = cat(&[
        &2u32.to_le_bytes(),
        &cat(&[&u(0), &u(8), &u(0)]),
        &cat(&[&u(16), &u(8), &u(8)]),
    ]);
    let bodies: Vec<(u8, Vec<u8>)> = vec![
        (1, fh.clone()),                                 // GetAttr
        (2, cat(&[&fh, &[1], &u(8)])),                   // SetAttr: truncate to 8
        (3, cat(&[&root, &s(b"f")])),                    // Lookup
        (4, cat(&[&root, &s(b"new")])),                  // Create
        (5, cat(&[&root, &s(b"f")])),                    // Remove
        (6, cat(&[&root, &s(b"newdir")])),               // Mkdir
        (7, cat(&[&root, &s(b"d")])),                    // Rmdir
        (8, cat(&[&root, &s(b"f"), &root, &s(b"g")])),   // Rename
        (9, root.clone()),                               // ReadDir
        (10, cat(&[&fh, &u(0), &u(64)])),                // ReadInline
        (11, cat(&[&fh, &u(0), &s(&[0xEE; 16])])),       // WriteInline
        (12, cat(&[&fh, &u(0), &u(64), &remote])),       // ReadDirect
        (14, fh.clone()),                                // Flush
        (15, fh.clone()),                                // Lock
        (16, fh.clone()),                                // Unlock
        (19, cat(&[&fh, &s(&[0xEE; 16])])),              // Append
        (20, cat(&[&fh, &[0], &segs])),                  // ReadList, inline
        (20, cat(&[&fh, &[1], &remote, &segs])),         // ReadList, direct
        (21, cat(&[&fh, &[0], &segs, &s(&[0xEE; 16])])), // WriteList, inline
        (21, cat(&[&fh, &[1], &remote, &segs])),         // WriteList, direct
        (22, cat(&[&fh, &[2]])),                         // LeaseGrant (write)
        (24, cat(&[&fh, &1u32.to_le_bytes()])),          // LeaseRecallAck
        (18, u(7)),                                      // Hello: client id
    ];
    let frames: u64 = bodies.iter().map(|(_, b)| b.len() as u64).sum();

    {
        let fabric = fabric.clone();
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let vi = fabric
                .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let mem = &nic.host().mem;
            let (sbuf, rbuf) = (mem.alloc(1 << 10), mem.alloc(1 << 10));
            let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
            let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
            // One request, one reply (a second, unsolicited reply would
            // find no receive descriptor and break the connection). Every
            // request has its own id, so the replay cache stays out of it.
            let mut reqid = 0u32;
            let mut call = |op: u8, body: &[u8]| -> u8 {
                reqid += 1;
                let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                mem.write(sbuf, &frame);
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                );
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                );
                vi.send_wait(ctx);
                let resp = vi.recv_wait(ctx);
                assert!(resp.status.is_ok(), "op {op}: transport error");
                let reply = resp.payload.expect("reply frame");
                assert_eq!(
                    reply[..4],
                    reqid.to_le_bytes(),
                    "op {op}: reply to another request"
                );
                reply[4]
            };
            assert_eq!(call(18, &7u64.to_le_bytes()), 0, "Hello");
            for (op, body) in &bodies {
                for cut in 0..body.len() {
                    let status = call(*op, &body[..cut]);
                    assert_eq!(
                        status,
                        INVAL,
                        "op {op} cut to {cut} of {} bytes",
                        body.len()
                    );
                }
            }
            assert_eq!(call(1, &f.0.to_le_bytes()), 0, "GetAttr after the sweep");
            vi.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(
        snapshot(&fs),
        before,
        "a truncated frame changed the filesystem"
    );
    assert_eq!(server.stats.ops.get(), frames + 2, "a frame went unserved");
}

/// A frame whose opcode names no op gets one `NotSupported` reply under its
/// request id, and the session lives on: 13 (once a direct write, which
/// read the client's buffer by RDMA Read) and 25 (past the last op), each
/// with a direct write's body, and the two ends of the byte. Each is
/// followed by a `GetAttr` on the same session, which is served; the file
/// is what it was. A dropped frame would leave its sender waiting on its
/// credit for a reply that never comes.
#[test]
fn an_unknown_opcode_is_answered_and_the_session_lives_on() {
    const NOT_SUPPORTED: u8 = 9;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "f").unwrap().id;
    fs.write(f, 0, &[0x5A; 64]).unwrap();
    let server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    let image = move |fs: &mpio_dafs::memfs::MemFs| {
        (fs.getattr(f).unwrap(), fs.read(f, 0, 1 << 20).unwrap())
    };
    let before = image(&fs);
    const OPS: [u8; 4] = [13, 25, 0, 255];
    {
        let fabric = fabric.clone();
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let vi = fabric
                .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                .unwrap();
            let tag = vi.ptag();
            let mem = &nic.host().mem;
            let (sbuf, rbuf, dbuf) = (mem.alloc(1 << 10), mem.alloc(1 << 10), mem.alloc(1 << 10));
            let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
            let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
            let dh = nic.register_mem(ctx, dbuf, 1 << 10, MemAttributes::rdma_read_source(tag));
            let mut reqid = 0u32;
            let mut call = |op: u8, body: &[u8]| -> u8 {
                reqid += 1;
                let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                mem.write(sbuf, &frame);
                vi.post_recv(
                    ctx,
                    RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                );
                vi.post_send(
                    ctx,
                    SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                );
                vi.send_wait(ctx);
                let resp = vi.recv_wait(ctx);
                assert!(resp.status.is_ok(), "op {op}: transport error");
                let reply = resp.payload.expect("reply frame");
                assert_eq!(reply[..4], reqid.to_le_bytes(), "op {op}: another reply");
                reply[4]
            };
            assert_eq!(call(18, &7u64.to_le_bytes()), 0, "Hello");
            // A direct write's body: fh, offset, length, then the client
            // buffer (address, handle) — registered, and readable by RDMA.
            let fh = f.0.to_le_bytes();
            let body = [&fh[..], &0u64.to_le_bytes(), &64u64.to_le_bytes()].concat();
            let body = [&body[..], &dbuf.as_u64().to_le_bytes(), &dh.0.to_le_bytes()].concat();
            for op in OPS {
                assert_eq!(call(op, &body), NOT_SUPPORTED, "op {op}");
                assert_eq!(call(1, &fh), 0, "GetAttr after op {op}");
            }
            vi.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(image(&fs), before, "an unknown op changed the file");
    let served = 1 + 2 * OPS.len() as u64;
    assert_eq!(server.stats.ops.get(), served, "a frame went unserved");
}

/// The other half of the sweep above: frames that decode, and name a client
/// buffer the server may not touch. `truncated_frames_…` cannot reach this
/// — every frame it sends is a proper prefix. A direct request whose handle
/// nobody registered (or whose length runs past what was registered) makes
/// the server's RDMA fail; that breaks the reliable VI at both ends, so the
/// client sees a transport error instead of waiting forever for a reply the
/// dead VI flushed. A `WriteList` in direct mode, which would have the
/// server RDMA-Read the client's buffer, is refused with `Inval` before
/// anything moves, whatever buffer it names, and its session lives on.
/// Each of the five bodies ends in an error status or a transport error
/// within a millisecond; a well-behaved second session is served the whole
/// time; the file is what it was.
#[test]
fn direct_requests_naming_a_bad_buffer_end_in_an_error_not_a_hang() {
    const INVAL: u8 = 7;
    let kernel = SimKernel::new();
    let cluster = Cluster::new();
    let fabric = via::ViaFabric::new(via::ViaCost::default());
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = mpio_dafs::memfs::MemFs::new();
    let f = fs.create(ROOT_ID, "f").unwrap().id;
    fs.write(f, 0, &[0x5A; 4096]).unwrap();
    let _server = dafs::spawn_dafs_server(
        &kernel,
        &fabric,
        server_nic,
        fs.clone(),
        PORT,
        dafs::DafsServerCost::default(),
    );
    let image = move |fs: &mpio_dafs::memfs::MemFs| {
        (fs.getattr(f).unwrap(), fs.read(f, 0, 1 << 20).unwrap())
    };
    let before = image(&fs);

    let u = |v: u64| v.to_le_bytes().to_vec();
    let segs = [
        &2u32.to_le_bytes()[..],
        &[u(0), u(8), u(0)].concat(),
        &[u(16), u(8), u(8)].concat(),
    ]
    .concat();
    // `remote` is the buffer the request names: (address, handle). A row's
    // last member is the status its reply must carry, after which the same
    // session must still serve a `GetAttr`; `None` if it may break the VI.
    let bodies =
        move |remote: &[u8], small: &[u8]| -> Vec<(&'static str, u8, Vec<u8>, Option<u8>)> {
            let fh = u(f.0);
            vec![
                (
                    "ReadDirect",
                    12,
                    [&fh[..], &u(0), &u(64), remote].concat(),
                    None,
                ),
                (
                    "ReadList",
                    20,
                    [&fh[..], &[1], remote, &segs].concat(),
                    None,
                ),
                (
                    "WriteList",
                    21,
                    [&fh[..], &[1], remote, &segs].concat(),
                    None,
                ),
                // A handle that is registered, for 1 KiB; the read is 4 KiB.
                (
                    "ReadDirect past the registration",
                    12,
                    [&fh[..], &u(0), &u(4096), small].concat(),
                    None,
                ),
                (
                    "direct WriteList naming a registered buffer",
                    21,
                    [&fh[..], &[1], small, &segs].concat(),
                    Some(INVAL),
                ),
            ]
        };

    {
        let fabric = fabric.clone();
        let host = cluster.add_host("raw");
        kernel.spawn("raw", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let mem = &nic.host().mem;
            let wild = [u(0x1000), u(77)].concat();
            for i in 0..5 {
                // The session does not survive a refused RDMA: each body
                // gets a connection of its own.
                let vi = fabric
                    .connect(ctx, &nic, sid, PORT, ViAttributes::default())
                    .unwrap();
                let tag = vi.ptag();
                let (sbuf, rbuf, dbuf) =
                    (mem.alloc(1 << 10), mem.alloc(1 << 10), mem.alloc(1 << 10));
                let sh = nic.register_mem(ctx, sbuf, 1 << 10, MemAttributes::local(tag));
                let rh = nic.register_mem(ctx, rbuf, 1 << 10, MemAttributes::local(tag));
                let dh = nic.register_mem(
                    ctx,
                    dbuf,
                    1 << 10,
                    MemAttributes {
                        enable_rdma_read: true,
                        ..MemAttributes::rdma_write_target(tag)
                    },
                );
                let small = [u(dbuf.as_u64()), u(dh.0)].concat();
                let mut reqid = 0u32;
                // `Ok(status)` of the reply, or `Err` of the transport.
                let mut call = |op: u8, body: &[u8]| -> Result<u8, via::ViaStatus> {
                    reqid += 1;
                    let frame = [&reqid.to_le_bytes()[..], &[op], body].concat();
                    mem.write(sbuf, &frame);
                    vi.post_recv(
                        ctx,
                        RecvDesc::new(vec![DataSegment::new(rbuf, 1 << 10, rh)]),
                    );
                    vi.post_send(
                        ctx,
                        SendDesc::send(vec![DataSegment::new(sbuf, frame.len() as u32, sh)]),
                    );
                    vi.send_wait(ctx);
                    let resp = vi.recv_wait(ctx);
                    if !resp.status.is_ok() {
                        return Err(resp.status);
                    }
                    Ok(resp.payload.expect("reply frame")[4])
                };
                assert_eq!(call(18, &7u64.to_le_bytes()), Ok(0), "Hello");
                let (name, op, body, want) = bodies(&wild, &small).swap_remove(i);
                let sent = ctx.now();
                let outcome = call(op, &body);
                assert_ne!(outcome, Ok(0), "{name}: served");
                assert!(
                    ctx.now().since(sent) < ms(1),
                    "{name}: {outcome:?} only after {} ns",
                    ctx.now().since(sent).as_nanos()
                );
                if let Some(status) = want {
                    assert_eq!(outcome, Ok(status), "{name}");
                    assert_eq!(call(1, &u(f.0)), Ok(0), "{name}: GetAttr after it");
                }
                vi.disconnect(ctx);
            }
        });
    }
    {
        // The bystander: one request every 50 us, from before the first
        // bad frame until after the last, each answered promptly.
        let fabric = fabric.clone();
        let host = cluster.add_host("bystander");
        kernel.spawn("bystander", move |ctx| {
            let nic = fabric.open_nic(host.clone());
            let c = dafs::DafsClient::connect(ctx, &fabric, &nic, sid, PORT, Default::default())
                .unwrap();
            for _ in 0..40 {
                let asked = ctx.now();
                assert_eq!(c.getattr(ctx, f).unwrap().size, 4096);
                assert!(ctx.now().since(asked) < us(200), "the bystander waited");
                ctx.advance(us(50));
            }
            c.disconnect(ctx);
        });
    }
    kernel.run();
    assert_eq!(image(&fs), before, "a refused transfer changed the file");
}
