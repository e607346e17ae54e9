//! X-6 (extension) — multi-tenant QoS fairness: small-op latency under a
//! streaming tenant's saturation load.
//!
//! Two tenants share one DAFS server. A *small-op* tenant (one client,
//! `DafsClientConfig::tenant` weight 8) issues getattr + 4 KiB reads (direct
//! once their buffer is warm) with a short think time — an interactive
//! metadata workload. A *streaming* tenant
//! (three clients, weight 1) keeps batched 256 KiB direct reads in flight
//! the whole time, saturating the server wire. The same seeded workload
//! runs twice: once on a server without a scheduler, which serves each
//! frame on receipt (`SchedPolicy::Fifo`, the paper's dispatch), and once
//! with the WFQ scheduler (`spawn_dafs_server_sched` with
//! `SchedPolicy::Wfq`).
//!
//! Expected shape: under FIFO the small ops queue behind whole streaming
//! batches and p99 blows up to many chunk-service-times; under WFQ the
//! deadline boost bounds a small op's wait to roughly the in-service
//! request, and the credit throttle caps each streamer's queue share, so
//! small-op p99 collapses (≥5× better) while streaming throughput gives up
//! only the small tenant's share of the wire.
//!
//! Latency quantiles are exact ([`SampleSet`] nearest-rank), not
//! histogram-bucket bounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dafs::sched::tenant_labels;
use dafs::{BatchDir, DafsClient, DafsClientConfig, DafsServerCost, IoReq, SchedPolicy};
use memfs::{MemFs, ROOT_ID};
use simnet::time::units::*;
use simnet::{ActorCtx, Cluster, SampleSet};
use via::{ViaCost, ViaFabric};

use crate::report::{Cell, Table};
use crate::testbeds::{simulate, PORT};

/// Streaming-tenant clients.
const STREAMERS: usize = 3;
/// Small-op tenant clients. Two, so consecutive small ops can sit queued
/// together and the WFQ deadline boost (not just the DRR weight) is
/// exercised: the second op's deadline expires while the first is served.
const SMALL_CLIENTS: usize = 2;
/// One streaming request; a few chunk-service-times of queue per streamer.
const CHUNK: u64 = 256 << 10;
/// Requests per streaming batch (pipelined up to the session credits).
const BATCH: usize = 8;
/// Streamed region per client (reads wrap around it).
const REGION: u64 = 4 << 20;
/// Small-op tenant think time between ops — an interactive client, not a
/// closed loop hammering the server.
const THINK: simnet::SimDuration = us(100);

/// Tenant ids carried in the session `Hello`.
const TENANT_SMALL: u64 = 1;
const TENANT_STREAM: u64 = 2;

/// Small-op count for the full table.
pub const DEFAULT_SMALL_OPS: usize = 200;

struct CaseOut {
    /// Per-op latency of the small tenant (getattr + 4 KiB read pairs).
    small: SampleSet,
    /// Per-batch latency of the streaming tenant.
    stream: SampleSet,
    /// Aggregate streaming throughput while the small tenant ran.
    stream_mb_s: Cell,
    /// Scheduler counters (0 under FIFO).
    boosts: u64,
    throttles: u64,
}

fn case(policy: SchedPolicy, small_ops: usize) -> CaseOut {
    let cluster = Cluster::new();
    let fabric = Arc::new(ViaFabric::new(ViaCost::default()));
    let server_nic = fabric.open_nic(cluster.add_host("server0"));
    let sid = server_nic.host().id;
    let fs = MemFs::new();
    for i in 0..STREAMERS {
        let f = fs.create(ROOT_ID, &format!("stream{i}")).unwrap();
        fs.write(f.id, 0, &vec![i as u8 + 1; REGION as usize])
            .unwrap();
    }
    let small_file = fs.create(ROOT_ID, "meta").unwrap();
    fs.write(small_file.id, 0, &vec![9u8; 64 << 10]).unwrap();

    let running = Arc::new(AtomicU64::new(SMALL_CLIENTS as u64));
    let small = SampleSet::new();
    let stream = SampleSet::new();

    let (streamed, ran) = simulate(None, |kernel| {
        dafs::spawn_dafs_server_sched(
            kernel,
            &fabric,
            server_nic,
            fs,
            PORT,
            DafsServerCost::default(),
            policy,
        );

        // Small-op tenant: declares weight 8 in its Hello. Spawned first so
        // the server learns the max weight before the streamers' Hellos are
        // credit-scaled against it.
        for i in 0..SMALL_CLIENTS {
            let fabric = fabric.clone();
            let host = cluster.add_host(&format!("small{i}"));
            let running = running.clone();
            let lat = small.clone();
            kernel.spawn(&format!("small{i}"), move |ctx| {
                let nic = fabric.open_nic(host.clone());
                let cfg = DafsClientConfig {
                    tenant: Some((TENANT_SMALL, 8)),
                    ..DafsClientConfig::default()
                };
                let c = DafsClient::connect(ctx, &fabric, &nic, sid, PORT, cfg).unwrap();
                let f = c.lookup(ctx, ROOT_ID, "meta").unwrap();
                let buf = nic.host().mem.alloc(4 << 10);
                // Let the streamers connect and fill the server queue first.
                ctx.advance(ms(2));
                for _ in 0..small_ops {
                    let t0 = ctx.now();
                    c.getattr(ctx, f.id).unwrap();
                    c.read(ctx, f.id, 0, buf, 4 << 10).unwrap();
                    lat.record(ctx.now().since(t0).as_nanos());
                    ctx.advance(THINK);
                }
                running.fetch_sub(1, Ordering::Relaxed);
                c.disconnect(ctx);
            });
        }

        // Streaming tenant: three weight-1 clients keep batched direct
        // reads in flight until the small tenant finishes; each returns the
        // bytes it streamed and how long it took.
        (0..STREAMERS)
            .map(|i| {
                let fabric = fabric.clone();
                let host = cluster.add_host(&format!("stream{i}"));
                let running = running.clone();
                let lat = stream.clone();
                let client = move |ctx: &ActorCtx| {
                    let nic = fabric.open_nic(host.clone());
                    // Connect strictly after the small tenant's Hello so the
                    // weight-1 declaration is scaled against the known max.
                    ctx.advance(ms(1));
                    let cfg = DafsClientConfig {
                        tenant: Some((TENANT_STREAM, 1)),
                        ..DafsClientConfig::default()
                    };
                    let c = DafsClient::connect(ctx, &fabric, &nic, sid, PORT, cfg).unwrap();
                    let f = c.lookup(ctx, ROOT_ID, &format!("stream{i}")).unwrap();
                    let buf = nic.host().mem.alloc((CHUNK as usize) * BATCH);
                    let t0 = ctx.now();
                    let mut off = 0u64;
                    let mut bytes = 0;
                    while running.load(Ordering::Relaxed) > 0 {
                        let reqs: Vec<IoReq> = (0..BATCH)
                            .map(|j| IoReq {
                                off: (off + j as u64 * CHUNK) % REGION,
                                addr: buf.offset(j as u64 * CHUNK),
                                len: CHUNK,
                            })
                            .collect();
                        let t1 = ctx.now();
                        let batch = c.issue(ctx, BatchDir::Read, f.id, &reqs);
                        for r in c.batch_finish(ctx, batch) {
                            assert_eq!(r.unwrap(), CHUNK, "short streaming read");
                        }
                        lat.record(ctx.now().since(t1).as_nanos());
                        bytes += CHUNK * BATCH as u64;
                        off = (off + (BATCH as u64) * CHUNK) % REGION;
                    }
                    let span = ctx.now().since(t0).as_nanos();
                    c.disconnect(ctx);
                    (bytes, span)
                };
                (format!("stream{i}"), client)
            })
            .collect()
    });
    let reg = ran.obs.registry();
    let bytes = streamed.iter().map(|s| s.0).sum();
    let span = streamed.iter().map(|s| s.1).max().unwrap();
    CaseOut {
        small,
        stream,
        stream_mb_s: Cell::mbps(bytes, span),
        boosts: reg
            .counter_at("dafs.sched.boosts", tenant_labels(sid, TENANT_SMALL))
            .get(),
        throttles: reg
            .counter_at("dafs.sched.throttles", tenant_labels(sid, TENANT_STREAM))
            .get(),
    }
}

/// Run X-6 with an explicit small-op count (`--smoke` shrinks it).
pub fn run_with(small_ops: usize) -> Table {
    let fifo = case(SchedPolicy::Fifo, small_ops);
    let wfq = case(SchedPolicy::Wfq, small_ops);

    let mut t = Table::new(
        "X-6 (extension): multi-tenant QoS — per-tenant latency under streaming saturation (us)",
        &[
            ("sched", 0),
            ("tenant", 0),
            ("p50", 0),
            ("p99", 0),
            ("p999", 0),
            ("MB/s", 1),
        ],
    );
    for (sched, out) in [("fifo", &fifo), ("wfq", &wfq)] {
        for (tenant, s, bw) in [
            ("small w8", &out.small, Cell::Missing),
            ("stream w1", &out.stream, out.stream_mb_s.clone()),
        ] {
            t.row([
                Cell::text(sched),
                Cell::text(tenant),
                Cell::us(s.quantile(0.5)),
                Cell::us(s.quantile(0.99)),
                Cell::us(s.quantile(0.999)),
                bw,
            ]);
        }
    }
    let fifo_p99 = fifo.small.quantile(0.99);
    let wfq_p99 = wfq.small.quantile(0.99);
    let ratio = fifo_p99 as f64 / wfq_p99.max(1) as f64;
    t.note(&format!(
        "small tenant: {SMALL_CLIENTS} clients, weight 8, getattr + 4KiB read pairs; \
         streaming tenant: {STREAMERS} clients, weight 1, batched {}KiB direct reads",
        CHUNK >> 10
    ));
    t.note(&format!(
        "WFQ improves small-op p99 by {ratio:.1}x (deadline boost + credit throttle); \
         quantiles are exact (nearest-rank over the full sample set)"
    ));
    t.note(&format!(
        "wfq run: {} deadline boosts for the small tenant, {} credit throttles on the \
         streaming tenant (both 0 under fifo: boosts={}, throttles={})",
        wfq.boosts, wfq.throttles, fifo.boosts, fifo.throttles
    ));
    assert!(
        wfq_p99 < fifo_p99,
        "WFQ must improve small-op p99 (fifo {fifo_p99} ns vs wfq {wfq_p99} ns)"
    );
    if small_ops >= DEFAULT_SMALL_OPS {
        assert!(
            ratio >= 5.0,
            "WFQ small-op p99 must be >=5x better than FIFO (got {ratio:.1}x)"
        );
    }
    t
}

/// Run X-6.
pub fn run() -> Table {
    run_with(DEFAULT_SMALL_OPS)
}
