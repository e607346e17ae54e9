//! R-X5 — small-op/re-read throughput with the lease-coherent client
//! cache (new scenario).
//!
//! Not in the paper: DAFS 1.0 specifies client caching with server-issued
//! leases, but the original evaluation never measured it. This sweep has
//! N clients re-reading a warm shared region in 4 KiB requests and
//! hammering GETATTR — the small-op regime where per-op server cost, not
//! the wire, is the bottleneck. Uncached, every operation crosses the
//! fabric and serializes on the server CPU; with the cache a read lease is
//! acquired on the first pass and every later pass is served from client
//! memory, so aggregate throughput scales with the client count.
//!
//! The degraded row reruns the cached 4-client case under a seeded loss
//! plan: a broken session drops its leases (revalidate-on-reconnect), the
//! cache re-warms, and throughput lands between the cold and warm
//! extremes — with every byte still verified.
//!
//! Three follow-on tables push the cache past the original sweep:
//!
//! * **write-back flush coalescing** — one client dirties every other
//!   4 KiB page under a write-back lease and syncs; the coalesced flush
//!   ships the strided runs as one vectored `WriteList` batch, so the
//!   `dafs.cache.flush_{batches,pages}` counters must show ≥4× fewer wire
//!   requests per flushed page than the old page-at-a-time flush
//!   (asserted);
//! * **scale-out** — 64–256 clients assemble a striped file over 4 servers
//!   behind the R-F10 dumbbell; cached re-read bandwidth per client must
//!   stay within a constant factor of the 4-client baseline (asserted),
//!   every byte verified;
//! * **recall storm** — one write-back writer invalidates N read-lease
//!   holders at once; the storm must complete with a bounded flush-request
//!   count (asserted) and every reader re-reads the writer's flushed image.

use dafs::{DafsClientConfig, DafsStripedFile, CACHE_PAGE};
use memfs::ROOT_ID;
use simnet::topo::{DumbbellSpec, QueuePolicy, Topology};
use simnet::units::*;
use simnet::{Bandwidth, FaultPlan};
use via::ViaCost;

use crate::report::{Cell, Table, Unit};
use crate::testbeds::{timed, with_dafs_cluster, Dial};

/// Shared region each client re-reads.
const REGION: u64 = 128 << 10;
/// Small-op request size.
const REQ: u64 = 4 << 10;
/// GETATTRs issued per re-read pass per client.
const GETATTRS_PER_ROUND: u64 = 8;

/// Timed re-read passes after the warm pass; `--smoke` shrinks this.
pub const DEFAULT_ROUNDS: u64 = 8;
/// Default fault seed for the degraded row; override with `--fault-seed`.
pub const DEFAULT_SEED: u64 = 0xDAF5_0005;

/// Striped scale-out geometry: the dumbbell carries this many servers.
const SCALE_SERVERS: usize = 4;
/// Stripe (block) size of the scale-out file.
const SCALE_STRIPE: u64 = 16 << 10;
/// Full-run scale ladder; the 4-client baseline always runs first.
pub const SCALE_CLIENTS: [usize; 3] = [64, 128, 256];
/// `--smoke` scale ladder.
pub const SMOKE_SCALE_CLIENTS: [usize; 1] = [16];
/// Dirty pages in the write-back coalescing row (every other page).
const WB_PAGES: u64 = 64;
/// Read-lease holders invalidated by the recall-storm writer.
const STORM_READERS: usize = 16;

fn pattern() -> Vec<u8> {
    (0..REGION as usize).map(|i| (i * 11 + 5) as u8).collect()
}

struct CaseOut {
    reread_mb_s: Cell,
    kops_s: Cell,
    hits: u64,
    attr_hits: u64,
    reconnects: u64,
}

fn case(clients: usize, cached: bool, rounds: u64, plan: Option<FaultPlan>) -> CaseOut {
    let (spans, ran, ..) = with_dafs_cluster(
        1,
        clients,
        ViaCost::default(),
        DafsClientConfig::default(),
        plan,
        None,
        Dial::EveryServer,
        |fss| {
            let f = fss[0].create(ROOT_ID, "hot").unwrap();
            fss[0].write(f.id, 0, &pattern()).unwrap();
        },
        move |ctx, _i, cs, nic| {
            let c = &cs[0];
            let f = c.lookup(ctx, ROOT_ID, "hot").unwrap();
            if cached {
                c.cache_file(f.id);
            }
            let dst = nic.host().mem.alloc(REQ as usize);
            let expect = pattern();
            // Warm pass (uncounted): seeds the cache in cached mode.
            for off in (0..REGION).step_by(REQ as usize) {
                let n = c.read(ctx, f.id, off, dst, REQ).unwrap();
                assert_eq!(n, REQ, "short warm read at {off}");
            }
            timed(ctx, || {
                for _ in 0..rounds {
                    for off in (0..REGION).step_by(REQ as usize) {
                        let n = c.read(ctx, f.id, off, dst, REQ).unwrap();
                        assert_eq!(n, REQ, "short re-read at {off}");
                        assert_eq!(
                            nic.host().mem.read_vec(dst, REQ as usize),
                            &expect[off as usize..(off + REQ) as usize],
                            "corrupt re-read at {off}"
                        );
                    }
                    for _ in 0..GETATTRS_PER_ROUND {
                        let a = c.getattr(ctx, f.id).unwrap();
                        assert_eq!(a.size, REGION);
                    }
                }
            })
        },
    );
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    let ns = spans.into_iter().max().unwrap();
    let ops = clients as u64 * rounds * (REGION / REQ + GETATTRS_PER_ROUND);
    CaseOut {
        reread_mb_s: Cell::mbps(clients as u64 * rounds * REGION, ns),
        kops_s: Cell::Ratio(ops, ns, Unit::Kops),
        hits: counter("dafs.cache.hits"),
        attr_hits: counter("dafs.cache.attr_hits"),
        reconnects: counter("dafs.reconnects"),
    }
}

/// Write-back flush-coalescing measurement: one client dirties
/// [`WB_PAGES`] pages with a 1-dirty-1-clean stride (so no two runs are
/// contiguous — the worst case for extent coalescing) and syncs once.
struct WbOut {
    flush_pages: u64,
    flush_batches: u64,
}

fn writeback_case() -> WbOut {
    let cfg = DafsClientConfig {
        cache_write_back: true,
        ..DafsClientConfig::default()
    };
    let page = CACHE_PAGE;
    let (_, ran, ..) = with_dafs_cluster(
        1,
        1,
        ViaCost::default(),
        cfg,
        None,
        None,
        Dial::EveryServer,
        |fss| {
            fss[0].create(ROOT_ID, "wb").unwrap();
        },
        move |ctx, _i, cs, nic| {
            let c = &cs[0];
            let f = c.lookup(ctx, ROOT_ID, "wb").unwrap();
            c.cache_file(f.id);
            let src = nic.host().mem.alloc(page as usize);
            for p in 0..WB_PAGES {
                nic.host().mem.fill(src, page as usize, (p % 251) as u8 + 1);
                c.write(ctx, f.id, p * 2 * page, src, page).unwrap();
            }
            let flushed = c.cache_sync(ctx).unwrap();
            assert_eq!(flushed, WB_PAGES, "every strided dirty page must flush");
            // Read back over the wire: each strided extent holds its fill
            // and the hole beside it reads zero — the batched flush landed
            // every run at its own offset, nothing smeared.
            for p in 0..WB_PAGES {
                let got = c.read_to_vec(ctx, f.id, p * 2 * page, page).unwrap();
                assert_eq!(
                    got,
                    vec![(p % 251) as u8 + 1; page as usize],
                    "flushed page {p} corrupt"
                );
                if p + 1 < WB_PAGES {
                    let hole = c.read_to_vec(ctx, f.id, (p * 2 + 1) * page, page).unwrap();
                    assert_eq!(hole, vec![0u8; page as usize], "hole after page {p} dirty");
                }
            }
        },
    );
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    WbOut {
        flush_pages: counter("dafs.cache.flush_pages"),
        flush_batches: counter("dafs.cache.flush_batches"),
    }
}

/// One scale-out cell: `clients` clients behind the dumbbell, each holding
/// one session per server and re-reading a 4-way striped file through the
/// lease cache.
struct ScaleOut {
    cold_ns: u64,
    warm_ns: u64,
    rounds: u64,
    hits: u64,
    reconnects: u64,
}

impl ScaleOut {
    /// The cold pass's per-client bandwidth.
    fn cold(&self) -> Cell {
        Cell::mbps(REGION, self.cold_ns)
    }

    /// The warm passes' per-client bandwidth.
    fn warm(&self) -> Cell {
        Cell::mbps(self.rounds * REGION, self.warm_ns)
    }
}

fn scale_case(clients: usize, rounds: u64) -> ScaleOut {
    let via = ViaCost::default();
    let wire = via.wire_bw;
    let latency = via.wire_latency;
    let expect = pattern();
    let (spans, ran, ..) = with_dafs_cluster(
        SCALE_SERVERS,
        clients,
        via,
        DafsClientConfig::default(),
        None,
        Some(Box::new(move |cluster, sids| {
            Topology::dumbbell(
                cluster,
                sids,
                DumbbellSpec {
                    port_bw: wire,
                    // 1:1 trunk — the servers' wires are the bottleneck.
                    trunk_bw: Bandwidth::bytes_per_sec(
                        wire.as_bytes_per_sec() * SCALE_SERVERS as u64,
                    ),
                    latency,
                    queue_capacity: 64,
                    policy: QueuePolicy::Backpressure,
                },
            )
        })),
        Dial::EveryServer,
        |fss| {
            // Stripe the logical region over the piece files: logical
            // block `b` lives on server `b % SCALE_SERVERS` at local block
            // `b / SCALE_SERVERS` (the `split_range` map).
            let data = pattern();
            for (s, fs) in fss.iter().enumerate() {
                let f = fs.create(ROOT_ID, "hot").unwrap();
                let mut piece = Vec::new();
                let stripes = (s as u64 * SCALE_STRIPE..REGION)
                    .step_by(SCALE_SERVERS * SCALE_STRIPE as usize);
                for off in stripes {
                    piece.extend_from_slice(&data[off as usize..(off + SCALE_STRIPE) as usize]);
                }
                fs.write(f.id, 0, &piece).unwrap();
            }
        },
        move |ctx, _i, cs, nic| {
            let fhs: Vec<_> = cs
                .iter()
                .map(|c| c.lookup(ctx, ROOT_ID, "hot").unwrap().id)
                .collect();
            for (c, fh) in cs.iter().zip(&fhs) {
                c.cache_file(*fh);
            }
            let f = DafsStripedFile::new(cs.to_vec(), fhs, SCALE_STRIPE);
            let dst = nic.host().mem.alloc(REQ as usize);
            let pass = |verify_tag: &str| {
                for off in (0..REGION).step_by(REQ as usize) {
                    let n = f.read(ctx, off, dst, REQ).unwrap();
                    assert_eq!(n, REQ, "short {verify_tag} striped read at {off}");
                    assert_eq!(
                        nic.host().mem.read_vec(dst, REQ as usize),
                        &expect[off as usize..(off + REQ) as usize],
                        "corrupt {verify_tag} striped read at {off}"
                    );
                }
            };
            // Cold pass: every page crosses the switch once, seeding one
            // read lease per server.
            let cold = timed(ctx, || pass("cold"));
            // Warm passes: pure client-memory hits, nothing on the wire.
            let warm = timed(ctx, || (0..rounds).for_each(|_| pass("warm")));
            (cold, warm)
        },
    );
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    ScaleOut {
        cold_ns: spans.iter().map(|s| s.0).max().unwrap(),
        warm_ns: spans.iter().map(|s| s.1).max().unwrap(),
        rounds,
        hits: counter("dafs.cache.hits"),
        reconnects: counter("dafs.reconnects"),
    }
}

/// Recall storm, both directions. Phase A: N clients hold read leases on
/// one page; a writer's region-sized write recalls every one of them at
/// once (the write parks at the server until the last ack) — clean
/// holders must ack without any flush traffic. Phase B: the writer takes
/// a write-back lease and dirties the whole region; all N readers then
/// storm it at once, parking behind a single recall whose service flushes
/// the region as **one** coalesced batch before the ack releases them.
struct StormOut {
    recalls: u64,
    flush_batches: u64,
    flush_pages: u64,
    invalidations: u64,
}

fn storm_case(readers: usize) -> StormOut {
    let cfg = DafsClientConfig {
        cache_write_back: true,
        ..DafsClientConfig::default()
    };
    let page = CACHE_PAGE;
    let img_a: Vec<u8> = (0..REGION as usize).map(|j| (j * 7 + 3) as u8).collect();
    let img_b: Vec<u8> = (0..REGION as usize).map(|j| (j * 13 + 1) as u8).collect();
    let (a, b) = (img_a.clone(), img_b.clone());
    let (_, ran, fss, _) = with_dafs_cluster(
        1,
        readers + 1,
        ViaCost::default(),
        cfg,
        None,
        None,
        Dial::EveryServer,
        |fss| {
            let f = fss[0].create(ROOT_ID, "storm").unwrap();
            fss[0].write(f.id, 0, &pattern()).unwrap();
        },
        move |ctx, i, cs, nic| {
            let c = &cs[0];
            let f = c.lookup(ctx, ROOT_ID, "storm").unwrap();
            c.cache_file(f.id);
            if i == 0 {
                let src = nic.host().mem.alloc(REGION as usize);
                // Phase A at ms(8): every reader holds its page lease by
                // now; this write-through recalls all N at once and parks
                // at the server until the last ack lands (~ms(12)).
                ctx.advance(ms(8));
                nic.host().mem.write(src, &a);
                c.write(ctx, f.id, 0, src, REGION).unwrap();
                // Phase B: no leases are out (the acks dropped them, the
                // readers' re-reads wait until ms(22)), so this acquires a
                // write-back lease and buffers the region dirty.
                nic.host().mem.write(src, &b);
                c.write(ctx, f.id, 0, src, REGION).unwrap();
                // ms(26)+: the readers' storm parked behind our lease at
                // ~ms(22); servicing the recall flushes everything dirty
                // as one coalesced batch, then the ack releases them all.
                ctx.advance(ms(12));
                c.cache_sync(ctx).unwrap();
            } else {
                // Warm one page under a read lease — small on purpose, so
                // all N warm reads finish well before phase A starts.
                let dst = nic.host().mem.alloc(page as usize);
                let n = c.read(ctx, f.id, 0, dst, page).unwrap();
                assert_eq!(n, page, "reader {i} short warm read");
                // ms(12)-ish: service phase A's recall — flush (nothing,
                // we're clean), ack, drop the page.
                ctx.advance(ms(10));
                let acked = c.cache_sync(ctx).unwrap();
                assert_eq!(acked, 0, "clean reader {i} must ack without flushing");
                assert_eq!(
                    c.cache_stats.recalls.get(),
                    1,
                    "reader {i} missed the recall"
                );
                // ms(22)-ish: storm the write-back holder. The lease
                // request is denied mid-recall, so this parks as a plain
                // read behind the writer's lease and must return the
                // flushed phase-B image, never A or the original.
                ctx.advance(ms(10));
                let n = c.read(ctx, f.id, 0, dst, page).unwrap();
                assert_eq!(n, page, "reader {i} short post-storm read");
                assert_eq!(
                    nic.host().mem.read_vec(dst, page as usize),
                    &b[..page as usize],
                    "reader {i} saw stale bytes after the storm"
                );
            }
        },
    );
    // Stable storage holds exactly the writer's flushed phase-B image.
    let fh = fss[0].resolve("/storm").unwrap();
    assert_eq!(fss[0].read(fh.id, 0, REGION).unwrap(), img_b);
    let snap = ran.snapshot();
    let counter = |n: &str| snap.expect(n).value();
    StormOut {
        recalls: counter("dafs.cache.recalls"),
        flush_batches: counter("dafs.cache.flush_batches"),
        flush_pages: counter("dafs.cache.flush_pages"),
        invalidations: counter("dafs.cache.invalidations"),
    }
}

/// Run R-X5 with explicit pass count, fault seed, and scale-out ladder
/// (the 4-client striped baseline always runs ahead of the ladder).
pub fn run_with(rounds: u64, seed: u64, scale: &[usize]) -> Table {
    let mut t = Table::new(
        &format!(
            "R-X5: small-op/re-read throughput, lease-coherent client cache \
             ({rounds} passes of 4K re-reads + GETATTR; seed {seed:#x})"
        ),
        &[
            ("clients", 0),
            ("mode", 0),
            ("re-read MB/s", 1),
            ("small-op kops/s", 1),
            ("hits", 0),
            ("attr hits", 0),
            ("reconnects", 0),
        ],
    );
    let mut row = |clients: usize, mode: &str, o: &CaseOut| {
        t.row([
            Cell::Int(clients as u64),
            Cell::text(mode),
            o.reread_mb_s.clone(),
            o.kops_s.clone(),
            Cell::Int(o.hits),
            Cell::Int(o.attr_hits),
            Cell::Int(o.reconnects),
        ]);
    };
    let mut four = None;
    for clients in [1usize, 4] {
        let uncached = case(clients, false, rounds, None);
        let cached = case(clients, true, rounds, None);
        row(clients, "uncached", &uncached);
        row(clients, "cached", &cached);
        if clients == 4 {
            four = Some((uncached.reread_mb_s.value(), cached.reread_mb_s.value()));
        }
    }
    // Cached clients send few messages (that's the point), so the loss
    // rate is higher than X-4's to land a handful of session breaks.
    let plan = FaultPlan::builder(seed).loss(0.01).build();
    let degraded = case(4, true, rounds, Some(plan));
    row(4, "cached+loss", &degraded);
    let (cold, warm) = four.expect("4-client cases ran");
    assert!(
        warm >= 2.0 * cold,
        "cached 4-client re-read ({warm:.1} MB/s) must be >=2x uncached ({cold:.1} MB/s)"
    );
    assert!(
        degraded.reconnects > 0,
        "the degraded row never broke a session — the fault plan went untested"
    );
    t.note("every re-read verified byte-identical; warm pass uncounted");
    t.note("expect uncached rows to serialize on server per-op cost; cached rows to scale with clients (>=2x at 4 clients, asserted)");
    t.note("expect cached+loss between the extremes: each broken session drops its leases and re-warms (revalidate-on-reconnect)");

    // --- write-back flush coalescing -----------------------------------
    let wb = writeback_case();
    assert_eq!(wb.flush_pages, WB_PAGES, "strided dirty pages all flushed");
    assert!(
        wb.flush_pages >= 4 * wb.flush_batches.max(1),
        "coalesced flush must amortize >=4 pages per wire request \
         ({} pages over {} requests)",
        wb.flush_pages,
        wb.flush_batches
    );
    let mut wbt = Table::new(
        "R-X5 write-back flush coalescing (strided dirty pages, one sync)",
        &[
            ("pattern", 0),
            ("dirty pages", 0),
            ("flush wire reqs", 0),
            ("pages/req", 1),
        ],
    );
    wbt.row([
        Cell::text("every other 4K page"),
        Cell::Int(wb.flush_pages),
        Cell::Int(wb.flush_batches),
        Cell::Ratio(wb.flush_pages, wb.flush_batches.max(1), Unit::Per),
    ]);
    wbt.note(
        "page-at-a-time flush would ship one wire request per dirty page; \
         coalesced runs amortize >=4x fewer (asserted), read-back verified",
    );
    t.push_extra(wbt);

    // --- striped scale-out on the switched fabric -----------------------
    let mut st = Table::new(
        &format!(
            "R-X5 scale-out: {SCALE_SERVERS}-server striped dumbbell, cached re-read \
             ({rounds} warm passes)"
        ),
        &[
            ("clients", 0),
            ("cold/client MB/s", 1),
            ("warm/client MB/s", 1),
            ("warm/cold", 1),
            ("hits", 0),
            ("reconnects", 0),
        ],
    );
    let mut srow = |clients: usize, o: &ScaleOut| {
        st.row([
            Cell::Int(clients as u64),
            o.cold(),
            o.warm(),
            Cell::Ratio(o.rounds * o.cold_ns, o.warm_ns, Unit::Per),
            Cell::Int(o.hits),
            Cell::Int(o.reconnects),
        ]);
    };
    let base = scale_case(4, rounds);
    srow(4, &base);
    for &clients in scale {
        let out = scale_case(clients, rounds);
        assert_eq!(
            out.reconnects, 0,
            "lossless scale-out must not break sessions"
        );
        let (warm, base_warm) = (out.warm().value(), base.warm().value());
        assert!(
            warm >= base_warm / 4.0,
            "{clients}-client cached re-read ({warm:.1} MB/s per client) fell more \
             than 4x below the 4-client baseline ({base_warm:.1} MB/s)"
        );
        srow(clients, &out);
    }
    st.note(
        "warm passes are client-memory hits: per-client bandwidth must stay \
         within 4x of the 4-client baseline as clients scale (asserted)",
    );
    st.note("every striped read byte-verified against the prefilled pattern");
    t.push_extra(st);

    // --- recall storm ----------------------------------------------------
    let storm = storm_case(STORM_READERS);
    assert_eq!(
        storm.recalls,
        STORM_READERS as u64 + 1,
        "one recall per invalidated reader plus the write-back holder's"
    );
    assert!(
        storm.flush_batches >= 1 && storm.flush_batches <= 8,
        "storm flush requests out of bounds: {}",
        storm.flush_batches
    );
    assert_eq!(
        storm.flush_pages,
        REGION / CACHE_PAGE,
        "the storm must flush exactly the dirty region"
    );
    assert!(
        storm.invalidations >= STORM_READERS as u64,
        "every reader must drop its page ({} invalidations)",
        storm.invalidations
    );
    let mut rt = Table::new(
        "R-X5 recall storm: one write-back writer invalidates N readers",
        &[
            ("readers", 0),
            ("recalls", 0),
            ("flush wire reqs", 0),
            ("flushed pages", 0),
            ("invalidations", 0),
        ],
    );
    rt.row(
        [
            STORM_READERS as u64,
            storm.recalls,
            storm.flush_batches,
            storm.flush_pages,
            storm.invalidations,
        ]
        .map(Cell::Int),
    );
    rt.note(
        "phase A: the writer's write parks until all N leased readers ack \
         (clean holders flush nothing); phase B: all N readers storm the \
         write-back holder, whose recall service flushes the region as one \
         coalesced batch (bounded, asserted) before releasing them; every \
         reader re-reads the flushed image byte-exact",
    );
    t.push_extra(rt);
    t
}

/// Run R-X5 with the defaults.
pub fn run() -> Table {
    run_with(DEFAULT_ROUNDS, DEFAULT_SEED, &SCALE_CLIENTS)
}
