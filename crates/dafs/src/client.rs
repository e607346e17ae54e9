//! The DAFS client (`dap_*`-style API).
//!
//! One VI per session; the [`CREDITS`] pre-posted receive descriptors double as
//! the response buffers and the pipeline depth for batch I/O. One request
//! table per session ([`RequestTable`]) keeps the ids, the credit window the
//! Hello granted, the replies that arrived — matched out of order, for
//! whichever batch or call waits on them — and the requests a broken VI
//! took with it. Which of those a broken session re-posts under their own
//! ids, which it gives up and redoes, and in what order, is one pure plan
//! (`crate::recover`), run by one driver ([`DafsClient::recover`]).
//!
//! A redial costs no round trip of its own: the request that needed it goes
//! out right behind the new VI's `Hello`, whose reply — the first on the
//! VI, which delivers in order — is taken, its caps and window installed,
//! when it arrives; so a recovered request waits in the server's queue
//! once, not twice. Only the first connect takes the Hello's reply first.
//!
//! The reply needs no flag saying the data landed: it follows the RDMA
//! Write on the same reliable VI, which delivers in order, so a reply in
//! hand means every byte posted before it is in the buffer.
//!
//! A transfer takes one form on the wire, whether blocking or batched: the
//! `Sub`s the pure planner ([`crate::plan`]: inline or direct, and how
//! many) cuts it into at one site ([`DafsClient::cut`]), each encoded by
//! `encode_sub` and its reply decoded — and its bytes counted — by
//! `sub_payload`, pipelined over the credits. A blocking `read` / `write`
//! is a batch of the one request (`transfer_wire`): it costs what that
//! batch costs, recovery included.
//!
//! There is one way in for data and attributes: [`DafsClient::read`],
//! [`DafsClient::write`] and [`DafsClient::getattr`] hand straight to the
//! driver of the lease-coherent cache in `crate::cache`, whose first step
//! asks whether this session caches the file ([`DafsClient::cache_file`]
//! enrols one, for the session's life). A file it does not cache passes
//! through — the planner, then `transfer_wire` / `getattr_wire` —
//! before any poll, clock, metric or trace, so a session
//! that enrols nothing is the session without a cache. This file supplies
//! what the driver may not do itself (`Live`, at the end: the wire requests,
//! the clock charges, the counters, the trace line). One rule covers every
//! request that goes to the server past the cache — `cache::past_cache`,
//! followed by the driver's pass-through, by `truncate`, `append` and every
//! batch (batches and list ops always go past it: serving a collective from
//! the cache waits for leases with terms): the file's dirty pages are
//! flushed first, and before a mutating request a holder of only a read
//! lease hands it back. The driver's own requests (its fetches, its
//! GETATTR, the flush batch) are the exempt ones.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::DerefMut;
use std::sync::Arc;

use memfs::{FileAttr, NodeId};
use parking_lot::Mutex;
use simnet::obs::{Labels, LazyByteMeter, LazyCounter};
use simnet::reqtab::{RequestTable, State};
use simnet::{ActorCtx, Bytes, HostId, HostMem, SimDuration, SimTime, VirtAddr};
use via::{
    ConnectError, DataSegment, MemAttributes, MemHandle, ProtectionTag, RecvDesc, SendDesc, Vi,
    ViAttributes, ViState, ViaFabric, ViaNic, ViaStatus,
};

use crate::cache::{
    self, AttrAfter, CacheIo, CacheStat, PageCache, Run, CACHE_CAPACITY, CACHE_PAGE,
};
use crate::cost::DafsClientConfig;
use crate::plan::{self, Rule, Sub, Warm};
use crate::proto::{self, DafsOp, DafsStatus, LeaseKind, ServerCaps};
use crate::recover::{self, Kind, Step};
use crate::regcache::RegCache;
use crate::server::{CREDITS, SLOT};
use crate::wire::{Dec, Enc};

/// DAFS client errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DafsError {
    /// Server returned a non-OK status.
    Status(DafsStatus),
    /// The session's VI broke or disconnected; carries the VIA completion
    /// status that killed it.
    Transport(ViaStatus),
    /// Malformed response.
    Protocol,
    /// Connection could not be established.
    Connect(ConnectError),
}

impl From<ConnectError> for DafsError {
    fn from(e: ConnectError) -> DafsError {
        DafsError::Connect(e)
    }
}

impl std::fmt::Display for DafsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DafsError::Status(s) => write!(f, "DAFS server returned {s:?}"),
            DafsError::Transport(s) => write!(f, "DAFS session transport failure: {s}"),
            DafsError::Protocol => write!(f, "malformed DAFS response"),
            DafsError::Connect(e) => write!(f, "DAFS session setup failed: {e}"),
        }
    }
}

impl std::error::Error for DafsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DafsError::Transport(s) => Some(s),
            DafsError::Connect(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias.
pub type DafsResult<T> = Result<T, DafsError>;

/// A session's counters: its `{host, server}` series of the run-wide
/// metrics, each bumped once per event. The series is per host–server
/// pair, not per session: every session from one host to one server, one
/// after another or at once, counts into it and reads its sum. A handle
/// reads 0 until its session first bumps it (`ops` and the cache's `hits`
/// are bumped or resolved at `connect`).
pub struct DafsClientStats {
    /// Requests issued: `dafs.ops`.
    pub ops: LazyCounter,
    /// Inline READ traffic: `dafs.inline.read.bytes`.
    pub inline_reads: LazyByteMeter,
    /// Inline WRITE traffic: `dafs.inline.write.bytes`.
    pub inline_writes: LazyByteMeter,
    /// Direct READ traffic: `dafs.direct.read.bytes`.
    pub direct_reads: LazyByteMeter,
}

impl DafsClientStats {
    fn at(labels: Labels) -> DafsClientStats {
        DafsClientStats {
            ops: LazyCounter::at("dafs.ops", labels),
            inline_reads: LazyByteMeter::at("dafs.inline.read.bytes", labels),
            inline_writes: LazyByteMeter::at("dafs.inline.write.bytes", labels),
            direct_reads: LazyByteMeter::at("dafs.direct.read.bytes", labels),
        }
    }
}

/// The lease-coherent client cache's counters: the session's `{host,
/// server}` series of `dafs.cache.*` (shared as [`DafsClientStats`]
/// says), bumped in one place (`Live::count`).
pub struct DafsCacheStats {
    /// Cached reads served without touching the server.
    pub hits: LazyCounter,
    /// Cached reads that had to fetch at least one page.
    pub misses: LazyCounter,
    /// Attribute fetches served from the cache.
    pub attr_hits: LazyCounter,
    /// Attribute fetches that went to the server.
    pub attr_misses: LazyCounter,
    /// Lease recalls processed (flush + ack).
    pub recalls: LazyCounter,
    /// Cached pages dropped (recall, eviction, overwrite, reconnect).
    pub invalidations: LazyCounter,
    /// Wire requests carrying coalesced write-back flushes. Together with
    /// `flush_pages` this is the flush amortization ratio: pages per wire
    /// request, ≥1 once runs coalesce.
    pub flush_batches: LazyCounter,
    /// Dirty pages retired through those flush requests.
    pub flush_pages: LazyCounter,
}

impl DafsCacheStats {
    fn at(labels: Labels) -> DafsCacheStats {
        let at = |name| LazyCounter::at(name, labels);
        DafsCacheStats {
            hits: at("dafs.cache.hits"),
            misses: at("dafs.cache.misses"),
            attr_hits: at("dafs.cache.attr_hits"),
            attr_misses: at("dafs.cache.attr_misses"),
            recalls: at("dafs.cache.recalls"),
            invalidations: at("dafs.cache.invalidations"),
            flush_batches: at("dafs.cache.flush_batches"),
            flush_pages: at("dafs.cache.flush_pages"),
        }
    }

    fn of(&self, stat: CacheStat) -> &LazyCounter {
        match stat {
            CacheStat::Hits => &self.hits,
            CacheStat::Misses => &self.misses,
            CacheStat::AttrHits => &self.attr_hits,
            CacheStat::AttrMisses => &self.attr_misses,
            CacheStat::Recalls => &self.recalls,
            CacheStat::Invalidations => &self.invalidations,
            CacheStat::FlushBatches => &self.flush_batches,
            CacheStat::FlushPages => &self.flush_pages,
        }
    }
}

/// One contiguous request of a batch: `len` bytes at file offset `off`,
/// to or from simulated memory at `addr` on the client host. Which file it
/// addresses and which way the bytes move are arguments of the issue call
/// ([`DafsClient::issue`]), so the same struct serves a session, a striped
/// file (logical offsets) and the ADIO trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoReq {
    /// Byte offset in the file.
    pub off: u64,
    /// Client buffer: destination of a read, source of a write.
    pub addr: VirtAddr,
    /// Bytes requested.
    pub len: u64,
}

impl IoReq {
    /// False if the range passes `u64::MAX`.
    pub(crate) fn in_range(&self) -> bool {
        self.off.checked_add(self.len).is_some()
    }
}

/// One vectored request in a list batch: sorted non-overlapping file
/// segments mapping into one client buffer. Segments are
/// `(file offset, len, buffer offset)`; the buffer offsets let one list
/// express a packed layout (prefix sums), an offset-aligned collective
/// drain (`off - off0`), or striped fragment positions.
#[derive(Debug, Clone)]
pub struct ListReq {
    /// Segments, ascending on both the file and the buffer axis.
    pub segs: Vec<proto::ListSeg>,
    /// Base buffer; segment `i` lives at `buf + segs[i].2`.
    pub buf: VirtAddr,
}

impl ListReq {
    /// A packed list: `ranges` consume `buf` back-to-back in list order.
    pub fn packed(ranges: &[(u64, u64)], buf: VirtAddr) -> ListReq {
        let mut rel = 0u64;
        let segs = ranges
            .iter()
            .map(|&(off, len)| {
                let s = (off, len, rel);
                rel += len;
                s
            })
            .collect();
        ListReq { segs, buf }
    }

    /// Total bytes the list covers.
    pub fn total(&self) -> u64 {
        self.segs.iter().map(|s| s.1).sum()
    }

    /// False if a segment's range passes `u64::MAX`.
    pub(crate) fn in_range(&self) -> bool {
        self.segs.iter().all(|s| s.0.checked_add(s.1).is_some())
    }
}

/// What a request whose `off + len` passes `u64::MAX` gets, before anything
/// is cut, split or sent: the status the server gives the same range.
pub(crate) const OUT_OF_RANGE: DafsError = DafsError::Status(DafsStatus::Inval);

/// Which way a transfer moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDir {
    /// Server to client buffer.
    Read,
    /// Client buffer to server.
    Write,
}

impl BatchDir {
    /// The op a transfer's span and trace line name.
    fn op(self) -> &'static str {
        match self {
            BatchDir::Read => "read",
            BatchDir::Write => "write",
        }
    }
}

/// A split-phase pipelined batch against one file.
///
/// The issue half ([`DafsClient::issue`] / [`DafsClient::issue_list`])
/// posts as many sub-requests as the session's credit window has room for
/// and returns immediately, so the server processes them while the caller
/// overlaps other work. [`DafsClient::batch_test`] opportunistically
/// retires completions that already arrived without blocking;
/// [`DafsClient::batch_finish`] blocks for the remainder and runs the
/// transport-failure recovery pass. A blocking batch is the two back to
/// back, and so is a blocking [`DafsClient::read`] / [`DafsClient::write`].
/// Batches share the session's window, whichever is finished first. A
/// batch is one `dafs.read` / `dafs.write` span, from its issue to its
/// finish.
pub struct DafsBatch {
    dir: BatchDir,
    fh: NodeId,
    /// When the batch began, past the cache: where its span starts.
    start: SimTime,
    /// Shared with the request table's records of the posted ones.
    subs: Arc<[Sub]>,
    results: Vec<DafsResult<u64>>,
    inflight: VecDeque<(u32, usize, (MemHandle, bool))>,
    next: usize,
    /// The caller is already past the cache and keeps it in step itself —
    /// the cache's driver, or the read or write it hands to the wire: no
    /// [`cache::past_cache`] first, no `note_wrote` at the finish.
    past: bool,
    /// Direct subs the session took with it, in post order: the recovery
    /// redoes them direct, under fresh ids.
    redo: Vec<usize>,
    /// The newest attributes a contiguous write reply carried (the highest
    /// `version`: the server runs a session's requests in arrival order).
    attr: Option<FileAttr>,
}

impl DafsBatch {
    /// Sub-requests posted but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Count what sub `s` moved toward its request, or fail the request;
    /// keep the newest attributes a reply carried.
    fn credit(&mut self, s: usize, res: DafsResult<(u64, Option<FileAttr>)>) {
        if let Ok((_, attr)) = res {
            self.attr = self.attr.into_iter().chain(attr).max_by_key(|a| a.version);
        }
        match (&mut self.results[self.subs[s].owner], res) {
            (Ok(total), Ok((n, _))) => *total += n,
            (slot @ Ok(_), Err(e)) => *slot = Err(e),
            (Err(_), _) => {}
        }
    }
}

/// What the session posts a request again as if its VI breaks under it:
/// sub `.3` of a batch's subs. A blocking call re-posts its own request; a
/// Hello, lease grant or goodbye is never re-posted (no record).
#[derive(Clone)]
struct Resend(BatchDir, NodeId, Arc<[Sub]>, usize);

/// What waiting on a request the session lost returns.
const LOST: DafsError = DafsError::Transport(ViaStatus::ConnectionLost);

/// Where the byte string that ends a request lives. The frame is assembled
/// straight from there ([`request_frame`]), whichever variant it is. What
/// the client is charged for differs: client memory under a registration
/// that covers it ([`Payload::Pinned`]) is sent in place, one gather
/// segment per range behind the request slot, and costs no copy; every
/// other payload is copied into the request slot with the header.
#[derive(Clone, Copy)]
pub(crate) enum Payload<'a> {
    /// The request ends with its arguments.
    None,
    /// The client memory an inline write sub moves ([`Sub::runs`]),
    /// copied into the slot.
    Mem(&'a Sub),
    /// The same inside one registered region (an inline write from a warm
    /// buffer), sent in place under the region's handle.
    Pinned(&'a Sub, MemHandle),
    /// The caller's own bytes (`Append`).
    Slice(&'a [u8]),
}

impl Payload<'_> {
    /// The payload's byte count, without its length prefix.
    fn len(&self) -> u64 {
        match *self {
            Payload::None => 0,
            Payload::Mem(s) | Payload::Pinned(s, _) => s.len,
            Payload::Slice(data) => data.len() as u64,
        }
    }
}

/// Assemble one request frame: header, arguments, then the payload behind
/// its length prefix — byte for byte what `Enc::bytes` of the gathered
/// payload after the same arguments encodes.
pub(crate) fn request_frame(
    mem: &HostMem,
    reqid: u32,
    op: DafsOp,
    args: &[u8],
    payload: Payload<'_>,
) -> Bytes {
    let body = match payload {
        Payload::None => None,
        p => Some(p.len() as usize),
    };
    let total = proto::REQ_HEADER_LEN + args.len() + body.map_or(0, |n| 4 + n);
    assert!(total as u64 <= SLOT, "request overflows message slot");
    let mut e = Enc::with_capacity(total);
    proto::enc_req_header(&mut e, reqid, op);
    e.raw(args);
    if let Some(n) = body {
        e.u32(n as u32);
    }
    match payload {
        Payload::None => {}
        Payload::Mem(s) | Payload::Pinned(s, _) => {
            for (addr, len) in s.runs() {
                mem.read_into(addr, len as usize, e.buf_mut());
            }
        }
        Payload::Slice(data) => {
            e.raw(data);
        }
    }
    Bytes::from_vec(e.finish())
}

/// The attributes a write's [`DafsClient::transfer_wire`] ends in: it
/// succeeds only once every sub is acknowledged, and every contiguous write
/// reply carries them — an empty write is one empty message.
fn written((_, attr): (u64, Option<FileAttr>)) -> FileAttr {
    attr.expect("a write's transfer ends in its attributes")
}

/// Bytes the registration cache keeps pinned before it evicts the least
/// recently used registration.
const REGCACHE_CAPACITY: u64 = 64 << 20;

/// Delay before the second dial after a break; doubles on each later one.
/// The first dial goes at once: nothing has refused it yet, and a lost
/// frame — the common break — leaves the server ready to take it. So
/// `max_reconnects` = 9 dials at 0, 1, 3, …, 255 ms ride out ~250 ms of
/// server downtime.
pub(crate) const RECONNECT_BACKOFF: SimDuration = SimDuration::from_millis(1);

/// One `SLOT`-byte message buffer of a session ring and its registration.
type Slot = (VirtAddr, MemHandle);

/// A DAFS session.
///
/// The session survives transport failures: when the VI breaks, it redials
/// (up to `max_reconnects` times) and re-posts what it lost under the
/// **original** request ids, which the server's replay cache uses to make
/// non-idempotent operations exactly-once.
///
/// The session has one protection tag for its life. Its two rings and the
/// registration cache are registered under it, and every VI it dials is
/// created with it, so a reconnect replaces the VI and nothing registered.
pub struct DafsClient {
    /// The live VI: the one thing a reconnect replaces.
    vi: Mutex<Vi>,
    /// The session's protection tag.
    ptag: ProtectionTag,
    nic: ViaNic,
    fabric: ViaFabric,
    server: HostId,
    port: u16,
    config: DafsClientConfig,
    caps: Mutex<ServerCaps>,
    /// Stable client identity across reconnects: the VI id of the first
    /// session (fabric-scoped, so identical runs get identical ids).
    client_id: u64,
    table: Mutex<RequestTable<Option<Resend>, Bytes>>,
    /// A request goes out from slot `id mod CREDITS`: the window keeps
    /// the unanswered ids fewer than `CREDITS` apart.
    req_ring: Vec<Slot>,
    recv_ring: Mutex<VecDeque<Slot>>,
    regcache: RegCache,
    scratch: Mutex<Option<(VirtAddr, usize)>>,
    cache: Mutex<PageCache>,
    /// Client counters.
    pub stats: DafsClientStats,
    /// Lease-coherent cache counters.
    pub cache_stats: DafsCacheStats,
    /// `dafs.inline.copied_bytes`: the payload bytes the client is charged
    /// to copy ([`Self::charge_copy`]).
    copied_bytes: LazyCounter,
}

impl DafsClient {
    /// Establish a session with the DAFS server at `(server, port)`.
    pub fn connect(
        ctx: &ActorCtx,
        fabric: &ViaFabric,
        nic: &ViaNic,
        server: HostId,
        port: u16,
        config: DafsClientConfig,
    ) -> DafsResult<DafsClient> {
        let ptag = nic.create_ptag();
        let vi = fabric.connect(ctx, nic, server, port, Self::vi_attrs(ptag))?;
        let (req_ring, recv_ring) = Self::register_rings(ctx, nic, ptag);
        Self::post_recv_ring(ctx, &vi, &recv_ring);
        let host = nic.host().id.0 as u64;
        let labels = Labels::NONE.host(host).server(server.0 as u64);
        let regcache = RegCache::new(
            nic.clone(),
            ptag,
            REGCACHE_CAPACITY,
            config.use_regcache,
            labels,
        );
        let client_id = vi.id().0;
        let client = DafsClient {
            vi: Mutex::new(vi),
            ptag,
            nic: nic.clone(),
            fabric: fabric.clone(),
            server,
            port,
            config,
            caps: Mutex::new(ServerCaps {
                credits: CREDITS,
                inline_max: config.inline_max,
            }),
            client_id,
            table: Mutex::new(RequestTable::new(CREDITS as usize)),
            req_ring,
            recv_ring: Mutex::new(recv_ring),
            regcache,
            scratch: Mutex::new(None),
            cache: Mutex::new(PageCache::new(CACHE_PAGE, CACHE_CAPACITY)),
            stats: DafsClientStats::at(labels),
            cache_stats: DafsCacheStats::at(labels),
            copied_bytes: LazyCounter::new("dafs.inline.copied_bytes"),
        };
        // The Hello rides the faulted fabric, so it gets the bounded redials
        // any request gets: a redial posts its own Hello, the one taken.
        let take = |hello: DafsResult<u32>| hello.and_then(|h| client.take_hello(ctx, h));
        let caps = client.redial(ctx, take(Ok(client.post_hello(ctx))), take)?;
        ctx.metrics().counter("dafs.sessions").inc();
        // Pre-register the event counters benches read back, so a run where
        // the event never fires still snapshots an explicit zero and checked
        // lookups (`Snapshot::expect`) can tell "never happened" from a typo.
        for name in ["dafs.reconnects", "dafs.direct_fallbacks", "dafs.list.reqs"] {
            let _ = ctx.metrics().counter(name);
        }
        let (rc, cs) = (&client.regcache, &client.cache_stats);
        let regcache = [&rc.hits, &rc.misses, &rc.evictions];
        let cache = [&cs.hits, &cs.attr_hits, &cs.flush_batches, &cs.flush_pages];
        for lazy in regcache.into_iter().chain(cache) {
            lazy.resolve(ctx.metrics());
        }
        ctx.trace(
            "dafs",
            "session.connect",
            &[
                ("server", obs::Value::U64(server.0 as u64)),
                ("credits", obs::Value::U64(caps.credits as u64)),
                ("inline_max", obs::Value::U64(caps.inline_max)),
            ],
        );
        Ok(client)
    }

    /// The attributes of every VI the session dials: its one tag.
    fn vi_attrs(ptag: ProtectionTag) -> ViAttributes {
        ViAttributes {
            ptag: Some(ptag),
            ..ViAttributes::default()
        }
    }

    /// One session's two rings of [`CREDITS`] slots each, allocated and
    /// registered once, under the session's protection tag: the request
    /// ring, then the receive ring.
    fn register_rings(
        ctx: &ActorCtx,
        nic: &ViaNic,
        ptag: ProtectionTag,
    ) -> (Vec<Slot>, VecDeque<Slot>) {
        let attrs = MemAttributes::local(ptag);
        let slot = |_| {
            let buf = nic.host().mem.alloc(SLOT as usize);
            (buf, nic.register_mem(ctx, buf, SLOT, attrs))
        };
        let req_ring = (0..CREDITS).map(slot).collect();
        (req_ring, (0..CREDITS).map(slot).collect())
    }

    /// Post receive-ring `slots` on `vi`, in order.
    fn post_recv_ring<'a>(ctx: &ActorCtx, vi: &Vi, slots: impl IntoIterator<Item = &'a Slot>) {
        for &(buf, h) in slots {
            let seg = DataSegment::new(buf, SLOT as u32, h);
            vi.post_recv(ctx, RecvDesc::new(vec![seg]));
        }
    }

    /// Introduce the session on the live VI: post a `Hello` carrying the
    /// stable client id and the optional QoS tenant extension `(tenant id
    /// u64, weight u32)` — the request that opens a session on a new VI,
    /// outside the window ([`RequestTable::open`]) — and return its id
    /// without waiting for the reply: [`Self::take_hello`] takes it. The VI
    /// delivers in order and the server serves a VI's frames in arrival
    /// order, so whatever is posted behind the Hello is served after it has
    /// bound the session, and its reply is the first on the VI.
    fn post_hello(&self, ctx: &ActorCtx) -> u32 {
        let mut e = Enc::new();
        e.u64(self.client_id);
        if let Some((t, w)) = self.config.tenant {
            e.u64(t).u32(w);
        }
        let id = self.table.lock().open(|_| None);
        self.post_request_raw(ctx, id, DafsOp::Hello, &e.finish(), Payload::None);
        id
    }

    /// Take Hello `id` out of the request table — its reply, waited for if
    /// it has not arrived; none if its VI broke first — and install the
    /// capabilities the reply offers: never more credits than the receive
    /// ring has descriptors for the replies (the credits are the request
    /// table's window), and an inline limit that cuts a transfer into
    /// chunks.
    fn take_hello(&self, ctx: &ActorCtx, id: u32) -> DafsResult<ServerCaps> {
        let payload = self.collect(id, self.await_reply(ctx, id))?;
        let mut d = Dec::new(&payload);
        // The first byte is unused (always 0).
        d.u8().map_err(|_| DafsError::Protocol)?;
        let credits = d.u32().map_err(|_| DafsError::Protocol)?;
        let inline_max = d.u64().map_err(|_| DafsError::Protocol)?;
        let caps = ServerCaps {
            credits: credits.min(CREDITS),
            inline_max: inline_max.min(self.config.inline_max).max(1),
        };
        *self.caps.lock() = caps;
        self.table.lock().set_window(caps.credits.max(1) as usize);
        Ok(caps)
    }

    /// The capabilities negotiated at session setup (and re-negotiated by
    /// a reconnect).
    pub fn caps(&self) -> ServerCaps {
        *self.caps.lock()
    }

    /// The session's registration cache, whose `hits`, `misses` and
    /// `evictions` are its `{host, server}` series of `dafs.regcache.*`
    /// (shared as [`DafsClientStats`] says).
    pub fn regcache(&self) -> &RegCache {
        &self.regcache
    }

    /// Bytes currently pinned by the registration cache. With the cache
    /// enabled this stays at the cached working-set size between
    /// operations, reconnects included; it must return to zero after
    /// [`DafsClient::regcache_flush`].
    pub fn regcache_pinned(&self) -> u64 {
        self.regcache.pinned()
    }

    /// Deregister every cached registration now (also done on disconnect).
    pub fn regcache_flush(&self, ctx: &ActorCtx) {
        self.regcache.flush(ctx);
    }

    /// The client NIC.
    pub fn nic(&self) -> &ViaNic {
        &self.nic
    }

    /// A fresh id for a blocking call: while the window is full, receive
    /// replies; while the session has lost requests, re-post them first.
    fn fresh_id(&self, ctx: &ActorCtx) -> u32 {
        loop {
            if let Some(id) = self.table.lock().post(|_| None) {
                return id;
            }
            if !self.make_room(ctx) {
                self.recover(ctx, true, None);
            }
        }
    }

    /// Receive a reply, which gives up the oldest's place in the window
    /// once it is in; false if the session has lost requests, or loses
    /// them now.
    fn make_room(&self, ctx: &ActorCtx) -> bool {
        let lost = self.table.lock().lost();
        !lost && self.receive(ctx, true).is_ok()
    }

    /// Post a request under an id from the table — the replay path reuses an
    /// id so the server can recognize a retransmitted operation.
    ///
    /// The frame is assembled once, in the buffer that goes on the wire,
    /// and rides the send as a zero-copy payload. The descriptor's segments
    /// still describe the transfer (TPT check, every cost term): the
    /// registered request slot, charged for the copy into it, and — a
    /// [`Payload::Pinned`] only — one segment per payload range, in place
    /// under the region's registration, so the slot holds the header,
    /// arguments (a list's segment list among them) and length prefix and
    /// only those are charged. Only the bounce through the slot is skipped.
    fn post_request_raw(
        &self,
        ctx: &ActorCtx,
        reqid: u32,
        op: DafsOp,
        args: &[u8],
        payload: Payload<'_>,
    ) {
        let frame = request_frame(&self.nic.host().mem, reqid, op, args, payload);
        self.stats.ops.resolve(ctx.metrics()).inc();
        self.nic.host().compute(ctx, self.config.per_op);
        let header = frame.len() as u64 - payload.len();
        let (copied, in_place) = match payload {
            Payload::Pinned(s, h) => {
                let segs = s
                    .runs()
                    .map(|(addr, len)| DataSegment::new(addr, len as u32, h));
                (0, segs.collect())
            }
            p => (p.len(), Vec::new()),
        };
        self.charge_copy(ctx, header, copied);
        let (buf, h) = self.req_ring[reqid as usize % self.req_ring.len()];
        let vi = self.vi.lock();
        // Drain stale send completions to keep the port bounded.
        while vi.send_done(ctx).is_some() {}
        let mut segs = vec![DataSegment::new(buf, (header + copied) as u32, h)];
        segs.extend(in_place);
        vi.post_send(ctx, SendDesc::send(segs).with_payload(frame));
    }

    /// Take one reply off the receive ring into the request table —
    /// waiting for it, or (`block` false, the split-phase `test` path) only
    /// one already there: false if none was. Each VIA poll charges the
    /// NIC's poll cost, so polling is **not** virtual-time-free. The
    /// completion carries the delivered frame, so the posted buffer is
    /// never re-read; its descriptor goes back on the ring at once. A VI
    /// that has broken loses the session: every request posted on it is
    /// lost.
    fn receive(&self, ctx: &ActorCtx, block: bool) -> DafsResult<bool> {
        let vi = self.vi.lock();
        let up = vi.state() == ViState::Connected;
        let got = match block {
            _ if !up => None,
            true => Some(vi.recv_wait(ctx)),
            false => vi.recv_done(ctx),
        };
        let completion = match got {
            Some(c) if c.status == ViaStatus::Success => c,
            None if up => return Ok(false),
            c => {
                self.table.lock().session_lost();
                let status = c.map_or(ViaStatus::ConnectionLost, |c| c.status);
                return Err(DafsError::Transport(status));
            }
        };
        let slot = {
            let mut ring = self.recv_ring.lock();
            let slot = ring.pop_front().expect("recv ring");
            ring.push_back(slot);
            slot
        };
        Self::post_recv_ring(ctx, &vi, [&slot]);
        // A successful two-sided receive carries its frame; only an RDMA
        // Write with immediate, which no server sends, comes without one.
        let resp = completion.payload.ok_or(DafsError::Protocol)?;
        let mut d = Dec::new(&resp);
        let (rid, _) = proto::dec_resp_header(&mut d).map_err(|_| DafsError::Protocol)?;
        if rid != 0 {
            self.table.lock().arrived(rid, resp);
        } else if let Ok((fh, recall_id)) = proto::dec_recall_push(&mut d) {
            // Unsolicited server push (request ids start at 1): a lease
            // recall. Only queue it here — this runs under the VI lock, and
            // servicing means flushing and acking over that same VI.
            self.cache.lock().queue_recall(fh.0, recall_id);
        }
        Ok(true)
    }

    /// Wait until the reply to `id` is in the table, receiving others'; an
    /// error once the session lost it (or it was given up).
    fn await_reply(&self, ctx: &ActorCtx, id: u32) -> DafsResult<()> {
        while self.table.lock().state(id) == Some(State::Posted) {
            self.receive(ctx, true)?;
        }
        let arrived = self.table.lock().state(id) == Some(State::Arrived);
        arrived.then_some(()).ok_or(LOST)
    }

    /// Take request `id` out of the table and, if its reply `arrived`,
    /// check the reply's status and return a view of its payload.
    fn collect(&self, id: u32, arrived: DafsResult<()>) -> DafsResult<Bytes> {
        let resp = self.table.lock().take(id);
        let resp = arrived.and(resp.ok_or(LOST))?;
        let mut d = Dec::new(&resp);
        let (_, status) = proto::dec_resp_header(&mut d).map_err(|_| DafsError::Protocol)?;
        if status != DafsStatus::Ok {
            return Err(DafsError::Status(status));
        }
        Ok(resp.slice(5..))
    }

    /// Synchronous request/response with session recovery: a transport
    /// failure re-establishes the session (bounded backoff) and replays the
    /// request under its original id, so the server-side replay cache makes
    /// non-idempotent operations exactly-once.
    fn call(&self, ctx: &ActorCtx, op: DafsOp, args: &mut Enc) -> DafsResult<Bytes> {
        self.call_with(ctx, op, args, Payload::None)
    }

    /// [`Self::call`] for a request that ends in an inline payload. A
    /// replay rebuilds its frame from the same place: the caller's write
    /// has not returned, so the bytes there are the ones first sent.
    fn call_with(
        &self,
        ctx: &ActorCtx,
        op: DafsOp,
        args: &mut Enc,
        payload: Payload<'_>,
    ) -> DafsResult<Bytes> {
        let args = std::mem::take(args).finish();
        let id = self.fresh_id(ctx);
        let arrived = self.deliver(ctx, false, id, op, &args, payload);
        self.collect(id, arrived)
    }

    /// The one retry identity: post request `id` — fresh, or lost and now
    /// re-posted under its own id — and wait for its reply; while that
    /// fails with a transport failure, or first if `redial` (the VI is known
    /// dead), redial and post it again, where [`recover::around_hello`]
    /// places it behind the Hello. A failed redial falls through: the repost
    /// fails fast on the dead VI, and the next attempt waits longer.
    fn deliver(
        &self,
        ctx: &ActorCtx,
        redial: bool,
        id: u32,
        op: DafsOp,
        args: &[u8],
        payload: Payload<'_>,
    ) -> DafsResult<()> {
        let post = |hello: Option<u32>| {
            let [first, behind] = recover::around_hello(hello, id, self.req_ring.len());
            // A Hello the server refused leaves the new VI unbound, and the
            // server refuses the request behind it too: that reply is what
            // the request reports.
            let take = |h: Option<u32>| h.map(|h| self.take_hello(ctx, h).ok());
            let _ = take(first);
            self.table.lock().repost(id);
            self.post_request_raw(ctx, id, op, args, payload);
            let _ = take(behind);
            self.await_reply(ctx, id)
        };
        let first = if redial { Err(LOST) } else { post(None) };
        self.redial(ctx, first, |h| post(h.ok()))
    }

    /// The one redial loop: while `res` is a transport failure, redial
    /// ([`Self::reconnect`]), up to `max_reconnects` times, and make `res`
    /// again of the redial's Hello id, or of its failure.
    fn redial<T>(
        &self,
        ctx: &ActorCtx,
        mut res: DafsResult<T>,
        again: impl Fn(DafsResult<u32>) -> DafsResult<T>,
    ) -> DafsResult<T> {
        for attempt in 1..=self.config.max_reconnects {
            if !matches!(res, Err(DafsError::Transport(_) | DafsError::Connect(_))) {
                break;
            }
            res = again(self.reconnect(ctx, attempt));
        }
        res
    }

    /// Synchronous request/response with **no** recovery, for what must
    /// not outlive its session: a lease grant, and the goodbye.
    fn call_once(&self, ctx: &ActorCtx, op: DafsOp, args: &mut Enc) -> DafsResult<Bytes> {
        let id = self.fresh_id(ctx);
        let args = std::mem::take(args).finish();
        self.post_request_raw(ctx, id, op, &args, Payload::None);
        self.collect(id, self.await_reply(ctx, id))
    }

    /// Replace the dead VI with a fresh one under the session's tag, and
    /// post the Hello that re-binds the server side: its id, for the caller
    /// to [`Self::take_hello`] once it has posted its request behind it.
    /// What the session registered — both rings, the registration cache's
    /// entries and the ranges it has seen — is the NIC's under that tag,
    /// not the VI's, and stays: the receive ring is re-posted on the new
    /// VI. What was the dead session's goes: leases and clean cached pages.
    /// Its requests stay in the table, lost, for their re-posts.
    fn reconnect(&self, ctx: &ActorCtx, attempt: u32) -> DafsResult<u32> {
        ctx.metrics().counter("dafs.reconnects").inc();
        let fields = [("attempt", obs::Value::U64(attempt as u64))];
        ctx.trace("dafs", "session.reconnect", &fields);
        // The first dial goes at once; exponential backoff from the second
        // rides out transient outages (link flaps, server crash windows)
        // without hammering the connection manager.
        if attempt > 1 {
            ctx.advance(RECONNECT_BACKOFF.saturating_mul(1u64 << (attempt - 2).min(20)));
        }
        // The NIC refuses RDMA aimed at an end that has left `Connected`;
        // that, not a change of tag, keeps the old session's stale RDMA out
        // of the buffers the new one reuses. So the old VI is closed before
        // the new one is dialled — a no-op on one already broken or aborted.
        self.vi.lock().disconnect(ctx);
        let (fabric, attrs) = (&self.fabric, Self::vi_attrs(self.ptag));
        let vi = fabric.connect(ctx, &self.nic, self.server, self.port, attrs)?;
        // Revalidate-on-reconnect: the server reclaimed our leases the
        // moment it saw ConnectionLost, so every cached object is suspect.
        // Clean state is dropped; dirty write-back pages survive and are
        // re-flushed through the new session by the next cache entry point
        // (those writes carry fresh request ids, so the replay cache keeps
        // them exactly-once even if this session dies too).
        let dropped = self.cache.lock().session_lost();
        cache::dropped(&mut Live(self, ctx), dropped);
        // The rings and the registration cache stay registered under the
        // session's tag, which the new VI carries.
        Self::post_recv_ring(ctx, &vi, &*self.recv_ring.lock());
        *self.vi.lock() = vi;
        // Re-introduce ourselves so the server re-keys its replay cache to
        // this client's stable id; a declared tenant binding rides along so
        // the scheduler keeps treating the new session as the same tenant.
        // The caller takes its reply, after posting what needed the redial.
        Ok(self.post_hello(ctx))
    }

    fn call_attr(&self, ctx: &ActorCtx, op: DafsOp, args: &mut Enc) -> DafsResult<FileAttr> {
        let payload = self.call(ctx, op, args)?;
        proto::dec_attr(&mut Dec::new(&payload)).map_err(|_| DafsError::Protocol)
    }

    /// Fetch attributes. Of a file this session caches
    /// ([`Self::cache_file`]): free while a lease is held, one lease
    /// acquisition (which seeds the cache) otherwise, a GETATTR when the
    /// server denies the lease. Of any other file: a GETATTR.
    pub fn getattr(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<FileAttr> {
        cache::getattr(&mut Live(self, ctx), fh.0)
    }

    /// The GETATTR itself, for the one caller already past the cache: the
    /// cache's driver (`CacheIo::getattr`).
    fn getattr_wire(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<FileAttr> {
        self.call_attr(ctx, DafsOp::GetAttr, Enc::new().u64(fh.0))
    }

    /// Truncate / extend.
    pub fn truncate(&self, ctx: &ActorCtx, fh: NodeId, size: u64) -> DafsResult<FileAttr> {
        cache::past_cache(&mut Live(self, ctx), fh.0, true)?;
        let a = self.call_attr(ctx, DafsOp::SetAttr, Enc::new().u64(fh.0).u8(1).u64(size))?;
        // Resizing invalidates every cached page of the file.
        self.note_wrote(ctx, fh, 0, u64::MAX, AttrAfter::Set(a));
        Ok(a)
    }

    /// Directory lookup.
    pub fn lookup(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> DafsResult<FileAttr> {
        self.call_attr(ctx, DafsOp::Lookup, Enc::new().u64(dir.0).str(name))
    }

    /// Create a regular file.
    pub fn create(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> DafsResult<FileAttr> {
        self.call_attr(ctx, DafsOp::Create, Enc::new().u64(dir.0).str(name))
    }

    /// Create a directory.
    pub fn mkdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> DafsResult<FileAttr> {
        self.call_attr(ctx, DafsOp::Mkdir, Enc::new().u64(dir.0).str(name))
    }

    /// Remove a regular file.
    pub fn remove(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> DafsResult<()> {
        self.call(ctx, DafsOp::Remove, Enc::new().u64(dir.0).str(name))
            .map(|_| ())
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> DafsResult<()> {
        self.call(ctx, DafsOp::Rmdir, Enc::new().u64(dir.0).str(name))
            .map(|_| ())
    }

    /// Rename.
    pub fn rename(
        &self,
        ctx: &ActorCtx,
        from: NodeId,
        name: &str,
        to: NodeId,
        to_name: &str,
    ) -> DafsResult<()> {
        self.call(
            ctx,
            DafsOp::Rename,
            Enc::new().u64(from.0).str(name).u64(to.0).str(to_name),
        )
        .map(|_| ())
    }

    /// List a directory.
    pub fn readdir(&self, ctx: &ActorCtx, dir: NodeId) -> DafsResult<Vec<(String, NodeId)>> {
        let payload = self.call(ctx, DafsOp::ReadDir, Enc::new().u64(dir.0))?;
        let mut d = Dec::new(&payload);
        let n = d.u32().map_err(|_| DafsError::Protocol)?;
        let entry = |d: &mut Dec<'_>| d.u64().and_then(|id| Ok((d.str()?, NodeId(id))));
        let entries: Result<_, _> = (0..n).map(|_| entry(&mut d)).collect();
        entries.map_err(|_| DafsError::Protocol)
    }

    /// Atomic append: write `data` at the current end of file in one
    /// server-side operation; returns the offset the record landed at.
    /// Bounded by the session's inline limit (protocol message size).
    pub fn append(&self, ctx: &ActorCtx, fh: NodeId, data: &[u8]) -> DafsResult<u64> {
        assert!(
            data.len() as u64 <= self.caps().inline_max,
            "append record exceeds the inline limit"
        );
        cache::past_cache(&mut Live(self, ctx), fh.0, true)?;
        let mut e = Enc::new();
        e.u64(fh.0);
        let payload = self.call_with(ctx, DafsOp::Append, &mut e, Payload::Slice(data))?;
        self.account(ctx, BatchDir::Write, false, data.len() as u64);
        let mut d = Dec::new(&payload);
        let at = d.u64().map_err(|_| DafsError::Protocol)?;
        if let Ok(a) = proto::dec_attr(&mut d) {
            self.note_wrote(ctx, fh, at, data.len() as u64, AttrAfter::Set(a));
        }
        Ok(at)
    }

    /// Flush to stable storage (MPI_File_sync bottom half).
    pub fn flush(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<()> {
        self.call(ctx, DafsOp::Flush, Enc::new().u64(fh.0))
            .map(|_| ())
    }

    /// Acquire the whole-file exclusive lock (blocks until granted).
    pub fn lock(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<()> {
        self.call(ctx, DafsOp::Lock, Enc::new().u64(fh.0))
            .map(|_| ())
    }

    /// Release the whole-file lock.
    pub fn unlock(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<()> {
        self.call(ctx, DafsOp::Unlock, Enc::new().u64(fh.0))
            .map(|_| ())
    }

    /// End the session.
    pub fn disconnect(&self, ctx: &ActorCtx) {
        // Flush write-back data and hand leases back before the goodbye.
        // A session that never cached skips this without touching the
        // clock or the wire.
        let _ = cache::cache_shutdown(&mut Live(self, ctx));
        let _ = self.call_once(ctx, DafsOp::Disconnect, &mut Enc::new());
        self.regcache.flush(ctx);
        self.vi.lock().disconnect(ctx);
        ctx.trace("dafs", "session.disconnect", &[]);
    }

    /// Abruptly drop the VIA connection with no protocol goodbye — what the
    /// server sees of a client crash. The server observes `ConnectionLost`
    /// on the session's VI and must tear the session down (releasing its
    /// locks). What the session registered stays, as across any break: a
    /// later call redials onto it.
    pub fn abort(&self, ctx: &ActorCtx) {
        self.vi.lock().disconnect(ctx);
        ctx.trace("dafs", "session.abort", &[]);
    }

    /// Resolve a slash-separated path from the root.
    pub fn resolve(&self, ctx: &ActorCtx, path: &str) -> DafsResult<FileAttr> {
        let mut cur = memfs::ROOT_ID;
        let mut attr = self.getattr(ctx, cur)?;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            attr = self.lookup(ctx, cur, part)?;
            cur = attr.id;
        }
        Ok(attr)
    }

    // ----- lease-coherent cache ---------------------------------------------
    //
    // The state machine and the driver that sequences it are in
    // `crate::cache`; here is what they may not do themselves — wire,
    // clock, simulated memory, metrics, traces (`Live`, below this impl).
    // Strictly opt-in: a session that enrols no file holds nothing, and
    // every driver step then returns before any of those.

    /// From now on, and for the life of this session (reconnects included),
    /// [`Self::read`], [`Self::write`] and [`Self::getattr`] of `fh` go
    /// through the lease-coherent cache — from every caller, so the file is
    /// coherent through every handle this session has on it. No wire, no
    /// clock: the first access asks for the lease.
    pub fn cache_file(&self, fh: NodeId) {
        self.cache.lock().enrol(fh.0);
    }

    /// Whether [`Self::cache_file`] enrolled `fh`.
    pub fn caches(&self, fh: NodeId) -> bool {
        self.cache.lock().caches(fh.0)
    }

    /// The server acknowledged a write of `[off, off + len)`.
    fn note_wrote(&self, ctx: &ActorCtx, fh: NodeId, off: u64, len: u64, attr: AttrAfter) {
        let dropped = self.cache.lock().wrote(fh.0, off, len, attr);
        cache::dropped(&mut Live(self, ctx), dropped);
    }

    /// Flush every dirty write-back page to the server (the cache half of
    /// MPI_File_sync). Leases stay held. Returns the number of pages
    /// flushed — zero means the sync cost no wire traffic at all, which
    /// callers use to skip the server-side `Flush` commit round trip.
    pub fn cache_sync(&self, ctx: &ActorCtx) -> DafsResult<u64> {
        cache::cache_sync(&mut Live(self, ctx))
    }

    /// Voluntarily hand the lease on `fh` back after flushing it — the
    /// recall-ack wire path with the reserved recall id 0.
    pub fn cache_release(&self, ctx: &ActorCtx, fh: NodeId) -> DafsResult<()> {
        cache::hand_back(&mut Live(self, ctx), fh.0, 0)
    }

    // ----- data path ------------------------------------------------------

    /// The one site the transfer rule is asked: `cut` with the rule the
    /// latest Hello installed, and what is warm in the registration cache.
    fn cut(&self, cut: impl FnOnce(&Rule, Warm) -> Vec<Sub>) -> Vec<Sub> {
        let caps = self.caps();
        let rule = Rule {
            inline_max: caps.inline_max,
            direct_threshold: self.config.direct_threshold,
            list_max_segments: proto::LIST_MAX_SEGMENTS,
            via: *self.nic.cost(),
        };
        cut(&rule, &mut |addr, len| self.regcache.warm(addr, len))
    }

    /// Read `len` bytes at `off` into the user buffer `dst`.
    /// Returns bytes actually read (short at EOF). On a file this session
    /// caches ([`Self::cache_file`]), pages under a valid lease are served
    /// with one local copy; missing ones are fetched from the server in
    /// contiguous page-aligned runs and kept.
    pub fn read(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        dst: VirtAddr,
        len: u64,
    ) -> DafsResult<u64> {
        let mem = &self.nic.host().mem;
        let sink = |rel, bytes: &[u8]| mem.write(dst.offset(rel), bytes);
        let req = IoReq {
            off,
            addr: dst,
            len,
        };
        let wire = |_: &mut Live| {
            let moved = self.transfer_wire(ctx, BatchDir::Read, fh, req);
            moved.map(|(n, _)| n)
        };
        cache::read(&mut Live(self, ctx), fh.0, (off, len), sink, wire)
    }

    /// A blocking transfer: a batch of the one request, past the cache —
    /// where the cache's driver sends a read or write it does not serve,
    /// and what its own fetches are (which must not flush the file they
    /// pre-fault). Returns the bytes moved and, for a write, the attributes
    /// after it, which bring the cache in step.
    fn transfer_wire(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        fh: NodeId,
        req: IoReq,
    ) -> DafsResult<(u64, Option<FileAttr>)> {
        let b = self.begin(
            ctx,
            dir,
            fh,
            true,
            IoReq::in_range,
            plan::contiguous,
            &[req],
        );
        let (mut moved, attr) = self.finish(ctx, b);
        let n = moved.remove(0)?;
        if let Some(a) = attr {
            self.note_wrote(ctx, fh, req.off, req.len, AttrAfter::Set(a));
        }
        Ok((n, attr))
    }

    /// Write `len` bytes at `off` from the user buffer `src`. On a file
    /// this session caches ([`Self::cache_file`]) under a write-back lease
    /// (opt-in via [`DafsClientConfig::cache_write_back`]) the bytes buffer
    /// dirty at the client — one local copy now, flushed on recall, sync or
    /// close. Anything else goes to the server, keeping the cache in step.
    pub fn write(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        src: VirtAddr,
        len: u64,
    ) -> DafsResult<FileAttr> {
        let data = |_: &mut Live| self.nic.host().mem.read_vec(src, len as usize);
        let req = IoReq {
            off,
            addr: src,
            len,
        };
        let wire = |_: &mut Live| {
            self.transfer_wire(ctx, BatchDir::Write, fh, req)
                .map(written)
        };
        cache::write(&mut Live(self, ctx), fh.0, (off, len), data, wire)
    }

    /// Convenience: [`Self::read`] into a fresh vector. What comes off the
    /// wire stages through an internal scratch buffer (one extra mechanical
    /// copy, uncharged); what the cache serves lands in the vector itself —
    /// the cache's own fetches use that scratch buffer.
    pub fn read_to_vec(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        len: u64,
    ) -> DafsResult<Vec<u8>> {
        let out = RefCell::new(Vec::new());
        // The cache hands its pieces over in stream order.
        let sink = |_, bytes: &[u8]| out.borrow_mut().extend_from_slice(bytes);
        let wire = |s: &mut Live| {
            *out.borrow_mut() = s.fetch(fh.0, (off, len))?;
            Ok(out.borrow().len() as u64)
        };
        cache::read(&mut Live(self, ctx), fh.0, (off, len), sink, wire)?;
        Ok(out.into_inner())
    }

    /// Convenience: [`Self::write`] from a byte slice. The cache buffers
    /// the caller's bytes as they are; on the way to the wire they stage
    /// through the scratch buffer, once the rule's flush is done with it.
    pub fn write_bytes(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        data: &[u8],
    ) -> DafsResult<FileAttr> {
        let len = data.len() as u64;
        let own = |_: &mut Live| data.to_vec();
        let wire = |_: &mut Live| {
            let addr = self.scratch(data.len());
            self.nic.host().mem.write(addr, data);
            let req = IoReq { off, addr, len };
            self.transfer_wire(ctx, BatchDir::Write, fh, req)
                .map(written)
        };
        cache::write(&mut Live(self, ctx), fh.0, (off, len), own, wire)
    }

    fn scratch(&self, len: usize) -> VirtAddr {
        let mut s = self.scratch.lock();
        match *s {
            Some((addr, cap)) if cap >= len => addr,
            _ => {
                let cap = len.next_power_of_two().max(64 << 10);
                let addr = self.nic.host().mem.alloc(cap);
                *s = Some((addr, cap));
                addr
            }
        }
    }

    /// The one encoder: a sub's op, its arguments and where an inline
    /// write's bytes live, plus the registration its buffer rides under —
    /// a direct sub's, or an inline write's sent in place; `MemHandle(0)`
    /// for none — to [`release`](Self::release) once the reply is in. A
    /// retry encodes the sub again, and releases again.
    fn encode_sub<'a>(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        fh: NodeId,
        sb: &'a Sub,
    ) -> (DafsOp, Enc, Payload<'a>, (MemHandle, bool)) {
        // The one registered region a direct op transfers against, or the
        // one an in-place write's bytes ride under.
        let region = match sb.direct {
            true => Some(sb.region()),
            false => sb.pinned,
        };
        let (handle, transient) = match region {
            Some((addr, len)) => self.regcache.acquire(ctx, addr, len),
            None => (MemHandle(0), false),
        };
        // An inline write's bytes: in place under that registration, or
        // copied into the request slot.
        let inline = match sb.pinned {
            Some(_) => Payload::Pinned(sb, handle),
            None => Payload::Mem(sb),
        };
        let mut e = Enc::new();
        e.u64(fh.0);
        // The op, and where an inline write's payload lives.
        let (op, payload) = match (&sb.segs, dir) {
            (Some(segs), _) => {
                if sb.direct {
                    e.u8(1).u64(sb.addr.as_u64()).u64(handle.0);
                } else {
                    e.u8(0);
                }
                proto::enc_seg_list(&mut e, segs);
                match dir {
                    BatchDir::Read => (DafsOp::ReadList, Payload::None),
                    // The segments, packed, are the inline payload.
                    BatchDir::Write => (DafsOp::WriteList, inline),
                }
            }
            (None, BatchDir::Read) if sb.direct => {
                e.u64(sb.off)
                    .u64(sb.len)
                    .u64(sb.addr.as_u64())
                    .u64(handle.0);
                (DafsOp::ReadDirect, Payload::None)
            }
            (None, BatchDir::Read) => {
                e.u64(sb.off).u64(sb.len);
                (DafsOp::ReadInline, Payload::None)
            }
            (None, BatchDir::Write) => {
                e.u64(sb.off);
                (DafsOp::WriteInline, inline)
            }
        };
        (op, e, payload, (handle, transient))
    }

    /// Count `n` bytes moved `dir`, a read inline or `direct`, in the
    /// session's series of `dafs.inline.{read,write}.bytes` and
    /// `dafs.direct.read.bytes` (a write is always inline).
    fn account(&self, ctx: &ActorCtx, dir: BatchDir, direct: bool, n: u64) {
        let s = &self.stats;
        let meter = match (dir, direct) {
            (BatchDir::Read, false) => &s.inline_reads,
            (BatchDir::Read, true) => &s.direct_reads,
            (BatchDir::Write, _) => &s.inline_writes,
        };
        meter.resolve(ctx.metrics()).record(n);
    }

    /// Charge the client CPU one copy of `header + payload` bytes — into a
    /// request slot, or out of a reply — and count the `payload` ones in
    /// `dafs.inline.copied_bytes` (which costs no virtual time).
    fn charge_copy(&self, ctx: &ActorCtx, header: u64, payload: u64) {
        self.copied_bytes.resolve(ctx.metrics()).add(payload);
        self.nic.host().copy(ctx, header + payload);
    }

    /// Give back a registration [`Self::encode_sub`] acquired, if it did.
    fn release(&self, ctx: &ActorCtx, (handle, transient): (MemHandle, bool)) {
        if handle != MemHandle(0) {
            self.regcache.release(ctx, handle, transient);
        }
    }

    /// Post the batch's unposted subs while the request table has room:
    /// none while the session has lost requests.
    fn batch_fill(&self, ctx: &ActorCtx, b: &mut DafsBatch) {
        while b.next < b.subs.len() {
            let resend = Resend(b.dir, b.fh, b.subs.clone(), b.next);
            let Some(id) = self.table.lock().post(|_| Some(resend)) else {
                break;
            };
            let (op, args, payload, held) = self.encode_sub(ctx, b.dir, b.fh, &b.subs[b.next]);
            self.post_request_raw(ctx, id, op, &args.finish(), payload);
            b.inflight.push_back((id, b.next, held));
            b.next += 1;
        }
    }

    /// The one decoder, of a sub's reply payload (its status already
    /// checked by [`Self::collect`]): the bytes the sub moved — an
    /// inline read's copied out to the buffer — and the attributes a
    /// contiguous write's reply carries. The one byte meter too: what a sub
    /// moved is counted here, once it is acknowledged, however it got
    /// there. A reply that claims more than the sub asked for, or would
    /// land past its buffer, is a protocol error.
    fn sub_payload(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        sb: &Sub,
        payload: &Bytes,
    ) -> DafsResult<(u64, Option<FileAttr>)> {
        let mut d = Dec::new(payload);
        let mut attr = None;
        let n = match (dir, &sb.segs) {
            (BatchDir::Write, Some(_)) => sb.len,
            (BatchDir::Write, None) => {
                attr = Some(proto::dec_attr(&mut d).map_err(|_| DafsError::Protocol)?);
                sb.len
            }
            (BatchDir::Read, None) if sb.direct => {
                let n = d.u64().ok().filter(|&n| n <= sb.len);
                n.ok_or(DafsError::Protocol)?
            }
            (BatchDir::Read, None) => {
                let data = d.bytes().map_err(|_| DafsError::Protocol)?;
                if data.len() as u64 > sb.len {
                    return Err(DafsError::Protocol);
                }
                // Copy out of the message buffer into the user buffer.
                self.charge_copy(ctx, 0, data.len() as u64);
                self.nic.host().mem.write(sb.addr, &data);
                data.len() as u64
            }
            // Per-segment counts, then the packed payload in inline mode
            // (direct data already landed via RDMA).
            (BatchDir::Read, Some(segs)) => {
                let n = d.u32().map_err(|_| DafsError::Protocol)? as usize;
                if n != segs.len() {
                    return Err(DafsError::Protocol);
                }
                let counts: Result<Vec<u64>, _> = (0..n).map(|_| d.u64()).collect();
                let counts = counts.map_err(|_| DafsError::Protocol)?;
                // A count past its segment would land on the segment after it.
                if counts.iter().zip(segs).any(|(c, seg)| *c > seg.1) {
                    return Err(DafsError::Protocol);
                }
                if !sb.direct {
                    let data = d.bytes().map_err(|_| DafsError::Protocol)?;
                    self.charge_copy(ctx, 0, data.len() as u64);
                    let (mem, mut pos) = (&self.nic.host().mem, 0);
                    for (&c, &(_, _, rel)) in counts.iter().zip(segs) {
                        let piece = data.get(pos..pos + c as usize).ok_or(DafsError::Protocol)?;
                        mem.write(sb.addr.offset(rel), piece);
                        pos += c as usize;
                    }
                }
                counts.iter().sum()
            }
        };
        if let Some(segs) = &sb.segs {
            ctx.metrics().counter("dafs.list.reqs").inc();
            let n = segs.len() as u64;
            ctx.metrics().counter("dafs.list.segs").add(n);
        }
        self.account(ctx, dir, sb.direct, n);
        Ok((n, attr))
    }

    /// Retire the oldest in-flight sub: wait for its reply, unless the
    /// session has lost it — then it is left to the batch's
    /// [`Self::recover`], by its [`Kind`], and this returns true. (One
    /// another recovery gave up fails its request, or is redone.)
    fn batch_retire_front(&self, ctx: &ActorCtx, b: &mut DafsBatch) -> bool {
        let (id, s, held) = b.inflight.pop_front().expect("inflight");
        let arrived = self.await_reply(ctx, id);
        let lost = arrived.is_err() && self.table.lock().state(id).is_some();
        let res = arrived.and_then(|()| self.collect(id, Ok(())));
        let res = res.and_then(|payload| self.sub_payload(ctx, b.dir, &b.subs[s], &payload));
        self.release(ctx, held);
        match res {
            Err(_) if arrived.is_err() && b.subs[s].kind() == Kind::Redo => b.redo.push(s),
            Err(_) if lost => {}
            res => b.credit(s, res),
        }
        lost
    }

    /// The one recovery driver: run the [`recover::plan`] of what the
    /// session lost, if it `died`, and of what batch `b` has left. A step
    /// sends its sub as it was cut — a direct one as one direct op under a
    /// fresh id on the new VI, counting a `dafs.direct_fallbacks` —
    /// encode, deliver, release; a reply to `b` is decoded and credited at
    /// once, another batch's kept for it. A redo of a request that has
    /// failed is not pursued.
    fn recover(&self, ctx: &ActorCtx, died: bool, mut b: Option<&mut DafsBatch>) {
        let down = self.vi.lock().state() != ViState::Connected;
        let rec = |id| self.table.lock().request(id).cloned().flatten();
        let kind = |id| rec(id).map_or(Kind::Drop, |r: Resend| r.2[r.3].kind());
        let ids = died.then(|| self.table.lock().session_lost());
        let lost: Vec<_> = ids.into_iter().flatten().map(|id| (id, kind(id))).collect();
        let (redo, rest) = match b.as_deref_mut() {
            Some(b) => (std::mem::take(&mut b.redo), b.next..b.subs.len()),
            None => (Vec::new(), 0..0),
        };
        for step in recover::plan(&lost, down, &redo, rest) {
            let (id, redial, Resend(dir, fh, subs, s)) = match (step, b.as_deref()) {
                (Step::GiveUp(id), _) => {
                    self.table.lock().take(id);
                    continue;
                }
                (Step::Repost { id, redial }, _) => (Some(id), redial, rec(id).expect("its sub")),
                (Step::Redo(s), Some(b)) if b.results[b.subs[s].owner].is_ok() => {
                    (None, false, Resend(b.dir, b.fh, b.subs.clone(), s))
                }
                (Step::Redo(_), _) => continue,
            };
            let sb = &subs[s];
            if sb.direct {
                ctx.metrics().counter("dafs.direct_fallbacks").inc();
            }
            let (op, args, payload, held) = self.encode_sub(ctx, dir, fh, sb);
            let id = id.unwrap_or_else(|| self.fresh_id(ctx));
            let arrived = self.deliver(ctx, redial, id, op, &args.finish(), payload);
            self.release(ctx, held);
            match b.as_deref_mut().filter(|b| Arc::ptr_eq(&b.subs, &subs)) {
                Some(b) => {
                    let res = self.collect(id, arrived);
                    b.credit(s, res.and_then(|p| self.sub_payload(ctx, dir, sb, &p)));
                }
                None => {
                    if arrived.is_err() {
                        self.table.lock().take(id);
                    }
                }
            }
        }
    }

    /// The single point every batch starts at: [`Self::cut`] its requests
    /// into subs with the planner function `cut`, and post what the credit
    /// window has room for. Its span starts here, and its `xfer` trace line
    /// is emitted once the window is filled.
    ///
    /// Batch ops go to the wire past the page cache, so every batch whose
    /// caller is not already `past` it first follows [`cache::past_cache`]
    /// (before the span, so a flush is never inside another transfer's).
    /// If that fails the batch is refused whole (nothing posted, every
    /// result the error), so the failure reaches the caller instead of
    /// hiding behind a batch that succeeded, or was replayed, past
    /// write-back data that never landed. So is a batch with a request
    /// that `in_range` finds past `u64::MAX`, before anything else: cut
    /// into inline chunks, its later chunks' offsets would wrap, and the
    /// server, which checks each message's range, would write them at the
    /// head of the file.
    #[allow(clippy::too_many_arguments)]
    fn begin<R>(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        fh: NodeId,
        past: bool,
        in_range: fn(&R) -> bool,
        cut: fn(BatchDir, &[R], &Rule, Warm) -> Vec<Sub>,
        reqs: &[R],
    ) -> DafsBatch {
        let in_range = reqs.iter().all(in_range);
        let refused = match (in_range, past) {
            (false, _) => Some(OUT_OF_RANGE),
            (true, true) => None,
            (true, false) => {
                cache::past_cache(&mut Live(self, ctx), fh.0, dir == BatchDir::Write).err()
            }
        };
        let start = ctx.now();
        let mut subs = match in_range {
            true => self.cut(|rule, warm| cut(dir, reqs, rule, warm)),
            false => Vec::new(),
        };
        subs.retain(|_| refused.is_none());
        let mut b = DafsBatch {
            dir,
            fh,
            start,
            subs: subs.into(),
            results: vec![refused.map_or(Ok(0), Err); reqs.len()],
            inflight: VecDeque::new(),
            next: 0,
            past,
            redo: Vec::new(),
            attr: None,
        };
        self.batch_fill(ctx, &mut b);
        let direct = b.subs.first().is_some_and(|s| s.direct);
        let mode = if direct { "direct" } else { "inline" };
        let len = b.subs.iter().map(|s| s.len).sum();
        ctx.trace(
            "dafs",
            "xfer",
            &[
                ("op", obs::Value::Str(dir.op())),
                ("mode", obs::Value::Str(mode)),
                ("len", obs::Value::U64(len)),
            ],
        );
        b
    }

    /// Issue half of a split-phase batch of contiguous requests on `fh`:
    /// expand them, post what the credit window has room for, and return
    /// without waiting.
    pub fn issue(&self, ctx: &ActorCtx, dir: BatchDir, fh: NodeId, reqs: &[IoReq]) -> DafsBatch {
        self.begin(ctx, dir, fh, false, IoReq::in_range, plan::contiguous, reqs)
    }

    /// Issue half of a split-phase vectored batch on `fh`: each request's
    /// segment list (sorted ascending and non-overlapping on both axes) is
    /// split across credit windows by the wire segment cap and posted like
    /// any other batch.
    pub fn issue_list(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        fh: NodeId,
        reqs: &[ListReq],
    ) -> DafsBatch {
        for r in reqs {
            assert!(
                proto::list_acceptable(&r.segs),
                "list request segments must be sorted and non-overlapping"
            );
        }
        self.begin(ctx, dir, fh, false, ListReq::in_range, plan::list, reqs)
    }

    /// Nonblocking progress on a split-phase batch: drain completions that
    /// already arrived, retire finished subs in order, and post freed
    /// credits. Returns true once every sub has retired (then
    /// [`Self::batch_finish`] will not block).
    /// A broken VI is left to [`Self::batch_finish`], which recovers.
    pub fn batch_test(&self, ctx: &ActorCtx, b: &mut DafsBatch) -> bool {
        while let Ok(true) = self.receive(ctx, false) {}
        let arrived = |id| self.table.lock().state(id) == Some(State::Arrived);
        while b.inflight.front().is_some_and(|&(id, ..)| arrived(id)) {
            self.batch_retire_front(ctx, b);
            self.batch_fill(ctx, b);
        }
        b.next == b.subs.len() && b.inflight.is_empty()
    }

    /// Completion half: block until every sub-request has retired — the
    /// batch's own, and, while another's hold the window, theirs arrive —
    /// then redo what died with the session, each sub that was posted under
    /// its own id. Returns per-request byte counts, in request order.
    pub fn batch_finish(&self, ctx: &ActorCtx, b: DafsBatch) -> Vec<DafsResult<u64>> {
        self.finish(ctx, b).0
    }

    /// [`Self::batch_finish`], and the attributes of the newest contiguous
    /// write reply.
    fn finish(&self, ctx: &ActorCtx, mut b: DafsBatch) -> (Vec<DafsResult<u64>>, Option<FileAttr>) {
        let _span = ctx.span_since("dafs", b.dir.op(), b.start);
        let mut died = false;
        loop {
            self.batch_fill(ctx, &mut b);
            if !b.inflight.is_empty() {
                died |= self.batch_retire_front(ctx, &mut b);
            } else if died || b.next == b.subs.len() {
                break;
            } else {
                // Other requests hold the window.
                died = !self.make_room(ctx);
            }
        }
        self.recover(ctx, died, Some(&mut b));
        // Self-coherence: drop any cached pages the batch overwrote — sub by
        // sub, once its request is acknowledged — and take the attributes
        // the replies carried, if they carried any. (A caller already past
        // the cache keeps it in step itself: the flush's driver retires what
        // it flushed, and a failed flush keeps it — the only copy of the
        // bytes — dirty for the next.)
        let written = b.dir == BatchDir::Write && !b.past;
        let acked = b
            .subs
            .iter()
            .filter(|sb| written && b.results[sb.owner].is_ok());
        for sb in acked {
            // A list sub, from its first segment to the end of its last.
            let (off, end) = match &sb.segs {
                Some(segs) => (segs[0].0, segs.last().map_or(0, |s| s.0 + s.1)),
                None => (sb.off, sb.off + sb.len),
            };
            let after = b.attr.map_or(AttrAfter::Forget, AttrAfter::Set);
            self.note_wrote(ctx, b.fh, off, end - off, after);
        }
        (b.results, b.attr)
    }
}

/// A session and the actor running it: the I/O under the cache's driver.
struct Live<'a>(&'a DafsClient, &'a ActorCtx);

impl CacheIo for Live<'_> {
    type Error = DafsError;

    fn cache(&mut self) -> impl DerefMut<Target = PageCache> + '_ {
        self.0.cache.lock()
    }

    fn write_back(&self) -> bool {
        self.0.config.cache_write_back
    }

    fn count(&mut self, stat: CacheStat, n: u64) {
        let Live(c, ctx) = *self;
        c.cache_stats.of(stat).resolve(ctx.metrics()).add(n);
    }

    fn charge_copy(&mut self, bytes: u64) {
        let Live(c, ctx) = *self;
        c.nic.host().copy(ctx, bytes);
    }

    fn note_recall(&mut self, fh: u64, id: u32) {
        let fields = [
            ("fh", obs::Value::U64(fh)),
            ("recall", obs::Value::U64(id as u64)),
        ];
        self.1.trace("dafs", "cache.recall", &fields);
    }

    /// Recall pushes land in the recv ring; each poll charges the NIC.
    fn poll(&mut self) {
        while let Ok(true) = self.0.receive(self.1, false) {}
    }

    /// Through the non-replaying path: grants are session state, so
    /// replaying one across a reconnect would resurrect a lease the server
    /// already reclaimed.
    fn lease_grant(&mut self, fh: u64, kind: LeaseKind) -> DafsResult<Option<FileAttr>> {
        let payload = match self.0.call_once(
            self.1,
            DafsOp::LeaseGrant,
            Enc::new().u64(fh).u8(kind as u8),
        ) {
            Err(DafsError::Transport(_) | DafsError::Connect(_)) => return Ok(None),
            reply => reply?,
        };
        let mut d = Dec::new(&payload);
        let granted = d.u8().map_err(|_| DafsError::Protocol)? != 0;
        let attr = proto::dec_attr(&mut d).map_err(|_| DafsError::Protocol)?;
        Ok(granted.then_some(attr))
    }

    /// Through the replayable path: if the session dies mid-ack the replay
    /// re-drops an already-absent lease, a no-op, so recalls racing loss
    /// stay exactly-once.
    fn lease_ack(&mut self, fh: u64, id: u32) -> DafsResult<()> {
        self.0
            .call(self.1, DafsOp::LeaseRecallAck, Enc::new().u64(fh).u32(id))
            .map(|_| ())
    }

    /// One [`DafsClient::transfer_wire`] read into the shared scratch
    /// buffer: a batch of the one request, already past the cache.
    fn fetch(&mut self, fh: u64, (off, len): Run) -> DafsResult<Vec<u8>> {
        let Live(c, ctx) = *self;
        let addr = c.scratch(len as usize);
        let req = IoReq { off, addr, len };
        let (n, _) = c.transfer_wire(ctx, BatchDir::Read, NodeId(fh), req)?;
        Ok(c.nic.host().mem.read_vec(addr, n as usize))
    }

    /// The sorted dirty runs go through the scratch buffer as one vectored
    /// `WriteList` batch — one wire request per credit-window chunk, not
    /// one per extent. A flush interrupted by session death is redone by
    /// the batch's recovery, its inline requests under their own ids, so
    /// the bytes still land exactly once.
    fn flush(
        &mut self,
        fh: u64,
        segs: Vec<proto::ListSeg>,
        data: Vec<u8>,
    ) -> (u64, DafsResult<()>) {
        let Live(c, ctx) = *self;
        let buf = c.scratch(data.len());
        c.nic.host().mem.write(buf, &data);
        let ops = &c.stats.ops;
        let before = ops.get();
        let reqs = [ListReq { segs, buf }];
        let b = c.begin(
            ctx,
            BatchDir::Write,
            NodeId(fh),
            true,
            ListReq::in_range,
            plan::list,
            &reqs,
        );
        let res = c.batch_finish(ctx, b).remove(0);
        (ops.get() - before, res.map(|_| ()))
    }

    fn getattr(&mut self, fh: u64) -> DafsResult<FileAttr> {
        self.0.getattr_wire(self.1, NodeId(fh))
    }
}
