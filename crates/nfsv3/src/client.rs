//! The NFS client: RPCs over a TCP socket, an attribute cache, and
//! rsize/wsize transfer chunking — the pieces of a 2001 kernel NFS client
//! that matter for I/O performance. Every READ and WRITE is one
//! [`NfsTransfer`] of rsize / wsize RPCs: the blocking calls keep one in
//! flight, the baseline as it was measured; the split-phase ones post the
//! whole range at once. They differ in nothing else.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use memfs::{FileAttr, NodeId};
use parking_lot::Mutex;
use simnet::obs::{Labels, LazyCounter};
use simnet::reqtab::RequestTable;
use simnet::time::units::*;
use simnet::window::{Outcome, Window};
use simnet::{ActorCtx, Bytes, Host, HostId, Rope, SimDuration, SimTime};
use tcpnet::{TcpError, TcpFabric};

use crate::proto::{self, NfsProc, NfsStatus, Stable, REPLAY_WINDOW};
use crate::xdr::{XdrDec, XdrEnc};

/// Multiplier applied to the retransmit timeout after each unanswered
/// attempt (exponential backoff).
const BACKOFF_FACTOR: u64 = 2;

/// Total send attempts of one RPC before it fails with
/// [`NfsError::TimedOut`] (`retrans` + 1).
const MAX_ATTEMPTS: u32 = 8;

/// Client CPU per RPC (encode/decode + RPC layer), beyond socket costs.
const PER_RPC_CPU: SimDuration = us(6);

/// Client configuration (mount options).
#[derive(Debug, Clone, Copy)]
pub struct NfsClientConfig {
    /// Maximum READ transfer per RPC.
    pub rsize: u64,
    /// Maximum WRITE transfer per RPC.
    pub wsize: u64,
    /// Timeout before the first retransmit of an unanswered RPC (the
    /// `timeo` mount option), doubling on each further attempt.
    ///
    /// It doubles as the attribute-cache lifetime (acregmin): one duration
    /// governs both how long the client trusts cached attributes and how
    /// long it waits before resending an unanswered RPC.
    ///
    /// Retransmission is only *armed* when the mount's `TcpFabric` has a
    /// fault plan attached. On a fault-free fabric nothing can be lost, and
    /// leaving the timer unarmed keeps fault-free runs byte-identical
    /// regardless of server load (a heavily queued server must not trigger
    /// spurious retransmits in baseline experiments).
    pub timeo: SimDuration,
    /// Default stability for writes.
    pub stable: Stable,
}

impl Default for NfsClientConfig {
    fn default() -> Self {
        NfsClientConfig {
            rsize: 32 << 10,
            wsize: 32 << 10,
            timeo: SimDuration::from_millis(30),
            stable: Stable::FileSync,
        }
    }
}

/// NFS client errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsError {
    /// Server returned a non-OK status.
    Status(NfsStatus),
    /// Transport failure; carries the socket-level cause.
    Transport(TcpError),
    /// Malformed reply.
    Protocol,
    /// Every retransmit attempt went unanswered (see [`NfsClientConfig::timeo`]).
    TimedOut,
}

impl From<TcpError> for NfsError {
    fn from(e: TcpError) -> NfsError {
        NfsError::Transport(e)
    }
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::Status(s) => write!(f, "NFS server returned {s:?}"),
            NfsError::Transport(e) => write!(f, "NFS transport failure: {e}"),
            NfsError::Protocol => write!(f, "malformed NFS reply"),
            NfsError::TimedOut => write!(f, "NFS call timed out after all retransmits"),
        }
    }
}

impl std::error::Error for NfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NfsError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias.
pub type NfsResult<T> = Result<T, NfsError>;

/// Client-side counters. The attribute cache's are the mount's
/// `{host, server}` series of `nfs.attrcache.*`, which every mount from the
/// host to that server shares; each reads 0 until this mount bumps it.
pub struct NfsClientStats {
    /// RPCs issued.
    pub rpcs: simnet::Counter,
    /// Attribute-cache hits: `nfs.attrcache.hits`.
    pub ac_hits: LazyCounter,
    /// Attribute-cache misses: `nfs.attrcache.misses`.
    pub ac_misses: LazyCounter,
}

/// A mounted NFS client.
pub struct NfsClient {
    sock: tcpnet::Socket,
    host: Host,
    config: NfsClientConfig,
    attr_cache: Mutex<HashMap<u64, (FileAttr, SimTime)>>,
    /// Whether the retransmit timer is armed. True only when the mount's
    /// fabric carried a fault plan: on a lossless fabric a reply always
    /// arrives, and never arming the timer keeps fault-free runs
    /// byte-identical no matter how slow the server is.
    retransmit: bool,
    /// Every xid sent and not yet collected: its framed request until the
    /// reply arrives, then the reply, as the socket handed it over. Its
    /// window is the nfsd's replay window, so the mount is a client slot
    /// table.
    table: Mutex<RequestTable<Bytes, Bytes>>,
    /// Client-side counters.
    pub stats: NfsClientStats,
}

impl NfsClient {
    /// Mount: connect to the server at `(server, port)` from `host`.
    pub fn mount(
        ctx: &ActorCtx,
        fabric: &TcpFabric,
        host: &Host,
        server: HostId,
        port: u16,
        config: NfsClientConfig,
    ) -> NfsResult<NfsClient> {
        let retransmit = fabric.fault_plan().is_some();
        // Pre-register so lossless runs snapshot an explicit zero and
        // checked bench lookups never mistake "absent" for "never fired".
        let _ = ctx.metrics().counter("nfs.retrans");
        let sock = fabric.connect(ctx, host, server, port)?;
        let labels = Labels::NONE.host(host.id.0 as u64).server(server.0 as u64);
        Ok(NfsClient {
            sock,
            host: host.clone(),
            config,
            attr_cache: Mutex::new(HashMap::new()),
            retransmit,
            table: Mutex::new(RequestTable::new(REPLAY_WINDOW)),
            stats: NfsClientStats {
                rpcs: simnet::Counter::new(),
                ac_hits: LazyCounter::at("nfs.attrcache.hits", labels),
                ac_misses: LazyCounter::at("nfs.attrcache.misses", labels),
            },
        })
    }

    /// The host the mount runs on: whose memory its callers' buffers are in.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// One synchronous RPC: its split-phase halves back to back, inside a
    /// whole-RPC virtual-time span (`nfs.rpc_ns` / `nfs.rpc.calls` for the
    /// per-layer breakdown, and one trace event on completion).
    fn call(&self, ctx: &ActorCtx, proc_: NfsProc, args: Args) -> NfsResult<Bytes> {
        let _span = ctx.span("nfs", "rpc");
        let xid = self.send_rpc(ctx, proc_, ARGS_ROOM, "rpc.start", args);
        self.recv_rpc(ctx, xid)
    }

    /// Issue half of one RPC: frame and send without waiting for the
    /// reply, traced as `event` (`rpc.start` for a blocking call,
    /// `rpc.issue` for a split-phase one, whose wall time overlaps the
    /// caller's other work, so it opens no span). `args` encodes the
    /// arguments straight into the call record, `room` bytes held for them.
    /// Returns the xid; the table keeps the framed request for the
    /// completion half to retransmit. While the window is full it waits for
    /// the oldest reply (retransmitting it), keeping the others: the window
    /// does not move past a lost reply until its retransmit is answered.
    fn send_rpc(
        &self,
        ctx: &ActorCtx,
        proc_: NfsProc,
        room: usize,
        event: &str,
        args: Args,
    ) -> u32 {
        let frame = |xid: u32| Bytes::from_vec(proto::call_record(xid, proc_, room, args));
        let xid = loop {
            if let Some(xid) = self.table.lock().post(&frame) {
                break xid;
            }
            let oldest = self.table.lock().oldest().expect("a full window");
            if self.await_reply(ctx, oldest).is_err() {
                // Given up: its own collection reports it timed out.
                self.table.lock().take(oldest);
            }
        };
        self.stats.rpcs.inc();
        if ctx.obs().enabled() {
            ctx.trace(
                "nfs",
                event,
                &[
                    ("xid", obs::Value::U64(xid as u64)),
                    ("proc", obs::Value::Str(&format!("{proc_:?}"))),
                ],
            );
        }
        self.host.compute(ctx, PER_RPC_CPU);
        let framed = self.table.lock().request(xid).cloned();
        self.sock.send_bytes(ctx, framed.expect("just posted"));
        xid
    }

    /// Completion half of one RPC: await the reply to `xid` and collect it
    /// — verify the status, return the payload, a view of the reply.
    fn recv_rpc(&self, ctx: &ActorCtx, xid: u32) -> NfsResult<Bytes> {
        let arrived = self.await_reply(ctx, xid);
        let reply = self.table.lock().take(xid);
        let reply = arrived.and(reply.ok_or(NfsError::TimedOut))?;
        let mut d = XdrDec::new(&reply);
        d.u32().map_err(|_| NfsError::Protocol)?; // xid, already matched
        let status = NfsStatus::from_u32(d.u32().map_err(|_| NfsError::Protocol)?);
        if status != NfsStatus::Ok {
            return Err(NfsError::Status(status));
        }
        Ok(reply.slice(8..))
    }

    /// Wait until the reply to `xid` is in the table (or `xid` is not). A
    /// reply to another xid still unanswered is kept for its own
    /// [`Self::recv_rpc`]; one to an xid that is not — a second reply, or
    /// one to an xid already collected — is a retransmit's duplicate when
    /// the timer is armed (counted in `nfs.stale_replies` and dropped), and
    /// a protocol error when it is not. Armed, an unanswered deadline
    /// resends the framed request, the timeout doubling from
    /// [`NfsClientConfig::timeo`] each time; the server's duplicate-request
    /// cache makes that safe for non-idempotent procedures.
    fn await_reply(&self, ctx: &ActorCtx, xid: u32) -> NfsResult<()> {
        let mut timeout = self.config.timeo;
        let mut attempt = 1u32;
        loop {
            let Some(framed) = self.table.lock().request(xid).cloned() else {
                return Ok(());
            };
            let deadline = self.retransmit.then(|| ctx.now() + timeout);
            while let Some((rxid, reply)) = self.next_reply(ctx, deadline)? {
                let kept = self.table.lock().arrived(rxid, reply);
                match kept {
                    true if rxid == xid => return Ok(()),
                    true => {}
                    false if self.retransmit => ctx.metrics().counter("nfs.stale_replies").inc(),
                    false => return Err(NfsError::Protocol),
                }
            }
            if attempt >= MAX_ATTEMPTS {
                ctx.metrics().counter("nfs.timeouts").inc();
                ctx.trace(
                    "nfs",
                    "rpc.timeout",
                    &[
                        ("xid", obs::Value::U64(xid as u64)),
                        ("attempts", obs::Value::U64(attempt as u64)),
                    ],
                );
                return Err(NfsError::TimedOut);
            }
            attempt += 1;
            ctx.metrics().counter("nfs.retrans").inc();
            ctx.trace(
                "nfs",
                "rpc.retrans",
                &[
                    ("xid", obs::Value::U64(xid as u64)),
                    ("attempt", obs::Value::U64(attempt as u64)),
                ],
            );
            self.sock.send_bytes(ctx, framed);
            timeout = timeout * BACKOFF_FACTOR;
        }
    }

    /// The next reply on the stream and its xid; `None` once `deadline`
    /// passes (never without one).
    fn next_reply(
        &self,
        ctx: &ActorCtx,
        deadline: Option<SimTime>,
    ) -> NfsResult<Option<(u32, Bytes)>> {
        let hdr = match deadline {
            None => self.sock.recv_exact(ctx, 4)?,
            Some(at) => match self.sock.recv_exact_deadline(ctx, 4, at)? {
                Some(hdr) => hdr,
                None => return Ok(None),
            },
        };
        let len = u32::from_be_bytes(hdr[..].try_into().unwrap()) as usize;
        // Header seen: the body is in flight; wait for all of it.
        let reply = self.sock.recv_exact(ctx, len)?;
        let rxid = XdrDec::new(&reply).u32().map_err(|_| NfsError::Protocol)?;
        Ok(Some((rxid, reply)))
    }

    fn cache_attr(&self, ctx: &ActorCtx, a: FileAttr) {
        self.attr_cache
            .lock()
            .insert(a.id.0, (a, ctx.now() + self.config.timeo));
    }

    /// An RPC that answers with attributes, which the attribute cache takes.
    fn call_attr(&self, ctx: &ActorCtx, proc_: NfsProc, args: Args) -> NfsResult<FileAttr> {
        let r = self.call(ctx, proc_, args)?;
        let a = proto::dec_attr(&mut XdrDec::new(&r)).map_err(|_| NfsError::Protocol)?;
        self.cache_attr(ctx, a);
        Ok(a)
    }

    /// NULL ping.
    pub fn null(&self, ctx: &ActorCtx) -> NfsResult<()> {
        self.call(ctx, NfsProc::Null, &|e| e).map(|_| ())
    }

    /// GETATTR, served from the attribute cache when fresh.
    pub fn getattr(&self, ctx: &ActorCtx, fh: NodeId) -> NfsResult<FileAttr> {
        if let Some((a, exp)) = self.attr_cache.lock().get(&fh.0) {
            if *exp > ctx.now() {
                self.stats.ac_hits.resolve(ctx.metrics()).inc();
                return Ok(*a);
            }
        }
        self.stats.ac_misses.resolve(ctx.metrics()).inc();
        self.revalidate_attr(ctx, fh)
    }

    /// Force a round trip to the server and re-prime the attribute cache
    /// with its answer. Callers that need external-write visibility *now*
    /// (close-to-open points, `MPI_File_sync`) use this instead of waiting
    /// out the attribute TTL; `nfs.attrcache.revalidations` counts the times
    /// the [`FileAttr::version`] change token had moved — another client
    /// wrote the file.
    pub fn revalidate_attr(&self, ctx: &ActorCtx, fh: NodeId) -> NfsResult<FileAttr> {
        let prev = self.attr_cache.lock().get(&fh.0).map(|(a, _)| a.version);
        let a = self.getattr_uncached(ctx, fh)?;
        if prev.is_some_and(|p| p != a.version) {
            ctx.metrics().counter("nfs.attrcache.revalidations").inc();
        }
        Ok(a)
    }

    /// GETATTR bypassing the cache.
    pub fn getattr_uncached(&self, ctx: &ActorCtx, fh: NodeId) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::GetAttr, &|e| e.u64(fh.0))
    }

    /// SETATTR (truncate to `size`).
    pub fn truncate(&self, ctx: &ActorCtx, fh: NodeId, size: u64) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::SetAttr, &|e| e.u64(fh.0).u32(1).u64(size))
    }

    /// LOOKUP `name` in directory `dir`.
    pub fn lookup(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::Lookup, &|e| e.u64(dir.0).string(name))
    }

    /// CREATE a regular file.
    pub fn create(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::Create, &|e| e.u64(dir.0).string(name))
    }

    /// MKDIR.
    pub fn mkdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        let r = self.call(ctx, NfsProc::Mkdir, &|e| e.u64(dir.0).string(name))?;
        proto::dec_attr(&mut XdrDec::new(&r)).map_err(|_| NfsError::Protocol)
    }

    /// REMOVE a regular file.
    pub fn remove(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<()> {
        self.call(ctx, NfsProc::Remove, &|e| e.u64(dir.0).string(name))
            .map(|_| ())
    }

    /// RMDIR.
    pub fn rmdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<()> {
        self.call(ctx, NfsProc::Rmdir, &|e| e.u64(dir.0).string(name))
            .map(|_| ())
    }

    /// RENAME.
    pub fn rename(
        &self,
        ctx: &ActorCtx,
        from: NodeId,
        name: &str,
        to: NodeId,
        to_name: &str,
    ) -> NfsResult<()> {
        self.call(ctx, NfsProc::Rename, &|e| {
            e.u64(from.0).string(name).u64(to.0).string(to_name)
        })
        .map(|_| ())
    }

    /// READDIR: (name, file id) pairs.
    pub fn readdir(&self, ctx: &ActorCtx, dir: NodeId) -> NfsResult<Vec<(String, NodeId)>> {
        let r = self.call(ctx, NfsProc::ReadDir, &|e| e.u64(dir.0))?;
        let mut d = XdrDec::new(&r);
        let n = d.u32().map_err(|_| NfsError::Protocol)?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let id = NodeId(d.u64().map_err(|_| NfsError::Protocol)?);
            let name = d.string().map_err(|_| NfsError::Protocol)?;
            out.push((name, id));
        }
        Ok(out)
    }

    /// Decode the reply to a READ of `count` bytes: `(data, eof)`, the data
    /// a view of the reply. More data than was asked for is a protocol
    /// error — it would end up past the caller's buffer.
    fn dec_read_reply(reply: &Bytes, count: u64) -> NfsResult<(Bytes, bool)> {
        let mut d = XdrDec::new(reply);
        let _count = d.u32().map_err(|_| NfsError::Protocol)?;
        let eof = d.u32().map_err(|_| NfsError::Protocol)? != 0;
        let data = d.opaque().map_err(|_| NfsError::Protocol)?;
        if data.len() as u64 > count {
            return Err(NfsError::Protocol);
        }
        Ok((data, eof))
    }

    /// Decode a WRITE reply: the attributes after it, which the attribute
    /// cache takes.
    fn dec_write_reply(&self, ctx: &ActorCtx, reply: &Bytes) -> NfsResult<FileAttr> {
        let mut d = XdrDec::new(reply);
        let _count = d.u32().map_err(|_| NfsError::Protocol)?;
        let _committed = d.u32().map_err(|_| NfsError::Protocol)?;
        let a = proto::dec_attr(&mut d).map_err(|_| NfsError::Protocol)?;
        self.cache_attr(ctx, a);
        Ok(a)
    }

    /// Open the transfer of `io` at `off` in rsize READs or wsize WRITEs,
    /// posting its first `window` RPCs; collecting posts the rest. A window
    /// of one is the blocking call: each RPC is traced `rpc.start` and
    /// timed whole (`nfs.rpc`), and no READ goes past EOF. A wider one
    /// (`usize::MAX`: the whole range, the split-phase call) overlaps the
    /// caller's work: `rpc.issue`, no span. Offsets stop at `u64::MAX`.
    pub fn begin<'a>(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        io: NfsIo<'a>,
        window: usize,
    ) -> NfsTransfer<'a> {
        let (len, max) = match &io {
            NfsIo::Read(len) => (*len, self.config.rsize.max(1)),
            NfsIo::Write(data) => (data.len() as u64, self.config.wsize.max(1)),
        };
        let window = Window::new(len, max, window);
        let (data, attr) = (Rope::new(), None);
        let mut t = NfsTransfer {
            fh,
            off,
            io,
            window,
            data,
            attr,
        };
        self.fill(ctx, &mut t);
        t
    }

    /// Post RPCs in range order while the window has room.
    fn fill(&self, ctx: &ActorCtx, t: &mut NfsTransfer) {
        while let Some(piece) = t.window.next() {
            let rpc = self.post(ctx, t, piece);
            t.window.posted(rpc);
        }
    }

    /// Post the READ or WRITE of the bytes `piece` of the transfer's range.
    /// A WRITE copies them from the application buffer into the call
    /// record as it is built.
    fn post(&self, ctx: &ActorCtx, t: &NfsTransfer, piece: Range<u64>) -> (u32, SimTime) {
        let (at, count) = (piece.start, piece.end - piece.start);
        let (fh, off) = (t.fh.0, t.off.saturating_add(at));
        // A WRITE's copy into the RPC buffer comes before the RPC's time.
        if let NfsIo::Write(_) = t.io {
            self.host.copy(ctx, count);
        }
        let (sent, one) = (ctx.now(), t.window.cap() == 1);
        let event = if one { "rpc.start" } else { "rpc.issue" };
        // File handle, offset, then the count or the stability: 20 bytes.
        let xid = match &t.io {
            NfsIo::Read(_) => self.send_rpc(ctx, NfsProc::Read, 20, event, &|e| {
                e.u64(fh).u64(off).u32(count as u32)
            }),
            NfsIo::Write(data) => {
                let chunk = &data[at as usize..(at + count) as usize];
                let stable = self.config.stable as u32;
                // The chunk an opaque: its length, its bytes, padded to 4.
                let room = 20 + 4 + chunk.len().next_multiple_of(4);
                self.send_rpc(ctx, NfsProc::Write, room, event, &|e| {
                    e.u64(fh).u64(off).u32(stable).opaque(chunk)
                })
            }
        };
        (xid, sent)
    }

    /// Collect the transfer's RPCs in range order, posting the rest by
    /// the window's rule as each is collected. A READ reply's bytes are
    /// kept, as views of the reply, in file order: the copy into the
    /// application buffer charged here is made where the caller lands them.
    /// A short one without EOF has the rest of its range read next (RFC
    /// 1813 allows short READs); EOF, an empty reply or a failure ends
    /// posting, and the RPCs already posted are drained. A WRITE keeps its
    /// last reply's attributes. The first failure is returned once nothing
    /// is left in the mount's table; a timeout gives the rest up, and the
    /// armed mount drops their late replies as stale duplicates.
    fn collect(&self, ctx: &ActorCtx, t: &mut NfsTransfer) -> NfsResult<()> {
        let mut first = Ok(());
        while let Some((piece, &(xid, sent))) = t.window.front() {
            let reply = if first == Err(NfsError::TimedOut) {
                self.table.lock().take(xid);
                Err(NfsError::TimedOut)
            } else {
                self.recv_rpc(ctx, xid)
            };
            if t.window.cap() == 1 {
                drop(ctx.span_since("nfs", "rpc", sent));
            }
            let count = piece.end - piece.start;
            let outcome = reply.and_then(|reply| match t.io {
                NfsIo::Write(_) => {
                    t.attr = Some(self.dec_write_reply(ctx, &reply)?);
                    Ok(Outcome::Full)
                }
                NfsIo::Read(_) => {
                    let (data, eof) = Self::dec_read_reply(&reply, count)?;
                    let n = data.len() as u64;
                    if !t.window.draining() {
                        self.host.copy(ctx, n);
                        t.data.push(data);
                    }
                    Ok(match n {
                        _ if eof || n == 0 => Outcome::Eof,
                        n if n < count => Outcome::Short(n),
                        _ => Outcome::Full,
                    })
                }
            });
            t.window.retire(outcome.unwrap_or_else(|e| {
                first = first.and(Err(e));
                Outcome::Failed
            }));
            self.fill(ctx, t);
        }
        first
    }

    /// Read `len` bytes at `off`: a transfer with one RPC in flight, its
    /// bytes copied into one vector. Short at EOF.
    pub fn read(&self, ctx: &ActorCtx, fh: NodeId, off: u64, len: u64) -> NfsResult<Vec<u8>> {
        let t = self.begin(ctx, fh, off, NfsIo::Read(len), 1);
        self.read_finish(ctx, t).map(|data| data.to_vec())
    }

    /// Write `data` at `off` at the mount's stability: a transfer with one
    /// RPC in flight.
    pub fn write(&self, ctx: &ActorCtx, fh: NodeId, off: u64, data: &[u8]) -> NfsResult<FileAttr> {
        let t = self.begin(ctx, fh, off, NfsIo::Write(data.into()), 1);
        self.write_finish(ctx, t)
    }

    /// Issue half of a split-phase read: every READ of the range posted
    /// at once, so the server works while the caller overlaps other work.
    pub fn read_begin(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        len: u64,
    ) -> NfsTransfer<'static> {
        self.begin(ctx, fh, off, NfsIo::Read(len), usize::MAX)
    }

    /// Issue half of a split-phase write, likewise.
    pub fn write_begin<'a>(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        off: u64,
        data: &'a [u8],
    ) -> NfsTransfer<'a> {
        self.begin(ctx, fh, off, NfsIo::Write(data.into()), usize::MAX)
    }

    /// Completion half of a read: the bytes read, short at EOF, as views of
    /// the replies in file order.
    pub fn read_finish(&self, ctx: &ActorCtx, mut t: NfsTransfer) -> NfsResult<Rope> {
        self.collect(ctx, &mut t)?;
        Ok(t.data)
    }

    /// Completion half of a write: the attributes of its last reply, which
    /// the attribute cache also took. A zero-length write behaves like
    /// getattr.
    pub fn write_finish(&self, ctx: &ActorCtx, mut t: NfsTransfer) -> NfsResult<FileAttr> {
        self.collect(ctx, &mut t)?;
        t.attr.map_or_else(|| self.getattr(ctx, t.fh), Ok)
    }

    /// COMMIT unstable writes to stable storage.
    pub fn commit(&self, ctx: &ActorCtx, fh: NodeId) -> NfsResult<()> {
        self.call(ctx, NfsProc::Commit, &|e| e.u64(fh.0))
            .map(|_| ())
    }

    /// Resolve a slash-separated path from the root, LOOKUP by LOOKUP.
    pub fn resolve(&self, ctx: &ActorCtx, path: &str) -> NfsResult<FileAttr> {
        let mut cur = memfs::ROOT_ID;
        let mut attr = self.getattr(ctx, cur)?;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            attr = self.lookup(ctx, cur, part)?;
            cur = attr.id;
        }
        Ok(attr)
    }

    /// Tear down the mount.
    pub fn unmount(&self, ctx: &ActorCtx) {
        self.sock.close(ctx);
    }
}

/// What an [`NfsTransfer`] moves.
pub enum NfsIo<'a> {
    /// READ this many bytes.
    Read(u64),
    /// WRITE these bytes.
    Write(Cow<'a, [u8]>),
}

/// A READ or WRITE of one file range in flight: rsize / wsize RPCs, at most
/// `window` of them posted and not yet collected. Opened by
/// [`NfsClient::begin`]; collected by [`NfsClient::read_finish`] or
/// [`NfsClient::write_finish`].
pub struct NfsTransfer<'a> {
    fh: NodeId,
    off: u64,
    io: NfsIo<'a>,
    /// The RPCs, each `(xid, sent)`: an rsize or wsize of the range's
    /// bytes, or the rest of a short READ.
    window: Window<(u32, SimTime)>,
    /// A READ's bytes, in file order: views of its replies.
    data: Rope,
    /// The last WRITE reply's attributes.
    attr: Option<FileAttr>,
}

/// What encodes a call's arguments into its record.
type Args<'a> = &'a dyn Fn(&mut XdrEnc) -> &mut XdrEnc;

/// Bytes held for a call's arguments past a READ's or WRITE's: a file
/// handle and a short name, say; a longer one grows the record.
const ARGS_ROOM: usize = 32;

/// Shared handle: several actors on one host may share a mount via `Arc`.
pub type SharedNfsClient = Arc<NfsClient>;

#[cfg(test)]
impl NfsClient {
    /// Whether the mount's request table still holds `xid`, sent or answered.
    pub(crate) fn holds(&self, xid: u32) -> bool {
        self.table.lock().state(xid).is_some()
    }
}
