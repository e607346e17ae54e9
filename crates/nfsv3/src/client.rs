//! The NFS client: synchronous RPCs over a TCP socket, an attribute cache,
//! and rsize/wsize transfer chunking — the pieces of a 2001 kernel NFS
//! client that matter for I/O performance.

use std::collections::HashMap;
use std::sync::Arc;

use memfs::{FileAttr, NodeId};
use parking_lot::Mutex;
use simnet::cost::HostCost;
use simnet::obs::{Labels, LazyCounter};
use simnet::reqtab::RequestTable;
use simnet::time::units::*;
use simnet::{ActorCtx, Bytes, Host, HostId, SimDuration, SimTime};
use tcpnet::{TcpError, TcpFabric};

use crate::proto::{self, NfsProc, NfsStatus, Stable, REPLAY_WINDOW};
use crate::xdr::{XdrDec, XdrEnc};

/// Multiplier applied to the retransmit timeout after each unanswered
/// attempt (exponential backoff).
const BACKOFF_FACTOR: u64 = 2;

/// Total send attempts of one RPC before it fails with
/// [`NfsError::TimedOut`] (`retrans` + 1).
const MAX_ATTEMPTS: u32 = 8;

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
    /// Client CPU per RPC (encode/decode + RPC layer), beyond socket costs.
    pub per_rpc_cpu: SimDuration,
    /// Host primitives.
    pub host_cost: HostCost,
}

impl Default for NfsClientConfig {
    fn default() -> Self {
        NfsClientConfig {
            rsize: 32 << 10,
            wsize: 32 << 10,
            timeo: SimDuration::from_millis(30),
            stable: Stable::FileSync,
            per_rpc_cpu: us(6),
            host_cost: HostCost::default(),
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
    /// reply arrives, then the reply. Its window is the nfsd's replay
    /// window, so the mount is a client slot table.
    table: Mutex<RequestTable<Bytes, Vec<u8>>>,
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

    /// The mount's configuration.
    pub fn config(&self) -> &NfsClientConfig {
        &self.config
    }

    /// One synchronous RPC: its split-phase halves back to back, inside a
    /// whole-RPC virtual-time span (`nfs.rpc_ns` / `nfs.rpc.calls` for the
    /// per-layer breakdown, and one trace event on completion).
    fn call(&self, ctx: &ActorCtx, proc_: NfsProc, args: &mut XdrEnc) -> NfsResult<Vec<u8>> {
        let _span = ctx.span("nfs", "rpc");
        let xid = self.send_rpc(ctx, proc_, args, "rpc.start");
        self.recv_rpc(ctx, xid)
    }

    /// Issue half of one RPC: frame and send without waiting for the
    /// reply, traced as `event` (`rpc.start` for a blocking call,
    /// `rpc.issue` for a split-phase one, whose wall time overlaps the
    /// caller's other work, so it opens no span). Returns the xid; the
    /// table keeps the framed request for the completion half to
    /// retransmit. While the window is full it waits for the oldest reply
    /// (retransmitting it), keeping the others: the window does not move
    /// past a lost reply until its retransmit is answered.
    fn send_rpc(&self, ctx: &ActorCtx, proc_: NfsProc, args: &mut XdrEnc, event: &str) -> u32 {
        let args = std::mem::take(args).finish();
        let frame = |xid: u32| {
            let mut e = XdrEnc::new();
            e.u32(xid).u32(proc_ as u32);
            let mut body = e.finish();
            body.extend_from_slice(&args);
            Bytes::from_vec(proto::frame(&body))
        };
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
        self.host.compute(ctx, self.config.per_rpc_cpu);
        let framed = self.table.lock().request(xid).cloned();
        self.sock.send_bytes(ctx, framed.expect("just posted"));
        xid
    }

    /// Completion half of one RPC: await the reply to `xid` and collect it
    /// — verify the status, return the payload.
    fn recv_rpc(&self, ctx: &ActorCtx, xid: u32) -> NfsResult<Vec<u8>> {
        let arrived = self.await_reply(ctx, xid);
        let reply = self.table.lock().take(xid);
        let reply = arrived.and(reply.ok_or(NfsError::TimedOut))?;
        let mut d = XdrDec::new(&reply);
        d.u32().map_err(|_| NfsError::Protocol)?; // xid, already matched
        let status = NfsStatus::from_u32(d.u32().map_err(|_| NfsError::Protocol)?);
        if status != NfsStatus::Ok {
            return Err(NfsError::Status(status));
        }
        Ok(reply[8..].to_vec())
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
    ) -> NfsResult<Option<(u32, Vec<u8>)>> {
        let hdr = match deadline {
            None => self.sock.recv_exact(ctx, 4)?,
            Some(at) => match self.sock.recv_exact_deadline(ctx, 4, at)? {
                Some(hdr) => hdr,
                None => return Ok(None),
            },
        };
        let len = u32::from_be_bytes(hdr.try_into().unwrap()) as usize;
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
    fn call_attr(&self, ctx: &ActorCtx, proc_: NfsProc, args: &mut XdrEnc) -> NfsResult<FileAttr> {
        let r = self.call(ctx, proc_, args)?;
        let a = proto::dec_attr(&mut XdrDec::new(&r)).map_err(|_| NfsError::Protocol)?;
        self.cache_attr(ctx, a);
        Ok(a)
    }

    /// NULL ping.
    pub fn null(&self, ctx: &ActorCtx) -> NfsResult<()> {
        self.call(ctx, NfsProc::Null, &mut XdrEnc::new())
            .map(|_| ())
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
        self.call_attr(ctx, NfsProc::GetAttr, XdrEnc::new().u64(fh.0))
    }

    /// SETATTR (truncate to `size`).
    pub fn truncate(&self, ctx: &ActorCtx, fh: NodeId, size: u64) -> NfsResult<FileAttr> {
        self.call_attr(
            ctx,
            NfsProc::SetAttr,
            XdrEnc::new().u64(fh.0).u32(1).u64(size),
        )
    }

    /// LOOKUP `name` in directory `dir`.
    pub fn lookup(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::Lookup, XdrEnc::new().u64(dir.0).string(name))
    }

    /// CREATE a regular file.
    pub fn create(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        self.call_attr(ctx, NfsProc::Create, XdrEnc::new().u64(dir.0).string(name))
    }

    /// MKDIR.
    pub fn mkdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<FileAttr> {
        let r = self.call(ctx, NfsProc::Mkdir, XdrEnc::new().u64(dir.0).string(name))?;
        proto::dec_attr(&mut XdrDec::new(&r)).map_err(|_| NfsError::Protocol)
    }

    /// REMOVE a regular file.
    pub fn remove(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<()> {
        self.call(ctx, NfsProc::Remove, XdrEnc::new().u64(dir.0).string(name))
            .map(|_| ())
    }

    /// RMDIR.
    pub fn rmdir(&self, ctx: &ActorCtx, dir: NodeId, name: &str) -> NfsResult<()> {
        self.call(ctx, NfsProc::Rmdir, XdrEnc::new().u64(dir.0).string(name))
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
        self.call(
            ctx,
            NfsProc::Rename,
            XdrEnc::new()
                .u64(from.0)
                .string(name)
                .u64(to.0)
                .string(to_name),
        )
        .map(|_| ())
    }

    /// READDIR: (name, file id) pairs.
    pub fn readdir(&self, ctx: &ActorCtx, dir: NodeId) -> NfsResult<Vec<(String, NodeId)>> {
        let r = self.call(ctx, NfsProc::ReadDir, XdrEnc::new().u64(dir.0))?;
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

    /// READ arguments: `count` bytes of `fh` at `off`.
    fn read_args(fh: NodeId, off: u64, count: u64) -> XdrEnc {
        let mut e = XdrEnc::new();
        e.u64(fh.0).u64(off).u32(count as u32);
        e
    }

    /// Decode the reply to a READ of `count` bytes: `(data, eof)`. More
    /// data than was asked for is a protocol error — it would end up past
    /// the caller's buffer.
    fn dec_read_reply(reply: &[u8], count: u64) -> NfsResult<(&[u8], bool)> {
        let mut d = XdrDec::new(reply);
        let _count = d.u32().map_err(|_| NfsError::Protocol)?;
        let eof = d.u32().map_err(|_| NfsError::Protocol)? != 0;
        let data = d.opaque().map_err(|_| NfsError::Protocol)?;
        if data.len() as u64 > count {
            return Err(NfsError::Protocol);
        }
        Ok((data, eof))
    }

    /// Charge the copy of a READ reply's `data` from the RPC buffer into
    /// the application buffer, and count it.
    fn charge_read(&self, ctx: &ActorCtx, data: &[u8]) {
        self.host
            .compute(ctx, self.config.host_cost.copy(data.len() as u64));
    }

    /// WRITE arguments for `chunk` at `off`, at the mount's stability,
    /// once the application buffer is copied into the RPC buffer.
    fn write_args(&self, ctx: &ActorCtx, fh: NodeId, off: u64, chunk: &[u8]) -> XdrEnc {
        self.host
            .compute(ctx, self.config.host_cost.copy(chunk.len() as u64));
        let mut e = XdrEnc::new();
        e.u64(fh.0)
            .u64(off)
            .u32(self.config.stable as u32)
            .opaque(chunk);
        e
    }

    /// Decode a WRITE reply: the attributes after it, which the attribute
    /// cache takes.
    fn dec_write_reply(&self, ctx: &ActorCtx, reply: &[u8]) -> NfsResult<FileAttr> {
        let mut d = XdrDec::new(reply);
        let _count = d.u32().map_err(|_| NfsError::Protocol)?;
        let _committed = d.u32().map_err(|_| NfsError::Protocol)?;
        let a = proto::dec_attr(&mut d).map_err(|_| NfsError::Protocol)?;
        self.cache_attr(ctx, a);
        Ok(a)
    }

    /// Read `len` bytes at `off`, one READ RPC of at most rsize at a time
    /// until EOF. Short result at EOF.
    pub fn read(&self, ctx: &ActorCtx, fh: NodeId, mut off: u64, len: u64) -> NfsResult<Vec<u8>> {
        let mut out = Vec::with_capacity(len as usize);
        let mut remaining = len;
        while remaining > 0 {
            let count = remaining.min(self.config.rsize);
            let r = self.call(ctx, NfsProc::Read, &mut Self::read_args(fh, off, count))?;
            let (data, eof) = Self::dec_read_reply(&r, count)?;
            self.charge_read(ctx, data);
            let n = data.len() as u64;
            out.extend_from_slice(data);
            off += n;
            remaining -= n.min(remaining);
            if eof || n == 0 {
                break;
            }
        }
        Ok(out)
    }

    /// Write `data` at `off`, chunked by wsize, at the mount's stability
    /// level. UNSTABLE writes are followed by a COMMIT when `commit_after`.
    pub fn write(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        mut off: u64,
        data: &[u8],
    ) -> NfsResult<FileAttr> {
        let mut attr = None;
        for chunk in data.chunks(self.config.wsize.max(1) as usize) {
            let r = self.call(
                ctx,
                NfsProc::Write,
                &mut self.write_args(ctx, fh, off, chunk),
            )?;
            attr = Some(self.dec_write_reply(ctx, &r)?);
            off += chunk.len() as u64;
        }
        // Zero-length write: behave like getattr.
        attr.map_or_else(|| self.getattr(ctx, fh), Ok)
    }

    /// Issue half of a split-phase write: send every WRITE RPC (chunked
    /// by wsize) without waiting for replies, so the server processes
    /// them while the caller overlaps other work — past the mount's
    /// window, as its replies come in. Collect with [`Self::write_finish`].
    /// A range past `u64::MAX` is sent as it is, for the server to refuse
    /// chunk by chunk: the chunk offsets stop at `u64::MAX`, never wrap.
    pub fn write_begin(
        &self,
        ctx: &ActorCtx,
        fh: NodeId,
        mut off: u64,
        data: &[u8],
    ) -> NfsPendingWrite {
        let mut xids = Vec::new();
        for chunk in data.chunks(self.config.wsize.max(1) as usize) {
            let mut e = self.write_args(ctx, fh, off, chunk);
            xids.push(self.send_rpc(ctx, NfsProc::Write, &mut e, "rpc.issue"));
            off = off.saturating_add(chunk.len() as u64);
        }
        NfsPendingWrite { fh, xids }
    }

    /// Completion half of [`Self::write_begin`]: await every reply in
    /// issue order, refreshing the attribute cache exactly as the
    /// synchronous path does. Zero-length writes behave like getattr.
    pub fn write_finish(&self, ctx: &ActorCtx, p: NfsPendingWrite) -> NfsResult<FileAttr> {
        let mut attr = None;
        for xid in p.xids {
            let r = self.recv_rpc(ctx, xid)?;
            attr = Some(self.dec_write_reply(ctx, &r)?);
        }
        attr.map_or_else(|| self.getattr(ctx, p.fh), Ok)
    }

    /// Issue half of a split-phase read: send a READ RPC for every rsize
    /// chunk of `[off, off+len)` up front (past the mount's window, as its
    /// replies come in). The synchronous path stops
    /// chunking when it sees EOF; here the tail RPCs are already posted,
    /// so EOF shows up as short or empty replies that
    /// [`Self::read_finish`] trims. As in [`Self::write_begin`], the chunk
    /// offsets stop at `u64::MAX`.
    pub fn read_begin(&self, ctx: &ActorCtx, fh: NodeId, off: u64, len: u64) -> NfsPendingRead {
        let mut rpcs = Vec::new();
        let mut done = 0u64;
        while done < len {
            let n = (len - done).min(self.config.rsize.max(1));
            let mut e = Self::read_args(fh, off.saturating_add(done), n);
            rpcs.push((self.send_rpc(ctx, NfsProc::Read, &mut e, "rpc.issue"), n));
            done += n;
        }
        NfsPendingRead { rpcs }
    }

    /// Completion half of [`Self::read_begin`]: await every reply,
    /// concatenating data until the first short chunk (EOF). Replies past
    /// EOF are still drained so nothing is left orphaned on the stream.
    pub fn read_finish(&self, ctx: &ActorCtx, p: NfsPendingRead) -> NfsResult<Vec<u8>> {
        let mut out = Vec::new();
        let mut eof = false;
        for &(xid, n) in &p.rpcs {
            let r = self.recv_rpc(ctx, xid)?;
            let (data, chunk_eof) = Self::dec_read_reply(&r, n)?;
            if eof {
                continue; // past EOF: drain only
            }
            self.charge_read(ctx, data);
            out.extend_from_slice(data);
            eof = chunk_eof || (data.len() as u64) < n;
        }
        Ok(out)
    }

    /// COMMIT unstable writes to stable storage.
    pub fn commit(&self, ctx: &ActorCtx, fh: NodeId) -> NfsResult<()> {
        self.call(ctx, NfsProc::Commit, XdrEnc::new().u64(fh.0))
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

/// A split-phase WRITE in flight: issued RPCs whose replies have not been
/// collected yet. Created by [`NfsClient::write_begin`].
pub struct NfsPendingWrite {
    fh: NodeId,
    /// The xids, in issue order.
    xids: Vec<u32>,
}

impl NfsPendingWrite {
    /// RPCs issued and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.xids.len()
    }
}

/// A split-phase READ in flight. Created by [`NfsClient::read_begin`].
pub struct NfsPendingRead {
    /// (xid, chunk length), in issue order.
    rpcs: Vec<(u32, u64)>,
}

impl NfsPendingRead {
    /// RPCs issued and not yet collected.
    pub fn in_flight(&self) -> usize {
        self.rpcs.len()
    }
}

/// Shared handle: several actors on one host may share a mount via `Arc`.
pub type SharedNfsClient = Arc<NfsClient>;
