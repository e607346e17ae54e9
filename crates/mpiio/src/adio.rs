//! The ADIO layer: the abstract device interface the MPI-IO logic sits on,
//! with three drivers — DAFS (the paper's contribution), NFS (the
//! baseline), and UFS (a node-local memory filesystem).
//!
//! The interface is the minimal contract ROMIO's ADIO demands of a
//! filesystem: one data method, a split-phase multi-request transfer at
//! explicit offsets ([`AdioFile::itransfer`], which the DAFS driver
//! pipelines over session credits, optionally as wire-level list
//! requests); resize/flush; and an optional shared-file-pointer
//! fetch-and-add primitive (implemented on DAFS with the protocol's file
//! locks; absent on NFS, where ROMIO historically had to fall back to
//! unsupported or fcntl-lock emulation). As `MPI_File_read` is
//! `MPI_File_iread` plus a wait, a blocking transfer is the split-phase one
//! plus its wait, and a contiguous read or write is a blocking transfer of
//! one range — provided methods. Only the NFS driver overrides `transfer`:
//! each range is one transfer of the mount's either way, with every RPC
//! posted at once by `itransfer` and one RPC in flight at a time by
//! `transfer` — the baseline as it was measured.

use std::sync::Arc;

pub use dafs::{BatchDir, IoReq};
use dafs::{DafsClient, DafsError, DafsStripedBatch, DafsStripedFile, ListReq};
use memfs::{FsError, MemFs, NodeId, SetAttr};
use nfsv3::{NfsClient, NfsError, NfsIo, NfsTransfer};
use simnet::cost::HOST;
use simnet::time::units::*;
use simnet::{ActorCtx, Host, SimDuration, VirtAddr};

/// The driver-level cause behind an [`AdioError::Io`]. Preserves the
/// original error from whichever filesystem client failed, so callers (and
/// reports) can distinguish a lost VIA connection from a malformed NFS
/// reply without each driver leaking its error type into every signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The DAFS driver failed (session, transport, or protocol status).
    Dafs(DafsError),
    /// The NFS driver failed (RPC transport or server status).
    Nfs(NfsError),
    /// The local filesystem failed.
    Fs(FsError),
    /// ADIO-internal corruption (e.g. a short shared-pointer file).
    Protocol,
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFault::Dafs(_) => write!(f, "DAFS driver failure"),
            IoFault::Nfs(_) => write!(f, "NFS driver failure"),
            IoFault::Fs(_) => write!(f, "local filesystem failure"),
            IoFault::Protocol => write!(f, "ADIO-internal protocol corruption"),
        }
    }
}

impl std::error::Error for IoFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoFault::Dafs(e) => Some(e),
            IoFault::Nfs(e) => Some(e),
            IoFault::Fs(e) => Some(e),
            IoFault::Protocol => None,
        }
    }
}

/// Driver-independent I/O errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdioError {
    /// Path missing (open without CREATE, or stale handle).
    NoSuchFile,
    /// Path exists (open with EXCL).
    Exists,
    /// The driver cannot perform this operation (e.g. shared pointers on
    /// NFS).
    NotSupported,
    /// Transport or protocol failure; the payload names the driver-level
    /// cause and is reachable through [`std::error::Error::source`].
    Io(IoFault),
}

/// Convenience alias.
pub type AdioResult<T> = Result<T, AdioError>;

impl std::fmt::Display for AdioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdioError::NoSuchFile => write!(f, "no such file"),
            AdioError::Exists => write!(f, "file already exists"),
            AdioError::NotSupported => write!(f, "operation not supported by this driver"),
            AdioError::Io(fault) => write!(f, "I/O failure: {fault}"),
        }
    }
}

impl std::error::Error for AdioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdioError::Io(fault) => Some(fault),
            _ => None,
        }
    }
}

impl From<DafsError> for AdioError {
    fn from(e: DafsError) -> AdioError {
        match e {
            DafsError::Status(dafs::DafsStatus::NoEnt) => AdioError::NoSuchFile,
            DafsError::Status(dafs::DafsStatus::Stale) => AdioError::NoSuchFile,
            DafsError::Status(dafs::DafsStatus::Exists) => AdioError::Exists,
            DafsError::Status(dafs::DafsStatus::NotSupported) => AdioError::NotSupported,
            other => AdioError::Io(IoFault::Dafs(other)),
        }
    }
}

impl From<NfsError> for AdioError {
    fn from(e: NfsError) -> AdioError {
        match e {
            NfsError::Status(nfsv3::NfsStatus::NoEnt) => AdioError::NoSuchFile,
            NfsError::Status(nfsv3::NfsStatus::Stale) => AdioError::NoSuchFile,
            NfsError::Status(nfsv3::NfsStatus::Exist) => AdioError::Exists,
            other => AdioError::Io(IoFault::Nfs(other)),
        }
    }
}

impl From<FsError> for AdioError {
    fn from(e: FsError) -> AdioError {
        match e {
            FsError::NotFound | FsError::Stale => AdioError::NoSuchFile,
            FsError::Exists => AdioError::Exists,
            other => AdioError::Io(IoFault::Fs(other)),
        }
    }
}

/// Which ADIO driver backs a filesystem or open file.
///
/// Typed replacement for the old stringly `name() -> &'static str`:
/// dispatch sites match exhaustively, and reports render it through
/// [`DriverKind::as_str`] / `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// DAFS over VIA (the paper's system).
    Dafs,
    /// One logical file striped round-robin across several DAFS servers.
    DafsStriped,
    /// NFSv3 over TCP (the baseline).
    Nfs,
    /// Node-local in-memory filesystem.
    Ufs,
}

impl DriverKind {
    /// Short lower-case name for reports ("dafs" / "dafs-striped" / "nfs"
    /// / "ufs").
    pub fn as_str(self) -> &'static str {
        match self {
            DriverKind::Dafs => "dafs",
            DriverKind::DafsStriped => "dafs-striped",
            DriverKind::Nfs => "nfs",
            DriverKind::Ufs => "ufs",
        }
    }
}

impl std::fmt::Display for DriverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DriverKind {
    type Err = ();

    /// Inverse of [`DriverKind::as_str`] (case-insensitive).
    fn from_str(s: &str) -> Result<DriverKind, ()> {
        match s.to_ascii_lowercase().as_str() {
            "dafs" => Ok(DriverKind::Dafs),
            "dafs-striped" | "dafs_striped" => Ok(DriverKind::DafsStriped),
            "nfs" => Ok(DriverKind::Nfs),
            "ufs" => Ok(DriverKind::Ufs),
            _ => Err(()),
        }
    }
}

/// How many times the ADIO data paths re-attempt an operation that failed
/// with a *transient* fault (lost session, exhausted retransmits) after the
/// driver's own recovery gave up. Last-resort graceful degradation: the
/// layers below already retransmit (NFS) and reconnect/replay (DAFS).
const ADIO_RETRIES: u32 = 2;

/// Whether an error is worth re-attempting at this layer. Server status
/// errors (NoEnt, Exists, ...) are deterministic and excluded.
fn transient(e: &AdioError) -> bool {
    matches!(
        e,
        AdioError::Io(IoFault::Dafs(
            DafsError::Transport(_) | DafsError::Connect(_)
        )) | AdioError::Io(IoFault::Nfs(NfsError::TimedOut | NfsError::Transport(_)))
    )
}

/// Run `f`, re-attempting up to [`ADIO_RETRIES`] times on transient faults.
/// Each retry bumps the `adio.retries` counter.
fn with_retries<T>(ctx: &ActorCtx, f: impl Fn() -> AdioResult<T>) -> AdioResult<T> {
    let mut attempts = 0u32;
    loop {
        match f() {
            Err(e) if transient(&e) && attempts < ADIO_RETRIES => {
                attempts += 1;
                ctx.metrics().counter("adio.retries").inc();
            }
            r => return r,
        }
    }
}

/// Driver-side completion half of a transfer. Boxed inside an
/// [`AdioRequest`]; a driver with nothing to overlap never creates one
/// (its requests are born complete).
pub trait PendingIo: Send {
    /// Block until the batch completes. Returns total bytes transferred.
    fn wait(self: Box<Self>, ctx: &ActorCtx) -> AdioResult<u64>;

    /// Nonblocking progress poll: true when [`Self::wait`] will not
    /// block. Advisory — drivers without completion polling return false.
    fn test(&mut self, _ctx: &ActorCtx) -> bool {
        false
    }
}

enum ReqState {
    Done(AdioResult<u64>),
    Pending(Box<dyn PendingIo>),
}

/// Driver transfers in flight on one actor (a request born complete never
/// is), kept in its [`ActorCtx::with_local`] slot with the `adio.inflight`
/// depth histogram it feeds; self-balancing because every request is
/// waited.
struct Inflight {
    depth: u64,
    histogram: obs::LazyHistogram,
}

impl Default for Inflight {
    fn default() -> Inflight {
        Inflight {
            depth: 0,
            histogram: obs::LazyHistogram::new("adio.inflight"),
        }
    }
}

/// Completion handle for an ADIO transfer ([`AdioFile::itransfer`]): either
/// born complete (eager drivers) or an operation in flight that
/// [`AdioRequest::wait`] collects.
#[must_use = "an AdioRequest must be waited, or its I/O may never complete"]
pub struct AdioRequest {
    state: ReqState,
}

impl AdioRequest {
    /// A request that completed eagerly at issue time.
    pub fn ready(result: AdioResult<u64>) -> AdioRequest {
        AdioRequest {
            state: ReqState::Done(result),
        }
    }

    /// A request in flight. Records the calling actor's outstanding depth
    /// in the `adio.inflight` histogram.
    pub fn pending(ctx: &ActorCtx, io: Box<dyn PendingIo>) -> AdioRequest {
        ctx.with_local(|d: &mut Inflight| {
            d.depth += 1;
            d.histogram.resolve(ctx.metrics()).record(d.depth);
        });
        AdioRequest {
            state: ReqState::Pending(io),
        }
    }

    /// Block until the I/O completes; returns total bytes transferred
    /// (for writes, the bytes written).
    pub fn wait(self, ctx: &ActorCtx) -> AdioResult<u64> {
        match self.state {
            ReqState::Done(r) => r,
            ReqState::Pending(io) => {
                ctx.with_local(|d: &mut Inflight| d.depth = d.depth.saturating_sub(1));
                io.wait(ctx)
            }
        }
    }

    /// Nonblocking completion poll (`MPI_Test` shape): true when
    /// [`Self::wait`] will not block. Drivers that can make progress here
    /// do (DAFS drains arrived VIA completions and posts freed credits);
    /// others conservatively report false.
    pub fn test(&mut self, ctx: &ActorCtx) -> bool {
        match &mut self.state {
            ReqState::Done(_) => true,
            ReqState::Pending(io) => io.test(ctx),
        }
    }
}

/// How the requests of a multi-request transfer may travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One filesystem request per range, pipelined where the driver can.
    Batch,
    /// Wire-level vectored (list) requests where the driver has them.
    List,
}

/// An open file as seen by the MPI-IO core.
pub trait AdioFile: Send + Sync {
    /// The one data method: issue a multi-request transfer and return a
    /// handle the caller overlaps work against before waiting
    /// ([`AdioRequest::wait`] returns the total bytes moved; a read is
    /// short at EOF). [`Shape::List`] asks for `reqs` — sorted ascending
    /// and non-overlapping on both the file-offset and buffer-address axes
    /// — to travel as one list request per credit-window chunk; a driver
    /// without list ops, or handed an unsorted batch, carries them as a
    /// plain batch. A driver with nothing to overlap completes the request
    /// at issue ([`AdioRequest::ready`]).
    fn itransfer(&self, ctx: &ActorCtx, dir: BatchDir, shape: Shape, reqs: &[IoReq])
        -> AdioRequest;

    /// Blocking form of [`AdioFile::itransfer`]: issue, then wait.
    fn transfer(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        shape: Shape,
        reqs: &[IoReq],
    ) -> AdioResult<u64> {
        self.itransfer(ctx, dir, shape, reqs).wait(ctx)
    }

    /// Read `len` bytes at `off` into `dst`; returns bytes read (short at
    /// EOF). A blocking transfer of the one range.
    fn read_contig(&self, ctx: &ActorCtx, off: u64, dst: VirtAddr, len: u64) -> AdioResult<u64> {
        let req = IoReq {
            off,
            addr: dst,
            len,
        };
        self.transfer(ctx, BatchDir::Read, Shape::Batch, &[req])
    }

    /// Write `len` bytes at `off` from `src`, the same way.
    fn write_contig(&self, ctx: &ActorCtx, off: u64, src: VirtAddr, len: u64) -> AdioResult<()> {
        let req = IoReq {
            off,
            addr: src,
            len,
        };
        self.transfer(ctx, BatchDir::Write, Shape::Batch, &[req])
            .map(|_| ())
    }

    /// True when this open file ships a sorted batch of ranges as
    /// wire-level vectored (list) requests — [`Shape::List`] transfers are
    /// real ops, not loops. The DAFS driver answers per the `dafs_listio`
    /// hint captured at open; everything else says false and the MPI-IO
    /// core keeps data sieving.
    fn list_io_enabled(&self) -> bool {
        false
    }

    /// Current file size.
    fn get_size(&self, ctx: &ActorCtx) -> AdioResult<u64>;

    /// Truncate / extend.
    fn set_size(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()>;

    /// Flush to stable storage (`MPI_File_sync`).
    fn flush(&self, ctx: &ActorCtx) -> AdioResult<()>;

    /// Atomically advance the shared file pointer by `nbytes`, returning
    /// its previous value. `Err(NotSupported)` where the filesystem has no
    /// locking primitive.
    fn shared_fetch_add(&self, _ctx: &ActorCtx, _nbytes: u64) -> AdioResult<u64> {
        Err(AdioError::NotSupported)
    }

    /// Reset the shared file pointer (collective open / seek_shared).
    fn shared_set(&self, _ctx: &ActorCtx, _value: u64) -> AdioResult<()> {
        Err(AdioError::NotSupported)
    }

    /// Acquire the whole-file lock (needed by read-modify-write data
    /// sieving; `Err(NotSupported)` on filesystems without locks, where
    /// sieved writes must fall back to per-range writes).
    fn lock_file(&self, _ctx: &ActorCtx) -> AdioResult<()> {
        Err(AdioError::NotSupported)
    }

    /// Release the whole-file lock.
    fn unlock_file(&self, _ctx: &ActorCtx) -> AdioResult<()> {
        Err(AdioError::NotSupported)
    }

    /// How this open file is laid out over servers: `(unit, servers)` when
    /// consecutive `unit`-byte stripes go round-robin over `servers` > 1
    /// servers, `None` when every byte lives behind the one wire. Observed
    /// from the open file, not hinted — the two-phase sweep shapes its
    /// windows on it.
    fn stripe_layout(&self) -> Option<(u64, usize)> {
        None
    }
}

/// A mounted filesystem that can open [`AdioFile`]s.
pub trait AdioFs: Send + Sync {
    /// Open (optionally creating) `path` relative to the root. Creates
    /// missing parent directories when `create` is set (convenience beyond
    /// POSIX, used by the harnesses).
    fn open(&self, ctx: &ActorCtx, path: &str, create: bool) -> AdioResult<Arc<dyn AdioFile>>;

    /// Open with the application's `MPI_Info` hints in scope. Drivers that
    /// interpret layout hints (the striped driver reads `striping_factor`
    /// / `striping_unit`) override this; the default ignores the hints.
    fn open_with_hints(
        &self,
        ctx: &ActorCtx,
        path: &str,
        create: bool,
        _hints: &crate::hints::Hints,
    ) -> AdioResult<Arc<dyn AdioFile>> {
        self.open(ctx, path, create)
    }

    /// Remove a file.
    fn delete(&self, ctx: &ActorCtx, path: &str) -> AdioResult<()>;

    /// Which driver this is.
    fn kind(&self) -> DriverKind;
}

// ---------------------------------------------------------------------------
// DAFS driver
// ---------------------------------------------------------------------------

/// Default stripe size when no `striping_unit` hint is given (the classic
/// ROMIO/PVFS default).
const DEFAULT_STRIPE: u64 = 64 << 10;

/// ADIO over N ≥ 1 DAFS sessions, one per server: each file is striped
/// round-robin across the servers ([`dafs::DafsStripedFile`]). One session
/// is the paper's configuration — every range then lands whole on the one
/// server at its logical offset, and the op stream is that of the bare
/// session. The `striping_factor` hint selects how many of the available
/// servers a file stripes over (0 = all), `striping_unit` the block size —
/// both honored at open time, PVFS style, so an existing file must be
/// reopened with the layout it was created with.
pub struct DafsAdio {
    clients: Vec<Arc<DafsClient>>,
}

impl DafsAdio {
    /// Wrap one established session per server, in server order.
    pub fn new(clients: Vec<Arc<DafsClient>>) -> DafsAdio {
        assert!(!clients.is_empty(), "DAFS ADIO needs at least one server");
        DafsAdio { clients }
    }

    /// Number of servers available to stripe over.
    pub fn servers(&self) -> usize {
        self.clients.len()
    }
}

/// Walk `path`'s directory components with the driver's `lookup`,
/// creating a missing one with its `mkdir` when `create` is set; returns
/// the parent directory and the final component.
fn resolve(
    path: &str,
    create: bool,
    lookup: impl Fn(NodeId, &str) -> AdioResult<NodeId>,
    mkdir: impl Fn(NodeId, &str) -> AdioResult<NodeId>,
) -> AdioResult<(NodeId, &str)> {
    let mut parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
    let name = parts.pop().ok_or(AdioError::NoSuchFile)?;
    let mut dir = memfs::ROOT_ID;
    for part in parts {
        dir = if create {
            lookup_or_make(|| lookup(dir, part), || mkdir(dir, part))?
        } else {
            lookup(dir, part)?
        };
    }
    Ok((dir, name))
}

/// `lookup`, and when it finds nothing, `make`, racing politely with
/// concurrent ranks: a `make` answered `Exists` lost to another rank's, so
/// look up theirs.
fn lookup_or_make(
    lookup: impl Fn() -> AdioResult<NodeId>,
    make: impl FnOnce() -> AdioResult<NodeId>,
) -> AdioResult<NodeId> {
    match lookup() {
        Err(AdioError::NoSuchFile) => match make() {
            Err(AdioError::Exists) => lookup(),
            made => made,
        },
        found => found,
    }
}

/// The ROMIO shared-pointer recipe — a DAFS file lock around a
/// read-modify-write of the hidden pointer file.
fn dafs_shfp_fetch_add(
    client: &DafsClient,
    ctx: &ActorCtx,
    shfp: NodeId,
    nbytes: u64,
) -> AdioResult<u64> {
    client.lock(ctx, shfp).map_err(AdioError::from)?;
    let result = (|| -> AdioResult<u64> {
        let cur = client
            .read_to_vec(ctx, shfp, 0, 8)
            .map_err(AdioError::from)?;
        let old = u64::from_le_bytes(
            cur.as_slice()
                .try_into()
                .map_err(|_| AdioError::Io(IoFault::Protocol))?,
        );
        client
            .write_bytes(ctx, shfp, 0, &(old + nbytes).to_le_bytes())
            .map_err(AdioError::from)?;
        Ok(old)
    })();
    client.unlock(ctx, shfp).map_err(AdioError::from)?;
    result
}

/// Reset the shared pointer under the same lock.
fn dafs_shfp_set(client: &DafsClient, ctx: &ActorCtx, shfp: NodeId, value: u64) -> AdioResult<()> {
    client.lock(ctx, shfp).map_err(AdioError::from)?;
    let r = client
        .write_bytes(ctx, shfp, 0, &value.to_le_bytes())
        .map(|_| ())
        .map_err(AdioError::from);
    client.unlock(ctx, shfp).map_err(AdioError::from)?;
    r
}

/// The hidden shared-file-pointer companion file suffix.
const SHFP_SUFFIX: &str = ".shfp";

/// Re-express a sorted batch of contiguous requests as one vectored
/// request, its segments relative to the lowest buffer address. `None`
/// when the batch isn't ascending and non-overlapping on both the
/// file-offset and buffer-address axes — the caller keeps the contiguous
/// batch path.
fn list_segments(reqs: &[IoReq]) -> Option<ListReq> {
    let buf = reqs.first()?.addr;
    let mut segs = Vec::with_capacity(reqs.len());
    for r in reqs {
        let rel = r.addr.as_u64().checked_sub(buf.as_u64())?;
        segs.push((r.off, r.len, rel));
    }
    dafs::list_acceptable(&segs).then_some(ListReq { segs, buf })
}

/// Whether the `dafs_listio` hint turns list I/O on. `Automatic` means on:
/// the DAFS wire protocol always has the ops, so only an explicit
/// `disable` keeps sieving.
fn listio_on(hints: &crate::hints::Hints) -> bool {
    hints.dafs_listio != crate::hints::TriState::Disable
}

/// Whether the `dafs_cache` hint turns the lease-coherent client cache on.
/// Unlike `dafs_listio`, `Automatic` means OFF: caching acquires leases and
/// changes the op stream, so it is strictly opt-in — only an explicit
/// `enable` enrols the piece files in their sessions' caches
/// ([`DafsClient::cache_file`]), for the sessions' life: a later open
/// without the hint un-enrols nothing, and reads the same cache.
fn cache_on(hints: &crate::hints::Hints) -> bool {
    hints.dafs_cache == crate::hints::TriState::Enable
}

struct DafsHandle {
    /// The logical file.
    file: Arc<DafsStripedFile>,
    /// Shared-pointer companion, on server 0 (the metadata authority).
    shfp: NodeId,
    /// `dafs_listio` hint captured at open: route sorted noncontiguous
    /// batches through the wire-level list ops.
    listio: bool,
}

impl AdioFs for DafsAdio {
    fn open(&self, ctx: &ActorCtx, path: &str, create: bool) -> AdioResult<Arc<dyn AdioFile>> {
        self.open_with_hints(ctx, path, create, &crate::hints::Hints::default())
    }

    fn open_with_hints(
        &self,
        ctx: &ActorCtx,
        path: &str,
        create: bool,
        hints: &crate::hints::Hints,
    ) -> AdioResult<Arc<dyn AdioFile>> {
        let factor = if hints.striping_factor == 0 {
            self.clients.len()
        } else {
            hints.striping_factor.min(self.clients.len())
        };
        let stripe = if hints.striping_unit == 0 {
            DEFAULT_STRIPE
        } else {
            hints.striping_unit
        };
        // One piece file per server, all under the same path (each server
        // has its own namespace, so the paths never collide).
        let mut clients = Vec::with_capacity(factor);
        let mut fhs = Vec::with_capacity(factor);
        let mut shfp = None;
        for c in &self.clients[..factor] {
            let lookup = |dir, name: &str| Ok(c.lookup(ctx, dir, name)?.id);
            let mkdir = |dir, name: &str| Ok(c.mkdir(ctx, dir, name)?.id);
            let (dir, name) = resolve(path, create, lookup, mkdir)?;
            let fh = if create {
                lookup_or_make(|| lookup(dir, name), || Ok(c.create(ctx, dir, name)?.id))?
            } else {
                lookup(dir, name)?
            };
            if cache_on(hints) {
                c.cache_file(fh);
            }
            fhs.push(fh);
            clients.push(c.clone());
            if shfp.is_none() {
                // The hidden shared-pointer companion, zero-initialized
                // by whichever rank creates it.
                let shfp_name = format!("{name}{SHFP_SUFFIX}");
                shfp = Some(lookup_or_make(
                    || lookup(dir, &shfp_name),
                    || {
                        let id = c.create(ctx, dir, &shfp_name)?.id;
                        c.write_bytes(ctx, id, 0, &0u64.to_le_bytes())?;
                        Ok(id)
                    },
                )?);
            }
        }
        let file = DafsStripedFile::new(clients, fhs, stripe);
        Ok(Arc::new(DafsHandle {
            file: Arc::new(file),
            shfp: shfp.expect("factor >= 1"),
            listio: listio_on(hints),
        }))
    }

    fn delete(&self, ctx: &ActorCtx, path: &str) -> AdioResult<()> {
        // Remove the piece on every server: the file may have been created
        // with any striping factor up to the server count.
        let mut found = false;
        for (s, c) in self.clients.iter().enumerate() {
            let lookup = |dir, name: &str| Ok(c.lookup(ctx, dir, name)?.id);
            let mkdir = |dir, name: &str| Ok(c.mkdir(ctx, dir, name)?.id);
            let (dir, name) = resolve(path, false, lookup, mkdir)?;
            match c.remove(ctx, dir, name) {
                Ok(()) => found = true,
                Err(DafsError::Status(dafs::DafsStatus::NoEnt)) => {}
                Err(e) => return Err(e.into()),
            }
            if s == 0 {
                let _ = c.remove(ctx, dir, &format!("{name}{SHFP_SUFFIX}"));
            }
        }
        if found {
            Ok(())
        } else {
            Err(AdioError::NoSuchFile)
        }
    }

    fn kind(&self) -> DriverKind {
        if self.clients.len() == 1 {
            DriverKind::Dafs
        } else {
            DriverKind::DafsStriped
        }
    }
}

/// Issue half of every DAFS transfer: one list request when `listed` (the
/// caller asked for one and the hint allows it) and the batch is sorted;
/// the contiguous batch otherwise.
fn dafs_issue(
    file: &DafsStripedFile,
    ctx: &ActorCtx,
    dir: BatchDir,
    listed: bool,
    reqs: &[IoReq],
) -> DafsStripedBatch {
    match listed.then(|| list_segments(reqs)).flatten() {
        Some(lr) => file.issue_list(ctx, dir, &[lr]),
        None => file.issue(ctx, dir, reqs),
    }
}

impl AdioFile for DafsHandle {
    fn list_io_enabled(&self) -> bool {
        self.listio
    }

    fn itransfer(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        shape: Shape,
        reqs: &[IoReq],
    ) -> AdioRequest {
        let listed = shape == Shape::List && self.listio;
        let batch = dafs_issue(&self.file, ctx, dir, listed, reqs);
        AdioRequest::pending(
            ctx,
            Box::new(DafsInFlight {
                file: self.file.clone(),
                dir,
                listed,
                reqs: reqs.to_vec(),
                batch,
            }),
        )
    }

    fn get_size(&self, ctx: &ActorCtx) -> AdioResult<u64> {
        self.file.get_size(ctx).map_err(AdioError::from)
    }

    fn set_size(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()> {
        self.file.set_size(ctx, size).map_err(AdioError::from)
    }

    fn flush(&self, ctx: &ActorCtx) -> AdioResult<()> {
        self.file.sync(ctx).map_err(AdioError::from)
    }

    fn shared_fetch_add(&self, ctx: &ActorCtx, nbytes: u64) -> AdioResult<u64> {
        dafs_shfp_fetch_add(self.file.client(0), ctx, self.shfp, nbytes)
    }

    fn shared_set(&self, ctx: &ActorCtx, value: u64) -> AdioResult<()> {
        dafs_shfp_set(self.file.client(0), ctx, self.shfp, value)
    }

    fn lock_file(&self, ctx: &ActorCtx) -> AdioResult<()> {
        self.file.lock(ctx).map_err(AdioError::from)
    }

    fn unlock_file(&self, ctx: &ActorCtx) -> AdioResult<()> {
        self.file.unlock(ctx).map_err(AdioError::from)
    }

    fn stripe_layout(&self) -> Option<(u64, usize)> {
        let servers = self.file.servers();
        (servers > 1).then(|| (self.file.stripe_size(), servers))
    }
}

/// A DAFS transfer in flight — per-server batches, or one that completed at
/// issue — plus what is needed to issue it again (idempotent: reads
/// re-fetch, writes re-put the same bytes at the same offsets).
struct DafsInFlight {
    file: Arc<DafsStripedFile>,
    dir: BatchDir,
    listed: bool,
    reqs: Vec<IoReq>,
    batch: DafsStripedBatch,
}

impl PendingIo for DafsInFlight {
    fn test(&mut self, ctx: &ActorCtx) -> bool {
        self.file.batch_test(ctx, &mut self.batch)
    }

    /// Finish the batch; while the transfer fails with a transient fault
    /// the sessions' own recovery gave up on, issue it again, within the
    /// one ADIO retry budget.
    fn wait(self: Box<Self>, ctx: &ActorCtx) -> AdioResult<u64> {
        let DafsInFlight {
            file,
            dir,
            listed,
            reqs,
            batch,
        } = *self;
        let issued = std::cell::Cell::new(Some(batch));
        with_retries(ctx, || {
            let b = issued.take();
            let b = b.unwrap_or_else(|| dafs_issue(&file, ctx, dir, listed, &reqs));
            file.batch_finish(ctx, b).map_err(AdioError::from)
        })
    }
}

// ---------------------------------------------------------------------------
// NFS driver
// ---------------------------------------------------------------------------

/// ADIO over an NFS mount (the baseline).
pub struct NfsAdio {
    client: Arc<NfsClient>,
}

impl NfsAdio {
    /// Wrap an established mount.
    pub fn new(client: Arc<NfsClient>) -> NfsAdio {
        NfsAdio { client }
    }
}

#[derive(Clone)]
struct NfsFileHandle {
    client: Arc<NfsClient>,
    fh: NodeId,
}

impl NfsFileHandle {
    /// Open the mount's transfer of one range, at most `window` RPCs in
    /// flight. A write takes its bytes from the caller's buffer now.
    fn open(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        r: &IoReq,
        window: usize,
    ) -> NfsTransfer<'static> {
        let mem = &self.client.host().mem;
        let io = match dir {
            BatchDir::Read => NfsIo::Read(r.len),
            BatchDir::Write => NfsIo::Write(mem.read_vec(r.addr, r.len as usize).into()),
        };
        self.client.begin(ctx, self.fh, r.off, io, window)
    }

    /// Collect the transfer [`Self::open`] opened for `r`, landing a read
    /// in the caller's buffer: the bytes moved. Each reply's bytes are
    /// written at their offset, the one copy the client charged for them.
    fn collect(&self, ctx: &ActorCtx, dir: BatchDir, t: NfsTransfer, r: &IoReq) -> AdioResult<u64> {
        match dir {
            BatchDir::Read => {
                let data = self.client.read_finish(ctx, t)?;
                let mut at = r.addr;
                for piece in &data {
                    self.client.host().mem.write(at, piece);
                    at = at.offset(piece.len() as u64);
                }
                Ok(data.len() as u64)
            }
            BatchDir::Write => Ok(self.client.write_finish(ctx, t).map(|_| r.len)?),
        }
    }
}

impl AdioFs for NfsAdio {
    fn open(&self, ctx: &ActorCtx, path: &str, create: bool) -> AdioResult<Arc<dyn AdioFile>> {
        let c = &self.client;
        let lookup = |dir, name: &str| Ok(c.lookup(ctx, dir, name)?.id);
        let mkdir = |dir, name: &str| Ok(c.mkdir(ctx, dir, name)?.id);
        let (dir, name) = resolve(path, create, lookup, mkdir)?;
        let fh = if create {
            lookup_or_make(|| lookup(dir, name), || Ok(c.create(ctx, dir, name)?.id))?
        } else {
            lookup(dir, name)?
        };
        Ok(Arc::new(NfsFileHandle {
            client: self.client.clone(),
            fh,
        }))
    }

    fn delete(&self, ctx: &ActorCtx, path: &str) -> AdioResult<()> {
        let c = &self.client;
        let lookup = |dir, name: &str| Ok(c.lookup(ctx, dir, name)?.id);
        let mkdir = |dir, name: &str| Ok(c.mkdir(ctx, dir, name)?.id);
        let (dir, name) = resolve(path, false, lookup, mkdir)?;
        c.remove(ctx, dir, name).map_err(AdioError::from)
    }

    fn kind(&self) -> DriverKind {
        DriverKind::Nfs
    }
}

impl AdioFile for NfsFileHandle {
    fn get_size(&self, ctx: &ActorCtx) -> AdioResult<u64> {
        // Revalidate rather than just refetch: MPI_File_get_size is a
        // consistency point, so a version change must also drop any pages
        // the NFS data cache holds for this file.
        Ok(self
            .client
            .revalidate_attr(ctx, self.fh)
            .map_err(AdioError::from)?
            .size)
    }

    fn set_size(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()> {
        self.client
            .truncate(ctx, self.fh, size)
            .map(|_| ())
            .map_err(AdioError::from)
    }

    /// Each range one transfer, all of its RPCs posted at once.
    fn itransfer(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        _shape: Shape,
        reqs: &[IoReq],
    ) -> AdioRequest {
        let transfers = reqs
            .iter()
            .map(|r| self.open(ctx, dir, r, usize::MAX))
            .collect();
        let (file, reqs) = (self.clone(), reqs.to_vec());
        let pending = NfsPending {
            file,
            dir,
            reqs,
            transfers,
        };
        AdioRequest::pending(ctx, Box::new(pending))
    }

    /// Not issue plus wait: the baseline's blocking calls keep one RPC in
    /// flight at a time. Each range is a transfer with a window of one,
    /// under the ADIO retry budget.
    fn transfer(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        _shape: Shape,
        reqs: &[IoReq],
    ) -> AdioResult<u64> {
        let one = |r| with_retries(ctx, || self.collect(ctx, dir, self.open(ctx, dir, r, 1), r));
        reqs.iter().map(one).sum()
    }

    fn flush(&self, ctx: &ActorCtx) -> AdioResult<()> {
        // FILE_SYNC writes are already stable; COMMIT covers unstable mounts.
        self.client.commit(ctx, self.fh).map_err(AdioError::from)
    }
}

/// Split-phase NFS transfers in flight, one per batch entry, plus what is
/// needed to re-run the batch on a residual transient failure.
struct NfsPending {
    file: NfsFileHandle,
    dir: BatchDir,
    reqs: Vec<IoReq>,
    transfers: Vec<NfsTransfer<'static>>,
}

impl PendingIo for NfsPending {
    fn wait(self: Box<Self>, ctx: &ActorCtx) -> AdioResult<u64> {
        let p = *self;
        // Every transfer is collected, the first error winning: one left
        // uncollected would leave its RPCs in the mount's request table.
        let collected: Vec<_> = (p.transfers.into_iter().zip(&p.reqs))
            .map(|(t, r)| p.file.collect(ctx, p.dir, t, r))
            .collect();
        match collected.into_iter().sum() {
            Err(e) if transient(&e) => {
                // Residual transient failure after the RPC layer's own
                // retransmits: re-run the whole batch the blocking way
                // (idempotent — reads re-fetch, writes re-put the same
                // bytes). Every RPC of the batch is answered or given up
                // by now; a timed-out one's late reply is dropped as a
                // stale duplicate.
                ctx.metrics().counter("adio.retries").inc();
                p.file.transfer(ctx, p.dir, Shape::Batch, &p.reqs)
            }
            r => r,
        }
    }
}

// ---------------------------------------------------------------------------
// UFS driver (node-local)
// ---------------------------------------------------------------------------

/// The node-local filesystem's (memory-resident page cache) syscall + VFS
/// dispatch per operation.
const UFS_PER_OP: SimDuration = us(5);

/// ADIO over a node-local in-memory filesystem.
pub struct UfsAdio {
    fs: MemFs,
    host: Host,
}

impl UfsAdio {
    /// A local filesystem on `host`.
    pub fn new(fs: MemFs, host: Host) -> UfsAdio {
        UfsAdio { fs, host }
    }
}

struct UfsFileHandle {
    fs: MemFs,
    fh: NodeId,
    host: Host,
}

impl AdioFs for UfsAdio {
    fn open(&self, ctx: &ActorCtx, path: &str, create: bool) -> AdioResult<Arc<dyn AdioFile>> {
        self.host.compute(ctx, UFS_PER_OP);
        let fs = &self.fs;
        let lookup = |dir, name: &str| Ok(fs.lookup(dir, name)?.id);
        let mkdir = |dir, name: &str| Ok(fs.mkdir(dir, name)?.id);
        let (dir, name) = resolve(path, create, lookup, mkdir)?;
        let fh = if create {
            lookup_or_make(|| lookup(dir, name), || Ok(fs.create(dir, name)?.id))?
        } else {
            lookup(dir, name)?
        };
        Ok(Arc::new(UfsFileHandle {
            fs: self.fs.clone(),
            fh,
            host: self.host.clone(),
        }))
    }

    fn delete(&self, ctx: &ActorCtx, path: &str) -> AdioResult<()> {
        self.host.compute(ctx, UFS_PER_OP);
        let fs = &self.fs;
        let lookup = |dir, name: &str| Ok(fs.lookup(dir, name)?.id);
        let mkdir = |dir, name: &str| Ok(fs.mkdir(dir, name)?.id);
        let (dir, name) = resolve(path, false, lookup, mkdir)?;
        fs.remove(dir, name).map_err(AdioError::from)
    }

    fn kind(&self) -> DriverKind {
        DriverKind::Ufs
    }
}

impl AdioFile for UfsFileHandle {
    /// Memory-resident: nothing to overlap, so each range is one syscall
    /// and one page-cache copy, now, and the request is born complete.
    fn itransfer(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        _shape: Shape,
        reqs: &[IoReq],
    ) -> AdioRequest {
        let run = || -> AdioResult<u64> {
            let mut total = 0;
            for r in reqs {
                // The syscall and its copy are one `cpu.compute` event.
                self.host.compute(ctx, UFS_PER_OP + HOST.copy(r.len));
                total += match dir {
                    BatchDir::Read => {
                        let data = self.fs.read(self.fh, r.off, r.len)?;
                        self.host.mem.write(r.addr, &data);
                        data.len() as u64
                    }
                    BatchDir::Write => {
                        let data = self.host.mem.read_vec(r.addr, r.len as usize);
                        self.fs.write(self.fh, r.off, &data)?;
                        r.len
                    }
                };
            }
            Ok(total)
        };
        AdioRequest::ready(run())
    }

    fn get_size(&self, ctx: &ActorCtx) -> AdioResult<u64> {
        self.host.compute(ctx, UFS_PER_OP);
        Ok(self.fs.getattr(self.fh).map_err(AdioError::from)?.size)
    }

    fn set_size(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()> {
        self.host.compute(ctx, UFS_PER_OP);
        self.fs
            .setattr(self.fh, SetAttr { size: Some(size) })
            .map(|_| ())
            .map_err(AdioError::from)
    }

    fn flush(&self, ctx: &ActorCtx) -> AdioResult<()> {
        self.host.compute(ctx, UFS_PER_OP);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, SimKernel};

    fn run_ufs(f: impl FnOnce(&ActorCtx, &UfsAdio, &Host) + Send + 'static) {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let host = cluster.add_host("node");
        let fs = MemFs::new();
        let h2 = host.clone();
        kernel.spawn("t", move |ctx| {
            let adio = UfsAdio::new(fs, h2.clone());
            f(ctx, &adio, &h2);
        });
        kernel.run();
    }

    #[test]
    fn ufs_roundtrip_with_nested_path() {
        run_ufs(|ctx, adio, host| {
            let f = adio.open(ctx, "/a/b/c.dat", true).unwrap();
            let src = host.mem.alloc(1000);
            host.mem.fill(src, 1000, 0x11);
            f.write_contig(ctx, 0, src, 1000).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), 1000);
            let dst = host.mem.alloc(1000);
            assert_eq!(f.read_contig(ctx, 0, dst, 1000).unwrap(), 1000);
            assert_eq!(host.mem.read_vec(dst, 1000), vec![0x11; 1000]);
            f.set_size(ctx, 10).unwrap();
            assert_eq!(f.get_size(ctx).unwrap(), 10);
            f.flush(ctx).unwrap();
            adio.delete(ctx, "/a/b/c.dat").unwrap();
            assert!(matches!(
                adio.open(ctx, "/a/b/c.dat", false).err(),
                Some(AdioError::NoSuchFile)
            ));
        });
    }

    #[test]
    fn ufs_shared_pointer_unsupported() {
        run_ufs(|ctx, adio, _| {
            let f = adio.open(ctx, "/x", true).unwrap();
            assert_eq!(f.shared_fetch_add(ctx, 10), Err(AdioError::NotSupported));
        });
    }

    #[test]
    fn ufs_charges_cpu() {
        run_ufs(|ctx, adio, host| {
            let f = adio.open(ctx, "/x", true).unwrap();
            let src = host.mem.alloc(1 << 20);
            let before = host.cpu.busy();
            f.write_contig(ctx, 0, src, 1 << 20).unwrap();
            let spent = host.cpu.busy() - before;
            // 1 MiB copy at 400 MB/s ≈ 2.6 ms.
            assert!(spent.as_secs_f64() > 0.002, "UFS write cost {spent}");
        });
    }

    /// UFS's one data method runs at issue: its request is born complete
    /// (`test` is true before any wait, and nothing is ever in flight), and
    /// the blocking calls are that request waited.
    #[test]
    fn ufs_itransfer_completes_at_issue() {
        run_ufs(|ctx, adio, host| {
            let f = adio.open(ctx, "/b", true).unwrap();
            let bufs: Vec<VirtAddr> = (0..4).map(|_| host.mem.alloc(100)).collect();
            for (i, b) in bufs.iter().enumerate() {
                host.mem.fill(*b, 100, i as u8 + 1);
            }
            let writes: Vec<IoReq> = bufs
                .iter()
                .enumerate()
                .map(|(i, b)| IoReq {
                    off: (i * 100) as u64,
                    addr: *b,
                    len: 100,
                })
                .collect();
            let mut req = f.itransfer(ctx, BatchDir::Write, Shape::Batch, &writes);
            assert!(req.test(ctx), "born complete");
            assert_eq!(f.get_size(ctx), Ok(400), "written at issue");
            assert_eq!(req.wait(ctx), Ok(400));
            assert_eq!(ctx.metrics().histogram("adio.inflight").count(), 0);
            let dst = host.mem.alloc(400);
            assert_eq!(f.read_contig(ctx, 0, dst, 400).unwrap(), 400);
            let got = host.mem.read_vec(dst, 400);
            for i in 0..4 {
                assert_eq!(got[i * 100], i as u8 + 1);
            }
        });
    }

    /// A split-phase NFS batch that fails is collected whole: `wait` takes
    /// every transfer's replies before it returns the first error, so by
    /// then the nfsd has served every RPC the batch posted. It used to stop
    /// at the first failed transfer and drop the rest uncollected.
    #[test]
    fn a_failed_nfs_batch_is_collected_whole() {
        let (kernel, cluster) = (SimKernel::new(), Cluster::new());
        let fabric = tcpnet::TcpFabric::new(tcpnet::TcpCost::default());
        let (host, server_host) = (cluster.add_host("client"), cluster.add_host("server"));
        let fs = MemFs::new();
        let cost = nfsv3::NfsServerCost::default();
        let server = nfsv3::spawn_nfs_server(&kernel, &fabric, server_host, fs.clone(), 2049, cost);
        let (ops, sid) = (server.stats.ops.clone(), server.host.id);
        kernel.spawn("rank", move |ctx| {
            let config = nfsv3::NfsClientConfig::default();
            let c = NfsClient::mount(ctx, &fabric, &host, sid, 2049, config).unwrap();
            let f = NfsAdio::new(Arc::new(c)).open(ctx, "/gone", true).unwrap();
            // The server forgets the file: every WRITE to it fails.
            fs.remove(memfs::ROOT_ID, "gone").unwrap();
            let len = 4 * config.wsize;
            let buf = host.mem.alloc(2 * len as usize);
            let reqs: Vec<IoReq> = (0..2)
                .map(|i| IoReq {
                    off: i * len,
                    addr: buf.offset(i * len),
                    len,
                })
                .collect();
            let before = ops.get();
            let req = f.itransfer(ctx, BatchDir::Write, Shape::Batch, &reqs);
            assert!(req.wait(ctx).is_err());
            assert_eq!(ops.get() - before, 8, "every WRITE served before the error");
        });
        kernel.run();
    }
}
