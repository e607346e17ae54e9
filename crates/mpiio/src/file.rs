//! `MPI_File`: open/close, file views, independent I/O (with data
//! sieving), file pointers (individual and shared), nonblocking requests,
//! and consistency operations.
//!
//! Offsets follow MPI: explicit offsets and file pointers count in
//! **etypes** relative to the current view; transfer lengths are given in
//! bytes (a multiple of the etype size, as MPI's `count × datatype`
//! implies). Memory buffers are contiguous simulated-memory ranges — the
//! common case; noncontiguity lives on the *file* side via the view.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{ActorCtx, Host, VirtAddr};

use crate::adio::{AdioError, AdioFile, AdioFs, AdioResult, BatchDir, DriverKind, IoReq, Shape};
use crate::datatype::Datatype;
use crate::hints::{Hints, TriState};
use crate::view::FileView;

/// Open mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenMode {
    /// Create the file (and missing parent directories) if absent.
    pub create: bool,
    /// Delete the file when closed (scratch files).
    pub delete_on_close: bool,
}

impl OpenMode {
    /// `MPI_MODE_CREATE | MPI_MODE_RDWR`.
    pub fn create() -> OpenMode {
        OpenMode {
            create: true,
            delete_on_close: false,
        }
    }

    /// Plain read/write of an existing file.
    pub fn open() -> OpenMode {
        OpenMode::default()
    }
}

/// Builder-style open, so new knobs extend the builder instead of growing
/// the [`MpiFile::open`] signature:
///
/// ```ignore
/// let file = OpenOptions::new()
///     .create(true)
///     .hints(hints)
///     .open(ctx, adio, &host, "/data.out")?;
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    mode: OpenMode,
    hints: Hints,
}

impl OpenOptions {
    /// Defaults: plain read/write of an existing file, default hints.
    pub fn new() -> OpenOptions {
        OpenOptions::default()
    }

    /// Create the file (and missing parents) if absent (`MPI_MODE_CREATE`).
    pub fn create(mut self, yes: bool) -> OpenOptions {
        self.mode.create = yes;
        self
    }

    /// Delete the file when closed (`MPI_MODE_DELETE_ON_CLOSE`).
    pub fn delete_on_close(mut self, yes: bool) -> OpenOptions {
        self.mode.delete_on_close = yes;
        self
    }

    /// Replace the whole mode at once.
    pub fn mode(mut self, mode: OpenMode) -> OpenOptions {
        self.mode = mode;
        self
    }

    /// I/O-strategy hints (`MPI_Info`).
    pub fn hints(mut self, hints: Hints) -> OpenOptions {
        self.hints = hints;
        self
    }

    /// Open `path` on `fs` with the collected options.
    pub fn open(
        &self,
        ctx: &ActorCtx,
        fs: &dyn AdioFs,
        host: &Host,
        path: &str,
    ) -> AdioResult<MpiFile> {
        MpiFile::open(ctx, fs, host, path, self.mode, self.hints.clone())
    }
}

/// Whence modes for [`MpiFile::seek_whence`] (`MPI_SEEK_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeekWhence {
    /// Absolute (`MPI_SEEK_SET`).
    Set,
    /// Relative to the individual pointer (`MPI_SEEK_CUR`).
    Cur,
    /// Relative to the view's end of file (`MPI_SEEK_END`).
    End,
}

/// A completed-or-pending nonblocking operation (`MPI_Request`).
///
/// Wraps the driver-level [`crate::adio::AdioRequest`]: on DAFS and NFS the I/O is
/// genuinely in flight (issued but not collected) until `wait`, so the
/// caller can overlap computation or communication with it. Drivers
/// without split-phase support complete eagerly at post time.
#[must_use = "requests must be waited on"]
pub struct Request {
    inner: crate::adio::AdioRequest,
}

impl Request {
    /// Complete the request, returning bytes transferred.
    pub fn wait(self, ctx: &ActorCtx) -> AdioResult<u64> {
        self.inner.wait(ctx)
    }

    /// Nonblocking completion test (`MPI_Test`): true once the transfer
    /// has fully landed. `wait` must still be called to collect the
    /// result.
    pub fn test(&mut self, ctx: &ActorCtx) -> bool {
        self.inner.test(ctx)
    }
}

/// An open MPI file handle (per rank).
pub struct MpiFile {
    file: Arc<dyn AdioFile>,
    path: String,
    mode: OpenMode,
    driver: DriverKind,
    host: Host,
    /// `mpiio.copy_bytes`: the bytes those copies moved.
    copy_bytes: obs::LazyCounter,
    view: Mutex<FileView>,
    /// Individual file pointer, in etypes.
    fp: Mutex<u64>,
    hints: Hints,
    /// The two-phase sweep's collective buffers as `(address, bytes)`,
    /// kept from call to call ([`MpiFile::coll_bufs`]) and freed with the
    /// handle.
    coll: Mutex<Vec<(VirtAddr, u64)>>,
}

impl MpiFile {
    /// Open `path` on `fs` (each rank calls this; collective open is the
    /// harness calling it on every rank).
    pub fn open(
        ctx: &ActorCtx,
        fs: &dyn AdioFs,
        host: &Host,
        path: &str,
        mode: OpenMode,
        hints: Hints,
    ) -> AdioResult<MpiFile> {
        // Surface inert hints the application supplied: counted (and
        // traced) here because hint parsing itself has no metrics context.
        for key in hints.unknown_keys() {
            ctx.metrics().counter("mpiio.hints.unknown").inc();
            ctx.trace("mpiio", "hints.unknown", &[("key", obs::Value::Str(key))]);
        }
        let file = fs.open_with_hints(ctx, path, mode.create, &hints)?;
        Ok(MpiFile {
            file,
            path: path.to_string(),
            mode,
            driver: fs.kind(),
            host: host.clone(),
            copy_bytes: obs::LazyCounter::new("mpiio.copy_bytes"),
            view: Mutex::new(FileView::contiguous()),
            fp: Mutex::new(0),
            hints,
            coll: Mutex::new(Vec::new()),
        })
    }

    /// Close; honors delete_on_close.
    pub fn close(self, ctx: &ActorCtx, fs: &dyn AdioFs) -> AdioResult<()> {
        if self.mode.delete_on_close {
            fs.delete(ctx, &self.path)?;
        }
        Ok(())
    }

    /// Which driver backs this file.
    pub fn driver(&self) -> DriverKind {
        self.driver
    }

    /// The hints in effect.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// The rank-local host (for buffer allocation in helpers).
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Charge the rank's CPU one copy of `bytes` ([`Host::copy`]), and count
    /// them in `mpiio.copy_bytes` (which costs no virtual time). The copies
    /// this layer makes itself: packing through a memory datatype, picking
    /// pieces out of (or into) a sieve buffer, and the pieces of the
    /// two-phase exchange that stay on the host — an aggregator's own, and
    /// those of messages below the gather floor.
    pub(crate) fn charge_copy(&self, ctx: &ActorCtx, bytes: u64) {
        self.copy_bytes.resolve(ctx.metrics()).add(bytes);
        self.host.copy(ctx, bytes);
    }

    /// The underlying ADIO handle (collective I/O uses it directly).
    pub(crate) fn adio(&self) -> &Arc<dyn AdioFile> {
        &self.file
    }

    /// `n` collective buffers of at least `len` bytes each — the same ones
    /// on every call, as ROMIO's aggregator keeps its buffer, so a driver
    /// that registers them registers them once. A buffer is replaced by a
    /// wider one only when a sweep's window outgrows it.
    pub(crate) fn coll_bufs(&self, n: usize, len: u64) -> Vec<VirtAddr> {
        let mut bufs = self.coll.lock();
        while bufs.len() < n {
            bufs.push((self.host.mem.alloc(len as usize), len));
        }
        for buf in bufs.iter_mut().take(n).filter(|b| b.1 < len) {
            self.host.mem.free(buf.0);
            *buf = (self.host.mem.alloc(len as usize), len);
        }
        bufs[..n].iter().map(|b| b.0).collect()
    }

    /// Set the file view (`MPI_File_set_view`); resets file pointers.
    pub fn set_view(&self, disp: u64, etype: &Datatype, filetype: &Datatype) {
        *self.view.lock() = FileView::new(disp, etype, filetype);
        *self.fp.lock() = 0;
    }

    /// Current view (a handle: the tile index is shared, not copied).
    pub fn view(&self) -> FileView {
        self.view.lock().clone()
    }

    /// The current view's etype size in bytes.
    pub(crate) fn etype_size(&self) -> u64 {
        self.view.lock().etype_size()
    }

    /// The physical ranges of `nbytes` of the current view's stream,
    /// starting `offset_etypes` etypes plus `offset_bytes` bytes in (every
    /// caller counts in one unit or the other and passes 0 for the rest).
    pub(crate) fn map_view(
        &self,
        offset_etypes: u64,
        offset_bytes: u64,
        nbytes: u64,
    ) -> Vec<(u64, u64)> {
        let view = self.view.lock();
        view.map(offset_etypes * view.etype_size() + offset_bytes, nbytes)
    }

    /// File size in bytes (`MPI_File_get_size`).
    pub fn get_size(&self, ctx: &ActorCtx) -> AdioResult<u64> {
        self.file.get_size(ctx)
    }

    /// Truncate / extend (`MPI_File_set_size`).
    pub fn set_size(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()> {
        self.file.set_size(ctx, size)
    }

    /// Ensure at least `size` bytes exist (`MPI_File_preallocate`).
    pub fn preallocate(&self, ctx: &ActorCtx, size: u64) -> AdioResult<()> {
        if self.file.get_size(ctx)? < size {
            self.file.set_size(ctx, size)?;
        }
        Ok(())
    }

    /// Flush to stable storage (`MPI_File_sync`).
    pub fn sync(&self, ctx: &ActorCtx) -> AdioResult<()> {
        self.file.flush(ctx)
    }

    // --- explicit-offset independent I/O -----------------------------------

    /// `MPI_File_read_at`: read `nbytes` at view offset `offset_etypes`
    /// into `dst`. Returns bytes read.
    pub fn read_at(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        dst: VirtAddr,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let ranges = self.map_view(offset_etypes, 0, nbytes);
        self.ranges(ctx, BatchDir::Read, &ranges, dst)
    }

    /// `MPI_File_write_at`.
    pub fn write_at(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        src: VirtAddr,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let ranges = self.map_view(offset_etypes, 0, nbytes);
        self.ranges(ctx, BatchDir::Write, &ranges, src)
    }

    // --- individual file pointer -------------------------------------------

    /// Absolute seek of the individual pointer (etypes).
    pub fn seek(&self, offset_etypes: u64) {
        *self.fp.lock() = offset_etypes;
    }

    /// `MPI_File_seek` with a whence mode. Offsets are in etypes and may be
    /// negative for `Cur`/`End`.
    pub fn seek_whence(&self, ctx: &ActorCtx, offset: i64, whence: SeekWhence) -> AdioResult<u64> {
        let new = match whence {
            SeekWhence::Set => {
                assert!(offset >= 0, "absolute seek to a negative offset");
                offset as u64
            }
            SeekWhence::Cur => {
                let cur = *self.fp.lock() as i64;
                let n = cur + offset;
                assert!(n >= 0, "seek before the start of the view");
                n as u64
            }
            SeekWhence::End => {
                let view = self.view.lock().clone();
                let size = self.file.get_size(ctx)?;
                let logical_etypes = (view.logical_size(size) / view.etype_size()) as i64;
                let n = logical_etypes + offset;
                assert!(n >= 0, "seek before the start of the view");
                n as u64
            }
        };
        *self.fp.lock() = new;
        Ok(new)
    }

    /// `MPI_File_get_byte_offset`: the absolute file byte offset of a view
    /// offset (in etypes).
    pub fn get_byte_offset(&self, offset_etypes: u64) -> u64 {
        // One byte maps to exactly one range.
        self.map_view(offset_etypes, 0, 1)[0].0
    }

    /// Current individual pointer (etypes).
    pub fn position(&self) -> u64 {
        *self.fp.lock()
    }

    /// Move `nbytes` at the individual pointer, advancing it past them.
    fn individual(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        buf: VirtAddr,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let etype = self.etype_size();
        assert!(
            nbytes.is_multiple_of(etype),
            "transfer not a whole number of etypes"
        );
        let off = {
            let mut fp = self.fp.lock();
            let o = *fp;
            *fp += nbytes / etype;
            o
        };
        self.ranges(ctx, dir, &self.map_view(off, 0, nbytes), buf)
    }

    /// `MPI_File_read`: read at the individual pointer, then advance it.
    pub fn read(&self, ctx: &ActorCtx, dst: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        self.individual(ctx, BatchDir::Read, dst, nbytes)
    }

    /// `MPI_File_write`.
    pub fn write(&self, ctx: &ActorCtx, src: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        self.individual(ctx, BatchDir::Write, src, nbytes)
    }

    // --- shared file pointer -------------------------------------------------

    /// Claim the next `nbytes` of the shared stream and move them.
    fn shared(&self, ctx: &ActorCtx, dir: BatchDir, buf: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        let logical = self.file.shared_fetch_add(ctx, nbytes)?;
        self.ranges(ctx, dir, &self.map_view(0, logical, nbytes), buf)
    }

    /// `MPI_File_read_shared`: atomically claim the next `nbytes` of the
    /// shared stream and read them. Requires a driver with a shared-pointer
    /// primitive (DAFS).
    pub fn read_shared(&self, ctx: &ActorCtx, dst: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        self.shared(ctx, BatchDir::Read, dst, nbytes)
    }

    /// `MPI_File_write_shared`.
    pub fn write_shared(&self, ctx: &ActorCtx, src: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        self.shared(ctx, BatchDir::Write, src, nbytes)
    }

    /// `MPI_File_seek_shared` (callers must make this collective).
    pub fn seek_shared(&self, ctx: &ActorCtx, offset_etypes: u64) -> AdioResult<()> {
        self.file.shared_set(ctx, offset_etypes * self.etype_size())
    }

    // --- memory-side datatypes ----------------------------------------------

    /// Move the file-side stream (selected by the view) through a memory
    /// datatype: one walk of `memtype`'s typemap (tiled by its extent from
    /// `base`) gathers a write into a contiguous stage before the transfer
    /// and scatters a read out of it after.
    #[allow(clippy::too_many_arguments)]
    fn at_mem(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        offset_etypes: u64,
        base: VirtAddr,
        memtype: &Datatype,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let flat = memtype.flat();
        assert!(flat.size > 0, "zero-size memory datatype");
        assert!(flat.lb >= 0, "negative memory lower bound unsupported");
        // Fast path: dense memory type ≡ contiguous buffer.
        if flat.runs.len() == 1 && flat.runs[0] == (0, flat.extent) {
            return self.ranges(ctx, dir, &self.map_view(offset_etypes, 0, nbytes), base);
        }
        let mem = &self.host.mem;
        let stage = mem.alloc(nbytes as usize);
        // The first `n` bytes of the stage to or from their typemap runs.
        let walk = |n: u64| {
            let mut at = 0u64;
            for tile in 0u64.. {
                for &(roff, rlen) in &flat.runs {
                    if at >= n {
                        return;
                    }
                    let take = rlen.min(n - at);
                    let run = base.offset(tile * flat.extent + (roff - flat.lb) as u64);
                    let (from, to) = match dir {
                        BatchDir::Write => (run, stage.offset(at)),
                        BatchDir::Read => (stage.offset(at), run),
                    };
                    mem.write(to, &mem.read_vec(from, take as usize));
                    at += take;
                }
            }
        };
        if dir == BatchDir::Write {
            walk(nbytes);
            self.charge_copy(ctx, nbytes);
        }
        let moved = self.ranges(ctx, dir, &self.map_view(offset_etypes, 0, nbytes), stage);
        if let (BatchDir::Read, Ok(n)) = (dir, moved) {
            walk(n);
            self.charge_copy(ctx, n);
        }
        mem.free(stage);
        moved
    }

    /// `MPI_File_read_at` with a *memory* datatype: the file-side stream
    /// (selected by the view) is scattered into memory at `dst` through
    /// `memtype`'s typemap (tiled by its extent).
    pub fn read_at_mem(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        dst: VirtAddr,
        memtype: &Datatype,
        nbytes: u64,
    ) -> AdioResult<u64> {
        self.at_mem(ctx, BatchDir::Read, offset_etypes, dst, memtype, nbytes)
    }

    /// `MPI_File_write_at` with a memory datatype: gather from memory
    /// through `memtype`, then write the stream through the view.
    pub fn write_at_mem(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        src: VirtAddr,
        memtype: &Datatype,
        nbytes: u64,
    ) -> AdioResult<u64> {
        self.at_mem(ctx, BatchDir::Write, offset_etypes, src, memtype, nbytes)
    }

    // --- nonblocking ---------------------------------------------------------

    /// Issue a view range split-phase.
    fn iat(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        offset_etypes: u64,
        buf: VirtAddr,
        nbytes: u64,
    ) -> Request {
        let reqs = packed_reqs(&self.map_view(offset_etypes, 0, nbytes), buf);
        Request {
            inner: self.file.itransfer(ctx, dir, Shape::Batch, &reqs),
        }
    }

    /// `MPI_File_iread_at`: issue the read split-phase and return a
    /// [`Request`]. No data sieving on the nonblocking path — sieving
    /// read-modify-writes staging buffers, which cannot stay in flight.
    pub fn iread_at(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        dst: VirtAddr,
        nbytes: u64,
    ) -> Request {
        self.iat(ctx, BatchDir::Read, offset_etypes, dst, nbytes)
    }

    /// `MPI_File_iwrite_at`.
    pub fn iwrite_at(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        src: VirtAddr,
        nbytes: u64,
    ) -> Request {
        self.iat(ctx, BatchDir::Write, offset_etypes, src, nbytes)
    }

    // --- strided engine ------------------------------------------------------

    /// Whether a mapped range list ships as wire-level list requests
    /// instead of sieving: the driver must have the vectored ops (per the
    /// `dafs_listio` hint captured at open) and the list must be sorted
    /// ascending and non-overlapping — the wire format's invariant.
    /// Unsorted lists keep the sieving/batch fallback, which preserves
    /// list-order buffer consumption.
    fn use_list_io(&self, ranges: &[(u64, u64)]) -> bool {
        self.file.list_io_enabled() && ranges.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0)
    }

    /// The one independent data path: move a mapped range list to or from
    /// `buf` (the ranges consume the buffer in order) as wire-level list
    /// I/O, by data sieving, or as a batch of one request per range. A
    /// write that succeeds returns the bytes it was asked to move.
    pub(crate) fn ranges(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        ranges: &[(u64, u64)],
        buf: VirtAddr,
    ) -> AdioResult<u64> {
        let ds = match dir {
            BatchDir::Read => self.hints.ds_read,
            BatchDir::Write => self.hints.ds_write,
        };
        let moved = match ranges {
            [] => Ok(0),
            // List writes put exactly the requested bytes — no
            // read-modify-write window, hence no whole-file lock.
            [_, _, ..] if self.use_list_io(ranges) => {
                let reqs = packed_reqs(ranges, buf);
                self.file.transfer(ctx, dir, Shape::List, &reqs)
            }
            _ if should_sieve_ranges(ranges, ds) => self.sieve(ctx, dir, ranges, buf),
            _ => self
                .file
                .transfer(ctx, dir, Shape::Batch, &packed_reqs(ranges, buf)),
        };
        match dir {
            BatchDir::Read => moved,
            BatchDir::Write => moved.map(|_| ranges.iter().map(|r| r.1).sum()),
        }
    }

    /// Data sieving: move whole windows ([`sieve_windows`]) through one
    /// buffer. A read fetches each window and copies out what landed; a
    /// write read-modify-writes it under the whole-file lock. A range
    /// longer than the buffer moves directly. The buffer is freed on every
    /// path, an error's included.
    fn sieve(
        &self,
        ctx: &ActorCtx,
        dir: BatchDir,
        ranges: &[(u64, u64)],
        buf: VirtAddr,
    ) -> AdioResult<u64> {
        let (bufsize, write) = match dir {
            BatchDir::Read => (self.hints.ind_rd_buffer_size.max(4096), false),
            BatchDir::Write => (self.hints.ind_wr_buffer_size.max(4096), true),
        };
        // Sieved writes read-modify-write whole windows, which would
        // clobber concurrent writers' bytes without a lock (ROMIO requires
        // fcntl locks for ds writes). Fall back to per-range batched writes
        // where the driver has no lock.
        match write.then(|| self.file.lock_file(ctx)) {
            Some(Err(AdioError::NotSupported)) => {
                return self
                    .file
                    .transfer(ctx, dir, Shape::Batch, &packed_reqs(ranges, buf))
            }
            Some(Err(e)) => return Err(e),
            _ => {}
        }
        let mem = &self.host.mem;
        let sieve = mem.alloc(bufsize as usize);
        let moved = (|| {
            let (mut consumed, mut total) = (0u64, 0u64);
            for w in sieve_windows(ranges, bufsize) {
                let (wstart, first_len) = ranges[w.start];
                if first_len > bufsize {
                    let reqs = packed_reqs(&ranges[w], buf.offset(consumed));
                    total += self.file.transfer(ctx, dir, Shape::Batch, &reqs)?;
                    consumed += first_len;
                    continue;
                }
                let (last_off, last_len) = ranges[w.end - 1];
                let wlen = last_off + last_len - wstart;
                let got = self.file.read_contig(ctx, wstart, sieve, wlen)?;
                if write && got < wlen {
                    // The window tail is past EOF, so the read left that
                    // part of the sieve buffer untouched — and the buffer is
                    // reused across windows, so it may hold a previous
                    // window's bytes. Zero it: the write-back below must
                    // fill inter-range gaps past EOF with zeros, exactly
                    // like the per-range path's hole fill, not stale data.
                    mem.fill(sieve.offset(got), (wlen - got) as usize, 0);
                }
                for &(off, len) in &ranges[w] {
                    let (at, s) = (buf.offset(consumed), sieve.offset(off - wstart));
                    // Out of the sieve buffer (what landed) or into it,
                    // charged like any copy.
                    let (from, to, n) = match dir {
                        BatchDir::Read => (s, at, got.saturating_sub(off - wstart).min(len)),
                        BatchDir::Write => (at, s, len),
                    };
                    if n > 0 {
                        mem.write(to, &mem.read_vec(from, n as usize));
                        self.charge_copy(ctx, n);
                        total += n;
                    }
                    consumed += len;
                }
                if write {
                    self.file.write_contig(ctx, wstart, sieve, wlen)?;
                }
            }
            Ok(total)
        })();
        mem.free(sieve);
        if write {
            self.file.unlock_file(ctx)?;
        }
        moved
    }
}

/// A range list as packed batch requests consuming `buf` in order.
fn packed_reqs(ranges: &[(u64, u64)], buf: VirtAddr) -> Vec<IoReq> {
    let mut consumed = 0u64;
    ranges
        .iter()
        .map(|&(off, len)| {
            let addr = buf.offset(consumed);
            consumed += len;
            IoReq { off, addr, len }
        })
        .collect()
}

/// The sieve's one window planner, for reads and writes alike: over
/// offset-sorted `ranges`, each window takes, from its first range on,
/// every range that ends within `bufsize` bytes of that range's start. A
/// range longer than the buffer is a window of its own, moved directly.
fn sieve_windows(ranges: &[(u64, u64)], bufsize: u64) -> Vec<std::ops::Range<usize>> {
    let mut windows = Vec::new();
    let mut i = 0;
    while i < ranges.len() {
        let wstart = ranges[i].0;
        let fit = ranges[i..]
            .iter()
            .take_while(|r| r.0 + r.1 <= wstart + bufsize)
            .count();
        windows.push(i..i + fit.max(1));
        i += fit.max(1);
    }
    windows
}

/// Decide whether a range list is worth data-sieving.
///
/// The span heuristic and the sieve windows both assume offset-sorted
/// ranges. Ranges consume the user buffer ordinally, so *sorting* an
/// unsorted list here would silently permute the data; instead an unsorted
/// list is rejected — in release builds too, not just under `debug_assert`
/// — and falls back to the order-preserving batch path.
fn should_sieve_ranges(ranges: &[(u64, u64)], toggle: TriState) -> bool {
    if !ranges.windows(2).all(|w| w[0].0 <= w[1].0) {
        return false;
    }
    match toggle {
        TriState::Disable => false,
        TriState::Enable => ranges.len() > 1,
        TriState::Automatic => {
            if ranges.len() <= 4 {
                return false;
            }
            let payload: u64 = ranges.iter().map(|r| r.1).sum();
            let span =
                ranges.last().unwrap().0 + ranges.last().unwrap().1 - ranges.first().unwrap().0;
            // Sieve when the holes are less than ~2x the payload.
            payload * 3 >= span
        }
    }
}

/// Delete a file by path (`MPI_File_delete`).
pub fn mpi_file_delete(ctx: &ActorCtx, fs: &dyn AdioFs, path: &str) -> AdioResult<()> {
    fs.delete(ctx, path)
}

/// Closed or dropped, a handle gives its collective buffers back.
impl Drop for MpiFile {
    fn drop(&mut self) {
        for (addr, _) in self.coll.get_mut().drain(..) {
            self.host.mem.free(addr);
        }
    }
}

impl std::fmt::Debug for MpiFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpiFile")
            .field("path", &self.path)
            .field("driver", &self.driver)
            .finish()
    }
}

#[cfg(test)]
mod sieve_tests {
    use super::*;

    #[test]
    fn unsorted_ranges_are_rejected_not_sorted() {
        // Dense enough that the sorted version sieves under every policy…
        let sorted = [(0u64, 64u64), (64, 64), (192, 64), (256, 64), (320, 64)];
        assert!(should_sieve_ranges(&sorted, TriState::Enable));
        assert!(should_sieve_ranges(&sorted, TriState::Automatic));
        // …but any out-of-order list must take the order-preserving batch
        // path, because sieving replays ranges in offset order while the
        // user buffer is consumed in list order.
        let unsorted = [(192u64, 64u64), (0, 64), (64, 64), (256, 64), (320, 64)];
        assert!(!should_sieve_ranges(&unsorted, TriState::Enable));
        assert!(!should_sieve_ranges(&unsorted, TriState::Automatic));
        assert!(!should_sieve_ranges(&unsorted, TriState::Disable));
    }

    /// One planner for both directions: a window runs from its first range
    /// to the last that ends within the buffer of that range's start, and a
    /// range longer than the buffer is a window of its own.
    #[test]
    fn sieve_windows_fill_the_buffer_from_each_first_range() {
        let ranges = [
            (0, 10),
            (20, 10),
            (90, 10),
            (100, 300),
            (400, 10),
            (405, 10),
        ];
        // [90, 100) ends at the buffer's end; [100, 400) outgrows any.
        assert_eq!(sieve_windows(&ranges, 100), vec![0..3, 3..4, 4..6]);
        assert_eq!(sieve_windows(&ranges, 1000), vec![0..6]);
        assert_eq!(sieve_windows(&[], 100), vec![]);
    }
}
