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
use simnet::cost::HostCost;
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
    /// The driver's host cost model: what this layer's own copies cost.
    host_cost: HostCost,
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
            host_cost: fs.host_cost(),
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

    /// Charge the rank's CPU one copy of `bytes` at the driver's host cost
    /// model, and count them in `mpiio.copy_bytes` (which costs no virtual
    /// time). The copies this layer makes itself: packing through a memory
    /// datatype, picking pieces out of (or into) a sieve buffer, and the
    /// pieces of the two-phase exchange that stay on the host — an
    /// aggregator's own, and those of messages below the gather floor.
    pub(crate) fn charge_copy(&self, ctx: &ActorCtx, bytes: u64) {
        self.copy_bytes.resolve(ctx.metrics()).add(bytes);
        self.host.compute(ctx, self.host_cost.copy(bytes));
    }

    /// The driver's host cost model.
    pub(crate) fn host_cost(&self) -> &HostCost {
        &self.host_cost
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
        self.read_ranges(ctx, &ranges, dst)
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
        self.write_ranges(ctx, &ranges, src)?;
        Ok(nbytes)
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

    /// `MPI_File_read`: read at the individual pointer, then advance it.
    pub fn read(&self, ctx: &ActorCtx, dst: VirtAddr, nbytes: u64) -> AdioResult<u64> {
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
        self.read_at(ctx, off, dst, nbytes)
    }

    /// `MPI_File_write`.
    pub fn write(&self, ctx: &ActorCtx, src: VirtAddr, nbytes: u64) -> AdioResult<u64> {
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
        self.write_at(ctx, off, src, nbytes)
    }

    // --- shared file pointer -------------------------------------------------

    /// `MPI_File_read_shared`: atomically claim the next `nbytes` of the
    /// shared stream and read them. Requires a driver with a shared-pointer
    /// primitive (DAFS).
    pub fn read_shared(&self, ctx: &ActorCtx, dst: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        let logical = self.file.shared_fetch_add(ctx, nbytes)?;
        let ranges = self.map_view(0, logical, nbytes);
        self.read_ranges(ctx, &ranges, dst)
    }

    /// `MPI_File_write_shared`.
    pub fn write_shared(&self, ctx: &ActorCtx, src: VirtAddr, nbytes: u64) -> AdioResult<u64> {
        let logical = self.file.shared_fetch_add(ctx, nbytes)?;
        let ranges = self.map_view(0, logical, nbytes);
        self.write_ranges(ctx, &ranges, src)?;
        Ok(nbytes)
    }

    /// `MPI_File_seek_shared` (callers must make this collective).
    pub fn seek_shared(&self, ctx: &ActorCtx, offset_etypes: u64) -> AdioResult<()> {
        self.file.shared_set(ctx, offset_etypes * self.etype_size())
    }

    // --- memory-side datatypes ----------------------------------------------

    /// `MPI_File_read_at` with a *memory* datatype: the file-side stream
    /// (selected by the view) is scattered into memory at `dst_base`
    /// through `memtype`'s typemap (tiled by its extent).
    pub fn read_at_mem(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        dst_base: VirtAddr,
        memtype: &Datatype,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let flat = memtype.flat();
        assert!(flat.size > 0, "zero-size memory datatype");
        assert!(flat.lb >= 0, "negative memory lower bound unsupported");
        // Fast path: dense memory type ≡ contiguous buffer.
        if flat.runs.len() == 1 && flat.runs[0] == (0, flat.extent) {
            return self.read_at(ctx, offset_etypes, dst_base, nbytes);
        }
        // Stage contiguously, then scatter through the typemap.
        let stage = self.host.mem.alloc(nbytes as usize);
        let n = self.read_at(ctx, offset_etypes, stage, nbytes)?;
        let data = self.host.mem.read_vec(stage, n as usize);
        let mut consumed = 0usize;
        let mut tile = 0u64;
        'outer: loop {
            for (roff, rlen) in &flat.runs {
                if consumed >= data.len() {
                    break 'outer;
                }
                let take = (*rlen as usize).min(data.len() - consumed);
                let dst = dst_base.offset(tile * flat.extent + (*roff - flat.lb) as u64);
                self.host.mem.write(dst, &data[consumed..consumed + take]);
                consumed += take;
            }
            tile += 1;
        }
        self.charge_copy(ctx, n);
        self.host.mem.free(stage);
        Ok(n)
    }

    /// `MPI_File_write_at` with a memory datatype: gather from memory
    /// through `memtype`, then write the stream through the view.
    pub fn write_at_mem(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        src_base: VirtAddr,
        memtype: &Datatype,
        nbytes: u64,
    ) -> AdioResult<u64> {
        let flat = memtype.flat();
        assert!(flat.size > 0, "zero-size memory datatype");
        assert!(flat.lb >= 0, "negative memory lower bound unsupported");
        if flat.runs.len() == 1 && flat.runs[0] == (0, flat.extent) {
            return self.write_at(ctx, offset_etypes, src_base, nbytes);
        }
        let stage = self.host.mem.alloc(nbytes as usize);
        let mut gathered = 0u64;
        let mut tile = 0u64;
        'outer: loop {
            for (roff, rlen) in &flat.runs {
                if gathered >= nbytes {
                    break 'outer;
                }
                let take = (*rlen).min(nbytes - gathered);
                let src = src_base.offset(tile * flat.extent + (*roff - flat.lb) as u64);
                let piece = self.host.mem.read_vec(src, take as usize);
                self.host.mem.write(stage.offset(gathered), &piece);
                gathered += take;
            }
            tile += 1;
        }
        self.charge_copy(ctx, nbytes);
        let r = self.write_at(ctx, offset_etypes, stage, nbytes);
        self.host.mem.free(stage);
        r
    }

    // --- nonblocking ---------------------------------------------------------

    /// Map a view range to batch requests consuming `buf` in order.
    fn batch_reqs(&self, offset_etypes: u64, buf: VirtAddr, nbytes: u64) -> Vec<IoReq> {
        Self::packed_reqs(&self.map_view(offset_etypes, 0, nbytes), buf)
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
        let reqs = self.batch_reqs(offset_etypes, dst, nbytes);
        Request {
            inner: self
                .file
                .itransfer(ctx, BatchDir::Read, Shape::Batch, &reqs),
        }
    }

    /// `MPI_File_iwrite_at`.
    pub fn iwrite_at(
        &self,
        ctx: &ActorCtx,
        offset_etypes: u64,
        src: VirtAddr,
        nbytes: u64,
    ) -> Request {
        let reqs = self.batch_reqs(offset_etypes, src, nbytes);
        Request {
            inner: self
                .file
                .itransfer(ctx, BatchDir::Write, Shape::Batch, &reqs),
        }
    }

    // --- strided engine ------------------------------------------------------

    /// Decide whether to data-sieve a range list.
    fn should_sieve(&self, ranges: &[(u64, u64)], toggle: TriState) -> bool {
        should_sieve_ranges(ranges, toggle)
    }

    /// Whether a mapped range list ships as wire-level list requests
    /// instead of sieving: the driver must have the vectored ops (per the
    /// `dafs_listio` hint captured at open) and the list must be sorted
    /// ascending and non-overlapping — the wire format's invariant.
    /// Unsorted lists keep the sieving/batch fallback, which preserves
    /// list-order buffer consumption.
    fn use_list_io(&self, ranges: &[(u64, u64)]) -> bool {
        self.file.list_io_enabled() && ranges.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0)
    }

    /// A range list as packed batch requests consuming `buf` in order.
    fn packed_reqs(ranges: &[(u64, u64)], buf: VirtAddr) -> Vec<IoReq> {
        let mut reqs = Vec::with_capacity(ranges.len());
        let mut consumed = 0u64;
        for &(off, len) in ranges {
            let addr = buf.offset(consumed);
            reqs.push(IoReq { off, addr, len });
            consumed += len;
        }
        reqs
    }

    /// Read a mapped range list into `dst` (ranges consume the buffer in
    /// order). Chooses between wire-level list I/O, batched range reads,
    /// and data sieving.
    pub(crate) fn read_ranges(
        &self,
        ctx: &ActorCtx,
        ranges: &[(u64, u64)],
        dst: VirtAddr,
    ) -> AdioResult<u64> {
        match ranges {
            [] => Ok(0),
            [(off, len)] => self.file.read_contig(ctx, *off, dst, *len),
            _ if self.use_list_io(ranges) => {
                let reqs = Self::packed_reqs(ranges, dst);
                self.file.transfer(ctx, BatchDir::Read, Shape::List, &reqs)
            }
            _ if self.should_sieve(ranges, self.hints.ds_read) => self.sieve_read(ctx, ranges, dst),
            _ => {
                let reqs = Self::packed_reqs(ranges, dst);
                self.file.transfer(ctx, BatchDir::Read, Shape::Batch, &reqs)
            }
        }
    }

    /// Write a mapped range list from `src`.
    pub(crate) fn write_ranges(
        &self,
        ctx: &ActorCtx,
        ranges: &[(u64, u64)],
        src: VirtAddr,
    ) -> AdioResult<()> {
        match ranges {
            [] => Ok(()),
            [(off, len)] => self.file.write_contig(ctx, *off, src, *len),
            // List writes put exactly the requested bytes — no
            // read-modify-write window, hence no whole-file lock.
            _ if self.use_list_io(ranges) => self.batch_write(ctx, Shape::List, ranges, src),
            _ if self.should_sieve(ranges, self.hints.ds_write) => {
                // Sieved writes read-modify-write whole windows, which
                // would clobber concurrent writers' bytes without a lock
                // (ROMIO requires fcntl locks for ds writes). Fall back to
                // per-range batched writes where the driver has no lock.
                match self.file.lock_file(ctx) {
                    Ok(()) => {
                        let r = self.sieve_write(ctx, ranges, src);
                        self.file.unlock_file(ctx)?;
                        r
                    }
                    Err(AdioError::NotSupported) => {
                        self.batch_write(ctx, Shape::Batch, ranges, src)
                    }
                    Err(e) => Err(e),
                }
            }
            _ => self.batch_write(ctx, Shape::Batch, ranges, src),
        }
    }

    fn batch_write(
        &self,
        ctx: &ActorCtx,
        shape: Shape,
        ranges: &[(u64, u64)],
        src: VirtAddr,
    ) -> AdioResult<()> {
        let reqs = Self::packed_reqs(ranges, src);
        self.file
            .transfer(ctx, BatchDir::Write, shape, &reqs)
            .map(|_| ())
    }

    /// Data-sieving read: fetch whole windows, pick out the pieces.
    fn sieve_read(&self, ctx: &ActorCtx, ranges: &[(u64, u64)], dst: VirtAddr) -> AdioResult<u64> {
        let bufsize = self.hints.ind_rd_buffer_size.max(4096);
        let sieve = self.host.mem.alloc(bufsize as usize);
        let mut consumed = 0u64;
        let mut total = 0u64;
        let mut i = 0;
        while i < ranges.len() {
            let wstart = ranges[i].0;
            // Extend the window over as many ranges as fit.
            let mut j = i;
            while j < ranges.len() && ranges[j].0 + ranges[j].1 <= wstart + bufsize {
                j += 1;
            }
            if j == i {
                // Single range larger than the sieve buffer: read directly.
                let (off, len) = ranges[i];
                let n = self.file.read_contig(ctx, off, dst.offset(consumed), len)?;
                total += n;
                consumed += len;
                i += 1;
                continue;
            }
            let wend = ranges[j - 1].0 + ranges[j - 1].1;
            let wlen = wend - wstart;
            let got = self.file.read_contig(ctx, wstart, sieve, wlen)?;
            for (off, len) in &ranges[i..j] {
                let s = off - wstart;
                let avail = got.saturating_sub(s).min(*len);
                if avail > 0 {
                    // Copy out of the sieve buffer (charged like any copy).
                    let piece = self.host.mem.read_vec(sieve.offset(s), avail as usize);
                    self.host.mem.write(dst.offset(consumed), &piece);
                    self.charge_copy(ctx, avail);
                    total += avail;
                }
                consumed += *len;
            }
            i = j;
        }
        self.host.mem.free(sieve);
        Ok(total)
    }

    /// Data-sieving write: read-modify-write whole windows.
    fn sieve_write(&self, ctx: &ActorCtx, ranges: &[(u64, u64)], src: VirtAddr) -> AdioResult<()> {
        let bufsize = self.hints.ind_wr_buffer_size.max(4096);
        let sieve = self.host.mem.alloc(bufsize as usize);
        let mut consumed = 0u64;
        let mut i = 0;
        while i < ranges.len() {
            let wstart = ranges[i].0;
            let mut j = i;
            while j < ranges.len() && ranges[j].0 + ranges[j].1 <= wstart + bufsize {
                j += 1;
            }
            if j == i {
                let (off, len) = ranges[i];
                self.file
                    .write_contig(ctx, off, src.offset(consumed), len)?;
                consumed += len;
                i += 1;
                continue;
            }
            let wend = ranges[j - 1].0 + ranges[j - 1].1;
            let wlen = wend - wstart;
            // RMW: read the window, overlay the pieces, write it back.
            let got = self.file.read_contig(ctx, wstart, sieve, wlen)?;
            if got < wlen {
                // The window tail is past EOF, so the read left that part
                // of the sieve buffer untouched — and the buffer is reused
                // across windows, so it may hold a previous window's bytes.
                // Zero it: the write-back below must fill inter-range gaps
                // past EOF with zeros, exactly like the per-range path's
                // hole fill, not with stale data.
                self.host
                    .mem
                    .fill(sieve.offset(got), (wlen - got) as usize, 0);
            }
            for (off, len) in &ranges[i..j] {
                let s = off - wstart;
                let piece = self.host.mem.read_vec(src.offset(consumed), *len as usize);
                self.host.mem.write(sieve.offset(s), &piece);
                self.charge_copy(ctx, *len);
                consumed += *len;
            }
            self.file.write_contig(ctx, wstart, sieve, wlen)?;
            i = j;
        }
        self.host.mem.free(sieve);
        Ok(())
    }
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

#[allow(unused_imports)]
use AdioError as _AdioErrorUsed;

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
}
