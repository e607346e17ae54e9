//! The filesystem proper: inodes, directories, file data.
//!
//! A regular file is a sparse map of fixed-size copy-on-write pages plus an
//! explicit size ([`FileBody`]). A page that is absent, and the part of a
//! page past its stored length, read as zeros up to the file size — so
//! growing a file (by `setattr` or by writing past its end) allocates
//! nothing, and a write touches only the pages it covers. A write from a
//! borrowed slice copies each byte once into its page; a write from a
//! shared buffer ([`MemFs::write_bytes`], a server's request frame) adopts
//! each piece that is all its page will store as a view of that buffer,
//! copying nothing. Reads hand out [`Bytes`] views of the pages; a write
//! that meets an outstanding view, or lands in an adopted page, copies that
//! one page, never the file.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::buf::{Bytes, Rope, Slab};

/// Identifies an inode. Also serves as the wire-visible file handle for
/// both servers (DAFS and NFS wrap it in their own handle formats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

/// The root directory's id, fixed at mount.
pub const ROOT_ID: NodeId = NodeId(1);

/// Inode type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
}

/// Attributes returned by `getattr` and carried in protocol replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttr {
    /// Inode number.
    pub id: NodeId,
    /// Regular file or directory.
    pub ftype: FileType,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Monotone version counter, bumped on every mutation. Stands in for
    /// mtime in cache-consistency checks (NFS attribute cache, close-to-open).
    pub version: u64,
    /// Link count (1 for files, 2+ for directories).
    pub nlink: u32,
}

/// Mutable attributes for `setattr`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetAttr {
    /// Truncate / extend to this size.
    pub size: Option<u64>,
}

/// Filesystem errors, aligned with the NFSv3 error set both protocols map
/// onto their wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Name not found in directory.
    NotFound,
    /// Handle does not name a live inode.
    Stale,
    /// Operation requires a directory.
    NotDirectory,
    /// Operation requires a regular file.
    IsDirectory,
    /// Name already exists.
    Exists,
    /// Directory not empty on remove.
    NotEmpty,
    /// Name is invalid (empty, contains '/', or '.'/'..').
    InvalidName,
    /// A write's `offset + length` passes the largest file offset.
    FileTooBig,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::Stale => "stale file handle",
            FsError::NotDirectory => "not a directory",
            FsError::IsDirectory => "is a directory",
            FsError::Exists => "file exists",
            FsError::NotEmpty => "directory not empty",
            FsError::InvalidName => "invalid name",
            FsError::FileTooBig => "file too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// Convenience alias.
pub type FsResult<T> = Result<T, FsError>;

/// Bytes per file page: the unit a file is stored, shared and
/// copied-on-write in. It is the DAFS inline limit — the payload of one
/// message of a large write on a fabric without RDMA Read — so such a chunk,
/// written at an aligned offset, fills exactly one page.
const PAGE: usize = 32 << 10;

/// One stored page: a slab the file may write in place, or a view of a
/// buffer the file adopted (a slice of a request frame), which it never
/// writes.
#[derive(Debug)]
enum Page {
    Own(Arc<Slab>),
    View(Bytes),
}

impl Page {
    /// The bytes the page stores.
    fn bytes(&self) -> &[u8] {
        match self {
            Page::Own(slab) => slab,
            Page::View(view) => view,
        }
    }

    /// A view of `range` of the stored bytes.
    fn view(&self, range: std::ops::Range<usize>) -> Bytes {
        match self {
            Page::Own(slab) => Bytes::from_slab(slab.clone()).slice(range),
            Page::View(view) => view.slice(range),
        }
    }

    /// The slab, if the file may write it in place: its own, and the one
    /// reference to it.
    fn slab_mut(&mut self) -> Option<&mut Slab> {
        match self {
            Page::Own(slab) => Arc::get_mut(slab),
            Page::View(_) => None,
        }
    }
}

/// A regular file's data: stored pages by page number, and the size.
///
/// A page stores up to [`PAGE`] bytes from the page's start; the rest of
/// the page reads as zeros. Invariant: no page stores bytes at or past
/// `size`, so extending the file needs no zeroing.
///
/// Ownership rule — *published means frozen*, per page: a read hands out
/// views of the pages, and a page is written in place only while it is the
/// file's own slab and the file holds the one reference to it
/// ([`Arc::get_mut`]). A write that meets an outstanding view, or lands in
/// an adopted page, copies that page into a fresh slab first, so neither a
/// view nor the buffer a page adopted ever observes a later write, and a
/// write never copies more than the pages it touches.
#[derive(Debug, Default)]
struct FileBody {
    pages: BTreeMap<u64, Page>,
    size: u64,
}

impl FileBody {
    /// Page `p`'s slab, writable in place. When the page is not one the
    /// file may write (it is absent or adopted, or a read view is still
    /// out), it first becomes a fresh slab holding a copy of the old bytes
    /// below `keep` — the caller names the prefix it will not overwrite or
    /// cut itself.
    fn writable(&mut self, p: u64, keep: usize) -> &mut Slab {
        let fresh = |old: &[u8]| {
            let mut v = Vec::with_capacity(PAGE);
            v.extend_from_slice(&old[..keep.min(old.len())]);
            Page::Own(Arc::new(Slab::from_vec(v)))
        };
        let page = self.pages.entry(p).or_insert_with(|| fresh(&[]));
        if page.slab_mut().is_none() {
            *page = fresh(page.bytes());
        }
        page.slab_mut().expect("page was just made the file's own")
    }

    /// Write `src` at `offset`, page by page. A piece that starts its page
    /// and covers every byte the page stores is, when `frame` holds `src`,
    /// adopted as a view of `frame`: nothing is copied. Any other piece is
    /// copied once, into the page it belongs to, and nothing is zero-filled
    /// that the write then covers.
    fn write(&mut self, offset: u64, src: &[u8], frame: Option<&Bytes>) {
        let mut done = 0usize;
        while done < src.len() {
            let at = offset + done as u64;
            let (p, lo) = (at / PAGE as u64, (at % PAGE as u64) as usize);
            let n = (PAGE - lo).min(src.len() - done);
            let stored = self.pages.get(&p).map_or(0, |pg| pg.bytes().len());
            match frame {
                Some(frame) if lo == 0 && n >= stored => {
                    self.pages
                        .insert(p, Page::View(frame.slice(done..done + n)));
                }
                _ => {
                    let piece = &src[done..done + n];
                    // Old bytes the write leaves standing: all of them,
                    // unless it runs to the end of what the page stores.
                    let slab = self.writable(p, if lo + n >= stored { lo } else { stored });
                    let v = slab.data_mut();
                    if v.len() < lo {
                        v.resize(lo, 0); // the gap below the write, inside the page
                    }
                    let over = (v.len() - lo).min(n);
                    v[lo..lo + over].copy_from_slice(&piece[..over]);
                    v.extend_from_slice(&piece[over..]);
                    slab.recharge();
                }
            }
            done += n;
        }
        self.size = self.size.max(offset + src.len() as u64);
    }

    /// Truncate or extend to `size`. Extending allocates nothing; shrinking
    /// drops whole pages past the cut and cuts the page it falls in, so a
    /// later extension re-exposes zeros, not old bytes.
    fn resize(&mut self, size: u64) {
        if size < self.size {
            let (p, keep) = (size / PAGE as u64, (size % PAGE as u64) as usize);
            self.pages.split_off(&(p + (keep > 0) as u64));
            if self.pages.get(&p).is_some_and(|pg| pg.bytes().len() > keep) {
                let slab = self.writable(p, keep);
                slab.data_mut().truncate(keep);
                slab.recharge();
            }
        }
        self.size = size;
    }

    /// Views of `[offset, offset + len)` clipped to the file size, one per
    /// stored page in order; holes come back as freshly made zeros.
    fn read(&self, offset: u64, len: u64) -> Rope {
        let end = offset.saturating_add(len).min(self.size);
        let mut out = Rope::new();
        let mut zeros = 0usize;
        let mut at = offset.min(end);
        while at < end {
            let (p, lo) = (at / PAGE as u64, (at % PAGE as u64) as usize);
            let n = (PAGE - lo).min((end - at) as usize);
            let page = self.pages.get(&p);
            let have = page.map_or(0, |pg| pg.bytes().len().saturating_sub(lo).min(n));
            if let (Some(pg), true) = (page, have > 0) {
                if zeros > 0 {
                    out.push(Bytes::from_vec(vec![0; std::mem::take(&mut zeros)]));
                }
                out.push(pg.view(lo..lo + have));
            }
            zeros += n - have;
            at += n as u64;
        }
        if zeros > 0 {
            out.push(Bytes::from_vec(vec![0; zeros]));
        }
        out
    }
}

#[derive(Debug)]
enum NodeBody {
    Regular { data: FileBody },
    Directory { entries: BTreeMap<String, NodeId> },
}

#[derive(Debug)]
struct Node {
    body: NodeBody,
    version: u64,
    nlink: u32,
}

impl Node {
    fn attr(&self, id: NodeId) -> FileAttr {
        match &self.body {
            NodeBody::Regular { data } => FileAttr {
                id,
                ftype: FileType::Regular,
                size: data.size,
                version: self.version,
                nlink: self.nlink,
            },
            NodeBody::Directory { .. } => FileAttr {
                id,
                ftype: FileType::Directory,
                size: 0,
                version: self.version,
                nlink: self.nlink,
            },
        }
    }
}

#[derive(Debug)]
struct FsState {
    nodes: BTreeMap<u64, Node>,
    next_id: u64,
    total_data: u64,
}

/// The in-memory filesystem. Cloning shares the same store (both servers
/// export one filesystem instance).
#[derive(Clone)]
pub struct MemFs {
    state: Arc<Mutex<FsState>>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

fn valid_name(name: &str) -> FsResult<()> {
    if name.is_empty() || name == "." || name == ".." || name.contains('/') {
        Err(FsError::InvalidName)
    } else {
        Ok(())
    }
}

impl MemFs {
    /// Create an empty filesystem with a root directory.
    pub fn new() -> MemFs {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            ROOT_ID.0,
            Node {
                body: NodeBody::Directory {
                    entries: BTreeMap::new(),
                },
                version: 0,
                nlink: 2,
            },
        );
        MemFs {
            state: Arc::new(Mutex::new(FsState {
                nodes,
                next_id: 2,
                total_data: 0,
            })),
        }
    }

    /// Attributes of an inode.
    pub fn getattr(&self, id: NodeId) -> FsResult<FileAttr> {
        let st = self.state.lock();
        st.nodes
            .get(&id.0)
            .map(|n| n.attr(id))
            .ok_or(FsError::Stale)
    }

    /// Apply mutable attributes (currently: truncate/extend size).
    pub fn setattr(&self, id: NodeId, set: SetAttr) -> FsResult<FileAttr> {
        let mut st = self.state.lock();
        let node = st.nodes.get_mut(&id.0).ok_or(FsError::Stale)?;
        if let Some(sz) = set.size {
            match &mut node.body {
                NodeBody::Regular { data } => {
                    let delta = sz as i64 - data.size as i64;
                    data.resize(sz);
                    node.version += 1;
                    let attr = node.attr(id);
                    st.total_data = (st.total_data as i64 + delta) as u64;
                    return Ok(attr);
                }
                NodeBody::Directory { .. } => return Err(FsError::IsDirectory),
            }
        }
        Ok(node.attr(id))
    }

    /// Look `name` up in directory `dir`.
    pub fn lookup(&self, dir: NodeId, name: &str) -> FsResult<FileAttr> {
        let st = self.state.lock();
        let d = st.nodes.get(&dir.0).ok_or(FsError::Stale)?;
        match &d.body {
            NodeBody::Directory { entries } => {
                let id = *entries.get(name).ok_or(FsError::NotFound)?;
                Ok(st.nodes[&id.0].attr(id))
            }
            _ => Err(FsError::NotDirectory),
        }
    }

    fn insert_node(&self, dir: NodeId, name: &str, body: NodeBody) -> FsResult<FileAttr> {
        valid_name(name)?;
        let mut st = self.state.lock();
        let id = NodeId(st.next_id);
        let is_dir = matches!(body, NodeBody::Directory { .. });
        {
            let d = st.nodes.get_mut(&dir.0).ok_or(FsError::Stale)?;
            match &mut d.body {
                NodeBody::Directory { entries } => {
                    if entries.contains_key(name) {
                        return Err(FsError::Exists);
                    }
                    entries.insert(name.to_string(), id);
                    d.version += 1;
                    if is_dir {
                        d.nlink += 1;
                    }
                }
                _ => return Err(FsError::NotDirectory),
            }
        }
        st.next_id += 1;
        let node = Node {
            body,
            version: 0,
            nlink: if is_dir { 2 } else { 1 },
        };
        let attr = node.attr(id);
        st.nodes.insert(id.0, node);
        Ok(attr)
    }

    /// Create an empty regular file.
    pub fn create(&self, dir: NodeId, name: &str) -> FsResult<FileAttr> {
        self.insert_node(
            dir,
            name,
            NodeBody::Regular {
                data: FileBody::default(),
            },
        )
    }

    /// Create a directory.
    pub fn mkdir(&self, dir: NodeId, name: &str) -> FsResult<FileAttr> {
        self.insert_node(
            dir,
            name,
            NodeBody::Directory {
                entries: BTreeMap::new(),
            },
        )
    }

    /// Remove a regular file.
    pub fn remove(&self, dir: NodeId, name: &str) -> FsResult<()> {
        valid_name(name)?;
        let mut st = self.state.lock();
        let target = {
            let d = st.nodes.get(&dir.0).ok_or(FsError::Stale)?;
            match &d.body {
                NodeBody::Directory { entries } => *entries.get(name).ok_or(FsError::NotFound)?,
                _ => return Err(FsError::NotDirectory),
            }
        };
        if matches!(st.nodes[&target.0].body, NodeBody::Directory { .. }) {
            return Err(FsError::IsDirectory);
        }
        if let NodeBody::Directory { entries } = &mut st.nodes.get_mut(&dir.0).unwrap().body {
            entries.remove(name);
        }
        st.nodes.get_mut(&dir.0).unwrap().version += 1;
        let freed = match &st.nodes[&target.0].body {
            NodeBody::Regular { data } => data.size,
            _ => 0,
        };
        st.nodes.remove(&target.0);
        st.total_data -= freed;
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, dir: NodeId, name: &str) -> FsResult<()> {
        valid_name(name)?;
        let mut st = self.state.lock();
        let target = {
            let d = st.nodes.get(&dir.0).ok_or(FsError::Stale)?;
            match &d.body {
                NodeBody::Directory { entries } => *entries.get(name).ok_or(FsError::NotFound)?,
                _ => return Err(FsError::NotDirectory),
            }
        };
        match &st.nodes[&target.0].body {
            NodeBody::Directory { entries } => {
                if !entries.is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
            _ => return Err(FsError::NotDirectory),
        }
        if let NodeBody::Directory { entries } = &mut st.nodes.get_mut(&dir.0).unwrap().body {
            entries.remove(name);
        }
        let d = st.nodes.get_mut(&dir.0).unwrap();
        d.version += 1;
        d.nlink -= 1;
        st.nodes.remove(&target.0);
        Ok(())
    }

    /// Rename `name` in `from` to `to_name` in `to` (both directories).
    /// Overwrites an existing regular file at the destination, like rename(2).
    pub fn rename(&self, from: NodeId, name: &str, to: NodeId, to_name: &str) -> FsResult<()> {
        valid_name(name)?;
        valid_name(to_name)?;
        let mut st = self.state.lock();
        let moved = {
            let d = st.nodes.get(&from.0).ok_or(FsError::Stale)?;
            match &d.body {
                NodeBody::Directory { entries } => *entries.get(name).ok_or(FsError::NotFound)?,
                _ => return Err(FsError::NotDirectory),
            }
        };
        // Destination checks.
        let replaced = {
            let d = st.nodes.get(&to.0).ok_or(FsError::Stale)?;
            match &d.body {
                NodeBody::Directory { entries } => entries.get(to_name).copied(),
                _ => return Err(FsError::NotDirectory),
            }
        };
        if let Some(r) = replaced {
            if matches!(st.nodes[&r.0].body, NodeBody::Directory { .. }) {
                return Err(FsError::IsDirectory);
            }
        }
        if let NodeBody::Directory { entries } = &mut st.nodes.get_mut(&from.0).unwrap().body {
            entries.remove(name);
        }
        st.nodes.get_mut(&from.0).unwrap().version += 1;
        if let NodeBody::Directory { entries } = &mut st.nodes.get_mut(&to.0).unwrap().body {
            entries.insert(to_name.to_string(), moved);
        }
        st.nodes.get_mut(&to.0).unwrap().version += 1;
        if let Some(r) = replaced {
            let freed = match &st.nodes[&r.0].body {
                NodeBody::Regular { data } => data.size,
                _ => 0,
            };
            st.nodes.remove(&r.0);
            st.total_data -= freed;
        }
        Ok(())
    }

    /// Read up to `len` bytes at `offset` as views of the file's pages, in
    /// order (holes materialised as zeros). Short at EOF, like read(2);
    /// reads past EOF return empty.
    ///
    /// The views stay valid (and immutable) across later writes: a write
    /// that meets an outstanding view copies that page instead of mutating
    /// it.
    pub fn read_views(&self, id: NodeId, offset: u64, len: u64) -> FsResult<Rope> {
        let st = self.state.lock();
        let n = st.nodes.get(&id.0).ok_or(FsError::Stale)?;
        match &n.body {
            NodeBody::Regular { data } => Ok(data.read(offset, len)),
            NodeBody::Directory { .. } => Err(FsError::IsDirectory),
        }
    }

    /// [`MemFs::read_views`] as one contiguous view: zero-copy when the
    /// range lies in one page, else the concatenation.
    pub fn read_bytes(&self, id: NodeId, offset: u64, len: u64) -> FsResult<Bytes> {
        let views = self.read_views(id, offset, len)?;
        Ok(views.as_single().cloned().unwrap_or_else(|| {
            let mut v = Vec::new();
            views.copy_into(&mut v);
            Bytes::from_vec(v)
        }))
    }

    /// [`MemFs::read_views`], copied out into an owned vector.
    pub fn read(&self, id: NodeId, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        let mut v = Vec::new();
        self.read_views(id, offset, len)?.copy_into(&mut v);
        Ok(v)
    }

    /// Write `buf` at `offset`, extending the file as needed (a gap reads
    /// as zeros). Returns post-write attributes. A range whose end passes
    /// `u64::MAX` is refused before anything is touched.
    pub fn write(&self, id: NodeId, offset: u64, buf: &[u8]) -> FsResult<FileAttr> {
        self.write_from(id, offset, buf, None)
    }

    /// [`MemFs::write`] from a shared buffer: each piece that is all its
    /// page will store — whole pages, and a page-aligned piece that reaches
    /// past what the page held — is adopted as a view of `buf` instead of
    /// copied. `buf`'s bytes are never written: a later write into an
    /// adopted page copies it first.
    pub fn write_bytes(&self, id: NodeId, offset: u64, buf: &Bytes) -> FsResult<FileAttr> {
        self.write_from(id, offset, buf, Some(buf))
    }

    /// The one write: `buf`, which `frame` holds when given.
    fn write_from(
        &self,
        id: NodeId,
        offset: u64,
        buf: &[u8],
        frame: Option<&Bytes>,
    ) -> FsResult<FileAttr> {
        if offset.checked_add(buf.len() as u64).is_none() {
            return Err(FsError::FileTooBig);
        }
        let mut st = self.state.lock();
        let node = st.nodes.get_mut(&id.0).ok_or(FsError::Stale)?;
        match &mut node.body {
            NodeBody::Regular { data } => {
                let before = data.size;
                data.write(offset, buf, frame);
                let grow = data.size - before;
                node.version += 1;
                let attr = node.attr(id);
                st.total_data += grow;
                Ok(attr)
            }
            NodeBody::Directory { .. } => Err(FsError::IsDirectory),
        }
    }

    /// Visit a directory's entries in name order without allocating: the
    /// callback sees each borrowed name and id under the filesystem lock.
    /// That lock is a plain mutex, so the callback must not call back into
    /// this filesystem (it would self-deadlock); the callers — the DAFS
    /// and NFS servers' `ReadDir` and [`MemFs::readdir`] — only encode or
    /// push the entry.
    pub fn with_readdir<F>(&self, dir: NodeId, mut f: F) -> FsResult<()>
    where
        F: FnMut(&str, NodeId),
    {
        let st = self.state.lock();
        let d = st.nodes.get(&dir.0).ok_or(FsError::Stale)?;
        match &d.body {
            NodeBody::Directory { entries } => {
                for (k, v) in entries.iter() {
                    f(k, *v);
                }
                Ok(())
            }
            _ => Err(FsError::NotDirectory),
        }
    }

    /// List a directory: (name, id) pairs in name order (allocating compat
    /// shim over [`MemFs::with_readdir`]).
    pub fn readdir(&self, dir: NodeId) -> FsResult<Vec<(String, NodeId)>> {
        let mut out = Vec::new();
        self.with_readdir(dir, |name, id| out.push((name.to_string(), id)))?;
        Ok(out)
    }

    /// Resolve a slash-separated path from the root. Convenience for tests
    /// and examples.
    pub fn resolve(&self, path: &str) -> FsResult<FileAttr> {
        let mut cur = ROOT_ID;
        let mut attr = self.getattr(cur)?;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            attr = self.lookup(cur, part)?;
            cur = attr.id;
        }
        Ok(attr)
    }

    /// Total bytes of live file data (for capacity reports).
    pub fn total_data(&self) -> u64 {
        self.state.lock().total_data
    }

    /// Number of live inodes, including the root.
    pub fn inode_count(&self) -> usize {
        self.state.lock().nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_exists() {
        let fs = MemFs::new();
        let a = fs.getattr(ROOT_ID).unwrap();
        assert_eq!(a.ftype, FileType::Directory);
        assert_eq!(a.nlink, 2);
        assert_eq!(fs.inode_count(), 1);
    }

    #[test]
    fn create_write_read_roundtrip() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "a.dat").unwrap();
        assert_eq!(f.size, 0);
        let a1 = fs.write(f.id, 0, b"hello").unwrap();
        assert_eq!(a1.size, 5);
        let a2 = fs.write(f.id, 5, b" world").unwrap();
        assert_eq!(a2.size, 11);
        assert!(a2.version > a1.version);
        assert_eq!(fs.read(f.id, 0, 100).unwrap(), b"hello world");
        assert_eq!(fs.read(f.id, 6, 5).unwrap(), b"world");
        assert_eq!(fs.total_data(), 11);
    }

    /// Every read entry point against a flat model of the file. (Names the
    /// first differing byte instead of dumping two file images.)
    fn assert_reads(fs: &MemFs, id: NodeId, model: &[u8], off: u64, len: u64) {
        let s = (off as usize).min(model.len());
        let e = (off.saturating_add(len) as usize).min(model.len());
        let want = &model[s..e];
        let views = fs.read_views(id, off, len).unwrap();
        assert!(views.iter().all(|v| !v.is_empty()));
        let mut flat = Vec::new();
        views.copy_into(&mut flat);
        assert_eq!(views.len(), flat.len());
        for (what, got) in [
            ("read", fs.read(id, off, len).unwrap()),
            ("read_bytes", fs.read_bytes(id, off, len).unwrap().to_vec()),
            ("read_views", flat),
        ] {
            assert_eq!(got.len(), want.len(), "{what} {off}+{len}: length");
            let diff = got.iter().zip(want).position(|(g, w)| g != w);
            assert_eq!(diff, None, "{what} {off}+{len}: first differing byte");
        }
    }

    #[test]
    fn holes_read_as_zeros_and_cost_nothing() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "sparse").unwrap();
        let far = 256u64 << 20;
        let a = fs.write(f.id, far, &[9u8; 4096]).unwrap();
        assert_eq!(a.size, far + 4096);
        assert_eq!(fs.getattr(f.id).unwrap().size, far + 4096);
        assert_eq!(fs.total_data(), far + 4096);
        // Through every read entry point: lengths equal, bytes zero, the
        // written range intact — across the edge of the hole too.
        for (off, len) in [
            (0, 100),
            (PAGE as u64 - 1, 2),
            (far - 10, 20),
            (far - PAGE as u64, 2 * PAGE as u64),
            (far + 4000, 1000),
        ] {
            let got = fs.read(f.id, off, len).unwrap();
            let want: Vec<u8> = (off..(off + len).min(far + 4096))
                .map(|i| if i >= far { 9 } else { 0 })
                .collect();
            assert_eq!(got, want, "read {off}+{len}");
            assert_eq!(fs.read_bytes(f.id, off, len).unwrap(), want);
            let views = fs.read_views(f.id, off, len).unwrap();
            let mut flat = Vec::new();
            views.copy_into(&mut flat);
            assert_eq!((views.len(), flat), (want.len(), want));
        }
        // Extending by setattr stores nothing either.
        let g = fs.create(ROOT_ID, "grown").unwrap();
        fs.setattr(g.id, SetAttr { size: Some(far) }).unwrap();
        assert_eq!(fs.read(g.id, far - 3, 10).unwrap(), [0, 0, 0]);
        fs.remove(ROOT_ID, "sparse").unwrap();
        assert_eq!(fs.total_data(), far);
    }

    #[test]
    fn shrink_then_extend_re_exposes_zeros() {
        let p = PAGE as u64;
        // (size before, cut, size after): inside the last page, at a page
        // edge, and across pages.
        for (before, cut, after) in [
            (p / 2, 100, p / 2),
            (p + 500, p + 10, p + 500),
            (3 * p + 17, p - 1, 3 * p + 17),
            (3 * p, p, 2 * p + 5),
            (2 * p + 9, 0, 2 * p + 9),
        ] {
            for hold_view in [false, true] {
                let fs = MemFs::new();
                let f = fs.create(ROOT_ID, "t").unwrap();
                let data = vec![0x5Au8; before as usize];
                fs.write(f.id, 0, &data).unwrap();
                // A view of the page the cut falls in, taken before it.
                let cut_page = cut / p * p;
                let held = hold_view.then(|| fs.read_bytes(f.id, cut_page, p).unwrap());
                let old = held.as_ref().map(|v| v.to_vec());
                fs.setattr(f.id, SetAttr { size: Some(cut) }).unwrap();
                assert_reads(&fs, f.id, &data[..cut as usize], 0, u64::MAX);
                fs.setattr(f.id, SetAttr { size: Some(after) }).unwrap();
                let mut model = data[..cut as usize].to_vec();
                model.resize(after as usize, 0);
                assert_reads(&fs, f.id, &model, 0, u64::MAX);
                // Writing just past the cut must not resurrect the old tail
                // below or above it.
                fs.write(f.id, cut + 3, b"!").unwrap();
                model[cut as usize + 3] = b'!';
                assert_reads(&fs, f.id, &model, 0, u64::MAX);
                assert_eq!(held.map(|v| v.to_vec()), old, "truncation mutated a view");
            }
        }
    }

    /// The `map == map_reference` pattern of `mpiio::view`: a seeded walk of
    /// every mutating and reading entry point against a flat `Vec<u8>`,
    /// offsets and lengths drawn around page edges, with views held across
    /// later steps (published means frozen). Half the writes come from a
    /// request frame, as a server's do: its whole pages must be adopted,
    /// and neither it nor a held view may ever change.
    #[test]
    fn paged_body_matches_a_flat_model() {
        use simnet::Rng64;
        const SPAN: u64 = 6 * PAGE as u64;
        let mut rng = Rng64::new(0x00DA_F518);
        // A position near a page edge three times in four, anywhere else.
        let near_edge = |rng: &mut Rng64, max: u64| -> u64 {
            let at = if rng.range(0, 4) == 0 {
                rng.range(0, max + 1)
            } else {
                (rng.range(0, max / PAGE as u64 + 1) * PAGE as u64 + rng.range(0, 5))
                    .saturating_sub(2)
            };
            at.min(max)
        };
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "model").unwrap();
        let mut model: Vec<u8> = Vec::new();
        let mut held: Vec<(Bytes, Vec<u8>)> = Vec::new();
        let (mut spanning, mut adopted) = (0, 0);
        for step in 0..3000u32 {
            match rng.range(0, 10) {
                0..=3 => {
                    let off = match rng.range(0, 4) {
                        0 => rng.range(0, SPAN / PAGE as u64) * PAGE as u64,
                        _ => near_edge(&mut rng, SPAN),
                    };
                    let len = match rng.range(0, 3) {
                        0 => rng.range(1, 64),
                        1 => rng.range(1, 3) * PAGE as u64,
                        _ => near_edge(&mut rng, 3 * PAGE as u64).max(1),
                    };
                    let data: Vec<u8> = (0..len).map(|i| (step as u64 * 31 + i) as u8).collect();
                    if rng.range(0, 2) == 0 {
                        fs.write(f.id, off, &data).unwrap();
                    } else {
                        // The payload of a request frame, behind its header.
                        let mut wire = vec![0xF0; 25];
                        wire.extend_from_slice(&data);
                        let frame = Bytes::from_vec(wire).slice(25..);
                        fs.write_bytes(f.id, off, &frame).unwrap();
                        let whole = off.div_ceil(PAGE as u64)..(off + len) / PAGE as u64;
                        for p in whole.map(|p| p * PAGE as u64) {
                            let page = fs.read_bytes(f.id, p, PAGE as u64).unwrap();
                            let at = &frame[(p - off) as usize..];
                            assert_eq!(page.as_ptr(), at.as_ptr(), "step {step}: page {p} copied");
                            adopted += 1;
                        }
                        held.push((frame, data.clone()));
                    }
                    let end = (off + len) as usize;
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[off as usize..end].copy_from_slice(&data);
                }
                4 => {
                    let size = near_edge(&mut rng, SPAN);
                    fs.setattr(f.id, SetAttr { size: Some(size) }).unwrap();
                    model.resize(size as usize, 0);
                }
                5 => {
                    let off = near_edge(&mut rng, SPAN);
                    let len = near_edge(&mut rng, 2 * PAGE as u64).max(1);
                    let view = fs.read_bytes(f.id, off, len).unwrap();
                    held.push((view.clone(), view.to_vec()));
                }
                _ => {
                    let off = near_edge(&mut rng, SPAN + PAGE as u64);
                    let len = near_edge(&mut rng, 4 * PAGE as u64);
                    assert_reads(&fs, f.id, &model, off, len);
                    spanning += (fs.read_views(f.id, off, len).unwrap().iter().count() > 2) as u32;
                }
            }
            assert_eq!(fs.getattr(f.id).unwrap().size, model.len() as u64);
            assert_eq!(fs.total_data(), model.len() as u64);
            while held.len() > 8 {
                held.remove(0);
            }
            for (view, snap) in &held {
                assert_eq!(view, snap, "step {step} mutated a published view or frame");
            }
        }
        assert_reads(&fs, f.id, &model, 0, u64::MAX);
        // The walk did reach what it is for.
        assert!(spanning > 100, "{spanning} reads spanned pages");
        assert!(adopted > 100, "{adopted} pages adopted");
    }

    #[test]
    fn a_write_into_an_adopted_page_copies_it_first_and_leaves_the_frame_alone() {
        use simnet::buf::bytes_total;
        let p = PAGE as u64;
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "a").unwrap();
        let mut wire = b"header".to_vec();
        wire.resize(6 + 2 * PAGE + 100, 0x11);
        let frame = Bytes::from_vec(wire).slice(6..);
        let before = bytes_total();
        fs.write_bytes(f.id, 0, &frame).unwrap();
        assert_eq!(bytes_total(), before, "adopting pages copies nothing");
        let page = |at: u64| fs.read_bytes(f.id, at, p).unwrap();
        for at in [0, p, 2 * p] {
            assert_eq!(
                page(at).as_ptr(),
                frame[at as usize..].as_ptr(),
                "page at {at}"
            );
        }

        // A write into the first page copies that page, once, then writes.
        fs.write(f.id, 100, b"xyz").unwrap();
        assert_eq!(bytes_total() - before, p, "one page copied");
        assert_ne!(page(0).as_ptr(), frame.as_ptr());
        assert_eq!(
            page(p).as_ptr(),
            frame[PAGE..].as_ptr(),
            "its neighbour stays adopted"
        );
        // A cut inside the second keeps only what stays.
        fs.setattr(f.id, SetAttr { size: Some(p + 10) }).unwrap();
        assert_eq!(bytes_total() - before, p + 10);

        let mut model = vec![0x11u8; PAGE + 10];
        model[100..103].copy_from_slice(b"xyz");
        assert_reads(&fs, f.id, &model, 0, u64::MAX);
        assert!(
            frame.iter().all(|&b| b == 0x11),
            "a write reached the frame"
        );
        // The pages are the file's own now: a second write copies nothing.
        let before = bytes_total();
        fs.write(f.id, 200, b"!").unwrap();
        fs.write(f.id, p, b"?").unwrap();
        assert_eq!(bytes_total(), before);
    }

    #[test]
    fn sparse_write_zero_fills() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "s").unwrap();
        fs.write(f.id, 100, b"x").unwrap();
        assert_eq!(fs.getattr(f.id).unwrap().size, 101);
        assert_eq!(fs.read(f.id, 0, 100).unwrap(), vec![0u8; 100]);
        assert_eq!(fs.read(f.id, 100, 1).unwrap(), b"x");
    }

    #[test]
    fn write_past_the_last_offset_is_refused_and_changes_nothing() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "edge").unwrap();
        let before = fs.write(f.id, 0, &[0xAB; 16]).unwrap();
        // `off + len` passes u64::MAX: used to panic in debug and, in
        // release, wrap around and overwrite the head of the file.
        for (off, len) in [
            (u64::MAX - 1, 4),
            (u64::MAX, 1),
            (u64::MAX - 70_000, 70_001),
        ] {
            let src = vec![0xCD; len];
            assert_eq!(fs.write(f.id, off, &src), Err(FsError::FileTooBig));
        }
        assert_eq!(fs.getattr(f.id).unwrap(), before, "size and version stand");
        assert_eq!(fs.read(f.id, 0, 64).unwrap(), [0xAB; 16]);
        assert_eq!(fs.total_data(), 16);
        // Ending exactly at the last offset is a legal (sparse) write.
        let a = fs.write(f.id, u64::MAX - 4, &[1; 4]).unwrap();
        assert_eq!(a.size, u64::MAX);
        assert_eq!(fs.read(f.id, u64::MAX - 4, 8).unwrap(), [1; 4]);
    }

    #[test]
    fn read_past_eof_is_short_or_empty() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "f").unwrap();
        fs.write(f.id, 0, b"abc").unwrap();
        assert_eq!(fs.read(f.id, 2, 10).unwrap(), b"c");
        assert_eq!(fs.read(f.id, 3, 10).unwrap(), b"");
        assert_eq!(fs.read(f.id, 1000, 10).unwrap(), b"");
    }

    #[test]
    fn lookup_and_resolve() {
        let fs = MemFs::new();
        let d = fs.mkdir(ROOT_ID, "dir").unwrap();
        let f = fs.create(d.id, "file").unwrap();
        assert_eq!(fs.lookup(ROOT_ID, "dir").unwrap().id, d.id);
        assert_eq!(fs.lookup(d.id, "file").unwrap().id, f.id);
        assert_eq!(fs.resolve("/dir/file").unwrap().id, f.id);
        assert_eq!(fs.resolve("dir/file").unwrap().id, f.id);
        assert_eq!(fs.lookup(ROOT_ID, "nope"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(f.id, "x"), Err(FsError::NotDirectory));
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = MemFs::new();
        fs.create(ROOT_ID, "x").unwrap();
        assert_eq!(fs.create(ROOT_ID, "x"), Err(FsError::Exists));
        assert_eq!(fs.mkdir(ROOT_ID, "x"), Err(FsError::Exists));
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = MemFs::new();
        for bad in ["", ".", "..", "a/b"] {
            assert_eq!(fs.create(ROOT_ID, bad), Err(FsError::InvalidName), "{bad}");
        }
    }

    #[test]
    fn remove_file_frees_space_and_staleness() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "f").unwrap();
        fs.write(f.id, 0, &[7u8; 1000]).unwrap();
        assert_eq!(fs.total_data(), 1000);
        fs.remove(ROOT_ID, "f").unwrap();
        assert_eq!(fs.total_data(), 0);
        assert_eq!(fs.getattr(f.id), Err(FsError::Stale));
        assert_eq!(fs.read(f.id, 0, 1), Err(FsError::Stale));
        assert_eq!(fs.remove(ROOT_ID, "f"), Err(FsError::NotFound));
    }

    #[test]
    fn rmdir_semantics() {
        let fs = MemFs::new();
        let d = fs.mkdir(ROOT_ID, "d").unwrap();
        fs.create(d.id, "f").unwrap();
        assert_eq!(fs.rmdir(ROOT_ID, "d"), Err(FsError::NotEmpty));
        fs.remove(d.id, "f").unwrap();
        fs.rmdir(ROOT_ID, "d").unwrap();
        assert_eq!(fs.getattr(d.id), Err(FsError::Stale));
        assert_eq!(fs.getattr(ROOT_ID).unwrap().nlink, 2);
    }

    #[test]
    fn remove_on_directory_and_rmdir_on_file_rejected() {
        let fs = MemFs::new();
        fs.mkdir(ROOT_ID, "d").unwrap();
        fs.create(ROOT_ID, "f").unwrap();
        assert_eq!(fs.remove(ROOT_ID, "d"), Err(FsError::IsDirectory));
        assert_eq!(fs.rmdir(ROOT_ID, "f"), Err(FsError::NotDirectory));
    }

    #[test]
    fn truncate_and_extend_via_setattr() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "f").unwrap();
        fs.write(f.id, 0, b"0123456789").unwrap();
        let a = fs.setattr(f.id, SetAttr { size: Some(4) }).unwrap();
        assert_eq!(a.size, 4);
        assert_eq!(fs.read(f.id, 0, 10).unwrap(), b"0123");
        let a = fs.setattr(f.id, SetAttr { size: Some(8) }).unwrap();
        assert_eq!(a.size, 8);
        assert_eq!(fs.read(f.id, 0, 10).unwrap(), b"0123\0\0\0\0");
        assert_eq!(fs.total_data(), 8);
    }

    #[test]
    fn readdir_sorted() {
        let fs = MemFs::new();
        fs.create(ROOT_ID, "b").unwrap();
        fs.create(ROOT_ID, "a").unwrap();
        fs.mkdir(ROOT_ID, "c").unwrap();
        let names: Vec<String> = fs
            .readdir(ROOT_ID)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn rename_moves_and_overwrites() {
        let fs = MemFs::new();
        let d = fs.mkdir(ROOT_ID, "d").unwrap();
        let f = fs.create(ROOT_ID, "f").unwrap();
        fs.write(f.id, 0, b"data").unwrap();
        // Plain move.
        fs.rename(ROOT_ID, "f", d.id, "g").unwrap();
        assert_eq!(fs.lookup(ROOT_ID, "f"), Err(FsError::NotFound));
        assert_eq!(fs.lookup(d.id, "g").unwrap().id, f.id);
        // Overwrite an existing destination.
        let h = fs.create(d.id, "h").unwrap();
        fs.write(h.id, 0, b"old").unwrap();
        fs.rename(d.id, "g", d.id, "h").unwrap();
        assert_eq!(fs.lookup(d.id, "h").unwrap().id, f.id);
        assert_eq!(fs.read(f.id, 0, 10).unwrap(), b"data");
        assert_eq!(fs.getattr(h.id), Err(FsError::Stale));
    }

    #[test]
    fn version_monotone_per_mutation() {
        let fs = MemFs::new();
        let f = fs.create(ROOT_ID, "f").unwrap();
        let mut last = fs.getattr(f.id).unwrap().version;
        for i in 0..5 {
            let v = fs.write(f.id, i, &[i as u8]).unwrap().version;
            assert!(v > last);
            last = v;
        }
    }

    #[test]
    fn shared_clone_sees_same_store() {
        let fs = MemFs::new();
        let fs2 = fs.clone();
        let f = fs.create(ROOT_ID, "shared").unwrap();
        fs2.write(f.id, 0, b"via clone").unwrap();
        assert_eq!(fs.read(f.id, 0, 9).unwrap(), b"via clone");
    }
}
