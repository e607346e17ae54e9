//! The filesystem proper: inodes, directories, file data.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::buf::{Bytes, Slab};

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
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// Convenience alias.
pub type FsResult<T> = Result<T, FsError>;

#[derive(Debug)]
enum NodeBody {
    /// File data lives in one refcounted slab so reads hand out zero-copy
    /// [`Bytes`] views. Writes go through `Arc::make_mut`: in place while
    /// the file is the only owner, copy-on-write the moment read views are
    /// still outstanding — a published view never observes a later write.
    Regular {
        data: Arc<Slab>,
    },
    Directory {
        entries: BTreeMap<String, NodeId>,
    },
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
                size: data.len() as u64,
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
                    let delta = sz as i64 - data.len() as i64;
                    let slab = Arc::make_mut(data);
                    slab.data_mut().resize(sz as usize, 0);
                    slab.recharge();
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
                data: Arc::new(Slab::from_vec(Vec::new())),
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
            NodeBody::Regular { data } => data.len() as u64,
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
                NodeBody::Regular { data } => data.len() as u64,
                _ => 0,
            };
            st.nodes.remove(&r.0);
            st.total_data -= freed;
        }
        Ok(())
    }

    /// Read up to `len` bytes at `offset` as a zero-copy view of the file
    /// slab. Short reads at EOF, like read(2); reads past EOF return empty.
    ///
    /// The view stays valid (and immutable) across later writes: a write
    /// while views are outstanding clones the slab instead of mutating it.
    pub fn read_bytes(&self, id: NodeId, offset: u64, len: u64) -> FsResult<Bytes> {
        let st = self.state.lock();
        let n = st.nodes.get(&id.0).ok_or(FsError::Stale)?;
        match &n.body {
            NodeBody::Regular { data } => {
                let start = (offset as usize).min(data.len());
                let end = (offset.saturating_add(len) as usize).min(data.len());
                Ok(Bytes::from_slab(data.clone()).slice(start..end))
            }
            NodeBody::Directory { .. } => Err(FsError::IsDirectory),
        }
    }

    /// [`MemFs::read_bytes`], copied out into an owned vector (compat shim
    /// for callers that need ownership).
    pub fn read(&self, id: NodeId, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        Ok(self.read_bytes(id, offset, len)?.to_vec())
    }

    /// Write `buf` at `offset`, extending (and zero-filling any gap) as
    /// needed. Returns post-write attributes.
    pub fn write(&self, id: NodeId, offset: u64, buf: &[u8]) -> FsResult<FileAttr> {
        let mut st = self.state.lock();
        let node = st.nodes.get_mut(&id.0).ok_or(FsError::Stale)?;
        match &mut node.body {
            NodeBody::Regular { data } => {
                let end = offset as usize + buf.len();
                let grow = end.saturating_sub(data.len());
                let slab = Arc::make_mut(data);
                let v = slab.data_mut();
                if end > v.len() {
                    v.resize(end, 0);
                }
                v[offset as usize..end].copy_from_slice(buf);
                slab.recharge();
                node.version += 1;
                let attr = node.attr(id);
                st.total_data += grow as u64;
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
