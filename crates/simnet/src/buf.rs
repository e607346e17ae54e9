//! Shared payload buffers: refcounted byte slabs with zero-cost subslicing,
//! a [`Rope`] of such views for payloads that live in several slabs, and a
//! small freelist pool for short-lived wire frames.
//!
//! A payload crosses a layer as a [`Bytes`] view: one backing [`Slab`] is
//! materialized at the producer (a request frame assembled from client
//! memory, a gathered send, a memfs page) and every consumer downstream
//! holds a cheap `(slab, offset, len)` view of it. Actual copies remain only
//! where the simulated machine genuinely copies — into and out of a host's
//! registered-memory arena ([`crate::HostMem`]), and into a file page.
//!
//! Slabs are immutable once published: a `Bytes` view can never observe a
//! later mutation (the aliasing property tested in `tests/determinism.rs`).
//! Writable storage that *shares* slabs (a memfs file page) writes in place
//! only while [`std::sync::Arc::get_mut`] says it holds the one reference,
//! and copies the page out first otherwise.
//!
//! Nothing here zero-fills a buffer its caller is about to overwrite:
//! [`BufPool::alloc`] hands out an *empty* vector with room for the frame,
//! and producers append.
//!
//! All accounting here is **wall-clock harness telemetry** (bytes alive,
//! peak, total materialized); it never feeds back into virtual time, so it
//! cannot perturb the deterministic timeline. It is kept per OS thread, as
//! is the frame pool: a simulation runs on one thread, so each kernel's
//! thread counts and recycles its own bytes, and two tests running at once
//! never see each other's.

use std::cell::Cell;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

/// One OS thread's payload gauges.
struct Gauges {
    /// Live payload bytes across the slabs (plain and pooled) this thread
    /// materialized.
    alive: Cell<u64>,
    /// High-water mark of `alive`.
    peak: Cell<u64>,
    /// Total payload bytes ever materialized into slabs (the "MiB
    /// simulated" numerator for harness throughput).
    total: Cell<u64>,
}

thread_local! {
    static GAUGES: Gauges = const {
        Gauges {
            alive: Cell::new(0),
            peak: Cell::new(0),
            total: Cell::new(0),
        }
    };
}

impl Gauges {
    fn charge(&self, n: usize) {
        self.total.set(self.total.get() + n as u64);
        let alive = self.alive.get() + n as u64;
        self.alive.set(alive);
        self.peak.set(self.peak.get().max(alive));
    }

    /// Saturating: a thread that starts after another has ended may get
    /// its tag (see [`at_home`]), and a drop never panics.
    fn discharge(&self, n: usize) {
        self.alive.set(self.alive.get().saturating_sub(n as u64));
    }
}

/// Charge `n` bytes to this thread; returns its tag, which the charged
/// slab keeps.
fn charge(n: usize) -> usize {
    GAUGES.with(|g| {
        g.charge(n);
        std::ptr::from_ref(g) as usize
    })
}

/// Run `f` on this thread's gauges if this is the thread tagged `home`.
/// Elsewhere a slab's accounting does not move: its bytes stay counted
/// where they were charged.
fn at_home(home: usize, f: impl FnOnce(&Gauges)) {
    GAUGES.with(|g| {
        if std::ptr::from_ref(g) as usize == home {
            f(g);
        }
    });
}

/// Payload bytes currently alive (backing slabs still referenced) among
/// those this thread materialized.
pub fn bytes_alive() -> u64 {
    GAUGES.with(|g| g.alive.get())
}

/// High-water mark of [`bytes_alive`] since this thread started.
pub fn bytes_peak() -> u64 {
    GAUGES.with(|g| g.peak.get())
}

/// Total payload bytes this thread has ever materialized into slabs.
pub fn bytes_total() -> u64 {
    GAUGES.with(|g| g.total.get())
}

/// Reset the high-water mark to the currently-alive total, so the next
/// [`bytes_peak`] reading reports a per-interval peak (harness telemetry
/// around one benchmark run).
pub fn reset_bytes_peak() {
    GAUGES.with(|g| g.peak.set(g.alive.get()));
}

/// One refcounted backing allocation. Immutable once shared; mutable only
/// through `Arc::get_mut`, which refuses while any other reference exists —
/// an owner that must write then copies the bytes out into a slab of its
/// own (copy-on-write, never mutation-in-place of shared data).
pub struct Slab {
    data: Vec<u8>,
    /// Bytes charged against the accounting; adjusted by
    /// [`Slab::recharge`] after in-place growth.
    charged: usize,
    /// The tag of the thread they are charged to.
    home: usize,
}

impl Slab {
    /// Wrap a vector, charging its length to this thread's accounting.
    pub fn from_vec(data: Vec<u8>) -> Slab {
        let home = charge(data.len());
        let charged = data.len();
        Slab {
            data,
            charged,
            home,
        }
    }

    /// The stored bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable access to the backing vector. Only reachable on an unshared
    /// slab (via `Arc::get_mut`); call [`Slab::recharge`] afterwards if the
    /// length changed.
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Re-sync the byte accounting after an in-place length change (on
    /// the thread that made the slab; elsewhere nothing moves).
    pub fn recharge(&mut self) {
        let (len, charged) = (self.data.len(), &mut self.charged);
        at_home(self.home, |g| {
            if len > *charged {
                g.charge(len - *charged);
            } else {
                g.discharge(*charged - len);
            }
            *charged = len;
        });
    }

    /// Stored length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        at_home(self.home, |g| g.discharge(self.charged));
    }
}

impl Deref for Slab {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} bytes)", self.data.len())
    }
}

/// A pooled backing buffer: on final release the vector returns to its
/// pool's freelist instead of the allocator.
struct PooledSlab {
    data: Vec<u8>,
    pool: Weak<Freelist>,
    /// The tag of the thread its bytes are charged to.
    home: usize,
}

impl Drop for PooledSlab {
    fn drop(&mut self) {
        at_home(self.home, |g| g.discharge(self.data.len()));
        if let Some(pool) = self.pool.upgrade() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

enum Repr {
    Plain(Arc<Slab>),
    Pooled(Arc<PooledSlab>),
}

impl Clone for Repr {
    fn clone(&self) -> Repr {
        match self {
            Repr::Plain(s) => Repr::Plain(s.clone()),
            Repr::Pooled(s) => Repr::Pooled(s.clone()),
        }
    }
}

/// A cheaply-cloneable view into a refcounted byte slab.
///
/// Cloning and subslicing are refcount/arithmetic only — no bytes move.
/// The backing storage is immutable for as long as any view exists, so a
/// frame delivered into a queue can never be mutated by a later writer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no backing allocation charge).
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// Take ownership of a vector without copying it.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        Bytes::from_slab(Arc::new(Slab::from_vec(v)))
    }

    /// View an existing shared slab without copying (zero-copy handoff from
    /// storage that keeps the slab, e.g. a memfs file body).
    pub fn from_slab(slab: Arc<Slab>) -> Bytes {
        let len = slab.len();
        Bytes {
            repr: Repr::Plain(slab),
            off: 0,
            len,
        }
    }

    /// Copy a slice into a fresh backing slab (the one copy an inline path
    /// is allowed).
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        Bytes::from_vec(src.to_vec())
    }

    /// A zero-cost sub-view. Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for {} bytes",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        let backing: &[u8] = match &self.repr {
            Repr::Plain(s) => s,
            Repr::Pooled(s) => &s.data,
        };
        &backing[self.off..self.off + self.len]
    }

    /// View length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy the view out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

/// A payload that lives in more than one slab: views in order, their
/// concatenation implied. This is what lets a read of several file pages
/// ride one RDMA write without first being gathered into a frame. Pieces
/// are never empty.
///
/// The first piece is stored inline, so the common rope — one frame, one
/// page — costs no allocation beyond the view itself.
#[derive(Clone, Debug, Default)]
pub struct Rope {
    first: Option<Bytes>,
    rest: Vec<Bytes>,
    len: usize,
}

/// The pieces of a [`Rope`], in order.
pub type RopeIter<'a> = std::iter::Chain<std::option::Iter<'a, Bytes>, std::slice::Iter<'a, Bytes>>;

impl Rope {
    /// An empty rope.
    pub fn new() -> Rope {
        Rope::default()
    }

    /// Append a view.
    pub fn push(&mut self, piece: Bytes) {
        if piece.is_empty() {
            return;
        }
        self.len += piece.len();
        match self.first {
            None => self.first = Some(piece),
            Some(_) => self.rest.push(piece),
        }
    }

    /// Append every piece of `other`.
    pub fn append(&mut self, other: Rope) {
        let pieces = other.first.into_iter().chain(other.rest);
        pieces.for_each(|p| self.push(p));
    }

    /// Total bytes across the pieces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the rope holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rope's only piece, when it has exactly one: what a consumer that
    /// needs the bytes contiguous can take without copying.
    pub fn as_single(&self) -> Option<&Bytes> {
        self.first.as_ref().filter(|_| self.rest.is_empty())
    }

    /// The pieces, in order.
    pub fn iter(&self) -> RopeIter<'_> {
        self.first.iter().chain(&self.rest)
    }

    /// A sub-rope sharing the same slabs. Panics if the range is out of
    /// bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Rope {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {}..{} out of bounds for {} bytes",
            range.start,
            range.end,
            self.len
        );
        let mut out = Rope::new();
        let mut at = 0usize;
        for p in self {
            let lo = range.start.max(at);
            let hi = range.end.min(at + p.len());
            if lo < hi {
                out.push(p.slice(lo - at..hi - at));
            }
            at += p.len();
            if at >= range.end {
                break;
            }
        }
        out
    }

    /// Append every piece to `out` — the one copy of a consumer that needs
    /// the bytes contiguous.
    pub fn copy_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        for p in self {
            out.extend_from_slice(p);
        }
    }

    /// Copy the pieces out into one owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.copy_into(&mut out);
        out
    }
}

impl From<Bytes> for Rope {
    fn from(b: Bytes) -> Rope {
        let mut r = Rope::new();
        r.push(b);
        r
    }
}

impl<'a> IntoIterator for &'a Rope {
    type Item = &'a Bytes;
    type IntoIter = RopeIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// How many spare vectors a pool retains before excess buffers fall back to
/// the allocator.
const POOL_RETAIN: usize = 64;

struct Freelist {
    free: Mutex<Vec<Vec<u8>>>,
}

impl Freelist {
    /// Keep `v` for reuse, unless the freelist is full or this is not the
    /// pool's thread (`try_lock` answers `None` there): then it is freed.
    fn put(&self, mut v: Vec<u8>) {
        if let Some(mut free) = self.free.try_lock() {
            if free.len() < POOL_RETAIN {
                v.clear();
                free.push(v);
            }
        }
    }
}

/// A freelist of wire-frame buffers: [`BufPool::alloc`] hands out a
/// writable buffer (recycled when available), and freezing it into a
/// [`Bytes`] arranges for the vector to return to the pool when the last
/// view drops.
///
/// A recycled vector keeps the capacity of the largest frame it ever held,
/// so a pooled frame is for bytes that die with the message; a buffer whose
/// views are *kept* (a file page, a cached reply) is an exact-size
/// [`Bytes::from_vec`] instead.
///
/// A pool serves one thread, the first that allocates from it: its freelist
/// is a `parking_lot` lock cell, so an `alloc` on another thread panics, and
/// a frame whose last view drops on another thread is freed, not returned.
#[derive(Clone)]
pub struct BufPool {
    state: Arc<Freelist>,
}

impl BufPool {
    /// Create an empty pool.
    pub fn new() -> BufPool {
        BufPool {
            state: Arc::new(Freelist {
                free: Mutex::new(Vec::new()),
            }),
        }
    }

    /// An empty writable buffer with room for `len` bytes, recycled from
    /// the freelist when possible. The caller appends: nothing is
    /// zero-filled only to be overwritten.
    pub fn alloc(&self, len: usize) -> PoolBuf {
        let mut v = self.state.free.lock().pop().unwrap_or_default();
        v.reserve(len);
        PoolBuf {
            data: v,
            pool: Arc::downgrade(&self.state),
        }
    }

    /// Buffers currently parked in the freelist (test/diagnostic hook).
    pub fn idle(&self) -> usize {
        self.state.free.lock().len()
    }
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool::new()
    }
}

/// This thread's frame pool, used by the transport layers for short-lived
/// wire frames (gathered sends, TCP chunks): each kernel's thread recycles
/// its own.
pub fn frame_pool() -> BufPool {
    thread_local!(static POOL: BufPool = BufPool::new());
    POOL.with(BufPool::clone)
}

/// A writable, pool-backed staging buffer; freeze it into an immutable
/// [`Bytes`] once filled.
pub struct PoolBuf {
    data: Vec<u8>,
    pool: Weak<Freelist>,
}

impl PoolBuf {
    /// Publish the buffer as an immutable shared payload. The backing
    /// vector rejoins the pool when the last `Bytes` view drops.
    pub fn freeze(self) -> Bytes {
        let len = self.data.len();
        Bytes {
            repr: Repr::Pooled(Arc::new(PooledSlab {
                home: charge(len),
                data: self.data,
                pool: self.pool,
            })),
            off: 0,
            len,
        }
    }
}

impl Deref for PoolBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.data
    }
}

impl std::ops::DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_backing() {
        let b = Bytes::from_vec(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s, [2, 3, 4].as_slice());
        assert_eq!(s.slice(1..2), [3].as_slice());
        let c = b.clone();
        drop(b);
        assert_eq!(c, vec![1, 2, 3, 4, 5]);
        assert_eq!(c.slice(..0).len(), 0);
        assert_eq!(c.slice(5..).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_slice_panics() {
        Bytes::from_vec(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn slab_views_are_zero_copy() {
        let slab = Arc::new(Slab::from_vec(b"page data".to_vec()));
        let view = Bytes::from_slab(slab.clone());
        assert_eq!(view, b"page data".as_slice());
        // Same backing allocation, not a copy.
        assert!(std::ptr::eq(view.as_slice().as_ptr(), slab.data().as_ptr()));
    }

    #[test]
    fn shared_slab_refuses_mutation() {
        let mut file = Arc::new(Slab::from_vec(b"aaaa".to_vec()));
        let delivered = Bytes::from_slab(file.clone());
        // While a view is outstanding the owner cannot write in place...
        assert!(Arc::get_mut(&mut file).is_none());
        drop(delivered);
        // ...and can again once the last view is gone.
        let body = Arc::get_mut(&mut file).expect("sole owner");
        body.data_mut().push(b'z');
        body.recharge();
        assert_eq!(file.data(), b"aaaaz");
    }

    #[test]
    fn rope_slices_across_pieces() {
        let a = Bytes::from_vec((0u8..10).collect());
        let b = Bytes::from_vec((10u8..20).collect());
        let mut r = Rope::new();
        r.push(a.clone());
        r.push(Bytes::new()); // empty: dropped
        r.push(b.slice(2..));
        r.push(a.slice(0..2));
        assert_eq!(r.len(), 20);
        assert_eq!(r.iter().map(Bytes::len).collect::<Vec<_>>(), [10, 8, 2]);
        let mut flat = Vec::new();
        r.copy_into(&mut flat);
        let expect: Vec<u8> = (0u8..10).chain(12..20).chain(0..2).collect();
        assert_eq!(flat, expect);
        for (lo, hi) in [(0, 20), (0, 0), (3, 12), (10, 18), (9, 19), (20, 20)] {
            let s = r.slice(lo..hi);
            assert_eq!(s.len(), hi - lo);
            let mut got = Vec::new();
            s.copy_into(&mut got);
            assert_eq!(got, expect[lo..hi], "slice {lo}..{hi}");
        }
        // Slicing shares the slabs.
        let s = r.slice(3..12);
        let first = s.iter().next().expect("piece");
        assert!(std::ptr::eq(first.as_slice().as_ptr(), &a.as_slice()[3]));
        assert!(r.as_single().is_none() && Rope::new().as_single().is_none());
        assert_eq!(Rope::from(a.clone()).as_single(), Some(&a));
    }

    #[test]
    fn pool_recycles_buffers() {
        let pool = BufPool::new();
        let mut buf = pool.alloc(8);
        buf.extend_from_slice(b"frame!!!");
        let frozen = buf.freeze();
        let copy = frozen.clone();
        assert_eq!(pool.idle(), 0);
        drop(frozen);
        assert_eq!(pool.idle(), 0, "live view must keep the buffer out");
        assert_eq!(copy, b"frame!!!".as_slice());
        drop(copy);
        assert_eq!(pool.idle(), 1, "last drop returns the vector");
        // Reallocation hands back the vector, emptied, with the room asked.
        let again = pool.alloc(16);
        assert!(again.is_empty() && again.capacity() >= 16);
        assert_eq!(pool.idle(), 0);
    }

    /// The gauges are this thread's, which no other test shares, so they
    /// move by exactly what this test does.
    #[test]
    fn accounting_tracks_alive_and_peak() {
        let before = bytes_alive();
        let total_before = bytes_total();
        let b = Bytes::from_vec(vec![0; 1024]);
        let v = b.slice(..512);
        assert_eq!(bytes_alive(), before + 1024, "views add no charge");
        assert!(bytes_peak() >= before + 1024);
        assert_eq!(bytes_total(), total_before + 1024);
        drop(b);
        assert_eq!(bytes_alive(), before + 1024, "slab alive while viewed");
        drop(v);
        assert_eq!(bytes_alive(), before);
    }

    /// A frame whose last view drops on another thread is freed there, not
    /// returned to its pool, and neither thread's gauges move: the bytes
    /// stay counted on the thread that made them.
    #[test]
    fn a_frame_dropped_off_its_thread_is_freed_and_stays_counted_at_home() {
        let pool = BufPool::new();
        let mut buf = pool.alloc(8);
        buf.extend_from_slice(b"frame!!!");
        let frame = buf.freeze();
        let slab = Bytes::from_vec(vec![0; 100]);
        let alive = bytes_alive();
        std::thread::scope(|s| {
            s.spawn(move || {
                let before = (bytes_alive(), bytes_total());
                drop((frame, slab));
                assert_eq!((bytes_alive(), bytes_total()), before);
            });
        });
        assert_eq!(pool.idle(), 0, "a frame came back from another thread");
        assert_eq!(bytes_alive(), alive);
        drop(pool.alloc(8).freeze());
        assert_eq!(pool.idle(), 1, "the pool still serves its own thread");
    }
}
