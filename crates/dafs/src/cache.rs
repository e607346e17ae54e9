//! The client's lease-coherent cache: the leases this session holds, the
//! attributes and pages it may serve under them, which pages are dirty, and
//! the recalls it has been pushed but not yet serviced.
//!
//! [`PageCache`] is pure state, like [`crate::lease`] on the server side:
//! nothing in it sends a request, reads a clock, touches simulated memory,
//! counts or traces; it answers in plans and counts. Below it is the driver
//! that sequences it — [`read`], [`write`], [`getattr`], [`past_cache`],
//! [`hand_back`] and the rest — written once over [`CacheIo`], the I/O it
//! needs: `crate::client` answers that with the wire, the clock and the
//! counters, `crate::explore` with a model server around the real lease
//! table and no kernel, so what the explorer exhausts is the code the
//! client runs.
//!
//! **Which files a session caches** is state of the cache too: the set a
//! caller enrolled ([`PageCache::enrol`]). The driver's three entry points
//! ask it first, before anything else, and a file that is not in it goes
//! past the cache ([`past_cache`], then the wire) — so the route is a
//! property of (session, file), like the lease, and never of the call site.
//!
//! **The page invariant.** Under a lease that vouches for size `S`, a
//! cached page `p` holds exactly `min(page, S - p * page)` bytes and none
//! exists at or past `S`; `dirty` is a field of the page, set only under a
//! write lease; a fill never replaces a page. So a page is wholly there or
//! missing: no short page for a read to take for a hole or a fetch to
//! overwrite.
//!
//! **A page is a view.** A fetched page is a slice of the reply its fetch
//! landed as — for a direct read, the server's memfs pages the NIC placed —
//! and is copied only when it straddles two pieces or the reply ends inside
//! it. Nothing writes a page in place: a write replaces it (a page it covers
//! whole by a view of the write, one it covers part of by a copy with the
//! write laid over it), so a fetched view is never written through. The
//! flush hands the dirty pages over as views too.
//!
//! **When a session dies** so does every lease, and every clean page goes.
//! Dirty pages, the only copy of their bytes, wait for the next session to
//! flush them. The dead lease's attributes stay as a *claim*: a fetch that
//! was in flight still lands its pages against it, and the next grant keeps
//! them only if the file's version has not moved since.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::DerefMut;

use memfs::FileAttr;
use simnet::{Bytes, Rope};

use crate::proto::{LeaseKind, ListSeg};

/// Page size of the client cache, in bytes.
pub const CACHE_PAGE: u64 = 4 << 10;
/// Pages the client cache keeps before it evicts clean ones.
pub(crate) const CACHE_CAPACITY: usize = 1024;

/// A page-aligned byte range of the file to fetch: `(offset, length)`.
pub(crate) type Run = (u64, u64);
/// A run and the server's reply to its fetch, as the views it landed as.
pub(crate) type Fetched = (Run, Rope);

/// What a server-acknowledged write did to the attributes a lease vouches
/// for.
pub(crate) enum AttrAfter {
    /// Nothing the cache did not already track (the write-back flush).
    Keep,
    /// The reply carried the new attributes.
    Set(FileAttr),
    /// The reply carried none: the next cached access asks again.
    Forget,
}

/// A page's bytes are a view, never written in place: a page that came
/// whole from one piece of a fetch shares that piece's slab, and a write
/// replaces the view (copying the page once if it covers only part of it).
#[derive(Clone)]
struct Page {
    bytes: Bytes,
    dirty: bool,
}

/// The cache of one session. All maps are ordered, so flush and eviction
/// sweeps are deterministic.
#[derive(Clone)]
pub(crate) struct PageCache {
    page: u64,
    capacity: usize,
    /// The files this session caches, for as long as it lives: reconnects
    /// included, and holding nothing does not empty it.
    enrolled: BTreeSet<u64>,
    /// Leases held, with the attributes they vouch for (`None` after a
    /// write whose reply carried none).
    leases: BTreeMap<u64, (LeaseKind, Option<FileAttr>)>,
    /// Attributes of leases that died with a session, until the next grant.
    claims: BTreeMap<u64, FileAttr>,
    /// `(fh, page index)` → page.
    pages: BTreeMap<(u64, u64), Page>,
    /// How many of `pages` are dirty, so idleness is not a scan.
    dirty: usize,
    /// Recall pushes received but not yet serviced: `(fh, recall id)`.
    recalls: VecDeque<(u64, u32)>,
}

impl PageCache {
    pub(crate) fn new(page: u64, capacity: usize) -> PageCache {
        assert!(page > 0, "page size must be nonzero");
        PageCache {
            page,
            capacity,
            enrolled: BTreeSet::new(),
            leases: BTreeMap::new(),
            claims: BTreeMap::new(),
            pages: BTreeMap::new(),
            dirty: 0,
            recalls: VecDeque::new(),
        }
    }

    /// From now on `fh` is read, written and sized through this cache.
    pub(crate) fn enrol(&mut self, fh: u64) {
        self.enrolled.insert(fh);
    }

    /// Whether `fh` was enrolled.
    pub(crate) fn caches(&self, fh: u64) -> bool {
        self.enrolled.contains(&fh)
    }

    /// No lease, no queued recall, no dirty page: nothing to service on
    /// entry to a cached call, nothing to hand back on disconnect. (What is
    /// enrolled does not count: it holds nothing.)
    pub(crate) fn is_idle(&self) -> bool {
        self.leases.is_empty() && self.recalls.is_empty() && self.dirty == 0
    }

    /// The lease held on `fh` and the attributes it vouches for.
    pub(crate) fn held(&self, fh: u64) -> Option<(LeaseKind, Option<FileAttr>)> {
        self.leases.get(&fh).copied()
    }

    /// Every file a lease is held on, in handle order.
    pub(crate) fn leased(&self) -> Vec<u64> {
        self.leases.keys().copied().collect()
    }

    /// Files with dirty pages but no write lease — it died with a session
    /// — in handle order: flushed before anything else is served.
    pub(crate) fn orphans(&self) -> Vec<u64> {
        let (mut fhs, mut seen) = (Vec::new(), None);
        if self.dirty > 0 {
            for (&(fh, _), _) in self.pages.iter().filter(|(_, p)| p.dirty) {
                let first = seen.replace(fh) != Some(fh);
                if first && !matches!(self.held(fh), Some((LeaseKind::Write, _))) {
                    fhs.push(fh);
                }
            }
        }
        fhs
    }

    /// The server granted a `kind` lease on `fh` (a refresh or upgrade
    /// keeps the stronger kind) with `attr` riding along. Clean pages kept
    /// against a dead lease's claim survive only if the file has not
    /// changed since. Returns the pages dropped.
    pub(crate) fn grant(&mut self, fh: u64, kind: LeaseKind, attr: FileAttr) -> u64 {
        let mut dropped = 0;
        if self
            .claims
            .remove(&fh)
            .is_some_and(|c| c.version != attr.version)
        {
            let before = self.pages.len();
            self.pages.retain(|k, p| k.0 != fh || p.dirty);
            dropped = (before - self.pages.len()) as u64;
        }
        let held = self.leases.entry(fh).or_insert((kind, None));
        *held = (held.0.max(kind), Some(attr));
        dropped + self.resize(fh, attr.size)
    }

    /// What to fetch before `[off, end)` of `fh` can be read from the cache
    /// or (`write`) laid over it: the end of the access — a read's clipped
    /// to the file size — and the missing pages whose file data it needs,
    /// as contiguous runs. A read needs every page it touches; a write the
    /// pages it covers only part of the data of, so the bytes beside it
    /// survive — one predicate for its first and last page, which may be
    /// the same one. `None` when no lease vouches for a size or, for a
    /// write, the lease is not a write lease.
    pub(crate) fn plan(&self, fh: u64, off: u64, end: u64, write: bool) -> Option<(u64, Vec<Run>)> {
        let (kind, attr) = self.held(fh)?;
        let size = attr?.size;
        if write && kind != LeaseKind::Write {
            return None;
        }
        let end = if write { end } else { end.min(size) };
        let mut runs: Vec<Run> = Vec::new();
        if off < end {
            for p in off / self.page..=(end - 1) / self.page {
                // The file data page `p` holds today.
                let lo = p * self.page;
                let hi = lo.saturating_add(self.page).min(size);
                let covered = write && off <= lo && hi <= end;
                if lo >= hi || covered || self.pages.contains_key(&(fh, p)) {
                    continue;
                }
                match runs.last_mut() {
                    Some(r) if r.0 + r.1 == lo => r.1 = hi - r.0,
                    _ => runs.push((lo, hi - lo)),
                }
            }
        }
        Some((end, runs))
    }

    /// Install the server's replies to fetches. A page that lies in one
    /// piece of its reply is a view of that piece; one that straddles two
    /// is assembled once. One shorter than its run is zero-padded: the
    /// server's image is shorter than the size the lease vouches for
    /// exactly where unflushed growth is. A page already there stays as it
    /// is (it may be dirty); with neither a lease nor a claim to size a
    /// page against, nothing is kept.
    pub(crate) fn fill(&mut self, fh: u64, fetched: &[Fetched]) {
        let Some(size) = self.size(fh) else { return };
        for ((off, len), reply) in fetched {
            assert!(off.is_multiple_of(self.page), "runs are page-aligned");
            let mut lo = *off;
            while lo < (off + len).min(size) {
                let want = self.page.min(size - lo) as usize;
                self.pages.entry((fh, lo / self.page)).or_insert_with(|| {
                    let at = ((lo - off) as usize).min(reply.len());
                    let got = reply.slice(at..reply.len().min(at + want));
                    let bytes = match got.as_single() {
                        Some(whole) if whole.len() == want => whole.clone(),
                        _ => {
                            let mut page = got.to_vec();
                            page.resize(want, 0);
                            Bytes::from_vec(page)
                        }
                    };
                    let dirty = false;
                    Page { bytes, dirty }
                });
                lo = lo.saturating_add(self.page);
            }
        }
    }

    /// Hand `[off, end)` of `fh` to `sink` as `(offset from off, bytes)`
    /// pieces, page by page. False — nothing handed over — unless the file
    /// is known to have `end` bytes and every page is there.
    pub(crate) fn copy_out(
        &self,
        fh: u64,
        off: u64,
        end: u64,
        mut sink: impl FnMut(u64, &[u8]),
    ) -> bool {
        let pages = off / self.page..=(end.max(1) - 1) / self.page;
        let known = off < end && self.size(fh).is_some_and(|size| end <= size);
        if !known || !pages.clone().all(|p| self.pages.contains_key(&(fh, p))) {
            return false;
        }
        for p in pages {
            let start = p * self.page;
            let (lo, hi) = (off.max(start), end.min(start.saturating_add(self.page)));
            let bytes = &self.pages[&(fh, p)].bytes;
            sink(
                lo - off,
                &bytes[(lo - start) as usize..(hi - start) as usize],
            );
        }
        true
    }

    /// Buffer `data` at `off` under the write lease: grow the size it
    /// vouches for (zero-extending the cached old tail page), lay the bytes
    /// over the pages, mark them dirty. A page the write covers whole
    /// becomes a view of `data`; one it covers part of is copied once with
    /// the write laid over it — a page is never written in place, so a
    /// view it shares with a fetch's reply stays as the server sent it. The
    /// pages [`Self::plan`] named must be there. `None`, and nothing
    /// changed, without the write lease.
    pub(crate) fn buffer(&mut self, fh: u64, off: u64, data: &Bytes) -> Option<FileAttr> {
        let Some((LeaseKind::Write, Some(attr))) = self.leases.get_mut(&fh) else {
            return None;
        };
        attr.size = attr.size.max(off + data.len() as u64);
        let attr = *attr;
        self.resize(fh, attr.size);
        let mut pos = 0usize;
        while pos < data.len() {
            let at = off + pos as u64;
            let start = at / self.page * self.page;
            let want = self.page.min(attr.size - start) as usize;
            let within = (at - start) as usize;
            let take = (want - within).min(data.len() - pos);
            let key = (fh, at / self.page);
            let bytes = if take == want {
                data.slice(pos..pos + take)
            } else {
                let mut page = match self.pages.get(&key) {
                    Some(old) => old.bytes.to_vec(),
                    None => vec![0; want],
                };
                page[within..within + take].copy_from_slice(&data[pos..pos + take]);
                Bytes::from_vec(page)
            };
            let was = self.pages.insert(key, Page { bytes, dirty: true });
            self.dirty += usize::from(!was.is_some_and(|p| p.dirty));
            pos += take;
        }
        Some(attr)
    }

    /// `fh`'s dirty pages as one sorted vectored write: segments `(file
    /// offset, length, staging offset)`, the pages' bytes in that order as
    /// views (their concatenation is the staging), the page count.
    /// Adjacent pages merge into one segment; a short page is the file's
    /// tail, and ending before the next page boundary it ends its run.
    pub(crate) fn dirty_runs(&self, fh: u64) -> (Vec<ListSeg>, Rope, u64) {
        let (mut segs, mut data, mut pages) = (Vec::<ListSeg>::new(), Rope::new(), 0);
        if self.dirty > 0 {
            let of_fh = self.pages.range((fh, 0)..=(fh, u64::MAX));
            for (&(_, p), page) in of_fh.filter(|(_, page)| page.dirty) {
                let off = p * self.page;
                match segs.last_mut() {
                    Some(s) if s.0 + s.1 == off => s.1 += page.bytes.len() as u64,
                    _ => segs.push((off, page.bytes.len() as u64, data.len() as u64)),
                }
                data.push(page.bytes.clone());
                pages += 1;
            }
        }
        (segs, data, pages)
    }

    /// The server acknowledged a write (or resize) of `[off, off + len)` of
    /// `fh`: drop the pages it touched — the cache would shadow the newer
    /// server state; for the flush they are the pages just written — and
    /// bring the attributes in step. Returns the pages dropped. Whoever
    /// sends a write has flushed `fh` first, so only the flush itself meets
    /// a dirty page here.
    pub(crate) fn wrote(&mut self, fh: u64, off: u64, len: u64, attr: AttrAfter) -> u64 {
        let mut dropped = 0;
        if len > 0 && !self.pages.is_empty() {
            let last = (off.saturating_add(len) - 1) / self.page;
            dropped = self.drop_pages(fh, off / self.page, last);
        }
        match (self.leases.get_mut(&fh), attr) {
            (None, _) | (_, AttrAfter::Keep) => {}
            (Some(held), AttrAfter::Forget) => held.1 = None,
            (Some(held), AttrAfter::Set(a)) => {
                held.1 = Some(a);
                dropped += self.resize(fh, a.size);
            }
        }
        dropped
    }

    /// Hand `fh` back: forget the lease and everything cached under it.
    /// Returns whether a lease was held, and the pages dropped.
    pub(crate) fn drop_file(&mut self, fh: u64) -> (bool, u64) {
        self.claims.remove(&fh);
        let held = self.leases.remove(&fh).is_some();
        (held, self.drop_pages(fh, 0, u64::MAX))
    }

    /// The session died: the server reclaimed every lease, so every clean
    /// object is suspect and queued recalls are moot; see the module doc
    /// for what stays. Returns the pages dropped.
    pub(crate) fn session_lost(&mut self) -> u64 {
        for (fh, (_, attr)) in std::mem::take(&mut self.leases) {
            self.claims.extend(attr.map(|a| (fh, a)));
        }
        self.recalls.clear();
        let before = self.pages.len();
        self.pages.retain(|_, p| p.dirty);
        (before - self.pages.len()) as u64
    }

    /// Evict clean pages, lowest key first, down to the capacity; a dirty
    /// page holds unflushed data and never goes. Returns the pages dropped.
    pub(crate) fn evict(&mut self) -> u64 {
        let mut dropped = 0;
        while self.pages.len() > self.capacity {
            let victim = self.pages.iter().find(|(_, p)| !p.dirty).map(|(k, _)| *k);
            let Some(k) = victim else { break };
            self.pages.remove(&k);
            dropped += 1;
        }
        dropped
    }

    /// Queue a recall the server pushed, for the next cached call.
    pub(crate) fn queue_recall(&mut self, fh: u64, recall_id: u32) {
        self.recalls.push_back((fh, recall_id));
    }

    /// The oldest recall not yet serviced.
    pub(crate) fn next_recall(&mut self) -> Option<(u64, u32)> {
        self.recalls.pop_front()
    }

    /// The size pages of `fh` are cut to: what the lease vouches for, or
    /// with none held what the dead one's claim says.
    fn size(&self, fh: u64) -> Option<u64> {
        match self.leases.get(&fh) {
            Some((_, attr)) => Some((*attr)?.size),
            None => Some(self.claims.get(&fh)?.size),
        }
    }

    /// Remove `fh`'s pages `first..=last`; returns how many went.
    fn drop_pages(&mut self, fh: u64, first: u64, last: u64) -> u64 {
        let range = self.pages.range((fh, first)..=(fh, last));
        let keys: Vec<(u64, u64)> = range.map(|(k, _)| *k).collect();
        for k in &keys {
            self.dirty -= usize::from(self.pages.remove(k).is_some_and(|p| p.dirty));
        }
        keys.len() as u64
    }

    /// Re-establish the page invariant for `size`: drop the pages at or
    /// past it, then cut or zero-extend the last one left — the only page
    /// that can be short, before or after; a cut is a sub-view, and only
    /// growth copies. Growth under a lease is this session's own, and a
    /// write drops the pages it covers, so what a surviving page gains is a
    /// hole: zeros. Returns the pages dropped.
    fn resize(&mut self, fh: u64, size: u64) -> u64 {
        let dropped = self.drop_pages(fh, size.div_ceil(self.page), u64::MAX);
        let page = self.page;
        let mut of_fh = self.pages.range_mut((fh, 0)..=(fh, u64::MAX));
        if let Some((&(_, p), last)) = of_fh.next_back() {
            let want = page.min(size - p * page) as usize;
            if want < last.bytes.len() {
                last.bytes = last.bytes.slice(..want);
            } else if want > last.bytes.len() {
                let mut grown = last.bytes.to_vec();
                grown.resize(want, 0);
                last.bytes = Bytes::from_vec(grown);
            }
        }
        dropped
    }
}

// ----- the driver ---------------------------------------------------------
//
// What a session does with its cache, step by step, written once over the
// I/O it needs: `crate::client` supplies the wire, the clock, the counters
// and the trace; `crate::explore` supplies a model server. One lock per
// step, and no I/O under it — `CacheIo::cache` borrows the whole session.

/// One cache event: which `DafsCacheStats` counter it bumps.
#[derive(Clone, Copy)]
pub(crate) enum CacheStat {
    Hits,
    Misses,
    AttrHits,
    AttrMisses,
    Recalls,
    Invalidations,
    FlushBatches,
    FlushPages,
}

/// The session around a cache: everything the driver may not do itself.
pub(crate) trait CacheIo {
    /// What a request that did not complete returns.
    type Error;
    /// Lock the cache for one step.
    fn cache(&mut self) -> impl DerefMut<Target = PageCache> + '_;
    /// Whether cached writes ask for a write-back lease.
    fn write_back(&self) -> bool;
    /// Bump `stat` by `n`: the session's counter and the run's, together.
    fn count(&mut self, stat: CacheStat, n: u64);
    /// Charge the CPU one local copy of `bytes`.
    fn charge_copy(&mut self, bytes: u64);
    /// Recall `id` of `fh` is about to be serviced.
    fn note_recall(&mut self, fh: u64, id: u32);
    /// Queue the recall pushes that have arrived, without blocking.
    fn poll(&mut self);
    /// Ask for a `kind` lease on `fh`: the attributes that rode along with
    /// a grant, `None` when denied or the session broke while asking.
    fn lease_grant(&mut self, fh: u64, kind: LeaseKind) -> Result<Option<FileAttr>, Self::Error>;
    /// Acknowledge recall `id` of `fh` (0: a voluntary release).
    fn lease_ack(&mut self, fh: u64, id: u32) -> Result<(), Self::Error>;
    /// Read one run of `fh` from the server: the reply as the views it
    /// landed as.
    fn fetch(&mut self, fh: u64, run: Run) -> Result<Rope, Self::Error>;
    /// Ship the write-back flush of `fh` — the one request exempt from
    /// [`past_cache`]: `segs` over the dirty pages' bytes `data`. Returns
    /// the wire requests it cost, replays included, and whether the server
    /// acknowledged it.
    fn flush(&mut self, fh: u64, segs: Vec<ListSeg>, data: Rope) -> (u64, Result<(), Self::Error>);
    /// Ask the server for `fh`'s attributes.
    fn getattr(&mut self, fh: u64) -> Result<FileAttr, Self::Error>;
}

/// Count `n` cached pages dropped. Zero leaves the metric unregistered, as
/// a session that never cached must.
pub(crate) fn dropped(s: &mut impl CacheIo, n: u64) {
    if n > 0 {
        s.count(CacheStat::Invalidations, n);
    }
}

/// The one rule for every request that goes to the server past the cache:
/// `fh`'s dirty pages are flushed first — a read then sees them, a write,
/// resize or append lands on top of them — and before a `mutating` one a
/// session holding only a *read* lease hands it back, because the server
/// lets a holder's requests through without recalling the other readers.
/// (It cannot recall them itself: two readers writing at once would each
/// park behind a recall the other answers only on entry to its next call. A
/// release completes any recall waiting on the releaser, so this cannot
/// wedge.) Only the driver's own requests are exempt — the flush, and the
/// fetches and GETATTR behind a trait call, which would otherwise flush the
/// file they pre-fault. With nothing cached: two lookups, no clock, wire,
/// metric or trace.
pub(crate) fn past_cache<S: CacheIo>(s: &mut S, fh: u64, mutating: bool) -> Result<(), S::Error> {
    flush_file(s, fh)?;
    if mutating && matches!(s.cache().held(fh), Some((LeaseKind::Read, _))) {
        hand_back(s, fh, 0)?;
    }
    Ok(())
}

/// Acquire (or refresh/upgrade) a `kind` lease on `fh`: the attributes of
/// a grant, `None` without one.
fn lease_acquire<S: CacheIo>(
    s: &mut S,
    fh: u64,
    kind: LeaseKind,
) -> Result<Option<FileAttr>, S::Error> {
    let granted = s.lease_grant(fh, kind)?;
    if let Some(attr) = granted {
        let n = s.cache().grant(fh, kind, attr);
        dropped(s, n);
    }
    Ok(granted)
}

/// Cache entry-point prologue: flush write-back data orphaned by a
/// reconnect, then notice and service any recalls the server pushed since
/// the last operation. With nothing cached it returns at once.
pub(crate) fn service<S: CacheIo>(s: &mut S) -> Result<(), S::Error> {
    let orphans = {
        let c = s.cache();
        if c.is_idle() {
            return Ok(());
        }
        c.orphans()
    };
    for fh in orphans {
        flush_file(s, fh)?;
    }
    // A dead session surfaces on the next real request, not here.
    s.poll();
    loop {
        let next = s.cache().next_recall();
        let Some((fh, recall_id)) = next else { break };
        hand_back(s, fh, recall_id)?;
    }
    Ok(())
}

/// Hand the lease on `fh` back — servicing recall `recall_id`, or
/// voluntarily under the reserved id 0: flush, drop everything cached under
/// the lease, ack. A recall is acked even with no lease left (the server
/// waits for it); a voluntary hand-back with none held sends nothing.
pub(crate) fn hand_back<S: CacheIo>(s: &mut S, fh: u64, recall_id: u32) -> Result<(), S::Error> {
    if recall_id != 0 {
        s.count(CacheStat::Recalls, 1);
        s.note_recall(fh, recall_id);
    }
    flush_file(s, fh)?;
    let (held, n) = s.cache().drop_file(fh);
    dropped(s, n);
    if recall_id == 0 && !held {
        return Ok(());
    }
    s.lease_ack(fh, recall_id)
}

/// Flush `fh`'s dirty write-back pages in one coalesced pass. Once the
/// server has acknowledged them the pages of the flushed span leave the
/// cache, counted as invalidations; a failed flush — it still counts its
/// requests and pages — keeps them dirty. Returns the pages flushed.
fn flush_file<S: CacheIo>(s: &mut S, fh: u64) -> Result<u64, S::Error> {
    let (segs, data, pages) = s.cache().dirty_runs(fh);
    let (Some(first), Some(last)) = (segs.first(), segs.last()) else {
        return Ok(0);
    };
    let (off, len) = (first.0, last.0 + last.1 - first.0);
    let (requests, acked) = s.flush(fh, segs, data);
    s.count(CacheStat::FlushBatches, requests);
    s.count(CacheStat::FlushPages, pages);
    acked?;
    let n = s.cache().wrote(fh, off, len, AttrAfter::Keep);
    dropped(s, n);
    Ok(pages)
}

/// Fetch the `runs` a plan named, one read each: read misses and write
/// pre-faults alike.
fn fetch_pages<S: CacheIo>(s: &mut S, fh: u64, runs: &[Run]) -> Result<Vec<Fetched>, S::Error> {
    let mut fetched = Vec::with_capacity(runs.len());
    for &run in runs {
        fetched.push((run, s.fetch(fh, run)?));
    }
    Ok(fetched)
}

/// Install what [`fetch_pages`] brought, run `access` against the cache,
/// evict down to capacity: one step under one lock.
fn with_fetched<S: CacheIo, R>(
    s: &mut S,
    fh: u64,
    fetched: &[Fetched],
    access: impl FnOnce(&mut PageCache) -> R,
) -> R {
    let (out, evicted) = {
        let mut c = s.cache();
        c.fill(fh, fetched);
        (access(&mut c), c.evict())
    };
    dropped(s, evicted);
    out
}

/// Attributes of `fh`. A file the session does not cache: the rule, then a
/// plain GETATTR. One it does: free while a lease vouches for them, one
/// lease acquisition (which seeds the cache) otherwise, and without a lease
/// a plain GETATTR — coherent by asking.
pub(crate) fn getattr<S: CacheIo>(s: &mut S, fh: u64) -> Result<FileAttr, S::Error> {
    if !s.cache().caches(fh) {
        past_cache(s, fh, false)?;
        return s.getattr(fh);
    }
    service(s)?;
    let held = s.cache().held(fh);
    if let Some((_, Some(attr))) = held {
        s.count(CacheStat::AttrHits, 1);
        return Ok(attr);
    }
    s.count(CacheStat::AttrMisses, 1);
    match lease_acquire(s, fh, LeaseKind::Read)? {
        Some(attr) => Ok(attr),
        None => s.getattr(fh),
    }
}

/// Read `len` bytes at `off` of `fh`. A file the session does not cache:
/// the rule, then the read on the `wire`. One it does goes into `sink`:
/// pages under a valid lease cost one local copy; missing ones are fetched
/// in contiguous runs and kept; without a lease the read goes to the `wire`
/// (as does a range past the last offset, for the server to refuse). A hit
/// or miss is counted once the fetches are in; a read wholly past EOF is a
/// hit on the attributes alone.
pub(crate) fn read<S: CacheIo>(
    s: &mut S,
    fh: u64,
    (off, len): (u64, u64),
    sink: impl FnMut(u64, &[u8]),
    wire: impl FnOnce(&mut S) -> Result<u64, S::Error>,
) -> Result<u64, S::Error> {
    if !s.cache().caches(fh) {
        past_cache(s, fh, false)?;
        return wire(s);
    }
    service(s)?;
    let Some(end) = off.checked_add(len) else {
        return wire(s);
    };
    if len == 0 {
        return Ok(0);
    }
    let mut plan = s.cache().plan(fh, off, end, false);
    if plan.is_none() && lease_acquire(s, fh, LeaseKind::Read)?.is_some() {
        plan = s.cache().plan(fh, off, end, false);
    }
    let Some((end, runs)) = plan else {
        s.count(CacheStat::Misses, 1);
        return wire(s);
    };
    if off >= end {
        s.count(CacheStat::Hits, 1);
        return Ok(0);
    }
    let fetched = fetch_pages(s, fh, &runs)?;
    let stat = match runs.is_empty() {
        true => CacheStat::Hits,
        false => CacheStat::Misses,
    };
    s.count(stat, 1);
    // Assembly into the caller's buffer: the one copy a hit costs.
    s.charge_copy(end - off);
    match with_fetched(s, fh, &fetched, |c| c.copy_out(fh, off, end, sink)) {
        true => Ok(end - off),
        // The lease died with the session while the misses were fetched.
        false => wire(s),
    }
}

/// Write `len` bytes at `off` of `fh`: buffered ([`buffer_write`]) where
/// the session caches the file and writes back; anything else — a file it
/// does not cache, no write-back, no lease — follows the rule and goes to
/// the `wire`.
pub(crate) fn write<S: CacheIo>(
    s: &mut S,
    fh: u64,
    (off, len): (u64, u64),
    data: impl FnOnce(&mut S) -> Vec<u8>,
    wire: impl FnOnce(&mut S) -> Result<FileAttr, S::Error>,
) -> Result<FileAttr, S::Error> {
    if s.cache().caches(fh) {
        service(s)?;
        if let Some(attr) = buffer_write(s, fh, off, len, data)? {
            return Ok(attr);
        }
    }
    past_cache(s, fh, true)?;
    wire(s)
}

/// A write-back session buffers the bytes (`data`) dirty under a write
/// lease — one local copy now, flushed on recall, sync or close. `None`,
/// and nothing buffered, without write-back or the lease.
fn buffer_write<S: CacheIo>(
    s: &mut S,
    fh: u64,
    off: u64,
    len: u64,
    data: impl FnOnce(&mut S) -> Vec<u8>,
) -> Result<Option<FileAttr>, S::Error> {
    let end = match off.checked_add(len) {
        Some(end) if len > 0 && s.write_back() => end,
        _ => return Ok(None),
    };
    let held = matches!(s.cache().held(fh), Some((LeaseKind::Write, _)))
        || matches!(lease_acquire(s, fh, LeaseKind::Write), Ok(Some(_)));
    if !held {
        return Ok(None);
    }
    // The attr is the EOF authority; the write lease guarantees nobody else
    // can move it underneath us. (Asking may service a recall and lose the
    // lease: then there is no plan.)
    getattr(s, fh)?;
    let plan = s.cache().plan(fh, off, end, true);
    let Some((_, runs)) = plan else {
        return Ok(None);
    };
    // Pre-fault the partly covered pages, so overlaying the write cannot
    // lose the bytes beside it.
    let fetched = fetch_pages(s, fh, &runs)?;
    let bytes = Bytes::from_vec(data(s));
    s.charge_copy(len);
    Ok(with_fetched(s, fh, &fetched, |c| c.buffer(fh, off, &bytes)))
}

/// Flush every dirty write-back page (the cache half of `MPI_File_sync`);
/// leases stay held. Returns the pages flushed — zero means no wire
/// traffic at all.
pub(crate) fn cache_sync<S: CacheIo>(s: &mut S) -> Result<u64, S::Error> {
    // What lost its lease the service step has flushed: anything still
    // dirty is under one.
    service(s)?;
    let (leased, mut flushed) = (s.cache().leased(), 0);
    for fh in leased {
        flushed += flush_file(s, fh)?;
    }
    Ok(flushed)
}

/// Flush and hand back everything cached, ahead of a disconnect.
pub(crate) fn cache_shutdown<S: CacheIo>(s: &mut S) -> Result<(), S::Error> {
    service(s)?;
    let leased = s.cache().leased();
    for fh in leased {
        hand_back(s, fh, 0)?;
    }
    Ok(())
}

#[cfg(test)]
impl PageCache {
    /// The bytes of page `p` of `fh`, if it is cached.
    pub(crate) fn page(&self, fh: u64, p: u64) -> Option<Bytes> {
        self.pages.get(&(fh, p)).map(|page| page.bytes.clone())
    }

    /// Assert the page invariant and the bookkeeping around it.
    pub(crate) fn check(&self) {
        let dirty = self.pages.values().filter(|p| p.dirty).count();
        assert_eq!(self.dirty, dirty, "dirty count out of step");
        for (&(fh, p), page) in &self.pages {
            match self.size(fh) {
                Some(size) => {
                    assert!(p * self.page < size, "fh {fh}: page {p} at or past {size}");
                    let want = self.page.min(size - p * self.page) as usize;
                    assert_eq!(
                        page.bytes.len(),
                        want,
                        "fh {fh}: page {p} under size {size}"
                    );
                }
                // Nothing sizes it: an orphan from a dead write lease.
                None => assert!(page.dirty, "fh {fh}: clean page {p} without lease or claim"),
            }
            if let (true, Some((kind, _))) = (page.dirty, self.held(fh)) {
                assert_eq!(
                    kind,
                    LeaseKind::Write,
                    "fh {fh}: page {p} dirty under a read lease"
                );
            }
        }
    }

    /// Everything that decides future behaviour, for the explorer to hash:
    /// enrolled files, leases, claims, pages `(fh, page, bytes, dirty)`,
    /// queued recalls.
    pub(crate) fn key(&self) -> CacheKey {
        (
            self.enrolled.iter().copied().collect(),
            self.leases.iter().map(|(fh, h)| (*fh, h.0, h.1)).collect(),
            self.claims.iter().map(|(fh, a)| (*fh, *a)).collect(),
            self.pages
                .iter()
                .map(|(k, p)| (k.0, k.1, p.bytes.to_vec(), p.dirty))
                .collect(),
            self.recalls.len(),
        )
    }
}

#[cfg(test)]
pub(crate) type CacheKey = (
    Vec<u64>,
    Vec<(u64, LeaseKind, Option<FileAttr>)>,
    Vec<(u64, FileAttr)>,
    Vec<(u64, u64, Vec<u8>, bool)>,
    usize,
);

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::{FileType, NodeId};

    const FH: u64 = 7;

    pub(crate) fn attr(size: u64, version: u64) -> FileAttr {
        FileAttr {
            id: NodeId(FH),
            ftype: FileType::Regular,
            size,
            version,
            nlink: 1,
        }
    }

    /// A cache of 4-byte pages holding a `kind` lease on a `size`-byte file.
    fn leased(kind: LeaseKind, size: u64, capacity: usize) -> PageCache {
        let mut c = PageCache::new(4, capacity);
        c.grant(FH, kind, attr(size, 1));
        c
    }

    fn fill(c: &mut PageCache, run: Run, reply: &[u8]) {
        c.fill(FH, &[(run, Rope::from(Bytes::copy_from_slice(reply)))]);
    }

    fn buffer(c: &mut PageCache, off: u64, data: &[u8]) -> Option<FileAttr> {
        c.buffer(FH, off, &Bytes::copy_from_slice(data))
    }

    /// [`PageCache::dirty_runs`] with the pages' bytes gathered.
    fn dirty(c: &PageCache) -> (Vec<ListSeg>, Vec<u8>, u64) {
        let (segs, data, pages) = c.dirty_runs(FH);
        (segs, data.to_vec(), pages)
    }

    /// Where page `p`'s bytes live.
    fn at(c: &PageCache, p: u64) -> *const u8 {
        c.pages[&(FH, p)].bytes.as_ptr()
    }

    fn read(c: &PageCache, off: u64, end: u64) -> Option<Vec<u8>> {
        let mut out = vec![0xEE; (end - off) as usize];
        c.copy_out(FH, off, end, |rel, bytes| {
            out[rel as usize..rel as usize + bytes.len()].copy_from_slice(bytes)
        })
        .then_some(out)
    }

    #[test]
    fn a_read_plans_the_missing_runs_and_clips_at_the_size() {
        let mut c = leased(LeaseKind::Read, 10, 8);
        assert_eq!(c.plan(FH, 0, 100, false), Some((10, vec![(0, 10)])));
        fill(&mut c, (4, 4), b"efgh");
        assert_eq!(c.plan(FH, 1, 10, false), Some((10, vec![(0, 4), (8, 2)])));
        assert_eq!(c.plan(FH, 5, 7, false), Some((7, vec![])));
        assert_eq!(c.plan(FH, 12, 20, false), Some((10, vec![])), "past EOF");
        assert_eq!(c.plan(FH, 0, 4, true), None, "a read lease buffers nothing");
        assert_eq!(c.plan(FH + 1, 0, 4, false), None, "no lease, no plan");
        assert_eq!(read(&c, 5, 7).unwrap(), b"fg");
        assert_eq!(read(&c, 3, 7), None, "page 0 is missing");
        c.check();
    }

    #[test]
    fn a_write_plans_only_the_pages_it_covers_part_of_the_data_of() {
        let c = leased(LeaseKind::Write, 10, 8);
        let runs = |off, end| c.plan(FH, off, end, true).unwrap().1;
        assert_eq!(runs(0, 4), [], "a whole page");
        assert_eq!(runs(0, 2), [(0, 4)], "aligned start, end inside the page");
        assert_eq!(runs(2, 4), [(0, 4)], "start inside the page");
        assert_eq!(runs(1, 3), [(0, 4)], "both inside one page");
        assert_eq!(
            runs(2, 10),
            [(0, 4)],
            "head only: the tail is covered to EOF"
        );
        assert_eq!(runs(2, 9), [(0, 4), (8, 2)], "head and tail");
        assert_eq!(runs(3, 6), [(0, 8)], "adjacent head and tail are one run");
        assert_eq!(runs(8, 12), [], "covers the tail's data and grows the file");
        assert_eq!(runs(9, 12), [(8, 2)]);
        assert_eq!(runs(12, 14), [], "wholly past EOF");
    }

    #[test]
    fn fill_zero_pads_a_short_reply_and_never_replaces_a_page() {
        let mut c = leased(LeaseKind::Write, 8, 8);
        assert_eq!(buffer(&mut c, 4, b"WXYZ").unwrap().size, 8);
        // The server's image ends at 2: the fetch of [0, 8) comes back short.
        fill(&mut c, (0, 8), b"ab");
        assert_eq!(read(&c, 0, 8).unwrap(), b"ab\0\0WXYZ", "dirty page 1 stays");
        fill(&mut c, (0, 4), b"abcd");
        assert_eq!(read(&c, 0, 4).unwrap(), b"ab\0\0", "clean page 0 stays too");
        c.check();
        let mut none = PageCache::new(4, 8);
        fill(&mut none, (0, 4), b"abcd");
        assert!(
            none.pages.is_empty(),
            "nothing sizes the page: nothing kept"
        );
    }

    /// A fetched page is a view of the reply piece it lies in; only one
    /// that straddles two pieces, or that the reply ends inside, is
    /// assembled. A write never reaches the reply's bytes: a partial one
    /// copies the page, a whole one takes a view of the write, and a
    /// shrink cuts the view.
    #[test]
    fn pages_are_views_of_the_reply_and_a_write_replaces_them() {
        let mut c = leased(LeaseKind::Write, 14, 8);
        let (one, two) = (Bytes::from(&b"aaaabb"[..]), Bytes::from(&b"bbccccdd"[..]));
        let mut reply = Rope::from(one.clone());
        reply.push(two.clone());
        c.fill(FH, &[((0, 16), reply)]);
        assert_eq!(read(&c, 0, 14).unwrap(), b"aaaabbbbccccdd");
        assert_eq!(at(&c, 0), one.as_ptr(), "page 0 lies in the first piece");
        assert_eq!(
            at(&c, 2),
            two.as_ptr().wrapping_add(2),
            "page 2 in the second"
        );
        let straddles = at(&c, 1);
        assert!(straddles != one.as_ptr().wrapping_add(4) && straddles != two.as_ptr());
        buffer(&mut c, 9, b"X").unwrap();
        assert_eq!(read(&c, 8, 12).unwrap(), b"cXcc");
        assert_eq!(two.as_slice(), b"bbccccdd", "the reply is as it came");
        let data = Bytes::from(&b"YYYY"[..]);
        c.buffer(FH, 0, &data).unwrap();
        assert_eq!(at(&c, 0), data.as_ptr(), "a whole page is the write's view");
        assert_eq!(one.as_slice(), b"aaaabb");
        assert_eq!(c.wrote(FH, 100, 1, AttrAfter::Set(attr(13, 2))), 0);
        assert_eq!(
            at(&c, 3),
            two.as_ptr().wrapping_add(6),
            "a cut is a sub-view"
        );
        assert_eq!(read(&c, 0, 13).unwrap(), b"YYYYbbbbcXccd");
        c.check();
    }

    #[test]
    fn growth_zero_extends_the_old_tail_page() {
        let mut c = leased(LeaseKind::Write, 2, 8);
        fill(&mut c, (0, 2), b"ab");
        assert_eq!(buffer(&mut c, 9, b"Z").unwrap().size, 10);
        assert_eq!(c.plan(FH, 0, 10, false), Some((10, vec![(4, 4)])));
        fill(&mut c, (4, 4), b""); // the server has nothing there yet
        assert_eq!(read(&c, 0, 10).unwrap(), b"ab\0\0\0\0\0\0\0Z");
        c.check();
        // Only the pages the write touched are dirty.
        assert_eq!(dirty(&c), (vec![(8, 2, 0)], b"\0Z".to_vec(), 1));
    }

    #[test]
    fn dirty_runs_merge_adjacent_pages_and_end_at_the_short_tail() {
        let mut c = leased(LeaseKind::Write, 0, 8);
        buffer(&mut c, 0, b"aaaabbbb").unwrap();
        buffer(&mut c, 16, b"eeeeff").unwrap();
        fill(&mut c, (8, 8), b""); // clean zeros between the two runs
        let (segs, data, pages) = dirty(&c);
        assert_eq!(segs, [(0, 8, 0), (16, 6, 8)]);
        assert_eq!((data.as_slice(), pages), (&b"aaaabbbbeeeeff"[..], 4));
        assert!(c.orphans().is_empty(), "the write lease is held");
        // The flush lands: its span goes, clean pages between included,
        // and the size the lease vouches for stays.
        assert_eq!(c.wrote(FH, 0, 22, AttrAfter::Keep), 6);
        assert_eq!(c.held(FH), Some((LeaseKind::Write, Some(attr(22, 1)))));
        assert_eq!(dirty(&c), (vec![], vec![], 0));
        c.check();
    }

    #[test]
    fn eviction_takes_the_lowest_clean_key_and_never_a_dirty_page() {
        let mut c = leased(LeaseKind::Write, 16, 2);
        buffer(&mut c, 0, b"AAAA").unwrap();
        fill(&mut c, (4, 12), b"bbbbccccdddd");
        assert_eq!(c.evict(), 2);
        let left: Vec<u64> = c.pages.keys().map(|k| k.1).collect();
        assert_eq!(left, [0, 3], "pages 1 and 2 went, dirty page 0 did not");
        buffer(&mut c, 4, b"BBBBCCCC").unwrap();
        assert_eq!(c.evict(), 1, "the one clean page");
        assert_eq!(c.evict(), 0, "over capacity, but all dirty");
        assert_eq!(c.pages.len(), 3);
        c.check();
    }

    #[test]
    fn a_lost_session_keeps_exactly_the_dirty_pages() {
        let mut c = leased(LeaseKind::Write, 12, 8);
        fill(&mut c, (0, 12), b"aaaabbbbcccc");
        buffer(&mut c, 4, b"BBBB").unwrap();
        c.queue_recall(FH, 3);
        assert_eq!(c.session_lost(), 2);
        assert_eq!((c.held(FH), c.next_recall()), (None, None));
        assert_eq!(c.orphans(), [FH]);
        assert!(!c.is_idle(), "the orphan has to be flushed");
        assert_eq!(dirty(&c), (vec![(4, 4, 0)], b"BBBB".to_vec(), 1));
        c.check();
        // A fetch that was in flight lands against the dead lease's claim.
        fill(&mut c, (8, 4), b"cccc");
        c.check();
        // The flush through the new session lands; then the next grant
        // finds the file changed (by that flush) and drops the clean page.
        assert_eq!(c.wrote(FH, 4, 4, AttrAfter::Keep), 1);
        assert!(c.is_idle());
        assert_eq!(c.grant(FH, LeaseKind::Read, attr(12, 2)), 1);
        assert!(c.pages.is_empty());
        // Unchanged since the claim, the page would have stayed.
        c.session_lost();
        fill(&mut c, (8, 4), b"cccc");
        assert_eq!(c.grant(FH, LeaseKind::Read, attr(12, 2)), 0);
        assert_eq!(read(&c, 8, 12).unwrap(), b"cccc");
        c.check();
    }

    #[test]
    fn enrolment_holds_nothing_and_outlives_the_session() {
        let mut c = PageCache::new(4, 8);
        c.enrol(FH);
        assert!(c.caches(FH) && !c.caches(FH + 1));
        assert!(c.is_idle(), "nothing to service, nothing to hand back");
        c.grant(FH, LeaseKind::Read, attr(4, 1));
        c.session_lost();
        c.drop_file(FH);
        assert!(c.caches(FH), "the next session caches it again");
    }

    #[test]
    fn a_write_past_the_cache_drops_what_it_touched_and_moves_the_attr() {
        let mut c = leased(LeaseKind::Write, 12, 8);
        fill(&mut c, (0, 12), b"aaaabbbbcccc");
        assert_eq!(c.wrote(FH, 5, 2, AttrAfter::Forget), 1);
        assert_eq!(c.held(FH), Some((LeaseKind::Write, None)));
        assert_eq!(c.plan(FH, 0, 4, false), None, "no size: ask again");
        c.grant(FH, LeaseKind::Read, attr(12, 2));
        assert_eq!(
            c.held(FH).unwrap().0,
            LeaseKind::Write,
            "a refresh keeps the kind"
        );
        assert_eq!(c.plan(FH, 0, 12, false), Some((12, vec![(4, 4)])));
        // A resize drops everything; shrinking cuts what a grant left.
        assert_eq!(c.wrote(FH, 0, u64::MAX, AttrAfter::Set(attr(6, 3))), 2);
        fill(&mut c, (0, 6), b"aaaabb");
        assert_eq!(c.wrote(FH, 100, 1, AttrAfter::Set(attr(3, 4))), 1);
        assert_eq!(read(&c, 0, 3).unwrap(), b"aaa");
        c.check();
        assert_eq!(c.drop_file(FH), (true, 1));
        assert_eq!(c.drop_file(FH), (false, 0));
        assert!(c.is_idle());
    }
}
