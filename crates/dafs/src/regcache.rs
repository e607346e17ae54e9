//! The client-side memory-registration cache.
//!
//! Registering memory with the VIA NIC costs tens of microseconds (pin +
//! translation-table update), which would dominate direct I/O if paid per
//! request. The cache keeps buffers registered across requests and evicts
//! least-recently-used registrations when the pinned-byte budget is
//! exceeded — the standard technique in VIA/InfiniBand middleware, and one
//! of the knobs the evaluation ablates (R-T5).
//!
//! The cache also answers the question the client's transfer rule asks of a
//! *small* buffer ([`RegCache::warm`]): would a registration of this range
//! be free, or is it about to pay for itself? A live registration covering
//! the range is free. A range offered for the second time is a buffer the
//! caller reuses, so registering it now is paid once and amortised over
//! every later transfer; a range seen for the first time is only remembered.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;
use simnet::obs::{Labels, LazyCounter};
use simnet::{ActorCtx, VirtAddr};
use via::{MemAttributes, MemHandle, ProtectionTag, ViaNic};

struct Entry {
    base: VirtAddr,
    len: u64,
    handle: MemHandle,
    last_use: u64,
    /// Outstanding acquisitions (hits and fresh registrations both pin);
    /// [`RegCache::release`] unpins. Entries with `refs > 0` are never
    /// evicted — an in-flight RDMA op still holds the handle.
    refs: u64,
}

impl Entry {
    fn covers(&self, addr: VirtAddr, len: u64) -> bool {
        addr >= self.base && addr.as_u64() + len <= self.base.as_u64() + self.len
    }
}

/// Ranges [`RegCache::warm`] remembers having been offered once. A rank
/// reuses a handful of transfer buffers; a working set of small buffers
/// wider than this keeps going inline, which is what it does today.
const SEEN_RANGES: usize = 16;

struct CacheState {
    /// Keyed by base address; containment queries scan in base order (few
    /// live buffers in practice — MPI-IO reuses its transfer buffers), so a
    /// hit is the lowest-base covering entry and a flush deregisters in
    /// address order.
    entries: BTreeMap<u64, Entry>,
    /// Registrations displaced by a same-base re-registration while an op
    /// still held them: no longer served to new acquires, deregistered on
    /// final release. Their bytes stay in `pinned` until then.
    retired: Vec<Entry>,
    pinned: u64,
    tick: u64,
    /// `(base, len)` of ranges offered to [`RegCache::warm`] once and not
    /// registered, oldest first, at most [`SEEN_RANGES`].
    seen: VecDeque<(u64, u64)>,
}

/// An LRU cache of live NIC registrations.
///
/// A registration belongs to the NIC and a protection tag, not to a VI: a
/// session keeps one tag for its life, so its entries — and the ranges
/// [`RegCache::warm`] has seen — outlive every reconnect.
pub struct RegCache {
    nic: ViaNic,
    /// The session's protection tag.
    ptag: ProtectionTag,
    capacity: u64,
    enabled: bool,
    state: Mutex<CacheState>,
    /// Cache hits (no registration performed): `dafs.regcache.hits`.
    pub hits: LazyCounter,
    /// Cache misses (a registration was performed): `dafs.regcache.misses`.
    pub misses: LazyCounter,
    /// Evictions (a registration was torn down for capacity):
    /// `dafs.regcache.evictions`.
    pub evictions: LazyCounter,
}

impl RegCache {
    /// Create a cache over `nic` registering with `ptag`, counting into
    /// the `dafs.regcache.*` series `labels`. A buffer is registered as an
    /// RDMA Write target only: a server writes a direct read into it, and
    /// nothing reads it by RDMA.
    pub fn new(
        nic: ViaNic,
        ptag: ProtectionTag,
        capacity: u64,
        enabled: bool,
        labels: Labels,
    ) -> RegCache {
        RegCache {
            nic,
            ptag,
            capacity,
            enabled,
            state: Mutex::new(CacheState {
                entries: BTreeMap::new(),
                retired: Vec::new(),
                pinned: 0,
                tick: 0,
                seen: VecDeque::new(),
            }),
            hits: LazyCounter::at("dafs.regcache.hits", labels),
            misses: LazyCounter::at("dafs.regcache.misses", labels),
            evictions: LazyCounter::at("dafs.regcache.evictions", labels),
        }
    }

    /// Obtain a registration covering `[addr, addr+len)`. Returns the
    /// handle and, when the cache is disabled, a token marking it
    /// transient. Every acquisition — hit or fresh registration — pins the
    /// entry against eviction; the caller must [`release`](RegCache::release)
    /// the handle once the operation using it has completed.
    pub fn acquire(&self, ctx: &ActorCtx, addr: VirtAddr, len: u64) -> (MemHandle, bool) {
        let attrs = MemAttributes::rdma_write_target(self.ptag);
        if !self.enabled {
            self.misses.resolve(ctx.metrics()).inc();
            let h = self.nic.register_mem(ctx, addr, len, attrs);
            return (h, true);
        }
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        // Containment: any cached entry covering the range?
        for e in st.entries.values_mut() {
            if e.covers(addr, len) {
                e.last_use = tick;
                e.refs += 1;
                self.hits.resolve(ctx.metrics()).inc();
                return (e.handle, false);
            }
        }
        self.misses.resolve(ctx.metrics()).inc();
        // Same base, shorter registration: the insert below would orphan
        // the old entry's NIC registration and leak its bytes from the
        // accounting. Deregister it now (or park it on the retired list
        // until its in-flight ops release it) and register the longer one.
        if let Some(old) = st.entries.remove(&addr.as_u64()) {
            if old.refs > 0 {
                st.retired.push(old);
            } else {
                st.pinned -= old.len;
                self.nic
                    .deregister_mem(ctx, old.handle)
                    .expect("cache entry must be live");
            }
        }
        // Evict LRU entries until the new buffer fits. Entries with
        // outstanding acquisitions are skipped — deregistering under an
        // in-flight RDMA op would invalidate its handle. If only pinned
        // entries remain we register over budget rather than break a
        // live transfer.
        while st.pinned + len > self.capacity {
            let lru = st
                .entries
                .iter()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(lru) = lru else { break };
            let e = st.entries.remove(&lru).unwrap();
            st.pinned -= e.len;
            self.evictions.resolve(ctx.metrics()).inc();
            self.nic
                .deregister_mem(ctx, e.handle)
                .expect("cache entry must be live");
        }
        let handle = self.nic.register_mem(ctx, addr, len, attrs);
        st.pinned += len;
        st.entries.insert(
            addr.as_u64(),
            Entry {
                base: addr,
                len,
                handle,
                last_use: tick,
                refs: 1,
            },
        );
        (handle, false)
    }

    /// Whether `[addr, addr+len)` is a buffer worth transferring into
    /// directly whatever its size: a live registration covers it (an
    /// [`acquire`](RegCache::acquire) would be a hit), or exactly this range
    /// was offered here once before and not registered — the caller reuses
    /// it, so the registration the second touch pays for is the last one.
    /// A first touch is remembered and answered "no"; so is everything when
    /// the cache is disabled, where a registration never outlives its op.
    /// Costs no virtual time.
    pub fn warm(&self, addr: VirtAddr, len: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let mut st = self.state.lock();
        if st.entries.values().any(|e| e.covers(addr, len)) {
            return true;
        }
        let range = (addr.as_u64(), len);
        if let Some(i) = st.seen.iter().position(|r| *r == range) {
            st.seen.remove(i);
            return true;
        }
        if st.seen.len() == SEEN_RANGES {
            st.seen.pop_front();
        }
        st.seen.push_back(range);
        false
    }

    /// Release one acquisition of `handle`. Transient (cache-disabled)
    /// registrations are deregistered outright; cached ones are unpinned,
    /// making them evictable again once no acquisition holds them. A
    /// retired registration (displaced by a same-base re-registration) is
    /// deregistered on its final release. Releasing a handle the cache no
    /// longer knows (flushed under an in-flight op) is a no-op — the
    /// registration is already gone.
    pub fn release(&self, ctx: &ActorCtx, handle: MemHandle, transient: bool) {
        if transient {
            self.nic
                .deregister_mem(ctx, handle)
                .expect("transient handle must be live");
            return;
        }
        let mut st = self.state.lock();
        if let Some(e) = st.entries.values_mut().find(|e| e.handle == handle) {
            e.refs = e.refs.saturating_sub(1);
            return;
        }
        if let Some(i) = st.retired.iter().position(|e| e.handle == handle) {
            st.retired[i].refs = st.retired[i].refs.saturating_sub(1);
            if st.retired[i].refs == 0 {
                let e = st.retired.swap_remove(i);
                st.pinned -= e.len;
                let _ = self.nic.deregister_mem(ctx, e.handle);
            }
        }
    }

    /// Drop every cached registration (the session's goodbye, or on
    /// request). Pinned entries are dropped too: the session is going, and
    /// [`RegCache::release`] treats late releases of their handles as
    /// no-ops. The ranges [`RegCache::warm`] had only seen are forgotten
    /// with them. A reconnect does not flush: the tag, and with it every
    /// registration, survives the VI.
    pub fn flush(&self, ctx: &ActorCtx) {
        let mut st = self.state.lock();
        for e in std::mem::take(&mut st.entries).into_values() {
            let _ = self.nic.deregister_mem(ctx, e.handle);
        }
        for e in st.retired.drain(..) {
            let _ = self.nic.deregister_mem(ctx, e.handle);
        }
        st.pinned = 0;
        st.seen.clear();
    }

    /// Bytes currently pinned by the cache.
    pub fn pinned(&self) -> u64 {
        self.state.lock().pinned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, SimKernel};
    use std::collections::HashMap;
    use std::sync::Arc;
    use via::ViaCost;

    fn with_cache(
        capacity: u64,
        enabled: bool,
        f: impl Fn(&ActorCtx, &RegCache, &ViaNic) + Send + 'static,
    ) {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let host = cluster.add_host("h");
        let nic = ViaNic::open(host, ViaCost::default());
        kernel.spawn("t", move |ctx| {
            let ptag = nic.create_ptag();
            let cache = RegCache::new(nic.clone(), ptag, capacity, enabled, Labels::NONE);
            f(ctx, &cache, &nic);
        });
        kernel.run();
    }

    #[test]
    fn repeat_acquire_hits() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(64 << 10);
            let (h1, t1) = cache.acquire(ctx, buf, 64 << 10);
            assert!(!t1);
            let (h2, _) = cache.acquire(ctx, buf, 64 << 10);
            assert_eq!(h1, h2);
            assert_eq!((cache.hits.get(), cache.misses.get()), (1, 1));
            // Sub-range of a cached registration also hits.
            let (h3, _) = cache.acquire(ctx, buf.offset(4096), 4096);
            assert_eq!(h1, h3);
            assert_eq!(cache.hits.get(), 2);
        });
    }

    #[test]
    fn second_acquire_costs_no_cpu() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(256 << 10);
            cache.acquire(ctx, buf, 256 << 10);
            let busy = nic.host().cpu.busy();
            cache.acquire(ctx, buf, 256 << 10);
            assert_eq!(nic.host().cpu.busy(), busy, "hit must be free");
        });
    }

    /// Acquire and immediately release (the steady state between ops).
    fn touch(ctx: &ActorCtx, cache: &RegCache, addr: VirtAddr, len: u64) -> MemHandle {
        let (h, t) = cache.acquire(ctx, addr, len);
        cache.release(ctx, h, t);
        h
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        with_cache(128 << 10, true, |ctx, cache, nic| {
            let a = nic.host().mem.alloc(64 << 10);
            let b = nic.host().mem.alloc(64 << 10);
            let c = nic.host().mem.alloc(64 << 10);
            touch(ctx, cache, a, 64 << 10);
            touch(ctx, cache, b, 64 << 10);
            // Touch a so b is LRU.
            touch(ctx, cache, a, 64 << 10);
            touch(ctx, cache, c, 64 << 10); // evicts b
            assert_eq!(cache.evictions.get(), 1);
            assert_eq!(cache.pinned(), 128 << 10);
            // a still cached, b gone.
            touch(ctx, cache, a, 64 << 10);
            assert_eq!(cache.hits.get(), 2);
            touch(ctx, cache, b, 64 << 10); // miss again (re-registers, evicting LRU)
            assert_eq!(cache.misses.get(), 4);
        });
    }

    #[test]
    fn same_base_regrow_keeps_pinned_exact() {
        // Re-acquiring the same base with a larger len used to orphan the
        // old registration: never deregistered, its bytes never subtracted
        // from `pinned`.
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(8 << 10);
            touch(ctx, cache, buf, 4 << 10);
            assert_eq!(cache.pinned(), 4 << 10);
            touch(ctx, cache, buf, 8 << 10); // same base, longer: replaces
            assert_eq!(cache.pinned(), 8 << 10, "old len must leave pinned");
            assert_eq!(
                nic.table().live_regions(),
                1,
                "old registration must be torn down"
            );
            let rs = nic.registration_stats();
            assert_eq!((rs.registrations, rs.deregistrations), (2, 1));
            // The longer registration serves sub-range hits.
            touch(ctx, cache, buf, 4 << 10);
            assert_eq!(cache.hits.get(), 1);
        });
    }

    #[test]
    fn overwrite_under_hold_defers_deregistration() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(8 << 10);
            let (h1, _) = cache.acquire(ctx, buf, 4 << 10); // held across the regrow
            let (h2, t2) = cache.acquire(ctx, buf, 8 << 10);
            assert_ne!(h1, h2);
            // Both registrations are live and accounted while h1 is held.
            assert_eq!(cache.pinned(), 12 << 10);
            assert_eq!(nic.table().live_regions(), 2);
            // Final release of the displaced registration tears it down.
            cache.release(ctx, h1, false);
            assert_eq!(cache.pinned(), 8 << 10);
            assert_eq!(nic.table().live_regions(), 1);
            cache.release(ctx, h2, t2);
            assert_eq!(cache.pinned(), 8 << 10);
        });
    }

    #[test]
    fn eviction_never_invalidates_held_handle() {
        // Capacity pressure while handles are outstanding: the cache must
        // not deregister a handle an in-flight op still uses. It registers
        // over budget instead and catches up once the holds drop.
        with_cache(128 << 10, true, |ctx, cache, nic| {
            let a = nic.host().mem.alloc(64 << 10);
            let b = nic.host().mem.alloc(64 << 10);
            let c = nic.host().mem.alloc(64 << 10);
            let (ha, ta) = cache.acquire(ctx, a, 64 << 10);
            let (hb, tb) = cache.acquire(ctx, b, 64 << 10);
            // Over-capacity acquire with every entry held by an op.
            let (hc, tc) = cache.acquire(ctx, c, 64 << 10);
            assert_eq!(cache.evictions.get(), 0, "held handles must not be evicted");
            assert_eq!(
                nic.table().live_regions(),
                3,
                "a and b must stay registered"
            );
            assert_eq!(cache.pinned(), 192 << 10, "temporarily over budget");
            cache.release(ctx, ha, ta);
            cache.release(ctx, hb, tb);
            cache.release(ctx, hc, tc);
            // With the holds gone, the next miss evicts back under budget.
            let d = nic.host().mem.alloc(64 << 10);
            touch(ctx, cache, d, 64 << 10);
            assert_eq!(cache.evictions.get(), 2);
            assert_eq!(cache.pinned(), 128 << 10);
        });
    }

    #[test]
    fn disabled_cache_registers_every_time() {
        with_cache(1 << 20, false, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(32 << 10);
            let (h1, t1) = cache.acquire(ctx, buf, 32 << 10);
            assert!(t1);
            cache.release(ctx, h1, t1);
            let (h2, t2) = cache.acquire(ctx, buf, 32 << 10);
            cache.release(ctx, h2, t2);
            assert_ne!(h1, h2);
            let rs = nic.registration_stats();
            assert_eq!((rs.registrations, rs.deregistrations), (2, 2));
        });
    }

    #[test]
    fn second_touch_of_a_range_is_warm() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(16 << 10);
            assert!(!cache.warm(buf, 4096), "first touch");
            assert!(cache.warm(buf, 4096), "second touch");
            // The answer registered nothing; the caller does, and from then
            // on the live registration answers, for any range inside it.
            assert_eq!(nic.table().live_regions(), 0);
            touch(ctx, cache, buf, 4096);
            assert!(cache.warm(buf, 4096));
            assert!(cache.warm(buf.offset(1024), 1024), "covered range");
            assert_eq!((cache.hits.get(), cache.misses.get()), (0, 1));
            // A range that was only seen vouches for itself alone: a piece
            // of it, or a longer range at its base, is a first touch.
            let other = buf.offset(8 << 10);
            assert!(!cache.warm(other, 8 << 10));
            assert!(!cache.warm(other, 4096), "sub-range of a seen range");
            assert!(!cache.warm(other.offset(4096), 4096));
            assert!(cache.warm(other, 8 << 10));
            assert_eq!(cache.pinned(), 4096, "warm never registers");
        });
    }

    #[test]
    fn disabled_cache_is_never_warm() {
        with_cache(1 << 20, false, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(4096);
            for _ in 0..3 {
                assert!(!cache.warm(buf, 4096));
                let (h, t) = cache.acquire(ctx, buf, 4096);
                cache.release(ctx, h, t);
            }
        });
    }

    #[test]
    fn seen_ranges_are_bounded_and_forgotten_oldest_first() {
        with_cache(1 << 20, true, |_, cache, nic| {
            let buf = nic.host().mem.alloc((SEEN_RANGES + 1) * 4096);
            let at = |i: usize| buf.offset(i as u64 * 4096);
            for i in 0..=SEEN_RANGES {
                assert!(!cache.warm(at(i), 4096));
            }
            assert_eq!(cache.state.lock().seen.len(), SEEN_RANGES);
            // One more than fits: the oldest is a first touch again (which
            // pushes out the next oldest); the newest is still remembered.
            assert!(!cache.warm(at(0), 4096));
            assert!(cache.warm(at(SEEN_RANGES), 4096));
            assert!(cache.state.lock().seen.len() < SEEN_RANGES);
        });
    }

    #[test]
    fn flush_forgets_seen_ranges() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let buf = nic.host().mem.alloc(4096);
            assert!(!cache.warm(buf, 4096));
            cache.flush(ctx);
            assert!(!cache.warm(buf, 4096), "flush forgot the first touch");
            assert!(cache.warm(buf, 4096));
            // A registration dropped by flush no longer vouches either.
            touch(ctx, cache, buf, 4096);
            cache.flush(ctx);
            assert!(!cache.warm(buf, 4096));
        });
    }

    /// Nine registrations acquired out of address order — eight buffers
    /// and a region spanning two of them — flushed under a trace: the
    /// deregistrations come in base order, the same in every run.
    fn flush_trace() -> (Vec<u64>, Vec<u8>) {
        let (obs, buf) = simnet::obs::Obs::buffered();
        let kernel = SimKernel::with_obs(obs);
        let nic = ViaNic::open(Cluster::new().add_host("h"), ViaCost::default());
        let bases = Arc::new(parking_lot::Mutex::new(HashMap::new()));
        let seen = bases.clone();
        kernel.spawn("t", move |ctx| {
            let cache = RegCache::new(nic.clone(), nic.create_ptag(), 1 << 20, true, Labels::NONE);
            let block = nic.host().mem.alloc(32 << 10);
            let at = |i: u64| block.offset(i * 4096);
            let mut bases = seen.lock();
            for i in [5, 1, 7, 3, 0, 6, 2, 4] {
                bases.insert(touch(ctx, &cache, at(i), 2048).0, at(i).as_u64());
            }
            // Buffers 3 and 4 inside one region based below both.
            let below = VirtAddr(at(3).as_u64() - 1024);
            let region = touch(ctx, &cache, below, 1024 + 4096 + 2048);
            bases.insert(region.0, below.as_u64());
            // Buffer 4 is covered by its own entry and by the region: the
            // lower base serves it.
            assert_eq!(touch(ctx, &cache, at(4), 2048), region);
            cache.flush(ctx);
        });
        kernel.run();
        let trace = buf.contents();
        let bases = bases.lock();
        let text = String::from_utf8(trace.clone()).unwrap();
        let order = text
            .lines()
            .filter(|l| l.contains("\"event\":\"mem.deregister\""))
            .map(|l| {
                let h = &l[l.find("\"handle\":").unwrap() + 9..];
                let h: u64 = h[..h.find(|c: char| !c.is_ascii_digit()).unwrap()]
                    .parse()
                    .unwrap();
                bases[&h]
            })
            .collect();
        (order, trace)
    }

    #[test]
    fn flush_deregisters_in_base_order_every_run() {
        let (order, trace) = flush_trace();
        assert_eq!(order.len(), 9);
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "deregistered out of base order: {order:x?}"
        );
        assert_eq!(trace, flush_trace().1, "two flushes traced differently");
    }

    #[test]
    fn flush_deregisters_everything() {
        with_cache(1 << 20, true, |ctx, cache, nic| {
            let a = nic.host().mem.alloc(4096);
            let b = nic.host().mem.alloc(4096);
            cache.acquire(ctx, a, 4096);
            cache.acquire(ctx, b, 4096);
            assert_eq!(nic.table().live_regions(), 2);
            cache.flush(ctx);
            assert_eq!(nic.table().live_regions(), 0);
            assert_eq!(cache.pinned(), 0);
        });
    }
}
