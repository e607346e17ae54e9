//! The two halves of the lease protocol composed and exhausted at small
//! scope, with no kernel: two sessions' [`PageCache`]s (two-byte pages,
//! capacity two, so partial pages, EOF pages and eviction all occur; the
//! file enrolled in both, or — what an open with and one without the
//! `dafs_cache` hint make of two ranks — in the first only)
//! against a model server made of the real [`LeaseTable`], a byte image and
//! per-session queues of recall pushes not yet noticed — beside a flat
//! reference file updated whenever a write *completes* for its caller.
//!
//! Each session runs the client's own driver — the generic functions of
//! [`crate::cache`] that `DafsClient` runs, entered through the same
//! [`cache::read`] and [`cache::write`] whether or not the session caches
//! the file — over [`Sim`], which answers their I/O from the model. What
//! `DafsClient` does outside that driver is mirrored in two short
//! functions: [`World::request`] (the rule, the request, its completion:
//! `truncate`, `append`, a batch) and [`World::complete`] (what happens to
//! the cache when a reply comes back). A request the lease
//! gate parks blocks its session until a release serves it; it returns an
//! error to the driver, so what the call would have done after it is
//! dropped, as if the call had then failed.
//!
//! Checked in every reachable state: **S1** a completed read returned
//! exactly the reference bytes of its clipped range — no stale byte,
//! read-your-writes, holes are zeros; **S2** the page invariant
//! ([`PageCache::check`]: page lengths, nothing past EOF, dirty only under
//! a write lease or orphaned by session loss) and the two sides agreeing on
//! who holds what; **L1** letting every session enter a call leaves nothing
//! parked; **S3** once every session has then synced and released, the
//! server's image is the reference — every buffered write reached it.

use std::collections::{HashSet, VecDeque};
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use memfs::{FileAttr, FileType, NodeId};
use simnet::Bytes;
use via::ViId;

use crate::cache::{self, AttrAfter, CacheIo, CacheStat, PageCache, Run};
use crate::lease::{self, Gate, LeaseTable};
use crate::proto::{LeaseKind, ListSeg};

const FH: u64 = 7;
/// Longest the file gets: three pages.
const LIMIT: u64 = 6;
const DEPTH: usize = 5;

/// A request on the wire. Every one names `FH`; a lease grant or ack is not
/// gated and is a direct call.
#[derive(Clone, Debug)]
enum Req {
    /// A page fetch, a read past the cache, or (empty) a GETATTR.
    Read {
        off: u64,
        len: u64,
    },
    Write {
        off: u64,
        data: Vec<u8>,
    },
    /// The write-back flush: segments `(off, bytes)`.
    Flush(Vec<(u64, Vec<u8>)>),
    Truncate(u64),
}

/// What a request comes back with: the bytes read, the file's attributes.
type Reply = (Vec<u8>, FileAttr);

/// The lease gate parked the request; its session is blocked.
struct Parked;

#[derive(Clone)]
struct Session {
    cache: PageCache,
    write_back: bool,
    /// Recall pushes sent but not yet polled.
    pushes: VecDeque<u32>,
    /// The request the lease gate parked; the session is blocked on it.
    parked: Option<Req>,
}

#[derive(Clone)]
struct World {
    table: LeaseTable,
    image: Vec<u8>,
    version: u64,
    reference: Vec<u8>,
    sessions: [Session; 2],
    /// Next fresh byte value to write.
    stamp: u8,
    /// The next ack is lost with its session (set for one event).
    lose_ack: bool,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    Read(u64, u64),
    Write(u64, u64),
    /// A write that goes past the cache whoever sends it: an append, a batch.
    PlainWrite(u64, u64),
    Truncate(u64),
    Sync,
    Release,
    /// Enter a call on a cached file and leave it: service recalls, nothing
    /// else.
    Enter,
    /// The session dies and reconnects.
    Loss,
    /// Enter a call; the session dies before its acks reach the server.
    AckLost,
}

const EVENTS: [Event; 16] = [
    Event::Read(0, 6),  // everything, clipped at EOF
    Event::Read(1, 2),  // unaligned, across a page boundary
    Event::Read(3, 3),  // across EOF
    Event::Write(0, 1), // aligned start, ends inside the page
    Event::Write(1, 2), // unaligned head and tail
    Event::Write(3, 2), // inside the EOF page and past it
    Event::Write(5, 1), // past EOF, leaving a hole
    Event::PlainWrite(0, 1),
    Event::PlainWrite(2, 3),
    Event::Truncate(1),
    Event::Truncate(4),
    Event::Sync,
    Event::Release,
    Event::Enter,
    Event::Loss,
    Event::AckLost,
];

fn vi(i: usize) -> ViId {
    ViId(i as u64 + 1)
}

fn lay(file: &mut Vec<u8>, off: u64, data: &[u8]) {
    let end = off as usize + data.len();
    if file.len() < end {
        file.resize(end, 0);
    }
    file[off as usize..end].copy_from_slice(data);
}

impl World {
    /// Two sessions; session `i` buffers writes if `write_back[i]` and
    /// caches the file at all if `enrolled[i]`.
    fn new(write_back: [bool; 2], enrolled: [bool; 2]) -> World {
        let session = |i: usize| {
            let mut cache = PageCache::new(2, 2);
            if enrolled[i] {
                cache.enrol(FH);
            }
            Session {
                cache,
                write_back: write_back[i],
                pushes: VecDeque::new(),
                parked: None,
            }
        };
        World {
            table: LeaseTable::default(),
            image: vec![1, 2, 3],
            version: 1,
            reference: vec![1, 2, 3],
            sessions: [0, 1].map(session),
            stamp: 4,
            lose_ack: false,
        }
    }

    // ----- the model server ------------------------------------------------

    fn attr(&self) -> FileAttr {
        FileAttr {
            id: NodeId(FH),
            ftype: FileType::Regular,
            size: self.image.len() as u64,
            version: self.version,
            nlink: 1,
        }
    }

    /// Session `i` sends `req`: gate it, then execute it — or park it, and
    /// with it the session.
    fn send(&mut self, i: usize, req: Req) -> Result<Reply, Parked> {
        let mutating = !matches!(req, Req::Read { .. });
        let frame = Bytes::from_vec(vec![i as u8]);
        match self.table.gate(FH, vi(i), mutating, &frame) {
            Gate::Pass => return Ok(self.execute(i, &req)),
            Gate::Queued => {}
            Gate::Recall { id, holders } => {
                for h in &holders {
                    self.sessions[h.0 as usize - 1].pushes.push_back(id);
                }
                assert!(self.table.settle(FH, &[]), "every holder was reached");
            }
        }
        self.sessions[i].parked = Some(req);
        Err(Parked)
    }

    /// Execute session `i`'s `req` on the image. A write completes for its
    /// caller here, so the reference follows — except the flush under a
    /// write lease, whose bytes were the file's already.
    fn execute(&mut self, i: usize, req: &Req) -> Reply {
        let mut data = Vec::new();
        match req {
            Req::Read { off, len } => {
                let n = self.image.len() as u64;
                data = self.image[(*off).min(n) as usize..(off + len).min(n) as usize].to_vec();
            }
            Req::Write { off, data } => {
                lay(&mut self.image, *off, data);
                lay(&mut self.reference, *off, data);
            }
            Req::Flush(segs) => {
                // Orphaned by a lost session the pages are ordinary writes,
                // whole pages of them, and complete only now.
                let held = self.sessions[i].cache.held(FH);
                let orphaned = !matches!(held, Some((LeaseKind::Write, _)));
                for (off, data) in segs {
                    lay(&mut self.image, *off, data);
                    if orphaned {
                        lay(&mut self.reference, *off, data);
                    }
                }
            }
            Req::Truncate(size) => {
                self.image.resize(*size as usize, 0);
                self.reference.resize(*size as usize, 0);
            }
        }
        self.version += !matches!(req, Req::Read { .. }) as u64;
        (data, self.attr())
    }

    /// What the client does when `req` comes back: the tail of
    /// `DafsClient::{read, write, truncate}` and of the driver's flush, for
    /// the explorer's own requests and for parked ones served later.
    fn complete(&mut self, i: usize, req: &Req, (data, attr): &Reply) {
        let cache = &mut self.sessions[i].cache;
        match req {
            Req::Read { off, len } => check_read(&self.reference, *off, *len, data),
            Req::Write { off, data } => {
                cache.wrote(FH, *off, data.len() as u64, AttrAfter::Set(*attr));
            }
            Req::Flush(segs) => {
                let first = segs[0].0;
                let end = segs.last().map(|(off, d)| off + d.len() as u64).unwrap();
                cache.wrote(FH, first, end - first, AttrAfter::Keep);
            }
            Req::Truncate(_) => {
                cache.wrote(FH, 0, u64::MAX, AttrAfter::Set(*attr));
            }
        }
    }

    /// Serve, from the top, the frames a completed recall released.
    fn serve_released(&mut self, released: Vec<lease::Parked>) {
        for (_, frame) in released {
            let j = frame.as_slice()[0] as usize;
            let req = self.sessions[j]
                .parked
                .take()
                .expect("a parked frame's request");
            if let Ok(reply) = self.send(j, req.clone()) {
                self.complete(j, &req, &reply);
            }
        }
    }

    /// Session `i` dies and reconnects: the server drops what it held and
    /// had parked, the client keeps its dirty pages, and the request it was
    /// blocked in is replayed through the new session. Writes it had only
    /// buffered are no longer the file's — the lease that made them so is
    /// gone — until the next session flushes them; its lease was exclusive,
    /// so the image is the file without them.
    fn loss(&mut self, i: usize) {
        if matches!(self.sessions[i].cache.held(FH), Some((LeaseKind::Write, _))) {
            self.reference = self.image.clone();
        }
        let (_, mut released) = self.table.drop_session(vi(i));
        self.sessions[i].cache.session_lost();
        self.sessions[i].pushes.clear();
        if self.sessions[i].parked.is_some() {
            released.push((vi(i), Bytes::from_vec(vec![i as u8])));
        }
        self.serve_released(released);
    }

    // ----- what `DafsClient` does around the driver --------------------------

    /// A request on the wire and its completion, now or when released:
    /// `DafsClient::transfer_wire` (a write's request, then `note_wrote`),
    /// and `truncate` past its rule.
    fn wire(&mut self, i: usize, req: Req) -> Result<Reply, Parked> {
        let reply = self.send(i, req.clone())?;
        self.complete(i, &req, &reply);
        Ok(reply)
    }

    /// A request past the cache — what `DafsClient::{truncate, append}` and
    /// a batch are around theirs: the rule, the request, its completion.
    fn request(&mut self, i: usize, req: Req) -> Result<Reply, Parked> {
        cache::past_cache(&mut Sim(self, i), FH, true)?;
        self.wire(i, req)
    }

    /// `DafsClient::read`.
    fn read(&mut self, i: usize, off: u64, len: u64) {
        let mut got = vec![0xEE; len as usize];
        let sink = |rel: u64, bytes: &[u8]| {
            got[rel as usize..rel as usize + bytes.len()].copy_from_slice(bytes)
        };
        // On the wire it is checked as it completes.
        let mut past = false;
        let wire = |s: &mut Sim| {
            past = true;
            Ok(s.0.wire(s.1, Req::Read { off, len })?.0.len() as u64)
        };
        let n = cache::read(&mut Sim(self, i), FH, (off, len), sink, wire);
        if let (Ok(n), false) = (n, past) {
            check_read(&self.reference, off, len, &got[..n as usize]);
        }
    }

    /// `DafsClient::write`.
    fn write(&mut self, i: usize, off: u64, data: Vec<u8>) {
        let range = (off, data.len() as u64);
        let mut past = false;
        let wire = |s: &mut Sim| {
            past = true;
            let data = data.clone();
            Ok(s.0.wire(s.1, Req::Write { off, data })?.1)
        };
        let done = cache::write(&mut Sim(self, i), FH, range, |_| data.clone(), wire);
        if done.is_ok() && !past {
            lay(&mut self.reference, off, &data); // buffered: complete for its caller
        }
    }

    // ----- exploration -----------------------------------------------------

    fn fresh(&mut self, len: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                self.stamp += 1;
                self.stamp - 1
            })
            .collect()
    }

    /// Apply `ev` to session `i`; false when it does not apply.
    fn apply(&mut self, i: usize, ev: Event) -> bool {
        if self.sessions[i].parked.is_some() {
            return false; // blocked in a call
        }
        // A parked request is an `Err`: the session's state says so.
        match ev {
            Event::Read(off, len) => self.read(i, off, len),
            Event::Write(off, len) => {
                let data = self.fresh(len);
                self.write(i, off, data);
            }
            Event::PlainWrite(off, len) => {
                let data = self.fresh(len);
                self.request(i, Req::Write { off, data }).ok();
            }
            Event::Truncate(size) => {
                self.request(i, Req::Truncate(size)).ok();
            }
            Event::Sync => {
                cache::cache_sync(&mut Sim(self, i)).ok();
            }
            Event::Release => {
                cache::hand_back(&mut Sim(self, i), FH, 0).ok();
            }
            Event::Enter => {
                cache::service(&mut Sim(self, i)).ok();
            }
            Event::Loss => self.loss(i),
            Event::AckLost => {
                if self.sessions[i].pushes.is_empty() {
                    return false; // no ack to lose
                }
                self.lose_ack = true;
                cache::service(&mut Sim(self, i)).ok();
                self.lose_ack = false;
                self.loss(i);
            }
        }
        true
    }

    /// S2, then L1 and S3 on a copy driven to rest.
    fn check(&self) {
        assert!(self.image.len() as u64 <= LIMIT && self.reference.len() as u64 <= LIMIT);
        let holders = lease::tests::canonical(&self.table);
        let holders = holders.first().map_or(&[][..], |(_, h, _)| h);
        for (i, s) in self.sessions.iter().enumerate() {
            s.cache.check();
            let server = holders.iter().find(|(h, _)| *h == vi(i)).map(|(_, k)| *k);
            assert_eq!(s.cache.held(FH).map(|h| h.0), server, "session {i}'s lease");
        }
        let mut rest = self.clone();
        for round in 0.. {
            for i in 0..2 {
                if rest.sessions[i].parked.is_none() {
                    cache::service(&mut Sim(&mut rest, i)).ok();
                }
            }
            if rest.sessions.iter().all(|s| s.parked.is_none()) {
                break;
            }
            assert!(
                round < 4,
                "L1: still parked after every session entered a call"
            );
        }
        for i in 0..2 {
            let synced = cache::cache_sync(&mut Sim(&mut rest, i));
            let released = cache::hand_back(&mut Sim(&mut rest, i), FH, 0);
            assert!(synced.and(released).is_ok(), "L1: parked at rest");
        }
        assert!(
            rest.sessions.iter().all(|s| s.cache.is_idle()),
            "not at rest"
        );
        assert_eq!(rest.image, rest.reference, "S3: the image at rest");
    }

    /// The state with what cannot matter taken out: byte stamps and file
    /// versions are renamed in order of first occurrence, recall ids and
    /// the stamp counter dropped.
    fn canonical(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let (mut stamps, mut versions) = (Vec::new(), Vec::new());
        fn rename(seen: &mut Vec<u64>, v: u64) -> u64 {
            match seen.iter().position(|s| *s == v) {
                Some(at) => at as u64,
                None => {
                    seen.push(v);
                    seen.len() as u64 - 1
                }
            }
        }
        let mut bytes = |out: &mut Vec<u64>, data: &[u8]| {
            out.push(data.len() as u64);
            // Zero is a hole's byte, not a stamp.
            out.extend(data.iter().map(|&b| match b {
                0 => 0,
                b => 1 + rename(&mut stamps, b as u64),
            }));
        };
        let mut attr = |out: &mut Vec<u64>, a: Option<FileAttr>| match a {
            Some(a) => out.extend([1, a.size, rename(&mut versions, a.version)]),
            None => out.push(0),
        };
        bytes(&mut out, &self.image);
        bytes(&mut out, &self.reference);
        attr(&mut out, Some(self.attr()));
        for (_, holders, recall) in lease::tests::canonical(&self.table) {
            out.push(holders.len() as u64);
            out.extend(holders.iter().flat_map(|(h, k)| [h.0, *k as u64]));
            let (pending, blocked) = recall.unwrap_or_default();
            out.push(pending.len() as u64);
            out.extend(pending.iter().map(|h| h.0));
            out.push(blocked.len() as u64);
            out.extend(blocked.iter().map(|h| h.0));
        }
        for s in &self.sessions {
            let (enrolled, leases, claims, pages, recalls) = s.cache.key();
            out.push(enrolled.len() as u64);
            out.push(leases.len() as u64);
            for (_, kind, a) in leases {
                out.push(kind as u64);
                attr(&mut out, a);
            }
            out.push(claims.len() as u64);
            for (_, a) in claims {
                attr(&mut out, Some(a));
            }
            out.push(pages.len() as u64);
            for (_, p, data, dirty) in pages {
                out.extend([p, dirty as u64]);
                bytes(&mut out, &data);
            }
            out.extend([recalls as u64, s.pushes.len() as u64]);
            match &s.parked {
                None => out.push(0),
                Some(Req::Read { off, len }) => out.extend([1, *off, *len]),
                Some(Req::Write { off, data }) => {
                    out.extend([2, *off]);
                    bytes(&mut out, data);
                }
                Some(Req::Flush(segs)) => {
                    out.extend([3, segs.len() as u64]);
                    for (off, data) in segs {
                        out.push(*off);
                        bytes(&mut out, data);
                    }
                }
                Some(Req::Truncate(size)) => out.extend([4, *size]),
            }
        }
        out
    }
}

/// Session `.1` of the world: the model's answers to the driver's I/O.
struct Sim<'a>(&'a mut World, usize);

impl CacheIo for Sim<'_> {
    type Error = Parked;

    fn cache(&mut self) -> impl DerefMut<Target = PageCache> + '_ {
        &mut self.0.sessions[self.1].cache
    }

    fn write_back(&self) -> bool {
        self.0.sessions[self.1].write_back
    }

    fn count(&mut self, _: CacheStat, _: u64) {}

    fn charge_copy(&mut self, _: u64) {}

    fn note_recall(&mut self, _: u64, _: u32) {}

    fn poll(&mut self) {
        let s = &mut self.0.sessions[self.1];
        while let Some(id) = s.pushes.pop_front() {
            s.cache.queue_recall(FH, id);
        }
    }

    fn lease_grant(&mut self, fh: u64, kind: LeaseKind) -> Result<Option<FileAttr>, Parked> {
        let granted = self.0.table.grant(fh, vi(self.1), kind);
        Ok(granted.then(|| self.0.attr()))
    }

    fn lease_ack(&mut self, fh: u64, _: u32) -> Result<(), Parked> {
        if !self.0.lose_ack {
            let released = self.0.table.drop_holder(fh, vi(self.1));
            self.0.serve_released(released);
        }
        Ok(())
    }

    fn fetch(&mut self, _: u64, (off, len): Run) -> Result<Vec<u8>, Parked> {
        let fetched = self.0.send(self.1, Req::Read { off, len });
        Ok(fetched.ok().expect("a holder's fetch parked").0)
    }

    fn flush(&mut self, _: u64, segs: Vec<ListSeg>, data: Vec<u8>) -> (u64, Result<(), Parked>) {
        let bytes =
            |&(off, len, rel): &ListSeg| (off, data[rel as usize..(rel + len) as usize].to_vec());
        let req = Req::Flush(segs.iter().map(bytes).collect());
        (1, self.0.send(self.1, req).map(|_| ()))
    }

    fn getattr(&mut self, _: u64) -> Result<FileAttr, Parked> {
        Ok(self.0.send(self.1, Req::Read { off: 0, len: 0 })?.1)
    }
}

/// S1: a read of `len` at `off` returned `got`.
fn check_read(reference: &[u8], off: u64, len: u64, got: &[u8]) {
    let n = reference.len() as u64;
    let want = &reference[off.min(n) as usize..(off + len).min(n) as usize];
    assert_eq!(got, want, "S1: read of {len} at {off}");
}

/// Breadth-first over every interleaving of [`EVENTS`] on two sessions to
/// [`DEPTH`]; returns `(states, transitions)`. A failed check prints the
/// event path that led to it.
fn explore(write_back: [bool; 2], enrolled: [bool; 2]) -> (usize, usize) {
    let start = World::new(write_back, enrolled);
    let mut seen: HashSet<Vec<u64>> = HashSet::from([start.canonical()]);
    let mut queue: VecDeque<(World, Vec<(usize, Event)>)> = VecDeque::from([(start, Vec::new())]);
    let mut transitions = 0;
    while let Some((world, path)) = queue.pop_front() {
        for (i, ev) in (0..2).flat_map(|i| EVENTS.map(|ev| (i, ev))) {
            let mut path = path.clone();
            path.push((i, ev));
            // S1 is checked as reads complete; the rest are properties of
            // the state, checked the first time it is seen.
            let step = catch_unwind(AssertUnwindSafe(|| {
                let mut w = world.clone();
                if !w.apply(i, ev) {
                    return None;
                }
                let fresh = seen.insert(w.canonical());
                if fresh {
                    w.check();
                }
                Some((w, fresh))
            }));
            let next = step.unwrap_or_else(|panic| {
                println!("explorer: failed after {} events: {path:?}", path.len());
                resume_unwind(panic)
            });
            let Some((next, fresh)) = next else { continue };
            transitions += 1;
            if fresh && path.len() < DEPTH {
                queue.push_back((next, path));
            }
        }
    }
    (seen.len(), transitions)
}

#[test]
fn every_reachable_state_of_two_sessions_and_the_server_is_coherent() {
    // Both cache the file: session 0 buffers write-back; session 1 writes
    // through, then buffers. Then session 1 does not cache it, beside a
    // session 0 that buffers and one that writes through.
    const BOTH: [bool; 2] = [true, true];
    const FIRST: [bool; 2] = [true, false];
    for (write_back, enrolled) in [
        (FIRST, BOTH),
        (BOTH, BOTH),
        (FIRST, FIRST),
        ([false; 2], FIRST),
    ] {
        let (states, transitions) = explore(write_back, enrolled);
        println!(
            "cache explorer, write-back {write_back:?}, enrolled {enrolled:?}: {states} states, \
             {transitions} transitions, depth {DEPTH}"
        );
        assert!(states > 500, "explorer visited only {states} states");
    }
}
