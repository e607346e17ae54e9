//! How a DAFS transfer is cut into wire subs: one pure planner of a
//! [`Rule`] and a [`Warm`] oracle, which sends no message, reads no clock,
//! counts no metric and emits no trace line (the client does all that).
//!
//! Transfer strategy — one predicate, `Rule::direct`:
//! * an **inline** transfer rides in the message, the lowest latency into a
//!   buffer the NIC has never seen: a copy on the server, and on the client
//!   a copy into the request slot (a write) or out of the reply (a read) —
//!   except that an inline write from a warm buffer sends its bytes in
//!   place (`NIC.gathers`), one gather segment per range under the
//!   buffer's cached registration, and the client copies only the header;
//! * a **direct read** (READ_DIRECT) has the server RDMA-Write into the
//!   (cached-registered) user buffer; the client CPU does nothing per byte.
//!   A read goes direct when it is longer than `direct_threshold` — the
//!   length past which registering a *cold* buffer costs less than copying
//!   it — **or** when its buffer is warm (the registration cache's: a live
//!   registration covers it, or this is the second time the same range is
//!   offered) and it is past the floor below;
//! * a **write** is always inline, in chunks of at most `inline_max`: a
//!   direct write would have the server RDMA-Read the client's buffer, and
//!   the modelled NIC, like the paper's cLAN, has no RDMA Read.
//!
//! The floor: into a warm buffer a direct read costs no registration, only
//! one more message than an inline one — the server posts the RDMA Write
//! and then the reply (`post_send + per_segment`, one more completion
//! `poll`) and each NIC handles one more descriptor (`tx_nic_proc`,
//! `rx_nic_proc`); the data bytes cross the wire once either way. It wins
//! when the two copies it saves, `2 · HOST.copy(len)`, cost more than that
//! — 560 bytes with the default costs (`tests::the_floors_are_560_and_60_bytes`),
//! and computed from them.
//!
//! The gather floor: an inline write message's payload sent in place costs
//! one more data segment (`per_segment`) per range — one for a contiguous
//! chunk, one per segment of a `WriteList` message, at most
//! [`crate::proto::LIST_MAX_SEGMENTS`] — in place of the copy into the slot,
//! `HOST.copy(len)`: 60 bytes for one range with the default costs (the
//! same test), and computed from them. The wire bytes, messages and server
//! work are the same.

use simnet::cost::HOST;
use simnet::VirtAddr;
use via::NIC;

use crate::client::{BatchDir, IoReq, ListReq};
use crate::proto::{ListSeg, LIST_MAX_SEGMENTS};
use crate::recover::Kind;

/// What the cut reads of the session: the caps' `inline_max` and the
/// configured `direct_threshold`. The rest are constants: the wire's
/// segment cap ([`LIST_MAX_SEGMENTS`]) and the NIC's cost terms ([`NIC`]),
/// which the two floors weigh against the host's copy ([`HOST`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rule {
    pub inline_max: u64,
    pub direct_threshold: u64,
}

impl Rule {
    /// True if `len` bytes to (`Read`) or from (`Write`) the client
    /// `region` go direct rather than inline — the module header has it.
    fn direct(&self, dir: BatchDir, len: u64, region: (VirtAddr, u64), warm: Warm) -> bool {
        if dir == BatchDir::Write {
            return false;
        }
        if len > self.direct_threshold {
            return true;
        }
        let c = &NIC;
        let one_more_message = c.post_send + c.per_segment + c.poll + c.tx_nic_proc + c.rx_nic_proc;
        HOST.copy(len) * 2 > one_more_message && warm(region.0, region.1)
    }
}

/// Whether a client buffer is warm, as the registration cache says. It
/// remembers a first touch, so when it is asked is part of the contract,
/// which the exhaustive test pins: never for a read past
/// `direct_threshold`; for a read at or under it, only once past the floor;
/// once per inline write chunk past the gather floor; once per list group,
/// over the group's whole region, and only if one of its messages gathers.
pub(crate) type Warm<'a> = &'a mut dyn FnMut(VirtAddr, u64) -> bool;

/// One sub-operation of a batch: a whole direct transfer, one inline-sized
/// chunk of a larger request, or one segment-capped slice of a vectored
/// list request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Sub {
    pub owner: usize,
    pub off: u64,
    pub addr: VirtAddr,
    pub len: u64,
    pub direct: bool,
    /// An inline write sent in place: the registered region its bytes ride
    /// under — the chunk itself, or the whole buffer region of the list
    /// group it was cut from. Decided when the sub is cut, so a replay
    /// sends it as it was first sent and does not count as another touch
    /// of its buffer.
    pub pinned: Option<(VirtAddr, u64)>,
    /// List sub: segments with buffer offsets rebased onto `addr`. `off`
    /// is unused then; `len` is the segments' total byte count.
    pub segs: Option<Vec<ListSeg>>,
}

impl Sub {
    /// A contiguous sub of `len` bytes at file offset `off`, buffer `addr`.
    pub fn run(owner: usize, off: u64, addr: VirtAddr, len: u64) -> Sub {
        Sub {
            owner,
            off,
            addr,
            len,
            direct: false,
            pinned: None,
            segs: None,
        }
    }

    /// A list sub of `segs` of the buffer at `buf`, rebased onto its first
    /// segment, so its region spans exactly the bytes it touches.
    fn list(owner: usize, buf: VirtAddr, mut segs: Vec<ListSeg>) -> Sub {
        let base = segs[0].2;
        segs.iter_mut().for_each(|s| s.2 -= base);
        let len = segs.iter().map(|s| s.1).sum();
        Sub {
            segs: Some(segs),
            ..Sub::run(owner, 0, buf.offset(base), len)
        }
    }

    /// The client ranges the sub moves, `(address, length)` in wire order:
    /// where an inline write's payload is gathered from.
    pub fn runs(&self) -> impl Iterator<Item = (VirtAddr, u64)> + '_ {
        let one = self.segs.is_none().then_some((self.addr, self.len));
        let each = self.segs.iter().flatten();
        one.into_iter()
            .chain(each.map(|&(_, len, rel)| (self.addr.offset(rel), len)))
    }

    /// The client region the sub touches: a list sub's from its base to
    /// the end of its last segment.
    pub fn region(&self) -> (VirtAddr, u64) {
        match &self.segs {
            Some(segs) => (self.addr, segs.last().map_or(0, |s| s.2 + s.1)),
            None => (self.addr, self.len),
        }
    }

    /// What a recovery does with the sub if its session loses it.
    pub fn kind(&self) -> Kind {
        match self.direct {
            true => Kind::Redo,
            false => Kind::Repost,
        }
    }
}

/// Contiguous requests as subs, each remembering which request it belongs
/// to: a direct transfer goes whole, as does an empty write (one empty
/// message, whose reply carries the attributes), an inline one as its
/// inline chunks — none for an empty read.
pub(crate) fn contiguous(dir: BatchDir, reqs: &[IoReq], rule: &Rule, warm: Warm) -> Vec<Sub> {
    let units = reqs.iter().enumerate();
    let units = units.map(|(owner, r)| Sub::run(owner, r.off, r.addr, r.len));
    cut(dir, units, rule, warm)
}

/// List requests as segment-capped subs: each group of at most
/// [`LIST_MAX_SEGMENTS`] non-empty segments goes whole if direct (one RDMA
/// list op against one registration), else as inline list messages.
pub(crate) fn list(dir: BatchDir, reqs: &[ListReq], rule: &Rule, warm: Warm) -> Vec<Sub> {
    let units = reqs.iter().enumerate().flat_map(|(owner, r)| {
        let groups = chunk(&r.segs, LIST_MAX_SEGMENTS, u64::MAX);
        groups.into_iter().map(move |g| Sub::list(owner, r.buf, g))
    });
    cut(dir, units, rule, warm)
}

/// Each unit — a contiguous request or a list group — whole if the rule
/// sends it direct or it is an empty write, else as its inline chunks.
fn cut(dir: BatchDir, units: impl Iterator<Item = Sub>, rule: &Rule, warm: Warm) -> Vec<Sub> {
    let mut subs = Vec::new();
    for unit in units {
        let direct = rule.direct(dir, unit.len, unit.region(), warm);
        if direct || unit.len == 0 && dir == BatchDir::Write {
            subs.push(Sub { direct, ..unit });
        } else {
            subs.extend(inline(dir, &unit, rule, warm));
        }
    }
    subs
}

/// The one chunker: `sub` as inline messages of at most `inline_max`
/// bytes (and [`LIST_MAX_SEGMENTS`] segments), in order, none for an empty
/// range. A contiguous write chunk past the gather floor asks whether its
/// own range is warm. A list write asks once, over the sub's whole region,
/// if any message is past the floor; each such message from a warm region
/// goes in place under that region's registration — one registration for
/// the group, the one a direct transfer of the same region would hold.
fn inline(dir: BatchDir, sub: &Sub, rule: &Rule, warm: Warm) -> Vec<Sub> {
    let write = dir == BatchDir::Write;
    let ranges = |s: &Sub| s.segs.as_ref().map_or(1, Vec::len);
    let gathers = |s: &Sub| NIC.gathers(s.len, ranges(s));
    let Some(segs) = &sub.segs else {
        let chunks = chunk(&[(sub.off, sub.len, 0)], 1, rule.inline_max);
        let each = |c: Vec<ListSeg>| {
            let s = Sub::run(sub.owner, c[0].0, sub.addr.offset(c[0].2), c[0].1);
            let pinned = write && gathers(&s) && warm(s.addr, s.len);
            Sub {
                pinned: pinned.then_some(s.region()),
                ..s
            }
        };
        return chunks.into_iter().map(each).collect();
    };
    let groups = chunk(segs, LIST_MAX_SEGMENTS, rule.inline_max);
    let list = groups
        .into_iter()
        .map(|g| Sub::list(sub.owner, sub.addr, g));
    let mut subs: Vec<Sub> = list.collect();
    if write && subs.iter().any(gathers) && warm(sub.addr, sub.region().1) {
        for s in subs.iter_mut().filter(|s| gathers(s)) {
            s.pinned = Some(sub.region());
        }
    }
    subs
}

/// Split a segment list into groups of at most `seg_cap` segments and
/// `byte_cap` bytes, in order; a segment may split across groups, and
/// zero-length segments are dropped.
fn chunk(segs: &[ListSeg], seg_cap: usize, byte_cap: u64) -> Vec<Vec<ListSeg>> {
    let mut groups = Vec::new();
    let mut cur: Vec<ListSeg> = Vec::new();
    let mut cur_bytes = 0u64;
    for &(off, len, rel) in segs {
        let mut done = 0;
        while done < len {
            if cur.len() >= seg_cap || cur_bytes >= byte_cap {
                groups.push(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            let take = (len - done).min(byte_cap - cur_bytes);
            cur.push((off + done, take, rel + done));
            cur_bytes += take;
            done += take;
        }
    }
    if !cur.is_empty() {
        groups.push(cur);
    }
    groups
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::DafsClientConfig;
    use crate::proto::list_well_formed;
    use BatchDir::{Read, Write};

    const KIB: u64 = 1 << 10;
    /// Lengths at and around each threshold: the gather floor, the read
    /// floor, `direct_threshold`, `inline_max`, and past two messages.
    const LENS: [u64; 13] = [
        0,
        1,
        60,
        61,
        560,
        561,
        8 * KIB - 1,
        8 * KIB,
        8 * KIB + 1,
        32 * KIB - 1,
        32 * KIB,
        32 * KIB + 1,
        64 * KIB + 1,
    ];
    /// `warm` calls whose answers are enumerated; later calls answer as
    /// the last of them.
    const ANSWERED: usize = 3;

    /// The rule of a session with the default costs and configuration.
    pub(crate) fn rule() -> Rule {
        let c = DafsClientConfig::default();
        Rule {
            inline_max: c.inline_max,
            direct_threshold: c.direct_threshold,
        }
    }

    /// One `warm` call: the region asked about, and the answer.
    type Call = ((VirtAddr, u64), bool);

    /// Run `cut` against a `warm` that answers call `i` with bit `i` of
    /// `pattern`: the subs, and the calls.
    fn asked(pattern: u32, cut: impl FnOnce(Warm) -> Vec<Sub>) -> (Vec<Sub>, Vec<Call>) {
        let mut calls = Vec::new();
        let subs = cut(&mut |addr, len| {
            let answer = pattern >> calls.len().min(ANSWERED - 1) & 1 == 1;
            calls.push(((addr, len), answer));
            answer
        });
        (subs, calls)
    }

    /// The floors, spelled out from the cost terms.
    fn past_read_floor(len: u64) -> bool {
        let v = &NIC;
        HOST.copy(len) * 2 > v.post_send + v.per_segment + v.poll + v.tx_nic_proc + v.rx_nic_proc
    }
    fn past_gather_floor(s: &Sub) -> bool {
        let ranges = s.segs.as_ref().map_or(1, Vec::len) as u64;
        HOST.copy(s.len) > NIC.per_segment * ranges
    }

    /// The bytes `subs` move as `(file offset, len, address)` runs, merged
    /// where contiguous on both axes: equal for two cuts of the same bytes.
    fn runs(subs: &[Sub]) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        let pieces = subs.iter().flat_map(|s| match &s.segs {
            Some(segs) => segs.iter().map(|g| (g.0, g.1, s.addr.0 + g.2)).collect(),
            None => vec![(s.off, s.len, s.addr.0)],
        });
        for (off, len, addr) in pieces.filter(|p| p.1 > 0) {
            match out.last_mut() {
                Some(p) if p.0 + p.1 == off && p.2 + p.1 == addr => p.1 += len,
                _ => out.push((off, len, addr)),
            }
        }
        out
    }

    /// The contract, walked over the `warm` calls in order.
    struct Contract<'a> {
        dir: BatchDir,
        rule: &'a Rule,
        calls: std::slice::Iter<'a, Call>,
        what: String,
    }

    impl Contract<'_> {
        /// The next call must be about `region`: its answer.
        fn ask(&mut self, region: (VirtAddr, u64)) -> bool {
            let next = self.calls.next();
            let &(asked, answer) =
                next.unwrap_or_else(|| panic!("{}: {region:?} unasked", self.what));
            assert_eq!(asked, region, "{}: warm asked out of turn", self.what);
            answer
        }

        /// `subs` are the cut of `unit` — a contiguous request or a list
        /// group — asking the transfer rule first.
        fn unit(&mut self, unit: &Sub, subs: &[Sub]) {
            let (r, w) = (self.rule, self.what.clone());
            let direct = self.dir == Read
                && (unit.len > r.direct_threshold
                    || past_read_floor(unit.len) && self.ask(unit.region()));
            if direct || unit.len == 0 && self.dir == Write {
                assert_eq!(
                    subs,
                    [Sub {
                        direct,
                        ..unit.clone()
                    }],
                    "{w}: whole"
                );
                return;
            }
            assert_eq!(
                runs(subs),
                runs(std::slice::from_ref(unit)),
                "{w}: inline bytes"
            );
            for s in subs {
                assert!(
                    !s.direct && s.len > 0 && s.len <= r.inline_max,
                    "{w}: {s:?}"
                );
                assert_eq!(s.segs.is_some(), unit.segs.is_some(), "{w}: shape");
                assert!(s.segs.as_ref().is_none_or(|g| g.len() <= LIST_MAX_SEGMENTS));
            }
            let write = self.dir == Write;
            match unit.segs {
                None => {
                    for s in subs {
                        let asked = write && past_gather_floor(s) && self.ask(s.region());
                        assert_eq!(s.pinned, asked.then_some(s.region()), "{}", self.what);
                    }
                }
                Some(_) => {
                    let any = write && subs.iter().any(past_gather_floor);
                    let warm = any && self.ask(unit.region());
                    for s in subs {
                        let pinned = warm && past_gather_floor(s);
                        assert_eq!(s.pinned, pinned.then_some(unit.region()), "{}", self.what);
                    }
                }
            }
        }

        fn done(mut self) {
            assert!(
                self.calls.next().is_none(),
                "{}: warm asked past the contract",
                self.what
            );
        }
    }

    /// Check one cut of `units` (in request order, each request's bytes in
    /// `whole`) against the `warm` calls it made.
    fn check(
        dir: BatchDir,
        rule: &Rule,
        units: &[Sub],
        whole: &[Sub],
        cut: Vec<Sub>,
        calls: &[Call],
    ) {
        let what = format!("{dir:?} {whole:?}");
        for (i, w) in whole.iter().enumerate() {
            let mine: Vec<Sub> = cut.iter().filter(|s| s.owner == i).cloned().collect();
            assert_eq!(
                runs(&mine),
                runs(std::slice::from_ref(w)),
                "{what}: request {i}"
            );
        }
        for s in cut.iter().filter_map(|s| s.segs.as_ref()) {
            assert!(
                list_well_formed(s) && s.len() <= LIST_MAX_SEGMENTS,
                "{what}: {s:?}"
            );
        }
        let calls = calls.iter();
        let mut contract = Contract {
            dir,
            rule,
            calls,
            what,
        };
        let mut rest = &cut[..];
        for u in units {
            let range = u
                .segs
                .as_ref()
                .map(|g| g[0].0..g[g.len() - 1].0 + g[g.len() - 1].1);
            let first = |s: &Sub| s.segs.as_ref().map_or(s.off, |g| g[0].0);
            let n = rest
                .iter()
                .take_while(|s| {
                    s.owner == u.owner && range.as_ref().is_none_or(|r| r.contains(&first(s)))
                })
                .count();
            contract.unit(u, &rest[..n]);
            rest = &rest[n..];
        }
        assert!(rest.is_empty(), "{}: subs past the requests", contract.what);
        contract.done();
    }

    /// Both directions, every `warm` answer pattern over the first calls.
    fn each_rule(mut f: impl FnMut(BatchDir, &Rule, u32)) {
        for dir in [Read, Write] {
            for pattern in 0..1 << ANSWERED {
                f(dir, &rule(), pattern);
            }
        }
    }

    fn base(i: usize) -> VirtAddr {
        VirtAddr(0x100_0000 * (i as u64 + 1))
    }

    #[test]
    fn contiguous_cut_covers_each_request_once_and_asks_warm_by_the_contract() {
        let shapes = LENS.iter().map(|&a| vec![a]);
        let shapes: Vec<Vec<u64>> = shapes
            .chain(
                LENS.iter()
                    .flat_map(|&a| LENS.iter().map(move |&b| vec![a, b])),
            )
            .collect();
        each_rule(|dir, rule, pattern| {
            for lens in &shapes {
                let reqs: Vec<IoReq> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| IoReq {
                        off: 3 * i as u64 * KIB,
                        addr: base(i),
                        len,
                    })
                    .collect();
                let (cut, calls) = asked(pattern, |w| contiguous(dir, &reqs, rule, w));
                let units: Vec<Sub> = reqs
                    .iter()
                    .enumerate()
                    .map(|(owner, r)| Sub {
                        owner,
                        off: r.off,
                        addr: r.addr,
                        len: r.len,
                        direct: false,
                        pinned: None,
                        segs: None,
                    })
                    .collect();
                check(dir, rule, &units, &units, cut, &calls);
            }
        });
    }

    /// A list request of segments of `lens`, file and buffer gaps
    /// `gaps`, at buffer `buf`.
    fn list_req(lens: &[u64], (file_gap, buf_gap): (u64, u64), buf: VirtAddr) -> ListReq {
        let (mut off, mut rel) = (5, 0);
        let segs = lens
            .iter()
            .map(|&len| {
                let s = (off, len, rel);
                (off, rel) = (off + len + file_gap, rel + len + buf_gap);
                s
            })
            .collect();
        ListReq { segs, buf }
    }

    /// A list batch's units: each request's non-empty segments in groups
    /// of at most `LIST_MAX_SEGMENTS`; and each request whole.
    fn list_units(reqs: &[ListReq]) -> (Vec<Sub>, Vec<Sub>) {
        let mut units = Vec::new();
        for (owner, r) in reqs.iter().enumerate() {
            let dense: Vec<ListSeg> = r.segs.iter().copied().filter(|s| s.1 > 0).collect();
            for g in dense.chunks(LIST_MAX_SEGMENTS) {
                units.push(Sub::list(owner, r.buf, g.to_vec()));
            }
        }
        let whole = reqs.iter().enumerate().map(|(owner, r)| Sub {
            owner,
            off: 0,
            addr: r.buf,
            len: r.total(),
            direct: false,
            pinned: None,
            segs: Some(r.segs.clone()),
        });
        (units, whole.collect())
    }

    #[test]
    fn list_cut_covers_each_request_once_and_asks_warm_by_the_contract() {
        let mut shapes: Vec<Vec<Vec<u64>>> = Vec::new();
        for &a in &LENS {
            shapes.push(vec![vec![a]]);
            for &b in &LENS {
                shapes.push(vec![vec![a, b]]);
                shapes.push(vec![vec![a], vec![b]]);
                for c in [0, 61, 561, 8 * KIB + 1, 32 * KIB + 1] {
                    shapes.push(vec![vec![a, b, c]]);
                }
            }
        }
        for n in [
            LIST_MAX_SEGMENTS - 1,
            LIST_MAX_SEGMENTS,
            LIST_MAX_SEGMENTS + 1,
        ] {
            for len in [1, 61, 200] {
                shapes.push(vec![vec![len; n]]);
            }
        }
        each_rule(|dir, rule, pattern| {
            for lists in &shapes {
                for gaps in [(100, 0), (7, 13)] {
                    let reqs: Vec<ListReq> = lists
                        .iter()
                        .enumerate()
                        .map(|(i, lens)| list_req(lens, gaps, base(i)))
                        .collect();
                    let (cut, calls) = asked(pattern, |w| list(dir, &reqs, rule, w));
                    let (units, whole) = list_units(&reqs);
                    check(dir, rule, &units, &whole, cut, &calls);
                }
            }
        });
    }

    /// DESIGN §4.10's two floors with the default costs: a warm read goes
    /// direct from 561 bytes, a warm inline write goes in place from 61.
    #[test]
    fn the_floors_are_560_and_60_bytes() {
        let rule = rule();
        let one = |dir, len| {
            let req = [IoReq {
                off: 0,
                addr: base(0),
                len,
            }];
            let (cut, calls) = asked(1, |w| contiguous(dir, &req, &rule, w));
            (cut[0].direct, cut[0].pinned.is_some(), calls.len())
        };
        assert_eq!(one(Read, 560), (false, false, 0));
        assert_eq!(one(Read, 561), (true, false, 1));
        assert_eq!(one(Write, 60), (false, false, 0));
        assert_eq!(one(Write, 61), (false, true, 1));
    }
}
