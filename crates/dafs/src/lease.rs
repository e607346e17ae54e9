//! The server's lease table: which sessions may cache which file, and which
//! request frames wait for a recall to finish.
//!
//! Pure state: nothing here sends a message, reads a clock, counts a metric
//! or emits a trace line. `crate::server` does that around these calls, and
//! the explorer in this module's tests drives the same type with no kernel.
//! Per file handle the table keeps the holders in grant order — any number
//! of read holders or exactly one write-back holder, never a mix — and at
//! most one recall in flight. A request that conflicts is parked as the raw
//! frame it arrived in and comes back when the last pending holder has
//! acked or died, to be served again from the top: in arrival order, each
//! frame exactly once, discarded only by the death of its own session.
//!
//! **What the holder pass relies on.** [`LeaseTable::gate`] lets any request
//! from a holder through: a recalled write-back holder must still be able
//! to flush. That is coherent for the one write-lease holder (nobody else
//! caches) but not for a *read* holder that mutates — the other readers
//! would never be recalled. The table cannot recall them itself without
//! wedging two readers that write at once (each would park behind a recall
//! the other answers only on entry to its next call), so the rule is the
//! client's: a session that holds only a read lease hands it back before it
//! sends a mutation (`crate::cache::past_cache`). `crate::explore` composes
//! this table with the client's cache and checks that nothing stale is
//! read under that rule; enforcing it against a client that does not follow
//! it needs holders that service recalls while blocked (ROADMAP, "Leases that are live").

use std::collections::BTreeMap;

use simnet::Bytes;
use via::ViId;

use crate::proto::LeaseKind;

/// A parked request: its session and its frame (a view, not a copy).
pub(crate) type Parked = (ViId, Bytes);

/// What [`LeaseTable::gate`] decided about one request.
pub(crate) enum Gate {
    /// No conflicting lease: serve it.
    Pass,
    /// Parked behind the recall already in flight on its file.
    Queued,
    /// Parked behind a recall this request starts. The caller pushes recall
    /// `id` to `holders` (all of them, in grant order) and reports the ones
    /// the push could not reach to [`LeaseTable::settle`].
    Recall { id: u32, holders: Vec<ViId> },
}

/// Leases on one file handle.
#[derive(Clone, Default)]
struct FileLeases {
    /// Holder sessions in grant order (recall fan-out is deterministic).
    holders: Vec<(ViId, LeaseKind)>,
    /// In-flight recall, if a conflicting request is waiting.
    recall: Option<Recall>,
}

/// A recall in progress. The wire recall id is not kept: dropping a holder
/// is idempotent, so an ack from any round retires that holder's entry.
#[derive(Clone)]
struct Recall {
    /// Holders whose flush-and-ack is still outstanding. Never empty, and
    /// always a subset of the file's holders.
    pending: Vec<ViId>,
    /// Frames deferred until the recall completes, in arrival order.
    blocked: Vec<Parked>,
}

/// The lease table. Ordered, so a session's teardown sweeps the files in
/// handle order and releases parked frames deterministically.
#[derive(Clone, Default)]
pub(crate) struct LeaseTable {
    files: BTreeMap<u64, FileLeases>,
    last_recall_id: u32,
}

impl LeaseTable {
    /// True when no file has a holder; the server then skips the gate.
    pub(crate) fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Ask for a `kind` lease on `fh` for session `vi`; true when granted.
    /// Denied while a recall is in flight, for a read lease beside another
    /// session's write lease, and for a write lease beside any other
    /// holder. A holder asking again is refreshed, or upgraded, in place.
    pub(crate) fn grant(&mut self, fh: u64, vi: ViId, kind: LeaseKind) -> bool {
        let st = self.files.entry(fh).or_default();
        let mut others = st.holders.iter().filter(|(h, _)| *h != vi);
        let conflict = match kind {
            LeaseKind::Read => others.any(|(_, k)| *k == LeaseKind::Write),
            LeaseKind::Write => others.next().is_some(),
        };
        if st.recall.is_some() || conflict {
            return false; // the entry predates this call: none is left empty
        }
        match st.holders.iter_mut().find(|(h, _)| *h == vi) {
            Some(slot) => slot.1 = slot.1.max(kind),
            None => st.holders.push((vi, kind)),
        }
        true
    }

    /// Gate one request from `vi` that reads (`mutating` false) or changes
    /// `fh`. Anything but [`Gate::Pass`] has parked `frame`.
    ///
    /// Holders pass: a recalled holder must still be able to flush its
    /// dirty pages, and a holder's own ops are coherent by construction.
    /// A mutation conflicts with any other holder, a read only with a
    /// write-back holder's dirty cache.
    pub(crate) fn gate(&mut self, fh: u64, vi: ViId, mutating: bool, frame: &Bytes) -> Gate {
        let Some(st) = self.files.get_mut(&fh) else {
            return Gate::Pass;
        };
        if st.holders.iter().any(|(h, _)| *h == vi) {
            return Gate::Pass;
        }
        let conflict = if mutating {
            !st.holders.is_empty()
        } else {
            st.holders.iter().any(|(_, k)| *k == LeaseKind::Write)
        };
        if !conflict {
            return Gate::Pass;
        }
        if let Some(rc) = st.recall.as_mut() {
            rc.blocked.push((vi, frame.clone()));
            return Gate::Queued;
        }
        self.last_recall_id += 1;
        let holders: Vec<ViId> = st.holders.iter().map(|(h, _)| *h).collect();
        st.recall = Some(Recall {
            pending: holders.clone(),
            blocked: vec![(vi, frame.clone())],
        });
        Gate::Recall {
            id: self.last_recall_id,
            holders,
        }
    }

    /// Second step of a recall that [`LeaseTable::gate`] just started on
    /// `fh`: `dead` names the holders the push could not reach — they can
    /// never ack, so their leases are reclaimed on the spot. True when a
    /// holder is left to wait for. False when none is: recall and entry are
    /// gone, and the request (the caller still has the frame) passes.
    pub(crate) fn settle(&mut self, fh: u64, dead: &[ViId]) -> bool {
        let st = self.files.get_mut(&fh).expect("settle follows gate");
        st.holders.retain(|(h, _)| !dead.contains(h));
        let rc = st.recall.as_mut().expect("settle follows gate");
        rc.pending.retain(|h| !dead.contains(h));
        if rc.pending.is_empty() {
            self.files.remove(&fh);
            return false;
        }
        true
    }

    /// Drop `vi`'s lease on `fh` (recall ack, voluntary release, teardown);
    /// a no-op if it holds none. Returns the frames that releases: all of a
    /// recall's, once its last pending holder is gone.
    pub(crate) fn drop_holder(&mut self, fh: u64, vi: ViId) -> Vec<Parked> {
        let Some(st) = self.files.get_mut(&fh) else {
            return Vec::new();
        };
        st.holders.retain(|(h, _)| *h != vi);
        let mut released = Vec::new();
        if let Some(rc) = st.recall.as_mut() {
            rc.pending.retain(|p| *p != vi);
            if rc.pending.is_empty() {
                released = st.recall.take().expect("recall present").blocked;
            }
        }
        if st.holders.is_empty() && st.recall.is_none() {
            self.files.remove(&fh);
        }
        released
    }

    /// Session `vi` is gone: discard the frames it had parked, drop every
    /// lease it held and complete any recall that waited only on it — a
    /// crashed holder must never wedge the requests queued behind a recall.
    /// Returns the handles it held a lease on, in handle order, and the
    /// frames released.
    pub(crate) fn drop_session(&mut self, vi: ViId) -> (Vec<u64>, Vec<Parked>) {
        let mut held = Vec::new();
        let mut released = Vec::new();
        let fhs: Vec<u64> = self.files.keys().copied().collect();
        for fh in fhs {
            let st = self.files.get_mut(&fh).expect("swept key");
            if let Some(rc) = st.recall.as_mut() {
                rc.blocked.retain(|(b, _)| *b != vi);
            }
            if st.holders.iter().any(|(h, _)| *h == vi) {
                held.push(fh);
            }
            released.extend(self.drop_holder(fh, vi));
        }
        (held, released)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet, VecDeque};

    const FH: u64 = 7;
    const SESSIONS: [ViId; 3] = [ViId(1), ViId(2), ViId(3)];
    const DEPTH: usize = 9;

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Grant(ViId, LeaseKind),
        /// Gate a request; if that starts a recall, settle it with the
        /// first holder found dead (`true`) or with every holder reached.
        Gate {
            vi: ViId,
            mutating: bool,
            first_holder_dead: bool,
        },
        Ack(ViId),
        Death(ViId),
    }

    fn events() -> Vec<Event> {
        let mut all = Vec::new();
        for vi in SESSIONS {
            all.push(Event::Grant(vi, LeaseKind::Read));
            all.push(Event::Grant(vi, LeaseKind::Write));
            for mutating in [false, true] {
                for first_holder_dead in [false, true] {
                    all.push(Event::Gate {
                        vi,
                        mutating,
                        first_holder_dead,
                    });
                }
            }
            all.push(Event::Ack(vi));
            all.push(Event::Death(vi));
        }
        all
    }

    fn frame(token: u32) -> Bytes {
        Bytes::from_vec(token.to_le_bytes().to_vec())
    }

    fn token(frame: &Bytes) -> u32 {
        u32::from_le_bytes(frame.as_slice().try_into().unwrap())
    }

    /// Every parked frame, oldest first (one file, so one list).
    fn parked(t: &LeaseTable) -> Vec<(ViId, u32)> {
        t.files
            .values()
            .filter_map(|st| st.recall.as_ref())
            .flat_map(|rc| rc.blocked.iter().map(|(vi, f)| (*vi, token(f))))
            .collect()
    }

    pub(crate) type Key = Vec<(u64, Vec<(ViId, LeaseKind)>, Option<(Vec<ViId>, Vec<ViId>)>)>;

    /// The table with what cannot matter taken out: the recall id counter,
    /// and the frame tokens (their order in the list is their identity).
    pub(crate) fn canonical(t: &LeaseTable) -> Key {
        t.files
            .iter()
            .map(|(fh, st)| {
                let recall = st.recall.as_ref().map(|rc| {
                    let senders = rc.blocked.iter().map(|(vi, _)| *vi).collect();
                    (rc.pending.clone(), senders)
                });
                (*fh, st.holders.clone(), recall)
            })
            .collect()
    }

    fn session_of(ev: Event) -> ViId {
        match ev {
            Event::Grant(vi, _) | Event::Gate { vi, .. } | Event::Ack(vi) | Event::Death(vi) => vi,
        }
    }

    /// Apply `ev` (a gate carries frame `tok`). `None` when the event does
    /// not apply — no recall started, so no holder to find dead; else the
    /// frames that came back to be served.
    fn apply(t: &mut LeaseTable, ev: Event, tok: u32) -> Option<Vec<(ViId, u32)>> {
        let tokens = |v: Vec<Parked>| v.iter().map(|(vi, f)| (*vi, token(f))).collect();
        Some(match ev {
            Event::Grant(vi, kind) => {
                t.grant(FH, vi, kind);
                Vec::new()
            }
            Event::Gate {
                vi,
                mutating,
                first_holder_dead,
            } => match t.gate(FH, vi, mutating, &frame(tok)) {
                Gate::Recall { holders, .. } => {
                    if t.settle(FH, &holders[..first_holder_dead as usize]) {
                        Vec::new()
                    } else {
                        vec![(vi, tok)] // nobody to wait for: it passes
                    }
                }
                _ if first_holder_dead => return None,
                Gate::Pass => vec![(vi, tok)],
                Gate::Queued => Vec::new(),
            },
            Event::Ack(vi) => tokens(t.drop_holder(FH, vi)),
            Event::Death(vi) => tokens(t.drop_session(vi).1),
        })
    }

    fn check_state(t: &LeaseTable, path: &[Event]) {
        for (fh, st) in &t.files {
            let writers = st
                .holders
                .iter()
                .filter(|(_, k)| *k == LeaseKind::Write)
                .count();
            assert!(
                writers == 0 || st.holders.len() == 1,
                "fh {fh}: mixed or multiple write holders {:?} after {path:?}",
                st.holders
            );
            let ids: HashSet<ViId> = st.holders.iter().map(|(h, _)| *h).collect();
            assert_eq!(
                ids.len(),
                st.holders.len(),
                "duplicate holder after {path:?}"
            );
            assert!(
                !st.holders.is_empty() || st.recall.is_some(),
                "fh {fh}: empty entry survives after {path:?}"
            );
            if let Some(rc) = &st.recall {
                assert!(
                    !rc.pending.is_empty(),
                    "recall waits on nobody after {path:?}"
                );
                assert!(
                    rc.pending.iter().all(|p| ids.contains(p)),
                    "fh {fh}: pending {:?} not among holders {:?} after {path:?}",
                    rc.pending,
                    st.holders
                );
            }
        }
        // Liveness: once every pending holder acks, nothing stays parked,
        // and what comes back is everything that was parked, in order.
        let mut live = t.clone();
        let waiting = parked(&live);
        let pending: Vec<ViId> = live
            .files
            .get(&FH)
            .and_then(|st| st.recall.as_ref())
            .map_or(Vec::new(), |rc| rc.pending.clone());
        let mut back = Vec::new();
        for vi in pending {
            back.extend(live.drop_holder(FH, vi));
        }
        let back: Vec<(ViId, u32)> = back.iter().map(|(vi, f)| (*vi, token(f))).collect();
        assert_eq!(
            back, waiting,
            "acks did not release the queue after {path:?}"
        );
        assert!(
            parked(&live).is_empty(),
            "frames still parked after {path:?}"
        );
    }

    /// Small-scope exhaustive exploration: 3 sessions, 1 file, every
    /// interleaving of grant / gate (+ settle) / ack / death to `DEPTH`.
    #[test]
    fn every_reachable_table_keeps_its_invariants() {
        let mut seen: BTreeSet<Key> = BTreeSet::new();
        let mut queue: VecDeque<(LeaseTable, Vec<Event>)> = VecDeque::new();
        seen.insert(canonical(&LeaseTable::default()));
        queue.push_back((LeaseTable::default(), Vec::new()));
        let mut transitions = 0usize;
        while let Some((table, path)) = queue.pop_front() {
            if path.len() == DEPTH {
                continue;
            }
            for ev in events() {
                let mut t = table.clone();
                // Frames in arrival order: the parked ones, then this
                // event's. Tokens only need to differ within one table.
                let tok = path.len() as u32;
                let mut arrived = parked(&t);
                if matches!(ev, Event::Gate { .. }) {
                    arrived.push((session_of(ev), tok));
                }
                let Some(back) = apply(&mut t, ev, tok) else {
                    continue;
                };
                transitions += 1;
                let mut path = path.clone();
                path.push(ev);
                check_state(&t, &path);
                // Every frame is parked, or back, or its own session died
                // — exactly one of the three, and arrival order survives.
                let still = parked(&t);
                let pick = |set: &[(ViId, u32)]| -> Vec<(ViId, u32)> {
                    arrived
                        .iter()
                        .filter(|f| set.contains(f))
                        .copied()
                        .collect()
                };
                assert_eq!(pick(&still), still, "parked order broken after {path:?}");
                assert_eq!(pick(&back), back, "released out of order after {path:?}");
                for f in &arrived {
                    let died = matches!(ev, Event::Death(vi) if vi == f.0);
                    let places = still.contains(f) as u8 + back.contains(f) as u8 + died as u8;
                    assert_eq!(places, 1, "frame {f:?} in {places} places after {path:?}");
                }
                if seen.insert(canonical(&t)) {
                    queue.push_back((t, path));
                }
            }
        }
        println!(
            "lease explorer: {} states, {transitions} transitions, depth {DEPTH}",
            seen.len()
        );
        assert!(
            seen.len() > 100,
            "explorer visited only {} states",
            seen.len()
        );
    }

    #[test]
    fn recall_lifecycle_by_hand() {
        let (a, b, w) = (SESSIONS[0], SESSIONS[1], SESSIONS[2]);
        let mut t = LeaseTable::default();
        assert!(t.is_empty());
        assert!(matches!(t.gate(FH, w, true, &frame(0)), Gate::Pass));
        assert!(t.grant(FH, a, LeaseKind::Read));
        assert!(t.grant(FH, b, LeaseKind::Read));
        assert!(!t.grant(FH, w, LeaseKind::Write), "write beside readers");
        // Readers do not conflict with readers; a writer recalls both.
        assert!(matches!(t.gate(FH, w, false, &frame(1)), Gate::Pass));
        match t.gate(FH, w, true, &frame(2)) {
            Gate::Recall { id: 1, holders } => assert_eq!(holders, [a, b]),
            _ => panic!("expected a recall"),
        }
        assert!(t.settle(FH, &[]));
        assert!(!t.grant(FH, a, LeaseKind::Read), "no grant during a recall");
        assert!(matches!(t.gate(FH, w, true, &frame(3)), Gate::Queued));
        assert!(
            matches!(t.gate(FH, a, true, &frame(4)), Gate::Pass),
            "holders pass"
        );
        assert!(t.drop_holder(FH, a).is_empty(), "b is still pending");
        let back = t.drop_holder(FH, b);
        assert_eq!(
            back.iter()
                .map(|(vi, f)| (*vi, token(f)))
                .collect::<Vec<_>>(),
            [(w, 2), (w, 3)]
        );
        assert!(t.is_empty());
        // A recall whose every holder is unreachable dissolves on the spot.
        assert!(t.grant(FH, a, LeaseKind::Write));
        assert!(matches!(
            t.gate(FH, w, false, &frame(5)),
            Gate::Recall { id: 2, .. }
        ));
        assert!(!t.settle(FH, &[a]));
        assert!(t.is_empty());
    }
}
