//! The window both file clients pipeline a transfer through: a range cut
//! into pieces of at most `max` units — bytes for an NFS transfer, subs
//! for a DAFS batch — posted in order while fewer than `cap` are in
//! flight, and retired in the order posted. What a retired piece did
//! decides what follows ([`Outcome`]): the rest of a short one is posted
//! next and retired first; EOF or a failure ends posting, and what is
//! still in flight is drained, its bytes not collected.
//!
//! Pure state, like the request table: nothing here sends a message, reads
//! a clock, counts a metric or emits a trace line.

use std::collections::VecDeque;
use std::ops::Range;

/// What a retired piece did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Moved all it asked for.
    Full,
    /// Moved this many units, at least one but not all, short of EOF.
    Short(u64),
    /// Met the end of the file.
    Eof,
    /// Failed.
    Failed,
}

/// A transfer of units `0..len` in pieces of at most `max`, at most `cap`
/// in flight: where the unposted rest starts, and the entries `P` posted
/// and not yet retired, each with its piece, in the order they retire.
#[derive(Clone)]
pub struct Window<P> {
    len: u64,
    max: u64,
    cap: usize,
    next: u64,
    /// The rest of a short piece, posted and retired before anything else.
    gap: Option<Range<u64>>,
    /// EOF or a failure: nothing more is posted.
    ended: bool,
    posted: VecDeque<(Range<u64>, P)>,
}

impl<P> Window<P> {
    /// Units `0..len` in pieces of `max`, at most `cap` in flight
    /// (`usize::MAX`: as many as the caller's request table takes).
    pub fn new(len: u64, max: u64, cap: usize) -> Window<P> {
        Window {
            len,
            max: max.max(1),
            cap: cap.max(1),
            next: 0,
            gap: None,
            ended: false,
            posted: VecDeque::new(),
        }
    }

    /// What to post next: the rest of a short piece, else the next piece;
    /// `None` while `cap` are in flight, once all is posted, or once
    /// posting has ended.
    pub fn next(&self) -> Option<Range<u64>> {
        let fresh = self.next..self.len.min(self.next.saturating_add(self.max));
        let room = !self.ended && self.posted.len() < self.cap;
        let fresh = (self.next < self.len).then_some(fresh);
        self.gap.clone().or(fresh).filter(|_| room)
    }

    /// What [`Self::next`] named is posted, as `p`.
    pub fn posted(&mut self, p: P) {
        let piece = self.next().expect("room to post");
        if self.gap.take().is_some() {
            self.posted.push_front((piece, p));
        } else {
            self.next = piece.end;
            self.posted.push_back((piece, p));
        }
    }

    /// The entry to retire next, the oldest posted; `None` while the rest
    /// of a short piece is to be posted first.
    pub fn front(&self) -> Option<(Range<u64>, &P)> {
        let front = self.posted.front().filter(|_| self.gap.is_none());
        front.map(|(piece, p)| (piece.clone(), p))
    }

    /// Retire [`Self::front`], which did `o`; once draining, `o` counts for
    /// nothing.
    pub fn retire(&mut self, o: Outcome) -> P {
        let (piece, p) = self.posted.pop_front().expect("a posted entry");
        match o {
            _ if self.ended => {}
            Outcome::Full => {}
            Outcome::Short(n) => self.gap = Some(piece.start + n..piece.end),
            Outcome::Eof | Outcome::Failed => self.ended = true,
        }
        p
    }

    /// EOF or a failure ended posting: what is still in flight is drained,
    /// its bytes not collected.
    pub fn draining(&self) -> bool {
        self.ended
    }

    /// The units never posted.
    pub fn rest(&self) -> Range<u64> {
        self.next..self.len
    }

    /// Entries posted and not yet retired.
    pub fn in_flight(&self) -> usize {
        self.posted.len()
    }

    /// The most entries in flight at once.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Everything posted is retired, and nothing is left to post.
    pub fn done(&self) -> bool {
        let all = self.ended || (self.gap.is_none() && self.next == self.len);
        self.posted.is_empty() && all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// One walk through a window whose entries are their replies, once
    /// they arrive, and what the walk saw: the units collected, in order;
    /// where the fresh pieces posted end; the posts and retires; and
    /// whether a retire ended posting.
    #[derive(Clone)]
    struct Walk {
        w: Window<Option<Outcome>>,
        collected: u64,
        fresh: u64,
        posts: usize,
        retires: usize,
        stopped: bool,
    }

    type Entries = Vec<(Range<u64>, Option<Outcome>)>;

    impl Walk {
        fn key(&self) -> (u64, Option<Range<u64>>, bool, Entries, u64, usize) {
            let w = &self.w;
            let posted = w.posted.iter().cloned().collect();
            let in_flight = self.posts - self.retires;
            (
                w.next,
                w.gap.clone(),
                w.ended,
                posted,
                self.collected,
                in_flight,
            )
        }

        /// Every way a reply to `piece` can come back.
        fn outcomes(piece: &Range<u64>) -> Vec<Outcome> {
            let short = (1..piece.end - piece.start).map(Outcome::Short);
            short
                .chain([Outcome::Full, Outcome::Eof, Outcome::Failed])
                .collect()
        }

        /// Every step the walk can take next: post what the window names
        /// (or not: a caller's request table may refuse), a reply to any
        /// entry in flight arriving with any outcome, or the front retiring
        /// once its reply is in.
        fn steps(&self) -> Vec<Walk> {
            let mut out = Vec::new();
            if let Some(piece) = self.w.next() {
                let mut s = self.clone();
                s.w.posted(None);
                s.fresh = s.fresh.max(piece.end);
                s.posts += 1;
                out.push(s);
            }
            for (i, (piece, reply)) in self.w.posted.iter().enumerate() {
                for o in Self::outcomes(piece)
                    .into_iter()
                    .filter(|_| reply.is_none())
                {
                    let mut s = self.clone();
                    s.w.posted[i].1 = Some(o);
                    out.push(s);
                }
            }
            if let Some((piece, &Some(o))) = self.w.front() {
                let mut s = self.clone();
                s.w.retire(o);
                s.retires += 1;
                if !self.stopped {
                    assert_eq!(piece.start, self.collected, "collected out of order");
                    s.collected += match o {
                        Outcome::Full => piece.end - piece.start,
                        Outcome::Short(n) => n,
                        Outcome::Eof | Outcome::Failed => 0,
                    };
                    s.stopped = matches!(o, Outcome::Eof | Outcome::Failed);
                }
                out.push(s);
            }
            out
        }

        fn check(&self, len: u64, cap: usize) {
            let w = &self.w;
            assert!(w.in_flight() <= cap, "past the window");
            assert_eq!(w.draining(), self.stopped);
            assert!(!self.stopped || w.next().is_none(), "posted past its end");
            assert_eq!(w.rest(), self.fresh..len);
            let all = self.stopped || self.collected == len;
            assert_eq!(w.done(), self.posts == self.retires && all);
        }
    }

    /// Windows of one to three (and unbounded) over up to four pieces of
    /// one to three units, every interleaving of posts, arrivals in any
    /// order and in-order retires, and every outcome: each unit is
    /// collected once and in order, no more than the window is ever in
    /// flight, nothing is posted after EOF or a failure, and the window is
    /// done exactly when everything posted is retired and every unit
    /// collected or posting ended — which is where every walk stops.
    #[test]
    fn every_order_and_outcome_collects_each_unit_once_in_order() {
        let mut states = 0;
        for max in 1..=3 {
            for (len, cap) in (0..=4 * max).flat_map(|n| [1, 2, 3, usize::MAX].map(|c| (n, c))) {
                let start = Walk {
                    w: Window::new(len, max, cap),
                    collected: 0,
                    fresh: 0,
                    posts: 0,
                    retires: 0,
                    stopped: false,
                };
                let (mut seen, mut todo) = (HashSet::new(), vec![start]);
                while let Some(s) = todo.pop() {
                    if !seen.insert(s.key()) {
                        continue;
                    }
                    s.check(len, cap);
                    let next = s.steps();
                    assert_eq!(next.is_empty(), s.w.done(), "a walk stops when done");
                    todo.extend(next);
                }
                states += seen.len();
            }
        }
        assert!(states > 40_000, "{states} states");
    }

    /// A short piece's rest goes out ahead of the pieces behind it, and is
    /// retired before them.
    #[test]
    fn the_rest_of_a_short_piece_is_posted_and_retired_first() {
        let mut w = Window::new(5, 2, 2);
        for tag in ["a", "b"] {
            assert!(w.next().is_some());
            w.posted(tag);
        }
        assert_eq!(w.next(), None, "two in flight");
        assert_eq!(w.retire(Outcome::Short(1)), "a");
        assert_eq!(w.front(), None, "the rest goes first");
        assert_eq!(w.next(), Some(1..2));
        w.posted("a'");
        assert_eq!(w.front(), Some((1..2, &"a'")));
        assert_eq!(w.retire(Outcome::Full), "a'");
        assert_eq!(w.next(), Some(4..5));
        assert_eq!(w.rest(), 4..5);
    }
}
