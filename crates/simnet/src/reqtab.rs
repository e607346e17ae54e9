//! The request table both file clients keep: per session, every request
//! posted and not yet collected — its id, its place in the credit window,
//! its reply once that arrived, and what to send again if the session dies
//! under it.
//!
//! Two rules make a client's retries exactly-once against a server that
//! keeps its last `window` replies per client ([`crate::replay::ReplayCache`]):
//!
//! * **The window.** No id is posted `window` or more past the oldest one
//!   whose reply has not arrived. An id holds its place from its post until
//!   its reply arrives — when the receive buffer that took the reply is free
//!   again — not until the reply is taken, so a batch nobody waits on cannot
//!   starve another: its replies arrive, are kept, and give up their places.
//!   While a request is unanswered fewer than `window` are posted after it,
//!   which is what bounds the replies a server keeps behind its own.
//! * **The lost rule.** When a session dies, every request posted on it and
//!   unanswered is lost ([`RequestTable::session_lost`]), and no fresh id is
//!   posted until each lost one is either posted again under its own id
//!   ([`RequestTable::repost`]) or given up ([`RequestTable::take`]). So no
//!   new request overtakes a retry.
//!
//! Pure state, like the replay cache: nothing here sends a message, reads a
//! clock, counts a metric or emits a trace line.

use std::collections::{BTreeMap, HashMap};

/// Where a request in the table is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Posted on the live session; its reply has not arrived.
    Posted,
    /// Posted on a session that died before its reply arrived.
    Lost,
    /// Its reply arrived and has not been taken.
    Arrived,
}

/// One client's requests by id (ids count from 1, in post order): `Q` is
/// what a request is sent again as, `R` its reply.
pub struct RequestTable<Q, R> {
    window: u32,
    next: u32,
    /// Unanswered, oldest first, and whether the session was lost under it.
    out: BTreeMap<u32, (Q, bool)>,
    replies: HashMap<u32, R>,
}

impl<Q, R> RequestTable<Q, R> {
    /// An empty table with a window of `window` ids.
    pub fn new(window: usize) -> RequestTable<Q, R> {
        RequestTable {
            window: window as u32,
            next: 1,
            out: BTreeMap::new(),
            replies: HashMap::new(),
        }
    }

    /// Change the window, for the ids posted from now on.
    pub fn set_window(&mut self, window: usize) {
        self.window = window as u32;
    }

    /// A fresh id for the request `req` builds around it; `None` while the
    /// window is full or a lost request awaits its repost.
    pub fn post(&mut self, req: impl FnOnce(u32) -> Q) -> Option<u32> {
        let oldest = self.oldest().unwrap_or(self.next);
        (self.next - oldest < self.window && !self.lost()).then(|| self.open(req))
    }

    /// A fresh id outside both rules, for the request that opens a session
    /// on a new connection: nothing else is posted on it yet, and no server
    /// keeps the reply.
    pub fn open(&mut self, req: impl FnOnce(u32) -> Q) -> u32 {
        let id = self.next;
        self.next += 1;
        self.out.insert(id, (req(id), false));
        id
    }

    /// Lost request `id` is posted again under its own id; false if `id`
    /// is not lost.
    pub fn repost(&mut self, id: u32) -> bool {
        let lost = self.out.get_mut(&id).map(|(_, lost)| lost);
        lost.is_some_and(std::mem::take)
    }

    /// Keep `reply` as request `id`'s, which gives up its place in the
    /// window. False, and nothing kept, if `id` is unknown or already
    /// answered.
    pub fn arrived(&mut self, id: u32, reply: R) -> bool {
        let known = self.out.remove(&id).is_some();
        known && self.replies.insert(id, reply).is_none()
    }

    /// Request `id` leaves the table: its reply if that arrived. Taking an
    /// unanswered one gives it up.
    pub fn take(&mut self, id: u32) -> Option<R> {
        self.out.remove(&id);
        self.replies.remove(&id)
    }

    /// The session died: every unanswered request is lost. Returns the lost
    /// ids, oldest first.
    pub fn session_lost(&mut self) -> Vec<u32> {
        self.out.values_mut().for_each(|(_, lost)| *lost = true);
        self.out.keys().copied().collect()
    }

    /// Where request `id` is; `None` if it is not in the table.
    pub fn state(&self, id: u32) -> Option<State> {
        match self.out.get(&id) {
            Some((_, true)) => Some(State::Lost),
            Some(_) => Some(State::Posted),
            None => self.replies.contains_key(&id).then_some(State::Arrived),
        }
    }

    /// What unanswered request `id` is sent again as.
    pub fn request(&self, id: u32) -> Option<&Q> {
        self.out.get(&id).map(|(req, _)| req)
    }

    /// The oldest unanswered id.
    pub fn oldest(&self) -> Option<u32> {
        self.out.keys().next().copied()
    }

    /// Whether a lost request awaits its repost.
    pub fn lost(&self) -> bool {
        self.out.values().any(|&(_, lost)| lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(window: usize) -> RequestTable<u32, &'static str> {
        RequestTable::new(window)
    }

    #[test]
    fn post_refuses_at_the_window() {
        let mut t = table(3);
        let ids: Vec<_> = (0..4).map(|_| t.post(|id| id * 10)).collect();
        assert_eq!(ids, [Some(1), Some(2), Some(3), None]);
        assert_eq!(t.request(2), Some(&20));
        assert_eq!(t.oldest(), Some(1));
    }

    /// The oldest reply's arrival frees a place; taking it frees nothing
    /// more. A reply that arrives behind an unanswered older one frees
    /// nothing either: fewer than `window` ids may be posted after the
    /// unanswered one.
    #[test]
    fn an_arrival_frees_a_place_and_a_take_does_not() {
        let mut t = table(2);
        let (a, b) = (t.post(|_| 0).unwrap(), t.post(|_| 0).unwrap());
        assert!(t.arrived(b, "b"));
        assert_eq!(t.post(|_| 0), None, "b arrived behind unanswered a");
        assert!(t.arrived(a, "a"));
        assert_eq!(t.state(a), Some(State::Arrived));
        let (c, d) = (t.post(|_| 0).unwrap(), t.post(|_| 0).unwrap());
        assert_eq!(t.post(|_| 0), None);
        assert_eq!((t.take(a), t.take(b)), (Some("a"), Some("b")));
        assert_eq!(t.post(|_| 0), None, "a take frees nothing");
        assert!(t.arrived(c, "c"));
        assert_eq!(t.post(|_| 0), Some(d + 1));
    }

    #[test]
    fn an_unknown_or_duplicate_arrival_is_reported() {
        let mut t = table(4);
        let a = t.post(|_| 0).unwrap();
        assert!(!t.arrived(a + 1, "never posted"));
        assert!(t.arrived(a, "first"));
        assert!(!t.arrived(a, "again"), "duplicate");
        assert_eq!(t.take(a), Some("first"));
        assert!(!t.arrived(a, "after the take"));
        assert_eq!(t.state(a), None);
    }

    /// A lost session loses every unanswered id, oldest first, and keeps
    /// the replies already in; no fresh id is posted until each lost one is
    /// re-posted or given up — a redial's opening request excepted.
    #[test]
    fn no_fresh_id_while_a_lost_one_awaits_its_repost() {
        let mut t = table(8);
        let ids: Vec<u32> = (0..5).map(|_| t.post(|id| id).unwrap()).collect();
        assert!(t.arrived(ids[1], "in before the break"));
        assert_eq!(t.session_lost(), [ids[0], ids[2], ids[3], ids[4]]);
        assert_eq!(t.state(ids[1]), Some(State::Arrived));
        assert_eq!(t.state(ids[2]), Some(State::Lost));
        assert_eq!(t.post(|_| 0), None);
        let hello = t.open(|_| 0);
        assert!(t.arrived(hello, "hello"));
        assert!(!t.repost(ids[1]), "not lost");
        assert!(t.repost(ids[0]));
        assert!(!t.repost(ids[0]), "already re-posted");
        assert_eq!(t.state(ids[0]), Some(State::Posted));
        assert_eq!(t.take(ids[2]), None, "given up");
        assert!(t.repost(ids[3]));
        assert_eq!(t.post(|_| 0), None, "ids[4] still lost");
        assert!(t.repost(ids[4]));
        assert_eq!(t.request(ids[4]), Some(&ids[4]), "what to send again");
        assert_eq!(t.post(|_| 0), Some(hello + 1));
        // A second loss takes the re-posted ones again, in post order.
        assert_eq!(t.session_lost(), [ids[0], ids[3], ids[4], hello + 1]);
    }
}
