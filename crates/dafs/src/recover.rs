//! What a broken DAFS session sends again, and in what order: one pure
//! plan, run by the client's one recovery driver (`DafsClient::recover`),
//! and the rule that places a post behind a redial's Hello. Nothing here
//! sends a message, reads a clock, counts a metric or emits a trace line.

use std::ops::Range;

/// What a session does with a request its VI took with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An inline sub: posted again under its own id, for the server's
    /// replay cache to answer if it already ran.
    Repost,
    /// A direct sub, always a read: given up, and redone direct by its own
    /// batch under a fresh id (a replayed reply would not say whether the
    /// dead VI's RDMA moved its bytes; a re-execution on the new VI moves
    /// them, and a read changes nothing, so running it twice is harmless).
    /// A write is always inline, so no request that changes the file is
    /// ever redone under a fresh id.
    Redo,
    /// No record (a blocking call, Hello, lease grant, goodbye): given up.
    Drop,
}

/// One step of a recovery, in the order the driver runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Post lost request `id` again under its own id and await its reply,
    /// through a redial if `redial`.
    Repost { id: u32, redial: bool },
    /// Give lost request `id` up.
    GiveUp(u32),
    /// Send the batch's sub `.0` as it was cut, under a fresh id.
    Redo(usize),
}

/// The recovery of a session that lost `lost` (oldest first) and of a
/// batch that lost the direct subs `redo` and never posted `rest`: each
/// lost id settled in order, one re-post at a time and the first through
/// the redial if the VI is `down`, before any fresh id, `redo` then `rest`.
pub fn plan(lost: &[(u32, Kind)], down: bool, redo: &[usize], rest: Range<usize>) -> Vec<Step> {
    let mut redial = down;
    let lost = lost.iter().map(|&(id, kind)| match kind {
        Kind::Repost => Step::Repost {
            id,
            redial: std::mem::take(&mut redial),
        },
        Kind::Redo | Kind::Drop => Step::GiveUp(id),
    });
    let redone = redo.iter().copied().chain(rest).map(Step::Redo);
    lost.chain(redone).collect()
}

/// Request `id`, posted on a fresh VI whose Hello `hello` is unanswered:
/// the Hello whose reply it takes before its post, and the one it takes
/// right after. The Hello holds its request slot (`id mod ring`) until
/// its reply arrives, so only a post out of that slot waits for it first.
pub fn around_hello(hello: Option<u32>, id: u32, ring: usize) -> [Option<u32>; 2] {
    match hello {
        Some(h) if h as usize % ring == id as usize % ring => [Some(h), None],
        h => [None, h],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CREDITS;

    const RING: usize = CREDITS as usize;

    /// Every lost set inside one window of `RING` ids, with every kind
    /// assignment: `(id, kind)`, oldest first.
    fn lost_sets() -> impl Iterator<Item = Vec<(u32, Kind)>> {
        let kinds = [None, Some(Kind::Repost), Some(Kind::Redo), Some(Kind::Drop)];
        (0..kinds.len().pow(RING as u32)).map(move |mut code| {
            let ids = 1..=RING as u32;
            let each = ids.map(|id| {
                let kind = kinds[code % 4];
                code /= 4;
                Some((id, kind?))
            });
            each.flatten().collect()
        })
    }

    /// Run `steps` the way the driver does — a re-post awaited before the
    /// next, so it shares the VI with at most an unanswered Hello — and
    /// check every post on a fresh VI behind each Hello in `hellos`, or
    /// none: (a) no two unanswered frames share a request slot; (b) at
    /// most `RING` are unanswered, the Hello included.
    fn run_on_fresh_vis(steps: &[Step], hellos: Range<u32>) {
        let reposts = steps.iter().filter_map(|s| match *s {
            Step::Repost { id, .. } => Some(id),
            _ => None,
        });
        for id in reposts {
            for hello in hellos.clone().map(Some).chain([None]) {
                let [first, behind] = around_hello(hello, id, RING);
                assert_eq!(first.xor(behind), hello, "the Hello's reply is taken once");
                // Unanswered as `id` goes out: the Hello, unless its reply
                // was taken first, and `id`.
                let vi = [behind, Some(id)];
                let slot = |f: &u32| *f as usize % RING;
                let frames = vi.iter().flatten().enumerate();
                for (i, f) in frames.clone() {
                    let twin = frames.clone().skip(i + 1).find(|(_, g)| slot(g) == slot(f));
                    assert_eq!(twin, None, "(a) {vi:?} share a slot");
                }
                assert!(frames.count() <= RING, "(b) {vi:?} unanswered");
            }
        }
    }

    /// The recovery plan, exhaustively: every lost set inside one window of
    /// `CREDITS` ids, every kind assignment, the VI down or up, a batch
    /// with and without remains, and every Hello id a redial can hand out.
    /// The first redial's Hello is the table's next id (`RequestTable::open`):
    /// past every lost id, and at most `CREDITS` past the oldest (the
    /// window); a session that breaks again while it re-posts redials with
    /// a later one. `CREDITS` ids past the newest lost one cover both and
    /// every slot. Besides (a) and (b): (c) every lost id is re-posted
    /// under its own id (an inline sub) or given up (any other) exactly
    /// once, oldest first, and only the first re-post goes through the
    /// redial; (d) the redone subs — the lost direct ones, then the
    /// unposted, in post order — come after every re-post, so no fresh id
    /// is posted before one.
    #[test]
    fn every_plan_keeps_the_slots_the_window_and_the_order() {
        let remains: [(&[usize], Range<usize>); 2] = [(&[], 0..0), (&[1, 4], 5..7)];
        let mut plans = 0;
        for lost in lost_sets() {
            let newest = lost.last().map_or(0, |&(id, _)| id);
            for down in [false, true] {
                for (redo, unposted) in &remains {
                    let steps = plan(&lost, down, redo, unposted.clone());
                    let (settled, redone) = steps.split_at(lost.len().min(steps.len()));
                    assert_eq!(
                        settled.len(),
                        lost.len(),
                        "(c) a lost id left out: {lost:?}"
                    );
                    let mut redial = down;
                    for (step, &(id, kind)) in settled.iter().zip(&lost) {
                        match (*step, kind) {
                            (Step::Repost { id: r, redial: via }, Kind::Repost) => {
                                assert_eq!(r, id, "(c) oldest first: {lost:?}");
                                let first = std::mem::take(&mut redial);
                                assert_eq!(via, first, "(c) only the first re-post redials");
                            }
                            (Step::GiveUp(g), Kind::Redo | Kind::Drop) => {
                                assert_eq!(g, id, "(c) oldest first: {lost:?}")
                            }
                            (step, kind) => panic!("(c) {step:?} for a lost {kind:?}: {lost:?}"),
                        }
                    }
                    let want = redo.iter().copied().chain(unposted.clone());
                    let redos = redone.iter().map(|step| match *step {
                        Step::Redo(s) => s,
                        step => panic!("(d) {step:?} after a redo: {lost:?}"),
                    });
                    assert!(
                        redos.eq(want),
                        "(d) {redone:?}: not the redo list, then the unposted"
                    );
                    plans += 1;
                }
                run_on_fresh_vis(
                    &plan(&lost, down, &[], 0..0),
                    newest + 1..newest + 1 + RING as u32,
                );
            }
        }
        assert_eq!(plans, 4 * 4usize.pow(RING as u32));
    }
}
