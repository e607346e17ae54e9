//! Timed single-consumer message ports.
//!
//! A [`Port<T>`] is the kernel-level message primitive: senders stamp each
//! message with an *arrival time* (computed from a link / resource model) and
//! receivers take messages in arrival order, their local clock advancing to
//! the arrival instant. Ports are multi-producer, single-consumer: exactly
//! one actor may block in `recv` at a time (the usual shape for a NIC queue,
//! a server doorbell, or an MPI match list).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::{ActorCtx, ActorId};
use crate::time::SimTime;

struct Timed<T> {
    arrival: SimTime,
    seq: u64,
    msg: T,
}

// Ordering for the min-heap (via Reverse): by arrival, then send order.
impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival == other.arrival && self.seq == other.seq
    }
}
impl<T> Eq for Timed<T> {}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.arrival, self.seq).cmp(&(other.arrival, other.seq))
    }
}

struct PortInner<T> {
    heap: Mutex<PortState<T>>,
    name: String,
}

struct PortState<T> {
    messages: BinaryHeap<Reverse<Timed<T>>>,
    /// Messages sent so far: the next one's tiebreak among equal arrivals.
    seq: u64,
    /// Actor currently blocked in `recv`, if any.
    waiter: Option<ActorId>,
    closed: bool,
}

/// A timed, multi-producer single-consumer message port.
pub struct Port<T> {
    inner: Arc<PortInner<T>>,
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        Port {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Default for Port<T> {
    fn default() -> Self {
        Self::new("port")
    }
}

impl<T: Send + 'static> Port<T> {
    /// Create a named port (the name appears in diagnostics).
    pub fn new(name: &str) -> Port<T> {
        Port {
            inner: Arc::new(PortInner {
                heap: Mutex::new(PortState {
                    messages: BinaryHeap::new(),
                    seq: 0,
                    waiter: None,
                    closed: false,
                }),
                name: name.to_string(),
            }),
        }
    }

    /// Number of queued (not yet received) messages, including future ones.
    pub fn len(&self) -> usize {
        self.inner.heap.lock().messages.len()
    }

    /// True if there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deposit a message that becomes visible to the receiver at `arrival`.
    ///
    /// If an actor is blocked in `recv`, it is woken at
    /// `max(arrival, its local clock)`.
    pub fn send(&self, ctx: &ActorCtx, msg: T, arrival: SimTime) {
        debug_assert!(
            arrival >= ctx.now(),
            "message to '{}' would arrive in the sender's past ({} < {})",
            self.inner.name,
            arrival,
            ctx.now()
        );
        let waiter = {
            let mut st = self.inner.heap.lock();
            assert!(!st.closed, "send on closed port '{}'", self.inner.name);
            let seq = st.seq;
            st.seq += 1;
            st.messages.push(Reverse(Timed { arrival, seq, msg }));
            st.waiter
        };
        if let Some(w) = waiter {
            ctx.wake_actor_at(w, arrival);
        }
    }

    /// Close the port: a blocked or future `recv` returns `None` once all
    /// queued messages are drained.
    pub fn close(&self, ctx: &ActorCtx) {
        let waiter = {
            let mut st = self.inner.heap.lock();
            st.closed = true;
            st.waiter
        };
        if let Some(w) = waiter {
            ctx.wake_actor_at(w, ctx.now());
        }
    }

    /// Receive the next message, blocking in virtual time until one arrives.
    /// Returns `None` only if the port is closed and drained.
    ///
    /// On return the caller's clock is `max(previous clock, msg arrival)`.
    pub fn recv(&self, ctx: &ActorCtx) -> Option<T> {
        loop {
            // Fast path: a message has already arrived (or will, at a known
            // time — then sleep to it and re-check, since an earlier message
            // may slip in while we sleep).
            let decision = {
                let mut st = self.inner.heap.lock();
                match st.messages.peek() {
                    Some(Reverse(t)) if t.arrival <= ctx.now() => {
                        let Reverse(t) = st.messages.pop().unwrap();
                        return Some(t.msg);
                    }
                    Some(Reverse(t)) => RecvWait::SleepUntil(t.arrival),
                    None if st.closed => return None,
                    None => {
                        assert!(
                            st.waiter.is_none(),
                            "port '{}' already has a blocked receiver",
                            self.inner.name
                        );
                        st.waiter = Some(ctx.id());
                        RecvWait::Park
                    }
                }
            };
            match decision {
                RecvWait::SleepUntil(t) => {
                    // Register as waiter too, so an *earlier* arrival wakes
                    // us before `t`.
                    {
                        let mut st = self.inner.heap.lock();
                        assert!(st.waiter.is_none());
                        st.waiter = Some(ctx.id());
                    }
                    ctx.sleep_until(t);
                    self.inner.heap.lock().waiter = None;
                }
                RecvWait::Park => {
                    ctx.block(None);
                    self.inner.heap.lock().waiter = None;
                }
            }
        }
    }

    /// Like [`Port::recv`], but give up once the caller's clock reaches
    /// `deadline` with no message arrived. The timeout consumes virtual
    /// time (the clock advances to `deadline`), which is what a protocol
    /// retransmit timer needs; the happy path is indistinguishable from
    /// `recv`.
    pub fn recv_until(&self, ctx: &ActorCtx, deadline: SimTime) -> RecvUntil<T> {
        loop {
            let decision = {
                let mut st = self.inner.heap.lock();
                match st.messages.peek() {
                    Some(Reverse(t)) if t.arrival <= ctx.now() => {
                        let Reverse(t) = st.messages.pop().unwrap();
                        return RecvUntil::Msg(t.msg);
                    }
                    Some(Reverse(t)) => Some(t.arrival),
                    None if st.closed => return RecvUntil::Closed,
                    None => None,
                }
            };
            if ctx.now() >= deadline {
                return RecvUntil::TimedOut;
            }
            // Sleep toward the earlier of the next known arrival and the
            // deadline, registered as waiter so an earlier send preempts.
            let target = decision.map_or(deadline, |a| a.min(deadline));
            {
                let mut st = self.inner.heap.lock();
                assert!(
                    st.waiter.is_none(),
                    "port '{}' already has a blocked receiver",
                    self.inner.name
                );
                st.waiter = Some(ctx.id());
            }
            ctx.sleep_until(target);
            self.inner.heap.lock().waiter = None;
        }
    }

    /// Take a message only if one has arrived by the caller's current time.
    pub fn try_recv(&self, ctx: &ActorCtx) -> Option<T> {
        let mut st = self.inner.heap.lock();
        match st.messages.peek() {
            Some(Reverse(t)) if t.arrival <= ctx.now() => Some(st.messages.pop().unwrap().0.msg),
            _ => None,
        }
    }
}

enum RecvWait {
    SleepUntil(SimTime),
    Park,
}

/// Outcome of [`Port::recv_until`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvUntil<T> {
    /// A message arrived before the deadline.
    Msg(T),
    /// The port is closed and drained.
    Closed,
    /// The deadline passed with no message; the caller's clock is at (or
    /// past) the deadline.
    TimedOut,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimKernel;
    use crate::time::units::*;
    use crate::time::SimDuration;

    fn pair() -> (Port<u64>, Port<u64>) {
        (Port::new("a->b"), Port::new("b->a"))
    }

    #[test]
    fn messages_delivered_in_arrival_order() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            // Send out of order: arrivals 30us, 10us, 20us.
            tx.send(ctx, 30, ctx.now() + us(30));
            tx.send(ctx, 10, ctx.now() + us(10));
            tx.send(ctx, 20, ctx.now() + us(20));
        });
        let rx = p.clone();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        k.spawn("receiver", move |ctx| {
            for _ in 0..3 {
                let v = rx.recv(ctx).unwrap();
                l2.lock().push((v, ctx.now().as_nanos()));
            }
        });
        k.run();
        assert_eq!(
            log.lock().clone(),
            vec![(10, 10_000), (20, 20_000), (30, 30_000)]
        );
    }

    #[test]
    fn recv_clock_merges_not_regresses() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            tx.send(ctx, 1, ctx.now() + us(5));
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            ctx.advance(us(100)); // receiver is way ahead
            assert_eq!(rx.recv(ctx), Some(1));
            // Message arrived in our past; clock must not move backwards.
            assert_eq!(ctx.now(), SimTime::ZERO + us(100));
        });
        k.run();
    }

    #[test]
    fn earlier_message_preempts_scheduled_sleep() {
        // Receiver sees a message due at 100us, starts sleeping toward it,
        // then a message due at 50us arrives. It must receive the 50us one
        // at 50us.
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx1 = p.clone();
        k.spawn("late-sender", move |ctx| {
            tx1.send(ctx, 100, ctx.now() + us(100));
        });
        let tx2 = p.clone();
        k.spawn("early-sender", move |ctx| {
            ctx.advance(us(20));
            tx2.send(ctx, 50, ctx.now() + us(30)); // arrival 50us
        });
        let rx = p;
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        k.spawn("receiver", move |ctx| {
            ctx.advance(us(1)); // let late-sender's msg be queued
            let v = rx.recv(ctx).unwrap();
            g.lock().push((v, ctx.now().as_nanos()));
        });
        k.run();
        assert_eq!(got.lock().clone(), vec![(50, 50_000)]);
    }

    #[test]
    fn try_recv_respects_arrival_time() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            tx.send(ctx, 7, ctx.now() + us(10));
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            ctx.advance(us(5));
            assert_eq!(rx.try_recv(ctx), None, "message hasn't arrived yet");
            ctx.advance(us(10));
            assert_eq!(rx.try_recv(ctx), Some(7));
        });
        k.run();
    }

    #[test]
    fn closed_port_returns_none_after_drain() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            tx.send(ctx, 1, ctx.now() + us(1));
            tx.close(ctx);
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv(ctx), Some(1));
            assert_eq!(rx.recv(ctx), None);
            assert_eq!(rx.recv(ctx), None, "stays closed");
        });
        k.run();
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let k = SimKernel::new();
        let (ab, ba) = pair();
        let one_way: SimDuration = us(7);
        {
            let (ab, ba) = (ab.clone(), ba.clone());
            k.spawn("client", move |ctx| {
                for i in 0..10u64 {
                    ab.send(ctx, i, ctx.now() + one_way);
                    let r = ba.recv(ctx).unwrap();
                    assert_eq!(r, i * 2);
                }
                assert_eq!(ctx.now(), SimTime::ZERO + us(7 * 2 * 10));
                ab.close(ctx);
            });
        }
        k.spawn_daemon("server", move |ctx| {
            while let Some(v) = ab.recv(ctx) {
                ba.send(ctx, v * 2, ctx.now() + one_way);
            }
        });
        k.run();
    }

    #[test]
    fn recv_until_times_out_at_deadline() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let rx = p.clone();
        k.spawn("receiver", move |ctx| {
            let deadline = ctx.now() + us(30);
            assert_eq!(rx.recv_until(ctx, deadline), RecvUntil::TimedOut);
            assert_eq!(ctx.now(), deadline, "timeout consumes virtual time");
        });
        k.run();
    }

    #[test]
    fn recv_until_returns_message_before_deadline() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            tx.send(ctx, 9, ctx.now() + us(10));
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv_until(ctx, ctx.now() + us(30)), RecvUntil::Msg(9));
            assert_eq!(ctx.now().as_nanos(), 10_000);
            // Second recv with nothing pending times out at its deadline.
            assert_eq!(rx.recv_until(ctx, ctx.now() + us(5)), RecvUntil::TimedOut);
            assert_eq!(ctx.now().as_nanos(), 15_000);
        });
        k.run();
    }

    #[test]
    fn recv_until_ignores_message_past_deadline() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("sender", move |ctx| {
            tx.send(ctx, 1, ctx.now() + us(100));
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            ctx.advance(us(1)); // let the future message queue up
            assert_eq!(rx.recv_until(ctx, ctx.now() + us(10)), RecvUntil::TimedOut);
            // The message is still there for a later recv.
            assert_eq!(rx.recv(ctx), Some(1));
            assert_eq!(ctx.now().as_nanos(), 100_000);
        });
        k.run();
    }

    #[test]
    fn recv_until_sees_close() {
        let k = SimKernel::new();
        let p: Port<u64> = Port::new("p");
        let tx = p.clone();
        k.spawn("closer", move |ctx| {
            ctx.advance(us(5));
            tx.close(ctx);
        });
        let rx = p;
        k.spawn("receiver", move |ctx| {
            assert_eq!(rx.recv_until(ctx, ctx.now() + us(50)), RecvUntil::Closed);
            assert!(ctx.now().as_nanos() <= 50_000);
        });
        k.run();
    }

    use parking_lot::Mutex;
    use std::sync::Arc;
}
