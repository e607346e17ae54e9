//! Completion queues (`VipCQCreate` family).
//!
//! A VI's receive work queue may be attached to a completion queue at
//! creation time. When a message arrives, a token naming the VI is
//! deposited on the CQ; the application then dequeues the completion
//! itself with `recv_done` on that VI. A server multiplexing hundreds of
//! client VIs polls one CQ instead of every VI — exactly how the DAFS
//! server event loop is structured.

use simnet::{ActorCtx, Port, SimTime};

use crate::vi::ViId;

/// A token deposited on a CQ when a message arrives on a VI's receive
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqToken {
    /// The VI whose receive queue completed.
    pub vi: ViId,
}

/// A completion queue.
#[derive(Clone)]
pub struct Cq {
    port: Port<CqToken>,
}

impl Cq {
    /// Create a named CQ.
    pub fn new(name: &str) -> Cq {
        Cq {
            port: Port::new(name),
        }
    }

    /// Non-blocking poll (`VipCQDone`): a token if one has arrived.
    pub fn poll(&self, ctx: &ActorCtx) -> Option<CqToken> {
        self.port.try_recv(ctx)
    }

    /// Blocking wait (`VipCQWait`): parks the actor in virtual time until a
    /// completion arrives. Returns `None` if the CQ is closed.
    pub fn wait(&self, ctx: &ActorCtx) -> Option<CqToken> {
        self.port.recv(ctx)
    }

    /// Close the CQ; blocked waiters drain remaining tokens then get `None`.
    pub fn close(&self, ctx: &ActorCtx) {
        self.port.close(ctx);
    }

    /// Number of undelivered tokens (diagnostics).
    pub fn depth(&self) -> usize {
        self.port.len()
    }

    pub(crate) fn notify(&self, ctx: &ActorCtx, token: CqToken, at: SimTime) {
        self.port.send(ctx, token, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::units::*;
    use simnet::SimKernel;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn token(n: u64) -> CqToken {
        CqToken { vi: ViId(n) }
    }

    #[test]
    fn poll_respects_arrival_time() {
        let k = SimKernel::new();
        let cq = Cq::new("t");
        let cq2 = cq.clone();
        k.spawn("producer", move |ctx| {
            cq2.notify(ctx, token(1), ctx.now() + us(10));
        });
        k.spawn("consumer", move |ctx| {
            ctx.advance(us(5));
            assert!(cq.poll(ctx).is_none(), "token hasn't arrived yet");
            ctx.advance(us(10));
            assert_eq!(cq.poll(ctx).unwrap().vi, ViId(1));
            assert_eq!(cq.depth(), 0);
        });
        k.run();
    }

    #[test]
    fn wait_blocks_until_token_and_close_unblocks() {
        let k = SimKernel::new();
        let cq = Cq::new("t");
        let woke_at = Arc::new(AtomicU64::new(0));
        let (cq2, w) = (cq.clone(), woke_at.clone());
        k.spawn("consumer", move |ctx| {
            let t = cq2.wait(ctx).unwrap();
            assert_eq!(t.vi, ViId(7));
            w.store(ctx.now().as_nanos(), Ordering::Relaxed);
            assert!(cq2.wait(ctx).is_none(), "closed after drain");
        });
        k.spawn("producer", move |ctx| {
            ctx.advance(us(25));
            cq.notify(ctx, token(7), ctx.now());
            cq.close(ctx);
        });
        k.run();
        assert_eq!(woke_at.load(Ordering::Relaxed), 25_000);
    }

    #[test]
    fn tokens_drain_in_arrival_order() {
        let k = SimKernel::new();
        let cq = Cq::new("t");
        let cq2 = cq.clone();
        k.spawn("producer", move |ctx| {
            // Deposited out of order; must drain by arrival time.
            cq2.notify(ctx, token(2), ctx.now() + us(20));
            cq2.notify(ctx, token(1), ctx.now() + us(10));
            cq2.notify(ctx, token(3), ctx.now() + us(30));
        });
        k.spawn("consumer", move |ctx| {
            for expect in 1..=3u64 {
                let t = cq.wait(ctx).unwrap();
                assert_eq!(t.vi, ViId(expect));
            }
        });
        k.run();
    }
}
