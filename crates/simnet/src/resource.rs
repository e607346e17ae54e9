//! Serial resources: FIFO-queued service stations (a NIC engine, a server
//! CPU, a disk arm, a shared wire).
//!
//! A [`Resource`] models a station that serves one request at a time:
//! `completion = max(free_at, arrival) + service`. That is exact FIFO
//! queueing only if bookings are made in arrival order, and keeping that
//! order is the caller's contract. Booking at the caller's own clock
//! (`arrival = ctx.now()`) keeps it, because the kernel runs actors in
//! nondecreasing virtual time. Booking at a future arrival does not: a
//! later booking for an earlier arrival queues behind it. A downstream
//! station is therefore booked by whoever sees the work arrive (the
//! receiver, as it takes a message off its port in arrival order), not by
//! the sender at send time.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::kernel::ActorCtx;
use crate::time::{SimDuration, SimTime};

#[derive(Default)]
struct ResourceState {
    free_at: SimTime,
    busy_total: SimDuration,
    bookings: u64,
}

/// A serially-shared service station.
#[derive(Clone)]
pub struct Resource {
    inner: Arc<Mutex<ResourceState>>,
    name: Arc<str>,
}

impl Resource {
    /// Create a new instance with default state.
    pub fn new(name: &str) -> Resource {
        Resource {
            inner: Arc::new(Mutex::new(ResourceState::default())),
            name: name.into(),
        }
    }

    /// Human-readable name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Book `service` time starting no earlier than `arrival`; returns the
    /// completion instant. Does not block the caller — use the returned time
    /// as a message arrival, or `sleep_until` it for synchronous use. The
    /// caller books in arrival order (see the module doc).
    pub fn book(&self, arrival: SimTime, service: SimDuration) -> SimTime {
        let mut st = self.inner.lock();
        let start = st.free_at.max(arrival);
        let completion = start + service;
        st.free_at = completion;
        st.busy_total += service;
        st.bookings += 1;
        completion
    }

    /// Like [`book`](Resource::book), but also returns the instant service
    /// began (needed by cut-through link models, where the downstream hop
    /// starts receiving when the first byte departs, not the last).
    pub fn book_span(&self, arrival: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let mut st = self.inner.lock();
        let start = st.free_at.max(arrival);
        let completion = start + service;
        st.free_at = completion;
        st.busy_total += service;
        st.bookings += 1;
        (start, completion)
    }

    /// Convenience: book at the caller's current time and sleep until done.
    pub fn use_blocking(&self, ctx: &ActorCtx, service: SimDuration) -> SimTime {
        let arrival = ctx.now();
        let done = self.book(arrival, service);
        ctx.trace(
            "sim",
            "resource.acquire",
            &[
                ("resource", obs::Value::Str(&self.name)),
                ("service_ns", obs::Value::U64(service.as_nanos())),
                (
                    "queued_ns",
                    obs::Value::U64((done - arrival).as_nanos() - service.as_nanos()),
                ),
            ],
        );
        ctx.sleep_until(done);
        done
    }

    /// Earliest instant at which a new booking could start service.
    pub fn free_at(&self) -> SimTime {
        self.inner.lock().free_at
    }

    /// Total service time booked so far (for utilization reports).
    pub fn busy_total(&self) -> SimDuration {
        self.inner.lock().busy_total
    }

    /// Number of bookings made.
    pub fn bookings(&self) -> u64 {
        self.inner.lock().bookings
    }

    /// Utilization over an observation window.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.busy_total().as_nanos() as f64 / window.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimKernel;
    use crate::time::units::*;

    #[test]
    fn fifo_queueing_math() {
        let r = Resource::new("cpu");
        // First request: starts at its arrival.
        assert_eq!(r.book(SimTime(100), us(10)), SimTime(100) + us(10));
        // Second arrives while busy: queues.
        assert_eq!(r.book(SimTime(105), us(5)), SimTime(100) + us(10) + us(5));
        // Third arrives after idle gap: starts at its own arrival.
        let idle_arrival = SimTime(1_000_000);
        assert_eq!(r.book(idle_arrival, us(1)), idle_arrival + us(1));
        assert_eq!(r.busy_total(), us(16));
        assert_eq!(r.bookings(), 3);
    }

    #[test]
    fn blocking_use_advances_caller() {
        let k = SimKernel::new();
        let r = Resource::new("engine");
        let r2 = r.clone();
        k.spawn("user", move |ctx| {
            r2.use_blocking(ctx, us(25));
            assert_eq!(ctx.now(), SimTime::ZERO + us(25));
            r2.use_blocking(ctx, us(5));
            assert_eq!(ctx.now(), SimTime::ZERO + us(30));
        });
        k.run();
        assert_eq!(r.busy_total(), us(30));
    }

    #[test]
    fn contention_serializes_two_actors() {
        let k = SimKernel::new();
        let r = Resource::new("wire");
        let ends = Arc::new(Mutex::new(Vec::new()));
        for i in 0..2 {
            let r = r.clone();
            let ends = ends.clone();
            k.spawn(&format!("u{i}"), move |ctx| {
                let done = r.use_blocking(ctx, us(10));
                ends.lock().push(done.as_nanos());
            });
        }
        k.run();
        let mut e = ends.lock().clone();
        e.sort_unstable();
        assert_eq!(e, vec![10_000, 20_000], "two 10us jobs must serialize");
    }

    #[test]
    fn utilization_fraction() {
        let r = Resource::new("x");
        r.book(SimTime::ZERO, ms(3));
        assert!((r.utilization(ms(10)) - 0.3).abs() < 1e-9);
        assert_eq!(r.utilization(SimDuration::ZERO), 0.0);
    }

    use parking_lot::Mutex;
    use std::sync::Arc;
}
