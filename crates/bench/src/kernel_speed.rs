//! R-K1: raw DES kernel dispatch speed (wall-clock microbenchmark).
//!
//! Unlike every other experiment, this one measures the *simulator*, not
//! the simulated system: how many kernel events per wall-clock second the
//! kernel dispatches on three stress shapes —
//!
//! * **ping-pong** — two actors bouncing one message; every event is a
//!   block/wake handoff to the other actor, so this isolates per-event
//!   dispatch cost (queue pop, clock bump, stack switch);
//! * **fan-in** — many senders funneling into one receiver; stresses wake
//!   coalescing and the ready-queue under contention, the
//!   shape of the R-F10 incast cells;
//! * **burst** — many actors advancing a shared timer grid in lockstep,
//!   so every tick wakes all of them at one timestamp; exercises the
//!   same-timestamp ready-batch drain (one heap pass per tick instead of
//!   one heap pop per actor), the shape of barrier-heavy collective
//!   sweeps at high client counts.
//!
//! Every measured number is wall-clock and therefore nondeterministic:
//! the table's rows are deterministic labels only, and all measurements
//! live in notes prefixed `wall-clock:` so the byte-identity gate filters
//! them (the title carries the marker too, excluding the whole JSON
//! line).

use simnet::units::*;
use simnet::{Port, SimKernel};

use crate::report::{Cell, Table};

/// One workload's wall-clock measurement.
pub struct SpeedRun {
    /// Deterministic workload label.
    pub label: String,
    /// Kernel events dispatched.
    pub events: u64,
    /// Wall-clock time inside `kernel.run()`.
    pub elapsed: std::time::Duration,
}

impl SpeedRun {
    /// Events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Wall-clock nanoseconds per event.
    pub fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.elapsed.as_nanos() as f64 / self.events as f64
    }
}

fn timed_run(kernel: SimKernel, label: String) -> SpeedRun {
    let ev0 = simnet::events_scheduled_global();
    let t0 = std::time::Instant::now();
    kernel.run();
    SpeedRun {
        label,
        events: simnet::events_scheduled_global() - ev0,
        elapsed: t0.elapsed(),
    }
}

/// Two actors bouncing one token `rounds` times (1 µs virtual hop each
/// way). Every dispatch is a block/wake pair.
pub fn ping_pong(rounds: u64) -> SpeedRun {
    let kernel = SimKernel::new();
    let a2b: Port<u64> = Port::new("a2b");
    let b2a: Port<u64> = Port::new("b2a");
    {
        let (tx, rx) = (a2b.clone(), b2a.clone());
        kernel.spawn("ping", move |ctx| {
            for i in 0..rounds {
                tx.send(ctx, i, ctx.now() + us(1));
                rx.recv(ctx);
            }
            tx.close(ctx);
        });
    }
    {
        let (rx, tx) = (a2b, b2a);
        kernel.spawn("pong", move |ctx| {
            while let Some(i) = rx.recv(ctx) {
                tx.send(ctx, i, ctx.now() + us(1));
            }
        });
    }
    timed_run(kernel, format!("ping-pong ({rounds} rounds)"))
}

/// `senders` actors each firing `per` messages into one receiver — the
/// incast shape; stresses wake coalescing on the shared sink.
pub fn fan_in(senders: usize, per: u64) -> SpeedRun {
    let kernel = SimKernel::new();
    let sink: Port<u64> = Port::new("sink");
    for s in 0..senders {
        let tx = sink.clone();
        kernel.spawn(&format!("sender{s}"), move |ctx| {
            for i in 0..per {
                tx.send(ctx, i, ctx.now() + us(1));
                ctx.advance(us(1));
            }
        });
    }
    let rx = sink;
    let total = senders as u64 * per;
    kernel.spawn("sink", move |ctx| {
        for _ in 0..total {
            rx.recv(ctx);
        }
    });
    timed_run(kernel, format!("fan-in ({senders} senders x {per} msgs)"))
}

/// `actors` actors advancing a 1 µs timer grid in lockstep for `rounds`
/// ticks: every tick puts all of them in the event queue at one
/// timestamp, so each tick is served by a single same-timestamp batch
/// drain rather than `actors` separate heap pops.
pub fn burst(actors: usize, rounds: u64) -> SpeedRun {
    let kernel = SimKernel::new();
    for a in 0..actors {
        kernel.spawn(&format!("t{a}"), move |ctx| {
            for _ in 0..rounds {
                ctx.advance(us(1));
            }
        });
    }
    timed_run(kernel, format!("burst ({actors} actors x {rounds} ticks)"))
}

/// Measure every workload shape, at full size or at the seconds-scale
/// size CI runs.
pub fn measure(smoke: bool) -> Vec<SpeedRun> {
    if smoke {
        vec![ping_pong(20_000), fan_in(16, 500), burst(64, 250)]
    } else {
        vec![ping_pong(200_000), fan_in(64, 2_000), burst(256, 1_000)]
    }
}

/// Render measurements: deterministic labels as rows, every wall-clock
/// number in `wall-clock:`-prefixed notes.
pub fn table_from(runs: &[SpeedRun]) -> Table {
    let mut t = Table::new(
        "R-K1: DES kernel raw dispatch speed (wall-clock)",
        &[("workload", 0)],
    );
    for r in runs {
        t.row([Cell::text(&r.label)]);
    }
    for r in runs {
        t.note(&format!(
            "wall-clock: {}: {} events in {:.3}s ({:.0} events/s, {:.0} ns/event)",
            r.label,
            r.events,
            r.elapsed.as_secs_f64(),
            r.events_per_sec(),
            r.ns_per_event(),
        ));
    }
    t
}

/// The full-size experiment table.
pub fn run() -> Table {
    table_from(&measure(false))
}

/// The CI regression gate against the simulator itself getting slow:
/// `Err` names the first workload that dispatched fewer than `floor`
/// events per wall-clock second.
pub(crate) fn check_floor(runs: &[SpeedRun], floor: f64) -> Result<String, String> {
    for r in runs {
        let eps = r.events_per_sec();
        if eps < floor {
            return Err(format!(
                "FLOOR VIOLATION: {} ran at {eps:.0} events/s < floor {floor:.0}",
                r.label
            ));
        }
    }
    Ok(format!("floor ok: all workloads >= {floor:.0} events/s"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_counts_events() {
        let r = ping_pong(100);
        // Each round is at least two dispatches (one per side).
        assert!(r.events >= 200, "events = {}", r.events);
        assert!(r.events_per_sec() > 0.0);
    }

    #[test]
    fn fan_in_delivers_everything() {
        let r = fan_in(4, 50);
        assert!(r.events >= 200, "events = {}", r.events);
        assert!(r.ns_per_event() > 0.0);
    }

    #[test]
    fn burst_ticks_every_actor() {
        let r = burst(8, 20);
        // Every actor schedules one wake per tick.
        assert!(r.events >= 160, "events = {}", r.events);
        assert!(r.events_per_sec() > 0.0);
    }
}
