//! # obs — virtual-time observability for the MPI-IO/DAFS/VIA stack
//!
//! The paper this repository reproduces is an *evaluation*: every claim
//! rests on per-layer cost attribution — who burned CPU, where copies
//! happened, when RDMA completed. `obs` is the substrate that evidence
//! flows through:
//!
//! * a structured **event tracer** ([`Tracer`]) that stamps every record
//!   with the emitting actor and its *virtual* time and writes JSON lines
//!   to a sink (a file when `MPIO_DAFS_TRACE=<path>` is set, nothing
//!   otherwise — the disabled path costs one branch);
//! * a **metrics registry** ([`Registry`]): one counter, byte meter or
//!   sample set per key — a dotted name (`via.rdma.bytes`) plus a small
//!   label set ([`Labels`]: host, server, tenant) — with totals rolled up
//!   on read, snapshotable at any virtual time ([`Snapshot`]).
//!
//! Both ride together in an [`Obs`] handle that the simulation kernel owns
//! and hands to every actor. Observability **never** advances virtual time
//! or charges CPU: with tracing on or off, the simulated timeline is
//! bit-identical.
//!
//! This crate's one dependency is the in-tree `parking_lot` shim, whose lock
//! cell serves the one OS thread a simulation runs on (time is plain `u64`
//! nanoseconds); the simulator layers it under every other crate.

#![warn(missing_docs)]

pub mod json;
mod registry;
mod stats;
mod trace;

pub use registry::{
    Labels, Lazy, LazyByteMeter, LazyCounter, LazyHistogram, Registry, Snapshot, SnapshotEntry,
};
pub use stats::{ByteMeter, Counter, SampleSet};
pub use trace::{TraceBuffer, Tracer, Value};

use std::sync::Arc;

/// The environment variable naming the JSON-lines trace sink.
pub const TRACE_ENV: &str = "MPIO_DAFS_TRACE";

/// The per-simulation observability handle: one tracer + one registry.
///
/// Cloning is cheap and shares state; the kernel keeps one and every actor
/// context borrows it.
#[derive(Clone, Default)]
pub struct Obs {
    tracer: Tracer,
    registry: Arc<Registry>,
}

impl Obs {
    /// Observability off: metrics still collect, trace events vanish.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// Build from the environment: if `MPIO_DAFS_TRACE` names a path, trace
    /// events append to that file; otherwise tracing is disabled.
    pub fn from_env() -> Obs {
        match std::env::var(TRACE_ENV) {
            Ok(path) if !path.is_empty() => match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                Ok(f) => Obs::to_writer(Box::new(std::io::BufWriter::new(f))),
                Err(e) => {
                    eprintln!("obs: cannot open {TRACE_ENV}={path}: {e}; tracing disabled");
                    Obs::disabled()
                }
            },
            _ => Obs::disabled(),
        }
    }

    /// Trace into an arbitrary writer.
    pub fn to_writer(w: Box<dyn std::io::Write + Send>) -> Obs {
        Obs {
            tracer: Tracer::to_writer(w),
            registry: Arc::new(Registry::new()),
        }
    }

    /// Trace into an in-memory buffer (deterministic tests); returns the
    /// handle plus the readable buffer.
    pub fn buffered() -> (Obs, TraceBuffer) {
        let buf = TraceBuffer::new();
        (Obs::to_writer(Box::new(buf.clone())), buf)
    }

    /// Whether trace events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The metrics registry (always live, even with tracing disabled).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Emit one structured event (no-op when disabled).
    #[inline]
    pub fn emit(
        &self,
        t_ns: u64,
        actor: &str,
        layer: &str,
        event: &str,
        fields: &[(&str, Value<'_>)],
    ) {
        self.tracer.event(t_ns, actor, layer, event, fields);
    }

    /// Snapshot the registry at virtual time `t_ns`.
    pub fn snapshot(&self, t_ns: u64) -> Snapshot {
        self.registry.snapshot(t_ns)
    }

    /// Write a registry snapshot record to the trace sink (no-op when
    /// disabled) and flush. The kernel calls this when a run completes.
    pub fn emit_snapshot(&self, t_ns: u64) {
        if self.enabled() {
            self.tracer.raw_line(&self.snapshot(t_ns).to_json_line());
            self.tracer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_still_counts() {
        let o = Obs::disabled();
        o.registry().counter("x.y").add(5);
        assert_eq!(o.snapshot(0).get("x.y").unwrap().value(), 5);
        o.emit(0, "a", "l", "e", &[]);
        o.emit_snapshot(9); // no sink: nothing happens
    }

    #[test]
    fn buffered_obs_records_events_and_snapshot() {
        let (o, buf) = Obs::buffered();
        assert!(o.enabled());
        o.registry().counter("dafs.ops").inc();
        o.emit(
            5,
            "rank0",
            "dafs",
            "session.connect",
            &[("credits", Value::U64(8))],
        );
        o.emit_snapshot(10);
        let text = String::from_utf8(buf.contents()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"session.connect\""));
        assert!(lines[1].contains("\"type\":\"snapshot\""));
        assert!(lines[1].contains("\"dafs.ops\""));
    }
}
