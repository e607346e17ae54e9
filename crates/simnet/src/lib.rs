//! # simnet — deterministic discrete-event simulation substrate
//!
//! The reproduction of *"MPI/IO on DAFS over VIA"* needs hardware that no
//! longer exists (VIA NICs, a DAFS server appliance, a 2001-era cluster).
//! `simnet` replaces the physical platform with a conservative discrete-event
//! simulator in which every simulated process — an MPI rank, a file server, a
//! NIC engine — is an *actor*: blocking code on a stack of its own, run as a
//! coroutine on the one OS thread inside [`SimKernel::run`] by a kernel that
//! admits exactly one runnable actor at a time, always the one with the
//! smallest local virtual time.
//!
//! The important properties:
//!
//! * **Determinism** — the same program and seed produce a bit-identical
//!   virtual timeline, so every table in `EXPERIMENTS.md` is exactly
//!   reproducible.
//! * **Real data movement** — buffers are actual bytes in a per-host arena
//!   ([`HostMem`], each region mapped from the OS); DMA and copies move real
//!   data, so file contents written through the full MPI-IO→DAFS→VIA stack
//!   are verified in tests.
//! * **Cost accounting** — per-host CPU meters ([`CpuMeter`]) and serial
//!   resources ([`Resource`]) make host-overhead and saturation experiments
//!   first-class.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{SimKernel, Port, units::*};
//!
//! let kernel = SimKernel::new();
//! let port: Port<u32> = Port::new("wire");
//! let tx = port.clone();
//! kernel.spawn("sender", move |ctx| {
//!     tx.send(ctx, 42, ctx.now() + us(7)); // 7us one-way latency
//! });
//! let rx = port;
//! kernel.spawn("receiver", move |ctx| {
//!     assert_eq!(rx.recv(ctx), Some(42));
//!     assert_eq!(ctx.now().as_nanos(), 7_000);
//! });
//! kernel.run();
//! ```

#![warn(missing_docs)]
#![allow(clippy::new_without_default)]

mod coro;
mod kernel;
mod port;
mod resource;

pub mod buf;
pub mod cost;
pub mod fault;
pub mod host;
pub mod replay;
pub mod reqtab;
pub mod rng;
pub mod time;
pub mod topo;

/// Re-export of the observability crate so downstream layers can name
/// `simnet::obs::...` without a separate dependency edge.
pub use obs;

pub use buf::{BufPool, Bytes, Rope};
pub use fault::{DropCause, FaultPlan, FaultPlanBuilder};
pub use host::{Cluster, CpuMeter, Host, HostId, HostMem, Stopwatch, VirtAddr};
pub use kernel::{events_scheduled_global, ActorCtx, ActorId, SimKernel, Span};
pub use obs::{ByteMeter, Counter, SampleSet};
pub use port::{Port, RecvUntil};
pub use resource::Resource;
pub use rng::Rng64;
pub use time::{units, Bandwidth, SimDuration, SimTime};
pub use topo::{
    DumbbellSpec, FabricDrop, ForwardingMode, PortStats, QueuePolicy, SwitchConfig, SwitchRef,
    Topology, TopologyBuilder,
};
