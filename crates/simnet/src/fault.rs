//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes the misbehaviour of the simulated network and
//! hosts: per-link packet loss probability, bounded latency jitter, link
//! down/up windows, and host crash/restart windows — all at virtual times.
//! Transports (tcpnet, via) consult the plan at each wire delivery; because
//! every random draw comes from one seeded [`Rng64`] and the simulation
//! schedule is deterministic, identical seeds replay identical fault
//! timelines, so chaos tests and the R-X4 loss sweep are bit-reproducible.
//!
//! The plan is passive: it only *judges* deliveries. The recovery machinery
//! (NFS retransmit, DAFS session reconnect, VIA error completions) lives in
//! the layers that own the affected state. Fault metrics (`sim.faults.*`)
//! and trace events are emitted only when a fault actually fires, so a run
//! with a plan that injects nothing is observably identical to a run with
//! no plan at all.
//!
//! ```
//! use simnet::fault::FaultPlan;
//! use simnet::units::*;
//!
//! let plan = FaultPlan::builder(0xBAD5EED)
//!     .loss(0.01)                // 1% of wire messages vanish
//!     .jitter(us(50))            // up to 50us extra latency, FIFO-safe
//!     .build();
//! assert_eq!(plan.seed(), 0xBAD5EED);
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::host::HostId;
use crate::kernel::ActorCtx;
use crate::rng::Rng64;
use crate::time::{SimDuration, SimTime};
use obs::Value;

/// Why a wire message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Random packet loss on the link.
    Loss,
    /// The link was inside a configured down window.
    LinkDown,
    /// The source or destination host was inside a crash window.
    HostDown,
    /// A switch egress queue (or its shared buffer pool) overflowed under
    /// [`QueuePolicy::Drop`](crate::topo::QueuePolicy::Drop).
    QueueFull,
}

impl DropCause {
    /// Stable label used in trace events.
    pub fn as_str(self) -> &'static str {
        self.metric().trim_start_matches("sim.faults.")
    }

    /// The `sim.faults.*` counter of drops with this cause.
    pub fn metric(self) -> &'static str {
        match self {
            DropCause::Loss => "sim.faults.loss",
            DropCause::LinkDown => "sim.faults.link_down",
            DropCause::HostDown => "sim.faults.host_down",
            DropCause::QueueFull => "sim.faults.queue_full",
        }
    }
}

/// Per-link fault parameters (the default spec applies to links with no
/// override).
#[derive(Debug, Clone, Default)]
struct LinkSpec {
    /// Probability in `[0, 1]` that a wire message is silently dropped.
    loss: f64,
    /// Maximum extra latency added to a delivery (uniform in `[0, jitter]`).
    jitter: SimDuration,
    /// Half-open `[from, until)` windows during which the link drops
    /// everything.
    down: Vec<(SimTime, SimTime)>,
}

struct Inner {
    seed: u64,
    default_spec: LinkSpec,
    /// Overrides keyed by unordered host pair (normalised `min, max`).
    links: HashMap<(usize, usize), LinkSpec>,
    /// Host crash windows: half-open `[crash, restart)`.
    hosts: HashMap<usize, Vec<(SimTime, SimTime)>>,
    state: Mutex<RunState>,
}

struct RunState {
    rng: Rng64,
    /// Last delivery instant per *directed* link, used to clamp jittered
    /// arrivals so reordering never happens on an otherwise-FIFO wire.
    last_delivery: HashMap<(usize, usize), SimTime>,
}

/// Builder for a [`FaultPlan`]. All times are virtual.
pub struct FaultPlanBuilder {
    seed: u64,
    default_spec: LinkSpec,
    links: HashMap<(usize, usize), LinkSpec>,
    hosts: HashMap<usize, Vec<(SimTime, SimTime)>>,
}

fn pair_key(a: HostId, b: HostId) -> (usize, usize) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl FaultPlanBuilder {
    /// Default (all-link) packet loss probability, clamped to `[0, 1]`.
    pub fn loss(mut self, p: f64) -> Self {
        self.default_spec.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Default maximum latency jitter per delivery (uniform in
    /// `[0, jitter]`, clamped so a link never reorders).
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.default_spec.jitter = jitter;
        self
    }

    /// Override the loss probability on the link between `a` and `b`.
    pub fn link_loss(mut self, a: HostId, b: HostId, p: f64) -> Self {
        let d = self.default_spec.clone();
        self.links.entry(pair_key(a, b)).or_insert(d).loss = p.clamp(0.0, 1.0);
        self
    }

    /// Take the link between `a` and `b` down for `[from, until)`.
    pub fn link_down(mut self, a: HostId, b: HostId, from: SimTime, until: SimTime) -> Self {
        let d = self.default_spec.clone();
        self.links
            .entry(pair_key(a, b))
            .or_insert(d)
            .down
            .push((from, until));
        self
    }

    /// Crash host `h` at `from`; it restarts at `until`. While crashed the
    /// host neither sends nor receives (in-memory connection state is
    /// assumed rebuilt by higher layers; stable storage survives).
    pub fn host_crash(mut self, h: HostId, from: SimTime, until: SimTime) -> Self {
        self.hosts.entry(h.0).or_default().push((from, until));
        self
    }

    /// Finalise the plan. Cheap to clone; all clones share one RNG stream.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(Inner {
                seed: self.seed,
                default_spec: self.default_spec,
                links: self.links,
                hosts: self.hosts,
                state: Mutex::new(RunState {
                    rng: Rng64::new(self.seed),
                    last_delivery: HashMap::new(),
                }),
            }),
        }
    }
}

/// A deterministic fault schedule shared by every transport in a run.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// Start building a plan seeded with `seed`.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            default_spec: LinkSpec::default(),
            links: HashMap::new(),
            hosts: HashMap::new(),
        }
    }

    /// The seed this plan draws from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    fn spec(&self, src: HostId, dst: HostId) -> &LinkSpec {
        self.inner
            .links
            .get(&pair_key(src, dst))
            .unwrap_or(&self.inner.default_spec)
    }

    /// True if the `a`↔`b` link is inside a configured down window at time
    /// `t`. A pure window query (no RNG draw, no metrics): the fabric layer
    /// uses it to judge a path's health without perturbing the loss stream.
    pub fn link_down_at(&self, a: HostId, b: HostId, t: SimTime) -> bool {
        self.spec(a, b)
            .down
            .iter()
            .any(|&(from, until)| t >= from && t < until)
    }

    /// True if host `h` is inside a crash window at time `t`.
    pub fn host_down_at(&self, h: HostId, t: SimTime) -> bool {
        self.inner
            .hosts
            .get(&h.0)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| t >= from && t < until))
    }

    /// Judge a wire message sent now from `src`, nominally arriving at `dst`
    /// at `arrival`. Returns the cause if the message must be dropped.
    /// Emits `sim.faults.*` metrics and a trace event only on a drop.
    pub fn should_drop(
        &self,
        ctx: &ActorCtx,
        src: HostId,
        dst: HostId,
        arrival: SimTime,
    ) -> Option<DropCause> {
        let spec = self.spec(src, dst);
        let cause = if self.host_down_at(src, ctx.now()) || self.host_down_at(dst, arrival) {
            Some(DropCause::HostDown)
        } else if spec
            .down
            .iter()
            .any(|&(from, until)| ctx.now() >= from && ctx.now() < until)
        {
            Some(DropCause::LinkDown)
        } else if spec.loss > 0.0 && self.inner.state.lock().rng.chance(spec.loss) {
            Some(DropCause::Loss)
        } else {
            None
        };
        if let Some(c) = cause {
            ctx.metrics().counter("sim.faults.dropped").inc();
            ctx.metrics().counter(c.metric()).inc();
            ctx.trace(
                "sim",
                "fault.drop",
                &[
                    ("src", Value::U64(src.0 as u64)),
                    ("dst", Value::U64(dst.0 as u64)),
                    ("cause", Value::Str(c.as_str())),
                ],
            );
        }
        cause
    }

    /// Apply latency jitter to a delivery that survived
    /// [`FaultPlan::should_drop`]. The result is clamped to be monotone per
    /// directed link so jitter never reorders a FIFO wire.
    pub fn jitter(&self, ctx: &ActorCtx, src: HostId, dst: HostId, nominal: SimTime) -> SimTime {
        let max = self.spec(src, dst).jitter;
        let mut st = self.inner.state.lock();
        let mut arrival = nominal;
        if !max.is_zero() {
            let extra = SimDuration::from_nanos(st.rng.below(max.as_nanos() + 1));
            if !extra.is_zero() {
                arrival += extra;
                ctx.metrics()
                    .counter("sim.faults.jitter_ns")
                    .add(extra.as_nanos());
            }
        }
        let last = st.last_delivery.entry((src.0, dst.0)).or_insert(arrival);
        arrival = arrival.max(*last);
        *last = arrival;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SimKernel;
    use crate::time::units::*;

    fn with_ctx(f: impl Fn(&ActorCtx) + Send + 'static) {
        let k = SimKernel::new();
        k.spawn("t", move |ctx| f(ctx));
        k.run();
    }

    #[test]
    fn same_seed_same_verdicts() {
        let draw = |seed: u64| {
            let plan = FaultPlan::builder(seed).loss(0.3).build();
            let mut verdicts = Vec::new();
            let v2 = std::sync::Arc::new(Mutex::new(Vec::new()));
            let v3 = v2.clone();
            let k = SimKernel::new();
            k.spawn("t", move |ctx| {
                for _ in 0..64 {
                    v3.lock().push(
                        plan.should_drop(ctx, HostId(0), HostId(1), ctx.now())
                            .is_some(),
                    );
                }
            });
            k.run();
            verdicts.extend(v2.lock().iter().copied());
            verdicts
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds should diverge");
    }

    #[test]
    fn down_windows_drop_everything() {
        with_ctx(|ctx| {
            let plan = FaultPlan::builder(1)
                .link_down(
                    HostId(0),
                    HostId(1),
                    SimTime::ZERO + ms(1),
                    SimTime::ZERO + ms(2),
                )
                .build();
            assert_eq!(plan.should_drop(ctx, HostId(0), HostId(1), ctx.now()), None);
            ctx.advance(ms(1));
            assert_eq!(
                plan.should_drop(ctx, HostId(1), HostId(0), ctx.now()),
                Some(DropCause::LinkDown),
                "windows are symmetric in the host pair"
            );
            ctx.advance(ms(1));
            assert_eq!(plan.should_drop(ctx, HostId(0), HostId(1), ctx.now()), None);
        });
    }

    #[test]
    fn host_crash_window_is_half_open() {
        with_ctx(|ctx| {
            let plan = FaultPlan::builder(1)
                .host_crash(HostId(3), SimTime::ZERO + ms(5), SimTime::ZERO + ms(6))
                .build();
            assert!(!plan.host_down_at(HostId(3), SimTime::ZERO));
            assert!(plan.host_down_at(HostId(3), SimTime::ZERO + ms(5)));
            assert!(!plan.host_down_at(HostId(3), SimTime::ZERO + ms(6)));
            // Arrival inside the window drops even though the send is before.
            assert_eq!(
                plan.should_drop(ctx, HostId(0), HostId(3), SimTime::ZERO + ms(5)),
                Some(DropCause::HostDown)
            );
        });
    }

    #[test]
    fn jitter_is_bounded_and_fifo() {
        with_ctx(|ctx| {
            let plan = FaultPlan::builder(42).jitter(us(100)).build();
            let mut prev = SimTime::ZERO;
            for i in 0..200u64 {
                let nominal = SimTime::ZERO + us(10 * i);
                let j = plan.jitter(ctx, HostId(0), HostId(1), nominal);
                assert!(j >= nominal, "jitter only delays");
                assert!(
                    j <= nominal + us(100) || j == prev,
                    "bounded unless clamped"
                );
                assert!(j >= prev, "FIFO clamp must keep arrivals monotone");
                prev = j;
            }
        });
    }

    #[test]
    fn zero_plan_never_drops_or_jitters() {
        with_ctx(|ctx| {
            let plan = FaultPlan::builder(9).build();
            for i in 0..100u64 {
                let nominal = SimTime::ZERO + us(i);
                assert_eq!(plan.should_drop(ctx, HostId(0), HostId(1), nominal), None);
                assert_eq!(plan.jitter(ctx, HostId(0), HostId(1), nominal), nominal);
            }
        });
    }

    #[test]
    fn per_link_loss_override() {
        with_ctx(|ctx| {
            let plan = FaultPlan::builder(5)
                .link_loss(HostId(0), HostId(1), 1.0)
                .build();
            // The overridden link always drops; other links never do.
            assert_eq!(
                plan.should_drop(ctx, HostId(0), HostId(1), ctx.now()),
                Some(DropCause::Loss)
            );
            assert_eq!(plan.should_drop(ctx, HostId(0), HostId(2), ctx.now()), None);
        });
    }

    use parking_lot::Mutex;
}
