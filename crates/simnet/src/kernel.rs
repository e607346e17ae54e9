//! Conservative discrete-event kernel with coroutine actors.
//!
//! Each simulated process (an MPI rank, a file server, a helper) is a
//! stackful coroutine: ordinary blocking code on a stack of its own
//! ([`crate::coro`]). All of them run on the one OS thread inside
//! [`SimKernel::run`], and the kernel admits **exactly one runnable actor at a
//! time** — always the one with the smallest local virtual time. Actors
//! voluntarily yield whenever they advance their clock (`advance`, `compute`,
//! `sleep_until`) or block on a [`Port`](crate::port::Port). Because no actor
//! ever runs "ahead" of a pending earlier event, message delivery is globally
//! causal and the whole simulation is deterministic: the same program and
//! seed produce a bit-identical virtual timeline on every run.
//!
//! There is no scheduler: the run token passes from actor to actor. A
//! yielding actor pops the next event itself (`SchedState::dispatch`) under
//! the state lock it already holds. If it is its own successor it bumps its
//! clock and returns — no switch at all; otherwise it marks the successor
//! `current`, **releases the lock, then switches to that actor's stack** (the
//! successor runs on this same thread and takes the lock next, so a guard
//! held across the switch would deadlock it against itself). When no event is
//! left the switch goes back to [`SimKernel::run`]'s own context, which
//! reaches the done / deadlock / poison verdict and then disposes of every
//! actor, one at a time in `ActorId` order: a suspended one is unwound on its
//! own stack, one that never ran has its closure dropped — so servers' file
//! systems, caches and frames die with their simulation.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Counter, LazyCounter, Obs, Registry, Value};
use parking_lot::{Mutex, MutexGuard};

use crate::coro::{Coroutines, ExitTo};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor within one [`SimKernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub(crate) usize);

impl std::fmt::Display for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Lifecycle state of an actor, as seen by whoever dispatches next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActorState {
    /// Created but never run: its closure has not been entered.
    Starting,
    /// Holds the run token; the thread in `run()` is on its stack.
    Running,
    /// Suspended; will run again when a wake event with its current generation
    /// fires.
    Blocked,
    /// Its closure returned.
    Done,
}

struct ActorSlot {
    name: Arc<str>,
    state: ActorState,
    /// Incremented on every block; wake events carry the generation they
    /// target, so stale wakes (superseded by an earlier one) are discarded.
    generation: u64,
    daemon: bool,
    /// The actor's local clock, shared with its `ActorCtx` (which reads it
    /// lock-free); kept in the slot so dispatchers and wakers touch it
    /// under the one `state` lock they already hold.
    clock: Arc<AtomicU64>,
    /// Earliest wake already queued for the *current* generation, if any.
    /// Later wakes at the same or a greater time are coalesced away (the
    /// earlier event supersedes them once the actor re-blocks), which keeps
    /// the heap small under fan-in.
    pending_wake: Option<SimTime>,
}

/// One scheduled wake-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: SimTime,
    /// Global tiebreak sequence: events at equal times fire in creation
    /// order, which is itself deterministic.
    seq: u64,
    actor: ActorId,
    generation: u64,
}

#[derive(Default)]
struct SchedState {
    actors: Vec<ActorSlot>,
    /// Every actor's context (stack, or closure not yet entered), by
    /// `ActorId`; teardown takes them out one by one.
    coros: Coroutines,
    queue: BinaryHeap<Reverse<Event>>,
    /// Still-valid events drained from the heap in one batch pass — the
    /// earliest event plus everything sharing its timestamp, FIFO by
    /// sequence number. Serving a same-time burst then costs one O(1)
    /// queue front per grant instead of one O(log n) heap pop, which is
    /// the hot case under fan-in (many actors woken at one delivery
    /// time). Events pushed while the batch drains carry later sequence
    /// numbers and never earlier times (wakes are stamped at or past the
    /// waker's clock, which has reached the batch time), so batch order
    /// is exactly the (time, seq) order a one-pop dispatcher would serve.
    ready: VecDeque<Event>,
    seq: u64,
    /// Actor holding the run token. `None` before `run()` and once the
    /// token is back with it (no event left, or poisoned).
    current: Option<ActorId>,
    /// Set when an actor panicked; `run()` propagates it.
    poisoned: Option<String>,
    /// Virtual end time observed so far (max of all actor clocks).
    horizon: SimTime,
    /// Grants to `[another context, the yielding actor itself]`.
    #[cfg(test)]
    grants: [u64; 2],
}

impl SchedState {
    fn is_valid(&self, ev: &Event) -> bool {
        let slot = &self.actors[ev.actor.0];
        slot.generation == ev.generation
            && matches!(slot.state, ActorState::Blocked | ActorState::Starting)
    }

    /// Grant the token to the actor of the earliest still-valid event, or
    /// to nobody when there is none (or the run is poisoned). Refills the
    /// ready batch from the heap when it runs dry: one pass drains the
    /// earliest event plus every event sharing its timestamp (see
    /// `SchedState::ready` for why batch order is dispatch order).
    fn dispatch(&mut self) -> Option<ActorId> {
        self.current = None;
        if self.poisoned.is_some() {
            return None;
        }
        let ev = loop {
            if self.ready.is_empty() {
                while let Some(&Reverse(top)) = self.queue.peek() {
                    if self.ready.front().is_some_and(|b| top.time > b.time) {
                        break;
                    }
                    self.queue.pop();
                    // Stale (superseded wake or finished actor): a
                    // generation never rolls back, so staleness is
                    // permanent and early discard is safe.
                    if self.is_valid(&top) {
                        self.ready.push_back(top);
                    }
                }
            }
            let ev = self.ready.pop_front()?;
            // Re-validate at serve time: an actor granted earlier in this
            // batch has re-blocked under a new generation, staling any
            // event it left behind.
            if self.is_valid(&ev) {
                break ev;
            }
        };
        self.horizon = self.horizon.max(ev.time);
        let slot = &mut self.actors[ev.actor.0];
        slot.state = ActorState::Running;
        slot.pending_wake = None;
        // Advance the actor's clock to the wake time; it may be ahead
        // already (e.g. a message arrived in its past). A load and a store:
        // every writer of a clock holds the state lock.
        let clock = slot.clock.load(Ordering::Relaxed);
        (slot.clock).store(clock.max(ev.time.as_nanos()), Ordering::Relaxed);
        self.current = Some(ev.actor);
        Some(ev.actor)
    }
}

pub(crate) struct KernelInner {
    state: Mutex<SchedState>,
    /// Set by teardown: an actor switched to unwinds instead of running.
    /// Outside the lock so that a resumed actor need not take it to look;
    /// `Relaxed` because writer and readers are contexts of one thread.
    shutdown: AtomicBool,
    /// Observability handle shared by every actor: structured tracer plus
    /// the metrics registry. Never advances virtual time.
    obs: Obs,
}

thread_local! {
    /// This OS thread's count of scheduled events, accumulated as the
    /// kernels it runs finish. Purely a wall-clock harness statistic
    /// (sim-events/sec); never feeds back into virtual time.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Total events scheduled by every [`SimKernel::run`] this OS thread has
/// completed so far (each thread that runs kernels keeps its own count).
/// Bench harnesses read the delta around an experiment to report real-time
/// throughput.
pub fn events_scheduled_global() -> u64 {
    EVENTS.with(Cell::get)
}

/// Pass the run token on from `me` (an actor that just blocked, or `None`
/// for `run()` starting up), which holds the state lock. Returns `true` when
/// there is nowhere to switch: `me` is its own successor, or `run()` found no
/// actor to start. Otherwise drops the lock, switches to the successor's
/// stack — or to `run()`'s when nobody is left — and returns `false` once
/// something has switched back.
fn pass_token(mut st: MutexGuard<'_, SchedState>, me: Option<ActorId>) -> bool {
    let next = st.dispatch();
    let own = next == me;
    #[cfg(test)]
    if next.is_some() {
        st.grants[own as usize] += 1;
    }
    if own {
        return true;
    }
    Coroutines::switch(st, |st| &mut st.coros, next.map(|id| id.0));
    false
}

/// Unwind payload that teardown throws through a suspended actor's stack. Raised
/// with `resume_unwind`, so it never reaches the panic hook.
struct Shutdown;

/// The simulation kernel. Create one, [`spawn`](SimKernel::spawn) actors,
/// then [`run`](SimKernel::run) to completion.
pub struct SimKernel {
    inner: Arc<KernelInner>,
}

impl Default for SimKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SimKernel {
    /// Create a new instance with default state. Structured tracing follows
    /// the environment: when `MPIO_DAFS_TRACE=<path>` is set, every actor's
    /// events append to that file as JSON lines.
    pub fn new() -> SimKernel {
        SimKernel::with_obs(Obs::from_env())
    }

    /// Create a kernel with an explicit observability handle (tests use
    /// [`Obs::buffered`] to capture the trace deterministically in memory;
    /// [`Obs::disabled`] turns event emission off).
    pub fn with_obs(obs: Obs) -> SimKernel {
        SimKernel {
            inner: Arc::new(KernelInner {
                state: Mutex::new(SchedState::default()),
                shutdown: AtomicBool::new(false),
                obs,
            }),
        }
    }

    /// The kernel's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Spawn a regular actor. The simulation does not finish until every
    /// non-daemon actor's closure has returned.
    pub fn spawn<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, false, body)
    }

    /// Spawn a daemon actor (e.g. a server loop). Daemons may still be
    /// blocked when the simulation ends; `run()` unwinds them.
    pub fn spawn_daemon<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, true, body)
    }

    fn spawn_inner<F>(&self, name: &str, daemon: bool, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        let mut st = self.inner.state.lock();
        let id = ActorId(st.actors.len());
        let clock = Arc::new(AtomicU64::new(0));
        let name: Arc<str> = Arc::from(name);
        self.inner
            .obs
            .registry()
            .counter("sim.actors.spawned")
            .inc();

        // What the actor's stack runs from its first switch in. It holds the
        // kernel weakly: the kernel owns it until then, and a kernel dropped
        // without `run()` must drop it — and what `body` captured — too.
        let kernel = Arc::downgrade(&self.inner);
        let (ctx_name, ctx_clock) = (name.clone(), clock.clone());
        let entry = move || -> ExitTo {
            let ctx = ActorCtx {
                id,
                name: ctx_name,
                kernel: kernel.upgrade().expect("run() holds the kernel"),
                clock: ctx_clock,
                cpu_ns: LazyCounter::new("sim.cpu_ns"),
                locals: RefCell::default(),
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                ctx.trace("sim", "actor.start", &[("daemon", Value::Bool(daemon))]);
                body(&ctx)
            }));
            let panic_msg = match result {
                Ok(()) => None,
                // Teardown: the run is over and `run()` waits for this stack
                // to finish unwinding.
                Err(payload) if payload.is::<Shutdown>() => {
                    return ctx.kernel.state.lock().coros.exit_to(None);
                }
                Err(payload) => Some(
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "actor panicked".to_string()),
                ),
            };
            ctx.trace(
                "sim",
                "actor.exit",
                &[("ok", Value::Bool(panic_msg.is_none()))],
            );
            let mut st = ctx.kernel.state.lock();
            if let Some(msg) = panic_msg {
                st.poisoned = Some(format!("actor '{}' panicked: {msg}", ctx.name));
            }
            st.actors[id.0].state = ActorState::Done;
            let next = st.dispatch();
            #[cfg(test)]
            if next.is_some() {
                st.grants[0] += 1;
            }
            // Not a switch from here: this closure first returns, dropping
            // `ctx` and the guard, and the stack's first frame switches away.
            st.coros.exit_to(next.map(|id| id.0))
        };

        st.coros.spawn(Box::new(entry));
        st.actors.push(ActorSlot {
            name,
            state: ActorState::Starting,
            generation: 0,
            daemon,
            clock,
            pending_wake: Some(SimTime::ZERO),
        });
        // Schedule the actor's first run at t=0 (or at the caller's time when
        // spawned from inside the simulation — see ActorCtx::spawn).
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Event {
            time: SimTime::ZERO,
            seq,
            actor: id,
            generation: 0,
        }));
        id
    }

    /// Drive the simulation until every non-daemon actor has finished.
    ///
    /// Returns the virtual end time (the max clock reached by any actor).
    /// Panics if any actor panicked, or on deadlock (no runnable actor, no
    /// pending event, and some non-daemon actor still blocked). Either way
    /// every actor is gone — unwound, or dropped unrun — and every stack
    /// unmapped by the time it returns or panics.
    pub fn run(self) -> SimTime {
        let inner = &self.inner;
        // Returns when an actor finds no event left, or one panics.
        pass_token(inner.state.lock(), None);
        let mut st = inner.state.lock();
        let failure = st.poisoned.take().or_else(|| {
            let stuck: Vec<&str> = (st.actors.iter())
                .filter(|a| !a.daemon && a.state != ActorState::Done)
                .map(|a| &*a.name)
                .collect();
            (!stuck.is_empty()).then(|| {
                format!(
                    "simulation deadlock: no pending events but actors {stuck:?} \
                     are still blocked"
                )
            })
        });
        // `seq` counts every event ever scheduled (including superseded
        // wakes): the denominator for wall-clock sim-events/sec throughput.
        let (end, events) = (st.horizon, st.seq);
        drop(st);
        self.teardown();
        if let Some(msg) = failure {
            panic!("{msg}");
        }
        EVENTS.with(|n| n.set(n.get() + events));
        inner.obs.registry().counter("sim.events.total").add(events);
        // Close out the trace: final registry snapshot at the virtual end
        // time, then flush the sink.
        inner.obs.emit_snapshot(end.as_nanos());
        end
    }

    /// Dispose of every actor, one at a time in `ActorId` order so drop order
    /// is deterministic. An actor still suspended (a daemon, or anyone on
    /// deadlock or poison) is switched to with `shutdown` set, which makes
    /// `block` unwind its stack to the wrapper's `catch_unwind`; the wrapper
    /// switches back here and only then is the stack unmapped. One that never
    /// ran has its closure dropped where it lies.
    fn teardown(&self) {
        self.inner.shutdown.store(true, Ordering::Relaxed);
        for id in 0.. {
            let mut st = self.inner.state.lock();
            let Some(slot) = st.actors.get(id) else {
                break;
            };
            if slot.state == ActorState::Blocked {
                st.current = Some(ActorId(id));
                Coroutines::switch(st, |st| &mut st.coros, Some(id));
                st = self.inner.state.lock();
            }
            let gone = st.coros.remove(id);
            // What a closure captured may do anything when dropped.
            drop(st);
            drop(gone);
        }
    }
}

/// Handle given to each actor; all virtual-time operations go through it.
///
/// `ActorCtx` is deliberately not `Clone`: it is owned by exactly one actor
/// and must not leak to another.
pub struct ActorCtx {
    id: ActorId,
    name: Arc<str>,
    kernel: Arc<KernelInner>,
    clock: Arc<AtomicU64>,
    /// `sim.cpu_ns`, which [`crate::Host::compute`] adds to on every call.
    cpu_ns: LazyCounter,
    /// At most one value per type; see [`ActorCtx::with_local`].
    locals: RefCell<Vec<Box<dyn Any + Send>>>,
}

impl ActorCtx {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// This actor's name (as passed to `spawn`); stamps trace events.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulation-wide observability handle.
    pub fn obs(&self) -> &Obs {
        &self.kernel.obs
    }

    /// The simulation-wide metrics registry (always live).
    pub fn metrics(&self) -> &Registry {
        self.kernel.obs.registry()
    }

    /// The `sim.cpu_ns` counter (host CPU work charged by any actor).
    pub(crate) fn cpu_ns(&self) -> &Counter {
        self.cpu_ns.resolve(self.metrics())
    }

    /// Emit one structured trace event stamped with this actor's name and
    /// current virtual time. Costs a single branch when tracing is off.
    #[inline]
    pub fn trace(&self, layer: &str, event: &str, fields: &[(&str, Value<'_>)]) {
        let obs = &self.kernel.obs;
        if obs.enabled() {
            obs.emit(self.now().as_nanos(), &self.name, layer, event, fields);
        }
    }

    /// Open a timed span over `{layer}.{op}`. On drop the span adds the
    /// elapsed virtual time to the `{layer}.{op}_ns` counter, bumps
    /// `{layer}.{op}.calls`, and (when tracing) emits one event carrying
    /// both endpoints. Spans never advance time themselves.
    pub fn span(&self, layer: &'static str, op: &'static str) -> Span<'_> {
        self.span_since(layer, op, self.now())
    }

    /// [`Self::span`] from `start`, an instant this actor already passed:
    /// for work that begins in one call and ends in another (a split-phase
    /// transfer, from its issue to its finish).
    pub fn span_since(&self, layer: &'static str, op: &'static str, start: SimTime) -> Span<'_> {
        Span {
            ctx: self,
            layer,
            op,
            start,
        }
    }

    /// This actor's own value of type `T`, default-constructed on first use:
    /// what a `thread_local!` was when every actor had a thread. All actors
    /// share one OS thread now, so a thread-local is shared by all of them.
    /// `f` must not call `with_local` again.
    pub fn with_local<T: Any + Send + Default, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut locals = self.locals.borrow_mut();
        let i = (locals.iter().position(|l| l.is::<T>())).unwrap_or_else(|| {
            locals.push(Box::<T>::default());
            locals.len() - 1
        });
        f(locals[i].downcast_mut().expect("found by its type"))
    }

    /// Current local virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.clock.load(Ordering::Relaxed))
    }

    /// Advance local time by `d`, yielding so that any other actor with
    /// earlier pending work runs first.
    pub fn advance(&self, d: SimDuration) {
        if d.is_zero() {
            return;
        }
        self.sleep_until(self.now() + d);
    }

    /// Sleep until the given instant (no-op if already past it).
    pub fn sleep_until(&self, t: SimTime) {
        if t <= self.now() {
            return;
        }
        self.block(Some(t));
    }

    /// Yield without advancing time: lets any same-time actor run first.
    pub fn yield_now(&self) {
        self.block(Some(self.now()));
    }

    /// Spawn a new actor from inside the simulation; it starts at the
    /// spawner's current time.
    pub fn spawn<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, false, body)
    }

    /// Spawn a daemon actor from inside the simulation (the run can end
    /// while it is still blocked — server-side connection handlers).
    pub fn spawn_daemon<F>(&self, name: &str, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        self.spawn_inner(name, true, body)
    }

    fn spawn_inner<F>(&self, name: &str, daemon: bool, body: F) -> ActorId
    where
        F: FnOnce(&ActorCtx) + Send + 'static,
    {
        let start = self.now();
        let kernel = SimKernel {
            inner: self.kernel.clone(),
        };
        let id = kernel.spawn_inner(name, daemon, body);
        // Re-stamp the initial event from t=0 to the spawn time.
        let mut st = self.kernel.state.lock();
        // The freshly pushed event has generation 0; supersede it.
        let slot = &mut st.actors[id.0];
        slot.generation += 1;
        let generation = slot.generation;
        slot.pending_wake = Some(start);
        slot.clock.store(start.as_nanos(), Ordering::Relaxed);
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(Reverse(Event {
            time: start,
            seq,
            actor: id,
            generation,
        }));
        id
    }

    /// Block until a wake event with the current generation fires.
    /// `wake_at`: optionally self-schedule a wake (sleep); external wakers
    /// (message sends) may add earlier wakes for the same generation.
    /// Dispatches the next event itself: when that is its own, it returns
    /// without a switch.
    pub(crate) fn block(&self, wake_at: Option<SimTime>) {
        let mut st = self.kernel.state.lock();
        debug_assert_eq!(st.current, Some(self.id), "yield from non-current actor");
        let slot = &mut st.actors[self.id.0];
        slot.state = ActorState::Blocked;
        slot.generation += 1;
        slot.pending_wake = wake_at;
        let generation = slot.generation;
        if let Some(t) = wake_at {
            let seq = st.seq;
            st.seq += 1;
            st.queue.push(Reverse(Event {
                time: t,
                seq,
                actor: self.id,
                generation,
            }));
        }
        // Switched away and back. If it was teardown that switched in, the
        // run is over: unwind this stack to the wrapper's `catch_unwind`.
        if !pass_token(st, Some(self.id)) && self.kernel.shutdown.load(Ordering::Relaxed) {
            panic::resume_unwind(Box::new(Shutdown));
        }
    }

    /// Schedule a wake for a (possibly blocked) actor at time `t`.
    ///
    /// Used by message sends: if `target` is currently blocked, it will run
    /// at `max(t, its own clock)`; if it is running or already has an earlier
    /// wake, the extra event is harmless (stale generations are discarded,
    /// and a woken actor re-checks its condition).
    pub(crate) fn wake_actor_at(&self, target: ActorId, t: SimTime) {
        let mut st = self.kernel.state.lock();
        let slot = &mut st.actors[target.0];
        if slot.state == ActorState::Done {
            return;
        }
        let generation = slot.generation;
        let target_clock = SimTime(slot.clock.load(Ordering::Relaxed));
        let time = t.max(target_clock);
        // Coalesce: a wake at or after one already queued for this
        // generation can never fire (the earlier event runs the actor and
        // its next block bumps the generation, staling this one), so skip
        // the heap push. The sequence number still advances — `seq` is the
        // deterministic tiebreak *and* the scheduled-event total, and both
        // must not depend on heap occupancy.
        let redundant = slot.pending_wake.is_some_and(|pw| pw <= time);
        if !redundant {
            slot.pending_wake = Some(time);
        }
        let seq = st.seq;
        st.seq += 1;
        if redundant {
            return;
        }
        st.queue.push(Reverse(Event {
            time,
            seq,
            actor: target,
            generation,
        }));
    }
}

/// RAII virtual-time span (see [`ActorCtx::span`]).
///
/// Time spent between construction and drop — as measured on the actor's
/// *virtual* clock — accrues to the `{layer}.{op}_ns` counter, which the
/// bench reports aggregate into per-layer time-breakdown tables.
#[must_use = "a span measures the time until it is dropped"]
pub struct Span<'a> {
    ctx: &'a ActorCtx,
    layer: &'static str,
    op: &'static str,
    start: SimTime,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        // A span open in an actor that teardown (or a panic) is unwinding
        // measured nothing: counting it would move `*_ns` counters after
        // the run's last event. The flag is the OS thread's, which every
        // actor shares, and still means "this actor": an unwind runs to its
        // `catch_unwind` before the next switch.
        if std::thread::panicking() {
            return;
        }
        let start = self.start.as_nanos();
        let end = self.ctx.now().as_nanos();
        let elapsed = end.saturating_sub(start);
        let reg = self.ctx.kernel.obs.registry();
        let (ns, calls) = reg.span_counters(self.layer, self.op);
        ns.add(elapsed);
        calls.inc();
        self.ctx.trace(
            self.layer,
            self.op,
            &[
                ("start_ns", Value::U64(start)),
                ("elapsed_ns", Value::U64(elapsed)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::units::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_kernel_runs_to_zero() {
        let k = SimKernel::new();
        assert_eq!(k.run(), SimTime::ZERO);
    }

    #[test]
    fn single_actor_advances_time() {
        let k = SimKernel::new();
        k.spawn("a", |ctx| {
            ctx.advance(us(10));
            ctx.advance(us(5));
            assert_eq!(ctx.now(), SimTime::ZERO + us(15));
        });
        assert_eq!(k.run(), SimTime::ZERO + us(15));
    }

    #[test]
    fn actors_interleave_in_time_order() {
        let k = SimKernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("slow", 10u64), ("fast", 3u64)] {
            let order = order.clone();
            k.spawn(name, move |ctx| {
                for i in 0..3 {
                    ctx.advance(us(step));
                    order.lock().push((ctx.now().as_nanos(), name, i));
                }
            });
        }
        k.run();
        let got = order.lock().clone();
        // Events must be globally sorted by virtual time.
        let times: Vec<u64> = got.iter().map(|e| e.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "interleaving violated time order: {got:?}");
        // fast: 3,6,9 then slow: 10, fast... exact sequence check:
        assert_eq!(got[0].1, "fast");
        assert_eq!(got[3].1, "slow");
    }

    #[test]
    fn spawn_from_inside_starts_at_spawn_time() {
        let k = SimKernel::new();
        let child_start = Arc::new(AtomicU64::new(0));
        let cs = child_start.clone();
        k.spawn("parent", move |ctx| {
            ctx.advance(us(42));
            let cs = cs.clone();
            ctx.spawn("child", move |cctx| {
                cs.store(cctx.now().as_nanos(), Ordering::Relaxed);
            });
        });
        k.run();
        assert_eq!(child_start.load(Ordering::Relaxed), 42_000);
    }

    /// Run a kernel that must fail; return `run()`'s panic message.
    fn run_failing(k: SimKernel) -> String {
        let err = panic::catch_unwind(AssertUnwindSafe(|| k.run())).unwrap_err();
        *err.downcast::<String>()
            .expect("run() panics with a String")
    }

    #[test]
    fn actor_panic_propagates_and_leaves_no_context() {
        let k = SimKernel::new();
        let witness = Arc::new(());
        let (parked, unborn) = (witness.clone(), witness.clone());
        k.spawn_daemon("parked", move |ctx| {
            let _held = parked;
            ctx.block(None);
        });
        k.spawn("bomber", move |ctx| {
            ctx.advance(us(1));
            // Still `Starting` when the run is poisoned: never runs.
            ctx.spawn("unborn", move |_| drop(unborn));
            panic!("boom");
        });
        assert_eq!(run_failing(k), "actor 'bomber' panicked: boom");
        assert_eq!(Arc::strong_count(&witness), 1, "a context outlived run()");
    }

    #[test]
    fn daemon_does_not_block_completion_and_is_unwound() {
        let k = SimKernel::new();
        let inner = k.inner.clone();
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = ticks.clone();
        // A daemon that would sleep forever after its work.
        k.spawn_daemon("daemon", move |ctx| {
            ctx.advance(us(1));
            t.fetch_add(1, Ordering::Relaxed);
            // Block forever with no scheduled wake.
            ctx.block(None);
            unreachable!();
        });
        k.spawn("worker", |ctx| ctx.advance(us(100)));
        let end = k.run();
        assert_eq!(end, SimTime::ZERO + us(100));
        // Teardown unwound the daemon's stack (dropping `t`), and its unwind
        // payload was not taken for an actor panic.
        assert_eq!(Arc::strong_count(&ticks), 1);
        assert_eq!(ticks.load(Ordering::Relaxed), 1);
        assert_eq!(inner.state.lock().poisoned, None);
    }

    #[test]
    fn deadlock_detected_and_leaves_no_context() {
        let k = SimKernel::new();
        let witness = Arc::new(());
        let held = witness.clone();
        k.spawn("stuck", move |ctx| {
            let _held = held;
            ctx.block(None); // waits forever, not a daemon
        });
        let msg = run_failing(k);
        assert!(msg.starts_with("simulation deadlock") && msg.contains("stuck"));
        assert_eq!(Arc::strong_count(&witness), 1, "a context outlived run()");
    }

    /// `[grants to another context, grants to the yielding actor itself]`.
    fn grants_of(k: SimKernel) -> [u64; 2] {
        let inner = k.inner.clone();
        k.run();
        let grants = inner.state.lock().grants;
        grants
    }

    #[test]
    fn own_successor_runs_on_without_a_context_switch() {
        let k = SimKernel::new();
        k.spawn("solo", |ctx| (0..10).for_each(|_| ctx.advance(us(1))));
        // One switch in from `run()`, then ten grants to itself.
        assert_eq!(grants_of(k), [1, 10]);
    }

    #[test]
    fn own_event_still_yields_to_same_time_earlier_seq() {
        let k = SimKernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        k.spawn("first", move |ctx| {
            ctx.advance(us(5));
            l1.lock().push("first");
        });
        k.spawn("second", move |ctx| {
            ctx.advance(us(2)); // its own successor: "first" sleeps until 5
            ctx.advance(us(3)); // ties with "first" at 5, queued after it
            l2.lock().push("second");
        });
        assert_eq!(grants_of(k), [4, 1]);
        assert_eq!(*log.lock(), ["first", "second"]);
    }

    #[test]
    fn actor_finishing_mid_batch_hands_token_to_next_ready_entry() {
        let k = SimKernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for a in 0..3 {
            let log = log.clone();
            // All three wake in one same-time batch and finish inside it.
            k.spawn(&format!("a{a}"), move |ctx| {
                ctx.advance(us(1));
                log.lock().push(a);
            });
        }
        assert_eq!(k.run(), SimTime::ZERO + us(1));
        assert_eq!(*log.lock(), [0, 1, 2]);
    }

    /// What every kernel so far made of [`seeded_advances_log`].
    const PINNED_LOG: (usize, u64) = (400, 0x6188_c6ea_fc9d_3ba5);

    /// The `(time, actor)` log of 8 actors x 50 seeded advances: its length
    /// and FNV hash.
    fn seeded_advances_log() -> (usize, u64) {
        let k = SimKernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for a in 0..8u64 {
            let log = log.clone();
            k.spawn(&format!("a{a}"), move |ctx| {
                let mut rng = crate::Rng64::new(a);
                for _ in 0..50 {
                    ctx.advance(us(rng.range(1, 12)));
                    log.lock().push((ctx.now().as_nanos(), a));
                }
            });
        }
        k.run();
        let fnv = |h: u64, &(t, a): &(u64, u64)| (h ^ t ^ (a << 56)).wrapping_mul(0x100_0000_01b3);
        let hash = log.lock().iter().fold(0xcbf2_9ce4_8422_2325, fnv);
        let len = log.lock().len();
        (len, hash)
    }

    /// Dispatch order is `(time, seq)` whoever pops the event: the log is the
    /// same on every run, and hashes to what the scheduler-thread and the
    /// token-passing thread kernels this one replaced produced.
    #[test]
    fn determinism_across_runs_and_kernels() {
        assert_eq!(seeded_advances_log(), PINNED_LOG);
    }

    /// A kernel keeps no process-global state: eight of them, each driven by
    /// its own OS thread at once (what `cargo test` does to every test here),
    /// all produce the pinned log.
    #[test]
    fn concurrent_kernels_on_eight_os_threads_do_not_interfere() {
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..8).map(|_| s.spawn(seeded_advances_log)).collect();
            for run in runs {
                assert_eq!(run.join().unwrap(), PINNED_LOG);
            }
        });
    }

    #[test]
    fn dropping_an_unrun_kernel_drops_its_actors() {
        let k = SimKernel::new();
        let witness = Arc::new(());
        for name in ["a", "b"] {
            let held = witness.clone();
            k.spawn(name, move |_| drop(held));
        }
        assert_eq!(Arc::strong_count(&witness), 3);
        drop(k);
        assert_eq!(
            Arc::strong_count(&witness),
            1,
            "an unrun actor outlived its kernel"
        );
    }

    #[test]
    fn with_local_is_per_actor_and_per_type() {
        #[derive(Default)]
        struct Mine(u64);
        let k = SimKernel::new();
        for a in 1..=2u64 {
            // The two interleave: 1 wakes at 3, 6, 9, ...; 2 at 2, 4, 6, ...
            k.spawn(&format!("a{a}"), move |ctx| {
                assert_eq!(ctx.with_local(|m: &mut Mine| m.0), 0);
                for round in 0..5 {
                    ctx.with_local(|m: &mut Mine| m.0 += a);
                    ctx.advance(us(4 - a));
                    assert_eq!(ctx.with_local(|m: &mut Mine| m.0), a * (round + 1));
                }
                // A second type has a slot of its own.
                assert_eq!(ctx.with_local(|n: &mut u64| std::mem::replace(n, 7)), 0);
                assert_eq!(ctx.with_local(|m: &mut Mine| m.0), a * 5);
            });
        }
        k.run();
    }

    #[test]
    fn actor_can_recurse_through_over_a_mebibyte_of_stack() {
        /// Recurse, a kibibyte of live frame at a time, until 1.25 MiB below
        /// `top`; returns the depth reached.
        fn descend(ctx: &ActorCtx, top: usize) -> u64 {
            let frame = std::hint::black_box([1u8; 1024]);
            if top - frame.as_ptr() as usize > (5 << 20) / 4 {
                ctx.advance(us(1)); // switch away and back from the bottom
                return 0;
            }
            descend(ctx, top) + frame[frame.len() / 2] as u64
        }
        let k = SimKernel::new();
        k.spawn("deep", |ctx| {
            let top = 0u8;
            let depth = descend(ctx, &raw const top as usize);
            assert!((400..=1280).contains(&depth), "{depth} frames in 1.25 MiB");
        });
        k.spawn("other", |ctx| ctx.advance(us(2)));
        assert_eq!(k.run(), SimTime::ZERO + us(2));
    }

    #[test]
    fn yield_now_preserves_time() {
        let k = SimKernel::new();
        k.spawn("y", |ctx| {
            ctx.advance(us(4));
            let t = ctx.now();
            ctx.yield_now();
            assert_eq!(ctx.now(), t);
        });
        k.run();
    }
}
