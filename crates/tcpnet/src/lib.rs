//! # tcpnet — the kernel network path (baseline transport)
//!
//! The paper's baseline moves file data through the conventional stack:
//! sockets, TCP/IP, the NIC driver, and the kernel's buffer copies. What
//! makes that path slow relative to VIA is not the wire — it is the *host*:
//! a system call and a user↔kernel copy on every send/receive, per-packet
//! protocol processing, and interrupt-driven receive handling that burns
//! server CPU. This crate models exactly those costs over the same `simnet`
//! substrate (and, deliberately, the same physical wire rate as the VIA
//! fabric, so measured differences are attributable to the stack).
//!
//! Cost placement:
//! * sender: `syscall + copy(n) + per_packet_tx × packets` charged to the
//!   sending actor (transmit-side protocol work runs in the send call);
//! * wire: serialization of payload + per-packet header bytes on the
//!   transmit port, cut-through into the receiver's port;
//! * receiver kernel: `per_packet_rx × packets` booked on the receiving
//!   host's *softirq* resource — it delays delivery and accumulates busy
//!   time without involving the receiving actor (interrupt context);
//! * receiver: `syscall + copy(n)` charged when the application reads.

#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::cost::HOST;
use simnet::fault::FaultPlan;
use simnet::obs::{LazyByteMeter, LazyCounter};
use simnet::time::units::*;
use simnet::{
    buf, ActorCtx, Bandwidth, Bytes, Host, HostId, Port, RecvUntil, Resource, SimDuration, SimTime,
};

/// Timing constants of the kernel network path. The paper measures one
/// platform, so [`Default`] is the only value: nothing sets a field. The
/// type and [`TcpFabric::new`]'s parameter stay only because the frozen
/// benchmark crate names them (ROADMAP item 25).
#[derive(Debug, Clone, Copy)]
pub struct TcpCost {
    /// TCP payload bytes per packet (Ethernet MTU minus headers).
    mtu_payload: u64,
    /// Header bytes per packet on the wire (Ethernet + IP + TCP).
    header_bytes: u64,
    /// Transmit-side protocol processing per packet (runs in the sender's
    /// send(2) call).
    per_packet_tx: SimDuration,
    /// Receive-side protocol + interrupt processing per packet (softirq),
    /// including software checksumming — 2001-era NICs lacked offload.
    per_packet_rx: SimDuration,
    /// One-way wire + switch propagation (driver queue included).
    wire_latency: SimDuration,
    /// Physical wire rate: the *same* rate as the VIA fabric, so the
    /// stacks are compared on an equal wire.
    wire_bw: Bandwidth,
}

impl Default for TcpCost {
    fn default() -> Self {
        TcpCost {
            mtu_payload: 1460,
            header_bytes: 58,
            per_packet_tx: us(12),
            per_packet_rx: us(25),
            wire_latency: us(30),
            wire_bw: Bandwidth::mb_per_sec(110),
        }
    }
}

impl TcpCost {
    /// Packets needed for `n` payload bytes (at least one).
    fn packets(&self, n: u64) -> u64 {
        n.div_ceil(self.mtu_payload).max(1)
    }

    /// Sender-side CPU time for a send(2) of `n` bytes.
    fn send_cpu(&self, n: u64) -> SimDuration {
        HOST.syscall + HOST.copy(n) + self.per_packet_tx.saturating_mul(self.packets(n))
    }

    /// Receiver-side application CPU for a recv(2) returning `n` bytes.
    fn recv_cpu(&self, n: u64) -> SimDuration {
        HOST.syscall + HOST.copy(n)
    }
}

/// Why a socket operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpError {
    /// Peer closed; not enough bytes remain to satisfy the read.
    Closed,
    /// No listener at the requested address.
    ConnectionRefused,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Closed => write!(f, "connection closed by peer"),
            TcpError::ConnectionRefused => write!(f, "connection refused"),
        }
    }
}

impl std::error::Error for TcpError {}

enum Chunk {
    Data(Bytes),
    Fin,
}

/// Per-host network-stack state.
struct HostNet {
    tx_wire: Resource,
    rx_wire: Resource,
    /// Interrupt-context packet processing; serial per host.
    softirq: Resource,
}

struct ConnRequest {
    client_port: Port<Chunk>,
    client_net: Arc<HostNet>,
    client_host: HostId,
    reply: Port<ConnReply>,
}

struct ConnReply {
    server_port: Port<Chunk>,
    server_net: Arc<HostNet>,
    server_host: HostId,
}

#[derive(Default)]
struct FabricState {
    listeners: HashMap<(HostId, u16), Port<ConnRequest>>,
    hosts: HashMap<HostId, Arc<HostNet>>,
    faults: Option<FaultPlan>,
}

/// The TCP "internet" connecting all hosts in the simulation.
#[derive(Clone)]
pub struct TcpFabric {
    state: Arc<Mutex<FabricState>>,
    cost: TcpCost,
}

impl TcpFabric {
    /// Create a fabric with the given cost model.
    pub fn new(cost: TcpCost) -> TcpFabric {
        TcpFabric {
            state: Arc::new(Mutex::new(FabricState::default())),
            cost,
        }
    }

    /// Attach a fault plan: sockets created after this call judge every
    /// segment against it (drops and jitter). Existing sockets are
    /// unaffected.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().faults = Some(plan);
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.state.lock().faults.clone()
    }

    fn hostnet(&self, host: &Host) -> Arc<HostNet> {
        let mut st = self.state.lock();
        st.hosts
            .entry(host.id)
            .or_insert_with(|| {
                let n = host.name();
                Arc::new(HostNet {
                    tx_wire: Resource::new(&format!("{n}.eth.tx")),
                    rx_wire: Resource::new(&format!("{n}.eth.rx")),
                    softirq: Resource::new(&format!("{n}.softirq")),
                })
            })
            .clone()
    }

    /// Kernel (softirq) CPU time consumed on `host` by packet receive
    /// processing so far — part of the host-overhead accounting.
    pub fn kernel_busy(&self, host: &Host) -> SimDuration {
        self.hostnet(host).softirq.busy_total()
    }

    /// Begin listening at `(host, port)`.
    pub fn listen(&self, host: &Host, port: u16) -> TcpListener {
        let key = (host.id, port);
        let p: Port<ConnRequest> = Port::new(&format!("tcp-listen:{}:{}", host.name(), port));
        let prev = self.state.lock().listeners.insert(key, p.clone());
        assert!(prev.is_none(), "TCP address {key:?} already in use");
        TcpListener {
            fabric: self.clone(),
            requests: p,
            host: host.clone(),
        }
    }

    /// Connect from `host` to `(remote, port)`. One round trip of handshake.
    pub fn connect(
        &self,
        ctx: &ActorCtx,
        host: &Host,
        remote: HostId,
        port: u16,
    ) -> Result<Socket, TcpError> {
        let listener = self
            .state
            .lock()
            .listeners
            .get(&(remote, port))
            .cloned()
            .ok_or(TcpError::ConnectionRefused)?;
        host.compute(ctx, HOST.syscall);
        let my_port: Port<Chunk> = Port::new("tcp-sock");
        let reply: Port<ConnReply> = Port::new("tcp-synack");
        listener.send(
            ctx,
            ConnRequest {
                client_port: my_port.clone(),
                client_net: self.hostnet(host),
                client_host: host.id,
                reply: reply.clone(),
            },
            ctx.now() + self.cost.wire_latency,
        );
        let r = reply.recv(ctx).ok_or(TcpError::ConnectionRefused)?;
        let faults = self.state.lock().faults.clone();
        Ok(Socket {
            inner: Arc::new(SocketInner {
                cost: self.cost,
                local_host: host.clone(),
                local_net: self.hostnet(host),
                peer_net: r.server_net,
                peer_host: r.server_host,
                peer_port: r.server_port,
                incoming: my_port,
                buffer: Mutex::default(),
                fin_seen: Mutex::new(false),
                last_deliver: Mutex::new(simnet::SimTime::ZERO),
                faults,
                meters: Meters::default(),
            }),
        })
    }
}

/// A listening TCP endpoint.
pub struct TcpListener {
    fabric: TcpFabric,
    requests: Port<ConnRequest>,
    host: Host,
}

impl TcpListener {
    /// Accept the next connection (blocks in virtual time). `None` when the
    /// listener is closed.
    pub fn accept(&self, ctx: &ActorCtx) -> Option<Socket> {
        let req = self.requests.recv(ctx)?;
        self.host.compute(ctx, HOST.syscall);
        let my_port: Port<Chunk> = Port::new("tcp-sock");
        req.reply.send(
            ctx,
            ConnReply {
                server_port: my_port.clone(),
                server_net: self.fabric.hostnet(&self.host),
                server_host: self.host.id,
            },
            ctx.now() + self.fabric.cost.wire_latency,
        );
        let faults = self.fabric.state.lock().faults.clone();
        Some(Socket {
            inner: Arc::new(SocketInner {
                cost: self.fabric.cost,
                local_host: self.host.clone(),
                local_net: self.fabric.hostnet(&self.host),
                peer_net: req.client_net,
                peer_host: req.client_host,
                peer_port: req.client_port,
                incoming: my_port,
                buffer: Mutex::default(),
                fin_seen: Mutex::new(false),
                last_deliver: Mutex::new(simnet::SimTime::ZERO),
                faults,
                meters: Meters::default(),
            }),
        })
    }

    /// Stop accepting.
    pub fn close(&self, ctx: &ActorCtx) {
        self.requests.close(ctx);
    }
}

/// The stream's arrived, unread bytes: the chunks as they came, the first
/// one cut down to its unread tail.
#[derive(Default)]
struct RecvBuf {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl RecvBuf {
    fn push(&mut self, chunk: Bytes) {
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// The next `n` bytes, once that many have arrived: a view of the
    /// front chunk when they lie in it (a whole segment read whole is the
    /// sender's frame), else one concatenation into a pooled frame.
    fn take(&mut self, n: usize) -> Option<Bytes> {
        if self.len < n {
            return None;
        }
        self.len -= n;
        if let Some(first) = self.chunks.front_mut().filter(|f| n <= f.len()) {
            let out = first.slice(..n);
            *first = first.slice(n..);
            if first.is_empty() {
                self.chunks.pop_front();
            }
            return Some(out);
        }
        let mut out = buf::frame_pool().alloc(n);
        while out.len() < n {
            let first = self.chunks.front_mut().expect("len counts the chunks");
            let k = first.len().min(n - out.len());
            out.extend_from_slice(&first.as_slice()[..k]);
            if k == first.len() {
                self.chunks.pop_front();
            } else {
                *first = first.slice(k..);
            }
        }
        Some(out.freeze())
    }
}

struct SocketInner {
    cost: TcpCost,
    local_host: Host,
    local_net: Arc<HostNet>,
    peer_net: Arc<HostNet>,
    peer_host: HostId,
    peer_port: Port<Chunk>,
    incoming: Port<Chunk>,
    buffer: Mutex<RecvBuf>,
    fin_seen: Mutex<bool>,
    /// Latest delivery instant scheduled toward the peer; FIN is ordered
    /// after all data, as in a real TCP stream.
    last_deliver: Mutex<simnet::SimTime>,
    /// Fault plan captured at connection time; `None` leaves the data path
    /// byte-identical to the pre-fault-injection code.
    faults: Option<FaultPlan>,
    meters: Meters,
}

/// The stack's per-segment metrics, looked up once per socket rather than
/// by name on every segment.
struct Meters {
    tx_bytes: LazyByteMeter,
    packets: LazyCounter,
    rx_bytes: LazyByteMeter,
}

impl Default for Meters {
    fn default() -> Meters {
        Meters {
            tx_bytes: LazyByteMeter::new("tcp.tx.bytes"),
            packets: LazyCounter::new("tcp.packets"),
            rx_bytes: LazyByteMeter::new("tcp.rx.bytes"),
        }
    }
}

/// A connected stream socket.
///
/// Cloning shares the socket (so one actor can read while another writes,
/// as with `dup(2)`), but only one actor may block in `recv_exact` at a
/// time.
#[derive(Clone)]
pub struct Socket {
    inner: Arc<SocketInner>,
}

impl Socket {
    /// The host this socket belongs to.
    pub fn host(&self) -> &Host {
        &self.inner.local_host
    }

    /// Send all of `bytes` (blocking send(2) semantics; charges the full
    /// sender-side CPU cost, then queues the wire transfer asynchronously).
    /// The user→kernel copy happens here, into a pooled frame; everything
    /// downstream shares the frame by reference.
    pub fn send(&self, ctx: &ActorCtx, bytes: &[u8]) {
        let mut frame = buf::frame_pool().alloc(bytes.len());
        frame.extend_from_slice(bytes);
        self.send_bytes(ctx, frame.freeze());
    }

    /// [`Socket::send`] over an already-refcounted frame: zero wall-clock
    /// copies on the transmit side.
    pub fn send_bytes(&self, ctx: &ActorCtx, bytes: Bytes) {
        let s = &self.inner;
        let n = bytes.len() as u64;
        s.local_host.compute(ctx, s.cost.send_cpu(n));
        let npkts = s.cost.packets(n);
        s.meters.tx_bytes.resolve(ctx.metrics()).record(n);
        s.meters.packets.resolve(ctx.metrics()).add(npkts);
        ctx.trace(
            "tcp",
            "segment.tx",
            &[
                ("bytes", obs::Value::U64(n)),
                ("packets", obs::Value::U64(npkts)),
            ],
        );
        let wire_bytes = n + npkts * s.cost.header_bytes;
        let ser = s.cost.wire_bw.time_for(wire_bytes);
        let (tx_start, _) = s.local_net.tx_wire.book_span(ctx.now(), ser);
        // An injected fault loses the whole segment after the sender has
        // paid its transmit cost; the receiver never sees it (no rx-side
        // resource is booked). Message boundaries match `send` calls, so a
        // drop always loses a whole framed RPC, never a partial frame.
        if let Some(f) = &s.faults {
            if f.should_drop(
                ctx,
                s.local_host.id,
                s.peer_host,
                tx_start + s.cost.wire_latency,
            )
            .is_some()
            {
                return;
            }
        }
        let rx_done = s.peer_net.rx_wire.book(tx_start + s.cost.wire_latency, ser);
        // Interrupt-context processing on the receiving host delays
        // delivery and accrues that host's kernel busy time.
        let mut deliver = s
            .peer_net
            .softirq
            .book(rx_done, s.cost.per_packet_rx.saturating_mul(npkts));
        if let Some(f) = &s.faults {
            deliver = f.jitter(ctx, s.local_host.id, s.peer_host, deliver);
        }
        {
            let mut last = s.last_deliver.lock();
            *last = (*last).max(deliver);
        }
        s.peer_port.send(ctx, Chunk::Data(bytes), deliver);
    }

    /// Read exactly `n` bytes (blocking). Charges receiver-side CPU for the
    /// bytes returned, which are views of what arrived: the kernel-to-user
    /// copy is modelled, not made.
    pub fn recv_exact(&self, ctx: &ActorCtx, n: usize) -> Result<Bytes, TcpError> {
        self.recv_exact_by(ctx, n, None)
            .map(|got| got.expect("no deadline to pass"))
    }

    /// Like [`Socket::recv_exact`], but give up once the caller's clock
    /// reaches `deadline` without `n` bytes available. `Ok(None)` means the
    /// deadline passed (the clock has advanced to it) — the retransmit
    /// timer primitive for RPC layers. Already-buffered partial data is
    /// kept for the next read.
    pub fn recv_exact_deadline(
        &self,
        ctx: &ActorCtx,
        n: usize,
        deadline: SimTime,
    ) -> Result<Option<Bytes>, TcpError> {
        self.recv_exact_by(ctx, n, Some(deadline))
    }

    /// The one receive loop. Without a deadline the wait parks on the port
    /// (no timer event), with one it sleeps toward it.
    fn recv_exact_by(
        &self,
        ctx: &ActorCtx,
        n: usize,
        deadline: Option<SimTime>,
    ) -> Result<Option<Bytes>, TcpError> {
        let s = &self.inner;
        loop {
            let got = s.buffer.lock().take(n);
            if let Some(out) = got {
                s.local_host.compute(ctx, s.cost.recv_cpu(n as u64));
                s.meters.rx_bytes.resolve(ctx.metrics()).record(n as u64);
                ctx.trace("tcp", "segment.rx", &[("bytes", obs::Value::U64(n as u64))]);
                return Ok(Some(out));
            }
            if *s.fin_seen.lock() {
                return Err(TcpError::Closed);
            }
            let chunk = match deadline {
                None => s.incoming.recv(ctx),
                Some(at) => match s.incoming.recv_until(ctx, at) {
                    RecvUntil::Msg(chunk) => Some(chunk),
                    RecvUntil::Closed => None,
                    RecvUntil::TimedOut => return Ok(None),
                },
            };
            match chunk {
                Some(Chunk::Data(d)) => s.buffer.lock().push(d),
                Some(Chunk::Fin) | None => *s.fin_seen.lock() = true,
            }
        }
    }

    /// Half-close: the peer's reads will drain then fail with `Closed`.
    pub fn close(&self, ctx: &ActorCtx) {
        let s = &self.inner;
        s.local_host.compute(ctx, HOST.syscall);
        let at = (ctx.now() + s.cost.wire_latency).max(*s.last_deliver.lock());
        s.peer_port.send(ctx, Chunk::Fin, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cluster, SimKernel};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Bed {
        kernel: SimKernel,
        fabric: TcpFabric,
        a: Host,
        b: Host,
        cluster: Cluster,
    }

    fn bed() -> Bed {
        let kernel = SimKernel::new();
        let cluster = Cluster::new();
        let fabric = TcpFabric::new(TcpCost::default());
        Bed {
            kernel,
            fabric,
            a: cluster.add_host("a"),
            b: cluster.add_host("b"),
            cluster,
        }
    }

    #[test]
    fn stream_roundtrip_preserves_bytes() {
        let t = bed();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            // Reads cut the stream where they like: inside the first
            // segment, then across its tail and the whole second one.
            assert_eq!(s.recv_exact(ctx, 3).unwrap(), &b"012"[..]);
            assert_eq!(s.recv_exact(ctx, 7).unwrap(), &b"3456789"[..]);
            s.send(ctx, b"ok");
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            // Two sends, read at other boundaries on the far side (stream
            // semantics).
            s.send(ctx, b"01234");
            s.send(ctx, b"56789");
            assert_eq!(s.recv_exact(ctx, 2).unwrap(), &b"ok"[..]);
        });
        t.kernel.run();
    }

    /// A segment read whole is handed over by reference: the receiver gets
    /// a view of the frame the sender passed to `send_bytes`, at the same
    /// address, as an RPC record is read. (Reads that cut segments are
    /// `stream_roundtrip_preserves_bytes`.)
    #[test]
    fn a_whole_segment_arrives_as_the_senders_frame() {
        let t = bed();
        let sent = Arc::new(AtomicU64::new(0));
        let got = sent.clone();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            let hdr = s.recv_exact(ctx, 4).unwrap();
            let body = s.recv_exact(ctx, 4096).unwrap();
            let at = got.load(Ordering::Relaxed);
            assert_eq!((hdr.as_ptr() as u64, body.as_ptr() as u64), (at, at + 4));
            assert!(body.iter().all(|&b| b == 0x5A));
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            let mut frame = vec![0u8; 4];
            frame.resize(4 + 4096, 0x5A);
            let frame = Bytes::from_vec(frame);
            sent.store(frame.as_ptr() as u64, Ordering::Relaxed);
            s.send_bytes(ctx, frame);
        });
        t.kernel.run();
    }

    #[test]
    fn small_rpc_latency_much_higher_than_via() {
        let t = bed();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            while let Ok(_req) = s.recv_exact(ctx, 16) {
                s.send(ctx, &[0u8; 16]);
            }
        });
        let rtt_ns = Arc::new(AtomicU64::new(0));
        let out = rtt_ns.clone();
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            let t0 = ctx.now();
            const N: u64 = 10;
            for _ in 0..N {
                s.send(ctx, &[1u8; 16]);
                s.recv_exact(ctx, 16).unwrap();
            }
            out.store(ctx.now().since(t0).as_nanos() / N, Ordering::Relaxed);
            s.close(ctx);
        });
        t.kernel.run();
        let rtt_us = rtt_ns.load(Ordering::Relaxed) as f64 / 1000.0;
        // Small-message RTT through the kernel stack lands near 120–160 us —
        // an order of magnitude above VIA's ~15 us RTT.
        assert!((100.0..200.0).contains(&rtt_us), "TCP 16B RTT = {rtt_us}us");
    }

    #[test]
    fn bulk_throughput_is_host_limited() {
        let t = bed();
        const CHUNK: usize = 32 << 10;
        const COUNT: usize = 64;
        let l = t.fabric.listen(&t.b, 80);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            let t0 = ctx.now();
            for _ in 0..COUNT {
                s.recv_exact(ctx, CHUNK).unwrap();
            }
            d2.store(ctx.now().since(t0).as_nanos(), Ordering::Relaxed);
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            let data = vec![7u8; CHUNK];
            for _ in 0..COUNT {
                s.send(ctx, &data);
            }
        });
        t.kernel.run();
        let secs = done.load(Ordering::Relaxed) as f64 / 1e9;
        let mb_s = (CHUNK * COUNT) as f64 / secs / 1e6;
        // The wire could carry 110 MB/s, but per-packet processing and
        // copies throttle the stream well below it.
        assert!(
            (20.0..70.0).contains(&mb_s),
            "TCP bulk throughput = {mb_s} MB/s; expected host-limited"
        );
    }

    #[test]
    fn receiver_kernel_time_accrues() {
        let t = bed();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            let _ = s.recv_exact(ctx, 1 << 20);
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            s.send(ctx, &vec![0u8; 1 << 20]);
        });
        t.kernel.run();
        // 1 MiB = ~719 packets at 25us each ≈ 18 ms of softirq time.
        let kb = t.fabric.kernel_busy(&t.b).as_secs_f64();
        assert!((0.014..0.022).contains(&kb), "softirq busy = {kb}s");
        // Sender burned real CPU too (copies + per-packet tx).
        assert!(t.a.cpu.busy() > SimDuration::from_millis(5));
    }

    #[test]
    fn connect_to_closed_port_refused() {
        let t = bed();
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            assert_eq!(
                f.connect(ctx, &a, bid, 9999).err(),
                Some(TcpError::ConnectionRefused)
            );
        });
        t.kernel.run();
    }

    #[test]
    fn close_then_recv_returns_closed() {
        let t = bed();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            // Drain what was sent, then observe close.
            assert_eq!(s.recv_exact(ctx, 3).unwrap(), &b"end"[..]);
            assert_eq!(s.recv_exact(ctx, 1), Err(TcpError::Closed));
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            s.send(ctx, b"end");
            s.close(ctx);
        });
        t.kernel.run();
    }

    #[test]
    fn two_flows_serialize_on_server_softirq() {
        let t = bed();
        let c2 = t.cluster.add_host("c2");
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s1 = l.accept(ctx).unwrap();
            let s2 = l.accept(ctx).unwrap();
            let _ = s1.recv_exact(ctx, 256 << 10);
            let _ = s2.recv_exact(ctx, 256 << 10);
        });
        for (i, h) in [t.a.clone(), c2].into_iter().enumerate() {
            let (f, bid) = (t.fabric.clone(), t.b.id);
            t.kernel.spawn(&format!("client{i}"), move |ctx| {
                ctx.advance(us(i as u64 * 100));
                let s = f.connect(ctx, &h, bid, 80).unwrap();
                s.send(ctx, &vec![0u8; 256 << 10]);
            });
        }
        t.kernel.run();
        let pkts = TcpCost::default().packets(256 << 10) * 2;
        let expect = TcpCost::default().per_packet_rx.saturating_mul(pkts);
        assert_eq!(t.fabric.kernel_busy(&t.b), expect);
    }

    #[test]
    fn lossy_link_drops_whole_segments() {
        use simnet::fault::FaultPlan;
        let t = bed();
        // Loss probability 1 on the a<->b link: nothing gets through, and
        // the receiver's deadline read observes the loss as a timeout.
        t.fabric
            .set_fault_plan(FaultPlan::builder(3).link_loss(t.a.id, t.b.id, 1.0).build());
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            assert_eq!(
                s.recv_exact_deadline(ctx, 4, ctx.now() + ms(10)).unwrap(),
                None,
                "every segment should be lost"
            );
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            s.send(ctx, b"gone");
        });
        t.kernel.run();
    }

    #[test]
    fn recv_exact_deadline_happy_path_matches_recv_exact() {
        let t = bed();
        let l = t.fabric.listen(&t.b, 80);
        t.kernel.spawn_daemon("server", move |ctx| {
            let s = l.accept(ctx).unwrap();
            let got = s
                .recv_exact_deadline(ctx, 5, ctx.now() + ms(100))
                .unwrap()
                .unwrap();
            assert_eq!(got, &b"hello"[..]);
            s.send(ctx, b"ok");
        });
        let (f, a, bid) = (t.fabric.clone(), t.a.clone(), t.b.id);
        t.kernel.spawn("client", move |ctx| {
            let s = f.connect(ctx, &a, bid, 80).unwrap();
            s.send(ctx, b"hello");
            assert_eq!(s.recv_exact(ctx, 2).unwrap(), &b"ok"[..]);
        });
        t.kernel.run();
    }

    #[test]
    fn cost_helpers() {
        let c = TcpCost::default();
        assert_eq!(c.packets(0), 1);
        assert_eq!(c.packets(1460), 1);
        assert_eq!(c.packets(1461), 2);
        assert!(c.send_cpu(1 << 20) > c.recv_cpu(1 << 20));
    }
}
