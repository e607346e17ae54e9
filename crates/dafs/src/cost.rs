//! DAFS cost model and tunables.

use simnet::cost::HostCost;
use simnet::time::units::*;
use simnet::SimDuration;

/// Server-side cost constants.
#[derive(Debug, Clone, Copy)]
pub struct DafsServerCost {
    /// Fixed request dispatch + filesystem cost per operation. DAFS server
    /// prototypes ran a lean user-level event loop, well under the kernel
    /// RPC path's cost.
    pub per_op: SimDuration,
    /// Stable-storage flush (FLUSH op, synchronous creates). NVRAM-backed.
    pub sync: SimDuration,
    /// Host primitives: the buffer-cache copy of the inline paths. The
    /// buffer cache is registered with the NIC (NetApp-prototype style), so
    /// direct transfers DMA straight from cache pages and pay no copy.
    pub host: HostCost,
}

impl Default for DafsServerCost {
    fn default() -> Self {
        DafsServerCost {
            per_op: us(9),
            sync: us(30),
            host: HostCost::default(),
        }
    }
}

/// Client-side configuration and cost constants.
#[derive(Debug, Clone, Copy)]
pub struct DafsClientConfig {
    /// Largest payload carried inline in a single message (must fit the
    /// VI's 64 KiB MTU with headers).
    pub inline_max: u64,
    /// Requests strictly larger than this use direct (RDMA) transfer;
    /// smaller ones go inline. The paper-family's central tunable.
    pub direct_threshold: u64,
    /// Enable the client registration cache for direct-I/O buffers.
    pub use_regcache: bool,
    /// Client CPU per request (build + parse, beyond VIA posting costs).
    pub per_op: SimDuration,
    /// Host primitives (the inline-path copies).
    pub host: HostCost,
    /// Session re-establishment attempts after a transport failure before
    /// the error surfaces to the caller. Only exercised when the fabric
    /// carries a fault plan — a lossless fabric never breaks a session.
    /// The wait before each doubles from 1 ms (`RECONNECT_BACKOFF`).
    pub max_reconnects: u32,
    /// Request write-back leases for cached writes: dirty pages buffer at
    /// the client until flush, recall, or close. Off by default — cached
    /// writes then write through. (The cache itself is strictly opt-in:
    /// only files enrolled with [`crate::DafsClient::cache_file`] go
    /// through it, so a session that enrols none is byte-identical to one
    /// without it. Its page size is [`crate::CACHE_PAGE`].)
    pub cache_write_back: bool,
    /// QoS tenant declaration `(tenant id, weight)` carried in the session
    /// `Hello`. `None` (default) declares nothing — the session schedules
    /// as best-effort and the Hello wire bytes are unchanged. Only a server
    /// running a fairness policy acts on the weight.
    pub tenant: Option<(u64, u32)>,
}

impl Default for DafsClientConfig {
    fn default() -> Self {
        DafsClientConfig {
            inline_max: 32 << 10,
            direct_threshold: 8 << 10,
            use_regcache: true,
            per_op: us(4),
            host: HostCost::default(),
            max_reconnects: 8,
            cache_write_back: false,
            tenant: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = DafsClientConfig::default();
        assert!(c.direct_threshold <= c.inline_max);
        assert!(c.inline_max <= 64 << 10);
        let s = DafsServerCost::default();
        assert!(s.per_op < us(20), "DAFS per-op must undercut NFS's 20us");
    }
}
