//! The DAFS client's configuration: what a table or test varies per
//! session. What nothing varies is a constant where it is charged — the
//! client's per-request CPU in `client.rs`, the server's costs in
//! [`crate::DafsServerCost`]'s one value, the NIC's in [`via::NIC`].

/// Client-side configuration.
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
    /// Session re-establishment attempts after a transport failure before
    /// the error surfaces to the caller. Only exercised when the fabric
    /// carries a fault plan — a lossless fabric never breaks a session.
    /// The first dial goes at once; the wait before each later one doubles
    /// from 1 ms (`RECONNECT_BACKOFF`), so the default 9 dials span 255 ms.
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
            max_reconnects: 9,
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
        assert!(c.inline_max <= via::MTU);
    }
}
