//! The host-side (CPU) cost model, calibrated to the 2001-era platform the
//! paper's testbed represents (Pentium-III class nodes, GigaNet cLAN VIA
//! NICs, Fast/Gigabit Ethernet kernel path).
//!
//! Every host runs at the one rate [`HOST`], so the DAFS and NFS stacks
//! price a syscall and a memcpy the same way: the comparison's differences
//! are in how many each stack makes, never in what one costs. A copy a host
//! makes is charged with [`crate::Host::copy`]; the transport-specific
//! models (`via::ViaCost`, `tcpnet::TcpCost`) read [`HOST`] for the
//! host-side terms they sum or compare.

use crate::time::{Bandwidth, SimDuration};

/// Host-side (CPU) cost constants.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    /// One user↔kernel crossing (trap + return).
    pub syscall: SimDuration,
    /// Fixed cost of starting any memcpy (cache-line setup, call overhead).
    pub memcpy_setup: SimDuration,
    /// Sustainable copy bandwidth of the host memory system.
    pub memcpy_bw: Bandwidth,
}

/// The CPU costs of every simulated host.
pub const HOST: HostCost = HostCost {
    syscall: SimDuration::from_nanos(3_000),
    memcpy_setup: SimDuration::from_nanos(150),
    // P-III era SDRAM copy bandwidth.
    memcpy_bw: Bandwidth::mb_per_sec(400),
};

impl HostCost {
    /// CPU time to copy `bytes` once.
    pub fn copy(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.memcpy_setup + self.memcpy_bw.time_for(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::units::*;

    #[test]
    fn default_values_sane() {
        assert_eq!(HOST.syscall, us(3));
    }

    #[test]
    fn copy_scales_with_size() {
        assert_eq!(HOST.copy(0), SimDuration::ZERO);
        let small = HOST.copy(64);
        let big = HOST.copy(1 << 20);
        assert!(big > small * 100);
        // 1 MiB at 400 MB/s ≈ 2.62 ms.
        assert!(big.as_secs_f64() > 0.0025 && big.as_secs_f64() < 0.0028);
    }
}
