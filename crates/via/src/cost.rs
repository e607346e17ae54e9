//! VIA cost model, calibrated to published GigaNet cLAN / VIPL numbers
//! (≈7.5 µs one-way small-message latency, ≈110 MB/s application-level
//! bandwidth, memory registration tens of microseconds).
//!
//! The constants are deliberately centralized so ablation experiments can
//! sweep them; see `DESIGN.md` §4.3 for the calibration table.

use simnet::cost::HOST;
use simnet::time::units::*;
use simnet::{Bandwidth, SimDuration};

/// All timing constants of the simulated VIA provider + NIC.
#[derive(Debug, Clone, Copy)]
pub struct ViaCost {
    /// Wire + switch propagation, one way.
    pub wire_latency: SimDuration,
    /// Application-level wire bandwidth (per NIC port direction).
    pub wire_bw: Bandwidth,
    /// Host cost of posting a send descriptor (build + doorbell write).
    pub post_send: SimDuration,
    /// Host cost of posting a receive descriptor.
    pub post_recv: SimDuration,
    /// Additional host cost per data segment in a descriptor.
    pub per_segment: SimDuration,
    /// NIC processing per message on the transmit side (fetch descriptor,
    /// start DMA).
    pub tx_nic_proc: SimDuration,
    /// NIC processing per message on the receive side (match descriptor,
    /// place data, write completion).
    pub rx_nic_proc: SimDuration,
    /// Host cost of one completion-queue / work-queue poll.
    pub poll: SimDuration,
    /// Fixed cost of registering a memory region (pin pages, program the
    /// NIC's translation table).
    pub reg_base: SimDuration,
    /// Incremental registration cost per 4 KiB page.
    pub reg_per_page: SimDuration,
    /// Cost of deregistering a region.
    pub dereg: SimDuration,
    /// Whether the NIC supports RDMA Read (optional in the VIA spec; the
    /// cLAN did *not*, which shapes how DAFS implements direct writes).
    pub rdma_read_supported: bool,
}

impl Default for ViaCost {
    fn default() -> Self {
        ViaCost {
            wire_latency: us(5),
            wire_bw: Bandwidth::mb_per_sec(110),
            post_send: SimDuration::from_nanos(600),
            post_recv: SimDuration::from_nanos(400),
            per_segment: SimDuration::from_nanos(300),
            tx_nic_proc: us(1),
            rx_nic_proc: us(1),
            poll: SimDuration::from_nanos(200),
            reg_base: us(25),
            reg_per_page: SimDuration::from_nanos(1_200),
            dereg: us(8),
            rdma_read_supported: false,
        }
    }
}

impl ViaCost {
    /// Registration cost for a region of `len` bytes.
    pub fn registration(&self, len: u64) -> SimDuration {
        let pages = len.div_ceil(4096).max(1);
        self.reg_base + self.reg_per_page.saturating_mul(pages)
    }

    /// One-way delivery time for a message of `bytes`, excluding queueing:
    /// tx NIC processing + serialization + propagation + rx NIC processing.
    pub fn unloaded_one_way(&self, bytes: u64) -> SimDuration {
        self.tx_nic_proc + self.wire_bw.time_for(bytes) + self.wire_latency + self.rx_nic_proc
    }

    /// The gather floor: true if `len` bytes in `segments` pieces cost the
    /// host less posted as one data segment each than copied once at the
    /// host rate ([`HOST`]) — the point past which a message is sent from
    /// (or received into) the pieces where they lie.
    pub fn gathers(&self, len: u64, segments: usize) -> bool {
        HOST.copy(len) > self.per_segment * segments as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_latency_matches_clan() {
        let c = ViaCost::default();
        // post_send + one-way path for a 16-byte message should land in the
        // published 7–9 us envelope.
        let total = c.post_send + c.unloaded_one_way(16);
        let usecs = total.as_micros_f64();
        assert!((7.0..9.0).contains(&usecs), "one-way small msg = {usecs}us");
    }

    #[test]
    fn registration_scales_per_page() {
        let c = ViaCost::default();
        let one_page = c.registration(100);
        let many = c.registration(1 << 20); // 256 pages
        assert_eq!(one_page, c.reg_base + c.reg_per_page);
        assert_eq!(many, c.reg_base + c.reg_per_page * 256);
    }

    #[test]
    fn bandwidth_dominates_large_messages() {
        let c = ViaCost::default();
        let t = c.unloaded_one_way(1 << 20);
        // 1 MiB at 110 MB/s ≈ 9.5 ms; fixed costs are negligible.
        let mb_per_s = (1 << 20) as f64 / t.as_secs_f64() / 1e6;
        assert!((100.0..110.5).contains(&mb_per_s), "rate {mb_per_s} MB/s");
    }
}
