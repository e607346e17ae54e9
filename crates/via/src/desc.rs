//! Descriptors, completions, and status codes.
//!
//! A VIA descriptor has a control segment (operation, immediate data,
//! status written back on completion), an optional address segment (remote
//! address + handle, for RDMA), and a list of local data segments. We keep
//! the same shape, minus the raw memory layout: descriptors are values the
//! application hands to `Vi::post_send` / `Vi::post_recv` and gets back from
//! the completion calls.

use simnet::{Bytes, Rope, SimTime, VirtAddr};

use crate::mem::{MemError, MemHandle};

/// Completion status written back into a descriptor's control segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViaStatus {
    /// Operation completed successfully.
    Success,
    /// A local data segment failed the translation-and-protection check.
    LocalProtectionError,
    /// The remote address segment failed the remote TPT check.
    RemoteProtectionError,
    /// Incoming data did not fit in the posted receive descriptor.
    LengthError,
    /// Descriptor was malformed (e.g. no segments, oversized transfer).
    DescriptorError,
    /// The connection was lost or the peer disconnected.
    ConnectionLost,
    /// The operation is not supported by this NIC (e.g. RDMA Read on cLAN).
    NotSupported,
}

impl ViaStatus {
    /// True for `Success`.
    pub fn is_ok(self) -> bool {
        self == ViaStatus::Success
    }
}

impl std::fmt::Display for ViaStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViaStatus::Success => "success",
            ViaStatus::LocalProtectionError => "local protection error",
            ViaStatus::RemoteProtectionError => "remote protection error",
            ViaStatus::LengthError => "receive descriptor too small",
            ViaStatus::DescriptorError => "malformed descriptor",
            ViaStatus::ConnectionLost => "connection lost",
            ViaStatus::NotSupported => "operation not supported by NIC",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ViaStatus {}

impl From<MemError> for ViaStatus {
    fn from(e: MemError) -> ViaStatus {
        match e {
            MemError::BadHandle | MemError::TagMismatch => ViaStatus::LocalProtectionError,
            MemError::OutOfBounds => ViaStatus::LocalProtectionError,
            MemError::RemoteAccessDenied => ViaStatus::RemoteProtectionError,
        }
    }
}

/// One local gather/scatter element: a range of registered memory.
#[derive(Debug, Clone, Copy)]
pub struct DataSegment {
    /// Start address within a registered region.
    pub addr: VirtAddr,
    /// Length in bytes.
    pub len: u32,
    /// Registration handle covering the range.
    pub handle: MemHandle,
}

impl DataSegment {
    /// Construct a segment.
    pub fn new(addr: VirtAddr, len: u32, handle: MemHandle) -> DataSegment {
        DataSegment { addr, len, handle }
    }
}

/// The remote half of an RDMA operation: where to write (or read) on the
/// peer, under which remote handle.
#[derive(Debug, Clone, Copy)]
pub struct RemoteSegment {
    /// Remote virtual address.
    pub addr: VirtAddr,
    /// Remote registration handle (communicated out of band, e.g. inside a
    /// DAFS request).
    pub handle: MemHandle,
}

/// Operation requested by a send descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOp {
    /// Two-sided send: consumes a posted receive descriptor on the peer.
    Send,
    /// One-sided RDMA Write into the peer's registered memory.
    RdmaWrite,
    /// One-sided RDMA Read from the peer's registered memory (optional
    /// capability; absent on the cLAN).
    RdmaRead,
}

/// A send-queue descriptor.
#[derive(Debug, Clone)]
pub struct SendDesc {
    /// Requested operation.
    pub op: SendOp,
    /// Local gather (for Send/RdmaWrite) or scatter (for RdmaRead) segments.
    pub segs: Vec<DataSegment>,
    /// Remote segment; required for RDMA ops, ignored for `Send`.
    pub remote: Option<RemoteSegment>,
    /// Immediate data delivered to the peer in the completion (forces a
    /// receive-descriptor consumption even for RDMA Write).
    pub imm: Option<u32>,
    /// Zero-copy payload override: when set, the NIC sends these bytes
    /// directly instead of gathering from the local segments' memory. The
    /// segments still describe the transfer (they are TPT-checked and drive
    /// every cost term exactly as before); only the bounce through the
    /// registered staging region is skipped. This is the simulated form of
    /// a zero-copy RDMA path: server pages → wire → client buffer. A rope,
    /// because a read that spans file pages lives in several slabs; an RDMA
    /// write places it piece by piece.
    pub payload: Option<Rope>,
}

impl SendDesc {
    /// A plain two-sided send gathering from `segs`.
    pub fn send(segs: Vec<DataSegment>) -> SendDesc {
        SendDesc {
            op: SendOp::Send,
            segs,
            remote: None,
            imm: None,
            payload: None,
        }
    }

    /// An RDMA Write from local `segs` to the `remote` segment.
    pub fn rdma_write(segs: Vec<DataSegment>, remote: RemoteSegment) -> SendDesc {
        SendDesc {
            op: SendOp::RdmaWrite,
            segs,
            remote: Some(remote),
            imm: None,
            payload: None,
        }
    }

    /// An RDMA Write that also delivers immediate data (consumes a receive
    /// descriptor on the peer, signalling the write).
    pub fn rdma_write_imm(segs: Vec<DataSegment>, remote: RemoteSegment, imm: u32) -> SendDesc {
        SendDesc {
            op: SendOp::RdmaWrite,
            segs,
            remote: Some(remote),
            imm: Some(imm),
            payload: None,
        }
    }

    /// An RDMA Read from the `remote` segment into local `segs`.
    pub fn rdma_read(segs: Vec<DataSegment>, remote: RemoteSegment) -> SendDesc {
        SendDesc {
            op: SendOp::RdmaRead,
            segs,
            remote: Some(remote),
            imm: None,
            payload: None,
        }
    }

    /// Attach a zero-copy payload (must match the segments' total length;
    /// checked at post time). A [`Bytes`] converts into a one-piece rope.
    pub fn with_payload(mut self, payload: impl Into<Rope>) -> SendDesc {
        self.payload = Some(payload.into());
        self
    }

    /// Total bytes named by the local segments.
    pub fn total_len(&self) -> u64 {
        self.segs.iter().map(|s| s.len as u64).sum()
    }
}

/// A receive-queue descriptor: scatter targets for one incoming message.
#[derive(Debug, Clone)]
pub struct RecvDesc {
    /// Scatter segments.
    pub segs: Vec<DataSegment>,
}

impl RecvDesc {
    /// Construct from scatter segments.
    pub fn new(segs: Vec<DataSegment>) -> RecvDesc {
        RecvDesc { segs }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.segs.iter().map(|s| s.len as u64).sum()
    }
}

/// Which work queue a completion came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhichQueue {
    /// The send queue.
    Send,
    /// The receive queue.
    Recv,
}

/// A completed descriptor, as returned by `send_done`/`recv_done`/CQ polls.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Final status.
    pub status: ViaStatus,
    /// Bytes actually transferred.
    pub len: u64,
    /// Immediate data from the peer, if any.
    pub imm: Option<u32>,
    /// Which queue completed.
    pub queue: WhichQueue,
    /// Virtual time at which the operation completed (data visible /
    /// delivered). Diagnostic; the actor's clock has already advanced to at
    /// least this instant when it observes the completion.
    pub at: SimTime,
    /// The delivered frame: a zero-copy view of the same bytes the NIC
    /// placed in the posted receive buffer. Every successful receive
    /// completion of a two-sided send carries it (`None` for send-queue
    /// completions, RDMA Write with immediate and failures). Consumers that
    /// only parse the message read this view: reading the buffer instead
    /// copies the placed frame out of it (`HostMem::place`).
    pub payload: Option<Bytes>,
}

impl Completion {
    /// A descriptor that completed on `queue` with `status` at `at`, having
    /// moved no bytes.
    pub(crate) fn failed(queue: WhichQueue, status: ViaStatus, at: SimTime) -> Completion {
        Completion {
            status,
            len: 0,
            imm: None,
            queue,
            at,
            payload: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(len: u32) -> DataSegment {
        DataSegment::new(VirtAddr(0x1000), len, MemHandle(1))
    }

    #[test]
    fn constructors_set_ops() {
        let s = SendDesc::send(vec![seg(10), seg(20)]);
        assert_eq!(s.op, SendOp::Send);
        assert_eq!(s.total_len(), 30);
        assert!(s.remote.is_none());

        let r = RemoteSegment {
            addr: VirtAddr(0x9000),
            handle: MemHandle(4),
        };
        let w = SendDesc::rdma_write(vec![seg(100)], r);
        assert_eq!(w.op, SendOp::RdmaWrite);
        assert!(w.remote.is_some());
        assert!(w.imm.is_none());

        let wi = SendDesc::rdma_write_imm(vec![seg(1)], r, 42);
        assert_eq!(wi.imm, Some(42));

        let rd = SendDesc::rdma_read(vec![seg(64)], r);
        assert_eq!(rd.op, SendOp::RdmaRead);
    }

    #[test]
    fn recv_capacity_sums_segments() {
        let d = RecvDesc::new(vec![seg(16), seg(16), seg(32)]);
        assert_eq!(d.capacity(), 64);
        assert_eq!(RecvDesc::new(vec![]).capacity(), 0);
    }

    #[test]
    fn status_conversion_from_mem_errors() {
        assert_eq!(
            ViaStatus::from(MemError::BadHandle),
            ViaStatus::LocalProtectionError
        );
        assert_eq!(
            ViaStatus::from(MemError::RemoteAccessDenied),
            ViaStatus::RemoteProtectionError
        );
        assert!(ViaStatus::Success.is_ok());
        assert!(!ViaStatus::LengthError.is_ok());
    }
}
