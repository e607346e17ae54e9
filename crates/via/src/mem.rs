//! Memory registration and protection: the VIA translation-and-protection
//! table (TPT).
//!
//! Before a buffer can appear in a descriptor, the application must register
//! it (`VipRegisterMem`): the OS pins the pages and the NIC records the
//! region with its *protection tag*. Every data access the NIC performs —
//! local gather/scatter or remote RDMA — is checked against the table; a
//! mismatch completes the descriptor with a protection error rather than
//! touching memory, exactly as on hardware.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::VirtAddr;

/// A protection tag (`VIP_PTAG`): the unit of access control. VIs and memory
/// regions carry a tag; they interoperate only when tags match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtectionTag(pub u64);

/// Handle naming a registered memory region (`VIP_MEM_HANDLE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemHandle(pub u64);

/// Attributes of a registered region.
#[derive(Debug, Clone, Copy)]
pub struct MemAttributes {
    /// Protection tag the region is bound to.
    pub ptag: ProtectionTag,
    /// Whether remote VIs may RDMA-write into this region.
    pub enable_rdma_write: bool,
    /// Whether remote VIs may RDMA-read from this region.
    pub enable_rdma_read: bool,
}

impl MemAttributes {
    /// Local-only region: no remote access rights.
    pub fn local(ptag: ProtectionTag) -> MemAttributes {
        MemAttributes {
            ptag,
            enable_rdma_write: false,
            enable_rdma_read: false,
        }
    }

    /// Region a remote peer may RDMA-write into (DAFS direct-read targets).
    pub fn rdma_write_target(ptag: ProtectionTag) -> MemAttributes {
        MemAttributes {
            ptag,
            enable_rdma_write: true,
            enable_rdma_read: false,
        }
    }

    /// Region a remote peer may RDMA-read from (DAFS direct-write sources,
    /// only meaningful when the NIC supports RDMA Read).
    pub fn rdma_read_source(ptag: ProtectionTag) -> MemAttributes {
        MemAttributes {
            ptag,
            enable_rdma_write: false,
            enable_rdma_read: true,
        }
    }
}

#[derive(Debug, Clone)]
struct Region {
    addr: VirtAddr,
    len: u64,
    attrs: MemAttributes,
}

/// Why a memory check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Handle does not name a live registration.
    BadHandle,
    /// Access range falls outside the registered region.
    OutOfBounds,
    /// Protection tag does not match the region's.
    TagMismatch,
    /// Region does not permit the requested remote operation.
    RemoteAccessDenied,
}

/// The kind of access being validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// NIC gather/scatter on behalf of the local VI.
    Local,
    /// Incoming RDMA Write.
    RemoteWrite,
    /// Incoming RDMA Read.
    RemoteRead,
}

/// The NIC's translation-and-protection table. Cloned handles share state
/// (the table lives on the NIC).
#[derive(Clone, Default)]
pub struct RegistrationTable {
    inner: Arc<Mutex<BTreeMap<u64, Region>>>,
    next: Arc<AtomicU64>,
    registered_bytes: Arc<AtomicU64>,
}

impl RegistrationTable {
    /// Create an empty table.
    pub fn new() -> RegistrationTable {
        RegistrationTable::default()
    }

    /// Register `[addr, addr+len)`; returns the new handle.
    pub fn register(&self, addr: VirtAddr, len: u64, attrs: MemAttributes) -> MemHandle {
        assert!(len > 0, "cannot register an empty region");
        let id = crate::update(&self.next, |v| v + 1) + 1;
        self.inner.lock().insert(id, Region { addr, len, attrs });
        crate::update(&self.registered_bytes, |v| v + len);
        MemHandle(id)
    }

    /// Deregister a handle. Returns the region length, or `Err(BadHandle)`.
    pub fn deregister(&self, h: MemHandle) -> Result<u64, MemError> {
        match self.inner.lock().remove(&h.0) {
            Some(r) => {
                crate::update(&self.registered_bytes, |v| v - r.len);
                Ok(r.len)
            }
            None => Err(MemError::BadHandle),
        }
    }

    /// Validate an access of `len` bytes at `addr` under handle `h` and tag
    /// `ptag`, for the given kind of access.
    pub fn check(
        &self,
        h: MemHandle,
        ptag: ProtectionTag,
        addr: VirtAddr,
        len: u64,
        kind: AccessKind,
    ) -> Result<(), MemError> {
        let tbl = self.inner.lock();
        let r = tbl.get(&h.0).ok_or(MemError::BadHandle)?;
        if r.attrs.ptag != ptag {
            return Err(MemError::TagMismatch);
        }
        if addr < r.addr || addr.as_u64() + len > r.addr.as_u64() + r.len {
            return Err(MemError::OutOfBounds);
        }
        match kind {
            AccessKind::Local => Ok(()),
            AccessKind::RemoteWrite if r.attrs.enable_rdma_write => Ok(()),
            AccessKind::RemoteRead if r.attrs.enable_rdma_read => Ok(()),
            _ => Err(MemError::RemoteAccessDenied),
        }
    }

    /// Total bytes currently registered (for the registration-cost reports).
    pub fn registered_bytes(&self) -> u64 {
        self.registered_bytes.load(Ordering::Relaxed)
    }

    /// Number of live registrations.
    pub fn live_regions(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG: ProtectionTag = ProtectionTag(7);
    const OTHER: ProtectionTag = ProtectionTag(8);

    #[test]
    fn register_check_deregister() {
        let t = RegistrationTable::new();
        let h = t.register(VirtAddr(0x1000), 4096, MemAttributes::local(TAG));
        assert_eq!(t.live_regions(), 1);
        assert_eq!(t.registered_bytes(), 4096);
        assert!(t
            .check(h, TAG, VirtAddr(0x1000), 4096, AccessKind::Local)
            .is_ok());
        assert_eq!(t.deregister(h), Ok(4096));
        assert_eq!(
            t.check(h, TAG, VirtAddr(0x1000), 1, AccessKind::Local),
            Err(MemError::BadHandle)
        );
        assert_eq!(t.deregister(h), Err(MemError::BadHandle));
        assert_eq!(t.registered_bytes(), 0);
    }

    #[test]
    fn bounds_are_enforced() {
        let t = RegistrationTable::new();
        let h = t.register(VirtAddr(0x2000), 100, MemAttributes::local(TAG));
        // Interior access: fine.
        assert!(t
            .check(h, TAG, VirtAddr(0x2000 + 50), 50, AccessKind::Local)
            .is_ok());
        // One byte past the end: rejected.
        assert_eq!(
            t.check(h, TAG, VirtAddr(0x2000 + 50), 51, AccessKind::Local),
            Err(MemError::OutOfBounds)
        );
        // Below the base: rejected.
        assert_eq!(
            t.check(h, TAG, VirtAddr(0x1FFF), 2, AccessKind::Local),
            Err(MemError::OutOfBounds)
        );
    }

    #[test]
    fn protection_tag_mismatch() {
        let t = RegistrationTable::new();
        let h = t.register(VirtAddr(0x1000), 10, MemAttributes::local(TAG));
        assert_eq!(
            t.check(h, OTHER, VirtAddr(0x1000), 10, AccessKind::Local),
            Err(MemError::TagMismatch)
        );
    }

    #[test]
    fn remote_access_rights() {
        let t = RegistrationTable::new();
        let local = t.register(VirtAddr(0x1000), 10, MemAttributes::local(TAG));
        let wtarget = t.register(VirtAddr(0x3000), 10, MemAttributes::rdma_write_target(TAG));
        let rsource = t.register(VirtAddr(0x5000), 10, MemAttributes::rdma_read_source(TAG));

        assert_eq!(
            t.check(local, TAG, VirtAddr(0x1000), 10, AccessKind::RemoteWrite),
            Err(MemError::RemoteAccessDenied)
        );
        assert!(t
            .check(wtarget, TAG, VirtAddr(0x3000), 10, AccessKind::RemoteWrite)
            .is_ok());
        assert_eq!(
            t.check(wtarget, TAG, VirtAddr(0x3000), 10, AccessKind::RemoteRead),
            Err(MemError::RemoteAccessDenied)
        );
        assert!(t
            .check(rsource, TAG, VirtAddr(0x5000), 10, AccessKind::RemoteRead)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_registration_rejected() {
        let t = RegistrationTable::new();
        t.register(VirtAddr(0x1000), 0, MemAttributes::local(TAG));
    }

    #[test]
    fn handles_are_unique_across_reuse() {
        let t = RegistrationTable::new();
        let h1 = t.register(VirtAddr(0x1000), 8, MemAttributes::local(TAG));
        t.deregister(h1).unwrap();
        let h2 = t.register(VirtAddr(0x1000), 8, MemAttributes::local(TAG));
        assert_ne!(h1, h2, "stale handle must not alias a new registration");
    }
}
