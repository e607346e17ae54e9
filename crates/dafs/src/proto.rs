//! DAFS protocol: operation codes, status codes, attribute marshalling,
//! request/response headers.
//!
//! Modeled on the DAFS Collaborative 1.0 procedure set (`DAP_PROC_*`),
//! reduced to the operations the MPI-IO stack and its evaluation exercise.
//! Every request carries a session-local request id so responses can be
//! matched out of order (batch I/O pipelines several requests per session).

use memfs::{FileAttr, FileType, FsError, NodeId};

use crate::wire::{Dec, Enc, WireError};

/// DAFS procedure numbers (subset; values are stable within this repo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DafsOp {
    /// Fetch attributes.
    GetAttr = 1,
    /// Set attributes (truncate).
    SetAttr = 2,
    /// Directory lookup.
    Lookup = 3,
    /// Create a regular file.
    Create = 4,
    /// Remove a regular file.
    Remove = 5,
    /// Create a directory.
    Mkdir = 6,
    /// Remove an empty directory.
    Rmdir = 7,
    /// Rename.
    Rename = 8,
    /// List a directory.
    ReadDir = 9,
    /// Read with data inline in the response message.
    ReadInline = 10,
    /// Write with data inline in the request message.
    WriteInline = 11,
    /// Read with server-initiated RDMA Write into the client buffer.
    ReadDirect = 12,
    // 13 was a direct write, which had the server RDMA-Read the client's
    // buffer; it is unassigned, and a server answers it `NotSupported`.
    /// Flush to stable storage.
    Flush = 14,
    /// Acquire a whole-file exclusive lock (blocks until granted).
    Lock = 15,
    /// Release a lock.
    Unlock = 16,
    /// End the session.
    Disconnect = 17,
    /// Session setup: exchange capabilities (first request on a session).
    /// The request body carries the client's stable id (u64) — the VI id
    /// of its first session — so the server can key its replay cache to
    /// the client across session reconnects.
    Hello = 18,
    /// Atomic append: write inline data at the current end of file,
    /// returning the offset it landed at (DAFS's append mode).
    Append = 19,
    /// Vectored read: one request carries a sorted `(offset, len)` list;
    /// the server gathers every segment in one pass. Data returns inline
    /// (small totals) or via a single RDMA Write stream into one
    /// registered client buffer (large totals).
    ReadList = 20,
    /// Vectored write: the scatter analogue of [`DafsOp::ReadList`], whose
    /// inline payload carries the segments back-to-back. Always inline: a
    /// server refuses direct mode (`Inval`), which would have it RDMA-Read
    /// one registered client buffer.
    WriteList = 21,
    /// Request a cache lease on a file (the DAFS delegation model):
    /// request carries `(fh, kind)` with kind 1 = read, 2 = write-back;
    /// the response carries `granted: u8` plus the file's current
    /// attributes, so a grant seeds the client attribute cache atomically.
    /// Not replay-cacheable: a replayed stale grant after the server
    /// reclaimed the lease would let the client cache incoherently.
    LeaseGrant = 22,
    /// Server→client recall push: an *unsolicited* frame on the session's
    /// response ring, sent when a conflicting writer appears. Encoded as a
    /// response with reqid 0 (client request ids start at 1) carrying
    /// `(op=23 marker u8, fh, recall_id)`.
    LeaseRecall = 23,
    /// Client→server recall acknowledgement: `(fh, recall_id)` after the
    /// client flushed dirty data and dropped the lease. `recall_id` 0
    /// means a voluntary release (no recall outstanding). Re-execution is
    /// a no-op on the server, so replayed acks after a reconnect are
    /// harmless (replay-idempotent).
    LeaseRecallAck = 24,
}

impl DafsOp {
    /// Parse from a wire value.
    pub fn from_u8(v: u8) -> Option<DafsOp> {
        Some(match v {
            1 => DafsOp::GetAttr,
            2 => DafsOp::SetAttr,
            3 => DafsOp::Lookup,
            4 => DafsOp::Create,
            5 => DafsOp::Remove,
            6 => DafsOp::Mkdir,
            7 => DafsOp::Rmdir,
            8 => DafsOp::Rename,
            9 => DafsOp::ReadDir,
            10 => DafsOp::ReadInline,
            11 => DafsOp::WriteInline,
            12 => DafsOp::ReadDirect,
            14 => DafsOp::Flush,
            15 => DafsOp::Lock,
            16 => DafsOp::Unlock,
            17 => DafsOp::Disconnect,
            18 => DafsOp::Hello,
            19 => DafsOp::Append,
            20 => DafsOp::ReadList,
            21 => DafsOp::WriteList,
            22 => DafsOp::LeaseGrant,
            23 => DafsOp::LeaseRecall,
            24 => DafsOp::LeaseRecallAck,
            _ => return None,
        })
    }
}

/// DAFS status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DafsStatus {
    /// Success.
    Ok = 0,
    /// No such entry.
    NoEnt = 1,
    /// Stale handle.
    Stale = 2,
    /// Not a directory.
    NotDir = 3,
    /// Is a directory.
    IsDir = 4,
    /// Exists.
    Exists = 5,
    /// Directory not empty.
    NotEmpty = 6,
    /// Invalid argument / malformed request.
    Inval = 7,
    /// Transfer failed (e.g. remote protection error on direct I/O).
    XferError = 8,
    /// Operation not supported by this server: an opcode that names no op.
    NotSupported = 9,
}

impl DafsStatus {
    /// Parse from a wire value.
    pub fn from_u8(v: u8) -> DafsStatus {
        match v {
            0 => DafsStatus::Ok,
            1 => DafsStatus::NoEnt,
            2 => DafsStatus::Stale,
            3 => DafsStatus::NotDir,
            4 => DafsStatus::IsDir,
            5 => DafsStatus::Exists,
            6 => DafsStatus::NotEmpty,
            8 => DafsStatus::XferError,
            9 => DafsStatus::NotSupported,
            _ => DafsStatus::Inval,
        }
    }
}

impl From<FsError> for DafsStatus {
    fn from(e: FsError) -> DafsStatus {
        match e {
            FsError::NotFound => DafsStatus::NoEnt,
            FsError::Stale => DafsStatus::Stale,
            FsError::NotDirectory => DafsStatus::NotDir,
            FsError::IsDirectory => DafsStatus::IsDir,
            FsError::Exists => DafsStatus::Exists,
            FsError::NotEmpty => DafsStatus::NotEmpty,
            FsError::InvalidName | FsError::FileTooBig => DafsStatus::Inval,
        }
    }
}

/// A request that does not decode is an invalid argument.
impl From<WireError> for DafsStatus {
    fn from(_: WireError) -> DafsStatus {
        DafsStatus::Inval
    }
}

/// Lease kinds a client may request with [`DafsOp::LeaseGrant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LeaseKind {
    /// Shared read lease: cached pages/attrs may be served locally.
    Read = 1,
    /// Exclusive write-back lease: additionally, small writes may be
    /// buffered dirty at the client until flush or recall.
    Write = 2,
}

impl LeaseKind {
    /// Parse from a wire value.
    pub fn from_u8(v: u8) -> Option<LeaseKind> {
        match v {
            1 => Some(LeaseKind::Read),
            2 => Some(LeaseKind::Write),
            _ => None,
        }
    }
}

/// Encode the unsolicited server→client lease-recall push frame: a
/// response with reqid 0 (request ids start at 1), an op marker, the file
/// handle, and the recall id the client must echo in its
/// [`DafsOp::LeaseRecallAck`].
pub fn enc_recall_push(fh: NodeId, recall_id: u32) -> Enc {
    let mut e = Enc::new();
    enc_resp_header(&mut e, 0, DafsStatus::Ok);
    e.u8(DafsOp::LeaseRecall as u8);
    e.u64(fh.0);
    e.u32(recall_id);
    e
}

/// Decode a recall push payload (everything after the response header).
pub fn dec_recall_push(d: &mut Dec) -> Result<(NodeId, u32), WireError> {
    if d.u8()? != DafsOp::LeaseRecall as u8 {
        return Err(WireError);
    }
    Ok((NodeId(d.u64()?), d.u32()?))
}

/// Server capabilities advertised at session setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCaps {
    /// Session credits granted.
    pub credits: u32,
    /// Largest inline payload the server accepts.
    pub inline_max: u64,
}

/// Encoded size of a request header.
pub const REQ_HEADER_LEN: usize = 5;

/// Encode a request header: (request id, op).
pub fn enc_req_header(e: &mut Enc, reqid: u32, op: DafsOp) {
    e.u32(reqid);
    e.u8(op as u8);
}

/// Decode a request header.
pub fn dec_req_header(d: &mut Dec) -> Result<(u32, DafsOp), WireError> {
    let reqid = d.u32()?;
    let op = DafsOp::from_u8(d.u8()?).ok_or(WireError)?;
    Ok((reqid, op))
}

/// Encode a response header: (request id, status).
pub fn enc_resp_header(e: &mut Enc, reqid: u32, status: DafsStatus) {
    e.u32(reqid);
    e.u8(status as u8);
}

/// Decode a response header.
pub fn dec_resp_header(d: &mut Dec) -> Result<(u32, DafsStatus), WireError> {
    Ok((d.u32()?, DafsStatus::from_u8(d.u8()?)))
}

/// Largest segment list one ReadList/WriteList request may carry. Long
/// lists are split into multiple list requests by the client (they ride
/// the same credit window as any other batch sub-request); the server
/// rejects oversized lists with [`DafsStatus::Inval`].
pub const LIST_MAX_SEGMENTS: usize = 256;

/// One vectored-I/O segment: `(file offset, length, client-buffer offset)`.
/// The third member places the segment inside the request's client buffer
/// — prefix sums for a packed list, `off - off0` for an offset-aligned
/// collective drain, or striping-layout positions for striped fragments.
pub type ListSeg = (u64, u64, u64);

/// Encode a segment list: `u32 count` then each segment as
/// `(u64 offset, u64 len, u64 buf_rel)`.
pub fn enc_seg_list(e: &mut Enc, segs: &[ListSeg]) {
    e.u32(segs.len() as u32);
    for &(off, len, rel) in segs {
        e.u64(off);
        e.u64(len);
        e.u64(rel);
    }
}

/// The list contract both vectored ops require: segments sorted by file
/// offset and by buffer position, non-overlapping on both axes, non-empty,
/// and free of u64 overflow. The server rejects violations with
/// [`DafsStatus::Inval`]; the ADIO layer falls back to sieving for lists
/// it cannot express this way instead of sending them.
pub fn list_well_formed(segs: &[ListSeg]) -> bool {
    let mut last_end = 0u64;
    let mut last_rel_end = 0u64;
    for (i, &(off, len, rel)) in segs.iter().enumerate() {
        if len == 0 {
            return false;
        }
        let (Some(end), Some(rel_end)) = (off.checked_add(len), rel.checked_add(len)) else {
            return false;
        };
        if i > 0 && (off < last_end || rel < last_rel_end) {
            return false;
        }
        last_end = end;
        last_rel_end = rel_end;
    }
    true
}

/// Lax client-side variant of [`list_well_formed`]: zero-length segments
/// are permitted (the client drops them before encoding requests).
pub fn list_acceptable(segs: &[ListSeg]) -> bool {
    let dense: Vec<ListSeg> = segs.iter().copied().filter(|s| s.1 > 0).collect();
    list_well_formed(&dense)
}

/// Decode a segment list. Enforces [`LIST_MAX_SEGMENTS`] so a malformed
/// count can't drive a huge allocation.
pub fn dec_seg_list(d: &mut Dec) -> Result<Vec<ListSeg>, WireError> {
    let n = d.u32()? as usize;
    if n > LIST_MAX_SEGMENTS {
        return Err(WireError);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let off = d.u64()?;
        let len = d.u64()?;
        let rel = d.u64()?;
        out.push((off, len, rel));
    }
    Ok(out)
}

/// Encode file attributes.
pub fn enc_attr(e: &mut Enc, a: &FileAttr) {
    e.u8(match a.ftype {
        FileType::Regular => 0,
        FileType::Directory => 1,
    });
    e.u64(a.id.0);
    e.u64(a.size);
    e.u64(a.version);
    e.u32(a.nlink);
}

/// Decode file attributes.
pub fn dec_attr(d: &mut Dec) -> Result<FileAttr, WireError> {
    let ftype = if d.u8()? == 0 {
        FileType::Regular
    } else {
        FileType::Directory
    };
    Ok(FileAttr {
        id: NodeId(d.u64()?),
        size: d.u64()?,
        version: d.u64()?,
        nlink: d.u32()?,
        ftype,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::ROOT_ID;
    use simnet::Bytes;

    #[test]
    fn op_roundtrip() {
        for v in (1..=24u8).filter(|&v| v != 13) {
            let op = DafsOp::from_u8(v).unwrap();
            assert_eq!(op as u8, v);
        }
        assert_eq!(DafsOp::from_u8(0), None);
        assert_eq!(DafsOp::from_u8(13), None);
        assert_eq!(DafsOp::from_u8(25), None);
    }

    #[test]
    fn lease_kind_and_recall_roundtrip() {
        assert_eq!(LeaseKind::from_u8(1), Some(LeaseKind::Read));
        assert_eq!(LeaseKind::from_u8(2), Some(LeaseKind::Write));
        assert_eq!(LeaseKind::from_u8(0), None);
        assert_eq!(LeaseKind::from_u8(3), None);

        let b = Bytes::from_vec(enc_recall_push(NodeId(7), 42).finish());
        let mut d = Dec::new(&b);
        // The push frame reads as a reqid-0 Ok response...
        assert_eq!(dec_resp_header(&mut d).unwrap(), (0, DafsStatus::Ok));
        // ...whose payload names the file and the recall.
        assert_eq!(dec_recall_push(&mut d).unwrap(), (NodeId(7), 42));
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn seg_list_roundtrip() {
        let lists: Vec<Vec<ListSeg>> = vec![
            vec![],
            vec![(0, 1, 0)],
            vec![
                (0, 4096, 0),
                (8192, 4096, 4096),
                (1 << 40, u64::MAX / 2, 8192),
            ],
        ];
        for segs in lists {
            let mut e = Enc::new();
            enc_seg_list(&mut e, &segs);
            let b = Bytes::from_vec(e.finish());
            assert_eq!(b.len(), 4 + 24 * segs.len());
            let mut d = Dec::new(&b);
            assert_eq!(dec_seg_list(&mut d).unwrap(), segs);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn seg_list_truncation_and_bounds() {
        let mut e = Enc::new();
        enc_seg_list(&mut e, &[(5, 10, 0), (20, 30, 10)]);
        let b = Bytes::from_vec(e.finish());
        // Every truncated prefix must decode to an error, never panic.
        for cut in 0..b.len() {
            assert!(
                dec_seg_list(&mut Dec::new(&b.slice(..cut))).is_err(),
                "truncation at {cut} decoded"
            );
        }
        // A count past LIST_MAX_SEGMENTS is rejected up front.
        let mut e = Enc::new();
        e.u32(LIST_MAX_SEGMENTS as u32 + 1);
        let b = Bytes::from_vec(e.finish());
        assert!(dec_seg_list(&mut Dec::new(&b)).is_err());
    }

    #[test]
    fn status_roundtrip_and_mapping() {
        for s in [
            DafsStatus::Ok,
            DafsStatus::NoEnt,
            DafsStatus::Stale,
            DafsStatus::NotDir,
            DafsStatus::IsDir,
            DafsStatus::Exists,
            DafsStatus::NotEmpty,
            DafsStatus::Inval,
            DafsStatus::XferError,
            DafsStatus::NotSupported,
        ] {
            assert_eq!(DafsStatus::from_u8(s as u8), s);
        }
        assert_eq!(DafsStatus::from(FsError::Exists), DafsStatus::Exists);
    }

    #[test]
    fn headers_roundtrip() {
        let mut e = Enc::new();
        enc_req_header(&mut e, 42, DafsOp::ReadDirect);
        let b = Bytes::from_vec(e.finish());
        let mut d = Dec::new(&b);
        assert_eq!(dec_req_header(&mut d).unwrap(), (42, DafsOp::ReadDirect));

        let mut e = Enc::new();
        enc_resp_header(&mut e, 42, DafsStatus::Stale);
        let b = Bytes::from_vec(e.finish());
        let mut d = Dec::new(&b);
        assert_eq!(dec_resp_header(&mut d).unwrap(), (42, DafsStatus::Stale));
    }

    #[test]
    fn attr_roundtrip() {
        let a = FileAttr {
            id: ROOT_ID,
            ftype: FileType::Directory,
            size: 0,
            version: 3,
            nlink: 2,
        };
        let mut e = Enc::new();
        enc_attr(&mut e, &a);
        let b = Bytes::from_vec(e.finish());
        assert_eq!(dec_attr(&mut Dec::new(&b)).unwrap(), a);
    }
}
