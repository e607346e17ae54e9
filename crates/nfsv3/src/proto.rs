//! NFSv3 wire protocol subset: procedure numbers, status codes, attribute
//! encoding, record marking.

use memfs::{FileAttr, FileType, FsError, NodeId};

use crate::xdr::{XdrDec, XdrEnc, XdrError};

/// NFSv3 procedure numbers (RFC 1813 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum NfsProc {
    /// Ping.
    Null = 0,
    /// Fetch attributes.
    GetAttr = 1,
    /// Set attributes (truncate).
    SetAttr = 2,
    /// Directory lookup.
    Lookup = 3,
    /// Read file data.
    Read = 6,
    /// Write file data.
    Write = 7,
    /// Create a regular file.
    Create = 8,
    /// Create a directory.
    Mkdir = 9,
    /// Remove a regular file.
    Remove = 12,
    /// Remove a directory.
    Rmdir = 13,
    /// Rename.
    Rename = 14,
    /// List a directory.
    ReadDir = 16,
    /// Flush unstable writes.
    Commit = 21,
}

impl NfsProc {
    /// Parse from a wire value.
    pub fn from_u32(v: u32) -> Option<NfsProc> {
        Some(match v {
            0 => NfsProc::Null,
            1 => NfsProc::GetAttr,
            2 => NfsProc::SetAttr,
            3 => NfsProc::Lookup,
            6 => NfsProc::Read,
            7 => NfsProc::Write,
            8 => NfsProc::Create,
            9 => NfsProc::Mkdir,
            12 => NfsProc::Remove,
            13 => NfsProc::Rmdir,
            14 => NfsProc::Rename,
            16 => NfsProc::ReadDir,
            21 => NfsProc::Commit,
            _ => return None,
        })
    }
}

/// NFSv3 status codes (RFC 1813 values, subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum NfsStatus {
    /// Success.
    Ok = 0,
    /// No such file or directory.
    NoEnt = 2,
    /// I/O error (also used for malformed requests).
    Io = 5,
    /// File exists.
    Exist = 17,
    /// Invalid argument.
    Inval = 22,
    /// File too large (a write past the largest file offset).
    FBig = 27,
    /// Not a directory.
    NotDir = 20,
    /// Is a directory.
    IsDir = 21,
    /// Directory not empty.
    NotEmpty = 66,
    /// Stale file handle.
    Stale = 70,
}

impl NfsStatus {
    /// Parse from a wire value.
    pub fn from_u32(v: u32) -> NfsStatus {
        match v {
            0 => NfsStatus::Ok,
            2 => NfsStatus::NoEnt,
            17 => NfsStatus::Exist,
            22 => NfsStatus::Inval,
            27 => NfsStatus::FBig,
            20 => NfsStatus::NotDir,
            21 => NfsStatus::IsDir,
            66 => NfsStatus::NotEmpty,
            70 => NfsStatus::Stale,
            _ => NfsStatus::Io,
        }
    }
}

impl From<FsError> for NfsStatus {
    fn from(e: FsError) -> NfsStatus {
        match e {
            FsError::NotFound => NfsStatus::NoEnt,
            FsError::Stale => NfsStatus::Stale,
            FsError::NotDirectory => NfsStatus::NotDir,
            FsError::IsDirectory => NfsStatus::IsDir,
            FsError::Exists => NfsStatus::Exist,
            FsError::NotEmpty => NfsStatus::NotEmpty,
            FsError::InvalidName => NfsStatus::Inval,
            FsError::FileTooBig => NfsStatus::FBig,
        }
    }
}

/// A request that does not decode is answered as an I/O error.
impl From<XdrError> for NfsStatus {
    fn from(_: XdrError) -> NfsStatus {
        NfsStatus::Io
    }
}

/// Write stability levels (RFC 1813).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub enum Stable {
    /// Server may cache; client must COMMIT later.
    Unstable = 0,
    /// Data (not attrs) on stable storage before reply.
    DataSync = 1,
    /// Everything on stable storage before reply.
    #[default]
    FileSync = 2,
}

impl Stable {
    /// Parse from a wire value (anything unknown degrades to FileSync).
    pub fn from_u32(v: u32) -> Stable {
        match v {
            0 => Stable::Unstable,
            1 => Stable::DataSync,
            _ => Stable::FileSync,
        }
    }
}

/// Encode file attributes (fattr3 subset).
pub fn enc_attr(e: &mut XdrEnc, a: &FileAttr) {
    e.u32(match a.ftype {
        FileType::Regular => 1,
        FileType::Directory => 2,
    });
    e.u64(a.id.0);
    e.u64(a.size);
    e.u64(a.version);
    e.u32(a.nlink);
}

/// Decode file attributes.
pub fn dec_attr(d: &mut XdrDec) -> Result<FileAttr, XdrError> {
    let ftype = match d.u32()? {
        1 => FileType::Regular,
        _ => FileType::Directory,
    };
    let id = NodeId(d.u64()?);
    let size = d.u64()?;
    let version = d.u64()?;
    let nlink = d.u32()?;
    Ok(FileAttr {
        id,
        ftype,
        size,
        version,
        nlink,
    })
}

/// Mutating replies the nfsd keeps per connection, and the window of a
/// mount's request table: no xid is posted `REPLAY_WINDOW` or more past the
/// mount's oldest unanswered one.
///
/// A mount asks for an old reply in one way: it retransmits an xid it is
/// still waiting for (`NfsClient::await_reply`), on the connection it sent
/// it on. Every RPC inserts at most once — a retransmit that hits inserts
/// nothing, and one whose first copy was lost executes for the first time
/// — and the nfsd serves a connection's frames in order, so the replies
/// kept after xid `x`'s are those of frames sent after `x`'s first copy:
/// new xids, and retransmits of older ones whose first copy was lost. While
/// `x` is unanswered the mount posts fewer than `REPLAY_WINDOW` new xids
/// (`simnet::reqtab`), and a full window waits for its oldest xid,
/// retransmitting it, before it moves: a batch of any size keeps `x`'s
/// reply. Only an older request lost on its way in, within one window of a
/// lost reply, can add a reply beyond those. A connection's reader tells
/// the nfsd when it closes, and the nfsd then forgets its replies — no xid
/// can be retransmitted on a closed connection — so it keeps up to this
/// many replies for each open one.
pub(crate) const REPLAY_WINDOW: usize = 256;

/// One call record, built in one exact-size buffer: record mark, xid,
/// procedure, then the encoded arguments.
pub fn call_record(xid: u32, proc_: NfsProc, args: &[u8]) -> Vec<u8> {
    let mut e = XdrEnc::record(8 + args.len());
    e.u32(xid).u32(proc_ as u32).raw(args);
    e.finish_record()
}

/// Frame a message with the RPC record mark (4-byte length prefix; we always
/// send a single complete record): what [`call_record`] and the server's
/// reply records build in one pass, as a copy behind the mark.
#[cfg(test)]
pub fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs::ROOT_ID;

    #[test]
    fn proc_numbers_match_rfc1813() {
        assert_eq!(NfsProc::GetAttr as u32, 1);
        assert_eq!(NfsProc::Read as u32, 6);
        assert_eq!(NfsProc::Write as u32, 7);
        assert_eq!(NfsProc::Commit as u32, 21);
        assert_eq!(NfsProc::from_u32(6), Some(NfsProc::Read));
        assert_eq!(NfsProc::from_u32(99), None);
    }

    #[test]
    fn status_roundtrip_and_fs_mapping() {
        for s in [
            NfsStatus::Ok,
            NfsStatus::NoEnt,
            NfsStatus::Exist,
            NfsStatus::NotDir,
            NfsStatus::IsDir,
            NfsStatus::NotEmpty,
            NfsStatus::Stale,
            NfsStatus::Inval,
        ] {
            assert_eq!(NfsStatus::from_u32(s as u32), s);
        }
        assert_eq!(NfsStatus::from(FsError::NotFound), NfsStatus::NoEnt);
        assert_eq!(NfsStatus::from(FsError::Stale), NfsStatus::Stale);
    }

    #[test]
    fn attr_roundtrip() {
        let a = FileAttr {
            id: ROOT_ID,
            ftype: FileType::Directory,
            size: 0,
            version: 42,
            nlink: 3,
        };
        let mut e = XdrEnc::new();
        enc_attr(&mut e, &a);
        let b = e.finish();
        let mut d = XdrDec::new(&b);
        assert_eq!(dec_attr(&mut d).unwrap(), a);
    }

    #[test]
    fn frame_prefixes_length() {
        let f = frame(b"abc");
        assert_eq!(f, vec![0, 0, 0, 3, b'a', b'b', b'c']);
    }

    #[test]
    fn a_call_record_is_the_framed_call_in_one_buffer() {
        for args in [&b""[..], &[9; 3], &[0xEE; 4096 + 12]] {
            let wire = call_record(0xA1B2_C3D4, NfsProc::Write, args);
            let mut body = XdrEnc::new();
            body.u32(0xA1B2_C3D4).u32(NfsProc::Write as u32).raw(args);
            assert_eq!(wire, frame(&body.finish()));
            assert_eq!(wire.capacity(), wire.len(), "sized once, exactly");
        }
    }

    #[test]
    fn stable_levels() {
        assert_eq!(Stable::from_u32(0), Stable::Unstable);
        assert_eq!(Stable::from_u32(2), Stable::FileSync);
        assert_eq!(Stable::from_u32(7), Stable::FileSync);
    }
}
