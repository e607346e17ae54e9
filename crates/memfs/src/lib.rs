//! # memfs — an in-memory filesystem backend
//!
//! The shared storage substrate behind both servers in this reproduction:
//! the DAFS server and the NFSv3 baseline server mount the *same* filesystem
//! implementation, so every performance difference measured between them is
//! attributable to the transport and protocol stack, never to storage.
//!
//! 2001-era DAFS evaluations ran server-cached (memory-resident) workloads
//! to isolate the network path; `memfs` reproduces exactly that regime: an
//! inode table, hierarchical directories, and file data held in memory as
//! sparse fixed-size copy-on-write pages — holes and growth cost nothing, a
//! write from a slice ([`MemFs::write`]) copies each byte once into its
//! page, a write from a shared buffer ([`MemFs::write_bytes`], the DAFS
//! server's request frame) adopts each whole page of it as a view and
//! copies only the rest, and reads hand out refcounted views of the pages
//! ([`MemFs::read_views`]) that no later write can change — nor can a
//! write change a buffer a page adopted. The crate is pure logic — it
//! takes only the buffer types from `simnet`, no virtual time — and the
//! servers layer their own CPU cost models on top.

#![warn(missing_docs)]

mod fs;

pub use fs::{FileAttr, FileType, FsError, FsResult, MemFs, NodeId, SetAttr, ROOT_ID};
