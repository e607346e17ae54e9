//! The duplicate-request cache both file servers drive: per client, the
//! replies to its last `window` cacheable requests, oldest first.
//!
//! A client that gets no reply sends the same request again under the same
//! id — a DAFS session redials and replays it, an NFS mount retransmits the
//! xid. A hit here resends the first execution's reply without touching
//! the filesystem, so an operation whose re-execution would be observable
//! (CREATE, REMOVE, RENAME, APPEND, WRITE, ...) takes effect once under any
//! loss pattern. Which requests are cacheable, what a client is, and why
//! `window` replies per client are enough are each server's argument, made
//! where it builds its cache.
//!
//! Pure state: nothing here sends a message, reads a clock, counts a metric
//! or emits a trace line. The servers do that around these calls, and charge
//! no virtual time for them, so a fault-free run — where nothing hits — is
//! the same run with or without the cache.

use std::collections::{HashMap, VecDeque};

use crate::buf::Bytes;

/// Per client id, its last `window` cached replies, oldest first.
pub struct ReplayCache {
    window: usize,
    clients: HashMap<u64, VecDeque<(u32, Bytes)>>,
}

impl ReplayCache {
    /// An empty cache that keeps `window` replies per client.
    pub fn new(window: usize) -> ReplayCache {
        ReplayCache {
            window,
            clients: HashMap::new(),
        }
    }

    /// The reply `client` got to request `id`, if it is still kept.
    pub fn get(&self, client: u64, id: u32) -> Option<&Bytes> {
        let replies = self.clients.get(&client)?;
        replies.iter().find(|(r, _)| *r == id).map(|(_, b)| b)
    }

    /// Keep `reply` as `client`'s answer to `id`, dropping that client's
    /// oldest once it has `window`.
    pub fn insert(&mut self, client: u64, id: u32, reply: Bytes) {
        let replies = self.clients.entry(client).or_default();
        if replies.len() == self.window {
            replies.pop_front();
        }
        replies.push_back((id, reply));
    }

    /// Drop everything kept for `client`: it said goodbye.
    pub fn forget(&mut self, client: u64) {
        self.clients.remove(&client);
    }

    /// How many clients have replies kept.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client's reply outlives every other client's traffic and the most
    /// of its own that can land between its lost reply and its replay, at
    /// both windows in use: DAFS's `CREDITS` (8) and the nfsd's 256. The
    /// other traffic is 256 clients × `window` replies, more than either
    /// server's old cache — one FIFO shared by every client — held in all.
    #[test]
    fn a_reply_survives_other_clients_and_its_own_window() {
        for window in [8u32, 256] {
            let mut cache = ReplayCache::new(window as usize);
            let reply = |id: u32| Bytes::from_vec(id.to_le_bytes().to_vec());
            cache.insert(1, 42, reply(42));
            for client in 2..258 {
                for id in 1..=window {
                    cache.insert(client, id, reply(id));
                }
            }
            for id in 43..43 + window - 1 {
                cache.insert(1, id, reply(id));
            }
            assert_eq!(cache.get(1, 42), Some(&reply(42)), "window {window}");
            // One more of its own pushes it out; a goodbye drops the rest.
            cache.insert(1, 1 << 20, reply(1 << 20));
            assert_eq!(cache.get(1, 42), None, "window {window}");
            assert_eq!(cache.clients(), 257, "window {window}");
            cache.forget(1);
            assert_eq!(cache.get(1, 1 << 20), None, "window {window}");
            assert_eq!(cache.get(2, 1), Some(&reply(1)), "window {window}");
            assert_eq!(cache.clients(), 256, "window {window}");
        }
    }
}
