//! Per-actor on-device object store with the pending-deletions queue of
//! paper §4.3.
//!
//! A buffer with an outstanding asynchronous send cannot be deleted
//! immediately: the store parks it in a pending queue and reclaims it at
//! a later deletion point once the send has completed — exactly the
//! behaviour the paper describes for its NCCL-backed stores.
//!
//! Since [`Tensor`] is itself an `Arc`-backed handle, the store holds
//! tensors directly: inserting, reading, and sending a buffer are O(1)
//! handle copies with no extra indirection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use raxpp_ir::Tensor;
use raxpp_taskgraph::BufferId;

/// Completion token of one asynchronous send: set once the receiver has
/// taken the payload.
#[derive(Debug, Clone, Default)]
pub(crate) struct SendToken(Arc<AtomicBool>);

impl SendToken {
    /// Creates an incomplete token.
    pub(crate) fn new() -> SendToken {
        SendToken::default()
    }

    /// Marks the send complete (called by the receiving side).
    pub(crate) fn complete(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the send has completed.
    pub(crate) fn is_complete(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// An actor's buffer store.
#[derive(Debug, Default)]
pub(crate) struct ObjectStore {
    bufs: HashMap<BufferId, Tensor>,
    outstanding: HashMap<BufferId, Vec<SendToken>>,
    pending: Vec<(BufferId, Tensor, Vec<SendToken>)>,
    peak_bytes: usize,
    live_bytes: usize,
}

impl ObjectStore {
    /// Creates an empty store.
    pub(crate) fn new() -> ObjectStore {
        ObjectStore::default()
    }

    /// Inserts or overwrites a buffer, updating the memory high-water
    /// mark (4 bytes per element, the interpreter's f32).
    ///
    /// Overwriting a buffer that still has outstanding sends parks the
    /// *old* tensor (with its tokens) in the pending queue, exactly as
    /// [`ObjectStore::free`] would: the tokens belong to the old
    /// allocation, and must never pin the new one.
    pub(crate) fn insert(&mut self, buf: BufferId, t: Tensor) {
        self.live_bytes += 4 * t.numel();
        if let Some(old) = self.bufs.insert(buf, t) {
            let tokens = self.outstanding.remove(&buf).unwrap_or_default();
            if tokens.iter().all(SendToken::is_complete) {
                self.live_bytes -= 4 * old.numel();
            } else {
                self.pending.push((buf, old, tokens));
            }
        }
        self.peak_bytes = self.peak_bytes.max(self.live_bytes);
    }

    /// Reads a buffer.
    pub(crate) fn get(&self, buf: BufferId) -> Option<&Tensor> {
        self.bufs.get(&buf)
    }

    /// Records an in-flight send of `buf` tracked by `token`.
    pub(crate) fn record_send(&mut self, buf: BufferId, token: SendToken) {
        self.outstanding.entry(buf).or_default().push(token);
    }

    /// Deletes `buf`, deferring to the pending queue if it still has
    /// incomplete sends (§4.3). Every call first drains previously
    /// pending deletions whose sends have since completed.
    ///
    /// A deferred deletion stays resident: its bytes keep counting
    /// toward [`ObjectStore::live_bytes`] (and hence the high-water
    /// mark) until [`ObjectStore::drain_pending`] reclaims it.
    ///
    /// Returns `false` if the buffer was unknown.
    pub(crate) fn free(&mut self, buf: BufferId) -> bool {
        self.drain_pending();
        let Some(t) = self.bufs.remove(&buf) else {
            return false;
        };
        let tokens = self.outstanding.remove(&buf).unwrap_or_default();
        if tokens.iter().all(SendToken::is_complete) {
            self.live_bytes -= 4 * t.numel();
            drop(t); // reclaimed immediately
        } else {
            self.pending.push((buf, t, tokens));
        }
        true
    }

    /// Reclaims pending deletions whose sends have completed. Returns how
    /// many buffers were reclaimed.
    pub(crate) fn drain_pending(&mut self) -> usize {
        let before = self.pending.len();
        let mut reclaimed_bytes = 0;
        self.pending.retain(|(_, t, tokens)| {
            if tokens.iter().all(SendToken::is_complete) {
                reclaimed_bytes += 4 * t.numel();
                false
            } else {
                true
            }
        });
        self.live_bytes -= reclaimed_bytes;
        before - self.pending.len()
    }

    /// Abandons every outstanding send and force-reclaims the pending
    /// queue. Called when a step is aborted: the receivers that would
    /// have completed the tokens may never run, and the aborted epoch's
    /// sends are semantically void, so nothing may stay pinned.
    ///
    /// Returns how many parked buffers were reclaimed.
    pub(crate) fn abandon_outstanding_sends(&mut self) -> usize {
        self.outstanding.clear();
        let reclaimed = self.pending.len();
        for (_, t, _) in self.pending.drain(..) {
            self.live_bytes -= 4 * t.numel();
        }
        reclaimed
    }

    /// Number of deletions parked awaiting send completion.
    #[cfg(test)]
    fn pending_deletions(&self) -> usize {
        self.pending.len()
    }

    /// Peak bytes ever resident in this store (the executable analogue
    /// of the paper's activation-memory discussion, §2.2.1). Deletions
    /// parked in the pending queue still count until reclaimed.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Bytes currently resident, including deletions parked in the
    /// pending queue (their memory is not reclaimed until
    /// [`ObjectStore::drain_pending`]).
    pub(crate) fn live_bytes(&self) -> usize {
        self.live_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor() -> Tensor {
        Tensor::scalar(1.0)
    }

    #[test]
    fn insert_get_free() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, tensor());
        assert!(s.get(b).is_some());
        assert!(s.free(b));
        assert!(s.get(b).is_none());
        assert!(!s.free(b));
    }

    #[test]
    fn free_with_incomplete_send_is_deferred() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, tensor());
        let token = SendToken::new();
        s.record_send(b, token.clone());
        assert!(s.free(b));
        // The buffer left the visible store but is parked, not reclaimed.
        assert!(s.get(b).is_none());
        assert_eq!(s.pending_deletions(), 1);
        // Completing the send lets the next deletion point reclaim it.
        token.complete();
        assert_eq!(s.drain_pending(), 1);
        assert_eq!(s.pending_deletions(), 0);
    }

    #[test]
    fn later_free_drains_earlier_pending() {
        let mut s = ObjectStore::new();
        let b0 = BufferId(0);
        let b1 = BufferId(1);
        s.insert(b0, tensor());
        s.insert(b1, tensor());
        let token = SendToken::new();
        s.record_send(b0, token.clone());
        s.free(b0);
        assert_eq!(s.pending_deletions(), 1);
        token.complete();
        // The next deletion operation checks the queue (paper §4.3).
        s.free(b1);
        assert_eq!(s.pending_deletions(), 0);
    }

    #[test]
    fn completed_send_frees_immediately() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, tensor());
        let token = SendToken::new();
        token.complete();
        s.record_send(b, token);
        s.free(b);
        assert_eq!(s.pending_deletions(), 0);
    }

    #[test]
    fn overwrite_does_not_inherit_stale_send_tokens() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, tensor());
        // An incomplete send of the *old* tensor...
        let token = SendToken::new();
        s.record_send(b, token.clone());
        // ...must not pin the *new* tensor after an overwrite: the old
        // tensor is parked with its token, the new one has a clean slate.
        s.insert(b, tensor());
        assert_eq!(s.pending_deletions(), 1);
        assert!(s.free(b), "new tensor frees without consulting old tokens");
        assert_eq!(
            s.pending_deletions(),
            1,
            "only the old allocation stays parked"
        );
        token.complete();
        assert_eq!(s.drain_pending(), 1);
    }

    #[test]
    fn overwrite_with_completed_sends_reclaims_old() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, Tensor::ones([8]));
        let token = SendToken::new();
        token.complete();
        s.record_send(b, token);
        s.insert(b, Tensor::ones([8]));
        assert_eq!(s.pending_deletions(), 0);
        assert_eq!(s.live_bytes(), 4 * 8);
    }

    #[test]
    fn parked_deletion_bytes_stay_resident_until_drained() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        s.insert(b, Tensor::ones([16]));
        assert_eq!(s.live_bytes(), 64);
        let token = SendToken::new();
        s.record_send(b, token.clone());
        s.free(b);
        // Deferred, not reclaimed: the bytes are still resident.
        assert_eq!(s.pending_deletions(), 1);
        assert_eq!(s.live_bytes(), 64, "parked deletion still counts");
        // A new allocation while the old one is parked raises the peak
        // above a single buffer — the §2.2.1 accounting the docstring
        // promises.
        s.insert(BufferId(1), Tensor::ones([16]));
        assert_eq!(s.peak_bytes(), 128);
        token.complete();
        assert_eq!(s.drain_pending(), 1);
        assert_eq!(s.live_bytes(), 64, "reclaim subtracts the parked bytes");
    }

    #[test]
    fn abandon_outstanding_sends_unpins_everything() {
        let mut s = ObjectStore::new();
        let b0 = BufferId(0);
        let b1 = BufferId(1);
        s.insert(b0, Tensor::ones([4]));
        s.insert(b1, Tensor::ones([4]));
        s.record_send(b0, SendToken::new());
        s.record_send(b1, SendToken::new());
        s.free(b0);
        assert_eq!(s.pending_deletions(), 1);
        assert_eq!(s.abandon_outstanding_sends(), 1);
        assert_eq!(s.pending_deletions(), 0);
        // b1's token was abandoned too: its free is immediate.
        s.free(b1);
        assert_eq!(s.pending_deletions(), 0);
        assert_eq!(s.live_bytes(), 0);
    }

    #[test]
    fn store_reads_share_storage() {
        let mut s = ObjectStore::new();
        let b = BufferId(0);
        let t = Tensor::ones([16]);
        let ptr = t.data().as_ptr();
        s.insert(b, t);
        let got = s.get(b).cloned().unwrap();
        assert!(std::ptr::eq(ptr, got.data().as_ptr()));
    }
}
