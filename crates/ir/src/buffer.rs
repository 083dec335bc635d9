//! Where a kernel result's memory comes from, and where a dead one goes.
//!
//! Every kernel that makes a new tensor asks [`buffer`] for an
//! `Arc<[f32]>` of exactly its length and writes the result into it
//! through `Arc::get_mut`: one allocation, no copy. When a [`Tensor`]
//! that is the only owner of a large buffer drops, [`recycle`] keeps
//! that buffer on the dropping thread's spare list, and the next
//! [`buffer`] call of the same length on that thread takes it instead of
//! allocating. This is the CPU stand-in for what the paper's runtime
//! relies on when it deletes a buffer at its last use (§4.3): the device
//! allocator hands the freed memory to the next executable rather than
//! back to the system. Without it, the C allocator returns multi-MB
//! blocks to the OS between microbatches and their pages fault in again.
//!
//! The list is per thread (an actor's kernels run on the actor's
//! thread), so it takes no lock, and it is bounded by three constants:
//! only buffers of at least [`MIN_SPARE_FLOATS`] are kept, at most
//! [`MAX_SPARES`] of them, FIFO, holding at most [`MAX_SPARE_BYTES`].
//! Keeping a buffer allocates nothing. A spare is dead memory that no
//! tensor, store entry or in-flight send holds (its `Arc` was unique),
//! so the object store's `live_store_bytes` and `peak_store_mb`, which
//! count what a program holds, never see it. A spare's contents are
//! stale, so every kernel writes each element of its output.
//!
//! [`Tensor`]: crate::Tensor

use std::cell::RefCell;
use std::sync::Arc;

/// The smallest buffer a thread keeps: 16 Ki floats (64 KiB). The C
/// allocator keeps smaller freed blocks in its own bins.
pub const MIN_SPARE_FLOATS: usize = 16 << 10;

/// The most buffers one thread's spare list holds.
pub const MAX_SPARES: usize = 8;

/// The most bytes one thread's spare list holds: 32 MiB.
pub const MAX_SPARE_BYTES: usize = 32 << 20;

/// One thread's dead buffers, oldest first: `bufs[..len]` are `Some`.
struct Spares {
    bufs: [Option<Arc<[f32]>>; MAX_SPARES],
    len: usize,
    bytes: usize,
}

impl Spares {
    /// Removes and returns the spare at `i < len`.
    fn remove(&mut self, i: usize) -> Arc<[f32]> {
        self.bufs[i..self.len].rotate_left(1);
        self.len -= 1;
        let buf = self.bufs[self.len].take().expect("bufs[..len] are Some");
        self.bytes -= 4 * buf.len();
        buf
    }

    /// Keeps `buf`, evicting the oldest spares until both caps hold; a
    /// buffer larger than the byte cap is not kept at all.
    fn push(&mut self, buf: Arc<[f32]>) {
        let bytes = 4 * buf.len();
        if bytes > MAX_SPARE_BYTES {
            return;
        }
        while self.len == MAX_SPARES || self.bytes + bytes > MAX_SPARE_BYTES {
            self.remove(0);
        }
        self.bufs[self.len] = Some(buf);
        self.len += 1;
        self.bytes += bytes;
    }

    /// The oldest spare of exactly `n` floats.
    fn take(&mut self, n: usize) -> Option<Arc<[f32]>> {
        let i = self.bufs[..self.len]
            .iter()
            .position(|b| b.as_ref().is_some_and(|b| b.len() == n))?;
        Some(self.remove(i))
    }
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares { bufs: [const { None }; MAX_SPARES], len: 0, bytes: 0 })
    };
}

/// A uniquely owned buffer of `n` floats for a kernel to write in full:
/// this thread's oldest spare of exactly that length, else a fresh
/// zeroed allocation.
pub(crate) fn buffer(n: usize) -> Arc<[f32]> {
    // `try_with`: a thread being torn down still runs kernels' drops.
    if let Some(buf) = SPARES.try_with(|s| s.borrow_mut().take(n)).ok().flatten() {
        return buf;
    }
    // SAFETY: all-zero bits are the `f32` value 0.0.
    unsafe { Arc::<[f32]>::new_zeroed_slice(n).assume_init() }
}

/// A dropped tensor's buffer: kept on this thread's spare list when it
/// is large enough and nothing else holds it, freed otherwise.
pub(crate) fn recycle(mut buf: Arc<[f32]>) {
    if buf.len() >= MIN_SPARE_FLOATS && Arc::get_mut(&mut buf).is_some() {
        let _ = SPARES.try_with(|s| s.borrow_mut().push(buf));
    }
}

/// Replaces this thread's spare list with `count` buffers of `len`
/// floats, each filled with `value` (bounded by the list's caps, not by
/// [`MIN_SPARE_FLOATS`]).
pub(crate) fn seed(len: usize, count: usize, value: f32) {
    SPARES.with_borrow_mut(|s| {
        while s.len > 0 {
            s.remove(0);
        }
        for _ in 0..count {
            s.push(std::iter::repeat_n(value, len).collect());
        }
    });
}

/// The lengths on this thread's spare list, oldest first.
pub(crate) fn lens() -> Vec<usize> {
    SPARES.with_borrow(|s| s.bufs[..s.len].iter().flatten().map(|b| b.len()).collect())
}
