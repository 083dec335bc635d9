//! Test support for the decoders of untrusted bytes: one mutator that
//! derives damaged inputs from well-formed ones, and one allocation
//! probe that observes (rather than argues) a decoder's memory bound.
//!
//! [`largest_allocation`] sees only what [`NoteLargest`] notes, so a
//! test binary that uses it declares the allocator once:
//!
//! ```
//! #[global_allocator]
//! static ALLOCATOR: raxpp_ir::testing::NoteLargest = raxpp_ir::testing::NoteLargest;
//!
//! fn main() {
//!     let allocate = || drop(std::hint::black_box(vec![0u8; 100]));
//!     let largest = raxpp_ir::testing::largest_allocation(allocate);
//!     assert_eq!(largest, 100);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::rng::{Rng, SeedableRng, StdRng};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
#[derive(Debug)]
pub struct NoteLargest;

fn note(size: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` keeps the allocator contract; `note` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for NoteLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note(size);
        // SAFETY: `p` came from `System` (every block here does), and the
        // caller's `realloc` contract is passed on.
        unsafe { System.realloc(p, layout, size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` with this `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

/// The largest single allocation the calling thread made while `f` ran.
///
/// # Panics
///
/// [`NoteLargest`] is not the global allocator (nothing would be noted,
/// and every bound would pass).
pub fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    drop(std::hint::black_box(vec![0u8; 1]));
    assert!(
        LARGEST.with(Cell::get) > 0,
        "NoteLargest must be the global allocator"
    );
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// Damaged variants of the well-formed inputs `seeds`, drawn from
/// `seed`: for every seed, a random non-zero byte flip at every offset
/// and `0xFF…` over every 4- and 8-byte window (which covers each
/// `u32` / `u64` count and length field wherever it sits); then, for
/// every ordered pair of seeds, the two back to back and eight random
/// splices of a head of the first onto a tail of the second.
pub fn mutants(seeds: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for s in seeds {
        for at in 0..s.len() {
            let mut flipped = s.clone();
            flipped[at] ^= rng.gen_range(1..256u16) as u8;
            out.push(flipped);
            for width in [4, 8] {
                if at + width <= s.len() {
                    let mut edited = s.clone();
                    edited[at..at + width].fill(0xFF);
                    out.push(edited);
                }
            }
        }
    }
    for a in seeds {
        for b in seeds {
            out.push([a.as_slice(), b].concat());
            for _ in 0..8 {
                let head = &a[..rng.gen_range(0..a.len() + 1)];
                let tail = &b[rng.gen_range(0..b.len() + 1)..];
                out.push([head, tail].concat());
            }
        }
    }
    out
}
