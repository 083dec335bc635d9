//! The spare list and the one-allocation kernels, observed through the
//! allocator rather than argued: a matmul allocates its output once and
//! its pack panel once per thread, a dead buffer is reused by the next
//! result of its length, and the list keeps to its three bounds. Each
//! test runs on a thread of its own, so it starts from an empty spare
//! list and a panel never grown.

use std::thread;

use raxpp_ir::testing::{
    allocations_at_least, spares, NoteLargest, MAX_SPARES, MAX_SPARE_BYTES, MIN_SPARE_FLOATS,
};
use raxpp_ir::Tensor;

#[global_allocator]
static ALLOCATOR: NoteLargest = NoteLargest;

/// Runs `f` on a fresh thread.
fn on_a_new_thread(f: impl FnOnce() + Send + 'static) {
    thread::spawn(f).join().unwrap();
}

/// A cold thread's [64×512]@[512×512] makes one output-sized
/// allocation (the result's `Arc`: its two counts, then the payload)
/// and one panel of `k·n` floats. With a spare of the output's length
/// and the panel grown, the same product allocates neither; a smaller
/// product on that thread reuses the panel, and another thread grows
/// its own.
#[test]
fn a_matmul_allocates_its_output_once_and_its_panel_once_per_thread() {
    let (m, k, n) = (64, 512, 512);
    let (out_bytes, panel_bytes) = (4 * m * n, 4 * k * n);
    for _ in 0..2 {
        on_a_new_thread(move || {
            let (a, b) = (Tensor::full([m, k], 0.5), Tensor::full([k, n], 0.25));
            let mut result = None;
            let cold = allocations_at_least(out_bytes, || result = Some(a.matmul(&b).unwrap()));
            assert_eq!(cold.len(), 2, "{cold:?}");
            assert!((out_bytes..out_bytes + 64).contains(&cold[0]), "{cold:?}");
            assert_eq!(cold[1], panel_bytes, "{cold:?}");
            assert_eq!(result.unwrap().data()[0], 0.5 * 0.25 * k as f32);
            assert_eq!(spares(), [m * n], "the dead result is a spare");
            let warm = allocations_at_least(out_bytes, || drop(a.matmul(&b).unwrap()));
            assert_eq!(warm, [], "spare and panel reused");
            let narrow = Tensor::full([k, n / 2], 1.0);
            let smaller = allocations_at_least(4 * m * n / 2, || drop(a.matmul(&narrow)));
            assert_eq!(smaller.len(), 1, "the output only, no panel: {smaller:?}");
            assert!(smaller[0] < panel_bytes / 2, "{smaller:?}");
        });
    }
}

/// The bounds are the documented constants, and no sequence of drops
/// breaks them: 100 small buffers leave the newest `MAX_SPARES`, 100
/// large ones leave as many as fit in `MAX_SPARE_BYTES`, oldest out
/// first. A buffer under the threshold or over the byte cap is never
/// kept, and keeping one allocates nothing.
#[test]
fn the_spare_list_keeps_within_both_caps() {
    assert_eq!(MIN_SPARE_FLOATS, 16 << 10);
    assert_eq!(MAX_SPARES, 8);
    assert_eq!(MAX_SPARE_BYTES, 32 << 20);
    on_a_new_thread(|| {
        let within_caps = |lens: &[usize]| {
            assert!(lens.len() <= MAX_SPARES, "{lens:?}");
            assert!(
                4 * lens.iter().sum::<usize>() <= MAX_SPARE_BYTES,
                "{lens:?}"
            );
        };
        for i in 0..100 {
            drop(Tensor::full([MIN_SPARE_FLOATS + i], 1.0));
            within_caps(&spares());
        }
        let newest: Vec<usize> = (92..100).map(|i| MIN_SPARE_FLOATS + i).collect();
        assert_eq!(spares(), newest, "FIFO: the newest eight");
        let large = 3 << 19; // 6 MiB: five fit in 32 MiB, six do not
        for i in 0..100 {
            drop(Tensor::full([large + i], 1.0));
            within_caps(&spares());
        }
        let newest: Vec<usize> = (95..100).map(|i| large + i).collect();
        assert_eq!(spares(), newest, "as many as the byte cap holds");
        drop(Tensor::full([MIN_SPARE_FLOATS - 1], 1.0));
        drop(Tensor::full([MAX_SPARE_BYTES / 4 + 1], 1.0));
        assert_eq!(spares(), newest, "too small or too large: not kept");
        let t = Tensor::full([MIN_SPARE_FLOATS], 1.0);
        assert_eq!(
            allocations_at_least(1, || drop(t)),
            [],
            "a drop allocates nothing"
        );
        assert_eq!(spares().last(), Some(&MIN_SPARE_FLOATS));
    });
}

/// A buffer something else still holds — another handle, a reshape of
/// it, a store entry or an in-flight send are all such handles — is
/// never recycled; the last handle's drop recycles it. A tensor dropped
/// on another thread lands on that thread's list.
#[test]
fn only_a_dead_buffer_is_recycled_and_on_the_dropping_thread() {
    on_a_new_thread(|| {
        let t = Tensor::full([MIN_SPARE_FLOATS], 2.0);
        let (alias, view) = (t.clone(), t.reshape([2, MIN_SPARE_FLOATS / 2]).unwrap());
        drop(t);
        drop(view);
        assert_eq!(spares(), [], "a shared buffer is not a spare");
        assert_eq!(alias.data()[0], 2.0);
        drop(alias);
        assert_eq!(spares(), [MIN_SPARE_FLOATS]);

        let sent = Tensor::full([MIN_SPARE_FLOATS + 1], 3.0);
        let there = thread::spawn(move || {
            drop(sent);
            spares()
        });
        assert_eq!(there.join().unwrap(), [MIN_SPARE_FLOATS + 1]);
        assert_eq!(spares(), [MIN_SPARE_FLOATS], "not on the sender's list");
    });
}
