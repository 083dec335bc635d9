//! Pins of the compile chain's output: FNV-1a hashes of every program
//! and schedule the chain produces over a small grid, captured at commit
//! `56ee630` (before PR 24 touched the traversal). A refactor that means
//! to change nothing passes unmodified; one that means to change
//! something edits a row and says why next to it. Every fold that
//! succeeds must also pass `verify_program`.
//!
//! On a mismatch the test prints the whole table as it is now, ready to
//! paste over `PINS`.

use raxpp_core::{compile_worker_program, CompileOptions, DpConfig, Optimizer, TpConfig};
use raxpp_integration::{adjacent_fold, schedules_for, trace, RandomModel};
use raxpp_models::{mlp_chain, tiny_lm, BuiltModel, TinyLmConfig};
use raxpp_sched::{gpipe, one_f1b, Schedule};
use raxpp_taskgraph::{
    forward_project, insert_frees, pipeline_model, replace_program, unroll_loop, verify_program,
    MpmdProgram, UnrollOptions,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        // Separator, so that adjacent texts cannot run together.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }

    fn program(&mut self, p: &MpmdProgram) {
        self.text(&p.dump());
        self.text(&format!("{:?}{:?}", p.placements, p.fetches));
    }
}

/// The tp × dp cells every training program is compiled at, besides
/// the plain pipeline.
fn cells() -> [(usize, DpConfig); 4] {
    [
        (2, DpConfig::replicas(1)),
        (1, DpConfig::replicas(2)),
        (2, DpConfig::replicas(2)),
        (2, DpConfig::zero1(2)),
    ]
}

fn compiled(
    model: &BuiltModel,
    schedule: &Schedule,
    optimizer: Optimizer,
    opts: CompileOptions,
) -> MpmdProgram {
    compile_worker_program(&model.jaxpr, model.n_params, schedule, optimizer, opts).unwrap()
}

/// Every row of the grid as `(name, hash)`, in a fixed order.
fn rows() -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    let models = [
        ("4/4", 4, 4, false, false),
        ("4/2 tied", 4, 2, true, false),
        ("6/4 tied+skip", 6, 4, true, true),
        ("5/3 skip", 5, 3, false, true),
    ];
    for (name, layers, n_stages, share_first_last, skip_from_first) in models {
        let (jaxpr, n_params) = trace(
            &RandomModel {
                layers,
                n_stages,
                share_first_last,
                skip_from_first,
            },
            4,
        );
        let model = BuiltModel {
            jaxpr,
            n_params,
            init: Vec::new(),
        };
        let pmodel = pipeline_model(&model.jaxpr, n_params).unwrap();
        for schedule in schedules_for(n_stages, 4) {
            let n = schedule.n_actors();
            let mut h = Fnv::new();
            for k in 0..n - 1 {
                match schedule.fold(&adjacent_fold(n, k)) {
                    Ok(folded) => h.text(&folded.to_string()),
                    Err(e) => h.text(&e.to_string()),
                }
            }
            rows.push((
                format!("{name} | {} | Schedule::fold", schedule.name()),
                h.0,
            ));

            for loop_commuting in [true, false] {
                let row = |kind: &str| {
                    let lc = if loop_commuting { "lc" } else { "no-lc" };
                    format!("{name} | {} | {lc} | {kind}", schedule.name())
                };
                let opts = CompileOptions {
                    loop_commuting,
                    ..CompileOptions::default()
                };
                let sgd = Optimizer::Sgd { lr: 0.1 };

                // The unrolled loop with its frees, its forward half, and
                // the whole step program (optimizer updates appended).
                let unrolled = unroll_loop(&pmodel, &schedule, UnrollOptions { loop_commuting })
                    .unwrap()
                    .program;
                let mut forward = forward_project(&unrolled).unwrap();
                insert_frees(&mut forward);
                let mut looped = unrolled;
                insert_frees(&mut looped);
                let step = compiled(&model, &schedule, sgd, opts.clone());
                let mut h = Fnv::new();
                h.program(&looped);
                h.program(&forward);
                h.program(&step);
                rows.push((row("loop + forward + step"), h.0));

                // The step program at every tp × dp cell.
                let mut h = Fnv::new();
                for (tp, dp) in cells() {
                    h.program(&compiled(
                        &model,
                        &schedule,
                        sgd,
                        CompileOptions {
                            tp: Some(TpConfig::model_parallel(tp)),
                            dp: Some(dp),
                            ..opts.clone()
                        },
                    ));
                }
                rows.push((row("compile tp/dp"), h.0));

                // Every adjacent fold of the loop and of the step program
                // (what `Runtime::rebalance` re-places), errors included.
                for k in 0..n - 1 {
                    let mut h = Fnv::new();
                    for program in [&looped, &step] {
                        match replace_program(program, &adjacent_fold(n, k)) {
                            Ok(folded) => {
                                verify_program(&folded).unwrap();
                                h.program(&folded);
                            }
                            Err(e) => h.text(&e.to_string()),
                        }
                    }
                    rows.push((row(&format!("fold {} -> {k}", k + 1)), h.0));
                }
            }
        }
    }

    // The four training configurations of the benchmark
    // (`crates/bench/src/bin/benchmark/src/train.rs`).
    let lm = TinyLmConfig {
        seq: 16,
        vocab: 64,
        emb: 64,
        ffn: 256,
        blocks: 4,
        heads: 4,
        n_stages: 2,
        tied_embeddings: true,
    };
    let sgd = Optimizer::Sgd { lr: 1e-3 };
    let tp2_dp2 = CompileOptions {
        tp: Some(TpConfig::model_parallel(2)),
        dp: Some(DpConfig::replicas(2)),
        ..CompileOptions::default()
    };
    let plain = CompileOptions::default;
    let workloads = [
        (
            "mlp_gpipe_pp4",
            mlp_chain(512, 64, 4, 4, 0),
            gpipe(4, 4),
            sgd,
            plain(),
        ),
        (
            "lm_1f1b_pp2",
            tiny_lm(lm, 0),
            one_f1b(2, 16),
            Optimizer::adam(1e-3),
            plain(),
        ),
        (
            "mlp_1f1b_pp4_uds",
            mlp_chain(256, 256, 4, 4, 0),
            one_f1b(4, 8),
            sgd,
            plain(),
        ),
        (
            "mlp_gpipe_pp2_tp2_dp2",
            mlp_chain(512, 128, 2, 2, 0),
            gpipe(2, 2),
            sgd,
            tp2_dp2,
        ),
    ];
    for (name, model, schedule, optimizer, opts) in workloads {
        let mut h = Fnv::new();
        h.program(&compiled(
            &model.unwrap(),
            &schedule.unwrap(),
            optimizer,
            opts,
        ));
        rows.push((format!("benchmark | {name}"), h.0));
    }
    rows
}

/// PR 24 edited twelve rows: the adjacent folds of the skip-connection
/// model were `ReplaceError::Stuck` at `56ee630` (two-pass re-placement
/// gated the sends by an order its one in-order sender could not take)
/// and are programs since re-placement is one pass on the merged FIFO.
///
/// The row marked "all-gather reassembly" (the benchmark's `tp2_dp2`
/// program, and every `compile tp/dp` row with it) moved when tensor
/// parallelism stopped reassembling backward outputs by a `-0.0`-padded
/// all-reduce: every sharded output now leaves its `Run` as a block and
/// is all-gathered, so the per-rank jaxprs lose their `pad_last`s and
/// the collectives change kind.
///
/// The 30 rows marked "ZeRO-1 reduce-scatter" (every `compile tp/dp`
/// row, whose hash includes the `DpConfig::zero1(2)` cell) moved when
/// ZeRO-1 stopped folding `-0.0`-padded parameter slices with a second
/// all-reduce: the gradient is reduce-scattered on dim 0, the update
/// runs on the replica's block, and the parameter blocks are
/// all-gathered. The plain-DP benchmark row did not move. Every other
/// row is byte-equal.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("4/4 | gpipe(pp=4, mb=4) | Schedule::fold", 0x5807fd28dfbd8e62),
    ("4/4 | gpipe(pp=4, mb=4) | lc | loop + forward + step", 0xda82a2049a716a33),
    ("4/4 | gpipe(pp=4, mb=4) | lc | compile tp/dp", 0xe55a7c7e8dcfb1ca), // ZeRO-1 reduce-scatter
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 1 -> 0", 0x04c22c26e6b15c64),
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 2 -> 1", 0xe1852890dc83d5f4),
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 3 -> 2", 0x310d08312ff5403e),
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | loop + forward + step", 0xda82a2049a716a33),
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | compile tp/dp", 0xe55a7c7e8dcfb1ca), // ZeRO-1 reduce-scatter
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x04c22c26e6b15c64),
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xe1852890dc83d5f4),
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x310d08312ff5403e),
    ("4/4 | 1f1b(pp=4, mb=4) | Schedule::fold", 0x4b13360b603bccf1),
    ("4/4 | 1f1b(pp=4, mb=4) | lc | loop + forward + step", 0x2ad33f4dde360310),
    ("4/4 | 1f1b(pp=4, mb=4) | lc | compile tp/dp", 0x2ce585bec928ac60), // ZeRO-1 reduce-scatter
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 1 -> 0", 0xf97609652a2d6685),
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 2 -> 1", 0xedb5700b7cfd7f65),
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 3 -> 2", 0x8145872b3ba6ab7b),
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | loop + forward + step", 0x2ad33f4dde360310),
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | compile tp/dp", 0x2ce585bec928ac60), // ZeRO-1 reduce-scatter
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 1 -> 0", 0xf97609652a2d6685),
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xedb5700b7cfd7f65),
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x8145872b3ba6ab7b),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | Schedule::fold", 0xe31a98975b27d24e),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | loop + forward + step", 0x5b8a3aa22f05fd20),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | compile tp/dp", 0xf6bb5967d5617c59), // ZeRO-1 reduce-scatter
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 1 -> 0", 0x69dd833b62137a15),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 2 -> 1", 0x6237cd58153d3b8f),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 3 -> 2", 0xbbe8f8eac4120d5d),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | loop + forward + step", 0x5b8a3aa22f05fd20),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | compile tp/dp", 0xf6bb5967d5617c59), // ZeRO-1 reduce-scatter
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x69dd833b62137a15),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 2 -> 1", 0x6237cd58153d3b8f),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 3 -> 2", 0xbbe8f8eac4120d5d),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | Schedule::fold", 0x105111f7f6535047),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | loop + forward + step", 0xe66fd749f89f8024),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | compile tp/dp", 0x9699ff337086a4eb), // ZeRO-1 reduce-scatter
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | fold 1 -> 0", 0xabd621dc1fb9a653),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | loop + forward + step", 0xe66fd749f89f8024),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | compile tp/dp", 0x9699ff337086a4eb), // ZeRO-1 reduce-scatter
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | fold 1 -> 0", 0xabd621dc1fb9a653),
    ("4/2 tied | gpipe(pp=2, mb=4) | Schedule::fold", 0x47d244affaa8bfa2),
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | loop + forward + step", 0xe434a8ce1224e56b),
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | compile tp/dp", 0x54159205899657ee), // ZeRO-1 reduce-scatter
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | fold 1 -> 0", 0xa4dc64424a580f1d),
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | loop + forward + step", 0x5b5a8a85fd5925a9),
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | compile tp/dp", 0x7cb74db322f01540), // ZeRO-1 reduce-scatter
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x15ec94b64471adbb),
    ("4/2 tied | 1f1b(pp=2, mb=4) | Schedule::fold", 0x1493168a66440a9d),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | loop + forward + step", 0xd5bbb59d367128aa),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | compile tp/dp", 0xf465ff8085435267), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | fold 1 -> 0", 0x07f2c7558676df7c),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | loop + forward + step", 0xf267bc95cf4c3f95),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | compile tp/dp", 0x7c8d8404fa21b0db), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x96d96f708420ac73),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | Schedule::fold", 0x8f34d68e10f76812),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | loop + forward + step", 0x1ca434d711743d70),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | compile tp/dp", 0x3dab8e75f7aa7300), // ZeRO-1 reduce-scatter
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | fold 1 -> 0", 0xffdd0e38cb76fa98),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | loop + forward + step", 0xb42ab4ea6c0006c1),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | compile tp/dp", 0x7e4701ca222ed804), // ZeRO-1 reduce-scatter
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x6e7d1997cfd1d293),
    ("4/2 tied | 1f1b(pp=2, mb=4) | Schedule::fold", 0x1493168a66440a9d),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | loop + forward + step", 0xd5bbb59d367128aa),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | compile tp/dp", 0xf465ff8085435267), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | fold 1 -> 0", 0x07f2c7558676df7c),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | loop + forward + step", 0xf267bc95cf4c3f95),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | compile tp/dp", 0x7c8d8404fa21b0db), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x96d96f708420ac73),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | Schedule::fold", 0x5807fd28dfbd8e62),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | loop + forward + step", 0x275833c39f1c4eea),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | compile tp/dp", 0xf53231ea8fed527c), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 1 -> 0", 0xaf03a327baa33c44),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 2 -> 1", 0x955d9911b3226719),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 3 -> 2", 0x35f80f71336c36c7),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | loop + forward + step", 0x321720bb511dbf76),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | compile tp/dp", 0xc8bc56b13474627e), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 1 -> 0", 0xf7f029d826badfa2),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xee1b5fefb70250bd),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 3 -> 2", 0xb64926d740f33d09),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | Schedule::fold", 0x4b13360b603bccf1),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | loop + forward + step", 0x1120d99b0d72bedf),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | compile tp/dp", 0x61e49ef3bbad3dcb), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 1 -> 0", 0x06cadae2f8047ba1),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 2 -> 1", 0xfde8afc5c8ffca98),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 3 -> 2", 0x2bc49522efe335dc),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | loop + forward + step", 0x287a9d04778116d8),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | compile tp/dp", 0x334fa632453d9d89), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 1 -> 0", 0xb9faaeabc68dd12c),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 2 -> 1", 0x04166fc812273713),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x366888ef98821e3b),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | Schedule::fold", 0xe31a98975b27d24e),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | loop + forward + step", 0xc7a19f4fbaf541fb),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | compile tp/dp", 0x0400d70462e53d2f), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 1 -> 0", 0xa7b1b7425ba8b23f),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 2 -> 1", 0x0b0854a051c1f0c6),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 3 -> 2", 0x010986490ed9b58a),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | loop + forward + step", 0x72179b042b717d82),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | compile tp/dp", 0xdab7b9362478b8f3), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 1 -> 0", 0xce20e29abe6ca41a),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xb4d86f97f79f7c55),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x7f05147749450133),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | Schedule::fold", 0x105111f7f6535047),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | loop + forward + step", 0x9da58f2876ae5562),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | compile tp/dp", 0xed84bd0f2fd77b33), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | fold 1 -> 0", 0x7bd3a994f4e03a6a),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | loop + forward + step", 0xb99f6ada3d2fd0e3),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | compile tp/dp", 0x42cdaecf77e1141b), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | fold 1 -> 0", 0x371995e101d004bb),
    ("5/3 skip | gpipe(pp=3, mb=4) | Schedule::fold", 0x2e680166fa95997d),
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | loop + forward + step", 0xf16110322f4f778e),
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | compile tp/dp", 0xee0554037065f89f), // ZeRO-1 reduce-scatter
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | fold 1 -> 0", 0x7133669648b47891), // PR 24: was `Stuck`
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | fold 2 -> 1", 0x1ea3fc297842456a), // PR 24: was `Stuck`
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | loop + forward + step", 0xf16110322f4f778e),
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | compile tp/dp", 0xee0554037065f89f), // ZeRO-1 reduce-scatter
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | fold 1 -> 0", 0x7133669648b47891), // PR 24: was `Stuck`
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | fold 2 -> 1", 0x1ea3fc297842456a), // PR 24: was `Stuck`
    ("5/3 skip | 1f1b(pp=3, mb=4) | Schedule::fold", 0x4991bfd4838dfd30),
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | loop + forward + step", 0x7abd710cf02d8858),
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | compile tp/dp", 0x6abd0e0091e8a905), // ZeRO-1 reduce-scatter
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | fold 1 -> 0", 0x1721f4593ae574e1), // PR 24: was `Stuck`
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | fold 2 -> 1", 0xa2ecc83c06c3683e), // PR 24: was `Stuck`
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | loop + forward + step", 0x7abd710cf02d8858),
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | compile tp/dp", 0x6abd0e0091e8a905), // ZeRO-1 reduce-scatter
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | fold 1 -> 0", 0x1721f4593ae574e1), // PR 24: was `Stuck`
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | fold 2 -> 1", 0xa2ecc83c06c3683e), // PR 24: was `Stuck`
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | Schedule::fold", 0x33c398659cc0ff25),
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | loop + forward + step", 0xa458d03af3b59a78),
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | compile tp/dp", 0x43463f955d298812), // ZeRO-1 reduce-scatter
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | fold 1 -> 0", 0x9ed612b52f07da4f), // PR 24: was `Stuck`
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | fold 2 -> 1", 0xb6fa717e4480e978), // PR 24: was `Stuck`
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | loop + forward + step", 0xa458d03af3b59a78),
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | compile tp/dp", 0x43463f955d298812), // ZeRO-1 reduce-scatter
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | fold 1 -> 0", 0x9ed612b52f07da4f), // PR 24: was `Stuck`
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | fold 2 -> 1", 0xb6fa717e4480e978), // PR 24: was `Stuck`
    ("benchmark | mlp_gpipe_pp4", 0x73625d4752b2e453),
    ("benchmark | lm_1f1b_pp2", 0xd6065f582d6f64a2),
    ("benchmark | mlp_1f1b_pp4_uds", 0xde5debb4ebaca1ba),
    ("benchmark | mlp_gpipe_pp2_tp2_dp2", 0x4c400b7607a08a39), // all-gather reassembly
];

#[test]
fn compile_chain_output_is_pinned() {
    let rows = rows();
    let same = rows.len() == PINS.len()
        && rows
            .iter()
            .zip(PINS)
            .all(|((name, hash), (pin_name, pin))| name == pin_name && hash == pin);
    if !same {
        let mut table = String::new();
        for (i, (name, hash)) in rows.iter().enumerate() {
            let moved = PINS.get(i).is_none_or(|(n, h)| n != name || h != hash);
            let mark = if moved { "  // moved" } else { "" };
            table.push_str(&format!("    ({name:?}, {hash:#018x}),{mark}\n"));
        }
        panic!("the compile chain's output moved; the table as it is now:\n{table}");
    }
}
