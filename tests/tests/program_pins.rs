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
    forward_project, insert_frees, pipeline_model, unroll_loop, verify_program, MpmdProgram,
    UnrollOptions,
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

                // Every adjacent fold, compiled as a rebalance compiles
                // it: the folded schedule's loop and step program.
                for k in 0..n - 1 {
                    let folded = schedule.fold(&adjacent_fold(n, k)).unwrap();
                    let mut folded_loop =
                        unroll_loop(&pmodel, &folded, UnrollOptions { loop_commuting })
                            .unwrap()
                            .program;
                    insert_frees(&mut folded_loop);
                    verify_program(&folded_loop).unwrap();
                    let mut h = Fnv::new();
                    h.program(&folded_loop);
                    h.program(&compiled(&model, &folded, sgd, opts.clone()));
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
/// all-gathered. The plain-DP benchmark row did not move.
///
/// The 15 rows marked "folds keep actor ids" moved when
/// `Schedule::fold` stopped compacting: a fold keeps every actor, the
/// emptied ones with no tasks, and the name counts the actors with
/// tasks. The 60 rows marked "compiled fold" moved when a rebalance
/// stopped rewriting the compiled program (re-placement, with local
/// copies) and compiled the folded schedule instead: each row now
/// hashes the loop and the step program of `S.fold(assign)`. Among
/// them are the twelve skip-connection rows of the first paragraph.
/// Every other row is byte-equal.
#[rustfmt::skip]
const PINS: &[(&str, u64)] = &[
    ("4/4 | gpipe(pp=4, mb=4) | Schedule::fold", 0x4a539f218b96bed6), // folds keep actor ids
    ("4/4 | gpipe(pp=4, mb=4) | lc | loop + forward + step", 0xda82a2049a716a33),
    ("4/4 | gpipe(pp=4, mb=4) | lc | compile tp/dp", 0xe55a7c7e8dcfb1ca), // ZeRO-1 reduce-scatter
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 1 -> 0", 0x679f86585d691e00), // compiled fold
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 2 -> 1", 0x501b7643e77b5fd6), // compiled fold
    ("4/4 | gpipe(pp=4, mb=4) | lc | fold 3 -> 2", 0xda27ccd63381c908), // compiled fold
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | loop + forward + step", 0xda82a2049a716a33),
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | compile tp/dp", 0xe55a7c7e8dcfb1ca), // ZeRO-1 reduce-scatter
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x679f86585d691e00), // compiled fold
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 2 -> 1", 0x501b7643e77b5fd6), // compiled fold
    ("4/4 | gpipe(pp=4, mb=4) | no-lc | fold 3 -> 2", 0xda27ccd63381c908), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | Schedule::fold", 0x3dbc6bb4801865e1), // folds keep actor ids
    ("4/4 | 1f1b(pp=4, mb=4) | lc | loop + forward + step", 0x2ad33f4dde360310),
    ("4/4 | 1f1b(pp=4, mb=4) | lc | compile tp/dp", 0x2ce585bec928ac60), // ZeRO-1 reduce-scatter
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 1 -> 0", 0x4c4e22e59e770ac9), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 2 -> 1", 0x224dc802d33c9a24), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | lc | fold 3 -> 2", 0x818b2f9a449c517b), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | loop + forward + step", 0x2ad33f4dde360310),
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | compile tp/dp", 0x2ce585bec928ac60), // ZeRO-1 reduce-scatter
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x4c4e22e59e770ac9), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 2 -> 1", 0x224dc802d33c9a24), // compiled fold
    ("4/4 | 1f1b(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x818b2f9a449c517b), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | Schedule::fold", 0x4168bd06547161e4), // folds keep actor ids
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | loop + forward + step", 0x5b8a3aa22f05fd20),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | compile tp/dp", 0xf6bb5967d5617c59), // ZeRO-1 reduce-scatter
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 1 -> 0", 0xa73770b695cd0c0e), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 2 -> 1", 0x4f74eaa304d59b9b), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | lc | fold 3 -> 2", 0x895097fcf7aba711), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | loop + forward + step", 0x5b8a3aa22f05fd20),
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | compile tp/dp", 0xf6bb5967d5617c59), // ZeRO-1 reduce-scatter
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 1 -> 0", 0xa73770b695cd0c0e), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 2 -> 1", 0x4f74eaa304d59b9b), // compiled fold
    ("4/4 | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x895097fcf7aba711), // compiled fold
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | Schedule::fold", 0xae38bf3423911bc8), // folds keep actor ids
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | loop + forward + step", 0xe66fd749f89f8024),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | compile tp/dp", 0x9699ff337086a4eb), // ZeRO-1 reduce-scatter
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | fold 1 -> 0", 0x5b60d3880cd4c5d5), // compiled fold
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | loop + forward + step", 0xe66fd749f89f8024),
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | compile tp/dp", 0x9699ff337086a4eb), // ZeRO-1 reduce-scatter
    ("4/4 | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | fold 1 -> 0", 0x5b60d3880cd4c5d5), // compiled fold
    ("4/2 tied | gpipe(pp=2, mb=4) | Schedule::fold", 0x513aab3fb5571335), // folds keep actor ids
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | loop + forward + step", 0xe434a8ce1224e56b),
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | compile tp/dp", 0x54159205899657ee), // ZeRO-1 reduce-scatter
    ("4/2 tied | gpipe(pp=2, mb=4) | lc | fold 1 -> 0", 0x767961d3fe2b800f), // compiled fold
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | loop + forward + step", 0x5b5a8a85fd5925a9),
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | compile tp/dp", 0x7cb74db322f01540), // ZeRO-1 reduce-scatter
    ("4/2 tied | gpipe(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x014e0783d8b421c9), // compiled fold
    ("4/2 tied | 1f1b(pp=2, mb=4) | Schedule::fold", 0x064d6233e6755ece), // folds keep actor ids
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | loop + forward + step", 0xd5bbb59d367128aa),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | compile tp/dp", 0xf465ff8085435267), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | fold 1 -> 0", 0xdd0ea818f0bdea6a), // compiled fold
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | loop + forward + step", 0xf267bc95cf4c3f95),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | compile tp/dp", 0x7c8d8404fa21b0db), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x7e7312d35c0bc261), // compiled fold
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | Schedule::fold", 0x029f9e4058811419), // folds keep actor ids
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | loop + forward + step", 0x1ca434d711743d70),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | compile tp/dp", 0x3dab8e75f7aa7300), // ZeRO-1 reduce-scatter
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | lc | fold 1 -> 0", 0xd734e3be116c8fa8), // compiled fold
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | loop + forward + step", 0xb42ab4ea6c0006c1),
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | compile tp/dp", 0x7e4701ca222ed804), // ZeRO-1 reduce-scatter
    ("4/2 tied | zero_bubble_h1(pp=2, mb=4) | no-lc | fold 1 -> 0", 0xa2ca3256c3a3d4d9), // compiled fold
    ("4/2 tied | 1f1b(pp=2, mb=4) | Schedule::fold", 0x064d6233e6755ece), // folds keep actor ids
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | loop + forward + step", 0xd5bbb59d367128aa),
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | compile tp/dp", 0xf465ff8085435267), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | lc | fold 1 -> 0", 0xdd0ea818f0bdea6a), // compiled fold
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | loop + forward + step", 0xf267bc95cf4c3f95),
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | compile tp/dp", 0x7c8d8404fa21b0db), // ZeRO-1 reduce-scatter
    ("4/2 tied | 1f1b(pp=2, mb=4) | no-lc | fold 1 -> 0", 0x7e7312d35c0bc261), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | Schedule::fold", 0x4a539f218b96bed6), // folds keep actor ids
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | loop + forward + step", 0x275833c39f1c4eea),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | compile tp/dp", 0xf53231ea8fed527c), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 1 -> 0", 0x5d9f8fc4c38903da), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 2 -> 1", 0x1ef0ddd37837051f), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | lc | fold 3 -> 2", 0x12c3a01a6214729b), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | loop + forward + step", 0x321720bb511dbf76),
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | compile tp/dp", 0xc8bc56b13474627e), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x5680c367ad4c4646), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xd61a5453414ae193), // compiled fold
    ("6/4 tied+skip | gpipe(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x9bc077c346eafd7d), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | Schedule::fold", 0x3dbc6bb4801865e1), // folds keep actor ids
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | loop + forward + step", 0x1120d99b0d72bedf),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | compile tp/dp", 0x61e49ef3bbad3dcb), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 1 -> 0", 0x9f279e76f92bb806), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 2 -> 1", 0x8f79ce55c1469c44), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | lc | fold 3 -> 2", 0xb61187ccafb43d94), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | loop + forward + step", 0x287a9d04778116d8),
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | compile tp/dp", 0x334fa632453d9d89), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x7c180ca8933c52a9), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xa031fffabec87edf), // compiled fold
    ("6/4 tied+skip | 1f1b(pp=4, mb=4) | no-lc | fold 3 -> 2", 0xe2bc2b9877e30e6a), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | Schedule::fold", 0x4168bd06547161e4), // folds keep actor ids
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | loop + forward + step", 0xc7a19f4fbaf541fb),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | compile tp/dp", 0x0400d70462e53d2f), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 1 -> 0", 0xa7bb6facd958f519), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 2 -> 1", 0xd88ac4d34c5ceb22), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | lc | fold 3 -> 2", 0xf324f7c12d4dbc4e), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | loop + forward + step", 0x72179b042b717d82),
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | compile tp/dp", 0xdab7b9362478b8f3), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 1 -> 0", 0x2760a0f35457ab52), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 2 -> 1", 0xb7b11045e628fc55), // compiled fold
    ("6/4 tied+skip | zero_bubble_h1(pp=4, mb=4) | no-lc | fold 3 -> 2", 0x1db6255ad8d6bf9e), // compiled fold
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | Schedule::fold", 0xae38bf3423911bc8), // folds keep actor ids
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | loop + forward + step", 0x9da58f2876ae5562),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | compile tp/dp", 0xed84bd0f2fd77b33), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | lc | fold 1 -> 0", 0x33e571a61ddfca53), // compiled fold
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | loop + forward + step", 0xb99f6ada3d2fd0e3),
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | compile tp/dp", 0x42cdaecf77e1141b), // ZeRO-1 reduce-scatter
    ("6/4 tied+skip | interleaved_1f1b(pp=2, mb=4, repeat=2) | no-lc | fold 1 -> 0", 0xbc98ad4ceb2dad66), // compiled fold
    ("5/3 skip | gpipe(pp=3, mb=4) | Schedule::fold", 0xba4934aed4a4ad51), // folds keep actor ids
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | loop + forward + step", 0xf16110322f4f778e),
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | compile tp/dp", 0xee0554037065f89f), // ZeRO-1 reduce-scatter
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | fold 1 -> 0", 0xd3b6c91a3fa96279), // compiled fold
    ("5/3 skip | gpipe(pp=3, mb=4) | lc | fold 2 -> 1", 0x53a70bb2df3ac0a4), // compiled fold
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | loop + forward + step", 0xf16110322f4f778e),
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | compile tp/dp", 0xee0554037065f89f), // ZeRO-1 reduce-scatter
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | fold 1 -> 0", 0xd3b6c91a3fa96279), // compiled fold
    ("5/3 skip | gpipe(pp=3, mb=4) | no-lc | fold 2 -> 1", 0x53a70bb2df3ac0a4), // compiled fold
    ("5/3 skip | 1f1b(pp=3, mb=4) | Schedule::fold", 0x68e04d612910ca81), // folds keep actor ids
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | loop + forward + step", 0x7abd710cf02d8858),
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | compile tp/dp", 0x6abd0e0091e8a905), // ZeRO-1 reduce-scatter
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | fold 1 -> 0", 0xf26436849b7487ca), // compiled fold
    ("5/3 skip | 1f1b(pp=3, mb=4) | lc | fold 2 -> 1", 0xaa382539a3e2f2f4), // compiled fold
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | loop + forward + step", 0x7abd710cf02d8858),
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | compile tp/dp", 0x6abd0e0091e8a905), // ZeRO-1 reduce-scatter
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | fold 1 -> 0", 0xf26436849b7487ca), // compiled fold
    ("5/3 skip | 1f1b(pp=3, mb=4) | no-lc | fold 2 -> 1", 0xaa382539a3e2f2f4), // compiled fold
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | Schedule::fold", 0x505ddbcc2c45209f), // folds keep actor ids
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | loop + forward + step", 0xa458d03af3b59a78),
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | compile tp/dp", 0x43463f955d298812), // ZeRO-1 reduce-scatter
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | fold 1 -> 0", 0xec93626e24446041), // compiled fold
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | lc | fold 2 -> 1", 0xdc928a67ae6edbec), // compiled fold
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | loop + forward + step", 0xa458d03af3b59a78),
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | compile tp/dp", 0x43463f955d298812), // ZeRO-1 reduce-scatter
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | fold 1 -> 0", 0xec93626e24446041), // compiled fold
    ("5/3 skip | zero_bubble_h1(pp=3, mb=4) | no-lc | fold 2 -> 1", 0xdc928a67ae6edbec), // compiled fold
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
