//! Static statistics of compiled MPMD programs: task counts,
//! communication volumes per actor pair, and dispatch counts — the
//! quantities the paper's design decisions (loop commuting §3.4, task
//! fusion §4.4) are about.

use std::collections::HashMap;

use crate::program::{Instr, MpmdProgram, TaskLabel};

/// Aggregate statistics of one [`MpmdProgram`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramStats {
    /// `Run` instruction counts by kind (`"fwd"`, `"bwd"`, …).
    pub runs_by_kind: HashMap<&'static str, usize>,
    /// Messages per directed actor pair.
    pub messages: HashMap<(usize, usize), usize>,
    /// Bytes on the wire per directed actor pair (4 bytes/element — the
    /// executable runtime's f32; scale by dtype for other precisions).
    pub bytes: HashMap<(usize, usize), u64>,
    /// Total `Free` instructions (buffer deletions, §4.3).
    pub frees: usize,
    /// Total `Collective` instructions (tensor-parallel all-gather and
    /// data-parallel all-reduce participations, counted per member).
    pub collectives: usize,
    /// Driver dispatches per step (1 per non-empty actor, §4.4).
    pub rpcs: usize,
}

impl ProgramStats {
    /// Total cross-actor messages.
    pub fn total_messages(&self) -> usize {
        self.messages.values().sum()
    }

    /// Total cross-actor bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }
}

fn kind_of(label: &TaskLabel) -> &'static str {
    match label {
        TaskLabel::Fwd { .. } => "fwd",
        TaskLabel::Bwd { .. } => "bwd",
        TaskLabel::BwdW { .. } => "bwdw",
        TaskLabel::AccumGrad { .. } => "accum_grad",
        TaskLabel::CotangentSum { .. } => "ct_sum",
        TaskLabel::GradReduce { .. } => "grad_reduce",
        TaskLabel::Update { .. } => "update",
    }
}

/// Computes [`ProgramStats`] for `program`. Communication volume is
/// measured at the receiving side (every send has exactly one matching
/// receive carrying the shape).
pub fn program_stats(program: &MpmdProgram) -> ProgramStats {
    let mut stats = ProgramStats::default();
    for (a, stream) in program.actors.iter().enumerate() {
        if !stream.is_empty() {
            stats.rpcs += 1;
        }
        for instr in stream {
            match instr {
                Instr::Run { label, .. } => {
                    *stats.runs_by_kind.entry(kind_of(label)).or_insert(0) += 1;
                }
                Instr::Recv { from, shape, .. } => {
                    *stats.messages.entry((*from, a)).or_insert(0) += 1;
                    *stats.bytes.entry((*from, a)).or_insert(0) += 4 * shape.numel() as u64;
                }
                Instr::Free { .. } => stats.frees += 1,
                Instr::Collective { .. } => stats.collectives += 1,
                Instr::Send { .. } => {}
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::unroll::{insert_frees, unroll_loop, UnrollOptions};
    use raxpp_ir::TraceCtx;
    use raxpp_sched::one_f1b;

    fn tied_program(commuting: bool, n_mb: usize) -> MpmdProgram {
        let ctx = TraceCtx::new();
        let w = ctx.input([8, 8]);
        let x = ctx.input([2, 8]);
        let h = ctx.pipeline_yield(&x.matmul(&w).unwrap().tanh());
        let y = h.matmul(&w).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, 1).unwrap();
        let mut compiled = unroll_loop(
            &model,
            &one_f1b(2, n_mb).unwrap(),
            UnrollOptions {
                loop_commuting: commuting,
            },
        )
        .unwrap();
        insert_frees(&mut compiled.program);
        compiled.program
    }

    #[test]
    fn counts_tasks_and_messages() {
        let p = tied_program(true, 4);
        let s = program_stats(&p);
        assert_eq!(s.runs_by_kind["fwd"], 2 * 4);
        assert_eq!(s.runs_by_kind["bwd"], 2 * 4);
        assert_eq!(s.rpcs, 2);
        assert!(s.frees > 0);
        assert!(s.total_messages() > 0);
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn loop_commuting_reduces_gradient_bytes() {
        // §3.4's motivation quantified: the naive scheme ships a partial
        // gradient per microbatch; commuting ships one accumulated
        // gradient per shared weight.
        let n_mb = 16;
        let commuted = program_stats(&tied_program(true, n_mb));
        let naive = program_stats(&tied_program(false, n_mb));
        // Same activation traffic; the difference is gradient messages.
        let diff_msgs = naive.total_messages() - commuted.total_messages();
        assert_eq!(diff_msgs, n_mb - 1);
        let diff_bytes = naive.total_bytes() - commuted.total_bytes();
        assert_eq!(diff_bytes, (n_mb as u64 - 1) * 4 * 64); // 8x8 f32 grads
    }

    #[test]
    fn byte_accounting_matches_shapes() {
        let p = tied_program(true, 2);
        let s = program_stats(&p);
        // Activations [2,8] forward + cotangents [2,8] backward, 2 mbs
        // each way, plus 1 shared-weight gradient [8,8].
        let act = 2 * 4 * (2 * 8) as u64;
        let expect_0_to_1 = act; // activations
        let expect_1_to_0 = act + 4 * 64; // cotangents + grad reduce
        assert_eq!(s.bytes[&(0, 1)], expect_0_to_1);
        assert_eq!(s.bytes[&(1, 0)], expect_1_to_0);
    }
}
