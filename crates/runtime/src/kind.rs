//! The one taxonomy a step's time is accounted under: what an
//! [`ActorProfile`](crate::ActorProfile) is indexed by, what a
//! [`SpanEvent`](crate::SpanEvent)'s `kind` names and what the wire
//! codec sends as one byte.

use raxpp_taskgraph::{CollectiveAxis, Instr, TaskLabel};

catalogue! {
    /// What an instruction — or a named interval inside one — spent its
    /// time on. The discriminant is the wire encoding: append only.
    pub enum Kind {
        /// Forward task of one stage for one microbatch.
        Fwd => "fwd",
        /// Backward task (the activation-gradient half under a
        /// split-backward schedule).
        Bwd => "bwd",
        /// Deferred weight-gradient half of a split backward.
        BwdW => "bwdw",
        /// Local gradient accumulation.
        AccumGrad => "accum_grad",
        /// Cotangent sum over several consumer stages.
        CtSum => "ct_sum",
        /// Cross-actor reduce of shared-weight partial gradients.
        GradReduce => "grad_reduce",
        /// Optimizer update of one parameter.
        Update => "update",
        /// `Send`: store bookkeeping plus the hand-off to the fabric.
        Send => "send",
        /// `Recv`: almost entirely *waiting* for upstream data — the
        /// executable form of the pipeline bubble.
        Recv => "recv",
        /// `Copy`: a send/recv pair folded onto one actor by a rebalance.
        Copy => "copy",
        /// `Free`: buffer deletion.
        Free => "free",
        /// One tensor-parallel collective executed by one rank.
        Collective => "collective",
        /// One data-parallel collective executed by one replica.
        DpCollective => "dp_collective",
        /// The time a rank spent blocked on its tensor-parallel peers,
        /// inside its [`Kind::Collective`].
        CollectiveWait => "collective_wait",
        /// The data-parallel analogue of [`Kind::CollectiveWait`].
        DpCollectiveWait => "dp_collective_wait",
        /// One interpreter equation inside a `Run` (trace only).
        Op => "op",
        /// The synchronous socket write inside a `Send` (trace only).
        Wire => "wire",
        /// One served request's lifetime, recorded by `raxpp-serve` onto a
        /// pseudo-actor track (trace only).
        Serve => "serve",
    }
}

impl Kind {
    /// The kind a wire byte stands for; `None` for a byte no kind has.
    pub fn from_u8(byte: u8) -> Option<Kind> {
        Kind::ALL.get(usize::from(byte)).copied()
    }

    /// The kind an instruction's time is accounted under.
    pub fn of(instr: &Instr) -> Kind {
        match instr {
            Instr::Run { label, .. } => match label {
                TaskLabel::Fwd { .. } => Kind::Fwd,
                TaskLabel::Bwd { .. } => Kind::Bwd,
                TaskLabel::BwdW { .. } => Kind::BwdW,
                TaskLabel::AccumGrad { .. } => Kind::AccumGrad,
                TaskLabel::CotangentSum { .. } => Kind::CtSum,
                TaskLabel::GradReduce { .. } => Kind::GradReduce,
                TaskLabel::Update { .. } => Kind::Update,
            },
            Instr::Send { .. } => Kind::Send,
            Instr::Recv { .. } => Kind::Recv,
            Instr::Copy { .. } => Kind::Copy,
            Instr::Free { .. } => Kind::Free,
            Instr::Collective { axis, .. } => match axis {
                CollectiveAxis::Tp => Kind::Collective,
                CollectiveAxis::Dp => Kind::DpCollective,
            },
        }
    }

    /// Whether this is the time of a `Run` task graph.
    pub fn is_compute(self) -> bool {
        self as u8 <= Kind::Update as u8
    }

    /// Whether this names an interval *inside* an instruction's own
    /// span — a share of its parent's time, not time of its own.
    pub fn is_nested(self) -> bool {
        matches!(
            self,
            Kind::CollectiveWait | Kind::DpCollectiveWait | Kind::Op | Kind::Wire
        )
    }

    /// Whether an [`ActorProfile`](crate::ActorProfile) accounts this
    /// kind: everything an instruction stream itself spends time on.
    /// The rest exist only as trace spans.
    pub(crate) fn is_profiled(self) -> bool {
        !matches!(self, Kind::Op | Kind::Wire | Kind::Serve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raxpp_taskgraph::{program_stats, JaxprId, MpmdProgram};

    /// `raxpp-taskgraph` cannot see this crate, so its `program_stats`
    /// keeps the task-label half of the table; this pins the two equal.
    #[test]
    fn run_kinds_match_taskgraph_stats() {
        let labels = [
            TaskLabel::Fwd {
                mubatch: 0,
                stage: 0,
            },
            TaskLabel::Bwd {
                mubatch: 0,
                stage: 0,
            },
            TaskLabel::BwdW {
                mubatch: 0,
                stage: 0,
            },
            TaskLabel::AccumGrad { param: 0 },
            TaskLabel::CotangentSum { stage: 0 },
            TaskLabel::GradReduce { param: 0 },
            TaskLabel::Update { param: 0 },
        ];
        for label in labels {
            let run = Instr::Run {
                jaxpr: JaxprId(0),
                inputs: vec![],
                outputs: vec![],
                label,
            };
            let kind = Kind::of(&run);
            assert!(kind.is_compute() && !kind.is_nested());
            let program = MpmdProgram {
                jaxprs: vec![],
                actors: vec![vec![run]],
                placements: vec![],
                fetches: vec![],
                tp: None,
                dp: None,
            };
            let by_kind = program_stats(&program).runs_by_kind;
            assert_eq!(by_kind.keys().copied().collect::<Vec<_>>(), [kind.as_str()]);
        }
    }

    /// The span-category table of `docs/observability.md` is the
    /// human-readable copy of [`Kind::ALL`]: same names, each once.
    #[test]
    fn doc_span_category_table_is_kind_all() {
        let table = crate::catalogue::doc_table("| `cat` | Meaning |");
        let mut documented: Vec<&str> = table.into_iter().flat_map(|(names, _)| names).collect();
        let mut kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.as_str()).collect();
        documented.sort_unstable();
        kinds.sort_unstable();
        assert_eq!(documented, kinds);
    }
}
