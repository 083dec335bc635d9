//! The fused MPMD program representation: one instruction stream per
//! actor, dispatched in a single message (paper §4.4 "task fusion").

use std::fmt;

use raxpp_ir::{Jaxpr, Shape};

/// Identifier of a device buffer in the global buffer namespace.
///
/// Buffer ids are assigned by the compiler; each actor's on-device object
/// store maps ids to tensors at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u32);

impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Index of an actor (an SPMD process group).
pub type ActorId = usize;

/// Index into the program's jaxpr table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JaxprId(pub u32);

/// What a [`Instr::Run`] instruction computes, for diagnostics, cost
/// modeling, and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskLabel {
    /// Forward computation of a stage for one microbatch.
    Fwd {
        /// Microbatch index.
        mubatch: usize,
        /// Stage index.
        stage: usize,
    },
    /// Backward computation of a stage for one microbatch (the full
    /// backward, or its activation-gradient half under a split-backward
    /// schedule).
    Bwd {
        /// Microbatch index.
        mubatch: usize,
        /// Stage index.
        stage: usize,
    },
    /// Deferred weight-gradient half of a split backward (zero-bubble
    /// schedules).
    BwdW {
        /// Microbatch index.
        mubatch: usize,
        /// Stage index.
        stage: usize,
    },
    /// Local gradient accumulation (`acc += partial`).
    AccumGrad {
        /// The parameter whose gradient is accumulated.
        param: usize,
    },
    /// Summing cotangent contributions from multiple consumer stages.
    CotangentSum {
        /// Stage whose output's cotangent is being summed.
        stage: usize,
    },
    /// Cross-actor reduction of shared-weight partial gradients
    /// (the loop-commuting rewrite of paper §3.4).
    GradReduce {
        /// The shared parameter.
        param: usize,
    },
    /// Optimizer update of one parameter.
    Update {
        /// The parameter updated.
        param: usize,
    },
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskLabel::Fwd { mubatch, stage } => write!(f, "fwd(mb={mubatch}, s={stage})"),
            TaskLabel::Bwd { mubatch, stage } => write!(f, "bwd(mb={mubatch}, s={stage})"),
            TaskLabel::BwdW { mubatch, stage } => write!(f, "bwdw(mb={mubatch}, s={stage})"),
            TaskLabel::AccumGrad { param } => write!(f, "accum_grad(p={param})"),
            TaskLabel::CotangentSum { stage } => write!(f, "ct_sum(s={stage})"),
            TaskLabel::GradReduce { param } => write!(f, "grad_reduce(p={param})"),
            TaskLabel::Update { param } => write!(f, "update(p={param})"),
        }
    }
}

/// Which collective a [`Instr::Collective`] performs across its group.
///
/// Every kind is *exact* under the bitwise-determinism contract: each
/// member sends every peer the piece that peer needs, then combines the
/// pieces it received locally in rank-ascending order with the same
/// scalar kernels on every member — concatenation for
/// [`CollectiveKind::AllGather`], a left-fold elementwise sum for
/// [`CollectiveKind::AllReduce`] and [`CollectiveKind::ReduceScatter`].
/// No rank-dependent association, no FMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Concatenate all ranks' blocks along `dim` (equal shapes except
    /// on `dim`); every rank ends with the full tensor. The
    /// tensor-parallel reassembly and ZeRO-1's parameter gather.
    AllGather,
    /// Elementwise rank-ascending sum of all ranks' contributions; every
    /// rank ends with the identical sum. The plain data-parallel
    /// gradient sum.
    AllReduce,
    /// Rank `j` ends with block `j` along `dim` (the `dp_split` blocks,
    /// which may be uneven) of the rank-ascending sum: bitwise the
    /// all-reduce restricted to that block. ZeRO-1's gradient sum.
    ReduceScatter,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveKind::AllGather => write!(f, "all_gather"),
            CollectiveKind::AllReduce => write!(f, "all_reduce"),
            CollectiveKind::ReduceScatter => write!(f, "reduce_scatter"),
        }
    }
}

/// Which mesh axis a [`Instr::Collective`] communicates over.
///
/// The axis routes metrics only (`bytes_wire`/`collective_wait` for TP
/// vs `dp_bytes_wire`/`dp_collective_wait` for DP); the combine is
/// chosen by [`CollectiveKind`] alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveAxis {
    /// Tensor-parallel rank group (the ranks of one pipeline host).
    Tp,
    /// Data-parallel replica group (the same position in every replica).
    Dp,
}

impl fmt::Display for CollectiveAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveAxis::Tp => write!(f, "tp"),
            CollectiveAxis::Dp => write!(f, "dp"),
        }
    }
}

/// One instruction of an actor's fused stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Execute a jaxpr: read `inputs` from the object store, write
    /// `outputs` (outputs may overwrite existing buffers, e.g. parameter
    /// updates).
    Run {
        /// Which jaxpr in the program table.
        jaxpr: JaxprId,
        /// Input buffers, in jaxpr input order.
        inputs: Vec<BufferId>,
        /// Output buffers, in jaxpr output order.
        outputs: Vec<BufferId>,
        /// What this task is, for diagnostics and cost models.
        label: TaskLabel,
    },
    /// Asynchronously send `buf` to actor `to`. Sends between the same
    /// actor pair must be received in issue order (NCCL semantics,
    /// paper §4.2).
    Send {
        /// Buffer to transmit.
        buf: BufferId,
        /// Destination actor.
        to: ActorId,
    },
    /// Receive the next message from actor `from` into `buf`.
    ///
    /// `src` is the sender-side buffer id expected on the wire (the
    /// §4.2 matching-order check); it usually equals `buf`, but differs
    /// when a value is received into a different local buffer (e.g.
    /// propagating an updated shared weight into a replica's own
    /// parameter buffer).
    Recv {
        /// Local buffer to store into.
        buf: BufferId,
        /// Sender-side buffer id expected next from `from`.
        src: BufferId,
        /// Source actor.
        from: ActorId,
        /// Expected shape (checked by the runtime).
        shape: Shape,
    },
    /// Delete a buffer from the object store. If the buffer has an
    /// outstanding asynchronous send, the runtime defers the deletion via
    /// its pending-deletions queue (paper §4.3).
    Free {
        /// Buffer to delete.
        buf: BufferId,
    },
    /// Execute one collective across a tensor- or data-parallel group:
    /// contribute `src`, send every other member of `group` the piece of
    /// it that member needs over the ordinary actor message fabric,
    /// receive one piece from each, combine them in rank-ascending
    /// order, and store the result in `dst`.
    ///
    /// `group` lists the participating actors in rank-ascending order and
    /// contains the executing actor. `wires[r]` is the buffer id rank
    /// `r`'s pieces travel under on the wire (each rank's `src` *is*
    /// `wires[its own rank]`), which keeps the §4.2 per-pair FIFO
    /// matching-order discipline intact across back-to-back collectives.
    Collective {
        /// Which collective to perform.
        kind: CollectiveKind,
        /// Result buffer.
        dst: BufferId,
        /// This actor's contribution (equals `wires[own rank]`).
        src: BufferId,
        /// Participating actors, rank-ascending, including this one.
        group: Vec<ActorId>,
        /// Wire buffer ids per rank (`wires.len() == group.len()`).
        wires: Vec<BufferId>,
        /// Axis along which [`CollectiveKind::AllGather`] concatenates
        /// and [`CollectiveKind::ReduceScatter`] splits (ignored by
        /// [`CollectiveKind::AllReduce`]).
        dim: usize,
        /// Which mesh axis the group spans (metrics routing only).
        axis: CollectiveAxis,
    },
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Run {
                label,
                inputs,
                outputs,
                ..
            } => {
                write!(f, "run {label} (in: ")?;
                for (i, b) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, "; out: ")?;
                for (i, b) in outputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            Instr::Send { buf, to } => write!(f, "send {buf} -> actor {to}"),
            Instr::Recv { buf, from, .. } => write!(f, "recv {buf} <- actor {from}"),
            Instr::Free { buf } => write!(f, "free {buf}"),
            Instr::Collective {
                kind,
                dst,
                src,
                group,
                ..
            } => write!(f, "{kind} {src} -> {dst} (group {group:?})"),
        }
    }
}

/// Where an initial buffer comes from when the driver places it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSource {
    /// The `i`-th model parameter (resident across steps).
    Param(usize),
    /// Microbatch `mubatch` of the `input`-th data input (placed every
    /// step).
    Data {
        /// Which data input of the traced function.
        input: usize,
        /// Which microbatch.
        mubatch: usize,
    },
    /// Optimizer state slot `slot` of parameter `param` (resident across
    /// steps, placed once at initialization by the caller that appended
    /// the optimizer tasks).
    State {
        /// The parameter this state belongs to.
        param: usize,
        /// State slot index (e.g. Adam's m and v).
        slot: usize,
    },
}

/// A buffer the driver must place on an actor before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct InputPlacement {
    /// Target buffer id.
    pub buf: BufferId,
    /// Target actor.
    pub actor: ActorId,
    /// Buffer shape.
    pub shape: Shape,
    /// What fills it.
    pub source: InputSource,
}

/// What a fetched result buffer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchRole {
    /// Final accumulated gradient of a parameter.
    Grad(usize),
    /// A global output (e.g. per-microbatch loss).
    Output {
        /// Which output of the traced function.
        output: usize,
        /// Which microbatch produced it.
        mubatch: usize,
    },
}

/// A buffer the driver fetches after execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fetch {
    /// Buffer to fetch.
    pub buf: BufferId,
    /// Actor holding it.
    pub actor: ActorId,
    /// Meaning of the value.
    pub role: FetchRole,
}

/// Tensor-parallel structure of a sharded program, recorded by
/// `shard_program` so the runtime and trainer can do rank arithmetic
/// (`raxpp_sched::TpMap`) over the rank streams of one host actor.
///
/// The lowering keeps the `t` rank streams of every host actor
/// *aligned*: instruction `i` of rank `r`'s stream and instruction `i`
/// of rank `r'`'s stream come from the same host instruction and have
/// the same kind (only buffer ids and jaxpr variants differ). `insert_frees`
/// preserves the alignment because its pin set (placements + fetches) is
/// a buffer-id set shared by all ranks. Every member of a group
/// therefore meets its collectives in the same order — what the
/// exchange's per-pair FIFO matching relies on — and `verify_program` checks it.
///
/// Every TP-axis collective of such a program is a last-dim
/// [`CollectiveKind::AllGather`]: the mini-partitioner only shards
/// matmuls on the rhs last dim, so a sharded value is a set of disjoint
/// column blocks, never partial sums, and concatenating them is the
/// unsharded tensor bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpMeta {
    /// Tensor-parallel degree `t`: host actor `a`'s streams are
    /// `a*t .. a*t+t-1`.
    pub degree: usize,
}

/// Data-parallel structure of a replicated program, recorded by
/// `replicate_program` so the runtime and trainer can do replica
/// arithmetic (`raxpp_sched::DpMap`) and route DP collectives.
///
/// Replica `rep`'s copy of base actor `a` is `rep * base_actors + a`,
/// where `base_actors` is the actor count *after* TP sharding — the DP
/// axis replicates whole (possibly TP-sharded) pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpMeta {
    /// Number of data-parallel replicas.
    pub replicas: usize,
    /// Actors per replica (post-TP actor count of the input program).
    pub base_actors: usize,
    /// Whether optimizer state is ZeRO-1 sharded across the DP group
    /// (each replica owns one first-dim slice of every state slot and
    /// computes only its slice of the parameter update; the first dim
    /// is the axis tensor parallelism never shards, so this composes
    /// with any `tp` degree).
    pub zero1: bool,
}

/// A complete fused MPMD program: the output of the RaxPP compiler and
/// the input of the `raxpp-runtime` driver.
#[derive(Debug, Clone, Default)]
pub struct MpmdProgram {
    /// Jaxpr table shared by all actors.
    pub jaxprs: Vec<Jaxpr>,
    /// Per-actor instruction streams (one fused dispatch each, §4.4).
    pub actors: Vec<Vec<Instr>>,
    /// Buffers the driver places before running.
    pub placements: Vec<InputPlacement>,
    /// Buffers the driver fetches afterwards.
    pub fetches: Vec<Fetch>,
    /// Tensor-parallel structure when the program was produced by
    /// `shard_program` with degree > 1; `None` for pure-pipeline
    /// programs and hand-built ones.
    pub tp: Option<TpMeta>,
    /// Data-parallel structure when the program was produced by
    /// `replicate_program` with more than one replica; `None` otherwise.
    pub dp: Option<DpMeta>,
}

impl MpmdProgram {
    /// Number of actors.
    pub fn n_actors(&self) -> usize {
        self.actors.len()
    }

    /// Number of driver→actor dispatches per step — one per actor thanks
    /// to task fusion (§4.4); without fusion it would be one per
    /// instruction.
    pub fn num_rpcs(&self) -> usize {
        self.actors.iter().filter(|s| !s.is_empty()).count()
    }

    /// Total instruction count across actors.
    pub fn num_instrs(&self) -> usize {
        self.actors.iter().map(Vec::len).sum()
    }

    /// Adds a jaxpr to the table, returning its id.
    pub fn add_jaxpr(&mut self, jaxpr: Jaxpr) -> JaxprId {
        self.jaxprs.push(jaxpr);
        JaxprId(self.jaxprs.len() as u32 - 1)
    }

    /// The smallest buffer id strictly above every id the program
    /// mentions — in any instruction stream (collective `wires`
    /// included), placement or fetch. Passes that append instructions
    /// allocate their fresh buffers from here.
    pub fn fresh_buffer_floor(&self) -> u32 {
        let mut max = 0u32;
        let mut see = |b: &BufferId| max = max.max(b.0 + 1);
        for instr in self.actors.iter().flatten() {
            match instr {
                Instr::Run {
                    inputs, outputs, ..
                } => {
                    inputs.iter().for_each(&mut see);
                    outputs.iter().for_each(&mut see);
                }
                Instr::Send { buf, .. } | Instr::Free { buf } => see(buf),
                Instr::Recv { buf, src, .. } => {
                    see(buf);
                    see(src);
                }
                Instr::Collective {
                    dst, src, wires, ..
                } => {
                    see(dst);
                    see(src);
                    wires.iter().for_each(&mut see);
                }
            }
        }
        for p in &self.placements {
            see(&p.buf);
        }
        for f in &self.fetches {
            see(&f.buf);
        }
        max
    }

    /// Counts `Run` instructions matching a predicate on their label.
    pub fn count_runs(&self, pred: impl Fn(&TaskLabel) -> bool) -> usize {
        self.actors
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Run { label, .. } if pred(label)))
            .count()
    }

    /// Pretty-prints the streams for debugging.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for (a, stream) in self.actors.iter().enumerate() {
            s.push_str(&format!("actor {a}:\n"));
            for i in stream {
                s.push_str(&format!("  {i}\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_display() {
        assert_eq!(
            TaskLabel::Fwd {
                mubatch: 1,
                stage: 2
            }
            .to_string(),
            "fwd(mb=1, s=2)"
        );
        assert_eq!(
            TaskLabel::GradReduce { param: 3 }.to_string(),
            "grad_reduce(p=3)"
        );
    }

    #[test]
    fn program_counters() {
        let mut p = MpmdProgram::default();
        p.actors.push(vec![
            Instr::Send {
                buf: BufferId(0),
                to: 1,
            },
            Instr::Free { buf: BufferId(0) },
        ]);
        p.actors.push(vec![Instr::Recv {
            buf: BufferId(0),
            src: BufferId(0),
            from: 0,
            shape: Shape::new([2]),
        }]);
        p.actors.push(vec![]);
        assert_eq!(p.n_actors(), 3);
        assert_eq!(p.num_rpcs(), 2); // empty stream needs no dispatch
        assert_eq!(p.num_instrs(), 3);
        assert_eq!(p.count_runs(|_| true), 0);
        assert!(p.dump().contains("send b0 -> actor 1"));
    }

    #[test]
    fn fresh_buffer_floor_clears_every_mentioned_id() {
        assert_eq!(MpmdProgram::default().fresh_buffer_floor(), 0);
        let (lo, hi) = (BufferId(1), BufferId(40));
        let shape = Shape::new([2]);
        let run = |inputs, outputs| Instr::Run {
            jaxpr: JaxprId(0),
            inputs,
            outputs,
            label: TaskLabel::GradReduce { param: 0 },
        };
        let recv = |buf, src| Instr::Recv {
            buf,
            src,
            from: 0,
            shape: shape.clone(),
        };
        let collective = |dst, src, wires| Instr::Collective {
            kind: CollectiveKind::AllReduce,
            dst,
            src,
            group: vec![0, 1],
            wires,
            dim: 0,
            axis: CollectiveAxis::Tp,
        };
        // One program per place an id can hide in: the highest id sits
        // there and nowhere else.
        let with_hi_in_stream = [
            run(vec![hi], vec![lo]),
            run(vec![lo], vec![hi]),
            Instr::Send { buf: hi, to: 0 },
            Instr::Free { buf: hi },
            recv(hi, lo),
            recv(lo, hi),
            collective(hi, lo, vec![lo, lo]),
            collective(lo, hi, vec![lo, lo]),
            collective(lo, lo, vec![lo, hi]),
        ];
        let base = MpmdProgram {
            actors: vec![vec![Instr::Free { buf: lo }], vec![]],
            ..MpmdProgram::default()
        };
        assert_eq!(base.fresh_buffer_floor(), lo.0 + 1);
        for instr in with_hi_in_stream {
            let mut p = base.clone();
            p.actors[1].push(instr.clone());
            assert_eq!(p.fresh_buffer_floor(), hi.0 + 1, "{instr}");
        }
        let mut placed = base.clone();
        placed.placements.push(InputPlacement {
            buf: hi,
            actor: 0,
            shape,
            source: InputSource::Param(0),
        });
        assert_eq!(placed.fresh_buffer_floor(), hi.0 + 1);
        let mut fetched = base;
        fetched.fetches.push(Fetch {
            buf: hi,
            actor: 0,
            role: FetchRole::Grad(0),
        });
        assert_eq!(fetched.fresh_buffer_floor(), hi.0 + 1);
    }
}
