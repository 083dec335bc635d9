//! The instruction-stream executor: one pass over an actor's fused
//! stream (§4.4) that writes **one record per instruction**.
//!
//! [`execute_stream`] owns a [`Recorder`] for the step. Each arm of the
//! instruction match does the work and yields only what it alone knows
//! — the payload `bytes` and the interpreter's `alloc` counters — and
//! the loop body ends in the single [`Recorder::instr`] call. Intervals
//! *inside* an instruction (`op` from the interpreter hook, `wire`, the
//! exchange waits of [`run_collective`]) go through [`Recorder::sub`]
//! in the order they happen. What the recorder does with a record —
//! the profile entry, the span, the one branch on being traced — is
//! `trace.rs`'s business; nothing here knows whether the step is traced.
//!
//! Names are rendered by [`span_name`], and only when a span is
//! actually pushed: an untraced step takes the same calls with the ring
//! absent and formats nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raxpp_ir::{eval_with_stats_hooked, EvalStats, Tensor};
use raxpp_taskgraph::{CollectiveAxis, Instr, MpmdProgram};

use crate::actor::ActorState;
use crate::collective::run_collective;
use crate::fault::check_fault;
use crate::kind::Kind;
use crate::store::SendToken;
use crate::trace::{ActorTrace, Recorder, SpanRing};

/// Per-instruction-kind wall-clock accounting for one actor's step.
///
/// Stored and read per [`Kind`]; [`ActorProfile::entries`] names each
/// kind ([`Kind::as_str`]). `recv` time is mostly *waiting* for upstream
/// data — the executable analogue of the pipeline bubble. The profile
/// also carries the interpreter's buffer-allocator counters summed over
/// the step's `Run` instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActorProfile {
    /// `(nanoseconds, invocations)` per [`Kind`], by discriminant.
    entries: [(u64, u32); Kind::COUNT],
    // Crate-visible so the wire codec can reinstate them verbatim.
    pub(crate) alloc: EvalStats,
    pub(crate) bytes_wire: u64,
    pub(crate) dp_bytes_wire: u64,
}

impl ActorProfile {
    /// Adds `count` invocations totalling `dur` to one kind.
    pub(crate) fn add(&mut self, kind: Kind, dur: Duration, count: u32) {
        let e = &mut self.entries[kind as usize];
        e.0 += dur.as_nanos() as u64;
        e.1 += count;
    }

    /// Adds everything `other` accounts — entries, allocator counters
    /// and byte counters — to this profile.
    pub fn merge(&mut self, other: &ActorProfile) {
        for (kind, dur, count) in other.by_kind() {
            self.add(kind, dur, count);
        }
        self.alloc.merge(&other.alloc);
        self.bytes_wire += other.bytes_wire;
        self.dp_bytes_wire += other.dp_bytes_wire;
    }

    /// The one per-axis wire-byte accounting of a collective: `wire`,
    /// the bytes this member sent in its exchange. Returns it.
    pub(crate) fn count_collective(&mut self, axis: CollectiveAxis, wire: u64) -> u64 {
        match axis {
            CollectiveAxis::Tp => self.bytes_wire += wire,
            CollectiveAxis::Dp => self.dp_bytes_wire += wire,
        }
        wire
    }

    /// The kinds that were recorded at least once, with their totals.
    pub(crate) fn by_kind(&self) -> impl Iterator<Item = (Kind, Duration, u32)> + '_ {
        let recorded = Kind::ALL.into_iter().zip(self.entries);
        recorded.filter_map(|(k, (ns, c))| (c > 0).then_some((k, Duration::from_nanos(ns), c)))
    }

    /// Total time and invocation count for an instruction kind, if it
    /// was recorded at all.
    pub fn get(&self, kind: Kind) -> Option<(Duration, u32)> {
        let (ns, count) = self.entries[kind as usize];
        (count > 0).then(|| (Duration::from_nanos(ns), count))
    }

    /// All recorded kinds with their totals.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, Duration, u32)> + '_ {
        self.by_kind().map(|(k, d, c)| (k.as_str(), d, c))
    }

    /// Buffer-allocator counters (allocated / reused / freed) summed
    /// over this step's `Run` instructions.
    pub fn alloc_stats(&self) -> &EvalStats {
        &self.alloc
    }

    /// Bytes this actor sent in the exchanges of its tensor-parallel
    /// collectives this step — `(t-1) × 4 × numel` per all-gather, one
    /// copy of its block to each peer; invocations appear under
    /// [`Kind::Collective`].
    pub fn bytes_wire(&self) -> u64 {
        self.bytes_wire
    }

    /// Always 0: nothing is published ahead of its collective since the
    /// shared-memory rendezvous went. Kept for its one caller, the
    /// frozen benchmark (`crates/bench/src/bin/benchmark/src/train.rs`,
    /// the `runtime.tp_overlap_ratio` row); ROADMAP 11(d) deletes both.
    pub fn bytes_overlap(&self) -> u64 {
        0
    }

    /// Bytes this actor sent in the exchanges of its *data-parallel*
    /// collectives this step: `(R-1) × 4 × numel` per all-reduce or
    /// all-gather (its whole contribution to each peer), and per
    /// ZeRO-1 reduce-scatter `4 ×` the elements of the peers' `dp_split`
    /// blocks (each peer is sent only its own block). Kept separate from
    /// [`ActorProfile::bytes_wire`] (the tensor-parallel volume) so the
    /// two mesh axes are observable independently; invocations appear
    /// under [`Kind::DpCollective`].
    pub fn dp_bytes_wire(&self) -> u64 {
        self.dp_bytes_wire
    }
}

/// Statistics of one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepStats {
    /// Wall-clock duration of the whole step on the driver: from
    /// validating the inputs, through the one `Execute` exchange per
    /// actor that carries them out and the fetched outputs back, to the
    /// last reply.
    pub wall: Duration,
    /// Number of driver↔actor exchanges this step: one `Execute` per
    /// actor in service (task fusion, §4.4) and nothing else — inputs
    /// and fetches ride it.
    pub rpcs: usize,
    /// Per-actor instruction-kind profiles.
    pub profiles: Vec<ActorProfile>,
}

impl StepStats {
    /// The fleet's profile for this step: every actor's profile merged
    /// into one.
    pub fn total(&self) -> ActorProfile {
        let mut total = ActorProfile::default();
        for p in &self.profiles {
            total.merge(p);
        }
        total
    }

    /// Buffer-allocator counters summed across all actors for this step.
    pub fn alloc_stats(&self) -> EvalStats {
        self.total().alloc
    }
}

pub(crate) enum StreamFailure {
    /// A genuine error on this actor.
    Error(String),
    /// A peer (or the driver) poisoned the epoch.
    Aborted { by: usize, reason: String },
    /// Injected death: the thread must exit (with an abort broadcast).
    Die,
    /// Injected kill -9: the actor must vanish with no broadcast.
    Killed,
}

/// A top-level span's name: the task label for `Run`, kind, result and
/// rank for `Collective`, and the instruction's own rendering otherwise.
fn span_name(instr: &Instr, me: usize) -> String {
    match instr {
        Instr::Run { label, .. } => label.to_string(),
        Instr::Collective {
            kind, dst, group, ..
        } => {
            let rank = group.iter().position(|&m| m == me);
            let rank = rank.expect("the collective ran, so this actor is a member");
            format!("{kind} {dst} (rank {rank}/{})", group.len())
        }
        _ => instr.to_string(),
    }
}

/// Runs this actor's stream for the current epoch. Returns the step's
/// profile, or why the stream stopped, and — when `traced` — the spans
/// recorded up to that point (a failed step's partial trace is the
/// post-mortem record).
pub(crate) fn execute_stream(
    st: &mut ActorState,
    traced: bool,
) -> (Result<ActorProfile, StreamFailure>, Option<ActorTrace>) {
    let program = Arc::clone(&st.program);
    let ring = traced.then(|| SpanRing::for_stream(program.actors[st.me].len()));
    let mut rec = Recorder::new(ring, st.origin);
    let ran = run_stream(st, &program, &mut rec);
    let (profile, trace) = rec.finish(st.me);
    (ran.map(|()| profile), trace)
}

fn run_stream(
    st: &mut ActorState,
    program: &MpmdProgram,
    rec: &mut Recorder,
) -> Result<(), StreamFailure> {
    let me = st.me;
    let epoch = st.epoch;
    let stream = &program.actors[me];
    for (idx, instr) in stream.iter().enumerate() {
        check_fault(&mut st.faults, idx, instr)?;
        // Each arm yields what it alone knows: the payload bytes and
        // the interpreter's allocator counters.
        let (bytes, alloc): (u64, Option<EvalStats>) = match instr {
            Instr::Run {
                jaxpr,
                inputs,
                outputs,
                label,
            } => {
                // O(1) handle copies; the store keeps its references,
                // so the interpreter can never mutate resident buffers.
                let args: Vec<Tensor> = inputs
                    .iter()
                    .map(|b| {
                        st.store.get(*b).cloned().ok_or_else(|| {
                            StreamFailure::Error(format!("{label}: missing input {b}"))
                        })
                    })
                    .collect::<Result<_, StreamFailure>>()?;
                let graph = &program.jaxprs[jaxpr.0 as usize];
                let (outs, stats) = {
                    let mut op_hook = rec.op_hook(idx);
                    let hook = op_hook.as_mut().map(|h| h as raxpp_ir::EvalHook<'_>);
                    eval_with_stats_hooked(graph, &args, hook)
                }
                .map_err(|e| StreamFailure::Error(format!("{label}: {e}")))?;
                for (b, t) in outputs.iter().zip(outs) {
                    st.store.insert(*b, t);
                }
                (0, Some(stats))
            }
            Instr::Send { buf, to } => {
                let t = st.load(*buf, "send")?;
                let bytes = 4 * t.numel() as u64;
                let token = SendToken::new();
                st.store.record_send(*buf, token.clone());
                // On a socket fabric the send is a synchronous wire
                // write; record it as its own span so transport cost is
                // separable from store bookkeeping in the trace.
                let wire_t0 = st.fabric.is_wire().then(Instant::now);
                st.send_data(*to, *buf, t, token)?;
                if let Some(t0) = wire_t0 {
                    rec.sub(idx, Kind::Wire, t0, t0.elapsed(), bytes, || {
                        format!("wire {buf} -> actor {to}")
                    });
                }
                (bytes, None)
            }
            Instr::Recv {
                buf,
                src,
                from,
                shape,
            } => {
                let (id, t, token) = st.mailbox.recv_from(*from, epoch)?;
                if id != *src {
                    return Err(StreamFailure::Error(format!(
                        "out-of-order receive: expected {src}, got {id} (paper §4.2 \
                         ordering violated)"
                    )));
                }
                if t.shape() != shape {
                    return Err(StreamFailure::Error(format!(
                        "receive shape mismatch for {buf}: {} vs {shape}",
                        t.shape()
                    )));
                }
                token.complete();
                let bytes = 4 * t.numel() as u64;
                st.store.insert(*buf, t);
                (bytes, None)
            }
            Instr::Copy { dst, src } => {
                let t = st.load(*src, "copy")?;
                let bytes = 4 * t.numel() as u64;
                st.store.insert(*dst, t);
                (bytes, None)
            }
            Instr::Free { buf } => {
                if !st.store.free(*buf) {
                    return Err(StreamFailure::Error(format!(
                        "free of missing buffer {buf}"
                    )));
                }
                (0, None)
            }
            Instr::Collective {
                kind,
                dst,
                src,
                group,
                wires,
                dim,
                axis,
            } => {
                let wire =
                    run_collective(st, rec, idx, *kind, *dst, *src, group, wires, *dim, *axis)?;
                (wire, None)
            }
        };
        rec.instr(idx, Kind::of(instr), bytes, alloc, || span_name(instr, me));
    }
    Ok(())
}
