//! The instruction-stream executor: one pass over an actor's fused
//! stream (§4.4), recording per-kind wall time into an [`ActorProfile`]
//! and, when the step is traced, one span per instruction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raxpp_ir::{eval_with_stats_observed, EvalStats, PanelObserver, Tensor};
use raxpp_taskgraph::{CollectiveAxis, Instr, TaskLabel};

use crate::actor::ActorState;
use crate::collective::{lane_wait, run_collective, LaneObserver};
use crate::fault::check_fault;
use crate::lane::RunSlot;
use crate::store::SendToken;
use crate::trace::{SpanEvent, SpanRing};

/// Per-instruction-kind wall-clock accounting for one actor's step.
///
/// Keys are instruction kinds (`"fwd"`, `"bwd"`, `"bwdw"`,
/// `"accum_grad"`, `"ct_sum"`, `"grad_reduce"`, `"update"`, `"send"`,
/// `"recv"`, `"free"`). `recv` time is mostly *waiting* for upstream
/// data — the executable analogue of the pipeline bubble. The profile
/// also carries the interpreter's buffer-allocator counters summed over
/// the step's `Run` instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActorProfile {
    entries: HashMap<&'static str, (Duration, u32)>,
    // Crate-visible so the wire codec can reinstate them verbatim.
    pub(crate) alloc: EvalStats,
    pub(crate) bytes_reduced: u64,
    pub(crate) bytes_wire: u64,
    pub(crate) bytes_overlap: u64,
    pub(crate) dp_bytes_wire: u64,
}

impl ActorProfile {
    pub(crate) fn record(&mut self, kind: &'static str, dur: Duration) {
        self.add_entry(kind, dur, 1);
    }

    /// Adds `count` invocations totalling `dur` to one kind (also the
    /// wire decoder's way of reinstating an entry verbatim).
    pub(crate) fn add_entry(&mut self, kind: &'static str, dur: Duration, count: u32) {
        let e = self.entries.entry(kind).or_insert((Duration::ZERO, 0));
        e.0 += dur;
        e.1 += count;
    }

    /// The one per-axis wire-byte accounting of a collective over a
    /// `t`-member group whose contribution has `numel` elements:
    /// `(t-1) × 4 × numel`, the volume of its ring exchange, whichever
    /// carrier moved it. Returns that volume.
    pub(crate) fn count_collective(
        &mut self,
        axis: CollectiveAxis,
        reduces: bool,
        t: usize,
        numel: usize,
    ) -> u64 {
        let wire = (t as u64 - 1) * 4 * numel as u64;
        match axis {
            CollectiveAxis::Tp => {
                self.bytes_wire += wire;
                if reduces {
                    self.bytes_reduced += wire;
                }
            }
            CollectiveAxis::Dp => self.dp_bytes_wire += wire,
        }
        wire
    }

    /// Total time and invocation count for an instruction kind.
    pub fn get(&self, kind: &str) -> Option<(Duration, u32)> {
        self.entries.get(kind).copied()
    }

    /// All recorded kinds with their totals, unordered.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, Duration, u32)> + '_ {
        self.entries.iter().map(|(&k, &(d, c))| (k, d, c))
    }

    /// Buffer-allocator counters (allocated / reused / freed) summed
    /// over this step's `Run` instructions.
    pub fn alloc_stats(&self) -> &EvalStats {
        &self.alloc
    }

    /// Bytes combined by tensor-parallel reduce collectives (all-reduce
    /// and reduce-scatter) on this actor this step: `(t-1) × 4 × numel`
    /// per collective, the wire volume of its ring exchange. All-gathers
    /// move blocks but reduce nothing, so they do not count here (their
    /// invocations still appear under the `"collective"` profile kind).
    pub fn bytes_reduced(&self) -> u64 {
        self.bytes_reduced
    }

    /// Ring wire volume of *every* tensor-parallel collective on this
    /// actor this step — `(t-1) × 4 × numel` per collective of any
    /// kind, including all-gathers (which move blocks without reducing
    /// and therefore do not appear in [`ActorProfile::bytes_reduced`]).
    /// Counted identically on both collective carriers, so overlap
    /// wins are measurable per kind.
    pub fn bytes_wire(&self) -> u64 {
        self.bytes_wire
    }

    /// Of [`ActorProfile::bytes_wire`], the bytes this actor published
    /// to the lane rendezvous *early* — row panels streamed out of a
    /// producing matmul while it was still multiplying, i.e. collective
    /// payload made available behind compute. Zero on the message-ring
    /// carrier (socket transports).
    pub fn bytes_overlap(&self) -> u64 {
        self.bytes_overlap
    }

    /// Ring wire volume of every *data-parallel* collective on this
    /// actor this step — `(R-1) × 4 × numel` per DP gradient or
    /// parameter exchange. Kept separate from
    /// [`ActorProfile::bytes_wire`] (the tensor-parallel volume) so the
    /// two mesh axes are observable independently; invocations appear
    /// under the `"dp_collective"` profile kind.
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
    /// Buffer-allocator counters summed across all actors for this step.
    pub fn alloc_stats(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for p in &self.profiles {
            total.merge(p.alloc_stats());
        }
        total
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

fn label_kind(label: &TaskLabel) -> &'static str {
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

/// Nanoseconds from the runtime-wide span origin to `t`.
pub(crate) fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

pub(crate) fn execute_stream(
    st: &mut ActorState,
    ring: &mut Option<SpanRing>,
) -> Result<ActorProfile, StreamFailure> {
    let me = st.me;
    let epoch = st.epoch;
    let origin = st.origin;
    let traced = ring.is_some();
    let program = Arc::clone(&st.program);
    let stream = &program.actors[me];
    let mut profile = ActorProfile::default();
    // The rendezvous handle (cheap Arc clones): present iff the
    // transport carries collectives through shared memory.
    let lane = st.lane.clone();
    for (idx, instr) in stream.iter().enumerate() {
        check_fault(&mut st.faults, idx, instr)?;
        // Span bookkeeping lives behind `traced`: the untraced path pays
        // one branch per field, no formatting, no extra timestamps (the
        // `t0`/`elapsed` pair below predates tracing — it feeds
        // `ActorProfile`).
        let mut span_name = String::new();
        let mut span_bytes = 0u64;
        let mut span_alloc: Option<EvalStats> = None;
        let mut op_spans: Vec<SpanEvent> = Vec::new();
        let t0 = Instant::now();
        match instr {
            Instr::Run {
                jaxpr,
                inputs,
                outputs,
                label,
            } => {
                // Replicated-run dedup: a jaxpr replicated verbatim
                // across the lane group computes bit-identical outputs
                // on every rank from bit-identical replicated inputs,
                // so one lane executes it and the others adopt the
                // result (O(1) Arc handle clones; in-place stealing in
                // later runs is safe because every consumer holds store
                // clones, keeping shared buffers non-uniquely owned).
                let dedup = lane
                    .as_ref()
                    .filter(|l| l.replicated.get(jaxpr.0 as usize) == Some(&true))
                    .and_then(|l| l.lane.as_ref().map(|(g, _)| g));
                let key = (epoch, idx as u32);
                let mut adopted: Option<Vec<Tensor>> = None;
                if let Some(g) = dedup {
                    let claimed = {
                        let mut s = g.state.lock().unwrap();
                        match s.runs.entry(key) {
                            Entry::Vacant(e) => {
                                e.insert(RunSlot::Claimed);
                                true
                            }
                            Entry::Occupied(_) => false,
                        }
                    };
                    if !claimed {
                        let degree = g.degree;
                        let outs =
                            lane_wait(&mut st.mailbox, g, epoch, |s| match s.runs.get_mut(&key) {
                                Some(RunSlot::Done { outs, takers }) => {
                                    *takers += 1;
                                    let o = outs.clone();
                                    if *takers == degree {
                                        s.runs.remove(&key);
                                    }
                                    Some(o)
                                }
                                _ => None,
                            })?;
                        adopted = Some(outs);
                    }
                }
                let outs = match adopted {
                    Some(outs) => outs,
                    None => {
                        // O(1) handle copies; the store keeps its
                        // references, so the interpreter can never
                        // mutate resident buffers.
                        let args: Vec<Tensor> = inputs
                            .iter()
                            .map(|b| {
                                st.store.get(*b).cloned().ok_or_else(|| {
                                    StreamFailure::Error(format!("{label}: missing input {b}"))
                                })
                            })
                            .collect::<Result<_, StreamFailure>>()?;
                        let graph = &program.jaxprs[jaxpr.0 as usize];
                        // Compute/communication overlap: outputs that
                        // feed the collective bucket directly after this
                        // Run stream their row panels into the
                        // rendezvous while the matmul is still running.
                        let mut observer = match &lane {
                            Some(l) if dedup.is_none() => {
                                LaneObserver::for_run(l, me, epoch, stream, idx, outputs)
                            }
                            _ => None,
                        };
                        let mut hook_fn;
                        let hook: Option<raxpp_ir::EvalHook<'_>> = if traced {
                            hook_fn = |_i: usize, name: &'static str, s: Instant, e: Instant| {
                                op_spans.push(SpanEvent {
                                    instr: idx as u32,
                                    kind: "op",
                                    name: name.to_string(),
                                    start_ns: ns_since(origin, s),
                                    dur_ns: e.saturating_duration_since(s).as_nanos() as u64,
                                    bytes: 0,
                                    alloc: None,
                                });
                            };
                            Some(&mut hook_fn)
                        } else {
                            None
                        };
                        let panels = observer.as_mut().map(|o| o as &mut dyn PanelObserver);
                        let (outs, stats) = eval_with_stats_observed(graph, &args, hook, panels)
                            .map_err(|e| StreamFailure::Error(format!("{label}: {e}")))?;
                        if let Some(obs) = &observer {
                            profile.bytes_overlap += obs.bytes;
                        }
                        profile.alloc.merge(&stats);
                        if traced {
                            span_alloc = Some(stats);
                        }
                        if let Some(g) = dedup {
                            let mut s = g.state.lock().unwrap();
                            s.runs.insert(
                                key,
                                RunSlot::Done {
                                    outs: outs.clone(),
                                    takers: 1,
                                },
                            );
                            drop(s);
                            g.cv.notify_all();
                        }
                        outs
                    }
                };
                if traced {
                    span_name = format!("{label}");
                }
                for (b, t) in outputs.iter().zip(outs) {
                    st.store.insert(*b, t);
                }
            }
            Instr::Send { buf, to } => {
                let t = st.load(*buf, "send")?;
                if traced {
                    span_name = format!("send {buf} -> actor {to}");
                    span_bytes = 4 * t.numel() as u64;
                }
                let token = SendToken::new();
                st.store.record_send(*buf, token.clone());
                let wire_t0 = Instant::now();
                st.send_data(*to, *buf, t, token)?;
                // On a socket fabric the send is a synchronous wire
                // write; record it as its own span so transport cost is
                // separable from store bookkeeping in the trace.
                if traced && st.fabric.is_wire() {
                    op_spans.push(SpanEvent {
                        instr: idx as u32,
                        kind: "wire",
                        name: format!("wire {buf} -> actor {to}"),
                        start_ns: ns_since(origin, wire_t0),
                        dur_ns: wire_t0.elapsed().as_nanos() as u64,
                        bytes: span_bytes,
                        alloc: None,
                    });
                }
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
                if traced {
                    span_name = format!("recv {buf} <- actor {from}");
                    span_bytes = 4 * t.numel() as u64;
                }
                st.store.insert(*buf, t);
            }
            Instr::Copy { dst, src } => {
                let t = st.load(*src, "copy")?;
                if traced {
                    span_name = format!("copy {src} -> {dst}");
                    span_bytes = 4 * t.numel() as u64;
                }
                st.store.insert(*dst, t);
            }
            Instr::Free { buf } => {
                if !st.store.free(*buf) {
                    return Err(StreamFailure::Error(format!(
                        "free of missing buffer {buf}"
                    )));
                }
                if traced {
                    span_name = format!("free {buf}");
                }
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
                let spans = traced.then_some(&mut op_spans);
                let (rank, wire) = run_collective(
                    st,
                    &mut profile,
                    spans,
                    idx,
                    *kind,
                    *dst,
                    *src,
                    group,
                    wires,
                    *dim,
                    *axis,
                )?;
                if traced {
                    span_name = format!("{kind} {dst} (rank {rank}/{})", group.len());
                    span_bytes = wire;
                }
            }
        }
        let kind = match instr {
            Instr::Run { label, .. } => label_kind(label),
            Instr::Send { .. } => "send",
            Instr::Recv { .. } => "recv",
            Instr::Copy { .. } => "copy",
            Instr::Free { .. } => "free",
            Instr::Collective { axis, .. } => match axis {
                CollectiveAxis::Tp => "collective",
                CollectiveAxis::Dp => "dp_collective",
            },
        };
        let dur = t0.elapsed();
        profile.record(kind, dur);
        if let Some(r) = ring.as_mut() {
            for s in op_spans {
                r.push(s);
            }
            r.push(SpanEvent {
                instr: idx as u32,
                kind,
                name: span_name,
                start_ns: ns_since(origin, t0),
                dur_ns: dur.as_nanos() as u64,
                bytes: span_bytes,
                alloc: span_alloc,
            });
        }
    }
    Ok(profile)
}
