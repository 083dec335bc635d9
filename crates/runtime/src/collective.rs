//! `Instr::Collective`: one instruction, two carriers, chosen by the
//! transport and by nothing else.
//!
//! * **Rendezvous** (in-process mpsc, `Transport::supports_lanes()`):
//!   the members meet in the shared-memory [`LaneGroup`] of their exact
//!   membership; contributions may arrive panel-by-panel out of the
//!   producing matmul ([`LaneObserver`]), one member combines, every
//!   member shares the result.
//! * **Ring** (Unix/TCP sockets, process fleets — no shared memory):
//!   `t-1` rounds over the ordinary message fabric, after which every
//!   member holds all contributions and combines locally.
//!
//! Both carriers only *gather* the rank-ascending contributions. The
//! combine ([`combine_collective`]), the reduce-scatter slice, the
//! per-axis wire-byte accounting and the span tail exist once, in
//! [`run_collective`], so the carriers cannot drift apart: mpsc ≡ socket
//! ≡ single device, bit for bit (`docs/determinism.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use raxpp_ir::{PanelObserver, Shape, Tensor};
use raxpp_taskgraph::{BufferId, CollectiveAxis, CollectiveKind, Instr};

use crate::actor::{ActorState, Epoch, Mailbox};
use crate::exec::StreamFailure;
use crate::kind::Kind;
use crate::lane::{Contribution, GroupState, LaneCtx, LaneGroup};
use crate::store::SendToken;
use crate::trace::Recorder;

/// How long a lane parks on the group condvar between abort probes.
const LANE_POLL: Duration = Duration::from_millis(1);

/// Parks the calling lane until `check` yields a value. Wakes on group
/// notifications and honours the group poison; also polls the actor
/// mailbox so aborts originating outside the lane group (driver
/// timeout poison, a non-lane peer's failure) bound the wait — those
/// are echoed into the group poison so condvar-parked peers fail fast
/// too.
pub(crate) fn lane_wait<T>(
    mailbox: &mut Mailbox,
    group: &LaneGroup,
    epoch: Epoch,
    mut check: impl FnMut(&mut GroupState) -> Option<T>,
) -> Result<T, StreamFailure> {
    let mut guard = group.state.lock().unwrap();
    loop {
        if let Some((e, by, reason)) = &guard.poison {
            if *e >= epoch {
                return Err(StreamFailure::Aborted {
                    by: *by,
                    reason: reason.clone(),
                });
            }
        }
        if let Some(v) = check(&mut guard) {
            return Ok(v);
        }
        let (g, _) = group.cv.wait_timeout(guard, LANE_POLL).unwrap();
        guard = g;
        if let Some((by, reason)) = mailbox.poll_abort(epoch) {
            drop(guard);
            group.poison(epoch, by, &reason);
            return Err(StreamFailure::Aborted { by, reason });
        }
    }
}

/// One resolved panel-streaming target: the following collective's
/// stream index plus this actor's group handle and rank within it.
struct ObsTarget {
    coll: u32,
    group: Arc<LaneGroup>,
    rank: usize,
}

/// Streams completed matmul row panels into the collective rendezvous
/// as staged contributions — the communication half of
/// compute/communication overlap. Peers waiting on the collective can
/// assemble as soon as the last panel lands, while this member is still
/// computing its remaining outputs.
pub(crate) struct LaneObserver {
    epoch: Epoch,
    /// Run output position → resolved following-collective target.
    targets: Vec<Option<ObsTarget>>,
    /// Bytes published panel-wise (feeds `ActorProfile::bytes_overlap`).
    pub(crate) bytes: u64,
}

impl LaneObserver {
    /// The observer for the `Run` at `stream[idx]`: maps each output
    /// position to the collective in the directly following collective
    /// bucket that consumes it as `src`, resolved to that collective's
    /// membership group (TP lane groups and DP replica groups alike),
    /// so panels publish into the rendezvous the consumer will use. The
    /// scan skips `Free` instructions — a buffer consumed by a
    /// collective is freed *after* it, so an intervening free can never
    /// invalidate a bucket member — and stops at the first
    /// compute/transport instruction, which could redefine buffers.
    /// Returns `None` when no output feeds a collective — the common
    /// case, skipping observer setup entirely.
    pub(crate) fn for_run(
        l: &LaneCtx,
        me: usize,
        epoch: Epoch,
        stream: &[Instr],
        idx: usize,
        outputs: &[BufferId],
    ) -> Option<LaneObserver> {
        let mut targets: Vec<Option<ObsTarget>> = outputs.iter().map(|_| None).collect();
        let mut any = false;
        for (j, next) in stream.iter().enumerate().skip(idx + 1) {
            let (src, group) = match next {
                Instr::Collective { src, group, .. } => (src, group),
                Instr::Free { .. } => continue,
                _ => break,
            };
            let Some(pos) = outputs.iter().position(|b| b == src) else {
                continue;
            };
            let Some(rank) = group.iter().position(|&m| m == me) else {
                continue;
            };
            if targets[pos].is_none() {
                targets[pos] = Some(ObsTarget {
                    coll: j as u32,
                    group: l.hub.group(group),
                    rank,
                });
                any = true;
            }
        }
        any.then_some(LaneObserver {
            epoch,
            targets,
            bytes: 0,
        })
    }
}

impl PanelObserver for LaneObserver {
    fn wants(&mut self, out_idx: usize) -> bool {
        matches!(self.targets.get(out_idx), Some(Some(_)))
    }

    fn begin(&mut self, out_idx: usize, shape: &Shape) {
        let Some(Some(t)) = self.targets.get(out_idx) else {
            return;
        };
        let key = (self.epoch, t.coll);
        let degree = t.group.degree;
        let mut s = t.group.state.lock().unwrap();
        let slot = s.coll_slot(key, degree);
        if slot.parts[t.rank].is_none() {
            slot.parts[t.rank] = Some(Contribution::Staging {
                shape: shape.clone(),
                buf: vec![0.0; shape.numel()],
                filled: 0,
            });
        }
    }

    fn publish(&mut self, out_idx: usize, row0: usize, row_len: usize, data: &[f32]) {
        let Some(Some(t)) = self.targets.get(out_idx) else {
            return;
        };
        let key = (self.epoch, t.coll);
        let degree = t.group.degree;
        let mut s = t.group.state.lock().unwrap();
        let slot = s.coll_slot(key, degree);
        let part = &mut slot.parts[t.rank];
        let complete = match part {
            Some(Contribution::Staging { buf, filled, .. }) => {
                let off = row0 * row_len;
                buf[off..off + data.len()].copy_from_slice(data);
                *filled += data.len();
                *filled == buf.len()
            }
            // A `Ready` part (or none) means this output isn't staging
            // (e.g. a later duplicate publish after completion): ignore.
            _ => false,
        };
        self.bytes += 4 * data.len() as u64;
        if complete {
            if let Some(Contribution::Staging { shape, buf, .. }) = part.take() {
                let tensor = Tensor::from_vec(shape, buf).expect("staged panels cover the shape");
                *part = Some(Contribution::Ready(tensor));
            }
            drop(s);
            t.group.cv.notify_all();
        }
    }
}

/// Block assembly for disjoint `-0.0`-padded all-reduce contributions:
/// bitwise-equal to the rank-ascending fold because
/// `x + (-0.0) == x` *bit for bit* for every finite or infinite `f32`
/// (including both zeros, under round-to-nearest), so summing the
/// padded tensors equals copying each rank's own block into place.
fn assemble_disjoint_blocks(parts: &[Tensor], dim: usize) -> Tensor {
    let t = parts.len();
    let shape = parts[0].shape().clone();
    let full = shape.dim(dim);
    let blk = full / t;
    let rows = shape.numel() / full.max(1);
    let mut out = vec![0.0f32; shape.numel()];
    for (r, p) in parts.iter().enumerate() {
        let data = p.data();
        debug_assert!(
            data.iter().enumerate().all(|(i, v)| {
                let col = i % full;
                (r * blk..(r + 1) * blk).contains(&col) || v.to_bits() == (-0.0f32).to_bits()
            }),
            "disjoint all-reduce contribution padding is not -0.0"
        );
        for row in 0..rows {
            let off = row * full + r * blk;
            out[off..off + blk].copy_from_slice(&data[off..off + blk]);
        }
    }
    Tensor::from_vec(shape, out).expect("assembled buffer matches contribution shape")
}

/// Combines a group's rank-ascending contributions — concat for
/// all-gather, left-fold sum for the reduces, with a block-assembly
/// fast path for disjoint all-reduces (see
/// [`assemble_disjoint_blocks`]). No rank-dependent association, so the
/// result is bitwise-identical on every rank, on either carrier, and to
/// the unsharded program. The reduce-scatter's per-rank slice happens
/// in [`run_collective`], not here.
fn combine_collective(
    kind: CollectiveKind,
    dim: usize,
    parts: &[Tensor],
    disjoint: bool,
) -> Result<Tensor, String> {
    let t = parts.len();
    let shape = parts[0].shape();
    if let Some(p) = parts.iter().find(|p| p.shape() != shape) {
        return Err(format!(
            "collective contribution shape mismatch: {} vs {shape}",
            p.shape()
        ));
    }
    match kind {
        CollectiveKind::AllGather => {
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat(&refs, dim).map_err(|e| e.to_string())
        }
        CollectiveKind::AllReduce
            if disjoint
                && shape.rank() >= 1
                && dim == shape.rank() - 1
                && shape.dim(dim).is_multiple_of(t) =>
        {
            Ok(assemble_disjoint_blocks(parts, dim))
        }
        CollectiveKind::AllReduce | CollectiveKind::ReduceScatter => {
            let mut acc = parts[0].clone();
            for p in &parts[1..] {
                acc = acc.zip(p, |a, b| a + b).map_err(|e| e.to_string())?;
            }
            Ok(acc)
        }
    }
}

/// The rendezvous carrier: publish this member's contribution (unless
/// panel streaming already staged it), wait for the group, and share a
/// single `combine` — the first member to see every contribution runs
/// it outside the lock, the others take its result. Returns the shared
/// combine result and the wait interval for profiling.
fn gather_rendezvous(
    mailbox: &mut Mailbox,
    group: &LaneGroup,
    rank: usize,
    key: (Epoch, u32),
    own: Tensor,
    combine: impl FnOnce(&[Tensor]) -> Result<Tensor, String>,
) -> Result<(Result<Tensor, String>, Instant, Duration), StreamFailure> {
    let t = group.degree;
    {
        let mut s = group.state.lock().unwrap();
        let slot = s.coll_slot(key, t);
        if slot.parts[rank].is_none() {
            slot.parts[rank] = Some(Contribution::Ready(own));
        }
        drop(s);
        group.cv.notify_all();
    }
    // Either a peer already assembled (take the shared result), or all
    // contributions are ready and assembly falls to this lane.
    enum Next {
        Done(Result<Tensor, String>),
        Assemble(Vec<Tensor>),
    }
    let wait_start = Instant::now();
    let next = lane_wait(mailbox, group, key.0, |s| {
        let slot = s.coll_slot(key, t);
        if let Some(r) = &slot.assembled {
            slot.takers += 1;
            let r = r.clone();
            if slot.takers == t {
                s.colls.remove(&key);
            }
            return Some(Next::Done(r));
        }
        if !slot.assembling
            && slot
                .parts
                .iter()
                .all(|p| matches!(p, Some(Contribution::Ready(_))))
        {
            slot.assembling = true;
            let parts = slot
                .parts
                .iter()
                .map(|p| match p {
                    Some(Contribution::Ready(t)) => t.clone(),
                    _ => unreachable!("all parts checked Ready above"),
                })
                .collect();
            return Some(Next::Assemble(parts));
        }
        None
    })?;
    let wait = wait_start.elapsed();
    let full = match next {
        Next::Done(r) => r,
        Next::Assemble(parts) => {
            let r = combine(&parts);
            let mut s = group.state.lock().unwrap();
            let slot = s.coll_slot(key, t);
            slot.assembled = Some(r.clone());
            slot.assembling = false;
            slot.takers += 1;
            if slot.takers == t {
                s.colls.remove(&key);
            }
            drop(s);
            group.cv.notify_all();
            r
        }
    };
    Ok((full, wait_start, wait))
}

/// The ring carrier: `t-1` rounds over the ordinary message fabric in
/// which rank i forwards the contribution that originated at rank
/// (i - round) mod t to rank i+1 and receives origin (i - round - 1)
/// mod t from rank i-1. Messages travel under the originator's wire id,
/// so the §4.2 per-pair FIFO matching-order discipline holds across
/// back-to-back collectives, and every message is epoch-tagged like any
/// other send, so aborts and stale drains work unchanged. Returns every
/// member's contribution, rank-ascending.
fn gather_ring(
    st: &mut ActorState,
    group: &[usize],
    wires: &[BufferId],
    rank: usize,
    own: Tensor,
) -> Result<Vec<Tensor>, StreamFailure> {
    let t = group.len();
    let mut parts: Vec<Option<Tensor>> = vec![None; t];
    parts[rank] = Some(own);
    let next = group[(rank + 1) % t];
    let prev = group[(rank + t - 1) % t];
    for round in 0..t - 1 {
        let send_origin = (rank + t - round) % t;
        let outgoing = parts[send_origin]
            .clone()
            .expect("ring invariant: contribution present");
        st.send_data(next, wires[send_origin], outgoing, SendToken::new())?;
        let recv_origin = (rank + t - round - 1) % t;
        let (id, incoming, token) = st.mailbox.recv_from(prev, st.epoch)?;
        if id != wires[recv_origin] {
            return Err(StreamFailure::Error(format!(
                "collective ring out of order: expected {}, got {id}",
                wires[recv_origin]
            )));
        }
        token.complete();
        parts[recv_origin] = Some(incoming);
    }
    Ok(parts
        .into_iter()
        .map(|p| p.expect("ring invariant: every origin received"))
        .collect())
}

/// Executes the collective at `stream[idx]` and stores its result in
/// `dst`: gather on the carrier the transport selected, then the one
/// shared combine, slice and accounting. Returns the collective's wire
/// volume (its span bytes); the rendezvous wait is recorded as an
/// interval of its own inside the instruction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_collective(
    st: &mut ActorState,
    rec: &mut Recorder,
    idx: usize,
    kind: CollectiveKind,
    dst: BufferId,
    src: BufferId,
    group: &[usize],
    wires: &[BufferId],
    dim: usize,
    axis: CollectiveAxis,
) -> Result<u64, StreamFailure> {
    let me = st.me;
    let t = group.len();
    let rank = group.iter().position(|&m| m == me).ok_or_else(|| {
        StreamFailure::Error(format!("actor {me} not in collective group {group:?}"))
    })?;
    let own = st.load(src, "collective")?;
    let numel = own.numel();
    // Per-axis routing: DP all-reduces are true sums of different
    // per-replica contributions (batch sharding), folded elementwise in
    // pinned replica-ascending order — never the disjoint-assembly fast
    // path, which assumes -0.0-padded non-overlapping blocks — what
    // every TP all-reduce of a `shard_program` output (a program with
    // `tp` metadata) sums. Wait/wire metrics split by axis so each
    // mesh dimension is observable.
    let (disjoint, wait_kind) = match axis {
        CollectiveAxis::Dp => (false, Kind::DpCollectiveWait),
        CollectiveAxis::Tp => (st.program.tp.is_some(), Kind::CollectiveWait),
    };
    let combine = |parts: &[Tensor]| combine_collective(kind, dim, parts, disjoint);
    // The group is looked up by the instruction's exact membership, so
    // TP lane groups, DP replica groups, and rebalance-folded groups
    // all rendezvous the same way.
    let rendezvous = st.lane.as_ref().map(|l| l.hub.group(group));
    let (full, wait) = match rendezvous {
        Some(g) => {
            let key = (st.epoch, idx as u32);
            let (full, start, dur) =
                gather_rendezvous(&mut st.mailbox, &g, rank, key, own, combine)?;
            (full, Some((start, dur)))
        }
        None => (combine(&gather_ring(st, group, wires, rank, own)?), None),
    };
    // Reduce-scatter: every member slices its own block of the
    // accumulator.
    let combined = full
        .and_then(|full| match kind {
            CollectiveKind::ReduceScatter => {
                let blk = full.shape().dim(dim) / t;
                full.slice_dim(dim, rank * blk, blk)
                    .map_err(|e| e.to_string())
            }
            _ => Ok(full),
        })
        .map_err(|e| StreamFailure::Error(format!("{kind} {dst}: {e}")))?;
    let reduces = !matches!(kind, CollectiveKind::AllGather);
    let wire = rec.profile.count_collective(axis, reduces, t, numel);
    if let Some((start, dur)) = wait {
        rec.sub(idx, wait_kind, start, dur, 0, || {
            format!("{} (rank {rank}/{t})", wait_kind.as_str())
        });
    }
    st.store.insert(dst, combined);
    Ok(wire)
}
