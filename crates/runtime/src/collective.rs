//! `Instr::Collective`: one instruction, one carrier — the message
//! fabric every other actor-to-actor byte already rides.
//!
//! [`gather_ring`] moves the members' contributions in `t-1` rounds of
//! ordinary epoch-tagged sends and per-peer FIFO receives, after which
//! every member holds all of them, rank-ascending. The combine
//! ([`combine_collective`]: concat or left fold, by kind alone), the
//! per-axis wire-byte accounting and the wait span follow in
//! [`run_collective`]. No transport is consulted and no memory is shared
//! between actors, so mpsc ≡ socket ≡ single device, bit for bit
//! (`docs/determinism.md`), because there is one code path.

use std::time::{Duration, Instant};

use raxpp_ir::Tensor;
use raxpp_taskgraph::{BufferId, CollectiveAxis, CollectiveKind};

use crate::actor::ActorState;
use crate::exec::StreamFailure;
use crate::kind::Kind;
use crate::store::SendToken;
use crate::trace::Recorder;

/// Combines a group's rank-ascending contributions — concat for
/// all-gather, left-fold sum for all-reduce. No rank-dependent
/// association, so the result is bitwise-identical on every rank, on
/// every transport, and to the unsharded program.
fn combine_collective(
    kind: CollectiveKind,
    dim: usize,
    parts: &[Tensor],
) -> Result<Tensor, String> {
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
        CollectiveKind::AllReduce => {
            let mut acc = parts[0].clone();
            for p in &parts[1..] {
                acc = acc.zip(p, |a, b| a + b).map_err(|e| e.to_string())?;
            }
            Ok(acc)
        }
    }
}

/// When a ring started blocking on its peers and for how long in total.
type RingWait = Option<(Instant, Duration)>;

/// The ring: `t-1` rounds over the ordinary message fabric in which
/// rank i forwards the contribution that originated at rank
/// (i - round) mod t to rank i+1 and receives origin (i - round - 1)
/// mod t from rank i-1. Messages travel under the originator's wire id,
/// so the §4.2 per-pair FIFO matching-order discipline holds across
/// back-to-back collectives, and every message is epoch-tagged like any
/// other send, so aborts and stale drains work unchanged. Returns every
/// member's contribution, rank-ascending, and the time spent blocked in
/// the rounds' receives (from the first one's start; `None` for a group
/// of one, which exchanges nothing).
fn gather_ring(
    st: &mut ActorState,
    group: &[usize],
    wires: &[BufferId],
    rank: usize,
    own: Tensor,
) -> Result<(Vec<Tensor>, RingWait), StreamFailure> {
    let t = group.len();
    let mut parts: Vec<Option<Tensor>> = vec![None; t];
    parts[rank] = Some(own);
    let next = group[(rank + 1) % t];
    let prev = group[(rank + t - 1) % t];
    let mut wait: RingWait = None;
    for round in 0..t - 1 {
        let send_origin = (rank + t - round) % t;
        let outgoing = parts[send_origin]
            .clone()
            .expect("ring invariant: contribution present");
        st.send_data(next, wires[send_origin], outgoing, SendToken::new())?;
        let recv_origin = (rank + t - round - 1) % t;
        let recv_start = Instant::now();
        let (id, incoming, token) = st.mailbox.recv_from(prev, st.epoch)?;
        let (_, waited) = wait.get_or_insert((recv_start, Duration::ZERO));
        *waited += recv_start.elapsed();
        if id != wires[recv_origin] {
            return Err(StreamFailure::Error(format!(
                "collective ring out of order: expected {}, got {id}",
                wires[recv_origin]
            )));
        }
        token.complete();
        parts[recv_origin] = Some(incoming);
    }
    let parts = parts.into_iter();
    let parts = parts.map(|p| p.expect("ring invariant: every origin received"));
    Ok((parts.collect(), wait))
}

/// Executes the collective at `stream[idx]` and stores its result in
/// `dst`: gather over the ring, combine, account. Returns the
/// collective's wire volume (its span bytes); the time blocked on peers
/// is recorded as an interval of its own inside the instruction.
///
/// Kept out of line: inlined, it bloats `execute_stream`'s
/// per-instruction loop, which every workload runs, collectives or not.
#[inline(never)]
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
    // Wait/wire metrics split by axis so each mesh dimension is
    // observable; the axis picks nothing else.
    let wait_kind = match axis {
        CollectiveAxis::Dp => Kind::DpCollectiveWait,
        CollectiveAxis::Tp => Kind::CollectiveWait,
    };
    let (parts, wait) = gather_ring(st, group, wires, rank, own)?;
    let combined = combine_collective(kind, dim, &parts)
        .map_err(|e| StreamFailure::Error(format!("{kind} {dst}: {e}")))?;
    let wire = rec.profile.count_collective(axis, t, numel);
    if let Some((start, dur)) = wait {
        rec.sub(idx, wait_kind, start, dur, 0, || {
            format!("{} (rank {rank}/{t})", wait_kind.as_str())
        });
    }
    st.store.insert(dst, combined);
    Ok(wire)
}
