//! `Instr::Collective`: one instruction, one carrier — the message
//! fabric every other actor-to-actor byte already rides.
//!
//! [`exchange`] is one round: each member sends every peer, straight
//! and under its own wire id, the piece of its contribution that peer
//! needs (the whole contribution, or the peer's block for a
//! reduce-scatter), then receives one piece from each peer in rank
//! order. The combine ([`combine_collective`]: concat or left fold, by
//! kind alone), the per-axis wire-byte accounting and the wait span
//! follow in [`run_collective`]. No transport is consulted and no
//! memory is shared between actors, so mpsc ≡ socket ≡ single device,
//! bit for bit (`docs/determinism.md`), because there is one code path.

use std::time::{Duration, Instant};

use raxpp_ir::Tensor;
use raxpp_taskgraph::{dp_split, BufferId, CollectiveAxis, CollectiveKind};

use crate::actor::ActorState;
use crate::exec::StreamFailure;
use crate::kind::Kind;
use crate::store::SendToken;
use crate::trace::Recorder;

/// Combines a group's rank-ascending pieces — concat for all-gather
/// (equal shapes except on `dim`), left-fold sum for all-reduce and
/// reduce-scatter (equal shapes). No rank-dependent association, so the
/// result is bitwise-identical on every rank, on every transport, and
/// to the unsharded program.
fn combine_collective(
    kind: CollectiveKind,
    dim: usize,
    parts: &[Tensor],
) -> Result<Tensor, String> {
    match kind {
        CollectiveKind::AllGather => {
            let refs: Vec<&Tensor> = parts.iter().collect();
            Tensor::concat(&refs, dim).map_err(|e| e.to_string())
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

/// When an exchange started blocking on its peers and for how long in
/// total.
type ExchangeWait = Option<(Instant, Duration)>;

/// One direct exchange: sends each peer its piece of `own` — the whole
/// contribution, or under reduce-scatter the peer's [`dp_split`] block
/// along `dim` — under this rank's wire id, then receives one piece
/// from every peer in rank order, checking each against the sender's
/// wire id. Every message is epoch-tagged like any other send and every
/// pair sees one message per collective, so the §4.2 per-pair FIFO
/// discipline holds across back-to-back collectives and aborts and
/// stale drains work unchanged. At `t = 2` this is the two-member ring,
/// message for message.
///
/// Returns the pieces this rank combines, rank-ascending, the bytes it
/// sent, and the time spent blocked in the receives (from the first
/// one's start; `None` for a group of one, which exchanges nothing).
fn exchange(
    st: &mut ActorState,
    kind: CollectiveKind,
    group: &[usize],
    wires: &[BufferId],
    rank: usize,
    dim: usize,
    own: &Tensor,
) -> Result<(Vec<Tensor>, u64, ExchangeWait), StreamFailure> {
    let t = group.len();
    let piece = |to| match kind {
        CollectiveKind::AllGather | CollectiveKind::AllReduce => Ok(own.clone()),
        CollectiveKind::ReduceScatter => {
            let n = own.shape().dims().get(dim).copied().unwrap_or(0);
            let (start, len) = dp_split(n, t, to);
            let block = own.slice_dim(dim, start, len);
            block.map_err(|e| StreamFailure::Error(e.to_string()))
        }
    };
    let mut sent = 0;
    for (to, &peer) in group.iter().enumerate().filter(|&(to, _)| to != rank) {
        let out = piece(to)?;
        sent += 4 * out.numel() as u64;
        st.send_data(peer, wires[rank], out, SendToken::new())?;
    }
    let mut parts = Vec::with_capacity(t);
    let mut wait: ExchangeWait = None;
    for (from, &peer) in group.iter().enumerate() {
        if from == rank {
            parts.push(piece(rank)?);
            continue;
        }
        let recv_start = Instant::now();
        let (id, incoming, token) = st.mailbox.recv_from(peer, st.epoch)?;
        let (_, waited) = wait.get_or_insert((recv_start, Duration::ZERO));
        *waited += recv_start.elapsed();
        if id != wires[from] {
            return Err(StreamFailure::Error(format!(
                "collective exchange out of order: expected {}, got {id}",
                wires[from]
            )));
        }
        token.complete();
        parts.push(incoming);
    }
    Ok((parts, sent, wait))
}

/// Executes the collective at `stream[idx]` and stores its result in
/// `dst`: exchange, combine, account. Returns the collective's wire
/// volume (its span bytes); the time blocked on peers is recorded as an
/// interval of its own inside the instruction.
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
    // Wait/wire metrics split by axis so each mesh dimension is
    // observable; the axis picks nothing else.
    let wait_kind = match axis {
        CollectiveAxis::Dp => Kind::DpCollectiveWait,
        CollectiveAxis::Tp => Kind::CollectiveWait,
    };
    let (parts, sent, wait) = exchange(st, kind, group, wires, rank, dim, &own)?;
    let combined = combine_collective(kind, dim, &parts)
        .map_err(|e| StreamFailure::Error(format!("{kind} {dst}: {e}")))?;
    let wire = rec.profile.count_collective(axis, sent);
    if let Some((start, dur)) = wait {
        rec.sub(idx, wait_kind, start, dur, 0, || {
            format!("{} (rank {rank}/{t})", wait_kind.as_str())
        });
    }
    st.store.insert(dst, combined);
    Ok(wire)
}
