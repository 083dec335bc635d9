//! Axis expansion: the skeleton [`crate::shard_program`] (tensor
//! parallelism, the inner axis) and [`crate::replicate_program`] (data
//! parallelism, the outer axis) share.
//!
//! Expanding a program along an axis of `copies` turns every actor into
//! `copies` actors laid out by the axis's [`AxisMap`]
//! ([`TpMap::shard_actor`] / [`DpMap::replica_actor`]). Point-to-point
//! traffic and existing collective groups are rewired copy-to-copy,
//! placements and fetches fan out, and the copies' streams stay
//! *index-aligned* ([`streams_aligned`]) — the property that lets the
//! members of a group meet their collectives in the same order. What an
//! axis *means* is the caller's [`AxisRule`]: what a `Run` becomes on
//! each copy, how a placement differs per copy, and which copies a
//! fetch reads.

use raxpp_sched::{DpMap, TpMap};

use crate::program::{ActorId, BufferId, Fetch, InputPlacement, Instr, MpmdProgram};

/// The actor layout of one expansion axis.
pub(crate) trait AxisMap {
    /// Copies every input actor expands into.
    fn copies(&self) -> usize;
    /// The expanded actor holding copy `copy` of input actor `base`.
    fn actor(&self, base: ActorId, copy: usize) -> ActorId;
}

impl AxisMap for TpMap {
    fn copies(&self) -> usize {
        self.degree()
    }
    fn actor(&self, base: ActorId, copy: usize) -> ActorId {
        self.shard_actor(base, copy)
    }
}

impl AxisMap for DpMap {
    fn copies(&self) -> usize {
        self.replicas()
    }
    fn actor(&self, base: ActorId, copy: usize) -> ActorId {
        self.replica_actor(copy, base)
    }
}

/// What one axis does to the parts of a program that are not plain
/// copies.
pub(crate) trait AxisRule {
    /// Expands one `Run` of an input actor: pushes copy `c`'s
    /// instructions onto `streams[group[c]]`, the same instruction kinds
    /// in the same order for every copy (alignment).
    fn run(&mut self, run: &Instr, group: &[ActorId], streams: &mut [Vec<Instr>]);
    /// Copy `copy`'s version of a placement; its `actor` is still the
    /// input actor, [`expand_axis`] maps it.
    fn placement(&self, p: &InputPlacement, copy: usize) -> InputPlacement;
    /// Copy `copy`'s version of a fetch (`actor` as for placements), or
    /// `None` when that copy is not read.
    fn fetch(&self, f: &Fetch, copy: usize) -> Option<Fetch>;
}

/// Mints buffer ids above every id a program mentions.
pub(crate) struct Fresh(u32);

impl Fresh {
    pub(crate) fn above(program: &MpmdProgram) -> Fresh {
        Fresh(program.fresh_buffer_floor())
    }

    pub(crate) fn next(&mut self) -> BufferId {
        self.0 += 1;
        BufferId(self.0 - 1)
    }
}

impl Instr {
    /// The same instruction with every actor id it names — a send's
    /// destination, a receive's source, a collective's group — passed
    /// through `f`.
    pub(crate) fn map_actors(&self, f: impl Fn(ActorId) -> ActorId) -> Instr {
        let mut out = self.clone();
        match &mut out {
            Instr::Send { to, .. } => *to = f(*to),
            Instr::Recv { from, .. } => *from = f(*from),
            Instr::Collective { group, .. } => group.iter_mut().for_each(|m| *m = f(*m)),
            Instr::Run { .. } | Instr::Free { .. } => {}
        }
        out
    }
}

/// Expands `program`'s streams, placements and fetches along `map`
/// under `rule` into `out`, whose jaxpr table and axis metadata are the
/// caller's to fill.
///
/// Streams are walked input-actor-major and instruction by instruction,
/// so a rule that mints ids per `Run` numbers them in stream order.
/// Placements come out copy-major (a copy's placements stay contiguous,
/// in input order), fetches fan out in place.
pub(crate) fn expand_axis(
    program: &MpmdProgram,
    map: &impl AxisMap,
    rule: &mut impl AxisRule,
    out: &mut MpmdProgram,
) {
    let copies = map.copies();
    out.actors = vec![Vec::new(); program.n_actors() * copies];
    for (a, stream) in program.actors.iter().enumerate() {
        let group: Vec<ActorId> = (0..copies).map(|c| map.actor(a, c)).collect();
        for instr in stream {
            if matches!(instr, Instr::Run { .. }) {
                rule.run(instr, &group, &mut out.actors);
                continue;
            }
            for (c, &actor) in group.iter().enumerate() {
                out.actors[actor].push(instr.map_actors(|m| map.actor(m, c)));
            }
        }
    }
    for c in 0..copies {
        for p in &program.placements {
            let mut q = rule.placement(p, c);
            q.actor = map.actor(p.actor, c);
            out.placements.push(q);
        }
    }
    for f in &program.fetches {
        for c in 0..copies {
            if let Some(mut q) = rule.fetch(f, c) {
                q.actor = map.actor(f.actor, c);
                out.fetches.push(q);
            }
        }
    }
}

/// Checks that the first `n_base` input actors' copies along `map` are
/// index-aligned: equal stream length and equal instruction kind at
/// every index, so the members of a group meet their collectives in
/// the same order. Returns the first offending `(copy-0 actor, other
/// copy's actor, index)`; a copy the program has no stream for offends
/// at index 0.
pub(crate) fn streams_aligned(
    program: &MpmdProgram,
    map: &impl AxisMap,
    n_base: usize,
) -> Result<(), (ActorId, ActorId, usize)> {
    for base in 0..n_base {
        let first = map.actor(base, 0);
        for c in 1..map.copies() {
            let other = map.actor(base, c);
            let (Some(s0), Some(sc)) = (program.actors.get(first), program.actors.get(other))
            else {
                return Err((first, other, 0));
            };
            let same_kind =
                |(x, y): (&Instr, &Instr)| std::mem::discriminant(x) == std::mem::discriminant(y);
            if let Some(i) = s0.iter().zip(sc).position(|pair| !same_kind(pair)) {
                return Err((first, other, i));
            }
            if s0.len() != sc.len() {
                return Err((first, other, s0.len().min(sc.len())));
            }
        }
    }
    Ok(())
}
