//! In-actor rendezvous for collective groups (tensor-parallel shard
//! lanes and data-parallel replica groups alike).
//!
//! When a compiled program carries collectives ([`TpMeta`] from
//! `shard_program`, [`DpMeta`] from `replicate_program`, or both), the
//! participating actors already run on their own threads. On a
//! transport whose actors share an address space
//! (`Transport::supports_lanes()`, i.e. in-process mpsc) those threads
//! coordinate through the shared-memory structures in this module
//! instead of the per-collective `(t-1)`-round message ring that socket
//! transports use:
//!
//! * every [`crate::Instr::Collective`] resolves through a [`CollSlot`]
//!   of its *membership group* — each member publishes its contribution
//!   (possibly panel-by-panel, streamed out of the producing matmul
//!   while it is still multiplying), the first member to see all
//!   contributions assembles the combined tensor once, and all members
//!   share the result — versus `t` serialized ring walks each
//!   re-deriving the same combine;
//! * replicated jaxprs ([`TpMeta::replicated`]) execute once per TP
//!   lane group through a [`RunSlot`] and the other lanes adopt the
//!   outputs (O(1) `Arc` handle clones) instead of recomputing them
//!   `t` times.
//!
//! Groups are keyed by their exact membership (the rank-ascending actor
//! list of the collective instruction) and created on first touch, so
//! one [`LaneHub`] serves TP lane groups (`{h·t .. h·t+t-1}`), DP
//! replica groups (the same stream position in every replica), and the
//! folded groups a rebalance produces, with no axis-specific paths.
//!
//! All transformations preserve the bitwise contract: the assembly is
//! either the exact rank-ascending fold/concat, or (for TP's
//! disjoint `-0.0`-padded all-reduces) a block copy that equals that
//! fold bit for bit — DP gradient sums always take the pinned
//! ascending-replica fold, since their contributions genuinely differ;
//! replicated runs are bit-identical on every rank by the
//! replicated-buffer invariant, so executing one of them is
//! indistinguishable from executing all.
//!
//! Failure discipline: any actor that fails (task error, cascade abort,
//! injected death) *poisons every group it belongs to* for the epoch,
//! waking every parked peer; waits also poll the actor mailbox so
//! aborts arriving from outside the group (driver timeout, non-member
//! peers, a member that died before its group was ever created) bound
//! the wait too. See `collective.rs` for the wait loop itself.
//!
//! Slot retirement: completed slots retire when every member has taken
//! the result; slots of aborted epochs retire at the next
//! `begin_epoch`, and [`LaneHub::gc`] — called from `Runtime::recover`
//! and `Runtime::rebalance` — retires stale slots and poison
//! immediately after a failure, and drops whole groups whose membership
//! includes a permanently retired actor (otherwise a rebalance would
//! strand their staged tensors forever — the same live-bytes ratchet
//! class as the aborted-epoch `ObjectStore` ghost-deletion bug).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use raxpp_ir::{Shape, Tensor};
use raxpp_sched::TpMap;
use raxpp_taskgraph::TpMeta;

/// A step sequence number (the driver's `Execute` seq).
type Epoch = u64;

/// Runtime-wide collective coordination: one [`LaneGroup`] per distinct
/// collective membership, created on first touch and shared by the
/// member actors. Built once per program with collectives (on a
/// transport that supports lanes); immutable except for the group map.
pub(crate) struct LaneHub {
    /// Tensor-parallel layout (degree 1 when the program has no TP
    /// axis; TP lane groups and run dedup then do not exist).
    tp: TpMap,
    replicated: Arc<Vec<bool>>,
    /// Membership-keyed rendezvous groups (rank-ascending actor lists).
    groups: Mutex<HashMap<Vec<usize>, Arc<LaneGroup>>>,
}

impl LaneHub {
    pub(crate) fn new(tp: Option<&TpMeta>) -> LaneHub {
        LaneHub {
            tp: TpMap::new(tp.map_or(1, |m| m.degree.max(1))),
            replicated: Arc::new(tp.map(|m| m.replicated.clone()).unwrap_or_default()),
            groups: Mutex::new(HashMap::new()),
        }
    }

    /// The rendezvous group with exactly `members` (rank-ascending),
    /// created on first touch.
    pub(crate) fn group(&self, members: &[usize]) -> Arc<LaneGroup> {
        let mut groups = self.groups.lock().unwrap();
        if let Some(g) = groups.get(members) {
            return Arc::clone(g);
        }
        let g = Arc::new(LaneGroup::new(members.len()));
        groups.insert(members.to_vec(), Arc::clone(&g));
        g
    }

    /// The lane context actor `a` executes under: a hub handle for
    /// membership lookups, plus the actor's TP lane group and rank when
    /// the program is tensor-parallel.
    pub(crate) fn ctx_for(self: &Arc<Self>, a: usize) -> LaneCtx {
        let tp = self.tp;
        let lane =
            (tp.degree() > 1).then(|| (self.group(&tp.group_of(tp.host_of(a))), tp.rank_of(a)));
        LaneCtx {
            hub: Arc::clone(self),
            lane,
            replicated: Arc::clone(&self.replicated),
        }
    }

    /// Retires slots and poison from epochs before `epoch` in every
    /// group containing actor `a` — called by the actor itself on
    /// `Execute` receipt, before it can touch this epoch's slots.
    pub(crate) fn begin_epoch_actor(&self, a: usize, epoch: Epoch) {
        for g in self.groups_of(a) {
            g.begin_epoch(epoch);
        }
    }

    /// Every group actor `a` is a member of (snapshot taken under the
    /// map lock, used outside it).
    fn groups_of(&self, a: usize) -> Vec<Arc<LaneGroup>> {
        let groups = self.groups.lock().unwrap();
        let mine = groups.iter().filter(|(members, _)| members.contains(&a));
        mine.map(|(_, g)| Arc::clone(g)).collect()
    }

    /// Poisons `epoch` in every group containing actor `a` on behalf of
    /// actor `by` — the death/error path. Groups the failed actor never
    /// touched may not exist yet; their future waiters are bounded by
    /// the mailbox abort polling instead.
    pub(crate) fn poison_actor(&self, a: usize, epoch: Epoch, by: usize, reason: &str) {
        for g in self.groups_of(a) {
            g.poison(epoch, by, reason);
        }
    }

    /// Recovery-time garbage collection: drops every group whose
    /// membership includes a retired actor (their slots would otherwise
    /// hold staged tensors forever — no survivor ever begins a new
    /// epoch on a stale membership), then retires slots and poison from
    /// epochs before `epoch` in the groups that remain.
    pub(crate) fn gc(&self, retired: &[bool], epoch: Epoch) {
        let survivors: Vec<Arc<LaneGroup>> = {
            let mut groups = self.groups.lock().unwrap();
            groups.retain(|k, _| !k.iter().any(|&m| retired.get(m).copied().unwrap_or(false)));
            groups.values().map(Arc::clone).collect()
        };
        for g in survivors {
            g.begin_epoch(epoch);
        }
    }

    /// Total in-flight rendezvous slots across all groups (collective
    /// and run-dedup) — the leak detector the chaos soak asserts on.
    pub(crate) fn live_slots(&self) -> usize {
        let groups = self.groups.lock().unwrap();
        groups
            .values()
            .map(|g| {
                let s = g.state.lock().unwrap();
                s.colls.len() + s.runs.len()
            })
            .sum()
    }
}

/// One actor's handle into the collective hub (cheap to clone: Arcs).
#[derive(Clone)]
pub(crate) struct LaneCtx {
    /// The runtime-wide hub, for membership-keyed group lookups.
    pub(crate) hub: Arc<LaneHub>,
    /// This actor's TP lane group and rank within it, when the program
    /// is tensor-parallel (`None` under pure DP) — drives replicated-run
    /// dedup and fast poison/epoch paths.
    pub(crate) lane: Option<(Arc<LaneGroup>, usize)>,
    /// Per-jaxpr replication flags ([`TpMeta::replicated`]).
    pub(crate) replicated: Arc<Vec<bool>>,
}

/// The rendezvous shared by the member actors of one collective group.
pub(crate) struct LaneGroup {
    pub(crate) state: Mutex<GroupState>,
    pub(crate) cv: Condvar,
    pub(crate) degree: usize,
}

/// Mutable rendezvous state, keyed by `(epoch, instruction index)` —
/// member streams are index-aligned by construction (`shard_program`
/// and `replicate_program` emit identical instruction kinds at
/// identical positions, and `replace_program` folds hosts uniformly
/// across ranks and replicas), so the instruction index identifies one
/// collective or run across all members.
#[derive(Default)]
pub(crate) struct GroupState {
    /// A failed member's epoch poison: wakes and aborts every group
    /// wait for that epoch (or earlier).
    pub(crate) poison: Option<(Epoch, usize, String)>,
    /// In-flight collective rendezvous slots.
    pub(crate) colls: HashMap<(Epoch, u32), CollSlot>,
    /// In-flight replicated-run dedup slots.
    pub(crate) runs: HashMap<(Epoch, u32), RunSlot>,
}

/// One collective's rendezvous: per-rank contributions, the combined
/// result, and bookkeeping for single-assembly and slot retirement.
pub(crate) struct CollSlot {
    pub(crate) parts: Vec<Option<Contribution>>,
    /// The combined tensor (pre-scatter for reduce-scatter), or the
    /// combine error every member must surface.
    pub(crate) assembled: Option<Result<Tensor, String>>,
    /// A member is combining outside the lock; peers keep waiting.
    pub(crate) assembling: bool,
    /// Members that have taken `assembled`; at `degree` the slot
    /// retires.
    pub(crate) takers: usize,
}

/// One rank's contribution to a [`CollSlot`].
pub(crate) enum Contribution {
    /// Row panels streamed out of the producing matmul land here as
    /// they complete; converts to `Ready` at the last panel.
    Staging {
        shape: Shape,
        buf: Vec<f32>,
        filled: usize,
    },
    /// The full contribution tensor.
    Ready(Tensor),
}

/// One replicated jaxpr execution shared across a lane group's members.
pub(crate) enum RunSlot {
    /// A lane claimed execution; peers wait.
    Claimed,
    /// Outputs ready for adoption. Peers clone the handles (the store
    /// keeps its own references on every lane, so in-place stealing
    /// inside a later interpreter run can never touch a shared buffer).
    Done { outs: Vec<Tensor>, takers: usize },
}

impl LaneGroup {
    fn new(degree: usize) -> LaneGroup {
        LaneGroup {
            state: Mutex::new(GroupState::default()),
            cv: Condvar::new(),
            degree,
        }
    }

    /// Starts a new epoch on this group: retires slots and poison from
    /// earlier epochs. Epochs are never reused (the driver's seq is
    /// monotone), so entries at `epoch` or later are left untouched.
    pub(crate) fn begin_epoch(&self, epoch: Epoch) {
        let mut s = self.state.lock().unwrap();
        s.colls.retain(|k, _| k.0 >= epoch);
        s.runs.retain(|k, _| k.0 >= epoch);
        if matches!(s.poison, Some((e, _, _)) if e < epoch) {
            s.poison = None;
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Marks `epoch` failed on behalf of actor `by`, waking every
    /// parked member. First poison wins (mirrors the mailbox's
    /// first-abort-wins rule); later epochs' poisons overwrite earlier
    /// ones so a stale poison can never mask a live failure.
    pub(crate) fn poison(&self, epoch: Epoch, by: usize, reason: &str) {
        let mut s = self.state.lock().unwrap();
        if !matches!(s.poison, Some((e, _, _)) if e >= epoch) {
            s.poison = Some((epoch, by, reason.to_string()));
        }
        drop(s);
        self.cv.notify_all();
    }
}

impl GroupState {
    /// The slot for collective `key`, created empty on first touch.
    pub(crate) fn coll_slot(&mut self, key: (Epoch, u32), degree: usize) -> &mut CollSlot {
        self.colls.entry(key).or_insert_with(|| CollSlot {
            parts: (0..degree).map(|_| None).collect(),
            assembled: None,
            assembling: false,
            takers: 0,
        })
    }
}
