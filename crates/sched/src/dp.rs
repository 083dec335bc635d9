//! Data-parallel actor-space arithmetic.
//!
//! When a compiled program of `base` actors (pipeline actors, already
//! expanded by any tensor-parallel sharding) is replicated over a
//! data-parallel axis of degree `R` (see `raxpp-taskgraph`'s
//! `replicate_program`), replica `rep`'s copy of base actor `a` is
//! `rep*base + a`: replicas occupy contiguous blocks of the raw actor
//! space. [`DpMap`] is that arithmetic, and the only copy of it: the
//! compiler (`replicate_program`'s axis expansion and batch-range
//! re-indexing, the verifier's alignment check) and the runtime
//! (host-fold planning)
//! call it, exactly as they call [`TpMap`](crate::TpMap) for the
//! tensor-parallel axis — the two compose, with the TP expansion
//! applied first (so `base` is already `hosts * t`).

/// Mapping between base (single-replica) actor indices and raw
/// (replicated) actor indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpMap {
    replicas: usize,
    base_actors: usize,
}

impl DpMap {
    /// Builds a map for `replicas` copies of a `base_actors`-actor
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(replicas: usize, base_actors: usize) -> DpMap {
        assert!(replicas > 0, "data-parallel degree must be positive");
        assert!(base_actors > 0, "base actor count must be positive");
        DpMap {
            replicas,
            base_actors,
        }
    }

    /// The data-parallel degree `R`.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Actors per replica (the pre-replication program size).
    pub fn base_actors(&self) -> usize {
        self.base_actors
    }

    /// The raw actor of `(replica, base actor)`.
    pub fn replica_actor(&self, replica: usize, base: usize) -> usize {
        debug_assert!(replica < self.replicas);
        debug_assert!(base < self.base_actors);
        replica * self.base_actors + base
    }

    /// The replica a raw actor belongs to.
    pub fn replica_of(&self, raw: usize) -> usize {
        raw / self.base_actors
    }

    /// The base (single-replica) actor index of a raw actor.
    pub fn base_of(&self, raw: usize) -> usize {
        raw % self.base_actors
    }

    /// Total raw actors.
    pub fn n_actors(&self) -> usize {
        self.replicas * self.base_actors
    }

    /// The replica-ascending collective group of one base actor: the
    /// `R` raw actors holding that pipeline position's copy in each
    /// replica. These are the memberships `replicate_program` puts on
    /// DP gradient collectives.
    pub fn group_of(&self, base: usize) -> Vec<usize> {
        (0..self.replicas)
            .map(|rep| self.replica_actor(rep, base))
            .collect()
    }

    /// The global batch size implied by `n_local` microbatches per
    /// replica: every replica runs the same per-replica schedule, so the
    /// global batch is `R * n_local` microbatches.
    pub fn global_mubatches(&self, n_local: usize) -> usize {
        self.replicas * n_local
    }

    /// The global index of replica `rep`'s local microbatch `m`, given
    /// `n_local` microbatches per replica: replicas own contiguous
    /// ascending ranges of the global batch, so this is
    /// `rep * n_local + m`.
    pub fn global_mubatch(&self, rep: usize, m: usize, n_local: usize) -> usize {
        debug_assert!(rep < self.replicas);
        debug_assert!(m < n_local);
        rep * n_local + m
    }

    /// The half-open global microbatch range `[start, end)` that replica
    /// `rep` consumes, given `n_local` microbatches per replica.
    pub fn mubatch_range(&self, rep: usize, n_local: usize) -> std::ops::Range<usize> {
        debug_assert!(rep < self.replicas);
        rep * n_local..(rep + 1) * n_local
    }

    /// The replica that consumes global microbatch `global`, given
    /// `n_local` microbatches per replica.
    pub fn replica_of_mubatch(&self, global: usize, n_local: usize) -> usize {
        debug_assert!(global < self.global_mubatches(n_local));
        global / n_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = DpMap::new(3, 4);
        for rep in 0..3 {
            for base in 0..4 {
                let raw = m.replica_actor(rep, base);
                assert_eq!(m.replica_of(raw), rep);
                assert_eq!(m.base_of(raw), base);
            }
        }
        assert_eq!(m.n_actors(), 12);
    }

    #[test]
    fn groups_are_replica_ascending_and_strided() {
        let m = DpMap::new(2, 4);
        assert_eq!(m.group_of(0), vec![0, 4]);
        assert_eq!(m.group_of(3), vec![3, 7]);
        assert!(m.group_of(2).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_replica_is_identity() {
        let m = DpMap::new(1, 4);
        assert_eq!(m.replica_actor(0, 3), 3);
        assert_eq!(m.replica_of(3), 0);
        assert_eq!(m.base_of(3), 3);
        assert_eq!(m.group_of(3), vec![3]);
    }

    #[test]
    fn composes_with_tp() {
        // 2 hosts × t=2 → base=4; R=2 → raw actor of (rep=1, host=1,
        // rank=0) is 1*4 + 1*2 + 0 = 6.
        let tp = crate::TpMap::new(2);
        let dp = DpMap::new(2, tp.n_shard_actors(2));
        assert_eq!(dp.replica_actor(1, tp.shard_actor(1, 0)), 6);
    }

    #[test]
    #[should_panic]
    fn zero_replicas_panics() {
        DpMap::new(0, 4);
    }

    #[test]
    fn batch_ranges_partition_the_global_batch() {
        let m = DpMap::new(3, 2);
        let n_local = 4;
        assert_eq!(m.global_mubatches(n_local), 12);
        let mut seen = [false; 12];
        for rep in 0..3 {
            let range = m.mubatch_range(rep, n_local);
            assert_eq!(range.len(), n_local);
            for (local, global) in range.clone().enumerate() {
                assert_eq!(m.global_mubatch(rep, local, n_local), global);
                assert_eq!(m.replica_of_mubatch(global, n_local), rep);
                assert!(!seen[global], "microbatch {global} assigned twice");
                seen[global] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every microbatch must be owned");
    }
}
