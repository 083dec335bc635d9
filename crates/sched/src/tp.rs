//! Tensor-parallel actor-space arithmetic.
//!
//! When a pipeline of `A` host actors is sharded over a tensor-parallel
//! axis of degree `t` (see `raxpp-taskgraph`'s `shard_program`), every
//! host actor `a` expands into the contiguous rank block
//! `a*t .. a*t + t - 1`. [`TpMap`] is that arithmetic, and the only
//! copy of it: the compiler (`shard_program`'s axis expansion, the
//! verifier's alignment check) and the runtime (host-fold planning)
//! call it, so they agree on shard-task identity: shard actor
//! `a*t + r` is "(pipeline actor `a`, tp rank `r`)".

/// Mapping between host (pipeline) actor indices and tensor-parallel
/// shard actor indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpMap {
    degree: usize,
}

impl TpMap {
    /// Builds a map for the given tensor-parallel degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize) -> TpMap {
        assert!(degree > 0, "tensor-parallel degree must be positive");
        TpMap { degree }
    }

    /// The tensor-parallel degree `t`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The shard actor of `(host, rank)`.
    pub fn shard_actor(&self, host: usize, rank: usize) -> usize {
        debug_assert!(rank < self.degree);
        host * self.degree + rank
    }

    /// The host (pipeline) actor a shard actor belongs to.
    pub fn host_of(&self, shard: usize) -> usize {
        shard / self.degree
    }

    /// The tensor-parallel rank of a shard actor within its host.
    pub fn rank_of(&self, shard: usize) -> usize {
        shard % self.degree
    }

    /// Total shard actors for `n_hosts` pipeline actors.
    pub fn n_shard_actors(&self, n_hosts: usize) -> usize {
        n_hosts * self.degree
    }

    /// The rank-ascending collective group of one host actor.
    pub fn group_of(&self, host: usize) -> Vec<usize> {
        (0..self.degree)
            .map(|r| self.shard_actor(host, r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = TpMap::new(4);
        for host in 0..3 {
            for rank in 0..4 {
                let s = m.shard_actor(host, rank);
                assert_eq!(m.host_of(s), host);
                assert_eq!(m.rank_of(s), rank);
            }
        }
        assert_eq!(m.n_shard_actors(3), 12);
    }

    #[test]
    fn groups_are_rank_ascending() {
        let m = TpMap::new(2);
        assert_eq!(m.group_of(0), vec![0, 1]);
        assert_eq!(m.group_of(2), vec![4, 5]);
        assert!(m.group_of(1).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn degree_one_is_identity() {
        let m = TpMap::new(1);
        assert_eq!(m.shard_actor(5, 0), 5);
        assert_eq!(m.host_of(5), 5);
        assert_eq!(m.rank_of(5), 0);
    }

    #[test]
    #[should_panic]
    fn zero_degree_panics() {
        TpMap::new(0);
    }
}
