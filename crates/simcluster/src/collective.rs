//! Collective operations, link classes, and their cost models.
//!
//! These analytic costs feed the `raxpp-simcluster` discrete-event model:
//! tensor-parallel collectives *inside* an SPMD task, data-parallel
//! gradient reductions, and the pipeline's point-to-point transfers. Ring
//! formulas follow the standard NCCL analysis.

use std::fmt;

/// Kind of collective communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Sum-reduce, result replicated on every rank.
    AllReduce,
    /// Every rank ends with the concatenation of all shards.
    AllGather,
    /// Sum-reduce, result sharded across ranks.
    ReduceScatter,
    /// Each rank sends a distinct shard to every other rank.
    AllToAll,
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Collective::AllReduce => "all_reduce",
            Collective::AllGather => "all_gather",
            Collective::ReduceScatter => "reduce_scatter",
            Collective::AllToAll => "all_to_all",
        };
        write!(f, "{name}")
    }
}

/// A communication link class with its effective bandwidth and latency.
///
/// Bandwidths are *algorithm* bandwidths per GPU (the busbw NCCL reports),
/// not signaling rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Effective per-GPU bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// NVLink/NVSwitch within a DGX H100 node: ~450 GB/s effective
    /// all-reduce bandwidth per GPU, sub-10µs latency.
    pub fn nvlink() -> LinkSpec {
        LinkSpec {
            bandwidth: 450e9,
            latency: 5e-6,
        }
    }

    /// InfiniBand NDR400 across nodes (the EOS cluster fabric, paper §5):
    /// 400 Gb/s per GPU ≈ 50 GB/s, with higher latency.
    pub fn infiniband() -> LinkSpec {
        LinkSpec {
            bandwidth: 50e9,
            latency: 15e-6,
        }
    }

    /// Time for a point-to-point transfer of `bytes`.
    pub fn p2p_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// Time for `collective` over `bytes` per rank among `n_ranks` on `link`,
/// using ring-algorithm transfer volumes:
///
/// * all-reduce moves `2 (n-1)/n` of the buffer per rank,
/// * all-gather / reduce-scatter move `(n-1)/n`,
/// * all-to-all moves `(n-1)/n` (balanced).
pub fn collective_time(collective: Collective, bytes: f64, n_ranks: usize, link: LinkSpec) -> f64 {
    if n_ranks <= 1 {
        return 0.0;
    }
    let n = n_ranks as f64;
    let steps = n - 1.0;
    let volume_factor = match collective {
        Collective::AllReduce => 2.0 * steps / n,
        Collective::AllGather | Collective::ReduceScatter | Collective::AllToAll => steps / n,
    };
    let latency_steps = match collective {
        Collective::AllReduce => 2.0 * steps,
        _ => steps,
    };
    latency_steps * link.latency + volume_factor * bytes / link.bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        assert_eq!(
            collective_time(Collective::AllReduce, 1e9, 1, LinkSpec::nvlink()),
            0.0
        );
    }

    #[test]
    fn allreduce_twice_allgather() {
        let ag = collective_time(Collective::AllGather, 1e9, 8, LinkSpec::nvlink());
        let ar = collective_time(Collective::AllReduce, 1e9, 8, LinkSpec::nvlink());
        // Ring all-reduce = reduce-scatter + all-gather.
        assert!((ar - 2.0 * ag).abs() / ar < 1e-6);
    }

    #[test]
    fn bandwidth_bound_large_messages() {
        // 1 GB all-reduce over 8 NVLink ranks: 2*(7/8)*1e9/450e9 ≈ 3.9 ms.
        let t = collective_time(Collective::AllReduce, 1e9, 8, LinkSpec::nvlink());
        assert!(t > 3.5e-3 && t < 4.5e-3, "t = {t}");
    }

    #[test]
    fn ib_slower_than_nvlink() {
        let nv = collective_time(Collective::AllReduce, 1e8, 8, LinkSpec::nvlink());
        let ib = collective_time(Collective::AllReduce, 1e8, 8, LinkSpec::infiniband());
        assert!(ib > 5.0 * nv);
    }

    #[test]
    fn p2p_includes_latency() {
        let link = LinkSpec {
            bandwidth: 1e9,
            latency: 1e-3,
        };
        assert!((link.p2p_time(1e6) - (1e-3 + 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn more_ranks_cost_more_latency() {
        let small = collective_time(Collective::AllReduce, 1e3, 2, LinkSpec::infiniband());
        let large = collective_time(Collective::AllReduce, 1e3, 64, LinkSpec::infiniband());
        assert!(large > small);
    }
}
