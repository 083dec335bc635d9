//! Hierarchical collective timing shared by the baselines.

use crate::collective::LinkSpec;

/// Time to materialize `full_bytes` on every GPU from shards spread over
/// `nodes × gpus_per_node` ranks: the inter-node phase moves the off-node
/// fraction through each node's NICs in parallel, the intra-node phase
/// redistributes over NVLink; the phases pipeline, so the slower one
/// dominates. This hierarchy is what makes full-model all-gathers (FSDP)
/// feasible at all at cluster scale.
pub fn hierarchical_gather_time(
    full_bytes: f64,
    nodes: usize,
    gpus_per_node: usize,
    intra: LinkSpec,
    inter: LinkSpec,
) -> f64 {
    let n = nodes as f64;
    let g = gpus_per_node as f64;
    let inter_phase = if nodes > 1 {
        // Each node imports the (n-1)/n of the buffer it lacks, striped
        // over its g NICs.
        full_bytes * (n - 1.0) / n / (g * inter.bandwidth) + inter.latency * (n - 1.0)
    } else {
        0.0
    };
    let intra_phase = if gpus_per_node > 1 {
        full_bytes * (g - 1.0) / g / intra.bandwidth + intra.latency * (g - 1.0)
    } else {
        0.0
    };
    inter_phase.max(intra_phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_uses_nvlink_only() {
        let t = hierarchical_gather_time(8e9, 1, 8, LinkSpec::nvlink(), LinkSpec::infiniband());
        // 8 GB * 7/8 over 450 GB/s ≈ 15.6 ms.
        assert!(t > 0.014 && t < 0.018, "t = {t}");
    }

    #[test]
    fn full_gpt3_gather_is_subsecond_on_8_nodes() {
        // 350 GB of BF16 weights over 8 nodes × 8 NICs ≈ 0.77 s — the
        // number that makes the paper's FSDP baseline viable.
        let t = hierarchical_gather_time(350e9, 8, 8, LinkSpec::nvlink(), LinkSpec::infiniband());
        assert!(t > 0.6 && t < 1.0, "t = {t}");
    }

    #[test]
    fn more_nodes_cost_more() {
        let t8 = hierarchical_gather_time(350e9, 8, 8, LinkSpec::nvlink(), LinkSpec::infiniband());
        let t16 =
            hierarchical_gather_time(350e9, 16, 8, LinkSpec::nvlink(), LinkSpec::infiniband());
        assert!(t16 > t8);
    }
}
