//! Host-fold planning for [`crate::Runtime::rebalance`]: which actors
//! retire and where their work goes, as a pure function of the fleet's
//! shape — callable without a fleet.

use raxpp_sched::{DpMap, TpMap};

use crate::error::RuntimeError;

/// Plans the fold of `dead` onto the survivors of a fleet of
/// `retired.len()` actors laid out as `dp.replicas()` blocks of
/// `dp.base_actors()` actors, each block holding hosts of `tp.degree()`
/// TP ranks. Returns `(assign, newly_retired)`: `assign[a]` is the
/// actor that hosts old actor `a`'s stages from now on (survivors map
/// to themselves), `newly_retired` is ascending.
///
/// Folds happen at *host* granularity: a host is one pipeline position
/// together with all of its TP ranks and DP replicas. Losing any raw
/// actor retires the whole host everywhere — identically in every
/// replica, rank-preservingly within each TP rank group — so collective
/// memberships stay aligned across ranks and replicas after the fold
/// ({h·t+r} → {s·t+r} in every replica block).
pub(crate) fn plan_fold(
    tp: TpMap,
    dp: DpMap,
    retired: &[bool],
    dead: &[usize],
) -> Result<(Vec<usize>, Vec<usize>), RuntimeError> {
    let n = retired.len();
    for &d in dead {
        if d >= n {
            return Err(RuntimeError::BadInput(format!("unknown actor {d}")));
        }
        if retired[d] {
            return Err(RuntimeError::BadInput(format!("actor {d} already retired")));
        }
    }
    let mut assign: Vec<usize> = (0..n).collect();
    if dead.is_empty() {
        return Ok((assign, Vec::new()));
    }
    let hosts = dp.base_actors() / tp.degree();
    // The raw actors of host `h`: every TP rank in every replica.
    let raw_of = |h: usize| {
        (0..dp.replicas()).flat_map(move |rep| {
            (0..tp.degree()).map(move |r| dp.replica_actor(rep, tp.shard_actor(h, r)))
        })
    };
    let mut dead_hosts: Vec<usize> = dead.iter().map(|&d| tp.host_of(dp.base_of(d))).collect();
    dead_hosts.sort_unstable();
    dead_hosts.dedup();
    let host_alive = |h: usize| !dead_hosts.contains(&h) && raw_of(h).all(|a| !retired[a]);
    let alive_hosts: Vec<usize> = (0..hosts).filter(|&h| host_alive(h)).collect();
    if alive_hosts.is_empty() {
        return Err(RuntimeError::Rebalance("no surviving actors".into()));
    }
    let mut newly_retired = Vec::new();
    for &h in &dead_hosts {
        // Nearest surviving host by pipeline distance; ties go to
        // the lower index so the mapping is deterministic.
        let s = alive_hosts
            .iter()
            .copied()
            .min_by_key(|&s| (s.abs_diff(h), s))
            .expect("alive_hosts is non-empty");
        for (from, onto) in raw_of(h).zip(raw_of(s)) {
            assign[from] = onto;
            newly_retired.push(from);
        }
    }
    newly_retired.sort_unstable();
    Ok((assign, newly_retired))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: [bool; 8] = [false; 8];

    fn folds(
        t: usize,
        base: usize,
        replicas: usize,
        retired: &[bool],
        dead: &[usize],
    ) -> Vec<usize> {
        let (tp, dp) = (TpMap::new(t), DpMap::new(replicas, base));
        let (assign, newly_retired) = plan_fold(tp, dp, retired, dead).unwrap();
        let moved: Vec<usize> = (0..assign.len()).filter(|&a| assign[a] != a).collect();
        assert_eq!(newly_retired, moved, "exactly the folded actors retire");
        assign
    }

    #[test]
    fn pp4_middle_host_tie_goes_to_the_lower_index() {
        // Hosts 0 and 2 are equally near host 1.
        assert_eq!(folds(1, 4, 1, &NONE[..4], &[1]), [0, 0, 2, 3]);
        // A neighbour retired earlier is not a survivor to fold onto.
        let retired = [false, true, false, false];
        assert_eq!(folds(1, 4, 1, &retired, &[2]), [0, 1, 3, 3]);
        assert_eq!(folds(1, 4, 1, &NONE[..4], &[]), [0, 1, 2, 3]);
    }

    #[test]
    fn pp2_tp2_dp2_retires_the_host_in_both_replicas_and_both_ranks() {
        // Raw actor 5 is replica 1, host 0, rank 1. Host 0 goes
        // everywhere, each rank onto the same rank of host 1.
        assert_eq!(folds(2, 4, 2, &NONE, &[5]), [2, 3, 2, 3, 6, 7, 6, 7]);
    }

    #[test]
    fn bad_requests_are_refused() {
        let retired = [false, true, false, false];
        let (tp1, tp2) = (TpMap::new(1), TpMap::new(2));
        assert_eq!(
            plan_fold(tp1, DpMap::new(1, 4), &retired, &[1]),
            Err(RuntimeError::BadInput("actor 1 already retired".into()))
        );
        assert_eq!(
            plan_fold(tp1, DpMap::new(1, 4), &NONE[..4], &[4]),
            Err(RuntimeError::BadInput("unknown actor 4".into()))
        );
        let none_left = Err(RuntimeError::Rebalance("no surviving actors".into()));
        assert_eq!(
            plan_fold(tp1, DpMap::new(1, 2), &NONE[..2], &[0, 1]),
            none_left
        );
        // One rank of each TP host is every host.
        assert_eq!(
            plan_fold(tp2, DpMap::new(1, 4), &NONE[..4], &[0, 3]),
            none_left
        );
    }
}
