//! Host-fold planning for [`crate::Runtime::rebalance`]: which actors
//! retire and where their work goes, as a pure function of the fleet's
//! shape — callable without a fleet.

use crate::error::RuntimeError;

/// Plans the fold of `dead` onto the survivors of a fleet of
/// `retired.len()` actors laid out as `replicas` blocks of `base`
/// actors, each block holding `base / t` hosts of `t` TP ranks.
/// Returns `(assign, newly_retired)`: `assign[a]` is the actor that
/// hosts old actor `a`'s stages from now on (survivors map to
/// themselves), `newly_retired` is ascending.
///
/// Folds happen at *host* granularity: a host is one pipeline position
/// together with all of its TP ranks and DP replicas. Losing any raw
/// actor retires the whole host everywhere — identically in every
/// replica, rank-preservingly within each TP lane group — so collective
/// memberships stay aligned across ranks and replicas after the fold
/// ({h·t+r} → {s·t+r} in every replica block).
pub(crate) fn plan_fold(
    t: usize,
    base: usize,
    replicas: usize,
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
    let hosts = base / t;
    let mut dead_hosts: Vec<usize> = dead.iter().map(|&d| (d % base) / t).collect();
    dead_hosts.sort_unstable();
    dead_hosts.dedup();
    let host_alive = |h: usize| {
        !dead_hosts.contains(&h)
            && (0..replicas).all(|rep| (0..t).all(|r| !retired[rep * base + h * t + r]))
    };
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
        for rep in 0..replicas {
            for r in 0..t {
                assign[rep * base + h * t + r] = rep * base + s * t + r;
                newly_retired.push(rep * base + h * t + r);
            }
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
        let (assign, newly_retired) = plan_fold(t, base, replicas, retired, dead).unwrap();
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
        assert_eq!(
            plan_fold(1, 4, 1, &retired, &[1]),
            Err(RuntimeError::BadInput("actor 1 already retired".into()))
        );
        assert_eq!(
            plan_fold(1, 4, 1, &NONE[..4], &[4]),
            Err(RuntimeError::BadInput("unknown actor 4".into()))
        );
        let none_left = Err(RuntimeError::Rebalance("no surviving actors".into()));
        assert_eq!(plan_fold(1, 2, 1, &NONE[..2], &[0, 1]), none_left);
        // One rank of each TP host is every host.
        assert_eq!(plan_fold(2, 4, 1, &NONE[..4], &[0, 3]), none_left);
    }
}
