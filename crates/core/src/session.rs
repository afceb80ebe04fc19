//! Multicast sessions and their accounting log (§II-C).
//!
//! "The m-router is responsible for managing the multicast groups: it
//! should be able to issue a multicast address for a new multicast
//! group, revoke a multicast address from an abandoned multicast group,
//! and publish the multicast addresses for existing multicast groups."
//! It also "keeps track of all the membership on-off information for
//! multicast scheduling/routing and for accounting/billing purposes" in
//! a database.
//!
//! A session is open while the m-router holds a record for its group
//! (see [`crate::router::MRouterState`]); this module holds the log
//! every JOIN and LEAVE is written to and the rule by which a group's
//! member list follows it.

use scmp_net::NodeId;
use scmp_sim::GroupId;

/// One membership on/off record in the accounting database.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccountingRecord {
    /// Simulation time of the event.
    pub time: u64,
    /// The group concerned.
    pub group: GroupId,
    /// The DR whose subnet changed.
    pub node: NodeId,
    /// `true` = joined, `false` = left.
    pub joined: bool,
}

/// The accounting log: every membership change, oldest first.
#[derive(Clone, Debug, Default)]
pub struct AccountingLog(Vec<AccountingRecord>);

impl AccountingLog {
    /// Append a record and apply it to `members`, its group's members in
    /// first-join order: a join adds the node unless present, a leave
    /// removes it. Applying a group's records in log order yields its
    /// members.
    pub fn record(
        &mut self,
        time: u64,
        group: GroupId,
        node: NodeId,
        joined: bool,
        members: &mut Vec<NodeId>,
    ) {
        self.0.push(AccountingRecord {
            time,
            group,
            node,
            joined,
        });
        if !joined {
            members.retain(|&n| n != node);
        } else if !members.contains(&node) {
            members.push(node);
        }
    }

    /// Every record, oldest first.
    pub fn records(&self) -> &[AccountingRecord] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Record `(time, group, node, joined)` changes, returning the log
    /// and the members of group 1.
    fn replayed(changes: &[(u64, u32, u32, bool)]) -> (AccountingLog, Vec<NodeId>) {
        let mut log = AccountingLog::default();
        let mut members = BTreeMap::<GroupId, Vec<NodeId>>::new();
        for &(time, g, node, joined) in changes {
            let kept = members.entry(GroupId(g)).or_default();
            log.record(time, GroupId(g), NodeId(node), joined, kept);
        }
        (log, members.remove(&GroupId(1)).unwrap_or_default())
    }

    #[test]
    fn log_replay_reconstructs_membership() {
        let (log, members) = replayed(&[
            (10, 1, 3, true),
            (20, 1, 5, true),
            (30, 1, 3, false),
            (40, 1, 7, true),
            (50, 2, 9, true), // other group, ignored
        ]);
        assert_eq!(members, vec![NodeId(5), NodeId(7)]);
        assert_eq!(log.records().len(), 5);
    }

    /// The definition the maintained lists are checked against: a node
    /// is a member when its last record is a join, and members rank by
    /// the first join since their last leave.
    fn replay(log: &AccountingLog, group: GroupId) -> Vec<NodeId> {
        let mut since = BTreeMap::<NodeId, Option<usize>>::new();
        let records = log.records().iter().enumerate();
        for (i, r) in records.filter(|(_, r)| r.group == group) {
            let start = since.entry(r.node).or_default();
            match (r.joined, *start) {
                (true, None) => *start = Some(i),
                (false, _) => *start = None,
                (true, Some(_)) => {}
            }
        }
        let mut ranked: Vec<(usize, NodeId)> = since
            .into_iter()
            .filter_map(|(node, start)| Some((start?, node)))
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, node)| node).collect()
    }

    /// Lists kept up to date record by record, as the m-router and its
    /// standby keep them (a group leaves the standby's view with its
    /// last member), equal the replay of the whole log at every point.
    #[test]
    fn maintained_members_equal_log_replay() {
        use rand::Rng;
        for seed in 0..32 {
            let mut rng = scmp_net::rng::rng_for("session-db", seed);
            let mut log = AccountingLog::default();
            let mut view = BTreeMap::<GroupId, Vec<NodeId>>::new();
            for step in 0..400u64 {
                // Few nodes and groups, joins twice as likely as leaves:
                // duplicate joins, leaves of non-members and re-joins
                // after a leave all occur.
                let g = GroupId(rng.gen_range(1..4));
                let node = NodeId(rng.gen_range(0..6));
                let kept = view.entry(g).or_default();
                log.record(step, g, node, rng.gen_range(0..3) > 0, kept);
                if kept.is_empty() {
                    view.remove(&g);
                }
                if step % 16 == 0 {
                    for g in (1..5).map(GroupId) {
                        let kept = view.get(&g).cloned().unwrap_or_default();
                        assert_eq!(kept, replay(&log, g), "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_joins_in_log_collapse() {
        let (_, members) = replayed(&[(1, 1, 3, true), (2, 1, 3, true)]);
        assert_eq!(members, vec![NodeId(3)]);
    }
}
