//! Multicast group and session management (§II-C).
//!
//! "The m-router is responsible for managing the multicast groups: it
//! should be able to issue a multicast address for a new multicast
//! group, revoke a multicast address from an abandoned multicast group,
//! and publish the multicast addresses for existing multicast groups."
//! It also "keeps track of all the membership on-off information for
//! multicast scheduling/routing and for accounting/billing purposes" in
//! a database.

use scmp_net::NodeId;
use scmp_sim::GroupId;
use std::collections::BTreeMap;

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

/// Lifecycle state of a multicast session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Address issued, tree possibly empty.
    Active,
    /// Torn down; address revoked and reusable.
    Expired,
}

/// The m-router's group/session database.
#[derive(Clone, Debug, Default)]
pub struct SessionDb {
    next_group: u32,
    sessions: BTreeMap<GroupId, SessionState>,
    log: Vec<AccountingRecord>,
    /// Current members per group, in first-join order — what a replay
    /// of `log` would yield, kept up to date by [`SessionDb::record`].
    members: BTreeMap<GroupId, Vec<NodeId>>,
}

impl SessionDb {
    /// Empty database; group addresses are issued from 1 upward
    /// (0 is reserved as "no group").
    pub fn new() -> Self {
        SessionDb {
            next_group: 1,
            sessions: BTreeMap::new(),
            log: Vec::new(),
            members: BTreeMap::new(),
        }
    }

    /// Issue a fresh multicast address and open its session.
    pub fn create_group(&mut self) -> GroupId {
        let g = GroupId(self.next_group);
        self.next_group += 1;
        self.sessions.insert(g, SessionState::Active);
        g
    }

    /// Register an externally assigned group id (used when scenarios fix
    /// the gid). Idempotent.
    pub fn register_group(&mut self, g: GroupId) {
        self.sessions.entry(g).or_insert(SessionState::Active);
    }

    /// Tear down an expired session, revoking the address.
    pub fn expire_group(&mut self, g: GroupId) {
        if let Some(s) = self.sessions.get_mut(&g) {
            *s = SessionState::Expired;
        }
    }

    /// Current state of `g`, if known.
    pub fn state(&self, g: GroupId) -> Option<SessionState> {
        self.sessions.get(&g).copied()
    }

    /// Published list of active groups — the "query proper information
    /// about multicast groups" interface for outsiders.
    pub fn active_groups(&self) -> Vec<GroupId> {
        self.sessions
            .iter()
            .filter(|(_, s)| **s == SessionState::Active)
            .map(|(&g, _)| g)
            .collect()
    }

    /// Append an accounting record (every JOIN/LEAVE that reaches the
    /// m-router lands here — including the ones that do not change the
    /// tree, which the paper sends "for possible accounting and billing
    /// purposes").
    pub fn record(&mut self, time: u64, group: GroupId, node: NodeId, joined: bool) {
        self.log.push(AccountingRecord {
            time,
            group,
            node,
            joined,
        });
        let members = self.members.entry(group).or_default();
        if !joined {
            members.retain(|&n| n != node);
        } else if !members.contains(&node) {
            members.push(node);
        }
    }

    /// The full accounting log.
    pub fn log(&self) -> &[AccountingRecord] {
        &self.log
    }

    /// Members of `group` according to the log, in first-join order: a
    /// join adds the node unless present, a leave removes it. Maintained
    /// by [`SessionDb::record`], so this is a lookup — the repair scan
    /// asks per group per tick, every LEAVE asks once.
    pub fn members_from_log(&self, group: GroupId) -> &[NodeId] {
        self.members.get(&group).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_unique_and_published() {
        let mut db = SessionDb::new();
        let a = db.create_group();
        let b = db.create_group();
        assert_ne!(a, b);
        assert_eq!(db.active_groups(), vec![a, b]);
        db.expire_group(a);
        assert_eq!(db.active_groups(), vec![b]);
        assert_eq!(db.state(a), Some(SessionState::Expired));
    }

    #[test]
    fn register_is_idempotent() {
        let mut db = SessionDb::new();
        db.register_group(GroupId(9));
        db.expire_group(GroupId(9));
        db.register_group(GroupId(9));
        assert_eq!(db.state(GroupId(9)), Some(SessionState::Expired));
    }

    #[test]
    fn log_replay_reconstructs_membership() {
        let mut db = SessionDb::new();
        let g = GroupId(1);
        db.record(10, g, NodeId(3), true);
        db.record(20, g, NodeId(5), true);
        db.record(30, g, NodeId(3), false);
        db.record(40, g, NodeId(7), true);
        db.record(50, GroupId(2), NodeId(9), true); // other group, ignored
        assert_eq!(db.members_from_log(g), vec![NodeId(5), NodeId(7)]);
        assert_eq!(db.log().len(), 5);
    }

    /// The definition `members_from_log` is maintained against: replay
    /// the whole log.
    fn replay(db: &SessionDb, group: GroupId) -> Vec<NodeId> {
        let mut members = Vec::new();
        for r in db.log().iter().filter(|r| r.group == group) {
            if !r.joined {
                members.retain(|&n| n != r.node);
            } else if !members.contains(&r.node) {
                members.push(r.node);
            }
        }
        members
    }

    #[test]
    fn maintained_members_equal_log_replay() {
        use rand::Rng;
        for seed in 0..32 {
            let mut rng = scmp_net::rng::rng_for("session-db", seed);
            let mut db = SessionDb::new();
            for step in 0..400u64 {
                // Few nodes and groups, joins twice as likely as leaves:
                // duplicate joins, leaves of non-members and re-joins
                // after a leave all occur.
                let g = GroupId(rng.gen_range(1..4));
                let node = NodeId(rng.gen_range(0..6));
                db.record(step, g, node, rng.gen_range(0..3) > 0);
                if step % 16 == 0 {
                    for g in (1..4).map(GroupId) {
                        assert_eq!(db.members_from_log(g), replay(&db, g), "seed {seed}");
                    }
                }
            }
            for g in (1..5).map(GroupId) {
                assert_eq!(db.members_from_log(g), replay(&db, g), "seed {seed}");
            }
        }
    }

    #[test]
    fn duplicate_joins_in_log_collapse() {
        let mut db = SessionDb::new();
        let g = GroupId(1);
        db.record(1, g, NodeId(3), true);
        db.record(2, g, NodeId(3), true);
        assert_eq!(db.members_from_log(g), vec![NodeId(3)]);
    }
}
