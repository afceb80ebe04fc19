//! IGMPv2-like subnet model (§II-C).
//!
//! The paper keeps SCMP compatible with IGMP: hosts register dynamic
//! membership with their subnet's designated router (DR); the DR learns
//! group presence via Query/Report and informs the m-router only on
//! *edges* — when the first host of a subnet joins a group, or the last
//! one leaves.
//!
//! This module models one subnet as what the routing side needs from
//! it: the member hosts of each group, and the join and leave edges
//! that change whether the group has any. It is link-traffic-free —
//! subnet chatter (queries, reports, report suppression) stays on the
//! LAN and does not touch the §IV-B overhead metrics, so none of it is
//! modelled.

use scmp_sim::GroupId;
use std::collections::{BTreeMap, BTreeSet};

/// Host identifier within a subnet (think: last octet of its address).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// What the DR must tell the multicast routing protocol after a host
/// event — the edge triggers of §III-B/C.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEdge {
    /// First host of this subnet joined the group: the DR sends JOIN.
    FirstJoined(GroupId),
    /// Last host left: the DR sends LEAVE (and possibly PRUNE).
    LastLeft(GroupId),
    /// Membership set for the group unchanged in kind: no routing action.
    NoChange,
}

/// One subnet: the member hosts of each group.
#[derive(Clone, Debug, Default)]
pub struct Subnet {
    /// group -> member hosts; a group with none has no key.
    members: BTreeMap<GroupId, BTreeSet<HostId>>,
}

impl Subnet {
    /// An empty subnet.
    pub fn new() -> Self {
        Subnet::default()
    }

    /// Host `h` joins `group` (sends an unsolicited report, as IGMPv2
    /// joiners do). Returns the routing-visible edge.
    pub fn host_join(&mut self, h: HostId, group: GroupId) -> MembershipEdge {
        let set = self.members.entry(group).or_default();
        let first = set.is_empty();
        if set.insert(h) && first {
            return MembershipEdge::FirstJoined(group);
        }
        MembershipEdge::NoChange
    }

    /// Host `h` leaves `group` (sends an IGMPv2 Leave; the DR then
    /// queries and, if nobody reports, declares the group gone).
    pub fn host_leave(&mut self, h: HostId, group: GroupId) -> MembershipEdge {
        let Some(set) = self.members.get_mut(&group) else {
            return MembershipEdge::NoChange;
        };
        if !set.remove(&h) {
            return MembershipEdge::NoChange;
        }
        if set.is_empty() {
            self.members.remove(&group);
            MembershipEdge::LastLeft(group)
        } else {
            MembershipEdge::NoChange
        }
    }

    /// Does any host on this subnet belong to `group`?
    pub fn has_members(&self, group: GroupId) -> bool {
        self.members.contains_key(&group)
    }

    /// Groups with at least one member host.
    pub fn active_groups(&self) -> Vec<GroupId> {
        self.members.keys().copied().collect()
    }

    /// Number of member hosts of `group`.
    pub fn member_count(&self, group: GroupId) -> usize {
        self.members.get(&group).map_or(0, |s| s.len())
    }

    /// The member host of `group` with the highest id, if any.
    pub fn newest_member(&self, group: GroupId) -> Option<HostId> {
        self.members.get(&group)?.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: GroupId = GroupId(7);

    #[test]
    fn first_join_and_last_leave_are_edges() {
        let mut s = Subnet::new();
        assert_eq!(s.host_join(HostId(1), G), MembershipEdge::FirstJoined(G));
        assert_eq!(s.host_join(HostId(2), G), MembershipEdge::NoChange);
        assert_eq!(s.host_leave(HostId(1), G), MembershipEdge::NoChange);
        assert_eq!(s.host_leave(HostId(2), G), MembershipEdge::LastLeft(G));
        assert!(!s.has_members(G));
    }

    #[test]
    fn duplicate_join_is_idempotent() {
        let mut s = Subnet::new();
        s.host_join(HostId(1), G);
        assert_eq!(s.host_join(HostId(1), G), MembershipEdge::NoChange);
        assert_eq!(s.member_count(G), 1);
    }

    #[test]
    fn leave_of_non_member_is_noop() {
        let mut s = Subnet::new();
        assert_eq!(s.host_leave(HostId(9), G), MembershipEdge::NoChange);
        s.host_join(HostId(1), G);
        assert_eq!(s.host_leave(HostId(9), G), MembershipEdge::NoChange);
        assert!(s.has_members(G));
    }

    #[test]
    fn newest_member_is_the_highest_id() {
        let mut s = Subnet::new();
        assert_eq!(s.newest_member(G), None);
        s.host_join(HostId(3), G);
        s.host_join(HostId(5), G);
        s.host_join(HostId(4), G);
        assert_eq!(s.newest_member(G), Some(HostId(5)));
        s.host_leave(HostId(5), G);
        assert_eq!(s.newest_member(G), Some(HostId(4)));
    }

    #[test]
    fn multiple_groups_tracked_independently() {
        let mut s = Subnet::new();
        let g2 = GroupId(8);
        s.host_join(HostId(1), G);
        s.host_join(HostId(1), g2);
        assert_eq!(s.active_groups(), vec![G, g2]);
        s.host_leave(HostId(1), G);
        assert_eq!(s.active_groups(), vec![g2]);
    }
}
