//! The multicast routing entry — the paper's *(gid, upstream,
//! downstream)* triple.

use scmp_net::NodeId;
use std::collections::BTreeSet;

/// One multicast routing entry: the paper's *(gid, upstream, downstream)*
/// triple; `downstream` splits into child routers and the local subnet
/// interface.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingEntry {
    /// Parent router on the tree (`None` at the m-router).
    pub upstream: Option<NodeId>,
    /// Child routers on the tree.
    pub downstream_routers: BTreeSet<NodeId>,
    /// True when the local subnet has at least one member host.
    pub local_interface: bool,
    /// Tree generation this entry was last written at. TREE/BRANCH/FLUSH
    /// packets carrying an older generation are ignored, so a stale
    /// BRANCH overtaken by a restructure's TREE refresh cannot corrupt
    /// the installed state.
    pub gen: u64,
}

impl RoutingEntry {
    /// The forwarding set `F` of §III-F: upstream ∪ downstream routers,
    /// borrowed in place. The order is part of the model — downstream
    /// routers by ascending id, then the upstream — because each send
    /// takes the next event sequence number, so every digest depends on
    /// it.
    pub fn forwarding_set(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.downstream_routers.iter().copied().chain(self.upstream)
    }

    /// `v ∈ F`: the §III-F drop test for a packet arriving from `v`.
    pub fn forwards_with(&self, v: NodeId) -> bool {
        self.upstream == Some(v) || self.downstream_routers.contains(&v)
    }

    /// A leaf entry with no local members can be discarded.
    pub fn is_prunable(&self) -> bool {
        self.downstream_routers.is_empty() && !self.local_interface
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(upstream: Option<u32>, down: &[u32]) -> RoutingEntry {
        RoutingEntry {
            upstream: upstream.map(NodeId),
            downstream_routers: down.iter().copied().map(NodeId).collect(),
            ..RoutingEntry::default()
        }
    }

    #[test]
    fn forwarding_set_yields_downstream_ascending_then_upstream() {
        // Upstream id below every child: it still comes last.
        let e = entry(Some(1), &[9, 4, 7]);
        let f: Vec<u32> = e.forwarding_set().map(|v| v.0).collect();
        assert_eq!(f, [4, 7, 9, 1]);
        // The m-router has no upstream; a lone leaf only has one.
        let root: Vec<u32> = entry(None, &[3, 2]).forwarding_set().map(|v| v.0).collect();
        assert_eq!(root, [2, 3]);
        let leaf: Vec<u32> = entry(Some(5), &[]).forwarding_set().map(|v| v.0).collect();
        assert_eq!(leaf, [5]);
    }

    #[test]
    fn forwards_with_is_membership_in_the_forwarding_set() {
        for e in [
            entry(Some(1), &[9, 4, 7]),
            entry(None, &[3, 2]),
            entry(Some(5), &[]),
            entry(None, &[]),
        ] {
            for v in (0..12).map(NodeId) {
                assert_eq!(
                    e.forwards_with(v),
                    e.forwarding_set().any(|f| f == v),
                    "{e:?} / {v:?}"
                );
            }
        }
    }
}
