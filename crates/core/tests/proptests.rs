//! Property-based tests for scmp-core's pure components: the TREE
//! packet codec, the IGMP subnet model and the session database.

use proptest::prelude::*;
use scmp_core::igmp::{HostId, MembershipEdge, Subnet};
use scmp_core::session::AccountingLog;
use scmp_core::TreePacket;
use scmp_net::NodeId;
use scmp_sim::GroupId;
use scmp_tree::MulticastTree;

/// Build a random tree over `n` nodes rooted at 0 from a parent-choice
/// vector: node `i` attaches under `choices[i] % i` (a classic uniform
/// random recursive tree).
fn random_tree(choices: &[u32]) -> MulticastTree {
    let n = choices.len() + 1;
    let mut t = MulticastTree::new(n, NodeId(0));
    for (i, &c) in choices.iter().enumerate() {
        let node = (i + 1) as u32;
        let parent = c % node;
        t.attach(NodeId(parent), NodeId(node));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Word-level and byte-level codecs roundtrip any tree shape.
    #[test]
    fn tree_packet_roundtrips(choices in prop::collection::vec(any::<u32>(), 0..100)) {
        let tree = random_tree(&choices);
        let pkt = TreePacket::from_tree(&tree, NodeId(0));
        prop_assert_eq!(pkt.router_count(), choices.len());
        let words = pkt.encode_words();
        prop_assert_eq!(TreePacket::decode_words(&words).unwrap(), pkt.clone());
        let bytes = pkt.encode_bytes();
        prop_assert_eq!(bytes.len(), words.len() * 4);
        prop_assert_eq!(TreePacket::decode_bytes(bytes).unwrap(), pkt);
    }

    /// Splitting a TREE packet preserves the router count and yields one
    /// subpacket per child, matching the tree structure.
    #[test]
    fn tree_packet_split_conserves(choices in prop::collection::vec(any::<u32>(), 1..60)) {
        let tree = random_tree(&choices);
        let pkt = TreePacket::from_tree(&tree, NodeId(0));
        let total = pkt.router_count();
        let parts = pkt.split();
        let children = tree.children(NodeId(0));
        prop_assert_eq!(parts.len(), children.len());
        let sum: usize = parts.iter().map(|(_, sub)| 1 + sub.router_count()).sum();
        prop_assert_eq!(sum, total);
        for ((child, sub), &expect) in parts.iter().zip(children) {
            prop_assert_eq!(*child, expect);
            prop_assert_eq!(sub.clone(), TreePacket::from_tree(&tree, expect));
        }
    }

    /// Truncating an encoded packet anywhere always fails cleanly (no
    /// panic, no bogus success).
    #[test]
    fn truncated_packets_rejected(choices in prop::collection::vec(any::<u32>(), 1..40)) {
        let tree = random_tree(&choices);
        let words = TreePacket::from_tree(&tree, NodeId(0)).encode_words();
        for cut in 0..words.len() {
            prop_assert!(TreePacket::decode_words(&words[..cut]).is_err());
        }
    }

    /// IGMP subnet: the routing-visible edges fire exactly on 0->1 and
    /// 1->0 transitions of the member count, for any event sequence.
    #[test]
    fn igmp_edges_match_counts(events in prop::collection::vec((0u32..6, any::<bool>()), 0..60)) {
        let mut subnet = Subnet::new();
        let mut model: std::collections::BTreeSet<u32> = Default::default();
        let g = GroupId(1);
        for (host, join) in events {
            let edge = if join {
                subnet.host_join(HostId(host), g)
            } else {
                subnet.host_leave(HostId(host), g)
            };
            let before = model.len();
            if join {
                model.insert(host);
            } else {
                model.remove(&host);
            }
            let expected = match (before, model.len()) {
                (0, 1) => MembershipEdge::FirstJoined(g),
                (1, 0) => MembershipEdge::LastLeft(g),
                _ => MembershipEdge::NoChange,
            };
            prop_assert_eq!(edge, expected);
            prop_assert_eq!(subnet.member_count(g), model.len());
            prop_assert_eq!(subnet.has_members(g), !model.is_empty());
        }
    }

    /// Session-log replay equals a straightforward set interpretation.
    #[test]
    fn session_log_replay(events in prop::collection::vec((0u32..8, any::<bool>()), 0..60)) {
        let mut log = AccountingLog::default();
        let g = GroupId(3);
        let mut members = Vec::new();
        let mut model: Vec<NodeId> = Vec::new();
        for (t, (node, join)) in events.iter().enumerate() {
            let node = NodeId(*node);
            log.record(t as u64, g, node, *join, &mut members);
            if *join {
                if !model.contains(&node) {
                    model.push(node);
                }
            } else {
                model.retain(|&m| m != node);
            }
        }
        prop_assert_eq!(members, model);
        prop_assert_eq!(log.records().len(), events.len());
    }
}
