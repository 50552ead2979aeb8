//! Cluster topology: node identifiers and the quaternary fat tree used by
//! Quadrics Elite switches.
//!
//! The Elite switch is an 8-port crossbar wired as a quaternary fat tree
//! (4 down-links, 4 up-links per stage). Latency between two nodes grows with
//! the number of stages a packet must climb: the nearest common ancestor of
//! `a` and `b` is at level `k`, the smallest `k` with `a / 4^k == b / 4^k`,
//! and the route is `2k` hops (k up, k down).

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// A compute or management node. Dense, 0-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A destination set an operation keeps while it is in flight: shared by
/// refcount, and told once, when built, whether it is one ascending run of
/// node ids `lo, lo + 1, ..`. For such a set the destinations `a..b` are
/// the nodes `lo + a..lo + b`, so a walk over per-node state is a slice of
/// it and finding a node is one subtraction. A job's node set is one (ranks
/// are block-distributed), which is what the strobe, its `Compare-And-Write`
/// and the idle `MP_DONE` stores rely on.
#[derive(Clone, Debug)]
pub struct NodeSet {
    nodes: Rc<[NodeId]>,
    /// `lo` when `nodes` is the run `lo..lo + nodes.len()`.
    run_from: Option<usize>,
}

impl NodeSet {
    pub fn new(nodes: Rc<[NodeId]>) -> NodeSet {
        let run_from = nodes
            .first()
            .map(|n| n.0)
            .filter(|&lo| nodes.iter().enumerate().all(|(i, n)| n.0 == lo + i));
        NodeSet { nodes, run_from }
    }

    /// The node range the set is, when it is one ascending run.
    #[inline]
    pub fn span(&self) -> Option<Range<usize>> {
        self.run_from.map(|lo| lo..lo + self.nodes.len())
    }

    /// Every index at which `node` sits in the set, ascending: a subtraction
    /// for a run, a scan otherwise.
    pub fn positions(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let (hit, scan) = match self.span() {
            Some(run) => (run.contains(&node.0).then(|| node.0 - run.start), None),
            None => (None, Some(self.nodes.iter().enumerate())),
        };
        #[cfg(debug_assertions)]
        if self.run_from.is_some() {
            let listed: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.nodes[i] == node).collect();
            assert_eq!(hit.as_slice(), listed, "the run answers {node:?} unlike its member list");
        }
        let scan = scan.into_iter().flatten().filter(move |&(_, &d)| d == node).map(|(i, _)| i);
        hit.into_iter().chain(scan)
    }
}

impl Deref for NodeSet {
    type Target = [NodeId];
    #[inline]
    fn deref(&self) -> &[NodeId] {
        &self.nodes
    }
}

/// What a multicast or a conditional takes as its destinations: a borrowed
/// list (`&[NodeId]`, `&Vec<NodeId>`), copied into a [`NodeSet`] if the
/// operation keeps it, or a `NodeSet`, shared. Callers
/// that address the same nodes again and again (the strobe loop, a
/// communicator's collectives) keep a `NodeSet`, so nothing is copied or
/// re-examined per operation.
pub trait IntoNodeSet {
    /// The destinations, for an operation that needs only to look.
    fn as_nodes(&self) -> &[NodeId];
    fn into_node_set(self) -> NodeSet;
}

impl IntoNodeSet for NodeSet {
    fn as_nodes(&self) -> &[NodeId] {
        self
    }
    fn into_node_set(self) -> NodeSet {
        self
    }
}

impl<T: AsRef<[NodeId]> + ?Sized> IntoNodeSet for &T {
    fn as_nodes(&self) -> &[NodeId] {
        self.as_ref()
    }
    fn into_node_set(self) -> NodeSet {
        NodeSet::new(self.as_ref().into())
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A quaternary fat tree over `n` nodes (radix fixed at 4, like Elite).
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: usize,
    levels: u32,
}

const RADIX: usize = 4;

impl Topology {
    /// Build a fat tree with at least `nodes` leaves.
    pub fn fat_tree(nodes: usize) -> Topology {
        assert!(nodes > 0, "topology needs at least one node");
        let mut levels = 0u32;
        let mut cap = 1usize;
        while cap < nodes {
            cap *= RADIX;
            levels += 1;
        }
        Topology { nodes, levels }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of switch levels (tree height).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Level of the nearest common ancestor of `a` and `b` (0 when `a == b`).
    pub fn nca_level(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a.0 < self.nodes && b.0 < self.nodes, "node out of range");
        let (mut x, mut y) = (a.0, b.0);
        let mut level = 0;
        while x != y {
            x /= RADIX;
            y /= RADIX;
            level += 1;
        }
        level
    }

    /// Switch hops on the route between two distinct nodes (`2 * nca_level`).
    /// Zero for a node talking to itself.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        2 * self.nca_level(a, b)
    }

    /// Maximum hops between any two nodes.
    pub fn diameter(&self) -> u32 {
        2 * self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_tree() {
        let t = Topology::fat_tree(1);
        assert_eq!(t.levels(), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.diameter(), 0);
    }

    #[test]
    fn levels_grow_with_node_count() {
        assert_eq!(Topology::fat_tree(4).levels(), 1);
        assert_eq!(Topology::fat_tree(5).levels(), 2);
        assert_eq!(Topology::fat_tree(16).levels(), 2);
        assert_eq!(Topology::fat_tree(32).levels(), 3);
        assert_eq!(Topology::fat_tree(64).levels(), 3);
        assert_eq!(Topology::fat_tree(1024).levels(), 5);
    }

    #[test]
    fn hop_counts_in_32_node_tree() {
        let t = Topology::fat_tree(32);
        // Same quad: one level up, one down.
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 2);
        // Adjacent quads share a level-2 switch.
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 4);
        assert_eq!(t.hops(NodeId(0), NodeId(15)), 4);
        // Opposite halves go through the root.
        assert_eq!(t.hops(NodeId(0), NodeId(31)), 6);
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn hops_symmetric() {
        let t = Topology::fat_tree(64);
        for a in 0..64 {
            for b in 0..64 {
                assert_eq!(t.hops(NodeId(a), NodeId(b)), t.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        let t = Topology::fat_tree(8);
        t.hops(NodeId(0), NodeId(8));
    }
}
