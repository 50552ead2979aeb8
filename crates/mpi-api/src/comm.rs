//! Communicators (MPI groups).
//!
//! §4.5 of the paper lists "MPI groups are not fully implemented yet" as the
//! prototype's main functional limitation — it is why the evaluation could
//! run only five of the eight NPB programs. This module implements the
//! missing piece for both engines: `MPI_Comm_split` and communicator-scoped
//! collectives, which is enough to run FT-style transpose codes.
//!
//! A communicator is identified by a [`CommId`]; the world communicator is
//! `CommId::WORLD`. Membership is computed engine-side when a split
//! completes (every member of the parent must call it — it is a collective)
//! and cached on both sides.
//!
//! Everything an engine asks about membership — a world rank's communicator
//! rank, whether it is a member, which nodes host members and how many —
//! is answered from one [`Group`] built when the communicator is created
//! (DESIGN §9): the member list sorted by world rank. Ranks are
//! block-distributed over nodes, so that one order is also grouped by node.
//! When the sorted list is one ascending run of world ranks — the world,
//! FT's row communicators, any block split — every answer is a subtraction;
//! other groups (FT's strided columns) binary-search the list.

use crate::runtime::JobLayout;
use qsnet::{NodeId, NodeSet};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Identifier of a communicator. Dense, engine-assigned; 0 is the world.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CommId(pub u32);

impl CommId {
    pub const WORLD: CommId = CommId(0);
}

/// Client-side view of a communicator (what `comm_split` returns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommHandle {
    pub id: CommId,
    /// This process's rank within the communicator.
    pub rank: usize,
    /// World ranks of the members, in communicator-rank order. One list per
    /// communicator, shared by the registry and every member's handle.
    pub members: Arc<[usize]>,
}

impl CommHandle {
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Translate a communicator rank to a world rank.
    pub fn world_rank(&self, comm_rank: usize) -> usize {
        self.members[comm_rank]
    }
}

/// Membership of one communicator, indexed at creation.
pub struct Group {
    id: CommId,
    /// World ranks in communicator-rank order.
    members: Arc<[usize]>,
    /// The same world ranks, ascending. A split with equal keys (and the
    /// world) orders its members that way already, and then this *is*
    /// `members`, shared.
    sorted: Arc<[usize]>,
    /// Communicator rank of `sorted[i]`; `None` when it is `i` (`sorted` is
    /// `members`).
    rank_of_sorted: Option<Box<[u32]>>,
    /// Distinct nodes hosting members, ascending; for the world, one run
    /// of node ids from 0.
    nodes: NodeSet,
    /// `lo` when `sorted` is the run `lo..lo + sorted.len()`: positions in
    /// it are then subtractions, as in `NodeSet::positions`.
    run_from: Option<usize>,
    /// Ranks are block-distributed (`node = rank / cpus_per_node`), so a
    /// node's members are adjacent in `sorted`.
    cpus_per_node: usize,
    /// Binary searches of `sorted` made, for complexity tests.
    #[cfg(test)]
    searches: std::cell::Cell<u64>,
}

impl Group {
    fn new(id: CommId, members: Arc<[usize]>, layout: &JobLayout) -> Group {
        let (sorted, rank_of_sorted) = if members.is_sorted() {
            (Arc::clone(&members), None)
        } else {
            let mut by_world: Vec<(usize, u32)> = members
                .iter()
                .enumerate()
                .map(|(comm_rank, &world)| (world, comm_rank as u32))
                .collect();
            by_world.sort_unstable();
            (
                by_world.iter().map(|&(world, _)| world).collect(),
                Some(by_world.iter().map(|&(_, rank)| rank).collect()),
            )
        };
        let mut nodes = Vec::with_capacity(sorted.len().min(layout.nodes_used()));
        let mut block_end = 0; // first world rank past the current node's block
        for &world in sorted.iter() {
            if world >= block_end {
                let node = layout.node_of(world);
                block_end = (node.0 + 1) * layout.cpus_per_node;
                nodes.push(node);
            }
        }
        let run_from = sorted
            .first()
            .copied()
            .filter(|&lo| sorted.iter().enumerate().all(|(i, &r)| r == lo + i));
        Group {
            id,
            members,
            sorted,
            rank_of_sorted,
            nodes: NodeSet::new(nodes.into()),
            run_from,
            cpus_per_node: layout.cpus_per_node,
            #[cfg(test)]
            searches: Default::default(),
        }
    }

    /// World ranks in communicator-rank order.
    pub fn members(&self) -> &Arc<[usize]> {
        &self.members
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Communicator rank of the member at `sorted[i]`.
    fn rank_at(&self, i: usize) -> usize {
        match &self.rank_of_sorted {
            Some(rank_of) => rank_of[i] as usize,
            None => i,
        }
    }

    #[inline]
    fn searched(&self) {
        #[cfg(test)]
        self.searches.set(self.searches.get() + 1);
    }

    /// Where `world_rank` sits in `sorted`, if it is a member.
    fn position(&self, world_rank: usize) -> Option<usize> {
        match self.run_from {
            Some(lo) => world_rank.checked_sub(lo).filter(|&i| i < self.sorted.len()),
            None => {
                self.searched();
                self.sorted.binary_search(&world_rank).ok()
            }
        }
    }

    /// The positions in `sorted` of the members among world ranks `ranks`.
    fn span_of(&self, ranks: Range<usize>) -> Range<usize> {
        match self.run_from {
            Some(lo) => {
                let clamp = |r: usize| r.saturating_sub(lo).min(self.sorted.len());
                clamp(ranks.start)..clamp(ranks.end)
            }
            None => {
                self.searched();
                let pos = |r: usize| self.sorted.partition_point(|&m| m < r);
                pos(ranks.start)..pos(ranks.end)
            }
        }
    }

    pub fn is_member(&self, world_rank: usize) -> bool {
        self.position(world_rank).is_some()
    }

    /// Where a member sits in `sorted`.
    // PANIC-OK: asking for the rank of a non-member is a caller bug (the API
    // layer only passes communicators the calling rank holds a handle to);
    // the message names everything needed to find it.
    fn member_at(&self, world_rank: usize) -> usize {
        self.position(world_rank).unwrap_or_else(|| {
            panic!(
                "world rank {world_rank} is not a member of {:?} ({} members)",
                self.id,
                self.size()
            )
        })
    }

    /// Communicator-local rank of a world rank.
    pub fn comm_rank(&self, world_rank: usize) -> usize {
        self.rank_at(self.member_at(world_rank))
    }

    /// What posting a collective needs to know about its caller: the
    /// member's communicator rank and how many members its node hosts. For
    /// a run both are subtractions; otherwise one search finds the caller,
    /// and as a node's members are adjacent in `sorted` and at most
    /// `cpus_per_node`, the count is read off the caller's neighbours.
    pub fn locate(&self, world_rank: usize) -> (usize, usize) {
        let at = self.member_at(world_rank);
        let cpus = self.cpus_per_node;
        let block = world_rank / cpus * cpus;
        let on_node = if self.run_from.is_some() {
            self.span_of(block..block + cpus).len()
        } else {
            let near = &self.sorted[at.saturating_sub(cpus - 1)..self.sorted.len().min(at + cpus)];
            near.partition_point(|&r| r < block + cpus) - near.partition_point(|&r| r < block)
        };
        (self.rank_at(at), on_node)
    }

    /// Distinct compute nodes hosting members, in node order.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// Member world ranks hosted on `node`, ascending (empty if none).
    pub fn ranks_on(&self, node: NodeId) -> &[usize] {
        let block = node.0 * self.cpus_per_node;
        &self.sorted[self.span_of(block..block + self.cpus_per_node)]
    }

    /// The member nodes with `master` rotated to the front — position 0 of
    /// every collective schedule; the rest stays in ascending node order.
    pub fn nodes_from(&self, master: NodeId) -> Vec<NodeId> {
        debug_assert!(self.nodes.contains(&master), "master node is not a member node");
        let mut order = Vec::with_capacity(self.nodes.len());
        order.push(master);
        order.extend(self.nodes.iter().filter(|&&n| n != master));
        order
    }
}

/// How many collectives of each kind every member has entered, per
/// communicator: the id of the round a call joins (MPI's same-order rule
/// makes the members of a communicator agree on it). Both engines key their
/// open rounds by it. Dense, `[comm][comm_rank]`, like the registry's
/// groups, and grown by the first call that reaches past the end.
#[derive(Clone, Default)]
pub struct RoundCounters(Vec<Vec<[u64; 3]>>);

impl RoundCounters {
    /// The round of kind `slot` that member `comm_rank` of `comm` enters
    /// now; its next call of that kind enters the one after.
    pub fn enter(&mut self, comm: CommId, comm_rank: usize, slot: usize) -> u64 {
        let c = comm.0 as usize;
        if self.0.len() <= c {
            self.0.resize_with(c + 1, Vec::new);
        }
        let row = &mut self.0[c];
        if row.len() <= comm_rank {
            row.resize(comm_rank + 1, [0; 3]);
        }
        let id = row[comm_rank][slot];
        row[comm_rank][slot] += 1;
        id
    }
}

/// Engine-side membership registry, shared by both implementations.
#[derive(Clone)]
pub struct CommRegistry {
    layout: JobLayout,
    groups: Vec<Rc<Group>>, // by CommId; [0] = world
    /// In-progress splits: key = (parent, per-parent split round).
    pending: std::collections::BTreeMap<(CommId, u64), SplitRound>,
    /// Per (rank, parent) split-invocation counters.
    counters: std::collections::HashMap<(usize, CommId), u64>,
}

#[derive(Clone)]
struct SplitRound {
    /// (world rank, color, key); `color < 0` = MPI_UNDEFINED (no comm).
    entries: Vec<(usize, i64, i64)>,
}

/// Outcome of a completed split, per participating world rank.
pub struct SplitOutcome {
    pub assignments: Vec<(usize, Option<CommHandle>)>,
}

impl CommRegistry {
    pub fn new(layout: &JobLayout) -> CommRegistry {
        let world = Group::new(CommId::WORLD, (0..layout.ranks).collect(), layout);
        CommRegistry {
            layout: layout.clone(),
            groups: vec![Rc::new(world)],
            pending: Default::default(),
            counters: Default::default(),
        }
    }

    /// The membership index of a communicator. Communicators never change
    /// or go away, so a caller may keep the `Rc` across events.
    pub fn group(&self, id: CommId) -> &Rc<Group> {
        &self.groups[id.0 as usize]
    }

    /// Members of a communicator, in communicator-rank order.
    pub fn members(&self, id: CommId) -> &[usize] {
        &self.group(id).members
    }

    pub fn size_of(&self, id: CommId) -> usize {
        self.group(id).size()
    }

    /// Communicator-local rank of a world rank.
    pub fn comm_rank(&self, id: CommId, world_rank: usize) -> usize {
        self.group(id).comm_rank(world_rank)
    }

    pub fn is_member(&self, id: CommId, world_rank: usize) -> bool {
        self.group(id).is_member(world_rank)
    }

    /// Record one rank's arrival at a `comm_split`. Returns the completed
    /// round's outcome once the last member arrives.
    pub fn arrive_split(
        &mut self,
        parent: CommId,
        world_rank: usize,
        color: i64,
        key: i64,
    ) -> Option<SplitOutcome> {
        let round_no = {
            let c = self.counters.entry((world_rank, parent)).or_insert(0);
            let r = *c;
            *c += 1;
            r
        };
        let parent_size = self.size_of(parent);
        let round = self
            .pending
            .entry((parent, round_no))
            .or_insert_with(|| SplitRound {
                entries: Vec::with_capacity(parent_size),
            });
        round.entries.push((world_rank, color, key));
        if round.entries.len() < parent_size {
            return None;
        }
        let round = self.pending.remove(&(parent, round_no)).unwrap();
        Some(self.finish_split(round))
    }

    fn finish_split(&mut self, round: SplitRound) -> SplitOutcome {
        // Group by color (negative = undefined), order members by
        // (key, world rank) — MPI_Comm_split semantics.
        let mut colors: std::collections::BTreeMap<i64, Vec<(i64, usize)>> = Default::default();
        for &(rank, color, key) in &round.entries {
            if color >= 0 {
                colors.entry(color).or_default().push((key, rank));
            }
        }
        let mut handle_of: std::collections::HashMap<usize, CommHandle> = Default::default();
        for (_color, mut members) in colors {
            members.sort_unstable();
            let world_ranks: Arc<[usize]> = members.iter().map(|&(_, r)| r).collect();
            let id = CommId(self.groups.len() as u32);
            self.groups
                .push(Rc::new(Group::new(id, Arc::clone(&world_ranks), &self.layout)));
            for (i, &r) in world_ranks.iter().enumerate() {
                handle_of.insert(
                    r,
                    CommHandle {
                        id,
                        rank: i,
                        members: Arc::clone(&world_ranks),
                    },
                );
            }
        }
        SplitOutcome {
            assignments: round
                .entries
                .iter()
                .map(|&(r, _, _)| (r, handle_of.get(&r).cloned()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ranks per node, like the paper's cluster.
    fn registry(ranks: usize) -> CommRegistry {
        CommRegistry::new(&JobLayout::new(ranks.div_ceil(2), 2, ranks))
    }

    #[test]
    fn world_registry() {
        let reg = registry(8);
        assert_eq!(reg.size_of(CommId::WORLD), 8);
        assert_eq!(reg.comm_rank(CommId::WORLD, 5), 5);
        let world = reg.group(CommId::WORLD);
        assert_eq!(**world.nodes(), [0, 1, 2, 3].map(NodeId));
        assert_eq!(world.ranks_on(NodeId(3)), [6, 7]);
        assert_eq!(world.nodes_from(NodeId(2)), [2, 0, 1, 3].map(NodeId));
    }

    #[test]
    fn split_shares_one_member_list_per_communicator() {
        // 4096 ranks kept in one communicator: a per-handle copy of the
        // member list would be 4096^2 words.
        let n = 4096;
        let mut reg = registry(n);
        let mut out = None;
        for r in 0..n {
            out = reg.arrive_split(CommId::WORLD, r, 0, 0);
        }
        let out = out.expect("last arrival closes the round");
        let first = out.assignments[0].1.as_ref().unwrap();
        assert_eq!(first.size(), n);
        for (r, handle) in &out.assignments {
            let handle = handle.as_ref().unwrap();
            assert!(Arc::ptr_eq(&handle.members, &first.members));
            assert_eq!(handle.world_rank(handle.rank), *r);
        }
        assert!(Arc::ptr_eq(reg.group(first.id).members(), &first.members));
    }

    #[test]
    fn split_by_parity_orders_by_key_then_rank() {
        let mut reg = registry(4);
        // Ranks 0..3 split by parity; rank 2 passes a low key to become
        // rank 0 of the even group.
        assert!(reg.arrive_split(CommId::WORLD, 0, 0, 10).is_none());
        assert!(reg.arrive_split(CommId::WORLD, 1, 1, 0).is_none());
        assert!(reg.arrive_split(CommId::WORLD, 2, 0, -5).is_none());
        let out = reg.arrive_split(CommId::WORLD, 3, 1, 0).unwrap();
        let get = |r: usize| {
            out.assignments
                .iter()
                .find(|(rank, _)| *rank == r)
                .unwrap()
                .1
                .clone()
                .unwrap()
        };
        let even = get(0);
        assert_eq!(*even.members, [2, 0]); // key -5 before key 10
        assert_eq!(get(2).rank, 0);
        assert_eq!(get(0).rank, 1);
        let odd = get(1);
        assert_eq!(*odd.members, [1, 3]); // equal keys: world order
        assert_eq!(get(3).rank, 1);
        assert_ne!(even.id, odd.id);
    }

    #[test]
    fn undefined_color_gets_no_comm() {
        let mut reg = registry(2);
        assert!(reg.arrive_split(CommId::WORLD, 0, -1, 0).is_none());
        let out = reg.arrive_split(CommId::WORLD, 1, 3, 0).unwrap();
        assert!(out.assignments.iter().find(|(r, _)| *r == 0).unwrap().1.is_none());
        assert!(out.assignments.iter().find(|(r, _)| *r == 1).unwrap().1.is_some());
    }

    #[test]
    fn nested_split_of_subcommunicator() {
        let mut reg = registry(4);
        for r in 0..3 {
            assert!(reg.arrive_split(CommId::WORLD, r, 0, 0).is_none());
        }
        let out = reg.arrive_split(CommId::WORLD, 3, 1, 0).unwrap();
        let sub = out
            .assignments
            .iter()
            .find(|(r, _)| *r == 0)
            .unwrap()
            .1
            .clone()
            .unwrap();
        assert_eq!(*sub.members, [0, 1, 2]);
        // Split the sub-communicator again.
        assert!(reg.arrive_split(sub.id, 0, 7, 0).is_none());
        assert!(reg.arrive_split(sub.id, 1, 7, 0).is_none());
        let out2 = reg.arrive_split(sub.id, 2, 8, 0).unwrap();
        assert_eq!(out2.assignments.len(), 3);
        let s0 = out2.assignments.iter().find(|(r, _)| *r == 0).unwrap().1.clone().unwrap();
        assert_eq!(*s0.members, [0, 1]);
    }

    #[test]
    fn runs_are_answered_without_searching() {
        // NPB FT's 4 x 4 process grid, two ranks per node: a row
        // communicator (colour `r / 4`) is a run of world ranks, a column
        // (colour `r % 4`) is strided.
        let (n, pc) = (16, 4);
        let mut reg = registry(n);
        let mut split = |colour: fn(usize, usize) -> usize| {
            let mut out = None;
            for r in 0..n {
                out = reg.arrive_split(CommId::WORLD, r, colour(r, pc) as i64, r as i64);
            }
            let mut ids: Vec<CommId> =
                out.unwrap().assignments.iter().map(|(_, h)| h.as_ref().unwrap().id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let rows = split(|r, pc| r / pc);
        let cols = split(|r, pc| r % pc);
        assert_eq!((rows.len(), cols.len()), (4, 4));
        let searches = |id: CommId| {
            let group = reg.group(id);
            let before = group.searches.get();
            for &r in group.members().iter() {
                group.locate(r);
            }
            for node in 0..n / 2 {
                group.ranks_on(NodeId(node));
            }
            group.searches.get() - before
        };
        assert_eq!(searches(CommId::WORLD), 0);
        for row in rows {
            assert_eq!(searches(row), 0, "row {row:?} searched");
        }
        for col in cols {
            assert!(searches(col) > 0, "column {col:?} took the run path");
        }
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn comm_rank_of_non_member_panics() {
        let mut reg = registry(3);
        reg.arrive_split(CommId::WORLD, 0, 0, 0);
        reg.arrive_split(CommId::WORLD, 1, 0, 0);
        let out = reg.arrive_split(CommId::WORLD, 2, 1, 0).unwrap();
        let sub = out.assignments[0].1.clone().unwrap();
        reg.comm_rank(sub.id, 2); // rank 2 is in the other group
    }
}
