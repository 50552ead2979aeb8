//! The communicator membership index against the linear scans it replaced:
//! over random nested splits (negative colours, duplicate keys, splits of
//! sub-communicators) every question an engine asks — a world rank's
//! communicator rank, whether it is a member, which nodes host members, how
//! many and which members a node hosts, both at once for the caller of a
//! collective — has the answer a search of the plain member list gives.
//! Run-shaped splits (blocks of consecutive ranks, one run, one member, the
//! whole parent) are mixed in, so that groups answered by arithmetic rather
//! than by search meet the same model, on 1 to 4 ranks per node.

use mpi_api::comm::{CommId, CommRegistry};
use mpi_api::runtime::JobLayout;
use proplite::prelude::*;
use qsnet::NodeId;

const MAX_RANKS: usize = 24;

/// One `comm_split`: which existing communicator (modulo how many exist)
/// and every world rank's `(colour, key)`; non-members' entries are unused.
type Split = (usize, Vec<(i64, i64)>);

fn splits() -> impl Strategy<Value = Vec<Split>> {
    let random = prop::collection::vec((-1..3i64, -2..3i64), MAX_RANKS..MAX_RANKS + 1);
    let runs = (0..5usize, 1..9usize, 0..8usize).prop_map(|(shape, k, lo)| run_args(shape, k, lo));
    prop::collection::vec((0..8usize, prop_oneof![random, runs]), 0..6)
}

/// `comm_split` arguments whose groups are runs of world ranks when the
/// parent is one: blocks of `k` consecutive ranks (colour `r / k`) with
/// ascending keys and with descending keys, the one run `lo..lo + k`, the
/// one member `lo`, and the whole parent again.
fn run_args(shape: usize, k: usize, lo: usize) -> Vec<(i64, i64)> {
    (0..MAX_RANKS)
        .map(|r| match shape {
            0 => ((r / k) as i64, 0),
            1 => ((r / k) as i64, -(r as i64)),
            2 => (if (lo..lo + k).contains(&r) { 0 } else { -1 }, 0),
            3 => (if r == lo { 0 } else { -1 }, 0),
            _ => (0, 0),
        })
        .collect()
}

/// `MPI_Comm_split` on plain lists: one new list per non-negative colour in
/// ascending colour order, members ordered by (key, world rank).
fn model_split(parent: &[usize], args: &[(i64, i64)]) -> Vec<Vec<usize>> {
    let mut colours: Vec<i64> = parent.iter().map(|&r| args[r].0).filter(|&c| c >= 0).collect();
    colours.sort_unstable();
    colours.dedup();
    colours
        .into_iter()
        .map(|c| {
            let mut members: Vec<usize> =
                parent.iter().copied().filter(|&r| args[r].0 == c).collect();
            members.sort_by_key(|&r| (args[r].1, r));
            members
        })
        .collect()
}

proplite! {
    #![config(cases = 128)]

    #[test]
    fn index_agrees_with_linear_scans(
        ranks in 1..MAX_RANKS + 1,
        cpus in 1..5usize,
        splits in splits(),
    ) {
        let layout = JobLayout::new(ranks.div_ceil(cpus) + 1, cpus, ranks);
        let mut reg = CommRegistry::new(&layout);
        let mut model: Vec<Vec<usize>> = vec![(0..ranks).collect()];

        for (sel, args) in &splits {
            let parent = sel % model.len();
            let members = model[parent].clone();
            // Members arrive in reverse communicator-rank order: the
            // outcome must not depend on arrival order.
            let mut outcome = None;
            for &r in members.iter().rev() {
                prop_assert!(outcome.is_none(), "round closed before the last arrival");
                outcome = reg.arrive_split(CommId(parent as u32), r, args[r].0, args[r].1);
            }
            let outcome = outcome.expect("last arrival closes the round");
            let first_new = model.len();
            model.extend(model_split(&members, args));
            for (r, handle) in &outcome.assignments {
                match handle {
                    None => prop_assert!(args[*r].0 < 0, "rank {} got no communicator", r),
                    Some(h) => {
                        prop_assert!(h.id.0 as usize >= first_new);
                        prop_assert_eq!(&h.members[..], &model[h.id.0 as usize][..]);
                        prop_assert_eq!(h.world_rank(h.rank), *r);
                    }
                }
            }
        }

        for (id, members) in model.iter().enumerate() {
            let id = CommId(id as u32);
            let group = reg.group(id);
            prop_assert_eq!(reg.members(id), &members[..]);
            prop_assert_eq!(reg.size_of(id), members.len());
            for r in 0..ranks {
                let scan = members.iter().position(|&m| m == r);
                prop_assert_eq!(reg.is_member(id, r), scan.is_some());
                if let Some(comm_rank) = scan {
                    prop_assert_eq!(reg.comm_rank(id, r), comm_rank);
                    let on_node =
                        layout.ranks_on(layout.node_of(r)).filter(|r| members.contains(r)).count();
                    prop_assert_eq!(group.locate(r), (comm_rank, on_node));
                }
            }
            let mut nodes: Vec<NodeId> = members.iter().map(|&r| layout.node_of(r)).collect();
            nodes.sort_unstable();
            nodes.dedup();
            prop_assert_eq!(&group.nodes()[..], &nodes[..]);
            for n in (0..layout.compute_nodes).map(NodeId) {
                let here: Vec<usize> =
                    layout.ranks_on(n).filter(|r| members.contains(r)).collect();
                prop_assert_eq!(group.ranks_on(n), &here[..]);
            }
            for &master in &nodes {
                let mut order = nodes.clone();
                order.retain(|&n| n != master);
                order.insert(0, master);
                prop_assert_eq!(group.nodes_from(master), order);
            }
        }
    }
}
