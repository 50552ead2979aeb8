//! The round-schedule table against the construction it replaced.
//!
//! `coll_sched::bcast_schedule` builds each round in O(n·k + n log n) with
//! per-block holder counts and forward-only sender cursors;
//! [`reference_schedule`] below is the earlier body, which recounts the
//! holders and rescans the senders for every (receiver, block) pair —
//! O(n²·k) per round. The greedy rule is the same, so the tables must be
//! equal edge for edge; feasibility and coverage are checked on top so a bug
//! shared by both cannot hide behind the equality.

use mpi_api::coll_sched::{Edge, RoundSchedule, bcast_schedule};
use proplite::prelude::*;

/// The construction `bcast_schedule` had before it kept counts and cursors.
fn reference_schedule(nodes: usize, blocks: usize) -> RoundSchedule {
    assert!(blocks >= 1 && blocks <= 64, "block count out of range");
    let full: u64 = if blocks == 64 { u64::MAX } else { (1u64 << blocks) - 1 };
    let mut rounds: Vec<Vec<Edge>> = Vec::new();
    if nodes <= 1 {
        return RoundSchedule { nodes, blocks, rounds };
    }
    let mut have = vec![0u64; nodes];
    have[0] = full;
    let mut injected = 0usize;
    while have.iter().any(|&h| h != full) {
        let mut send_busy = vec![false; nodes];
        let mut recv_busy = vec![false; nodes];
        let mut edges: Vec<Edge> = Vec::new();
        if injected < blocks {
            let b = injected;
            let dst = (1..nodes)
                .filter(|&i| have[i] & (1 << b) == 0)
                .min_by_key(|&i| (have[i].count_ones(), i));
            if let Some(dst) = dst {
                edges.push((0, dst, b));
                send_busy[0] = true;
                recv_busy[dst] = true;
                injected += 1;
            }
        }
        let mut receivers: Vec<usize> = (0..nodes)
            .filter(|&i| !recv_busy[i] && have[i] != full)
            .collect();
        receivers.sort_by_key(|&i| (have[i].count_ones(), i));
        for i in receivers {
            // Rarest block first (fewest holders network-wide), so freshly
            // injected blocks fan out before well-replicated ones.
            let pick = (0..blocks)
                .filter(|&b| have[i] & (1 << b) == 0)
                .filter_map(|b| {
                    let holders = (0..nodes).filter(|&s| have[s] & (1 << b) != 0).count();
                    (0..nodes)
                        .find(|&s| s != i && !send_busy[s] && have[s] & (1 << b) != 0)
                        .map(|s| (holders, b, s))
                })
                .min();
            if let Some((_, b, s)) = pick {
                edges.push((s, i, b));
                send_busy[s] = true;
                recv_busy[i] = true;
            }
        }
        assert!(!edges.is_empty(), "schedule construction stalled");
        for &(_, dst, b) in &edges {
            have[dst] |= 1 << b;
        }
        rounds.push(edges);
    }
    RoundSchedule { nodes, blocks, rounds }
}

/// Every sender holds what it sends, nobody sends or receives twice in a
/// round, nobody is sent a block twice, and every node ends with every
/// block.
fn check_feasible_and_complete(s: &RoundSchedule) -> Result<(), String> {
    let (n, k) = (s.nodes, s.blocks);
    let full: u64 = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let mut have = vec![0u64; n];
    have[0] = full;
    for (t, round) in s.rounds.iter().enumerate() {
        let (mut sends, mut recvs) = (vec![false; n], vec![false; n]);
        for &(src, dst, b) in round {
            if b >= k || src >= n || dst >= n || src == dst {
                return Err(format!("round {t}: edge ({src}, {dst}, {b}) out of range"));
            }
            if have[src] & (1 << b) == 0 {
                return Err(format!("round {t}: {src} sends block {b} it lacks"));
            }
            if have[dst] & (1 << b) != 0 {
                return Err(format!("round {t}: {dst} is sent block {b} it holds"));
            }
            if std::mem::replace(&mut sends[src], true) {
                return Err(format!("round {t}: {src} sends twice"));
            }
            if std::mem::replace(&mut recvs[dst], true) {
                return Err(format!("round {t}: {dst} receives twice"));
            }
        }
        for &(_, dst, b) in round {
            have[dst] |= 1 << b;
        }
    }
    match have.iter().position(|&h| h != full) {
        Some(i) => Err(format!("node {i} ends with blocks {:#b}", have[i])),
        None => Ok(()),
    }
}

const BLOCK_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 13, 64];

/// `(nodes, index into BLOCK_COUNTS)`: up to 300 nodes, mostly few — the
/// odd shapes (one node, two, just past a power of two) are small, and the
/// reference is quadratic in the node count, so the 64-block tables stay
/// on the small side (at 300 nodes one costs the reference seconds).
fn sizes() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        3 => (0..41usize, 0..BLOCK_COUNTS.len()),
        1 => (41..301usize, 0..BLOCK_COUNTS.len() - 1),
    ]
}

proplite! {
    #![config(cases = 64)]

    #[test]
    fn table_equals_the_reference_construction(size in sizes()) {
        let (nodes, blocks) = (size.0, BLOCK_COUNTS[size.1]);
        let table = bcast_schedule(nodes, blocks);
        prop_assert_eq!(check_feasible_and_complete(&table), Ok(()));
        prop_assert!(table == reference_schedule(nodes, blocks), "n={} k={}", nodes, blocks);
    }
}

/// The complexity guard, without a clock: the reference construction needs
/// n²·k ≈ 3·10¹⁰ steps per round here — hours — so this test only finishes
/// while a round stays linear in n.
#[test]
fn paper_scale_communicator_builds_its_table() {
    let (n, k) = (65536, 8);
    let table = bcast_schedule(n, k);
    assert_eq!(table.rounds.iter().map(Vec::len).sum::<usize>(), (n - 1) * k);
    assert!(table.rounds.len() <= k - 1 + 16 + 2, "{} rounds", table.rounds.len());
    check_feasible_and_complete(&table).unwrap();
}
