//! The collective wire layer both engines run on: algorithm selection,
//! round-schedule construction and caching, the broadcast executors
//! ([`binomial_bcast`], [`sched_bcast`]) and the analytic tree time
//! ([`tree_time`]).
//!
//! Three algorithms cover every collective (barrier / bcast / reduce /
//! allreduce):
//!
//! * [`CollAlgo::HwMulticast`] — the fabric's native multicast primitive
//!   (hardware on QsNet, the sequencer-emulated software tree on the
//!   RDMA-channel fabric) plus an analytic binomial gather for reductions.
//!   This is the paper's §4.4 path and the default.
//! * [`CollAlgo::Binomial`] — a binomial tree scheduled from point-to-point
//!   DMAs: each node forwards the payload to its subtree children the moment
//!   it arrives, so subtrees overlap and the critical path is
//!   ⌈log2 n⌉ sequential hops. Reductions run the mirrored tree bottom-up.
//! * [`CollAlgo::OptimalSchedule`] — round-synchronized pipelined block
//!   schedules in the spirit of Träff's optimal broadcast: the payload is
//!   split into `k` blocks and a precomputed per-round peer table moves
//!   blocks under the one-port (send one + receive one per round) model.
//!   For `k = 1` the table degenerates to the binomial doubling rounds
//!   (⌈log2 n⌉ rounds exactly); for `k > 1` the root injects a fresh block
//!   every round while already-delivered blocks fan out, approaching the
//!   `k - 1 + ⌈log2 n⌉` lower bound. Reductions replay the table in reverse
//!   with every edge flipped.
//!
//! Schedules are pure functions of `(node count, block count)` — each
//! engine keeps one [`SchedCache`] keyed by exactly that, and a restored
//! checkpoint rebuilds its tables verbatim. A table is built in
//! O(nodes · blocks + nodes log nodes) per round ([`bcast_schedule`]), so a
//! communicator of 65536 nodes gets one in tens of milliseconds; engines
//! share it behind an `Rc` and walk a round's edges in place.

use qsnet::NetModel;
use qsnet::model::log2_ceil;
use simcore::SimDuration;
use std::collections::BTreeMap;
use std::rc::Rc;

mod exec;
pub use exec::{DoneHook, EdgePut, NodeHook, binomial_bcast, sched_bcast};

/// Which wire schedule the engine uses for collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollAlgo {
    /// Fabric-native multicast + analytic binomial gather (the default).
    HwMulticast,
    /// Binomial tree of point-to-point DMAs, forwarded on delivery.
    Binomial,
    /// Pipelined ⌈log2 n⌉-round block schedule with precomputed peer tables.
    OptimalSchedule,
}

impl CollAlgo {
    /// Every algorithm, in bake-off column order.
    pub const ALL: [CollAlgo; 3] = [
        CollAlgo::HwMulticast,
        CollAlgo::Binomial,
        CollAlgo::OptimalSchedule,
    ];

    /// Stable CLI / CSV label.
    pub fn label(self) -> &'static str {
        match self {
            CollAlgo::HwMulticast => "hw-multicast",
            CollAlgo::Binomial => "binomial",
            CollAlgo::OptimalSchedule => "optimal",
        }
    }

    /// Parse a [`CollAlgo::label`] back into the algorithm.
    pub fn from_label(s: &str) -> Option<CollAlgo> {
        CollAlgo::ALL.iter().copied().find(|a| a.label() == s)
    }
}

impl Default for CollAlgo {
    fn default() -> CollAlgo {
        CollAlgo::HwMulticast
    }
}

// ----------------------------------------------------------------------
// Binomial tree shape
// ----------------------------------------------------------------------

/// Children of position `idx` in a binomial tree over `n` positions rooted
/// at 0: `idx + 2^r` for every `2^r > idx` still inside the tree, in
/// ascending order (smallest subtree first).
pub fn binomial_children(idx: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut step = 1usize;
    loop {
        if step > idx {
            let child = idx + step;
            if child >= n {
                break;
            }
            out.push(child);
        }
        step <<= 1;
    }
    out
}

/// Parent of position `idx > 0`: clear the highest set bit.
pub fn binomial_parent(idx: usize) -> usize {
    debug_assert!(idx > 0, "the root has no parent");
    idx & !(1usize << (usize::BITS - 1 - idx.leading_zeros()))
}

/// Sequential hops from the root to the deepest of `n` positions.
pub fn binomial_depth(n: usize) -> usize {
    if n <= 1 { 0 } else { log2_ceil(n) as usize }
}

/// The analytic time of a tree leg: `stages` stages in sequence, each a
/// unicast of `wire` bytes up and down the fat tree (`2 · levels` switch
/// hops) plus `extra` (a combine) plus `per_stage` (what the engine spends
/// per message).
pub fn tree_time(
    net: &NetModel,
    levels: u32,
    wire: u64,
    extra: SimDuration,
    per_stage: SimDuration,
    stages: usize,
) -> SimDuration {
    (net.unicast_latency(2 * levels) + net.tx_time(wire) + extra + per_stage) * stages as u64
}

// ----------------------------------------------------------------------
// Pipelined round schedules
// ----------------------------------------------------------------------

/// One scheduled transfer: `(sender, receiver, block)`, all as indices into
/// the communicator's sorted node list (position 0 = root).
pub type Edge = (usize, usize, usize);

/// A per-round peer table: `rounds[t]` lists the transfers of round `t`.
/// Within a round no node sends more than one block or receives more than
/// one block (one-port, full-duplex).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundSchedule {
    pub nodes: usize,
    pub blocks: usize,
    pub rounds: Vec<Vec<Edge>>,
}

/// Payloads at or below this size travel as a single block.
pub const BLOCK_BYTES: u64 = 8192;
/// Pipelining depth cap: more blocks than this stops paying for itself.
pub const MAX_BLOCKS: usize = 8;

/// How many pipeline blocks a payload of `bytes` is split into.
pub fn block_count(bytes: u64) -> usize {
    if bytes <= BLOCK_BYTES {
        1
    } else {
        (bytes.div_ceil(BLOCK_BYTES) as usize).clamp(2, MAX_BLOCKS)
    }
}

/// Size of block `b` when `bytes` is split into `blocks` near-equal parts
/// (the first `bytes % blocks` parts carry the remainder).
pub fn block_len(bytes: u64, blocks: usize, b: usize) -> u64 {
    debug_assert!(b < blocks);
    let base = bytes / blocks as u64;
    let rem = bytes % blocks as u64;
    base + u64::from((b as u64) < rem)
}

/// Build the pipelined broadcast schedule for `nodes` positions and
/// `blocks` payload blocks (root = position 0 holds everything).
///
/// Greedy construction under the one-port full-duplex model, each round:
/// the root first *injects* the next not-yet-disseminated block into the
/// emptiest free receiver, then remaining receivers (fewest blocks held
/// first) each grab their rarest missing block (fewest holders
/// network-wide, so freshly injected blocks fan out before well-replicated
/// ones) from the lowest-indexed free holder. For `blocks = 1` this
/// reproduces the binomial doubling rounds exactly; for larger `blocks` it
/// stays within a small additive constant of the
/// `blocks - 1 + ⌈log2 nodes⌉` lower bound (asserted in tests).
///
/// A round costs O(nodes · blocks + nodes log nodes): who holds what only
/// changes *between* rounds, so the holder counts are kept per block rather
/// than recounted per receiver, and "lowest-indexed free holder of block
/// b" is a per-block cursor that only moves forward — within a round a
/// sender never becomes free again and never gains a block. The
/// rescan-everything construction this replaces is the oracle in
/// `tests/coll_sched_model.rs`; the table is equal bit for bit.
pub fn bcast_schedule(nodes: usize, blocks: usize) -> RoundSchedule {
    assert!(blocks >= 1 && blocks <= 64, "block count out of range");
    let full: u64 = if blocks == 64 { u64::MAX } else { (1u64 << blocks) - 1 };
    let mut rounds: Vec<Vec<Edge>> = Vec::new();
    if nodes <= 1 {
        return RoundSchedule { nodes, blocks, rounds };
    }
    let mut have = vec![0u64; nodes];
    have[0] = full;
    // Nodes holding each block; nodes still missing one.
    let mut holders = vec![1usize; blocks];
    let mut incomplete = nodes - 1;
    let mut injected = 0usize;
    let mut send_busy = vec![false; nodes];
    let mut recv_busy = vec![false; nodes];
    let mut receivers: Vec<usize> = Vec::with_capacity(nodes);
    let mut cursor = vec![0usize; blocks];
    while incomplete > 0 {
        send_busy.fill(false);
        recv_busy.fill(false);
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
        receivers.clear();
        receivers.extend((0..nodes).filter(|&i| !recv_busy[i] && have[i] != full));
        receivers.sort_by_key(|&i| (have[i].count_ones(), i));
        cursor.fill(0);
        for &i in &receivers {
            let mut pick: Option<(usize, usize, usize)> = None;
            let mut missing = !have[i] & full;
            while missing != 0 {
                let b = missing.trailing_zeros() as usize;
                missing &= missing - 1;
                // `s != i` needs no test: `i` lacks `b`.
                let s = &mut cursor[b];
                while *s < nodes && (send_busy[*s] || have[*s] & (1 << b) == 0) {
                    *s += 1;
                }
                let candidate = (holders[b], b, *s);
                if *s < nodes && pick.is_none_or(|best| candidate < best) {
                    pick = Some(candidate);
                }
            }
            if let Some((_, b, s)) = pick {
                edges.push((s, i, b));
                send_busy[s] = true;
                recv_busy[i] = true;
            }
        }
        assert!(!edges.is_empty(), "schedule construction stalled");
        for &(_, dst, b) in &edges {
            have[dst] |= 1 << b;
            holders[b] += 1;
            incomplete -= usize::from(have[dst] == full);
        }
        rounds.push(edges);
    }
    RoundSchedule { nodes, blocks, rounds }
}

/// Broadcast tables by `(nodes, blocks)`, each built once and shared.
#[derive(Clone, Debug, Default)]
pub struct SchedCache(BTreeMap<(usize, usize), Rc<RoundSchedule>>);

impl SchedCache {
    /// The table moving `bytes` of payload over `nodes` positions.
    pub fn table(&mut self, nodes: usize, bytes: u64) -> Rc<RoundSchedule> {
        let blocks = block_count(bytes);
        let table = self.0.entry((nodes, blocks));
        Rc::clone(table.or_insert_with(|| Rc::new(bcast_schedule(nodes, blocks))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log2_ceil(n: usize) -> usize {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }

    #[test]
    fn labels_round_trip() {
        for a in CollAlgo::ALL {
            assert_eq!(CollAlgo::from_label(a.label()), Some(a));
        }
        assert_eq!(CollAlgo::from_label("bogus"), None);
        assert_eq!(CollAlgo::default(), CollAlgo::HwMulticast);
    }

    #[test]
    fn binomial_tree_shape() {
        assert_eq!(binomial_children(0, 8), vec![1, 2, 4]);
        assert_eq!(binomial_children(1, 8), vec![3, 5]);
        assert_eq!(binomial_children(2, 8), vec![6]);
        assert_eq!(binomial_children(3, 8), vec![7]);
        assert_eq!(binomial_children(5, 8), vec![]);
        assert_eq!(binomial_children(0, 1), vec![]);
        for n in 2..64 {
            for i in 1..n {
                let p = binomial_parent(i);
                assert!(binomial_children(p, n).contains(&i), "parent({i})={p} in n={n}");
            }
        }
    }

    #[test]
    fn single_block_schedule_is_binomial_doubling() {
        for n in 2..=32 {
            let s = bcast_schedule(n, 1);
            assert_eq!(s.rounds.len(), log2_ceil(n), "n={n}");
            for (t, round) in s.rounds.iter().enumerate() {
                for &(src, dst, b) in round {
                    assert_eq!(b, 0);
                    assert!(src < 1 << t, "n={n} t={t}: sender {src} not yet covered");
                    assert_eq!(dst, src + (1 << t), "n={n} t={t}: doubling pairing");
                }
            }
        }
    }

    #[test]
    fn schedules_cover_everyone_under_one_port() {
        for n in [2usize, 3, 5, 8, 13, 16, 33] {
            for k in [1usize, 2, 3, 4, 8] {
                let s = bcast_schedule(n, k);
                let full = (1u64 << k) - 1;
                let mut have = vec![0u64; n];
                have[0] = full;
                for round in &s.rounds {
                    let mut senders = std::collections::BTreeSet::new();
                    let mut receivers = std::collections::BTreeSet::new();
                    for &(src, dst, b) in round {
                        assert!(b < k && src < n && dst < n && src != dst);
                        assert!(have[src] & (1 << b) != 0, "sender lacks the block");
                        assert!(senders.insert(src), "one-port send violated");
                        assert!(receivers.insert(dst), "one-port receive violated");
                    }
                    for &(_, dst, b) in round {
                        have[dst] |= 1 << b;
                    }
                }
                assert!(have.iter().all(|&h| h == full), "n={n} k={k}: incomplete");
                // Near-optimal: within a small additive slack of the
                // k - 1 + ceil(log2 n) pipelined lower bound.
                let bound = k - 1 + log2_ceil(n);
                assert!(
                    s.rounds.len() <= bound + 2,
                    "n={n} k={k}: {} rounds vs bound {bound}",
                    s.rounds.len()
                );
            }
        }
    }

    #[test]
    fn schedule_construction_is_deterministic() {
        assert_eq!(bcast_schedule(17, 4), bcast_schedule(17, 4));
    }

    #[test]
    fn block_sizing() {
        assert_eq!(block_count(0), 1);
        assert_eq!(block_count(BLOCK_BYTES), 1);
        assert_eq!(block_count(BLOCK_BYTES + 1), 2);
        assert_eq!(block_count(u64::MAX), MAX_BLOCKS);
        for bytes in [0u64, 1, 100, 8192, 8193, 100_000] {
            let k = block_count(bytes);
            let total: u64 = (0..k).map(|b| block_len(bytes, k, b)).sum();
            assert_eq!(total, bytes, "bytes={bytes}");
        }
    }
}
