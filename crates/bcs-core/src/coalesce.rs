//! Small-message coalescing: pack many small same-destination transfers of
//! one microphase into a single DMA with a NIC-side scatter header.
//!
//! The BCS design buffers a whole slice's traffic before moving it, so by
//! the time a microphase issues DMAs it holds the complete per-peer
//! transfer list — the natural place to merge n tiny wire operations into
//! one block transfer that the receiving NIC unpacks (ROADMAP item 3; the
//! pattern follows the coalesced-communication scheme of arxiv 1210.4400).
//!
//! Wire layout of one coalesced block (modeled, not materialized — the
//! simulator charges its size, the engine completes the logical messages
//! on delivery):
//!
//! ```text
//! +--------------+----------------------+----------------------+---
//! | block header |  entry 0 header      |  entry 0 payload     | ...
//! | (64 B: count,|  (16 B: msg id,      |  (chunk bytes)       |
//! |  src, seqno) |   offset, length)    |                      |
//! +--------------+----------------------+----------------------+---
//! ```
//!
//! This module is pure planning — which transfers merge, and what the
//! merged block costs on the wire. It is engine- and fabric-agnostic: the
//! BCS engine plans against it for both the DEM (descriptor blocks) and
//! the P2P microphase (chunk gathers), and issues the planned blocks
//! through whatever `qsnet::Fabric` implementation carries the job, so
//! QsNet and the RDMA channel behave identically.

/// Transfers strictly larger than this stay individual DMAs — past a few
/// KB the per-DMA overhead is already amortized and merging only adds
/// header bytes and latency coupling.
pub const MAX_MSG_BYTES: u64 = 2048;
/// Scatter-header bytes per packed entry (message id, offset, length).
pub const ENTRY_HDR_BYTES: u64 = 16;
/// Leading block-header bytes (entry count, source, sequence).
pub const BLOCK_HDR_BYTES: u64 = 64;

/// One planned block: the entries (indices into the caller's transfer
/// list, in original order) merged toward/from one peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gather<K> {
    pub peer: K,
    pub entries: Vec<usize>,
    /// Sum of the entries' payload bytes (headers excluded).
    pub payload_bytes: u64,
}

impl<K> Gather<K> {
    /// Modeled wire size of the block: header + payloads + one scatter
    /// header per entry.
    pub fn wire_bytes(&self) -> u64 {
        BLOCK_HDR_BYTES + self.payload_bytes + self.entries.len() as u64 * ENTRY_HDR_BYTES
    }
}

/// Partition one microphase's transfer list `(peer, bytes)` into
/// individually-issued transfers and coalesced blocks.
///
/// * entries larger than [`MAX_MSG_BYTES`] stay individual, as does any peer
///   with a single small entry (a one-entry block only adds headers);
/// * blocks come out ordered by peer id and keep their entries in the
///   caller's original order — fully deterministic, so the planned DMA
///   sequence is bit-identical on every run.
///
/// Returns `(singles, gathers)`: indices to issue as-is (original order)
/// and the planned blocks.
pub fn plan<K: Ord + Copy>(items: &[(K, u64)]) -> (Vec<usize>, Vec<Gather<K>>) {
    let mut singles: Vec<usize> = Vec::new();
    let mut by_peer: std::collections::BTreeMap<K, Gather<K>> = std::collections::BTreeMap::new();
    for (i, &(peer, bytes)) in items.iter().enumerate() {
        if bytes > MAX_MSG_BYTES {
            singles.push(i);
        } else {
            let g = by_peer.entry(peer).or_insert_with(|| Gather {
                peer,
                entries: Vec::new(),
                payload_bytes: 0,
            });
            g.entries.push(i);
            g.payload_bytes += bytes;
        }
    }
    let mut gathers: Vec<Gather<K>> = Vec::new();
    for (_, g) in by_peer {
        if g.entries.len() == 1 {
            singles.push(g.entries[0]);
        } else {
            gathers.push(g);
        }
    }
    // Demoted one-entry blocks joined `singles` out of order; restore the
    // original issue order so disabling coalescing for a peer is invisible.
    singles.sort_unstable();
    (singles, gathers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_merges_small_same_peer_entries_and_keeps_large_ones_single() {
        let items: &[(u32, u64)] = &[
            (2, 32),   // 0: small -> block for peer 2
            (1, 9000), // 1: large -> single
            (2, 64),   // 2: small -> block for peer 2
            (1, 16),   // 3: peer 1's only small entry -> demoted to single
            (2, 32),   // 4: small -> block for peer 2
        ];
        let (singles, gathers) = plan(items);
        assert_eq!(singles, vec![1, 3], "original issue order preserved");
        assert_eq!(gathers.len(), 1);
        let g = &gathers[0];
        assert_eq!((g.peer, g.entries.clone(), g.payload_bytes), (2, vec![0, 2, 4], 128));
        // 64 B block header + 128 B payload + 3 x 16 B scatter entries.
        assert_eq!(g.wire_bytes(), 64 + 128 + 48);
    }

    #[test]
    fn plan_is_deterministic_and_orders_blocks_by_peer() {
        let items: &[(u32, u64)] = &[(9, 1), (3, 1), (9, 2), (3, 2), (5, 3), (5, 4)];
        let (singles, gathers) = plan(items);
        assert!(singles.is_empty());
        let peers: Vec<u32> = gathers.iter().map(|g| g.peer).collect();
        assert_eq!(peers, vec![3, 5, 9]);
        assert_eq!(gathers[0].entries, vec![1, 3]);
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let at = [(0u32, MAX_MSG_BYTES), (0u32, MAX_MSG_BYTES)];
        let (singles, gathers) = plan(&at);
        assert!(singles.is_empty(), "== MAX_MSG_BYTES still coalesces");
        assert_eq!(gathers[0].entries.len(), 2);
        let over = [(0u32, MAX_MSG_BYTES + 1), (0u32, MAX_MSG_BYTES + 1)];
        let (singles, gathers) = plan(&over);
        assert_eq!(singles, vec![0, 1]);
        assert!(gathers.is_empty());
    }
}
