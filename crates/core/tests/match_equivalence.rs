//! The indexed matcher (`match_index::{RecvIndex, SendIndex}`) must be
//! *bit-identical* to the linear scans it replaced (`reference/mod.rs` here)
//! — same match winners, same probe answers, same retained backlog in the
//! same order — over arbitrary interleavings of posts, arrivals, probes,
//! cancels and MSM sweeps, including the `drain_new` fast path the engine
//! takes when no receive was posted since the previous sweep.
//!
//! The reference lists are the executable specification: every operation is
//! the literal scan the BR performed before the index existed, so equality
//! here is equality with the old engine behavior (MPI non-overtaking order
//! included: two sends with the same envelope must match in arrival order,
//! which the seq-ordered comparison checks for free).

mod reference;

use bcs_mpi::match_index::{RecvIndex, RecvSel, SendIndex, SendKey};
use mpi_api::message::{SrcSel, TagSel};
use proplite::prelude::*;
use reference::{LinearRecvList, LinearSendList};

#[derive(Clone, Debug)]
enum Op {
    /// Post a receive with this selector (dst, src?, tag?).
    PostRecv { dst: u8, src: Option<u8>, tag: Option<i8> },
    /// A remote send descriptor arrives (DEM push into the unmatched list).
    SendArrive { dst: u8, src: u8, tag: i8 },
    /// MPI_Probe against the unmatched sends.
    Probe { dst: u8, src: Option<u8>, tag: Option<i8> },
    /// Cancel the n-th still-posted receive (modulo live count).
    Cancel { nth: u8 },
    /// An MSM sweep: drain the unmatched backlog and match in order.
    Sweep,
    /// The schedule-replay path: every posted receive taken at once.
    TakeAll,
}

fn op_strategy(ranks: u8, tags: i8) -> impl Strategy<Value = Op> {
    let src = prop_oneof![Just(None), (0..ranks).prop_map(Some)];
    let tag = prop_oneof![Just(None), (0..tags).prop_map(Some)];
    let src2 = prop_oneof![Just(None), (0..ranks).prop_map(Some)];
    let tag2 = prop_oneof![Just(None), (0..tags).prop_map(Some)];
    prop_oneof![
        (0..ranks, src, tag).prop_map(|(dst, src, tag)| Op::PostRecv { dst, src, tag }),
        (0..ranks, 0..ranks, 0..tags)
            .prop_map(|(dst, src, tag)| Op::SendArrive { dst, src, tag }),
        (0..ranks, src2, tag2).prop_map(|(dst, src, tag)| Op::Probe { dst, src, tag }),
        (0u8..16).prop_map(|nth| Op::Cancel { nth }),
        Just(Op::TakeAll),
        Just(Op::Sweep),
        // Sweeps are the hot path; weight them up so scripts exercise both
        // the drain_all and drain_new branches repeatedly.
        Just(Op::Sweep),
    ]
}

fn sel(dst: u8, src: Option<u8>, tag: Option<i8>) -> RecvSel {
    RecvSel {
        dst_rank: dst as usize,
        src: src.map_or(SrcSel::Any, |s| SrcSel::Rank(s as usize)),
        tag: tag.map_or(TagSel::Any, |t| TagSel::Tag(t as i32)),
    }
}

fn key(dst: u8, src: u8, tag: i8) -> SendKey {
    SendKey {
        dst_rank: dst as usize,
        src_rank: src as usize,
        tag: tag as i32,
    }
}

/// Run one script against both matchers in lockstep, asserting equality at
/// every observable point. Items are unique ids so "same item" is exact.
fn check_script(ops: &[Op]) -> TestResult {
    let mut idx_recv: RecvIndex<u64> = RecvIndex::new();
    let mut idx_send: SendIndex<u64> = SendIndex::new();
    let mut lin_recv: LinearRecvList<u64> = LinearRecvList::new();
    let mut lin_send: LinearSendList<u64> = LinearSendList::new();
    let mut next_recv_id = 0u64;
    let mut next_send_id = 0u64;
    // Mirrors NicState::recvs_since_msm: when clear, the engine skips the
    // already-examined backlog entirely (drain_new). The linear reference
    // always rescans everything; equality proves the skip is sound.
    let mut fresh_recvs = false;

    for op in ops {
        match *op {
            Op::PostRecv { dst, src, tag } => {
                let s = sel(dst, src, tag);
                let id = next_recv_id;
                next_recv_id += 1;
                let seq_i = idx_recv.post(s, id);
                let seq_l = lin_recv.post(s, id);
                prop_assert_eq!(seq_i, seq_l, "post seq diverged");
                fresh_recvs = true;
            }
            Op::SendArrive { dst, src, tag } => {
                let k = key(dst, src, tag);
                let id = next_send_id;
                next_send_id += 1;
                idx_send.push(k, id);
                lin_send.push(k, id);
            }
            Op::Probe { dst, src, tag } => {
                let s = src.map_or(SrcSel::Any, |s| SrcSel::Rank(s as usize));
                let t = tag.map_or(TagSel::Any, |t| TagSel::Tag(t as i32));
                let pi = idx_send.probe(dst as usize, s, t).map(|(k, id)| (*k, *id));
                let pl = lin_send.probe(dst as usize, s, t).map(|(k, id)| (*k, *id));
                prop_assert_eq!(pi, pl, "probe diverged");
            }
            Op::Cancel { nth } => {
                // Pick the nth live receive (post order); both sides must
                // agree it exists and hand back the same entry.
                let live: Vec<u64> = idx_recv.iter().map(|(seq, _, _)| seq).collect();
                if live.is_empty() {
                    continue;
                }
                let seq = live[nth as usize % live.len()];
                let ci = idx_recv.cancel(seq);
                let cl = lin_recv.cancel(seq);
                prop_assert_eq!(ci, cl, "cancel diverged");
                // A cancel only shrinks the recv set, so (like the engine)
                // it does NOT re-arm the backlog re-examination.
            }
            Op::Sweep => {
                // Indexed side: the engine's exact MSM step-2 discipline.
                let incoming_i = if fresh_recvs {
                    fresh_recvs = false;
                    idx_send.drain_all()
                } else {
                    idx_send.drain_new()
                };
                let mut matches_i = Vec::new();
                for (k, id) in incoming_i {
                    match idx_recv.match_first(&k) {
                        None => {
                            idx_send.push(k, id);
                        }
                        Some((rsel, rid)) => matches_i.push((id, rsel, rid)),
                    }
                }
                idx_send.mark_examined();
                // Reference side: rescan the whole backlog every sweep.
                let mut matches_l = Vec::new();
                for (k, id) in lin_send.drain_all() {
                    match lin_recv.match_first(&k) {
                        None => lin_send.push(k, id),
                        Some((rsel, rid)) => matches_l.push((id, rsel, rid)),
                    }
                }
                prop_assert_eq!(matches_i, matches_l, "sweep match set diverged");
            }
            Op::TakeAll => {
                prop_assert_eq!(idx_recv.take_all(), lin_recv.take_all(), "take_all diverged");
            }
        }
        // Invariant after every op: both views of the world are identical.
        let ri: Vec<(u64, RecvSel, u64)> =
            idx_recv.iter().map(|(s, sel, id)| (s, *sel, *id)).collect();
        let rl: Vec<(u64, RecvSel, u64)> =
            lin_recv.iter().map(|(s, sel, id)| (s, *sel, *id)).collect();
        prop_assert_eq!(ri, rl, "posted-recv lists diverged");
        let si: Vec<(SendKey, u64)> = idx_send.iter().map(|(_, k, id)| (*k, *id)).collect();
        let sl: Vec<(SendKey, u64)> = lin_send.iter().map(|(k, id)| (*k, *id)).collect();
        prop_assert_eq!(si, sl, "unmatched-send backlogs diverged");
    }
    Ok(())
}

proplite! {
    #![config(cases = 128)]

    #[test]
    fn indexed_matcher_equals_linear_reference(
        ops in prop::collection::vec(op_strategy(4, 3), 1..120)
    ) {
        check_script(&ops)?;
    }

    #[test]
    fn dense_collisions_preserve_non_overtaking_order(
        // One destination, one tag: every send has an identical envelope, so
        // any ordering slip between the matchers is immediately visible.
        ops in prop::collection::vec(op_strategy(1, 1), 1..160)
    ) {
        check_script(&ops)?;
    }

    #[test]
    fn wildcard_heavy_streams_agree(
        ops in prop::collection::vec(op_strategy(2, 2), 1..140)
    ) {
        check_script(&ops)?;
    }
}

/// The sequence a match reports is the post sequence on both sides, the
/// wildcard posted first wins on both, and `take_all` leaves both empty with
/// the survivors in post order.
#[test]
fn match_first_seq_and_take_all_agree_with_the_reference() {
    let mut idx = RecvIndex::new();
    let mut linear = LinearRecvList::new();
    for (i, src) in [None, Some(1), Some(2)].into_iter().enumerate() {
        idx.post(sel(0, src, Some(3)), i);
        linear.post(sel(0, src, Some(3)), i);
    }
    let (seq, _, item) = idx.match_first_seq(&key(0, 2, 3)).unwrap();
    let (lseq, _, litem) = linear.match_first_seq(&key(0, 2, 3)).unwrap();
    assert_eq!((seq, item), (0, 0), "wildcard posted first wins");
    assert_eq!((lseq, litem), (seq, item), "reference agrees");
    let rest: Vec<usize> = idx.take_all().into_iter().map(|(_, i)| i).collect();
    let lrest: Vec<usize> = linear.take_all().into_iter().map(|(_, i)| i).collect();
    assert_eq!(rest, vec![1, 2]);
    assert_eq!(lrest, rest);
    assert!(idx.is_empty() && linear.is_empty());
}

/// Buckets that empty and refill — one receive per rotating tag, as the halo
/// exchange posts them, with a wide burst of distinct tags now and then —
/// are recycled, not kept: however many came and went, the index holds a
/// deque per live bucket plus a bounded number of spares.
#[test]
fn churned_buckets_are_recycled_not_kept() {
    let recv = |src: SrcSel, tag: i32| RecvSel { dst_rank: 0, src, tag: TagSel::Tag(tag) };
    let send = |tag: i32| SendKey { dst_rank: 0, src_rank: 1, tag };
    let mut idx: RecvIndex<u64> = RecvIndex::new();
    // Two buckets that stay: one exact, one wildcard.
    idx.post(recv(SrcSel::Rank(9), -1), 0);
    idx.post(recv(SrcSel::Any, -2), 0);
    let mut spare_seen = 0;
    for round in 0..10_000i32 {
        let width = if round % 100 == 99 { 40 } else { 1 };
        let tags = round * 64..round * 64 + width;
        for tag in tags.clone() {
            idx.post(recv(SrcSel::Rank(1), tag), tag as u64);
        }
        assert_eq!(idx.len(), 2 + width as usize);
        assert!(idx.deques_held() <= 2 + width as usize + 16, "{} deques", idx.deques_held());
        for tag in tags {
            assert_eq!(idx.match_first(&send(tag)).map(|(_, item)| item), Some(tag as u64));
        }
        assert_eq!(idx.len(), 2);
        assert!(idx.deques_held() <= 2 + 16, "{} deques for 2 buckets", idx.deques_held());
        spare_seen = spare_seen.max(idx.deques_held() - 2);
    }
    assert!(spare_seen >= 1, "an emptied bucket's deque must be kept for the next");
}
