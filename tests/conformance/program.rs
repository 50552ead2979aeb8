//! The lattice's one rank-program generator, and the interpreter that issues
//! a generated program in each of its forms.
//!
//! Every received message is checked against the bytes its sender must have
//! sent as that message of that channel, so loss, damage, duplication and
//! overtaking fail inside the rank; collective payloads name the
//! communicator they were sent on, so a crossing fails there too. What is
//! left is folded commutatively into the rank's result, so that neither the
//! cell nor fault timing can change it.

use bcs_repro::mpi_api::comm::CommId;
use bcs_repro::mpi_api::datatype::{Datatype, ReduceOp, to_bytes_f64, to_bytes_i64};
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::{AsyncMpi, MpiCall, MpiResp, Payload, RankProgram, ReqId, Status};
use bcs_repro::simcore::{SimDuration, SimRng};
use proplite::prelude::*;

#[derive(Clone, Copy, Debug)]
pub enum Coll {
    Barrier,
    Bcast,
    Allgatherv,
    /// f64 allreduce.
    Allreduce(ReduceOp),
    /// f64 reduce to one root of the world.
    Reduce(ReduceOp),
    /// i64 allreduce.
    Bits(ReduceOp),
}

#[derive(Clone, Debug)]
pub enum Step {
    /// Compute for `us` plus a per-rank stagger: whole idle slices, ending
    /// at a different microphase on every node.
    Gap { us: u64 },
    /// Ranks that are multiples of `every` send `msgs` messages of `bytes`
    /// to the rank `stride` above; the receiver may take any source or any
    /// tag (never both: only the sender's own order is promised).
    Ring { bytes: usize, msgs: usize, stride: usize, every: usize, any_src: bool, any_tag: bool },
    /// A message to the next rank, received through a blocking wildcard
    /// probe.
    Probe { bytes: usize },
    SelfSend { bytes: usize },
    /// More than a slice of compute, then one `Payload` to the next two
    /// ranks against two wildcard receives, as one hand-built batch.
    Shared,
    /// A blocking send of more than a slice's budget, so that a capture
    /// finds a rank parked in it.
    BigSend,
    /// On the world or on the rank's split communicator; `big` collectives
    /// carry 1200 f64s, which the optimal schedule splits into blocks.
    Coll { kind: Coll, on_sub: bool, big: bool },
}

#[derive(Clone, Debug)]
pub struct Prog {
    pub nodes: usize,
    pub ppn: usize,
    /// Sub-communicators the world is split into (1 = no split).
    pub groups: usize,
    pub steps: Vec<Step>,
    /// Iterations of the closing steady phase: the same exchange every
    /// slice, which a schedule compiles and replays.
    pub steady: usize,
    /// Checkpoint every `ckpt` slices. A capture drops compiled schedules,
    /// so only the longer period lets them form.
    pub ckpt: u64,
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    let bytes = || prop_oneof![Just(0usize), Just(24), Just(700), Just(9_000), Just(200_000)];
    let f64_op = || prop_oneof![Just(ReduceOp::Sum), Just(ReduceOp::Prod), Just(ReduceOp::Min), Just(ReduceOp::Max)];
    let kind = prop_oneof![
        Just(Coll::Barrier),
        Just(Coll::Bcast),
        Just(Coll::Allgatherv),
        f64_op().prop_map(Coll::Allreduce),
        f64_op().prop_map(Coll::Reduce),
        prop_oneof![Just(ReduceOp::BAnd), Just(ReduceOp::BOr)].prop_map(Coll::Bits),
    ];
    prop_oneof![
        3 => (600u64..7_000).prop_map(|us| Step::Gap { us }),
        4 => (bytes(), 1usize..3, 1usize..4, 1usize..4, 0u8..3).prop_map(|(bytes, msgs, stride, every, any)| {
            Step::Ring { bytes, msgs, stride, every, any_src: any == 1, any_tag: any == 2 }
        }),
        1 => bytes().prop_map(|bytes| Step::Probe { bytes }),
        1 => bytes().prop_map(|bytes| Step::SelfSend { bytes }),
        1 => Just(Step::Shared),
        1 => Just(Step::BigSend),
        4 => (kind, any::<bool>(), any::<bool>()).prop_map(|(kind, on_sub, big)| Step::Coll { kind, on_sub, big }),
    ]
}

pub fn prog_strategy() -> impl Strategy<Value = Prog> {
    (
        2usize..6,
        1usize..3,
        1usize..4,
        prop::collection::vec(step_strategy(), 3..8),
        6usize..10,
        prop_oneof![1 => Just(1u64), 2 => Just(9)],
    )
        .prop_map(|(nodes, ppn, groups, steps, steady, ckpt)| Prog { nodes, ppn, groups, steps, steady, ckpt })
}

/// How the waits of a program are issued.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Wait {
    /// One waitall listing the requests in post order.
    PostOrder,
    /// One waitall listing them in a seeded shuffle of post order.
    Shuffled,
    /// The shuffled list, one `wait` per request.
    OneByOne,
}

/// One way of issuing a program: call by call or one batch per step (the
/// preceding compute included), and how it waits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Form {
    pub batched: bool,
    pub wait: Wait,
}

pub const CANON: Form = Form { batched: false, wait: Wait::PostOrder };

pub fn program(p: &Prog, form: Form) -> impl RankProgram<Out = u64> {
    let p = p.clone();
    move |mpi: AsyncMpi| run(mpi, p.clone(), form)
}

/// The bytes `src` sends as message `seq` of step `step`: one byte value
/// for the message, with every 97th byte numbering its position.
pub fn payload(src: usize, step: usize, seq: usize, bytes: usize) -> Vec<u8> {
    let base = (src * 131 + step * 31 + seq * 7) as u8;
    let mut data = vec![base; bytes];
    for (k, b) in data.iter_mut().step_by(97).enumerate() {
        *b ^= k as u8 | 1;
    }
    data
}

pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

const BIG_SEND: usize = 160 * 1024;
const STEADY_BYTES: usize = 32;
const LONG: usize = 1 << 20;

type Got = (Option<Payload>, Option<Status>);

struct Rank {
    mpi: AsyncMpi,
    form: Form,
    me: usize,
    acc: u64,
    order: SimRng,
    /// Compute not yet issued: it joins the next step's calls.
    pending: Vec<MpiCall>,
}

impl Rank {
    /// Issue `calls` after what is pending: as one batch or one by one.
    async fn issue(&mut self, calls: Vec<MpiCall>) -> Vec<ReqId> {
        let mut calls: Vec<MpiCall> = std::mem::take(&mut self.pending).into_iter().chain(calls).collect();
        let resps = if self.form.batched {
            self.mpi.batch(calls).await
        } else {
            let mut resps = Vec::new();
            for call in calls.drain(..) {
                resps.extend(self.mpi.batch(vec![call]).await);
            }
            resps
        };
        resps.into_iter().filter_map(|r| if let MpiResp::Req(id) = r { Some(id) } else { None }).collect()
    }

    /// Wait for `reqs` in this form; what each returned, in post order.
    async fn wait(&mut self, reqs: &[ReqId]) -> Vec<Got> {
        let mut idx: Vec<usize> = (0..reqs.len()).collect();
        if self.form.wait != Wait::PostOrder {
            self.order.shuffle(&mut idx);
        }
        let listed: Vec<ReqId> = idx.iter().map(|&i| reqs[i]).collect();
        let got = match self.form.wait {
            Wait::OneByOne => {
                let mut got = Vec::new();
                for &r in &listed {
                    got.push(self.mpi.wait(r).await);
                }
                got
            }
            _ if listed.is_empty() => Vec::new(),
            _ => self.mpi.waitall(&listed).await,
        };
        let mut out = vec![(None, None); reqs.len()];
        for (i, g) in idx.into_iter().zip(got) {
            out[i] = g;
        }
        out
    }

    fn fold(&mut self, step: usize, h: u64) {
        self.acc = self.acc.wrapping_add((h ^ step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    /// Check one received message against what its sender sent.
    fn take(&mut self, src: usize, step: usize, seq: usize, bytes: usize, got: &Got) {
        let (data, status) = (got.0.as_deref().expect("payload"), got.1.as_ref().expect("status"));
        assert!(
            status.source == src && data == payload(src, step, seq, bytes),
            "rank {} step {step}: message {seq} from rank {src} overtaken, lost or damaged \
             (got {} B from rank {})",
            self.me,
            data.len(),
            status.source
        );
        self.fold(step, ((src << 40) ^ (seq << 32) ^ data.len()) as u64);
    }
}

async fn run(mpi: AsyncMpi, p: Prog, form: Form) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let order = SimRng::new(0x5EED).split(me as u64);
    let mut r = Rank { mpi, form, me, acc: 0, order, pending: Vec::new() };
    // Every program opens with a world broadcast, so every cell's
    // collective path runs, and runs early, where a plan's drops land.
    let opening = payload(n, 0, 0, 300);
    let got = r.mpi.bcast(0, (me == 0).then_some(&opening[..])).await;
    assert!(got == opening, "rank {me}: opening broadcast damaged");
    let sub = match p.groups {
        1 => None,
        g => r.mpi.comm_split(None, (me % g) as i64, me as i64).await,
    };
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    for (i, step) in p.steps.iter().enumerate() {
        let tag = i as i32;
        match *step {
            Step::Gap { us } => r.pending.push(MpiCall::Compute { ns: (us + 137 * (me as u64 % 5)) * 1000 }),
            Step::Ring { bytes, msgs, stride, every, any_src, any_tag } => {
                let stride = stride % n;
                let (to, from) = ((me + stride) % n, (me + n - stride) % n);
                let receiving = from % every == 0;
                let src = if any_src { SrcSel::Any } else { SrcSel::Rank(from) };
                let tags = if any_tag { TagSel::Any } else { TagSel::Tag(tag) };
                let mut calls = Vec::new();
                if receiving {
                    calls.extend((0..msgs).map(|_| r.mpi.irecv_desc(src, tags)));
                }
                if me % every == 0 {
                    calls.extend((0..msgs).map(|s| r.mpi.isend_desc(to, tag, payload(me, i, s, bytes))));
                }
                let reqs = r.issue(calls).await;
                let got = r.wait(&reqs).await;
                if receiving {
                    (0..msgs).for_each(|s| r.take(from, i, s, bytes, &got[s]));
                }
            }
            Step::Probe { bytes } => {
                let s = r.issue(vec![r.mpi.isend_desc(next, tag, payload(me, i, 0, bytes))]).await;
                let st = r.mpi.probe(SrcSel::Any, TagSel::Tag(tag)).await;
                assert_eq!((st.source, st.bytes), (prev, bytes), "rank {me} step {i}: probe");
                let (data, st) = r.mpi.recv(SrcSel::Rank(st.source), TagSel::Tag(tag)).await;
                r.take(prev, i, 0, bytes, &(Some(data), Some(st)));
                r.wait(&s).await;
            }
            Step::SelfSend { bytes } => {
                let calls = vec![
                    r.mpi.irecv_desc(SrcSel::Rank(me), TagSel::Tag(tag)),
                    r.mpi.isend_desc(me, tag, payload(me, i, 0, bytes)),
                ];
                let reqs = r.issue(calls).await;
                let got = r.wait(&reqs).await;
                r.take(me, i, 0, bytes, &got[0]);
            }
            Step::Shared => {
                let shared = Payload::from_vec(payload(me, i, 0, 700));
                let send = |dest: usize| MpiCall::Send { dest, tag, data: shared.clone(), blocking: false };
                let any = || MpiCall::Recv { src: SrcSel::Any, tag: TagSel::Tag(tag), blocking: false };
                let us = 520 + 40 * (me as u64 % 3);
                let calls = vec![r.mpi.compute_desc(SimDuration::micros(us)), send(next), send((me + 2) % n), any(), any()];
                let reqs = r.issue(calls).await;
                for got in r.wait(&reqs).await.iter().skip(2) {
                    let src = got.1.as_ref().expect("status").source;
                    r.take(src, i, 0, 700, got);
                }
            }
            Step::BigSend => {
                let calls = vec![
                    r.mpi.irecv_desc(SrcSel::Rank(prev), TagSel::Tag(tag)),
                    MpiCall::Send { dest: next, tag, data: payload(me, i, 0, BIG_SEND).into(), blocking: true },
                ];
                let reqs = r.issue(calls).await;
                let got = r.wait(&reqs).await;
                r.take(prev, i, 0, BIG_SEND, &got[0]);
            }
            Step::Coll { kind, on_sub, big } => {
                let h = sub.as_ref().filter(|_| on_sub);
                // The world is group `groups`, which no split communicator is.
                let group = h.map_or(p.groups, |_| me % p.groups);
                let elems = if big { 1200 } else { 2 };
                let world = h.is_none();
                match kind {
                    Coll::Barrier => {
                        let comm = h.map_or(CommId::WORLD, |h| h.id);
                        r.issue(vec![MpiCall::Barrier { comm }]).await;
                    }
                    Coll::Bcast => {
                        r.issue(Vec::new()).await;
                        let root = if world { i % n } else { 0 };
                        let want = payload(group, i, 0, if big { 9_600 } else { 1 + (i * 7 + group) % 23 });
                        let mine = (h.map_or(me, |h| h.rank) == root).then_some(&want[..]);
                        let got = match h {
                            Some(h) => r.mpi.bcast_on(h, root, mine).await,
                            None => r.mpi.bcast(root, mine).await,
                        };
                        assert!(got == want, "rank {me} step {i}: broadcast crossed communicators");
                        r.fold(i, fnv(&got));
                    }
                    Coll::Allgatherv => {
                        r.issue(Vec::new()).await;
                        let len = |m: usize| 1 + (m * 7 + i) % 23;
                        let mine = payload(me, i, 0, len(me));
                        let parts = match h {
                            Some(h) => r.mpi.alltoallv_on(h, &vec![mine.clone(); h.size()]).await,
                            None => r.mpi.allgatherv(&mine).await,
                        };
                        let members: Vec<usize> = if world { (0..n).collect() } else { (group..n).step_by(p.groups).collect() };
                        let want: Vec<Vec<u8>> = members.iter().map(|&m| payload(m, i, 0, len(m))).collect();
                        assert!(parts == want, "rank {me} step {i}: allgatherv crossed communicators");
                        parts.iter().for_each(|part| r.fold(i, fnv(part)));
                    }
                    Coll::Allreduce(op) | Coll::Reduce(op) | Coll::Bits(op) => {
                        r.issue(Vec::new()).await;
                        let (dtype, data) = match kind {
                            Coll::Bits(_) => {
                                let xs: Vec<i64> = (0..elems).map(|k| ((me + 1) as i64).rotate_left((k + i) as u32 % 64) ^ k as i64).collect();
                                (Datatype::I64, to_bytes_i64(&xs))
                            }
                            _ => {
                                let xs: Vec<f64> = (0..elems).map(|k| (me as f64 + 1.0) * 0.37 + k as f64 + i as f64 * 0.5).collect();
                                (Datatype::F64, to_bytes_f64(&xs))
                            }
                        };
                        let out = match (kind, h) {
                            (Coll::Reduce(_), _) => r.mpi.reduce(i % n, op, dtype, &data).await.unwrap_or_default(),
                            (_, Some(h)) => r.mpi.allreduce_on(h, op, dtype, &data).await,
                            (_, None) => r.mpi.allreduce(op, dtype, &data).await,
                        };
                        r.fold(i, fnv(&out));
                    }
                }
            }
        }
    }
    // The steady phase: four messages each way to both ring neighbours
    // every iteration, under one stable tag; each iteration waits for the
    // previous one's exchange. Beside it, on four nodes or more, one
    // transfer of many slices' budget from node 1 to the last node, which no
    // steady message leaves node 1 for: the passes nodes 0 to 2 replay and
    // the chunks the last node schedules after them draw on one budget.
    let first = p.steps.len();
    let tag = first as i32;
    let (from, to) = (p.ppn, n - p.ppn);
    let long = match me {
        _ if p.nodes < 4 => Vec::new(),
        _ if me == from => vec![r.mpi.isend_desc(to, tag + 1, payload(from, first, 0, LONG))],
        _ if me == to => vec![r.mpi.irecv_desc(SrcSel::Rank(from), TagSel::Tag(tag + 1))],
        _ => Vec::new(),
    };
    let long = r.issue(long).await;
    let mut reqs: Vec<ReqId> = Vec::new();
    for it in 0..=p.steady {
        let got = r.wait(&reqs).await;
        for (k, g) in got.iter().take(8).enumerate() {
            let (src, seq) = if k < 4 { (prev, k) } else { (next, k) };
            r.take(src, first + it - 1, seq, STEADY_BYTES, g);
        }
        if it == p.steady {
            break;
        }
        let step = first + it;
        let mut calls = vec![r.mpi.compute_desc(SimDuration::micros(400))];
        calls.extend((0..8).map(|k| r.mpi.irecv_desc(SrcSel::Rank(if k < 4 { prev } else { next }), TagSel::Tag(tag))));
        calls.extend((0..8).map(|k| r.mpi.isend_desc(if k < 4 { next } else { prev }, tag, payload(me, step, k, STEADY_BYTES))));
        reqs = r.issue(calls).await;
    }
    let got = r.wait(&long).await;
    if me == to && !got.is_empty() {
        r.take(from, first, 0, LONG, &got[0]);
    }
    r.acc
}
