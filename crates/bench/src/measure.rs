//! The measurements some table rows run that are not MPI jobs: Table 1's
//! BCS core primitives on a bare STORM world, and one slice of the
//! schedule ablation's MSM+P2P machinery in isolation. (STORM's launch and
//! gang-scheduling models live in `storm`.)

use mpi_api::message::{SrcSel, TagSel};
use simcore::{Sim, SimTime};
use storm::StormWorld;

/// Table 1's two measurements over `n` nodes on `net`, each issued from
/// the management node of a fresh STORM world to every compute node: the
/// completion latency of one Compare-And-Write (µs), and the aggregate
/// Xfer-And-Signal bandwidth of a 1 MB multicast (MB/s).
pub fn cw_xs(net: qsnet::NetModel, n: usize) -> [f64; 2] {
    use bcs_core::{BcsCluster, CmpOp, XsOpts};
    type Op = fn(&mut StormWorld, &mut Sim<StormWorld>, qsnet::NodeId, &[qsnet::NodeId]) -> SimTime;
    const BYTES: u64 = 1_048_576;
    let ops: [Op; 2] = [
        |w, sim, mgmt, nodes| BcsCluster::compare_and_write(w, sim, mgmt, nodes, 1, CmpOp::Ge, 0, None, |_, _, _| {}),
        |w, sim, mgmt, nodes| BcsCluster::xfer_and_signal(w, sim, mgmt, nodes, BYTES, XsOpts::default()),
    ];
    let [cw, xs] = ops.map(|op| {
        let mut w = StormWorld::new(net, n);
        let mut sim: Sim<StormWorld> = Sim::new();
        let (nodes, mgmt) = (w.nodes(), w.mgmt);
        let t = op(&mut w, &mut sim, mgmt, &nodes);
        sim.run(&mut w);
        t.since(SimTime::ZERO)
    });
    [cw.as_micros_f64(), (n as u64 * BYTES) as f64 / xs.as_secs_f64() / 1e6]
}

/// The DMA gets one "matching slice" of the MSM+P2P machinery issues over
/// `msgs` small messages converging on one node from 16 sources, on a live
/// QsNet fabric + simulator: an exact count at any load, and what the
/// paired ratio gate compares.
///
/// * baseline: indexed matching per message (`RecvIndex::match_first_seq`),
///   budget accounting, and one DMA get per message;
/// * compiled: fingerprint validation over the arrival stream plus the
///   index's cached receive-side digest (`RecvIndex::shape_digest`), bulk
///   recv drain, pre-paired replay, and one coalesced gather get per source
///   (the pairing *and* the gather plan are part of the persistent
///   schedule, built once when the streak compiles).
pub fn machinery_gets(msgs: usize, compiled: bool) -> u64 {
    use bcs_mpi::match_index::{LazyBudget, RecvIndex, RecvSel, SendIndex, SendKey};
    use bcs_mpi::schedule::FpBuilder;
    use qsnet::NodeId;

    struct W;
    let srcs = 16usize;
    let bytes = 32u64;
    let hdr = 64u64;
    let key = |i: usize| SendKey {
        dst_rank: 0,
        src_rank: i % srcs,
        tag: (i / srcs % 64) as i32,
    };
    let sel = |i: usize| RecvSel {
        dst_rank: 0,
        src: SrcSel::Rank(i % srcs),
        tag: TagSel::Tag((i / srcs % 64) as i32),
    };

    let mut fab: Box<dyn qsnet::Fabric<W>> =
        Box::new(qsnet::QsNetFabric::new(qsnet::NetModel::qsnet(), srcs + 1));
    let mut sim: simcore::Sim<W> = simcore::Sim::new();
    let mut w = W;
    let mut budget = LazyBudget::new(srcs + 1);
    budget.refill(u64::MAX / 2);
    let mut recvs: RecvIndex<u64> = RecvIndex::new();
    for i in 0..msgs {
        recvs.post(sel(i), i as u64);
    }
    let mut sends: SendIndex<u64> = SendIndex::new();
    for i in 0..msgs {
        sends.push(key(i), bytes);
    }
    // The persistent schedule: fingerprint, arrival->recv pairing
    // (identity here — arrivals match posted recvs in order), and the
    // coalesced DMA plan.
    let expected_fp = {
        let mut fp = FpBuilder::new();
        fp.word(msgs as u64);
        for i in 0..msgs {
            fp.arrival(&key(i), bytes);
        }
        fp.word(recvs.shape_digest());
        fp.finish()
    };
    let plan_items: Vec<(usize, u64)> = (0..msgs).map(|i| (i % srcs, bytes)).collect();
    let (plan_singles, plan_gathers) = bcs_core::coalesce::plan(&plan_items);
    // Per-source/destination budget needs, aggregated at compile time
    // exactly like `schedule::Compiled::new`.
    let mut src_need = vec![0u64; srcs];
    for i in 0..msgs {
        src_need[i % srcs] += bytes;
    }
    let dst_need = msgs as u64 * bytes;

    let incoming = sends.drain_new();
    let mut sched: Vec<(u64, u64)> = Vec::with_capacity(msgs);
    if compiled {
        let mut fp = FpBuilder::new();
        fp.word(incoming.len() as u64);
        for (k, b) in &incoming {
            fp.arrival(k, *b);
        }
        fp.word(recvs.shape_digest());
        assert_eq!(fp.finish(), expected_fp, "digest must validate");
        // Budget validation + debit from the schedule's precomputed
        // per-source aggregates (O(sources), not O(msgs)).
        for (s, need) in src_need.iter().enumerate() {
            assert!(*need <= budget.get(1 + s), "src budget must hold");
            budget.sub(1 + s, *need);
        }
        assert!(dst_need <= budget.get(0), "dst budget must hold");
        budget.sub(0, dst_need);
        let drained = recvs.take_all();
        for (i, (_k, b)) in incoming.iter().enumerate() {
            sched.push((drained[i].1, *b));
        }
        for &i in &plan_singles {
            let (src, b) = plan_items[i];
            fab.get(&mut sim, NodeId(0), NodeId(1 + src), b + hdr, |_, _| {});
        }
        for g in &plan_gathers {
            fab.get(&mut sim, NodeId(0), NodeId(1 + g.peer), g.wire_bytes(), |_, _| {});
        }
    } else {
        for (k, b) in incoming {
            let (_, _, item) = recvs.match_first_seq(&k).expect("recv posted");
            budget.sub(1 + k.src_rank, b);
            budget.sub(0, b);
            sched.push((item, b));
            fab.get(&mut sim, NodeId(0), NodeId(1 + k.src_rank), b + hdr, |_, _| {});
        }
    }
    sim.run(&mut w);
    assert_eq!(sched.len(), msgs);
    fab.net().stats().gets
}
