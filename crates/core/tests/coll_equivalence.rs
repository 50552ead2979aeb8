//! The collective-algorithm layer must be *value-transparent* (DESIGN §14):
//! for random communicators × roots × ops × payload sizes, every
//! [`CollAlgo`] — the hardware multicast path, the explicit binomial tree,
//! and the pipelined optimal schedule — must produce bit-identical results
//! on both fabrics. The algorithms may only move the clock: the value plane
//! folds contributions in ascending communicator-rank order regardless of
//! the wire schedule, and the NIC's softfloat arithmetic makes the fold
//! exact run-to-run.
//!
//! Also pinned here: every algorithm run is deterministic end-to-end
//! (results, virtual time, event counts and checkpoint digests identical on
//! a re-run), and a node crash landing mid-collective recovers from the
//! slice-boundary checkpoint to results bit-identical to the fault-free
//! reference under each algorithm.

use bcs_mpi::{BcsConfig, BcsMpi};
use faultsim::{FaultPlan, RecoveryCfg, fault_free_reference, run_with_recovery};
use mpi_api::coll_sched::CollAlgo;
use mpi_api::runtime::{JobLayout, RunResult, run_program};
use mpi_api::{AsyncMpi, ReduceOp};
use proplite::prelude::*;
use qsnet::{FabricKind, NodeId};
use simcore::SimDuration;

/// One generated collective workload.
#[derive(Clone, Debug)]
struct Scenario {
    /// Compute nodes (== world size at one rank per node unless `ppn` > 1).
    nodes: usize,
    ppn: usize,
    root: usize,
    op: ReduceOp,
    /// f64 elements per reduce contribution.
    elems: usize,
    /// Communicator split: world plus `groups`-way sub-communicators.
    groups: usize,
    iters: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2..7usize,
        1..3usize,
        0..32usize,
        prop_oneof![
            Just(ReduceOp::Sum),
            Just(ReduceOp::Prod),
            Just(ReduceOp::Min),
            Just(ReduceOp::Max)
        ],
        // One element keeps every payload below a pipeline block; 1200
        // f64s (9600 B) forces the optimal schedule into multi-block
        // rounds on world-sized communicators.
        prop_oneof![Just(1usize), Just(13), Just(160), Just(1200)],
        1..3usize,
        1..3usize,
    )
        .prop_map(|(nodes, ppn, root, op, elems, groups, iters)| Scenario {
            nodes,
            ppn,
            root: root % (nodes * ppn),
            op,
            elems,
            groups,
            iters,
        })
}

fn layout_of(s: &Scenario) -> JobLayout {
    JobLayout::new(s.nodes, s.ppn, s.nodes * s.ppn)
}

fn cfg_with(fabric: FabricKind, algo: CollAlgo) -> BcsConfig {
    let mut cfg = BcsConfig::default();
    cfg.fabric = fabric;
    cfg.coll_algo = algo;
    // Checkpoint every few slices so the digest log samples mid-collective
    // protocol state.
    cfg.checkpoint_every = Some(3);
    cfg
}

/// Every collective in one pot, folded to a per-rank checksum over the
/// exact result bits: any value divergence between algorithms changes it,
/// pure timing shifts do not.
fn run_scenario(cfg: BcsConfig, s: &Scenario) -> RunResult<u64, BcsMpi> {
    let layout = layout_of(s);
    let s = s.clone();
    run_program(BcsMpi::new(cfg, &layout), layout, move |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let sub = if s.groups > 1 {
            mpi.comm_split(None, (me % s.groups) as i64, me as i64).await
        } else {
            None
        };
        for it in 0..s.iters {
            // World broadcast from the scenario root.
            let bytes: Vec<u8> = (0..s.elems)
                .map(|i| (s.root + it + i) as u8)
                .collect();
            let got = mpi.bcast(s.root, if me == s.root { Some(&bytes) } else { None }).await;
            for b in got.iter() {
                acc = acc.wrapping_mul(31).wrapping_add(*b as u64);
            }
            // NIC reduce + allreduce: values exercise the softfloat fold.
            let xs: Vec<f64> = (0..s.elems)
                .map(|i| (me as f64 + 1.0) * 0.37 + i as f64 + it as f64 * 0.5)
                .collect();
            if let Some(r) = mpi.reduce_f64(s.root, s.op, &xs).await {
                for v in r {
                    acc ^= v.to_bits();
                }
            }
            for v in mpi.allreduce_f64(s.op, &xs).await {
                acc = acc.rotate_left(7) ^ v.to_bits();
            }
            // Allgatherv with genuinely uneven contributions.
            let mine: Vec<u8> = (0..1 + (me * 7 + it) % 23)
                .map(|i| (me * 13 + i) as u8)
                .collect();
            for (src, part) in mpi.allgatherv(&mine).await.iter().enumerate() {
                acc = acc.wrapping_add((src as u64 + 1).wrapping_mul(1 + part.len() as u64));
                for b in part.iter() {
                    acc = acc.wrapping_mul(31).wrapping_add(*b as u64);
                }
            }
            // The same collectives over a sub-communicator.
            if let Some(h) = &sub {
                mpi.barrier_on(h).await;
                let sb = mpi.bcast_on(h, 0, if h.rank == 0 { Some(&mine) } else { None }).await;
                for b in sb.iter() {
                    acc = acc.wrapping_mul(29).wrapping_add(*b as u64);
                }
                for v in mpi.allreduce_f64_on(h, s.op, &xs).await {
                    acc = acc.rotate_left(3) ^ v.to_bits();
                }
                for part in mpi.alltoallv_on(h, &vec![mine.clone(); h.size()]).await {
                    for &b in part.iter() {
                        acc = acc.wrapping_mul(27).wrapping_add(b as u64);
                    }
                }
            }
            mpi.barrier().await;
        }
        acc
    })
}

/// Everything an observer could compare between two runs of the *same*
/// configuration.
fn observables(out: &RunResult<u64, BcsMpi>) -> (Vec<u64>, u128, u64, Vec<(u64, u64)>, String) {
    (
        out.results.clone(),
        out.elapsed.as_nanos() as u128,
        out.events,
        out.engine.checkpoints.to_vec(),
        format!("{:?}", out.engine.stats),
    )
}

const ALGOS: [CollAlgo; 3] = [
    CollAlgo::HwMulticast,
    CollAlgo::Binomial,
    CollAlgo::OptimalSchedule,
];

proplite! {
    #![config(cases = 16)]

    #[test]
    fn algorithms_are_value_transparent_on_both_fabrics(s in scenario_strategy()) {
        for fabric in [FabricKind::QsNet, FabricKind::Rdma] {
            let reference = run_scenario(cfg_with(fabric, CollAlgo::HwMulticast), &s);
            for algo in ALGOS {
                let run = run_scenario(cfg_with(fabric, algo), &s);
                prop_assert_eq!(
                    &reference.results,
                    &run.results,
                    "{:?} diverged from hw-multicast on {:?}: {:?}",
                    algo, fabric, &s
                );
            }
        }
    }

    #[test]
    fn every_algorithm_run_is_deterministic(s in scenario_strategy()) {
        for fabric in [FabricKind::QsNet, FabricKind::Rdma] {
            for algo in ALGOS {
                let a = run_scenario(cfg_with(fabric, algo), &s);
                let b = run_scenario(cfg_with(fabric, algo), &s);
                prop_assert_eq!(
                    observables(&a),
                    observables(&b),
                    "{:?} on {:?} is nondeterministic: {:?}",
                    algo, fabric, &s
                );
            }
        }
    }
}

/// Collective-dense async workload for the recovery runs: the crash slice
/// lands while barriers, reduces and allgatherv exchanges are in flight,
/// so the restore replays mid-collective protocol state (flag words, round
/// maps, blocked ranks) from the checkpoint image.
async fn coll_program(mut mpi: AsyncMpi, iters: u64) -> u64 {
    let me = mpi.rank();
    let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for it in 0..iters {
        mpi.compute(SimDuration::micros(120 + 31 * ((me as u64 + it) % 7))).await;
        let xs = [me as f64 + it as f64 * 0.25, (acc as u32) as f64];
        for v in mpi.allreduce_f64(ReduceOp::Sum, &xs).await {
            acc ^= v.to_bits();
        }
        let root = (it as usize) % mpi.size();
        let bytes: Vec<u8> = (0..64).map(|i| (root + i) as u8).collect();
        let got = mpi
            .bcast(root, if me == root { Some(&bytes) } else { None })
            .await;
        for b in got.iter() {
            acc = acc.wrapping_mul(31).wrapping_add(*b as u64);
        }
        let mine: Vec<u8> = (0..1 + (me + it as usize) % 9).map(|i| (me + i) as u8).collect();
        for part in mpi.allgatherv(&mine).await {
            for &b in part.iter() {
                acc = acc.wrapping_mul(29).wrapping_add(b as u64);
            }
        }
        mpi.barrier().await;
    }
    acc
}

#[test]
fn mid_collective_crash_recovers_bit_identically_under_every_algorithm() {
    for algo in ALGOS {
        let mut bcs = BcsConfig::default();
        bcs.coll_algo = algo;
        let rc = RecoveryCfg::new(bcs, 2);
        let layout = JobLayout::new(4, 1, 4);
        let reference =
            fault_free_reference(&rc, layout.clone(), |mpi: AsyncMpi| coll_program(mpi, 6)).results;
        let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 5);
        let out = run_with_recovery(&rc, layout, &plan, |mpi: AsyncMpi| coll_program(mpi, 6));
        assert!(out.completed, "{algo:?}: recovery failed: {:?}", out.abort);
        assert!(out.restarts >= 1, "{algo:?}: the crash must force a restore");
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            got, reference,
            "{algo:?}: recovered results diverged from the fault-free run"
        );
    }
}
