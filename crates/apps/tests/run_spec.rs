//! [`RunSpec`] as a value — its one-line `Display` is made of the labels the
//! axis parsers accept — and [`run_app`]'s failure message, which names it.

use apps::runner::{RunSpec, run_app};
use bcs_mpi::BcsConfig;
use mpi_api::MpiCall;
use mpi_api::coll_sched::CollAlgo;
use mpi_api::runtime::JobLayout;
use qsnet::FabricKind;
use simcore::SimDuration;

/// The line `Display` prints is made of the labels the axis parsers
/// (and so `repro --fabric`/`--coll`) accept, for every lattice cell.
#[test]
fn display_round_trips_through_the_axis_parsers() {
    for kind in FabricKind::ALL {
        for algo in CollAlgo::ALL {
            for base in [RunSpec::bcs(), RunSpec::quadrics()] {
                let spec = base.with_fabric(kind).with_coll_algo(algo);
                assert_eq!((spec.fabric(), spec.coll_algo()), (kind, algo));
                let line = spec.to_string();
                let cell: Vec<&str> = line.split('/').collect();
                assert_eq!(FabricKind::from_label(cell[1]), Some(kind), "{line}");
                assert_eq!(CollAlgo::from_label(cell[2]), Some(algo), "{line}");
            }
        }
    }
    assert_eq!(FabricKind::from_label("rmda"), None);
}

#[test]
fn display_prints_the_documented_lines() {
    assert_eq!(RunSpec::bcs().to_string(), "bcs/qsnet/hw-multicast/sched=on/coalesce=off");
    assert_eq!(RunSpec::quadrics().to_string(), "quadrics/qsnet/hw-multicast");
    let cfg = BcsConfig { coalesce: true, ..BcsConfig::default() };
    let spec = RunSpec::from(cfg)
        .with_fabric(FabricKind::Rdma)
        .with_coll_algo(CollAlgo::OptimalSchedule);
    assert_eq!(spec.to_string(), "bcs/rdma/optimal/sched=on/coalesce=on");
    assert_ne!(spec, RunSpec::bcs());
}

/// Two ranks that each wait for the other to send first: the strobes
/// keep the simulation alive, so it is the horizon that ends the run, and
/// the panic says which configuration hung and where every rank is stuck.
#[test]
fn a_stuck_run_names_its_spec_and_its_stuck_ranks() {
    let spec = RunSpec { horizon: SimDuration::millis(20), ..RunSpec::bcs() };
    let hung = std::panic::catch_unwind(|| {
        run_app(&spec, JobLayout::new(2, 1, 2), |mut mpi: mpi_api::AsyncMpi| async move {
            let peer = 1 - mpi.rank();
            mpi.recv_from(peer, 0).await;
            mpi.send(peer, 0, &[1u8]).await;
        })
    });
    let Err(payload) = hung else { panic!("a deadlocked job completed") };
    let msg = payload.downcast_ref::<String>().expect("panic message");
    assert!(msg.starts_with("bcs/qsnet/hw-multicast/sched=on/coalesce=off: "), "{msg}");
    assert!(msg.contains("rank 1: parked in recv since t="), "{msg}");
}

/// A rank stuck inside a batch is parked in the sub-call it is stuck in,
/// since the instant that sub-call was issued, not in the batch: the batch
/// path names each sub-call as it issues it, on both engines. Each rank
/// computes for 1 ms and then sends its peer a rendezvous-sized message
/// (blocking on either engine) that the peer never receives.
#[test]
fn a_rank_stuck_inside_a_batch_is_parked_in_its_sub_call() {
    for base in [RunSpec::bcs(), RunSpec::quadrics()] {
        let spec = RunSpec { horizon: SimDuration::millis(20), ..base };
        let hung = std::panic::catch_unwind(|| {
            run_app(&spec, JobLayout::new(2, 1, 2), |mut mpi: mpi_api::AsyncMpi| async move {
                let send = MpiCall::Send {
                    dest: 1 - mpi.rank(),
                    tag: 0,
                    data: vec![1u8; 64 * 1024].into(),
                    blocking: true,
                };
                mpi.batch(vec![mpi.compute_desc(SimDuration::millis(1)), send]).await;
            })
        });
        let Err(payload) = hung else { panic!("{spec}: a deadlocked job completed") };
        let msg = payload.downcast_ref::<String>().expect("panic message");
        for rank in 0..2 {
            let line = format!("rank {rank}: parked in send since t=1.000ms");
            assert!(msg.contains(&line), "{spec}: {msg}");
        }
    }
}

/// The report keeps the engine the run finished on: one 4 KiB message shows
/// in either engine's fabric counters and, on BCS-MPI, in its own.
#[test]
fn the_report_keeps_the_finished_engine() {
    for spec in [RunSpec::bcs(), RunSpec::quadrics()] {
        let out = run_app(&spec, JobLayout::new(2, 1, 2), |mut mpi: mpi_api::AsyncMpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 0, &[7u8; 4096]).await;
            } else {
                mpi.recv_from(0, 0).await;
            }
        });
        let wire = out.engine.fabric_stats();
        assert!(wire.put_bytes + wire.get_bytes >= 4096, "{spec}: {wire:?}");
        if spec == RunSpec::bcs() {
            assert_eq!(out.engine.bcs().stats.p2p_bytes, 4096, "{spec}");
        }
    }
}
