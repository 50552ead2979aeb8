//! Job launching (the STORM flagship result).
//!
//! STORM launches a parallel job in three steps, each a BCS core operation:
//!
//! 1. the MM **multicasts the binary image** to all nodes with one
//!    `Xfer-And-Signal` (hardware multicast on QsNet: the transfer time is
//!    independent of the node count);
//! 2. each NM writes the image to its RAM-disk and forks the local
//!    processes (per-node local cost);
//! 3. the MM polls a **global ready flag** with `Compare-And-Write` and then
//!    multicasts "go".
//!
//! Production launchers of the era (rsh trees, daemons over TCP) took
//! seconds to minutes for the same job sizes; the point reproduced here is
//! the *flat scaling* with node count.

use crate::StormWorld;
use bcs_core::{BcsCluster, CmpOp, XsOpts};
use simcore::{Sim, SimDuration, SimTime};
use std::rc::Rc;

/// Global word: number of nodes ready to start the job.
const WORD_READY: u32 = 100;

/// Cost model of the node-local part of a launch.
#[derive(Clone, Debug)]
pub struct LaunchCost {
    /// Writing the image to the local RAM disk, per byte.
    pub write_ns_per_byte: f64,
    /// Forking and exec'ing one process.
    pub fork: SimDuration,
    /// MM poll interval for the ready flag.
    pub poll: SimDuration,
}

impl Default for LaunchCost {
    fn default() -> Self {
        LaunchCost {
            // ~500 MB/s RAM-disk write.
            write_ns_per_byte: 2.0,
            fork: SimDuration::millis(1),
            poll: SimDuration::micros(100),
        }
    }
}

/// Outcome of a simulated job launch.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    pub nodes: usize,
    pub image_bytes: u64,
    pub procs_per_node: usize,
    /// Time from the MM issuing the launch to the "go" multicast delivery.
    pub total: SimDuration,
}

/// Launch a job: returns the report through `done`.
pub fn launch_job(
    w: &mut StormWorld,
    sim: &mut Sim<StormWorld>,
    image_bytes: u64,
    procs_per_node: usize,
    cost: LaunchCost,
    done: impl FnOnce(&mut StormWorld, &mut Sim<StormWorld>, LaunchReport) + 'static,
) {
    let start = sim.now();
    let mgmt = w.mgmt;
    let nodes = w.nodes();
    let n = nodes.len();

    // Step 1+2: image multicast; on delivery each NM writes + forks, then
    // bumps the global ready word.
    let cost2 = cost.clone();
    let per_dest: bcs_core::DeliverFn<StormWorld> =
        Rc::new(move |_w: &mut StormWorld, sim: &mut Sim<StormWorld>, reached| {
            let local = SimDuration::nanos(
                (image_bytes as f64 * cost2.write_ns_per_byte) as u64,
            ) + cost2.fork * procs_per_node as u64;
            for node in reached.nodes() {
                sim.schedule_in(local, move |w: &mut StormWorld, _sim| {
                    w.bcs.add_word(node, WORD_READY, 1);
                });
            }
        });
    BcsCluster::xfer_and_signal(
        w,
        sim,
        mgmt,
        &nodes,
        image_bytes,
        XsOpts { on_deliver: Some(per_dest) },
    );

    // Step 3: poll the ready flag, then multicast "go".
    poll_ready(w, sim, start, n, cost, Box::new(done), image_bytes, procs_per_node);
}

#[allow(clippy::too_many_arguments)]
fn poll_ready(
    w: &mut StormWorld,
    sim: &mut Sim<StormWorld>,
    start: SimTime,
    n: usize,
    cost: LaunchCost,
    done: Box<dyn FnOnce(&mut StormWorld, &mut Sim<StormWorld>, LaunchReport)>,
    image_bytes: u64,
    procs_per_node: usize,
) {
    let mgmt = w.mgmt;
    let nodes = w.nodes();
    BcsCluster::compare_and_write(
        w,
        sim,
        mgmt,
        &nodes,
        WORD_READY,
        CmpOp::Ge,
        1,
        None,
        move |w: &mut StormWorld, sim: &mut Sim<StormWorld>, ok| {
            if !ok {
                let poll = cost.poll;
                sim.schedule_in(poll, move |w: &mut StormWorld, sim| {
                    poll_ready(w, sim, start, n, cost, done, image_bytes, procs_per_node);
                });
                return;
            }
            // All ready: clear flags and multicast "go".
            let nodes = w.nodes();
            for &nd in &nodes {
                w.bcs.set_word(nd, WORD_READY, 0);
            }
            let mgmt = w.mgmt;
            let go_at = BcsCluster::xfer_and_signal(
                w,
                sim,
                mgmt,
                &nodes,
                64,
                XsOpts::default(),
            );
            sim.schedule_at(go_at, move |w: &mut StormWorld, sim| {
                let report = LaunchReport {
                    nodes: n,
                    image_bytes,
                    procs_per_node,
                    total: sim.now().since(start),
                };
                done(w, sim, report);
            });
        },
    );
}

/// Convenience: run one launch to completion on a fresh world and return
/// the report (used by the benches and Table sweeps).
pub fn measure_launch(
    net: qsnet::NetModel,
    compute_nodes: usize,
    image_bytes: u64,
    procs_per_node: usize,
) -> LaunchReport {
    let mut w = StormWorld::new(net, compute_nodes);
    let mut sim: Sim<StormWorld> = Sim::new();
    let out: std::rc::Rc<std::cell::RefCell<Option<LaunchReport>>> =
        Rc::new(std::cell::RefCell::new(None));
    let out2 = Rc::clone(&out);
    sim.schedule_at(SimTime::ZERO, move |w: &mut StormWorld, sim| {
        launch_job(
            w,
            sim,
            image_bytes,
            procs_per_node,
            LaunchCost::default(),
            move |_w, _sim, report| {
                *out2.borrow_mut() = Some(report);
            },
        );
    });
    sim.run(&mut w);
    Rc::try_unwrap(out)
        .ok()
        .expect("launch callback retained")
        .into_inner()
        .expect("launch did not complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnet::NetModel;

    #[test]
    fn launch_completes_and_reports() {
        let r = measure_launch(NetModel::qsnet(), 32, 8 * 1024 * 1024, 2);
        assert_eq!(r.nodes, 32);
        // 8 MB at 320 MB/s ≈ 25 ms + 16 ms write + 2 ms fork + polls.
        let ms = r.total.as_millis_f64();
        assert!((25.0..80.0).contains(&ms), "launch took {ms:.1}ms");
    }

    #[test]
    fn launch_time_is_nearly_flat_in_node_count() {
        // The STORM claim: hardware multicast makes dissemination
        // independent of n.
        let t4 = measure_launch(NetModel::qsnet(), 4, 4 * 1024 * 1024, 2);
        let t32 = measure_launch(NetModel::qsnet(), 32, 4 * 1024 * 1024, 2);
        let ratio = t32.total.as_secs_f64() / t4.total.as_secs_f64();
        assert!(
            ratio < 1.2,
            "launch time grew {ratio:.2}x from 4 to 32 nodes"
        );
    }

    #[test]
    fn launch_scales_linearly_with_image_size() {
        let small = measure_launch(NetModel::qsnet(), 16, 1024 * 1024, 1);
        let big = measure_launch(NetModel::qsnet(), 16, 16 * 1024 * 1024, 1);
        let ratio = big.total.as_secs_f64() / small.total.as_secs_f64();
        assert!(
            (6.0..20.0).contains(&ratio),
            "16x image gave {ratio:.1}x launch time"
        );
    }

    #[test]
    fn software_tree_networks_launch_slower() {
        let qs = measure_launch(NetModel::qsnet(), 32, 4 * 1024 * 1024, 1);
        let myri = measure_launch(NetModel::myrinet(), 32, 4 * 1024 * 1024, 1);
        assert!(
            myri.total > qs.total * 2,
            "software-tree multicast should be much slower: qsnet {} vs myrinet {}",
            qs.total,
            myri.total
        );
    }
}
