//! The MM ⇄ NM heartbeat protocol.
//!
//! The Machine Manager "coordinates the use of system resources issuing
//! regular heartbeats" (§4.1). Each heartbeat is one `Xfer-And-Signal`
//! multicast; every live NM answers by bumping a global ack word, and the
//! MM verifies liveness with one `Compare-And-Write` — so failure detection
//! costs two collective wire operations per period regardless of node
//! count.

use crate::StormWorld;
use bcs_core::{BcsCluster, BcsWorld, CmpOp, XsOpts};
use qsnet::NodeId;
use simcore::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

/// Global word: per-node count of acknowledged heartbeats.
const WORD_ACK: u32 = 200;

/// Where the monitor runs: the strobing management node and the compute
/// nodes it watches.
#[derive(Clone, Debug)]
pub struct HeartbeatConfig {
    pub period: SimDuration,
    /// Node issuing the strobes (the MM).
    pub mgmt: NodeId,
    /// Nodes expected to acknowledge.
    pub nodes: Vec<NodeId>,
}

/// Failure callback: `(world, sim, dead node, beat at which it was caught)`.
pub type DetectFn<W> = Rc<dyn Fn(&mut W, &mut Sim<W>, NodeId, u64)>;

/// Shared state of a heartbeat monitor.
pub struct HeartbeatMonitor {
    pub period: SimDuration,
    /// Nodes currently considered dead (their NM stopped acking).
    pub dead: Vec<NodeId>,
    /// Nodes whose NM is silenced (fault injection).
    pub silenced: Vec<NodeId>,
    /// Heartbeats issued so far.
    pub beats: u64,
    /// (beat, node) pairs at which failures were detected.
    pub detections: Vec<(u64, NodeId)>,
    running: bool,
}

pub type MonitorRef = Rc<RefCell<HeartbeatMonitor>>;

/// Create a monitor and start its periodic strobe on the STORM world.
pub fn start(w: &mut StormWorld, sim: &mut Sim<StormWorld>, period: SimDuration) -> MonitorRef {
    let cfg = HeartbeatConfig {
        period,
        mgmt: w.mgmt,
        nodes: w.nodes(),
    };
    start_on(w, sim, cfg, None)
}

/// Create a monitor on any world embedding a BCS cluster (the MPI engine's
/// world, a STORM world, a test rig). `on_detect` runs once per newly
/// declared dead node, in addition to the monitor's own bookkeeping — the
/// MM uses it to halt the machine and begin recovery.
///
/// The per-node ack words are reset at start, so a monitor installed over
/// *restored* control memory (whose ack counts are from a previous
/// incarnation) cannot mistake a stale high count for liveness.
pub fn start_on<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    cfg: HeartbeatConfig,
    on_detect: Option<DetectFn<W>>,
) -> MonitorRef {
    let m = Rc::new(RefCell::new(HeartbeatMonitor {
        period: cfg.period,
        dead: Vec::new(),
        silenced: Vec::new(),
        beats: 0,
        detections: Vec::new(),
        running: true,
    }));
    for &n in &cfg.nodes {
        w.bcs().set_word(n, WORD_ACK, 0);
    }
    schedule_beat(sim, Rc::clone(&m), Rc::new(cfg), on_detect.map(Rc::new));
    m
}

/// Stop issuing heartbeats (ends the simulation's periodic events).
pub fn stop(m: &MonitorRef) {
    m.borrow_mut().running = false;
}

/// Fault injection: the NM on `node` stops acknowledging.
pub fn silence(m: &MonitorRef, node: NodeId) {
    m.borrow_mut().silenced.push(node);
}

fn schedule_beat<W: BcsWorld>(
    sim: &mut Sim<W>,
    m: MonitorRef,
    cfg: Rc<HeartbeatConfig>,
    on_detect: Option<Rc<DetectFn<W>>>,
) {
    let period = m.borrow().period;
    sim.schedule_in(period, move |w: &mut W, sim| beat(w, sim, m, cfg, on_detect));
}

fn beat<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    m: MonitorRef,
    cfg: Rc<HeartbeatConfig>,
    on_detect: Option<Rc<DetectFn<W>>>,
) {
    if !m.borrow().running {
        return;
    }
    let beat_no = {
        let mut mm = m.borrow_mut();
        mm.beats += 1;
        mm.beats
    };
    let mgmt = cfg.mgmt;
    // Strobe: every live NM acks by bumping its WORD_ACK. A fabric-dead
    // node never receives the strobe (the delivery is suppressed), so its
    // ack word freezes — no NM cooperation needed for fail-stop detection.
    let m_ack = Rc::clone(&m);
    let per_dest: bcs_core::DeliverFn<W> = Rc::new(move |w: &mut W, _sim, reached| {
        for node in reached.nodes() {
            if !m_ack.borrow().silenced.contains(&node) {
                w.bcs().add_word(node, WORD_ACK, 1);
            }
        }
    });
    BcsCluster::xfer_and_signal(
        w,
        sim,
        mgmt,
        &cfg.nodes,
        64,
        XsOpts { on_deliver: Some(per_dest) },
    );
    // Liveness check: all acks must have reached this beat's count.
    let m_chk = Rc::clone(&m);
    let watched = cfg.nodes.clone();
    BcsCluster::compare_and_write(
        w,
        sim,
        mgmt,
        &watched,
        WORD_ACK,
        CmpOp::Ge,
        beat_no as i64,
        None,
        move |w: &mut W, sim, ok| {
            if !ok {
                // Identify the dead node(s) by direct inspection (the real
                // MM would bisect with further conditionals).
                let mut fresh = Vec::new();
                {
                    let mut mm = m_chk.borrow_mut();
                    for &nd in &cfg.nodes {
                        if w.bcs().word(nd, WORD_ACK) < beat_no as i64
                            && !mm.dead.contains(&nd)
                        {
                            mm.dead.push(nd);
                            mm.detections.push((beat_no, nd));
                            fresh.push(nd);
                        }
                    }
                }
                if let Some(cb) = &on_detect {
                    for nd in fresh {
                        cb(w, sim, nd, beat_no);
                    }
                }
            }
            schedule_beat(sim, Rc::clone(&m_chk), cfg, on_detect);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnet::NetModel;
    use simcore::SimTime;

    #[test]
    fn healthy_cluster_never_detects_failures() {
        let mut w = StormWorld::new(NetModel::qsnet(), 16);
        let mut sim: Sim<StormWorld> = Sim::new();
        let m = start(&mut w, &mut sim, SimDuration::millis(10));
        sim.set_horizon(SimTime::ZERO + SimDuration::secs(1));
        sim.run(&mut w);
        let mm = m.borrow();
        assert!(mm.beats >= 90, "expected ~100 beats, got {}", mm.beats);
        assert!(mm.dead.is_empty());
    }

    #[test]
    fn silenced_node_is_detected_within_one_period() {
        let mut w = StormWorld::new(NetModel::qsnet(), 16);
        let mut sim: Sim<StormWorld> = Sim::new();
        let m = start(&mut w, &mut sim, SimDuration::millis(10));
        // Kill node 5's NM at t = 250 ms.
        let m2 = Rc::clone(&m);
        sim.schedule_at(
            SimTime::ZERO + SimDuration::millis(250),
            move |_w: &mut StormWorld, _sim| silence(&m2, NodeId(5)),
        );
        sim.set_horizon(SimTime::ZERO + SimDuration::millis(400));
        sim.run(&mut w);
        let mm = m.borrow();
        assert_eq!(mm.dead, vec![NodeId(5)]);
        let (beat, _) = mm.detections[0];
        // Silenced at beat ~25; must be caught by beat 27.
        assert!(
            (25..=27).contains(&beat),
            "detected at beat {beat}, expected ~26"
        );
    }

    #[test]
    fn stop_quiesces_the_monitor() {
        let mut w = StormWorld::new(NetModel::qsnet(), 4);
        let mut sim: Sim<StormWorld> = Sim::new();
        let m = start(&mut w, &mut sim, SimDuration::millis(5));
        let m2 = Rc::clone(&m);
        sim.schedule_at(
            SimTime::ZERO + SimDuration::millis(52),
            move |_w: &mut StormWorld, _sim| stop(&m2),
        );
        sim.run(&mut w); // must terminate (no horizon needed)
        assert!(m.borrow().beats <= 11);
    }
}
