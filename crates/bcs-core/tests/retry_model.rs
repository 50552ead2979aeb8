//! The retry layer against the protocol it replaced: a test-local copy of
//! the token-and-timer retry, in which every attempt scheduled its delivery
//! callback through `fabric.put`/`fabric.get` behind a token check, and a
//! timeout that found the token consumed whenever the attempt had landed.
//!
//! Random scripts of reliable puts and gets — sizes on both sides of
//! `CTRL_BYTES`, drops planned by bulk sequence number, endpoints killed
//! before (or while) transfers are issued, policies with and without a
//! grace period — run once under each. They must deliver and abort at the
//! same instants in the same order, count the same retries and aborts and
//! leave the fabric with the same counters; and the layer must schedule
//! exactly one event per attempt: the delivery of one that lands, the
//! timeout of one that is lost.

use bcs_core::retry::{RetryPolicy, reliable_get, reliable_put};
use bcs_core::{BcsCluster, BcsWorld};
use proplite::prelude::*;
use qsnet::fabric::CTRL_BYTES;
use qsnet::{NetModel, NodeId, QsNetFabric};
use simcore::{Sim, SimDuration, SimTime};
use std::collections::HashSet;
use std::rc::Rc;

const NODES: u8 = 4;

/// One reliable transfer of a script: a get pulls from `dst` to `src`.
#[derive(Clone, Copy, Debug)]
struct Xfer {
    get: bool,
    src: u8,
    dst: u8,
    bytes: u64,
    policy: RetryPolicy,
}

#[derive(Clone, Debug)]
enum Op {
    Xfer(Xfer),
    Kill(u8),
    Wait(u16),
}

/// A delivery or an abort: `(instant ns, transfer index, delivered)`.
type Outcome = (u64, usize, bool);

/// The cluster, what happened to each transfer, and the old protocol's
/// state (left untouched by a run of the layer under test).
struct World {
    bcs: BcsCluster<World>,
    log: Vec<Outcome>,
    next_token: u64,
    outstanding: HashSet<u64>,
    retries: u64,
    aborts: u64,
}

impl BcsWorld for World {
    fn bcs(&mut self) -> &mut BcsCluster<World> {
        &mut self.bcs
    }
}

type Hook = Rc<dyn Fn(&mut World, &mut Sim<World>)>;

/// The old protocol: a token per transfer; every attempt's delivery
/// consumes it if it is still outstanding, and every attempt's timeout
/// returns at once if it is not.
fn old_start(w: &mut World, sim: &mut Sim<World>, x: Xfer, on_deliver: Hook, on_abort: Hook) {
    let token = w.next_token;
    w.next_token += 1;
    w.outstanding.insert(token);
    old_attempt(w, sim, x, token, 0, on_deliver, on_abort);
}

fn old_attempt(w: &mut World, sim: &mut Sim<World>, x: Xfer, token: u64, n: u32, on_deliver: Hook, on_abort: Hook) {
    let deliver = Rc::clone(&on_deliver);
    let cb = move |w: &mut World, sim: &mut Sim<World>| {
        if w.outstanding.remove(&token) {
            deliver(w, sim);
        }
    };
    let (src, dst) = (NodeId(x.src as usize), NodeId(x.dst as usize));
    let expect = match x.get {
        false => w.bcs.fabric.put(sim, src, dst, x.bytes, cb),
        true => w.bcs.fabric.get(sim, src, dst, x.bytes, cb),
    };
    let grace = x.policy.timeout * (x.policy.backoff as u64).pow(n);
    sim.schedule_at(expect + grace, move |w: &mut World, sim: &mut Sim<World>| {
        if !w.outstanding.contains(&token) {
            return;
        }
        if n >= x.policy.max_retries {
            w.outstanding.remove(&token);
            w.aborts += 1;
            on_abort(w, sim);
        } else {
            w.retries += 1;
            old_attempt(w, sim, x, token, n + 1, on_deliver, on_abort);
        }
    });
}

/// What a run leaves to compare.
struct Run {
    log: Vec<Outcome>,
    /// `(retries, aborts)`
    counts: (u64, u64),
    /// The fabric's counters, printed.
    stats: String,
    /// Attempts issued: puts plus gets.
    attempts: u64,
    events: u64,
    /// Events the script itself scheduled: one per transfer and per kill.
    script_events: u64,
}

/// Run `ops` under the old protocol or the layer under test.
fn run(ops: &[Op], drops: &[u64], old: bool) -> Run {
    let fabric = Box::new(QsNetFabric::new(NetModel::qsnet(), NODES as usize));
    let mut w = World {
        bcs: BcsCluster::new(fabric),
        log: Vec::new(),
        next_token: 0,
        outstanding: HashSet::new(),
        retries: 0,
        aborts: 0,
    };
    w.bcs.fabric.net_mut().plan_drops(drops.to_vec());
    let mut sim: Sim<World> = Sim::new();
    let (mut at, mut script_events, mut transfers) = (SimTime::ZERO, 0, 0);
    for op in ops {
        match *op {
            Op::Wait(us) => at += SimDuration::micros(us as u64),
            Op::Kill(node) => {
                script_events += 1;
                sim.schedule_at(at, move |w: &mut World, _| w.bcs.fabric.net_mut().kill_node(NodeId(node as usize)));
            }
            Op::Xfer(x) => {
                let id = transfers;
                transfers += 1;
                script_events += 1;
                let deliver = move |w: &mut World, sim: &mut Sim<World>| w.log.push((sim.now().0, id, true));
                let abort = move |w: &mut World, sim: &mut Sim<World>| w.log.push((sim.now().0, id, false));
                sim.schedule_at(at, move |w: &mut World, sim: &mut Sim<World>| {
                    let (src, dst) = (NodeId(x.src as usize), NodeId(x.dst as usize));
                    match (old, x.get) {
                        (true, _) => old_start(w, sim, x, Rc::new(deliver), Rc::new(abort)),
                        (false, false) => reliable_put(w, sim, src, dst, x.bytes, x.policy, deliver, abort),
                        (false, true) => reliable_get(w, sim, src, dst, x.bytes, x.policy, deliver, abort),
                    }
                });
            }
        }
    }
    sim.run(&mut w);
    let stats = *w.bcs.fabric.net().stats();
    Run {
        counts: match old {
            true => (w.retries, w.aborts),
            false => (w.bcs.retry.retries, w.bcs.retry.aborts),
        },
        log: w.log,
        stats: format!("{stats:?}"),
        attempts: stats.puts + stats.gets,
        events: sim.events_executed(),
        script_events,
    }
}

fn policy() -> impl Strategy<Value = RetryPolicy> {
    let timeout_us = prop_oneof![Just(0u64), 1u64..120];
    (timeout_us, 1u32..4, 0u32..5).prop_map(|(us, backoff, max_retries)| RetryPolicy {
        timeout: SimDuration::micros(us),
        backoff,
        max_retries,
    })
}

fn op() -> impl Strategy<Value = Op> {
    let bytes = prop_oneof![1u64..CTRL_BYTES + 1, CTRL_BYTES + 1..200_000];
    let xfer = (any::<bool>(), 0..NODES, 0..NODES, bytes, policy())
        .prop_map(|(get, src, dst, bytes, policy)| Op::Xfer(Xfer { get, src, dst, bytes, policy }));
    prop_oneof![
        8 => xfer,
        1 => (0..NODES).prop_map(Op::Kill),
        3 => (0u16..300).prop_map(Op::Wait),
    ]
}

proplite! {
    #![config(cases = 128)]

    #[test]
    fn retry_matches_the_token_and_timer_protocol(
        ops in prop::collection::vec(op(), 1..40),
        drops in prop::collection::vec(0u64..30, 0..12),
    ) {
        let new = run(&ops, &drops, false);
        let old = run(&ops, &drops, true);
        prop_assert_eq!(&new.log, &old.log, "delivery and abort instants and order");
        prop_assert_eq!(new.counts, old.counts, "(retries, aborts)");
        prop_assert_eq!(&new.stats, &old.stats, "fabric counters");
        prop_assert_eq!(new.events, new.script_events + new.attempts, "one event per attempt");
        // The old protocol also ran a no-op timeout after every landed attempt.
        let delivered = new.log.iter().filter(|o| o.2).count() as u64;
        prop_assert_eq!(new.events + delivered, old.events, "one no-op timeout per delivery");
    }
}
