//! `simcore::Sim`'s run-chained event queue against the order it claims to
//! implement: a `BTreeMap<(time, seq), id>` where `seq` counts `schedule_*`
//! calls. Random event programs — forests of events that schedule their
//! children when they run, most of them for the current instant, inline and
//! boxed captures mixed — are executed on both; a run stops in the middle
//! (`run_until`), more events are scheduled from outside a handler, and the
//! rest is stepped one event at a time under a horizon. Both must visit the
//! same ids in the same order with the same number pending after every
//! step, and every capture must be consumed or dropped exactly once.

use proplite::prelude::*;
use simcore::{Sim, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;

#[derive(Clone, Debug)]
struct Node {
    /// Delay from the scheduling instant; 0 (same instant) is the common case.
    delay: u64,
    /// Capture padded past the inline budget, so the cell holds a box.
    big: bool,
    children: Vec<usize>,
}

struct World {
    prog: Rc<Vec<Node>>,
    /// One clone per pending event's capture.
    token: Rc<()>,
    log: Vec<usize>,
}

fn schedule(sim: &mut Sim<World>, w: &World, id: usize) {
    let (delay, big) = (SimDuration::nanos(w.prog[id].delay), w.prog[id].big);
    let token = Rc::clone(&w.token);
    let run = move |w: &mut World, sim: &mut Sim<World>| {
        drop(token);
        w.log.push(id);
        let prog = Rc::clone(&w.prog);
        for &c in &prog[id].children {
            schedule(sim, w, c);
        }
    };
    if big {
        let pad = [id as u64; 8];
        sim.schedule_in(delay, move |w, sim| {
            std::hint::black_box(&pad);
            run(w, sim)
        });
    } else {
        sim.schedule_in(delay, run);
    }
}

/// The specification: events keyed by `(time, schedule-call ordinal)`.
struct Model<'a> {
    prog: &'a [Node],
    queue: BTreeMap<(u64, u64), usize>,
    now: u64,
    seq: u64,
    horizon: Option<u64>,
    log: Vec<usize>,
}

impl Model<'_> {
    fn schedule(&mut self, id: usize) {
        self.queue.insert((self.now + self.prog[id].delay, self.seq), id);
        self.seq += 1;
    }

    fn step(&mut self) -> bool {
        let Some((&(t, seq), &id)) = self.queue.first_key_value() else {
            return false;
        };
        if self.horizon.is_some_and(|h| t > h) {
            return false;
        }
        self.queue.remove(&(t, seq));
        self.now = t;
        self.log.push(id);
        for c in self.prog[id].children.clone() {
            self.schedule(c);
        }
        true
    }
}

/// `(delay, big, parent selector)` per node: node `i` is a root when the
/// selector says so (or `i == 0`), else a child of an earlier node.
fn programs() -> impl Strategy<Value = Vec<(u64, bool, u16)>> {
    let delay = prop_oneof![5 => Just(0u64), 1 => 1u64..4];
    prop::collection::vec((delay, any::<bool>(), any::<u16>()), 1..64)
}

proplite! {
    #![config(cases = 256)]

    #[test]
    fn visits_events_in_time_then_schedule_order(
        raw in programs(),
        late in prop::collection::vec(0usize..64, 0..6),
        stop_at in 0usize..40,
        horizon in prop_oneof![Just(None), (0u64..8).prop_map(Some)],
    ) {
        let mut prog: Vec<Node> = Vec::new();
        let mut roots = Vec::new();
        for (i, &(delay, big, sel)) in raw.iter().enumerate() {
            prog.push(Node { delay, big, children: Vec::new() });
            if i == 0 || sel % 4 == 0 {
                roots.push(i);
            } else {
                prog[(sel as usize / 4) % i].children.push(i);
            }
        }
        let prog = Rc::new(prog);
        let token = Rc::new(());
        let mut w = World { prog: Rc::clone(&prog), token: Rc::clone(&token), log: Vec::new() };
        let mut sim: Sim<World> = Sim::new();
        let mut m = Model { prog: &prog, queue: BTreeMap::new(), now: 0, seq: 0, horizon, log: Vec::new() };
        if let Some(h) = horizon {
            sim.set_horizon(SimTime(h));
        }
        for &r in &roots {
            schedule(&mut sim, &w, r);
            m.schedule(r);
        }

        // Stop in the middle of whatever run the `stop_at`-th event is in.
        let fired = sim.run_until(&mut w, |w| w.log.len() >= stop_at);
        while m.log.len() < stop_at && m.step() {}
        prop_assert_eq!(fired, m.log.len() >= stop_at);
        prop_assert_eq!(&w.log, &m.log, "order up to the stop");
        prop_assert_eq!(sim.pending(), m.queue.len());

        // Schedule from outside a handler: joins the order after everything
        // scheduled so far, the half-executed run's remainder included.
        for &id in &late {
            let id = id % prog.len();
            schedule(&mut sim, &w, id);
            m.schedule(id);
        }

        loop {
            prop_assert_eq!(sim.pending(), m.queue.len());
            prop_assert_eq!(Rc::strong_count(&token) - 2, sim.pending(), "one live capture per pending event");
            let (a, b) = (sim.step(&mut w), m.step());
            prop_assert_eq!(a, b, "one side stopped early");
            prop_assert_eq!(&w.log, &m.log);
            prop_assert_eq!(sim.now().0, m.now);
            if !a {
                break;
            }
        }
        prop_assert_eq!(sim.events_executed() as usize, m.log.len());
        prop_assert!(sim.heap_pushes() <= m.seq, "at most one heap entry per event");
        // Whatever the horizon left queued — chained or not, inline or
        // boxed — is dropped with the simulator, once.
        drop(sim);
        prop_assert_eq!(Rc::strong_count(&token), 2);
    }
}

/// 64 timers that fire together and re-arm for the same next instant are
/// one run per period: 1000 heap pushes, not 64 000.
#[test]
fn lockstep_timers_cost_one_heap_push_per_period() {
    const TIMERS: u64 = 64;
    const PERIODS: u64 = 1000;
    fn arm(sim: &mut Sim<u64>, left: u64) {
        if left > 0 {
            sim.schedule_in(SimDuration::micros(500), move |fired: &mut u64, sim| {
                *fired += 1;
                arm(sim, left - 1);
            });
        }
    }
    let mut sim: Sim<u64> = Sim::new();
    let mut fired = 0u64;
    for _ in 0..TIMERS {
        arm(&mut sim, PERIODS);
    }
    sim.run(&mut fired);
    assert_eq!(fired, TIMERS * PERIODS);
    assert_eq!(sim.events_executed(), TIMERS * PERIODS);
    assert_eq!(sim.heap_pushes(), PERIODS);
}
