//! `simcore::Sim`'s run-chained event queue against the order it claims to
//! implement: a `BTreeMap<(time, seq), id>` where `seq` counts `schedule_*`
//! calls. Random event programs — forests of events that schedule their
//! children when they run, most of them for the current instant, inline and
//! boxed captures mixed — are executed on both; a run stops in the middle
//! (`run_until`), more events are scheduled from outside a handler, and the
//! rest is stepped one event at a time under a horizon. Both must visit the
//! same ids in the same order with the same number pending after every
//! step, and every capture must be consumed or dropped exactly once.
//!
//! The queue is a radix queue that files an entry by the highest bit in
//! which its time differs from the current instant, so the programs come in
//! two delay distributions: short delays (`0..4`, the lowest buckets only)
//! and wide ones — powers of two and their neighbours up to `2^40`,
//! instants that differ from the current one in a single high bit — whose
//! runs also resume after the horizon stop with events scheduled between
//! the stop instant and the next pending one.

use proplite::prelude::*;
use simcore::{Sim, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;

/// When a node's event fires, relative to the instant it is scheduled at.
#[derive(Clone, Copy, Debug)]
enum Delay {
    /// `now + d`.
    In(u64),
    /// `now` with bit `k` — or, when that bit is set, the lowest clear bit
    /// above it — set: an instant that differs from `now` in one high bit.
    HighBit(u32),
}

impl Delay {
    fn at(self, now: u64) -> u64 {
        match self {
            Delay::In(d) => now + d,
            Delay::HighBit(k) => now | 1 << (k + (!now >> k).trailing_zeros()),
        }
    }
}

#[derive(Clone, Debug)]
struct Node {
    delay: Delay,
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
    let at = w.prog[id].delay.at(sim.now().0);
    schedule_at(sim, w, id, at);
}

fn schedule_at(sim: &mut Sim<World>, w: &World, id: usize, at: u64) {
    let big = w.prog[id].big;
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
        sim.schedule_at(SimTime(at), move |w, sim| {
            std::hint::black_box(&pad);
            run(w, sim)
        });
    } else {
        sim.schedule_at(SimTime(at), run);
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
        self.schedule_at(id, self.prog[id].delay.at(self.now));
    }

    fn schedule_at(&mut self, id: usize, at: u64) {
        self.queue.insert((at, self.seq), id);
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

type Raw = Vec<(Delay, bool, u16)>;

/// `(delay, big, parent selector)` per node: node `i` is a root when the
/// selector says so (or `i == 0`), else a child of an earlier node.
fn programs() -> impl Strategy<Value = Raw> {
    let delay = prop_oneof![5 => Just(0u64), 1 => 1u64..4].prop_map(Delay::In);
    prop::collection::vec((delay, any::<bool>(), any::<u16>()), 1..64)
}

/// [`programs`] with the short delays mixed with wide ones: `2^k` and
/// `2^k ± 1` for `k` in `0..40`, single-high-bit instants, and delays
/// around `2^40`.
fn wide_programs() -> impl Strategy<Value = Raw> {
    let delay = prop_oneof![
        4 => Just(Delay::In(0)),
        1 => (1u64..4).prop_map(Delay::In),
        3 => (0u32..40, 0u64..3).prop_map(|(k, d)| Delay::In((1u64 << k) + d - 1)),
        2 => (8u32..48).prop_map(Delay::HighBit),
        1 => ((1u64 << 40) - 2..(1u64 << 40) + 3).prop_map(Delay::In),
    ];
    prop::collection::vec((delay, any::<bool>(), any::<u16>()), 1..64)
}

/// Run `raw` on the simulator and on the model and compare them at every
/// step. With `resume`, a run the horizon stopped short is resumed: the
/// `resume` ids are scheduled from outside a handler at an instant between
/// the stop instant and the next pending event (at `frac / 2^16` of the
/// gap), the horizon is lifted, and the rest is compared too.
fn check(
    raw: &Raw,
    late: &[usize],
    stop_at: usize,
    horizon: Option<u64>,
    resume: Option<(u16, &[usize])>,
) -> TestResult {
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
    for &id in late {
        let id = id % prog.len();
        schedule(&mut sim, &w, id);
        m.schedule(id);
    }

    let step_all = |sim: &mut Sim<World>, w: &mut World, m: &mut Model| -> TestResult {
        loop {
            prop_assert_eq!(sim.pending(), m.queue.len());
            prop_assert_eq!(Rc::strong_count(&token) - 2, sim.pending(), "one live capture per pending event");
            let (a, b) = (sim.step(w), m.step());
            prop_assert_eq!(a, b, "one side stopped early");
            prop_assert_eq!(&w.log, &m.log);
            prop_assert_eq!(sim.now().0, m.now);
            if !a {
                return Ok(());
            }
        }
    };
    step_all(&mut sim, &mut w, &mut m)?;

    if let (Some((frac, ids)), Some((&(next, _), _))) = (resume, m.queue.first_key_value()) {
        // Stopped by the horizon with events pending: schedule at an
        // instant in `now..next`, then run on without a horizon.
        let at = m.now + ((next - m.now) as u128 * frac as u128 >> 16) as u64;
        for &id in ids {
            let id = id % prog.len();
            schedule_at(&mut sim, &w, id, at);
            m.schedule_at(id, at);
        }
        sim.set_horizon(SimTime(u64::MAX));
        m.horizon = None;
        step_all(&mut sim, &mut w, &mut m)?;
        prop_assert!(m.queue.is_empty());
    }

    prop_assert_eq!(sim.events_executed() as usize, m.log.len());
    prop_assert!(sim.heap_pushes() <= m.seq, "at most one queue entry per event");
    // Whatever the horizon left queued — chained or not, inline or
    // boxed — is dropped with the simulator, once.
    drop(sim);
    prop_assert_eq!(Rc::strong_count(&token), 2);
    Ok(())
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
        check(&raw, &late, stop_at, horizon, None)?;
    }

    #[test]
    fn visits_events_in_order_over_wide_delays(
        raw in wide_programs(),
        late in prop::collection::vec(0usize..64, 0..6),
        stop_at in 0usize..40,
        horizon in prop_oneof![Just(None), (0u64..8).prop_map(Some), (0u64..1 << 42).prop_map(Some)],
        frac in any::<u16>(),
        resume in prop::collection::vec(0usize..64, 1..4),
    ) {
        check(&raw, &late, stop_at, horizon, Some((frac, &resume)))?;
    }
}

/// 64 timers that fire together and re-arm for the same next instant are
/// one run per period: 1000 queue entries, not 64 000.
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
