//! The discrete-event engine.
//!
//! [`Sim<W>`] owns a priority queue of events, each an `FnOnce(&mut W,
//! &mut Sim<W>)`. Events at equal virtual time fire in the order they were
//! scheduled, which makes runs reproducible bit-for-bit.
//!
//! The world `W` is supplied by the caller; the engine never inspects it.
//! Handlers receive both the world and the engine so they can schedule
//! follow-up events. The engine takes an event out of the queue *before*
//! invoking it, so the handler holds the only mutable borrow.
//!
//! ## An event is a closure, a heap entry is a run
//!
//! Lock-step ranks and fan-out loops schedule long stretches of events for
//! one instant back to back, so the queue stores *runs*: `schedule_at` links
//! a new event behind the one the previous `schedule_*` call created when
//! both are for the same instant and that one has not begun executing, and
//! only otherwise pushes a heap entry. [`Sim::step`] still executes exactly
//! one closure; while the run it took it from has members left, the run's
//! entry simply stays at the root.
//!
//! This is the `(time, schedule order)` order, not an approximation of it:
//! the members of a run were created by consecutive calls for one instant,
//! so no event — including whatever a member schedules for the current
//! instant, which is ordered after every call made before it — can lie
//! between two of them; and runs are ordered among themselves by `(time,
//! push order)`, which is the order of their first members.
//!
//! ## Storage layout
//!
//! * a manual binary min-heap of [`HeapEntry`] — `(time, seq, slot)`, 24
//!   bytes, no drop glue — one per run, ordered by `(time, seq)`;
//! * a slot arena of [`EventCell`]s, the run's members chained through
//!   `next`, with a vacant-slot free list threaded through the same field so
//!   steady-state scheduling recycles slots instead of growing.
//!
//! A handler of up to [`INLINE_WORDS`] machine words (the dominant fabric
//! events: DMA completions, chunk arrivals, rank resumes) is stored in the
//! cell itself — raw capture bytes plus one erased function pointer that
//! either calls or drops them — so `schedule_*`/`step` allocate nothing for
//! the common case. A larger capture is boxed and the cell holds the box.

use crate::time::{SimDuration, SimTime};
use std::mem::MaybeUninit;

/// Capture budget (in machine words) for the allocation-free inline path.
const INLINE_WORDS: usize = 6;

type InlineBuf = MaybeUninit<[usize; INLINE_WORDS]>;

/// Erased glue of a stored closure: consumes the `F` in the buffer, calling
/// it when given the world and dropping it when not.
type EventOp<W> = unsafe fn(*mut u8, Option<(&mut W, &mut Sim<W>)>);

/// One arena slot.
///
/// Invariant: while `op` is `Some`, `buf` holds a valid, initialized `F`
/// (the `F` that `op` was instantiated with); `op` is taken out exactly
/// once, by whoever then invokes it (`step`, or `Drop` for a pending event).
struct EventCell<W> {
    buf: InlineBuf,
    /// `None` marks a vacant slot.
    op: Option<EventOp<W>>,
    /// Occupied: the next member of this cell's run (`NIL` ends it).
    /// Vacant: the next free slot.
    next: u32,
}

// Six words of capture, the glue pointer, the link: one cache line.
const _: () = assert!(size_of::<EventCell<()>>() == 64);

/// POD heap node, one per run; ordered by `(time, seq)`, pointing at the
/// run's first pending cell.
#[derive(Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

#[inline]
fn heap_less(a: &HeapEntry, b: &HeapEntry) -> bool {
    (a.time, a.seq) < (b.time, b.seq)
}

// SAFETY: callers must pass a `buf` that holds an initialized `F` the
// caller owns; the closure is read out of the buffer (and called or
// dropped), so the buffer must never be read or dropped again afterwards.
unsafe fn consume_inline<W, F: FnOnce(&mut W, &mut Sim<W>)>(
    buf: *mut u8,
    ctx: Option<(&mut W, &mut Sim<W>)>,
) {
    // SAFETY: caller guarantees `buf` holds an initialized `F`; reading it
    // out transfers ownership to this frame.
    let f = unsafe { (buf as *mut F).read() };
    if let Some((world, sim)) = ctx {
        f(world, sim);
    }
}

/// Whether an `F` can be stored in a cell's buffer.
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<InlineBuf>() && align_of::<F>() <= align_of::<InlineBuf>()
}

fn inline_cell<W, F: FnOnce(&mut W, &mut Sim<W>) + 'static>(f: F) -> EventCell<W> {
    assert!(fits_inline::<F>());
    let mut cell = EventCell {
        buf: MaybeUninit::uninit(),
        op: Some(consume_inline::<W, F> as EventOp<W>),
        next: NIL,
    };
    // SAFETY: size and alignment asserted above; the buffer is exclusively
    // owned by this fresh cell.
    unsafe { (cell.buf.as_mut_ptr() as *mut F).write(f) };
    cell
}

fn make_cell<W, F: FnOnce(&mut W, &mut Sim<W>) + 'static>(f: F) -> EventCell<W> {
    if fits_inline::<F>() {
        inline_cell(f)
    } else {
        inline_cell(Box::new(f)) // a `Box<F>` is itself the closure, one word wide
    }
}

const NIL: u32 = u32::MAX;

/// A deterministic discrete-event simulator over a world `W`.
pub struct Sim<W> {
    now: SimTime,
    heap: Vec<HeapEntry>,
    slots: Vec<EventCell<W>>,
    free_head: u32,
    /// The cell the latest `schedule_*` call created and its instant, while
    /// that cell has not begun executing (`NIL` otherwise): the one cell a
    /// new event may be chained behind.
    tail: u32,
    tail_time: SimTime,
    pending: usize,
    /// Heap entries pushed so far; also the tie-breaking `seq` of the next.
    heap_pushes: u64,
    events_executed: u64,
    /// Optional hard cap on virtual time; events beyond it are not executed.
    horizon: Option<SimTime>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Drop for Sim<W> {
    fn drop(&mut self) {
        // Every event still pending, chained or not, sits in an occupied
        // cell: run its erased glue in drop mode.
        for cell in &mut self.slots {
            if let Some(op) = cell.op.take() {
                // SAFETY: `op` was still set, so the buffer holds a live
                // closure nobody consumed; it is not touched again.
                unsafe { op(cell.buf.as_mut_ptr() as *mut u8, None) };
            }
        }
    }
}

impl<W> Sim<W> {
    /// Create an empty simulation at `t = 0`.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            heap: Vec::new(),
            slots: Vec::new(),
            free_head: NIL,
            tail: NIL,
            tail_time: SimTime::ZERO,
            pending: 0,
            heap_pushes: 0,
            events_executed: 0,
            horizon: None,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far (diagnostic).
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Number of heap entries pushed so far (diagnostic): one per run of
    /// events scheduled back to back for one instant, so at most the number
    /// of events scheduled.
    #[inline]
    pub fn heap_pushes(&self) -> u64 {
        self.heap_pushes
    }

    /// Number of events currently pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Stop executing events scheduled after `t` (they stay queued).
    pub fn set_horizon(&mut self, t: SimTime) {
        self.horizon = Some(t);
    }

    fn alloc_slot(&mut self, cell: EventCell<W>) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let vacant = &mut self.slots[slot as usize];
            debug_assert!(vacant.op.is_none(), "free list points at an occupied slot");
            self.free_head = vacant.next;
            *vacant = cell;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("event arena exceeds u32 slots");
            self.slots.push(cell);
            slot
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap_less(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut min = left;
            if right < len && heap_less(&self.heap[right], &self.heap[left]) {
                min = right;
            }
            if heap_less(&self.heap[min], &self.heap[i]) {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }

    /// Schedule `f` to run at absolute virtual time `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past: causality violations are always bugs in
    /// the model, never recoverable conditions.
    pub fn schedule_at(&mut self, t: SimTime, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        assert!(
            t >= self.now,
            "attempt to schedule event in the past: now={}, t={}",
            self.now,
            t
        );
        let slot = self.alloc_slot(make_cell(f));
        if self.tail != NIL && self.tail_time == t {
            // Same instant as the call before: extend that run.
            self.slots[self.tail as usize].next = slot;
        } else {
            let seq = self.heap_pushes;
            self.heap_pushes += 1;
            self.heap.push(HeapEntry { time: t, seq, slot });
            self.sift_up(self.heap.len() - 1);
        }
        self.tail = slot;
        self.tail_time = t;
        self.pending += 1;
    }

    /// Schedule `f` to run `delay` after the current time.
    #[inline]
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedule `f` at the current virtual time, after all handlers already
    /// queued for this instant.
    #[inline]
    pub fn schedule_now(&mut self, f: impl FnOnce(&mut W, &mut Sim<W>) + 'static) {
        self.schedule_at(self.now, f);
    }

    /// Execute a single event if one is pending (and within the horizon).
    /// Returns `false` when the queue is exhausted or the horizon reached.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some(&root) = self.heap.first() else {
            return false;
        };
        if let Some(h) = self.horizon {
            if root.time > h {
                return false;
            }
        }
        // Take the first cell of the root run and vacate its slot (returning
        // it to the free list) *before* invoking the handler, so the handler
        // can schedule freely into the recycled capacity.
        let cell = &mut self.slots[root.slot as usize];
        let op = cell.op.take().expect("heap entry points at a vacant slot");
        let mut buf = cell.buf;
        let next = std::mem::replace(&mut cell.next, self.free_head);
        self.free_head = root.slot;
        if next != NIL {
            // The run goes on, and its key still precedes every other
            // entry's: the entry stays at the root, one cell further.
            self.heap[0].slot = next;
        } else {
            self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            if self.tail == root.slot {
                self.tail = NIL; // began executing: nothing may chain behind it
            }
        }
        debug_assert!(root.time >= self.now);
        self.now = root.time;
        self.pending -= 1;
        self.events_executed += 1;
        // SAFETY: `op` was set, so the bytes copied out of the cell are a
        // live closure, owned here now that the cell is vacant; `op`
        // consumes them and the copy is never touched again.
        unsafe { op(buf.as_mut_ptr() as *mut u8, Some((world, self))) };
        true
    }

    /// Run until no events remain (or the horizon is reached).
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Run until the given predicate over the world returns true, checking
    /// after every event. Returns `true` if the predicate fired, `false` if
    /// the event queue drained first.
    pub fn run_until(&mut self, world: &mut W, mut done: impl FnMut(&W) -> bool) -> bool {
        if done(world) {
            return true;
        }
        while self.step(world) {
            if done(world) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[derive(Default)]
    struct World {
        log: Vec<(u64, &'static str)>,
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime(30), |w, s| w.log.push((s.now().0, "c")));
        sim.schedule_at(SimTime(10), |w, s| w.log.push((s.now().0, "a")));
        sim.schedule_at(SimTime(20), |w, s| w.log.push((s.now().0, "b")));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for name in ["first", "second", "third"] {
            sim.schedule_at(SimTime(5), move |w, _| w.log.push((5, name)));
        }
        sim.run(&mut w);
        assert_eq!(
            w.log.iter().map(|e| e.1).collect::<Vec<_>>(),
            vec!["first", "second", "third"]
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime(1), |_, s| {
            s.schedule_in(SimDuration::nanos(9), |w: &mut World, s: &mut Sim<World>| {
                w.log.push((s.now().0, "chained"));
            });
        });
        sim.run(&mut w);
        assert_eq!(w.log, vec![(10, "chained")]);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    #[should_panic(expected = "schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime(100), |_, s| {
            s.schedule_at(SimTime(50), |_, _| {});
        });
        sim.run(&mut w);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for i in 0..100u64 {
            sim.schedule_at(SimTime(i), move |w, _| w.log.push((i, "x")));
        }
        let fired = sim.run_until(&mut w, |w| w.log.len() == 10);
        assert!(fired);
        assert_eq!(w.log.len(), 10);
        assert_eq!(sim.pending(), 90);
    }

    #[test]
    fn horizon_stops_execution() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        for i in 0..10u64 {
            sim.schedule_at(SimTime(i * 10), move |w, _| w.log.push((i, "x")));
        }
        sim.set_horizon(SimTime(45));
        sim.run(&mut w);
        assert_eq!(w.log.len(), 5); // t = 0,10,20,30,40
        assert_eq!(sim.pending(), 5);
    }

    #[test]
    fn schedule_now_runs_at_same_instant_after_queued() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime(7), |w, s| {
            w.log.push((s.now().0, "outer"));
            s.schedule_now(|w: &mut World, s: &mut Sim<World>| {
                w.log.push((s.now().0, "inner"));
            });
        });
        sim.schedule_at(SimTime(7), |w, _| w.log.push((7, "peer")));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(7, "outer"), (7, "peer"), (7, "inner")]);
    }

    #[test]
    fn large_captures_fall_back_to_boxed_and_still_run_in_order() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let big = [7u64; 32]; // 256 bytes: over the inline budget.
        sim.schedule_at(SimTime(2), move |w: &mut World, _| {
            assert_eq!(big[31], 7);
            w.log.push((2, "big"));
        });
        sim.schedule_at(SimTime(1), |w, _| w.log.push((1, "small")));
        sim.run(&mut w);
        assert_eq!(w.log, vec![(1, "small"), (2, "big")]);
    }

    #[test]
    fn pending_inline_and_boxed_events_drop_their_captures() {
        let token = Rc::new(());
        {
            let mut sim: Sim<World> = Sim::new();
            let small = Rc::clone(&token);
            let (pad, big) = ([0u64; 32], Rc::clone(&token));
            sim.schedule_at(SimTime(1), move |_w: &mut World, _| drop(small));
            sim.schedule_at(SimTime(2), move |_w: &mut World, _| {
                let _ = pad;
                drop(big);
            });
            assert_eq!(Rc::strong_count(&token), 3);
            // Dropped with both events still queued.
        }
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn executed_events_consume_their_captures_exactly_once() {
        let token = Rc::new(());
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        let held = Rc::clone(&token);
        sim.schedule_at(SimTime(1), move |_w, _| drop(held));
        sim.run(&mut w);
        assert_eq!(Rc::strong_count(&token), 1);
        drop(sim);
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn slots_are_recycled_under_steady_state_churn() {
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        fn chain(s: &mut Sim<World>, left: u32) {
            if left > 0 {
                s.schedule_in(SimDuration::nanos(1), move |_w, s| chain(s, left - 1));
            }
        }
        chain(&mut sim, 10_000);
        sim.run(&mut w);
        assert_eq!(sim.events_executed(), 10_000);
        // One live event at a time: the arena never needs a second slot.
        assert_eq!(sim.slots.len(), 1);
    }
}
