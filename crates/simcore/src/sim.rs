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
//! ## An event is a closure, a queue entry is a run
//!
//! Lock-step ranks and fan-out loops schedule long stretches of events for
//! one instant back to back, so the queue stores *runs*: `schedule_at` links
//! a new event behind the one the previous `schedule_*` call created when
//! both are for the same instant and that one has not begun executing, and
//! only otherwise pushes a queue entry. [`Sim::step`] still executes exactly
//! one closure; while the run it took it from has members left, the run's
//! entry simply stays first.
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
//! * a monotone radix queue of runs, each an instant and the arena slot
//!   of the run's first pending cell (no drop glue, no sequence number).
//!   Nothing is ever scheduled before `now`, so the queue keeps `last`, the
//!   instant of its latest refill (the instant the simulator is at), and 65
//!   buckets: bucket 0 is a FIFO of the slots of the runs at `last`; bucket
//!   `b >= 1` holds the runs whose time's highest bit differing from `last`
//!   is bit `b - 1`, as a chain of 504-byte blocks of 31 `(time, slot)`
//!   pairs drawn from one pool, so the queue holds what is queued now
//!   rather than every bucket's own peak. A push is one `leading_zeros` and
//!   one append; a `u64` occupancy mask of buckets 1 to 64 names the lowest
//!   non-empty one. When bucket 0 runs dry, that bucket's minimum becomes
//!   `last` and its runs are redistributed in order, each to a lower
//!   bucket, so a run moves at most 64 times in its life (a bucket of one
//!   run, the common case of a shallow queue, hands it straight to bucket
//!   0). Every bucket stays in push order, which is why equal times leave
//!   bucket 0 in `(time, push order)` (DESIGN §9). Blocks return to a free
//!   list and bucket 0 keeps its capacity, so steady state allocates
//!   nothing;
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

/// One bucket per possible highest differing bit of two `u64` times, plus
/// bucket 0 for "no differing bit".
const BUCKETS: usize = 65;

/// Entries per block: with its fill count and link, a block is 504 bytes.
const BLOCK: usize = 31;

/// A piece of a bucket `b >= 1`: queued runs in push order, each an
/// instant and the arena slot of the run's first pending cell. The header
/// and the first entries share a cache line, which is all a bucket of a
/// shallow queue touches.
#[repr(C)]
struct Block {
    len: u32,
    /// The bucket's next block, or the next free block.
    next: u32,
    runs: [(SimTime, u32); BLOCK],
}

const _: () = assert!(size_of::<Block>() == 504 && std::mem::offset_of!(Block, runs) == 8);

/// A bucket's chain of blocks, first to last.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// A monotone radix queue of runs (see "Storage layout").
///
/// Invariants: no queued run is before `last`; bucket 0 holds the runs at
/// `last`, bucket `b >= 1` those whose time is in bucket
/// [`RadixQueue::bucket_of`]; each bucket is in push order; bucket 0 holds
/// a run exactly when `head < at_last.len()`; for `b >= 1`, bit `b - 1`
/// of `occupied` is set exactly when bucket `b` holds a run, and then
/// `chains[b]` is valid; every block before a chain's tail is full.
struct RadixQueue {
    /// Instant of the latest refill (`SimTime::ZERO` before any): the
    /// instant the simulator is at.
    last: SimTime,
    /// Bucket 0: the slots of the runs at `last`, a FIFO whose entries
    /// before `head` have been taken out.
    at_last: Vec<u32>,
    head: usize,
    /// Buckets `1..BUCKETS` (entry 0 unused), their blocks drawn from
    /// `blocks`, whose vacant ones are chained from `free`.
    chains: [Chain; BUCKETS],
    blocks: Vec<Block>,
    free: u32,
    occupied: u64,
}

impl RadixQueue {
    fn new() -> Self {
        RadixQueue {
            last: SimTime::ZERO,
            at_last: Vec::new(),
            head: 0,
            chains: [Chain { head: NIL, tail: NIL }; BUCKETS],
            blocks: Vec::new(),
            free: NIL,
            occupied: 0,
        }
    }

    /// 0 when `t == last`, else one more than the index of the highest bit
    /// in which `t` differs from `last`.
    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        (u64::BITS - (t.0 ^ self.last.0).leading_zeros()) as usize
    }

    /// An empty block: the first free one, or a new one.
    #[inline]
    fn new_block(&mut self) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let block = &mut self.blocks[i as usize];
            self.free = block.next;
            (block.len, block.next) = (0, NIL);
            i
        } else {
            let i = u32::try_from(self.blocks.len()).expect("event queue exceeds u32 blocks");
            self.blocks.push(Block { len: 0, next: NIL, runs: [(SimTime::ZERO, NIL); BLOCK] });
            i
        }
    }

    #[inline]
    fn free_block(&mut self, i: u32) {
        self.blocks[i as usize].next = self.free;
        self.free = i;
    }

    /// Queue the run starting at cell `slot`, at `t` (not before `last`).
    #[inline]
    fn push(&mut self, t: SimTime, slot: u32) {
        debug_assert!(t >= self.last);
        let b = self.bucket_of(t);
        if b == 0 {
            self.at_last.push(slot);
            return;
        }
        if self.occupied & (1 << (b - 1)) == 0 {
            let i = self.new_block();
            self.chains[b] = Chain { head: i, tail: i };
            self.occupied |= 1 << (b - 1);
        } else if self.blocks[self.chains[b].tail as usize].len as usize == BLOCK {
            let i = self.new_block();
            self.blocks[self.chains[b].tail as usize].next = i;
            self.chains[b].tail = i;
        }
        let tail = &mut self.blocks[self.chains[b].tail as usize];
        tail.runs[tail.len as usize] = (t, slot);
        tail.len += 1;
    }

    /// The earliest run, `(time, push order)`-first, at the head of bucket
    /// 0: its instant and its slot — or `None` when the queue is empty or
    /// that run lies past `horizon`. Checking before a refill keeps `last`
    /// from moving past a run that stays pending.
    #[inline]
    fn first(&mut self, horizon: Option<SimTime>) -> Option<(SimTime, &mut u32)> {
        if self.head == self.at_last.len() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize + 1;
            let Chain { head, tail } = self.chains[b];
            let block = &self.blocks[head as usize];
            if head == tail && block.len == 1 {
                // A bucket of one run, the common case of a shallow queue:
                // that run is the minimum and moves to bucket 0 alone.
                let (t, slot) = block.runs[0];
                if horizon.is_some_and(|h| t > h) {
                    return None;
                }
                self.occupied &= !(1 << (b - 1));
                self.last = t;
                self.at_last.push(slot);
                self.free_block(head);
            } else {
                let min = self.bucket_min(b);
                if horizon.is_some_and(|h| min > h) {
                    return None;
                }
                self.refill(b, min);
            }
        } else if horizon.is_some_and(|h| self.last > h) {
            return None;
        }
        Some((self.last, &mut self.at_last[self.head]))
    }

    #[inline]
    fn bucket_min(&self, b: usize) -> SimTime {
        let (mut i, mut min) = (self.chains[b].head, SimTime(u64::MAX));
        while i != NIL {
            let block = &self.blocks[i as usize];
            min = (block.runs[..block.len as usize].iter()).fold(min, |m, &(t, _)| m.min(t));
            i = block.next;
        }
        min
    }

    /// Bucket 0 is empty: make `min`, the earliest time in bucket `b` (the
    /// lowest occupied one), the new `last`, and redistribute `b` in order.
    /// Every run of `b` lands in a lower bucket, at least those at `min`
    /// in bucket 0; runs of higher buckets agree with `min` on the bits
    /// that placed them, so they stay where they are.
    #[inline]
    fn refill(&mut self, b: usize, min: SimTime) {
        debug_assert!(self.head == 0 && self.at_last.is_empty());
        self.occupied &= !(1 << (b - 1));
        self.last = min;
        let mut i = self.chains[b].head;
        while i != NIL {
            let Block { len, next, .. } = self.blocks[i as usize];
            for k in 0..len as usize {
                let (t, slot) = self.blocks[i as usize].runs[k];
                self.push(t, slot);
            }
            self.free_block(i); // only now: the pushes above cannot be handed it
            i = next;
        }
    }

    /// Take out the run [`RadixQueue::first`] returned.
    #[inline]
    fn pop_first(&mut self) {
        self.head += 1;
        if self.head == self.at_last.len() {
            self.at_last.clear();
            self.head = 0;
        }
    }
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

impl<W> EventCell<W> {
    fn vacant() -> Self {
        EventCell { buf: MaybeUninit::uninit(), op: None, next: NIL }
    }

    /// Store `f` in this vacant cell, in place: a closure is written once,
    /// into the arena, not built beside it and copied in.
    fn fill<F: FnOnce(&mut W, &mut Sim<W>) + 'static>(&mut self, f: F) {
        if fits_inline::<F>() {
            self.fill_inline(f)
        } else {
            self.fill_inline(Box::new(f)) // a `Box<F>` is itself the closure, one word wide
        }
    }

    fn fill_inline<F: FnOnce(&mut W, &mut Sim<W>) + 'static>(&mut self, f: F) {
        assert!(fits_inline::<F>());
        debug_assert!(self.op.is_none(), "filling an occupied slot");
        // SAFETY: size and alignment asserted above; the cell is vacant, so
        // its buffer holds nothing live, and `op` claims it only after this.
        unsafe { (self.buf.as_mut_ptr() as *mut F).write(f) };
        self.op = Some(consume_inline::<W, F> as EventOp<W>);
        self.next = NIL;
    }
}

const NIL: u32 = u32::MAX;

/// A deterministic discrete-event simulator over a world `W`.
pub struct Sim<W> {
    now: SimTime,
    queue: RadixQueue,
    slots: Vec<EventCell<W>>,
    free_head: u32,
    /// The cell the latest `schedule_*` call created and its instant, while
    /// that cell has not begun executing (`NIL` otherwise): the one cell a
    /// new event may be chained behind.
    tail: u32,
    tail_time: SimTime,
    pending: usize,
    /// Queue entries pushed so far, one per run.
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
            queue: RadixQueue::new(),
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

    /// Number of queue entries pushed so far (diagnostic): one per run of
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

    /// A vacant slot: the head of the free list, or a new one.
    fn vacant_slot(&mut self) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let vacant = &self.slots[slot as usize];
            debug_assert!(vacant.op.is_none(), "free list points at an occupied slot");
            self.free_head = vacant.next;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("event arena exceeds u32 slots");
            self.slots.push(EventCell::vacant());
            slot
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
        let slot = self.vacant_slot();
        self.slots[slot as usize].fill(f);
        if self.tail != NIL && self.tail_time == t {
            // Same instant as the call before: extend that run.
            self.slots[self.tail as usize].next = slot;
        } else {
            self.heap_pushes += 1;
            self.queue.push(t, slot);
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
        let Some((time, first)) = self.queue.first(self.horizon) else {
            return false;
        };
        let slot = *first;
        // Take the first cell of the first run and vacate its slot (returning
        // it to the free list) *before* invoking the handler, so the handler
        // can schedule freely into the recycled capacity.
        let cell = &mut self.slots[slot as usize];
        let op = cell.op.take().expect("queue entry points at a vacant slot");
        let mut buf = cell.buf;
        let next = std::mem::replace(&mut cell.next, self.free_head);
        self.free_head = slot;
        if next != NIL {
            // The run goes on, and its key still precedes every other
            // entry's: the entry stays first, one cell further.
            *first = next;
        } else {
            self.queue.pop_first();
            if self.tail == slot {
                self.tail = NIL; // began executing: nothing may chain behind it
            }
        }
        debug_assert!(time >= self.now);
        self.now = time;
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
    use crate::CountingAlloc;
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

    #[test]
    fn wide_delays_allocate_nothing_in_steady_state() {
        const CHAINS: u32 = 16;
        const PER_CHAIN: u32 = 625; // 10 000 events a round
        /// `2^k - 1`, `2^k` and `2^k + 1` for `k` in `0..40`, in turn.
        fn delay(i: u32) -> u64 {
            (1u64 << (i * 7 % 40)) + u64::from(i % 3) - 1
        }
        fn chain(s: &mut Sim<World>, left: u32, i: u32) {
            if left > 0 {
                s.schedule_in(SimDuration::nanos(delay(i)), move |_w, s| chain(s, left - 1, i + 1));
            }
        }
        fn round(_w: &mut World, s: &mut Sim<World>) {
            for c in 0..CHAINS {
                chain(s, PER_CHAIN, c * 13);
            }
        }
        let mut sim: Sim<World> = Sim::new();
        let mut w = World::default();
        sim.schedule_at(SimTime::ZERO, round);
        sim.run(&mut w);
        // A round spans less than 2^50 ns, so one started at 2^50 meets
        // every instant with the bits the warm-up met it with: the same
        // buckets, the same refills, the same peaks.
        assert!(sim.now() < SimTime(1 << 50));
        sim.schedule_at(SimTime(1 << 50), round);
        let before = CountingAlloc::allocs_on_this_thread();
        sim.run(&mut w);
        let allocs = CountingAlloc::allocs_on_this_thread() - before;
        assert_eq!(sim.events_executed(), 2 * (u64::from(CHAINS * PER_CHAIN) + 1));
        assert_eq!(allocs, 0, "a warmed-up queue allocated");
    }
}
