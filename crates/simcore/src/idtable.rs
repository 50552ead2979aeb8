//! A dense table keyed by ids the table itself hands out in ascending order.
//!
//! Request ids, message ids and match sequences are all allocated
//! monotonically and retired roughly in allocation order, so a hash or tree
//! map pays for generality nothing here uses. [`IdTable`] is a
//! `VecDeque<Option<V>>` window over the id space: slot `i` holds id
//! `base + i`, [`IdTable::push`] appends, look-ups and removals are one
//! index computation, and every vacated slot at the front is popped so the
//! window spans only `oldest live id ..= newest id`. One entry that is never
//! removed pins the front and the window then grows by one (empty) slot per
//! later id; callers retire what they allocate. [`IdTable::remove_all`]
//! retires a set of ids with one compaction after the last, and
//! [`IdTable::drain_from`] takes a whole tail of the id space out at once;
//! the ids either vacates are retired like any other, never handed out
//! again.
//!
//! Iteration is in id order by construction, so anything derived from it
//! (checkpoint images, digests) is canonical without sorting.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// What a table counts of its own work: nothing (`()`, the default, which
/// costs nothing), or its look-ups and front compactions ([`Counted`],
/// for the tests that bound them).
pub trait Counter: Default {
    fn probe(&self) {}
    fn compaction(&self) {}
}

impl Counter for () {}

/// Look-ups made (`get`, `get_mut`, `remove`, one per id of `remove_all`)
/// and front compactions run.
#[derive(Clone, Debug, Default)]
pub struct Counted {
    probes: Cell<u64>,
    compactions: Cell<u64>,
}

impl Counter for Counted {
    fn probe(&self) {
        self.probes.set(self.probes.get() + 1);
    }
    fn compaction(&self) {
        self.compactions.set(self.compactions.get() + 1);
    }
}

#[derive(Clone, Debug)]
pub struct IdTable<K, V, C = ()> {
    /// Id of `slots[0]`; `base + slots.len()` is the next id to hand out.
    base: u64,
    slots: VecDeque<Option<V>>,
    live: usize,
    count: C,
    _key: PhantomData<fn(K) -> K>,
}

impl<K, V, C: Counter> Default for IdTable<K, V, C> {
    fn default() -> Self {
        IdTable { base: 0, slots: VecDeque::new(), live: 0, count: C::default(), _key: PhantomData }
    }
}

impl<K, V> IdTable<K, V, Counted> {
    /// Look-ups made so far.
    pub fn probes(&self) -> u64 {
        self.count.probes.get()
    }

    /// Front compactions run so far.
    pub fn compactions(&self) -> u64 {
        self.count.compactions.get()
    }
}

impl<K: Copy + From<u64> + Into<u64>, V, C: Counter> IdTable<K, V, C> {
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`Self::push`] will return. Ids start at 0 and are
    /// never reused.
    pub fn next_id(&self) -> K {
        K::from(self.base + self.slots.len() as u64)
    }

    /// Store `value` under a fresh id.
    pub fn push(&mut self, value: V) -> K {
        let id = self.next_id();
        self.slots.push_back(Some(value));
        self.live += 1;
        id
    }

    #[inline]
    fn slot(&self, id: K) -> Option<usize> {
        self.count.probe();
        let i = id.into().checked_sub(self.base)?;
        ((i as usize) < self.slots.len()).then_some(i as usize)
    }

    pub fn get(&self, id: K) -> Option<&V> {
        self.slots[self.slot(id)?].as_ref()
    }

    pub fn get_mut(&mut self, id: K) -> Option<&mut V> {
        let i = self.slot(id)?;
        self.slots[i].as_mut()
    }

    /// Take the entry out. Vacated slots at the front are dropped, so the
    /// cost is O(1) amortized over the ids handed out.
    pub fn remove(&mut self, id: K) -> Option<V> {
        let i = self.slot(id)?;
        let value = self.slots[i].take()?;
        self.live -= 1;
        self.compact();
        Some(value)
    }

    /// Take out the entry of each of `ids` and map it through `f` (`None`
    /// for an id that is not live, or that `ids` named before), in the
    /// order given. The front of the window is compacted once, after the
    /// last: retiring a set costs one look-up per member, not one
    /// compaction too.
    pub fn remove_all<R>(&mut self, ids: &[K], mut f: impl FnMut(Option<V>) -> R) -> Vec<R> {
        let out = (ids.iter())
            .map(|&id| {
                let value = self.slot(id).and_then(|i| self.slots[i].take());
                self.live -= value.is_some() as usize;
                f(value)
            })
            .collect();
        self.compact();
        out
    }

    /// Take out every entry whose id is `from` or later, in id order
    /// (`drain_from(0)` empties the table). [`Self::next_id`] does not move.
    pub fn drain_from(&mut self, from: K) -> Vec<V> {
        let start = (from.into().saturating_sub(self.base)).min(self.slots.len() as u64);
        let out: Vec<V> = self.slots.range_mut(start as usize..).filter_map(Option::take).collect();
        self.live -= out.len();
        self.compact();
        out
    }

    /// Drop the vacated slots at the front of the window.
    fn compact(&mut self) {
        self.count.compaction();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Give back the window's spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
    }

    /// Slots allocated beyond the window.
    pub fn spare_capacity(&self) -> usize {
        self.slots.capacity() - self.slots.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots currently held, live or vacated: `next_id - oldest live id`.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| Some((K::from(base + i as u64), s.as_ref()?)))
    }

    /// Live values in ascending id order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_never_reused() {
        let mut t: IdTable<u64, &str> = IdTable::new();
        assert_eq!(t.push("a"), 0);
        assert_eq!(t.push("b"), 1);
        assert_eq!(t.remove(0), Some("a"));
        assert_eq!(t.remove(1), Some("b"));
        assert!(t.is_empty());
        assert_eq!(t.span(), 0);
        assert_eq!(t.push("c"), 2, "an emptied table keeps counting");
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(2), Some(&"c"));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn front_is_compacted_past_every_vacated_slot() {
        let mut t: IdTable<u64, u32> = IdTable::new();
        for v in 0..8 {
            t.push(v);
        }
        for id in 1..6 {
            t.remove(id);
        }
        assert_eq!(t.span(), 8, "id 0 still pins the front");
        t.remove(0);
        assert_eq!(t.span(), 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(6, &6), (7, &7)]);
        assert_eq!(t.remove(0), None, "a retired id stays retired");
    }

    #[test]
    fn remove_all_compacts_once() {
        let mut t: IdTable<u64, u32, Counted> = IdTable::new();
        for v in 0..8 {
            t.push(v);
        }
        let (p0, c0) = (t.probes(), t.compactions());
        let got = t.remove_all(&[2, 0, 1, 1, 9], |v| v);
        assert_eq!(got, [Some(2), Some(0), Some(1), None, None]);
        assert_eq!((t.probes() - p0, t.compactions() - c0), (5, 1));
        assert_eq!((t.len(), t.span()), (5, 5), "front compacted past ids 0-2");
    }
}
