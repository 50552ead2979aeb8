//! Indexed descriptor matching — the large-N replacement for the BR's
//! linear scans.
//!
//! The paper's BR matches each incoming send descriptor against the local
//! receive-descriptor list, first match in post order (MPI non-overtaking).
//! A literal list scan costs O(posted receives) per descriptor, which makes
//! the *harness* quadratic on exactly the sweeps the paper scales (§5). The
//! structures here make every hot operation amortized O(1) while
//! reproducing the scan's results bit for bit:
//!
//! * [`RecvIndex`] — posted receives, bucketed by selector specificity.
//!   Every receive carries a monotonically increasing *post sequence* and
//!   lands in exactly one bucket: `(dst, src, tag)` exact, `(dst, tag)`
//!   source-wildcard, `(dst, src)` tag-wildcard, or `(dst)` fully wild.
//!   An incoming `(dst, src, tag)` can only be matched by those four
//!   buckets, each of which is FIFO in post order — so the first eligible
//!   receive in post order is simply the minimum head sequence of the four
//!   queues, and of the exact bucket alone while no wildcard receive is
//!   queued. Cancellation removes from the master table only; stale queue
//!   heads are skipped lazily (each skip is paid for by one cancellation).
//! * [`SendIndex`] — unmatched remote send descriptors in arrival order,
//!   with per-`(dst, src, tag)` FIFO queues so probes are O(1) for exact
//!   selectors and O(distinct keys) for wildcards (taking the *minimum*
//!   arrival sequence over matching keys, so hash-iteration order never
//!   leaks into results). The index also remembers how many entries have
//!   already been examined against the current receive set: a backlog of
//!   unmatched sends is only re-examined when a new receive has been
//!   posted, so an idle backlog costs nothing per slice.
//! * [`LazyBudget`] — per-node P2P byte budgets with generation-stamped
//!   lazy reset: a slice boundary bumps one generation counter instead of
//!   rewriting O(nodes) entries, so idle nodes cost nothing per slice.
//!
//! Both indices hand out their own sequences in ascending order and retire
//! them roughly in order, so the source of truth is an
//! [`IdTable`] window, not a tree: insert, look-up and removal are one index
//! computation, and iteration is in sequence order by construction. The
//! per-bucket queues live in `Buckets`: one lazily allocated box per index
//! (a NIC that never sees a descriptor holds a null pointer), whose deques
//! are recycled when a bucket empties instead of being freed and allocated
//! again for the next tag.
//!
//! Determinism: all iteration that can reach an observable result (matching,
//! probing, checkpoint capture) goes through the sequence-ordered tables or
//! takes numeric minima; the interior `HashMap`s are reached only by exact
//! key. The original linear-scan matcher lives on as the executable
//! specification in test support (`crates/core/tests/reference/`), where
//! `match_equivalence.rs` property-checks the two against each other; what
//! a match costs the host is `perf/`'s `core.probe_ns_per_match`.

use mpi_api::message::{SrcSel, TagSel};
use simcore::IdTable;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Cheap, deterministic 64-bit hasher (FxHash-style rotate-xor-multiply)
/// for the fixed-width keys of the match index. std's default SipHash
/// costs more than the rest of a match step on these ~16-byte keys;
/// hash-order determinism is irrelevant here because no observable path
/// iterates a map — winners are always chosen by sequence-number minima.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxBuildHasher;

impl std::hash::BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

#[derive(Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The selector triple a receive is posted with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvSel {
    pub dst_rank: usize,
    pub src: SrcSel,
    pub tag: TagSel,
}

/// The envelope triple a send descriptor is addressed with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SendKey {
    pub dst_rank: usize,
    pub src_rank: usize,
    pub tag: i32,
}

impl RecvSel {
    pub fn accepts(&self, key: &SendKey) -> bool {
        self.dst_rank == key.dst_rank
            && self.src.matches(key.src_rank)
            && self.tag.matches(key.tag)
    }
}

/// One bucket per selector-specificity class; a receive lives in exactly
/// one, so a `(dst, src, tag)` lookup touches at most four buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ClassKey {
    Exact { dst: usize, src: usize, tag: i32 },
    AnySrc { dst: usize, tag: i32 },
    AnyTag { dst: usize, src: usize },
    AnyAny { dst: usize },
}

fn class_of(sel: &RecvSel) -> ClassKey {
    match (sel.src, sel.tag) {
        (SrcSel::Rank(src), TagSel::Tag(tag)) => ClassKey::Exact {
            dst: sel.dst_rank,
            src,
            tag,
        },
        (SrcSel::Any, TagSel::Tag(tag)) => ClassKey::AnySrc {
            dst: sel.dst_rank,
            tag,
        },
        (SrcSel::Rank(src), TagSel::Any) => ClassKey::AnyTag {
            dst: sel.dst_rank,
            src,
        },
        (SrcSel::Any, TagSel::Any) => ClassKey::AnyAny { dst: sel.dst_rank },
    }
}

// ----------------------------------------------------------------------
// Buckets
// ----------------------------------------------------------------------

/// Spare deques a [`Buckets`] keeps for its next new keys; more are freed.
const SPARE_DEQUES: usize = 16;

/// Ascending sequence FIFOs per key. A key's deque is taken from `spare`
/// when its first sequence is queued and goes back there when its last one
/// leaves, so a steady stream of short-lived keys (one receive per rotating
/// tag) allocates nothing, and the map holds live keys only.
#[derive(Clone)]
struct Buckets<K> {
    map: FxHashMap<K, VecDeque<u64>>,
    spare: Vec<VecDeque<u64>>,
}

impl<K> Default for Buckets<K> {
    fn default() -> Self {
        Buckets {
            map: FxHashMap::default(),
            spare: Vec::new(),
        }
    }
}

/// A bucket is gone: keep its deque, emptied, for the next one.
fn keep_spare(spare: &mut Vec<VecDeque<u64>>, mut q: VecDeque<u64>) {
    if spare.len() < SPARE_DEQUES {
        q.clear();
        spare.push(q);
    }
}

impl<K: std::hash::Hash + Eq> Buckets<K> {
    fn push_back(&mut self, key: K, seq: u64) {
        let Buckets { map, spare } = self;
        map.entry(key).or_insert_with(|| spare.pop().unwrap_or_default()).push_back(seq);
    }

    /// `key`'s queue has emptied.
    fn retire(&mut self, key: &K) {
        let q = self.map.remove(key).expect("retired bucket vanished");
        debug_assert!(q.is_empty());
        keep_spare(&mut self.spare, q);
    }

    fn clear(&mut self) {
        let Buckets { map, spare } = self;
        map.drain().for_each(|(_, q)| keep_spare(spare, q));
    }

    /// Give back every spare deque and all spare capacity — the whole box,
    /// if no key is left.
    fn shrink_to_fit(this: &mut Option<Box<Self>>) {
        match this {
            Some(b) if !b.map.is_empty() => {
                b.spare = Vec::new();
                b.map.values_mut().for_each(VecDeque::shrink_to_fit);
                b.map.shrink_to_fit();
            }
            _ => *this = None,
        }
    }

    /// Deque slots allocated beyond what the deques hold, and the spare
    /// deques themselves.
    fn spare_capacity(this: &Option<Box<Self>>) -> usize {
        this.as_ref().map_or(0, |b| {
            let queues = b.map.values().chain(&b.spare);
            b.spare.len() + queues.map(|q| q.capacity() - q.len()).sum::<usize>()
        })
    }
}

// ----------------------------------------------------------------------
// RecvIndex
// ----------------------------------------------------------------------

/// Posted receives indexed for O(1) first-in-post-order matching.
#[derive(Clone)]
pub struct RecvIndex<T> {
    /// Source of truth; the table's ids are the post sequences.
    master: IdTable<u64, (RecvSel, T)>,
    /// FIFO of post sequences per specificity bucket. May hold sequences
    /// already cancelled from `master`; heads are pruned lazily.
    classes: Option<Box<Buckets<ClassKey>>>,
    /// Sequences queued in wildcard buckets (cancelled ones included until
    /// pruned): while zero, a match looks at the exact bucket only.
    wild_queued: u32,
    /// Running selector-shape digest in post order (see [`Self::shape_digest`]).
    /// Valid while every removal so far has left the set empty — true on a
    /// schedule-replay streak, where each slice consumes the whole set.
    digest_ok: bool,
    digest: crate::schedule::FpBuilder,
}

impl<T> Default for RecvIndex<T> {
    fn default() -> Self {
        RecvIndex {
            master: IdTable::new(),
            classes: None,
            wild_queued: 0,
            digest_ok: true,
            digest: crate::schedule::FpBuilder::new(),
        }
    }
}

impl<T> RecvIndex<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a receive; returns its post sequence (usable with `cancel`).
    pub fn post(&mut self, sel: RecvSel, item: T) -> u64 {
        let seq = self.master.push((sel, item));
        let class = class_of(&sel);
        self.wild_queued += !matches!(class, ClassKey::Exact { .. }) as u32;
        self.classes.get_or_insert_with(Default::default).push_back(class, seq);
        if self.digest_ok {
            self.digest.recv(&sel); // append-only: post order == iter order
        }
        seq
    }

    /// A removal happened: the cached digest stays valid only if the set is
    /// now empty (a fresh digest over nothing), otherwise the next
    /// [`Self::shape_digest`] re-walks.
    #[inline]
    fn note_removed(&mut self) {
        if self.master.is_empty() {
            self.digest = crate::schedule::FpBuilder::new();
            self.digest_ok = true;
        } else {
            self.digest_ok = false;
        }
    }

    /// `n` sequences left `key`'s bucket (matched, or pruned after a cancel).
    #[inline]
    fn note_dequeued(&mut self, key: &ClassKey, n: u32) {
        if !matches!(key, ClassKey::Exact { .. }) {
            self.wild_queued -= n;
        }
    }

    /// Live head sequence of one bucket, pruning cancelled entries.
    fn head(&mut self, key: ClassKey) -> Option<u64> {
        let buckets = self.classes.as_deref_mut()?;
        let q = buckets.map.get_mut(&key)?;
        let mut pruned = 0;
        let live = loop {
            match q.front() {
                Some(&seq) if self.master.get(seq).is_some() => break Some(seq),
                Some(_) => {
                    q.pop_front();
                    pruned += 1;
                }
                None => break None,
            }
        };
        if live.is_none() {
            buckets.retire(&key);
        }
        self.note_dequeued(&key, pruned);
        live
    }

    /// Remove and return the first receive in post order whose selectors
    /// accept `(dst_rank, src_rank, tag)` — exactly what the linear scan's
    /// `position(|rd| rd.matches(...))` yields.
    pub fn match_first(&mut self, key: &SendKey) -> Option<(RecvSel, T)> {
        self.match_first_seq(key).map(|(_, sel, item)| (sel, item))
    }

    /// [`Self::match_first`] that also reports the winner's post sequence —
    /// the schedule compiler records it to pin a send↔recv pairing to recv
    /// *positions* (see `crate::schedule`).
    pub fn match_first_seq(&mut self, key: &SendKey) -> Option<(u64, RecvSel, T)> {
        if self.wild_queued == 0 {
            return self.match_exact(key);
        }
        let candidates = [
            ClassKey::Exact {
                dst: key.dst_rank,
                src: key.src_rank,
                tag: key.tag,
            },
            ClassKey::AnySrc {
                dst: key.dst_rank,
                tag: key.tag,
            },
            ClassKey::AnyTag {
                dst: key.dst_rank,
                src: key.src_rank,
            },
            ClassKey::AnyAny { dst: key.dst_rank },
        ];
        let mut best: Option<(u64, ClassKey)> = None;
        for ck in candidates {
            if let Some(seq) = self.head(ck) {
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, ck));
                }
            }
            if self.wild_queued == 0 {
                break; // pruning emptied the wildcard buckets
            }
        }
        let (seq, ck) = best?;
        let buckets = self.classes.as_deref_mut().expect("winning bucket vanished");
        let q = buckets.map.get_mut(&ck).expect("winning bucket vanished");
        debug_assert_eq!(q.front(), Some(&seq));
        q.pop_front();
        if q.is_empty() {
            buckets.retire(&ck);
        }
        self.note_dequeued(&ck, 1);
        let (sel, item) = self.master.remove(seq).expect("bucket head is live");
        self.note_removed();
        Some((seq, sel, item))
    }

    /// [`Self::match_first_seq`] while no wildcard receive is queued: the
    /// exact bucket is the only candidate, and one probe of its key finds
    /// the queue, pops it past cancelled heads and retires it if it empties.
    fn match_exact(&mut self, key: &SendKey) -> Option<(u64, RecvSel, T)> {
        let ck = ClassKey::Exact {
            dst: key.dst_rank,
            src: key.src_rank,
            tag: key.tag,
        };
        let Buckets { map, spare } = self.classes.as_deref_mut()?;
        let Entry::Occupied(mut bucket) = map.entry(ck) else {
            return None;
        };
        let q = bucket.get_mut();
        let found = loop {
            let Some(seq) = q.pop_front() else {
                break None; // every receive queued here was cancelled
            };
            if let Some((sel, item)) = self.master.remove(seq) {
                break Some((seq, sel, item));
            }
        };
        if q.is_empty() {
            keep_spare(spare, bucket.remove());
        }
        if found.is_some() {
            self.note_removed();
        }
        found
    }

    /// Remove and return every live receive, in post order. Used by the
    /// schedule replay path, which the compiler only enters when the
    /// compiled pattern is known to consume the entire receive set.
    pub fn take_all(&mut self) -> Vec<(RecvSel, T)> {
        if let Some(buckets) = &mut self.classes {
            buckets.clear();
        }
        self.wild_queued = 0;
        self.digest = crate::schedule::FpBuilder::new();
        self.digest_ok = true;
        self.master.drain_from(0)
    }

    /// Cancel the receive with the given post sequence (tombstones its
    /// bucket entry; pruned lazily).
    pub fn cancel(&mut self, seq: u64) -> Option<(RecvSel, T)> {
        let out = self.master.remove(seq);
        if out.is_some() {
            self.note_removed();
        }
        out
    }

    /// Give back the capacity the index holds beyond its live entries.
    pub fn shrink_to_fit(&mut self) {
        self.master.shrink_to_fit();
        Buckets::shrink_to_fit(&mut self.classes);
    }

    /// Capacity held beyond the live entries (see [`Self::shrink_to_fit`]).
    pub fn spare_capacity(&self) -> usize {
        self.master.spare_capacity() + Buckets::spare_capacity(&self.classes)
    }

    /// Deques the index holds, in use or spare (diagnostic: bounded by the
    /// live buckets plus a constant, however many buckets came and went).
    pub fn deques_held(&self) -> usize {
        self.classes.as_ref().map_or(0, |b| b.map.len() + b.spare.len())
    }

    pub fn len(&self) -> usize {
        self.master.len()
    }

    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    /// Live receives in post order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &RecvSel, &T)> {
        self.master.iter().map(|(seq, (sel, item))| (seq, sel, item))
    }

    /// 64-bit digest of the live selector set — `(dst, src-sel, tag-sel)`
    /// per receive in post order, folded with the entry count. This is the
    /// receive half of the slice fingerprint (`crate::schedule`): it is
    /// maintained incrementally at post time and reset whenever the set
    /// empties, so on a replay streak — where every slice consumes the
    /// entire set — validation costs O(1) here instead of an O(n) re-walk.
    /// A removal that leaves live entries behind invalidates the cache and
    /// the next call pays one re-walk.
    pub fn shape_digest(&mut self) -> u64 {
        if !self.digest_ok {
            let mut b = crate::schedule::FpBuilder::new();
            for (_, sel, _) in self.iter() {
                b.recv(sel);
            }
            self.digest = b;
            self.digest_ok = true;
        }
        let mut b = self.digest;
        b.word(self.master.len() as u64);
        b.finish()
    }
}

// ----------------------------------------------------------------------
// SendIndex
// ----------------------------------------------------------------------

/// Unmatched remote send descriptors in arrival order, with per-envelope
/// FIFO queues for probing and an examined-watermark so a stale backlog is
/// not re-matched every slice.
#[derive(Clone)]
pub struct SendIndex<T> {
    /// Source of truth; the table's ids are the arrival sequences.
    master: IdTable<u64, (SendKey, T)>,
    /// Arrival sequences per envelope, ascending. Kept exact (no
    /// tombstones): removal happens only via the drain calls below, which
    /// maintain the queues.
    by_key: Option<Box<Buckets<SendKey>>>,
    /// Sequences below this were already matched against every receive
    /// currently posted (and failed); count cached for O(1) cost
    /// accounting.
    examined_seq: u64,
    examined_len: usize,
}

impl<T> Default for SendIndex<T> {
    fn default() -> Self {
        SendIndex {
            master: IdTable::new(),
            by_key: None,
            examined_seq: 0,
            examined_len: 0,
        }
    }
}

impl<T> SendIndex<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, key: SendKey, item: T) -> u64 {
        let seq = self.master.push((key, item));
        self.by_key.get_or_insert_with(Default::default).push_back(key, seq);
        seq
    }

    /// Earliest-arrival entry matching the probe selectors — what the
    /// linear scan's `find(|rs| ...)` over the arrival-order list yields.
    /// Exact selectors are O(1); wildcards take the minimum arrival
    /// sequence over matching envelope keys, so the interior hash map's
    /// iteration order cannot influence the result.
    pub fn probe(&self, dst_rank: usize, src: SrcSel, tag: TagSel) -> Option<(&SendKey, &T)> {
        let by_key = &self.by_key.as_deref()?.map;
        let seq = match (src, tag) {
            (SrcSel::Rank(src_rank), TagSel::Tag(t)) => {
                let key = SendKey {
                    dst_rank,
                    src_rank,
                    tag: t,
                };
                by_key.get(&key).and_then(|q| q.front().copied())
            }
            _ => by_key
                .iter()
                .filter(|(k, _)| k.dst_rank == dst_rank && src.matches(k.src_rank) && tag.matches(k.tag))
                .filter_map(|(_, q)| q.front().copied())
                .min(),
        }?;
        self.master.get(seq).map(|(k, item)| (k, item))
    }

    /// Remove and return every entry, in arrival order.
    pub fn drain_all(&mut self) -> Vec<(SendKey, T)> {
        if let Some(by_key) = &mut self.by_key {
            by_key.clear();
        }
        self.examined_seq = 0;
        self.examined_len = 0;
        self.master.drain_from(0)
    }

    /// Remove and return only the entries pushed since [`Self::mark_examined`],
    /// in arrival order; the examined backlog stays put untouched.
    pub fn drain_new(&mut self) -> Vec<(SendKey, T)> {
        let newer = self.master.drain_from(self.examined_seq);
        if let Some(by_key) = self.by_key.as_deref_mut() {
            for (key, _) in &newer {
                // Drained sequences are the largest of their queue, so they
                // sit at the back; one pop per drained entry removes exactly
                // them.
                let q = by_key.map.get_mut(key).expect("send entry without queue");
                let back = q.pop_back();
                debug_assert!(back.is_some_and(|s| s >= self.examined_seq));
                if q.is_empty() {
                    by_key.retire(key);
                }
            }
        }
        newer
    }

    /// Give back the capacity the index holds beyond its live entries.
    pub fn shrink_to_fit(&mut self) {
        self.master.shrink_to_fit();
        Buckets::shrink_to_fit(&mut self.by_key);
    }

    /// Capacity held beyond the live entries (see [`Self::shrink_to_fit`]).
    pub fn spare_capacity(&self) -> usize {
        self.master.spare_capacity() + Buckets::spare_capacity(&self.by_key)
    }

    /// Declare every current entry examined against the current receive
    /// set: until a new receive is posted, none of them can match, and
    /// [`Self::drain_new`] will skip them.
    pub fn mark_examined(&mut self) {
        self.examined_seq = self.master.next_id();
        self.examined_len = self.master.len();
    }

    /// Number of entries the examined-watermark skips.
    pub fn examined_len(&self) -> usize {
        self.examined_len
    }

    pub fn len(&self) -> usize {
        self.master.len()
    }

    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    /// Live entries in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SendKey, &T)> {
        self.master.iter().map(|(seq, (key, item))| (seq, key, item))
    }
}

// ----------------------------------------------------------------------
// LazyBudget
// ----------------------------------------------------------------------

/// Per-node byte budgets with generation-stamped lazy refill: a slice
/// boundary bumps the generation instead of rewriting every entry, so a
/// refill is O(1) regardless of node count and nodes that move no bytes
/// never touch their entry at all.
#[derive(Clone)]
pub struct LazyBudget {
    generation: u64,
    /// Value an entry implicitly holds when its stamp is stale.
    fill: u64,
    /// `(generation stamp, value)` per node.
    entries: Vec<(u64, u64)>,
}

impl LazyBudget {
    pub fn new(n: usize) -> LazyBudget {
        LazyBudget {
            generation: 0,
            fill: 0,
            entries: vec![(0, 0); n],
        }
    }

    /// Reset every entry to `value` — O(1).
    pub fn refill(&mut self, value: u64) {
        self.generation += 1;
        self.fill = value;
    }

    pub fn get(&self, i: usize) -> u64 {
        let (stamp, value) = self.entries[i];
        if stamp == self.generation { value } else { self.fill }
    }

    pub fn sub(&mut self, i: usize, amount: u64) {
        let current = self.get(i);
        debug_assert!(amount <= current, "budget underflow");
        self.entries[i] = (self.generation, current - amount);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(dst: usize, src: SrcSel, tag: TagSel) -> RecvSel {
        RecvSel {
            dst_rank: dst,
            src,
            tag,
        }
    }

    fn key(dst: usize, src: usize, tag: i32) -> SendKey {
        SendKey {
            dst_rank: dst,
            src_rank: src,
            tag,
        }
    }

    #[test]
    fn match_first_prefers_post_order_across_classes() {
        let mut idx = RecvIndex::new();
        idx.post(sel(0, SrcSel::Any, TagSel::Any), 'a');
        idx.post(sel(0, SrcSel::Rank(1), TagSel::Tag(7)), 'b');
        // Both buckets accept (0, 1, 7); the wildcard was posted first.
        assert_eq!(idx.match_first(&key(0, 1, 7)).unwrap().1, 'a');
        assert_eq!(idx.match_first(&key(0, 1, 7)).unwrap().1, 'b');
        assert!(idx.match_first(&key(0, 1, 7)).is_none());
    }

    #[test]
    fn match_first_seq_reports_the_post_sequence_and_take_all_drains() {
        let mut idx = RecvIndex::new();
        for (i, s) in [SrcSel::Any, SrcSel::Rank(1), SrcSel::Rank(2)].into_iter().enumerate() {
            idx.post(sel(0, s, TagSel::Tag(3)), i);
        }
        let (seq, _, item) = idx.match_first_seq(&key(0, 2, 3)).unwrap();
        assert_eq!((seq, item), (0, 0), "wildcard posted first wins");
        // take_all returns the survivors in post order, and empties the index.
        let rest: Vec<usize> = idx.take_all().into_iter().map(|(_, i)| i).collect();
        assert_eq!(rest, vec![1, 2]);
        assert!(idx.is_empty());
        // The index is still usable after a take_all.
        idx.post(sel(0, SrcSel::Rank(9), TagSel::Tag(1)), 7);
        assert_eq!(idx.match_first(&key(0, 9, 1)).unwrap().1, 7);
    }

    #[test]
    fn cancel_tombstones_are_skipped() {
        let mut idx = RecvIndex::new();
        let s0 = idx.post(sel(0, SrcSel::Rank(2), TagSel::Tag(1)), 0);
        idx.post(sel(0, SrcSel::Rank(2), TagSel::Tag(1)), 1);
        assert!(idx.cancel(s0).is_some());
        assert_eq!(idx.match_first(&key(0, 2, 1)).unwrap().1, 1);
        assert!(idx.is_empty());
    }

    #[test]
    fn shape_digest_cache_always_equals_a_fresh_walk() {
        // The cached digest must be indistinguishable from recomputing over
        // the live set, through every mutation path: posts (cache extends),
        // a mid-set match (cache invalidated, re-walk), cancel, emptying
        // (cache resets), and take_all (replay path).
        let fresh = |idx: &RecvIndex<usize>| {
            let mut b = crate::schedule::FpBuilder::new();
            for (_, s, _) in idx.iter() {
                b.recv(s);
            }
            b.word(idx.len() as u64);
            b.finish()
        };
        let mut idx = RecvIndex::new();
        assert_eq!(idx.shape_digest(), fresh(&idx), "empty");
        for i in 0..5usize {
            idx.post(sel(0, SrcSel::Rank(i), TagSel::Tag(i as i32)), i);
            assert_eq!(idx.shape_digest(), fresh(&idx), "after post {i}");
        }
        idx.match_first(&key(0, 2, 2)).unwrap(); // removal mid-set
        assert_eq!(idx.shape_digest(), fresh(&idx), "after mid-set match");
        let s = idx.post(sel(0, SrcSel::Any, TagSel::Any), 9);
        assert_eq!(idx.shape_digest(), fresh(&idx), "post after re-walk");
        idx.cancel(s).unwrap();
        assert_eq!(idx.shape_digest(), fresh(&idx), "after cancel");
        idx.take_all();
        assert_eq!(idx.shape_digest(), fresh(&idx), "after take_all");
        idx.post(sel(1, SrcSel::Rank(0), TagSel::Tag(0)), 0);
        assert_eq!(idx.shape_digest(), fresh(&idx), "reuse after take_all");
        idx.match_first(&key(1, 0, 0)).unwrap(); // removal emptying the set
        assert_eq!(idx.shape_digest(), fresh(&idx), "emptied by match");
    }

    #[test]
    fn send_index_probe_and_watermark() {
        let mut idx = SendIndex::new();
        idx.push(key(0, 1, 5), "early");
        idx.push(key(0, 2, 5), "late");
        // Wildcard probe returns the earliest arrival.
        assert_eq!(idx.probe(0, SrcSel::Any, TagSel::Tag(5)).unwrap().1, &"early");
        assert_eq!(idx.probe(0, SrcSel::Rank(2), TagSel::Tag(5)).unwrap().1, &"late");
        assert!(idx.probe(1, SrcSel::Any, TagSel::Any).is_none());

        idx.mark_examined();
        assert_eq!(idx.examined_len(), 2);
        idx.push(key(0, 3, 9), "new");
        let fresh = idx.drain_new();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].1, "new");
        assert_eq!(idx.len(), 2);
        // The retained entries are still probeable.
        assert!(idx.probe(0, SrcSel::Rank(1), TagSel::Tag(5)).is_some());
        let all = idx.drain_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, "early");
    }

    #[test]
    fn lazy_budget_refills_in_o1() {
        let mut b = LazyBudget::new(3);
        assert_eq!(b.get(0), 0);
        b.refill(100);
        assert_eq!(b.get(2), 100);
        b.sub(2, 30);
        assert_eq!(b.get(2), 70);
        assert_eq!(b.get(1), 100);
        b.refill(100);
        assert_eq!(b.get(2), 100);
    }
}
