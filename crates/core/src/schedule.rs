//! Persistent communication-schedule compilation (ROADMAP item 3).
//!
//! BCS-MPI buffers a whole slice's descriptors before scheduling them
//! (PAPER.md §3–4), so the BR sees the complete communication pattern of
//! the slice at once — and bulk-synchronous applications repeat the same
//! pattern slice after slice. This module exploits that: a per-NIC
//! [`Detector`] fingerprints every eligible MSM input (the drained arrival
//! list plus the posted receive set, in order), and once the fingerprint
//! has repeated [`DETECT_AFTER`] times the next indexed
//! matching pass is *recorded* into a [`Compiled`] schedule — a
//! send↔recv pairing pinned to arrival/post **positions** plus the planned
//! chunk per pair. Subsequent slices validate the input with the same
//! cheap digest and replay the pairing without re-running MSM matching.
//!
//! Correctness contract (property-checked by
//! `crates/core/tests/schedule_equivalence.rs`):
//!
//! * replay is observably transparent — match results, budget arithmetic,
//!   NIC-cost accounting, virtual timings and checkpoint digests are
//!   bit-identical to the indexed path (which itself is bit-identical to
//!   `crates/core/tests/reference/`, the executable specification);
//! * any deviation — digest mismatch, insufficient budget, a pattern the
//!   compiler refused (unmatched arrivals, zero-byte messages, chunked
//!   messages, leftover receives) — falls back to the indexed path for
//!   that slice;
//! * compiled state is *not* checkpointed: an image capture invalidates it
//!   (see `checkpoint.rs`), and a restored engine starts cold. Because
//!   replay is transparent, warm and cold engines produce identical runs.
//!
//! The fingerprint is a 64-bit word-folded FNV-1a variant over the
//! envelope/selector shape only: the arrival count, then
//! `(dst, src, tag, bytes)` per arrival in arrival order, then the
//! receive-side digest as one word (`RecvIndex::shape_digest` —
//! `(dst, src-sel, tag-sel)` per posted receive in post order folded with
//! the count, maintained incrementally by the index so steady-state
//! validation never re-walks the posted set). Message and request
//! identifiers are deliberately excluded: they advance every slice even
//! when the pattern is stable.

use crate::match_index::{RecvSel, SendKey};
use mpi_api::message::{SrcSel, TagSel};

/// Consecutive identical slice fingerprints required before the next
/// matching pass is recorded into a compiled schedule.
pub const DETECT_AFTER: u32 = 3;

/// Streaming 64-bit digest over the slice's descriptor shape: FNV-1a
/// folded a whole word at a time, with a rotate so differences propagate
/// both up and down the lane. Validation re-hashes every eligible slice,
/// so the per-word cost (one xor, one rotate, one multiply) is on the
/// replay fast path — byte-at-a-time FNV would spend 8 multiplies per
/// word fingerprinting what the schedule saved in matching.
#[derive(Clone, Copy, Debug)]
pub struct FpBuilder(u64);

impl Default for FpBuilder {
    fn default() -> Self {
        FpBuilder(0xcbf2_9ce4_8422_2325)
    }
}

impl FpBuilder {
    pub fn new() -> FpBuilder {
        FpBuilder::default()
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).rotate_left(23).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold one remote send descriptor, in arrival order.
    #[inline]
    pub fn arrival(&mut self, key: &SendKey, bytes: u64) {
        self.word(key.dst_rank as u64);
        self.word(key.src_rank as u64);
        self.word(key.tag as u64);
        self.word(bytes);
    }

    /// Fold one posted receive, in post order. Wildcards get sentinel
    /// encodings outside the rank/tag value spaces.
    #[inline]
    pub fn recv(&mut self, sel: &RecvSel) {
        self.word(sel.dst_rank as u64);
        self.word(match sel.src {
            SrcSel::Rank(r) => r as u64,
            SrcSel::Any => u64::MAX,
        });
        self.word(match sel.tag {
            TagSel::Tag(t) => t as u64,
            TagSel::Any => u64::MAX - 1,
        });
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One pre-matched pair of the compiled schedule: the `arrival`-th drained
/// send descriptor matches the `recv`-th posted receive (both positions,
/// not sequence numbers — sequences advance every slice).
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub arrival: u32,
    pub recv: u32,
    /// Source fabric node, pre-resolved from the sender's rank.
    pub src_node: u32,
    /// Message length; the planned chunk equals it (the compiler refuses
    /// patterns whose messages did not fit one slice's budget).
    pub total: u64,
}

/// A persistent schedule: the fingerprint it is valid for plus the
/// position-pinned pairing and chunk plan, in arrival order.
#[derive(Clone, Debug)]
pub struct Compiled {
    pub fingerprint: u64,
    pub pairs: Vec<Pair>,
    /// Aggregate bytes needed per distinct source node, ascending by node —
    /// precomputed here so replay-time budget validation (and the debit
    /// itself) is O(distinct sources), not O(pairs). Budgets are plain
    /// counters, so debiting the sum is arithmetic-identical to debiting
    /// pair by pair.
    pub src_need: Vec<(u32, u64)>,
    /// Aggregate bytes into the destination node.
    pub dst_need: u64,
}

impl Compiled {
    pub fn new(fingerprint: u64, pairs: Vec<Pair>) -> Compiled {
        let mut per: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut dst_need = 0u64;
        for p in &pairs {
            *per.entry(p.src_node).or_insert(0) += p.total;
            dst_need += p.total;
        }
        Compiled {
            fingerprint,
            pairs,
            src_need: per.into_iter().collect(),
            dst_need,
        }
    }
}

/// Compile/replay/fallback counters, per NIC (aggregated by
/// `BcsMpi::sched_stats`). Deliberately *not* part of `BcsStats`: a
/// restored engine starts with a cold detector, so these counters are the
/// one place where an original and a recovered run legitimately differ —
/// keeping them out of the checkpointed stats keeps recovery bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Schedules compiled (indexed passes recorded).
    pub compiled: u64,
    /// Slices replayed from a compiled schedule without MSM matching.
    pub replays: u64,
    /// Compiled schedules dropped: fingerprint drift or image capture.
    pub invalidations: u64,
    /// Replays abandoned at validation time (e.g. competing traffic left
    /// too little budget) — the slice ran the indexed path instead.
    pub fallbacks: u64,
}

impl DetectorStats {
    pub fn add(&mut self, o: &DetectorStats) {
        self.compiled += o.compiled;
        self.replays += o.replays;
        self.invalidations += o.invalidations;
        self.fallbacks += o.fallbacks;
    }
}

/// What the MSM pass should do with the current slice's input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceAction {
    /// A compiled schedule matches the fingerprint: validate budgets and
    /// replay (fall back via [`Detector::replay_fallback`] if they don't).
    Replay,
    /// The pattern has been stable for [`DETECT_AFTER`] slices: run the
    /// indexed pass and record it ([`Detector::install`] /
    /// [`Detector::compile_failed`]).
    Compile,
    /// Run the plain indexed pass.
    Indexed,
}

/// Per-NIC pattern detector state. Lives beside the engine's NIC state but
/// is never checkpointed (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Detector {
    last_fp: u64,
    streak: u32,
    compiled: Option<Compiled>,
    pub stats: DetectorStats,
}

impl Detector {
    /// Classify one eligible slice input by fingerprint.
    pub fn observe(&mut self, fp: u64) -> SliceAction {
        if let Some(c) = &self.compiled {
            if c.fingerprint == fp {
                return SliceAction::Replay;
            }
            // The pattern moved on: the schedule can never validate again.
            self.compiled = None;
            self.stats.invalidations += 1;
        }
        if fp == self.last_fp && self.streak > 0 {
            self.streak += 1;
        } else {
            self.last_fp = fp;
            self.streak = 1;
        }
        if self.streak >= DETECT_AFTER {
            SliceAction::Compile
        } else {
            SliceAction::Indexed
        }
    }

    /// The recorded indexed pass met every eligibility condition: persist it.
    pub fn install(&mut self, c: Compiled) {
        debug_assert!(self.compiled.is_none());
        self.compiled = Some(c);
        self.stats.compiled += 1;
    }

    /// The recorded pass was ineligible (unmatched arrival, zero-byte or
    /// chunked message, leftover receives). Reset the streak so the next
    /// [`DETECT_AFTER`] identical slices earn exactly one more attempt —
    /// a structurally uncompilable pattern costs one recording pass per
    /// [`DETECT_AFTER`] slices, not one per slice.
    pub fn compile_failed(&mut self) {
        self.streak = 0;
    }

    /// A replay was abandoned at validation time; the schedule stays
    /// installed for the next slice.
    pub fn replay_fallback(&mut self) {
        self.stats.fallbacks += 1;
    }

    /// The schedule replayed cleanly.
    pub fn replayed(&mut self) {
        self.stats.replays += 1;
    }

    pub fn compiled(&self) -> Option<&Compiled> {
        self.compiled.as_ref()
    }

    /// Drop all learned state (image capture, explicit reset). Counts as an
    /// invalidation only if a compiled schedule was actually lost.
    pub fn invalidate(&mut self) {
        if self.compiled.take().is_some() {
            self.stats.invalidations += 1;
        }
        self.streak = 0;
        self.last_fp = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(words: &[u64]) -> u64 {
        let mut b = FpBuilder::new();
        for &w in words {
            b.word(w);
        }
        b.finish()
    }

    /// `DETECT_AFTER - 1` slices of `fp` run the indexed pass, the next
    /// one records.
    fn streak_to_compile(d: &mut Detector, fp: u64) {
        for _ in 1..DETECT_AFTER {
            assert_eq!(d.observe(fp), SliceAction::Indexed);
        }
        assert_eq!(d.observe(fp), SliceAction::Compile);
    }

    #[test]
    fn detector_compiles_after_k_identical_slices_and_replays() {
        let mut d = Detector::default();
        let a = fp(&[1, 2, 3]);
        streak_to_compile(&mut d, a);
        d.install(Compiled::new(a, vec![]));
        assert_eq!(d.observe(a), SliceAction::Replay);
        d.replayed();
        assert_eq!(d.stats.compiled, 1);
        assert_eq!(d.stats.replays, 1);
    }

    #[test]
    fn fingerprint_drift_invalidates_and_relearns() {
        let mut d = Detector::default();
        let (a, b) = (fp(&[7]), fp(&[8]));
        assert_ne!(a, b);
        streak_to_compile(&mut d, a);
        d.install(Compiled::new(a, vec![]));
        // A different slice shape drops the schedule and restarts the streak.
        streak_to_compile(&mut d, b);
        assert_eq!(d.stats.invalidations, 1);
        assert!(d.compiled().is_none());
    }

    #[test]
    fn failed_compilation_backs_off_a_full_streak() {
        let mut d = Detector::default();
        let a = fp(&[9]);
        streak_to_compile(&mut d, a);
        d.compile_failed();
        // One full streak before the next attempt, not an attempt per slice.
        streak_to_compile(&mut d, a);
    }

    #[test]
    fn invalidate_resets_learned_state_and_counts_lost_schedules() {
        let mut d = Detector::default();
        let a = fp(&[4]);
        streak_to_compile(&mut d, a);
        d.install(Compiled::new(a, vec![]));
        d.invalidate();
        assert_eq!(d.stats.invalidations, 1);
        d.invalidate(); // idempotent: nothing left to lose
        assert_eq!(d.stats.invalidations, 1);
        streak_to_compile(&mut d, a);
    }

    #[test]
    fn fingerprints_separate_selector_shapes_and_sizes() {
        let sel = |src, tag| RecvSel {
            dst_rank: 0,
            src,
            tag,
        };
        let key = SendKey {
            dst_rank: 0,
            src_rank: 1,
            tag: 5,
        };
        let digest = |sel: &RecvSel, bytes: u64| {
            let mut b = FpBuilder::new();
            b.arrival(&key, bytes);
            b.recv(sel);
            b.finish()
        };
        let exact = digest(&sel(SrcSel::Rank(1), TagSel::Tag(5)), 64);
        assert_ne!(exact, digest(&sel(SrcSel::Any, TagSel::Tag(5)), 64));
        assert_ne!(exact, digest(&sel(SrcSel::Rank(1), TagSel::Any), 64));
        assert_ne!(exact, digest(&sel(SrcSel::Rank(1), TagSel::Tag(5)), 65));
    }
}
