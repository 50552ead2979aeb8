//! The original linear-scan matcher: the executable specification the
//! indexed structures (`bcs_mpi::match_index::{RecvIndex, SendIndex}`) are
//! property-tested against in `match_equivalence.rs`. Test support, not
//! product code: every operation is the literal scan the BR used to perform.

use bcs_mpi::match_index::{RecvSel, SendKey};
use mpi_api::message::{SrcSel, TagSel};

/// Posted receives as a flat list in post order; every operation is the
/// literal scan the BR used to perform.
#[derive(Clone, Default)]
pub struct LinearRecvList<T> {
    entries: Vec<(u64, RecvSel, T)>,
    next_seq: u64,
}

impl<T> LinearRecvList<T> {
    pub fn new() -> Self {
        LinearRecvList {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    pub fn post(&mut self, sel: RecvSel, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((seq, sel, item));
        seq
    }

    pub fn match_first(&mut self, key: &SendKey) -> Option<(RecvSel, T)> {
        self.match_first_seq(key).map(|(_, sel, item)| (sel, item))
    }

    pub fn match_first_seq(&mut self, key: &SendKey) -> Option<(u64, RecvSel, T)> {
        let pos = self.entries.iter().position(|(_, sel, _)| sel.accepts(key))?;
        let (seq, sel, item) = self.entries.remove(pos);
        Some((seq, sel, item))
    }

    /// Every live receive in post order, literally the list itself.
    pub fn take_all(&mut self) -> Vec<(RecvSel, T)> {
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|(_, sel, item)| (sel, item))
            .collect()
    }

    pub fn cancel(&mut self, seq: u64) -> Option<(RecvSel, T)> {
        let pos = self.entries.iter().position(|(s, _, _)| *s == seq)?;
        let (_, sel, item) = self.entries.remove(pos);
        Some((sel, item))
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (u64, &RecvSel, &T)> {
        self.entries.iter().map(|(seq, sel, item)| (*seq, sel, item))
    }
}

/// Unmatched sends as a flat list in arrival order.
#[derive(Clone, Default)]
pub struct LinearSendList<T> {
    entries: Vec<(SendKey, T)>,
}

impl<T> LinearSendList<T> {
    pub fn new() -> Self {
        LinearSendList { entries: Vec::new() }
    }

    pub fn push(&mut self, key: SendKey, item: T) {
        self.entries.push((key, item));
    }

    pub fn probe(&self, dst_rank: usize, src: SrcSel, tag: TagSel) -> Option<(&SendKey, &T)> {
        self.entries
            .iter()
            .find(|(k, _)| k.dst_rank == dst_rank && src.matches(k.src_rank) && tag.matches(k.tag))
            .map(|(k, item)| (k, item))
    }

    pub fn drain_all(&mut self) -> Vec<(SendKey, T)> {
        std::mem::take(&mut self.entries)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&SendKey, &T)> {
        self.entries.iter().map(|(k, item)| (k, item))
    }
}
