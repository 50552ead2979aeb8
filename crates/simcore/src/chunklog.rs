//! A persistent append-only log whose snapshots cost what was appended since the last.
//!
//! Checkpoint images need the *whole* history of a run — every response
//! delivered to a rank, every boundary digest, every slice record — and a
//! run captures hundreds of images. [`ChunkLog`] keeps a history as a
//! singly linked list of immutable chunks, newest first:
//! [`ChunkLog::snapshot`] seals the growing tail into a chunk whose `prev`
//! is the previous head and hands out the new head. A [`LogSnapshot`] is
//! that handle plus a length, so cloning or dropping one is a single
//! reference count and taking one costs the records appended since the
//! last (moved into a chunk of exactly their size, the tail's buffer kept
//! for the next interval); image *k* shares every chunk of image *k − 1*,
//! and nothing appended later shows through an earlier snapshot. Reading
//! is oldest-first and walks the chain once, which is what a restore pays.

use std::sync::Arc;

/// One sealed run of records and the chunk sealed before it.
struct Chunk<T> {
    prev: Option<Arc<Chunk<T>>>,
    items: Vec<T>,
}

impl<T> Drop for Chunk<T> {
    /// Unlink the chain iteratively: the default recursive drop of a long
    /// history would use a stack frame per chunk.
    fn drop(&mut self) {
        let mut next = self.prev.take();
        while let Some(mut last_owner) = next.and_then(Arc::into_inner) {
            next = last_owner.prev.take();
        }
    }
}

/// Cumulative work a log has spent on snapshots, for tests that check a
/// capture costs what changed and not what exists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogWork {
    /// Chunk handles cloned into snapshots (one per [`ChunkLog::snapshot`]).
    pub handles_cloned: u64,
}

impl std::ops::Add for LogWork {
    type Output = LogWork;
    fn add(self, o: LogWork) -> LogWork {
        LogWork { handles_cloned: self.handles_cloned + o.handles_cloned }
    }
}

/// An immutable prefix of a [`ChunkLog`]: its head chunk when taken.
pub struct LogSnapshot<T> {
    head: Option<Arc<Chunk<T>>>,
    len: usize,
    work: LogWork,
}

impl<T> Clone for LogSnapshot<T> {
    fn clone(&self) -> Self {
        LogSnapshot { head: self.head.clone(), ..*self }
    }
}

impl<T> std::fmt::Debug for LogSnapshot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogSnapshot({} records)", self.len)
    }
}

impl<T> LogSnapshot<T> {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What the log had spent on snapshots up to and including this one.
    pub fn work(&self) -> LogWork {
        self.work
    }

    /// Every record, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mut chunks = Vec::new();
        let mut at = self.head.as_deref();
        while let Some(chunk) = at {
            chunks.push(chunk);
            at = chunk.prev.as_deref();
        }
        chunks.into_iter().rev().flat_map(|c| c.items.iter())
    }
}

impl<T: Clone> LogSnapshot<T> {
    /// The records as one flat vector, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len);
        v.extend(self.iter().cloned());
        v
    }

    /// The same records in one fresh chunk, sharing none with the log or
    /// with any other snapshot.
    pub fn materialize(&self) -> LogSnapshot<T> {
        let items = self.to_vec();
        let head = (!items.is_empty()).then(|| Arc::new(Chunk { prev: None, items }));
        LogSnapshot { head, ..*self }
    }
}

/// The live end of the log. See the module docs.
pub struct ChunkLog<T> {
    sealed: LogSnapshot<T>,
    tail: Vec<T>,
}

impl<T> ChunkLog<T> {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let sealed = LogSnapshot { head: None, len: 0, work: LogWork::default() };
        ChunkLog { sealed, tail: Vec::new() }
    }

    /// A log that continues `snap`, sharing its chunks: what a restore
    /// starts from.
    pub fn resume(snap: &LogSnapshot<T>) -> Self {
        ChunkLog { sealed: snap.clone(), tail: Vec::new() }
    }

    pub fn push(&mut self, record: T) {
        self.tail.push(record);
    }

    /// Records appended so far, sealed or not.
    pub fn len(&self) -> usize {
        self.sealed.len + self.tail.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every record, sealed or not, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.sealed.iter().chain(&self.tail)
    }

    /// The records appended since the last snapshot, in order: what no
    /// snapshot holds.
    pub fn unsealed(&self) -> &[T] {
        &self.tail
    }

    /// [`Self::unsealed`], by value.
    pub fn into_unsealed(self) -> Vec<T> {
        self.tail
    }

    /// Seal what was appended since the last snapshot and return a handle
    /// on the whole log. Costs what was appended since: those records are
    /// moved into a chunk of exactly their number, and the tail keeps its
    /// buffer for the next interval. The handle is one reference count.
    pub fn snapshot(&mut self) -> LogSnapshot<T> {
        self.sealed.work.handles_cloned += 1;
        if !self.tail.is_empty() {
            self.sealed.len += self.tail.len();
            self.sealed.head = Some(Arc::new(Chunk {
                prev: self.sealed.head.take(),
                items: self.tail.drain(..).collect(),
            }));
        }
        self.sealed.clone()
    }
}

impl<T: Clone> ChunkLog<T> {
    /// The records as one flat vector, oldest first.
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter().cloned());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_prefixes_and_share_chunks() {
        let mut log = ChunkLog::new();
        log.push(1);
        log.push(2);
        let a = log.snapshot();
        log.push(3);
        let b = log.snapshot();
        log.push(4);
        assert_eq!(a.to_vec(), vec![1, 2]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!((a.len(), b.len(), log.len()), (2, 3, 4));
        // b's older chunk *is* a's chunk.
        let b_prev = b.head.as_ref().unwrap().prev.as_ref().unwrap();
        assert!(Arc::ptr_eq(b_prev, a.head.as_ref().unwrap()));
        // An empty interval seals nothing: same head, one more handle.
        let c = ChunkLog::resume(&b).snapshot();
        assert!(Arc::ptr_eq(c.head.as_ref().unwrap(), b.head.as_ref().unwrap()));
        let m = b.materialize();
        assert_eq!(m.to_vec(), b.to_vec());
        assert!(m.head.as_ref().unwrap().prev.is_none());
    }

    #[test]
    fn the_live_log_reads_its_sealed_chunks_then_its_tail() {
        let mut log = ChunkLog::new();
        log.push(10);
        log.push(11);
        let a = log.snapshot();
        log.push(12);
        log.snapshot();
        log.push(13);
        log.push(14);
        assert_eq!(log.to_vec(), vec![10, 11, 12, 13, 14]);
        assert_eq!(log.iter().count(), log.len());
        assert_eq!(log.snapshot().work(), LogWork { handles_cloned: 3 });
        log.push(15);
        assert_eq!(ChunkLog::resume(&a).to_vec(), vec![10, 11]);
        assert_eq!(log.into_unsealed(), vec![15], "only what no snapshot holds");
    }

    #[test]
    fn a_long_chain_drops_without_recursion() {
        let mut log = ChunkLog::new();
        for i in 0..200_000u32 {
            log.push(i);
            log.snapshot();
        }
        assert_eq!(log.snapshot().len(), 200_000);
        drop(log);
    }
}
