//! `ChunkLog` against a plain `Vec` model: whatever sequence of pushes,
//! snapshots, snapshot drops and resumes a run makes, the live log reads
//! back the model and every snapshot exactly the prefix that existed when
//! it was taken — nothing appended later shows through, and dropping other
//! snapshots (or the log) takes nothing away — and `materialize` is the
//! same records in chunks of its own.

use simcore::chunklog::{ChunkLog, LogSnapshot};
use proplite::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Push(u8),
    /// `snapshot()`.
    Snapshot,
    /// Drop the held snapshot at this position (modulo the count).
    Drop(usize),
    /// Abandon the log and continue from the held snapshot at this
    /// position: what a restore does.
    Resume(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            6 => (0..3u8).prop_map(Op::Push),
            3 => Just(Op::Snapshot),
            2 =>(0..64usize).prop_map(Op::Drop),
            1 => (0..64usize).prop_map(Op::Resume),
        ],
        0..160,
    )
}

/// A held snapshot and the prefix it must read back as.
type Held = (LogSnapshot<u64>, Vec<u64>);

fn check_all(held: &[Held]) -> TestResult {
    for (snap, want) in held {
        prop_assert_eq!(snap.len(), want.len());
        prop_assert_eq!(snap.is_empty(), want.is_empty());
        prop_assert_eq!(&snap.iter().copied().collect::<Vec<_>>(), want);
    }
    Ok(())
}

proplite! {
    #![config(cases = 256)]

    #[test]
    fn snapshots_read_back_their_prefix(ops in ops()) {
        let mut log: ChunkLog<u64> = ChunkLog::new();
        let mut model: Vec<u64> = Vec::new();
        let mut held: Vec<Held> = Vec::new();
        let mut next = 0u64;
        for op in &ops {
            match *op {
                Op::Push(n) => {
                    for _ in 0..n {
                        log.push(next);
                        model.push(next);
                        next += 1;
                    }
                }
                Op::Snapshot => held.push((log.snapshot(), model.clone())),
                Op::Drop(pos) => {
                    if !held.is_empty() {
                        held.swap_remove(pos % held.len());
                    }
                }
                Op::Resume(pos) => {
                    if !held.is_empty() {
                        let (snap, prefix) = &held[pos % held.len()];
                        log = ChunkLog::resume(snap);
                        model = prefix.clone();
                    }
                }
            }
            prop_assert_eq!(log.len(), model.len());
            prop_assert_eq!(&log.to_vec(), &model);
            check_all(&held)?;
        }
        // Materialized copies read the same and outlive everything else.
        let deep: Vec<Held> = held.iter().map(|(s, want)| (s.materialize(), want.clone())).collect();
        let flat: Vec<Vec<u64>> = held.iter().map(|(s, _)| s.to_vec()).collect();
        drop(log);
        check_all(&held)?;
        drop(held);
        check_all(&deep)?;
        for ((_, want), got) in deep.iter().zip(&flat) {
            prop_assert_eq!(got, want);
        }
    }
}
