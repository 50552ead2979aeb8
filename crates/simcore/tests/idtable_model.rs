//! `IdTable` against a `BTreeMap` model: whatever sequence of pushes,
//! removals, set removals and tail drains a caller makes, both hold the
//! same entries under the same ids, iterate in the same (id) order, and the
//! table's window never spans more than `next id - oldest live id` slots —
//! in particular it is empty again once everything is removed, however long
//! one entry pinned the front.

use simcore::IdTable;
use proplite::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Push,
    /// Remove the live entry at this position (modulo the live count).
    RemoveLive(usize),
    /// Remove an id that may be live, retired or not handed out yet.
    RemoveId(u64),
    /// Take out everything from an id on, which may be live, retired or not
    /// handed out yet (0 without a pinned entry: the whole table).
    DrainFrom(u64),
    /// Take out a set of ids in the order given — live, retired, not handed
    /// out yet, or named twice — with one compaction after the last.
    RemoveAll(Vec<u64>),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(Op::Push),
            2 => (0..64usize).prop_map(Op::RemoveLive),
            1 => (0..96u64).prop_map(Op::RemoveId),
            1 => (0..96u64).prop_map(Op::DrainFrom),
            1 => prop::collection::vec(0..96u64, 0..12).prop_map(Op::RemoveAll),
        ],
        0..200,
    )
}

fn check(table: &IdTable<u64, u64>, model: &BTreeMap<u64, u64>, next: u64) -> TestResult {
    prop_assert_eq!(table.len(), model.len());
    prop_assert_eq!(table.is_empty(), model.is_empty());
    prop_assert_eq!(table.next_id(), next);
    let got: Vec<(u64, u64)> = table.iter().map(|(k, v)| (k, *v)).collect();
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, want, "iteration must be the model's id order");
    let oldest = model.keys().next().copied().unwrap_or(next);
    prop_assert_eq!(table.span() as u64, next - oldest, "front not compacted");
    Ok(())
}

proplite! {
    #![config(cases = 256)]

    #[test]
    fn behaves_like_a_btreemap(ops in ops(), pin in any::<bool>()) {
        let mut table: IdTable<u64, u64> = IdTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next = 0u64;
        // Optionally a long-lived first entry that no `RemoveLive` touches.
        if pin {
            prop_assert_eq!(table.push(u64::MAX), 0);
            next = 1;
        }
        for op in &ops {
            match *op {
                Op::Push => {
                    let id = table.push(next * 7);
                    prop_assert_eq!(id, next, "ids are handed out densely");
                    model.insert(id, next * 7);
                    next += 1;
                }
                Op::RemoveLive(pos) => {
                    if let Some(&id) = model.keys().nth(pos % model.len().max(1)) {
                        prop_assert_eq!(table.get(id), model.get(&id));
                        prop_assert_eq!(table.remove(id), model.remove(&id));
                    }
                }
                Op::RemoveId(id) => {
                    // Never the pinned entry: it is not in the model.
                    let id = id + pin as u64;
                    prop_assert_eq!(table.get(id), model.get(&id));
                    prop_assert_eq!(table.remove(id), model.remove(&id));
                }
                Op::RemoveAll(ref ids) => {
                    // Never the pinned entry: it is not in the model.
                    let ids: Vec<u64> = ids.iter().map(|id| id + pin as u64).collect();
                    let want: Vec<Option<u64>> = ids.iter().map(|id| model.remove(id)).collect();
                    prop_assert_eq!(table.remove_all(&ids, |v| v), want);
                }
                Op::DrainFrom(id) => {
                    // Never the pinned entry: it is not in the model.
                    let id = id + pin as u64;
                    let tail = model.split_off(&id);
                    prop_assert_eq!(table.drain_from(id), tail.into_values().collect::<Vec<_>>());
                }
            }
            if pin {
                prop_assert_eq!(table.len(), model.len() + 1);
                prop_assert_eq!(table.span() as u64, next, "the pinned entry holds the front");
                prop_assert_eq!(table.iter().next(), Some((0, &u64::MAX)));
            } else {
                check(&table, &model, next)?;
            }
        }
        // Releasing the pin compacts past everything retired behind it.
        if pin {
            prop_assert_eq!(table.remove(0), Some(u64::MAX));
            check(&table, &model, next)?;
        }
        for id in model.keys().copied().collect::<Vec<_>>() {
            for v in table.values_mut() {
                *v ^= 1;
            }
            for v in model.values_mut() {
                *v ^= 1;
            }
            prop_assert_eq!(table.remove(id), model.remove(&id));
            check(&table, &model, next)?;
        }
        prop_assert_eq!(table.span(), 0, "an emptied table holds no slots");
        prop_assert_eq!(table.push(1), next, "and keeps counting");
    }
}
