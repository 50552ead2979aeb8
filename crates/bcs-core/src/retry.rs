//! Reliable delivery over the (normally lossless) fabric: timeout, retry
//! and exponential backoff for DMA transfers, used when fault injection can
//! drop data-channel packets (`Fabric::plan_drops`) — the paper's QsNet is
//! reliable in hardware, but §6's fault-tolerance sketch needs an
//! end-to-end story for transient losses.
//!
//! Semantics are at-most-once delivery with bounded retries: each transfer
//! gets a unique token; the completion callback runs only for the first
//! attempt that lands (later duplicates find the token consumed), and a
//! timeout re-issues the transfer until `max_retries` is exhausted, at
//! which point the abort callback runs exactly once. Because the simulated
//! fabric computes delivery times at issue, the timeout is anchored to the
//! *expected* delivery instant, so contention never causes spurious
//! retries — only genuine drops (or a fail-stopped endpoint) do.

use crate::BcsWorld;
use qsnet::NodeId;
use simcore::{Sim, SimDuration};
use std::collections::HashSet;
use std::rc::Rc;

/// Retry/backoff parameters of one reliable transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Grace period past the expected delivery instant before the transfer
    /// is presumed lost.
    pub timeout: SimDuration,
    /// Multiplier applied to the grace period on every successive attempt.
    pub backoff: u32,
    /// Re-issues allowed before giving up (0 = single attempt).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimDuration::micros(50),
            backoff: 2,
            max_retries: 4,
        }
    }
}

/// Per-cluster bookkeeping: outstanding tokens plus counters. Fresh state
/// is correct after a checkpoint restore because BCS microphases cannot
/// complete while any reliable transfer is outstanding (delivery gates
/// `work_item_done`), so slice boundaries are retry-quiescent.
#[derive(Debug, Default)]
pub struct RetryState {
    next_token: u64,
    outstanding: HashSet<u64>,
    /// Re-issued transfers (presumed-lost attempts).
    pub retries: u64,
    /// Transfers abandoned after exhausting `max_retries`.
    pub aborts: u64,
}

/// Completion/abort callback of a reliable transfer (re-invocable because
/// retries need it more than once; it fires at most once).
pub type RetryFn<W> = Rc<dyn Fn(&mut W, &mut Sim<W>)>;

/// Which fabric verb a reliable transfer uses.
#[derive(Clone, Copy, Debug)]
enum Verb {
    /// `fabric.put(src, dst)`
    Put,
    /// `fabric.get(requester = src, target = dst)`
    Get,
}

/// One-sided put from `src` to `dst` with retry-on-loss.
pub fn reliable_put<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    on_deliver: RetryFn<W>,
    on_abort: RetryFn<W>,
) {
    start(w, sim, Verb::Put, src, dst, bytes, policy, on_deliver, on_abort);
}

/// One-sided get: `src` pulls `bytes` from `dst`, with retry-on-loss.
pub fn reliable_get<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    on_deliver: RetryFn<W>,
    on_abort: RetryFn<W>,
) {
    start(w, sim, Verb::Get, src, dst, bytes, policy, on_deliver, on_abort);
}

#[allow(clippy::too_many_arguments)]
fn start<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    verb: Verb,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    on_deliver: RetryFn<W>,
    on_abort: RetryFn<W>,
) {
    let retry = &mut w.bcs().retry;
    let token = retry.next_token;
    retry.next_token += 1;
    retry.outstanding.insert(token);
    attempt(w, sim, verb, src, dst, bytes, policy, token, 0, on_deliver, on_abort);
}

#[allow(clippy::too_many_arguments)]
fn attempt<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    verb: Verb,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    token: u64,
    n: u32,
    on_deliver: RetryFn<W>,
    on_abort: RetryFn<W>,
) {
    let deliver = Rc::clone(&on_deliver);
    let cb = move |w: &mut W, sim: &mut Sim<W>| {
        if w.bcs().retry.outstanding.remove(&token) {
            deliver(w, sim);
        }
    };
    let expect = match verb {
        Verb::Put => w.bcs().fabric.put(sim, src, dst, bytes, cb),
        Verb::Get => w.bcs().fabric.get(sim, src, dst, bytes, cb),
    };
    let grace = policy.timeout * (policy.backoff as u64).pow(n);
    sim.schedule_at(expect + grace, move |w: &mut W, sim: &mut Sim<W>| {
        if !w.bcs().retry.outstanding.contains(&token) {
            return; // delivered (or already aborted): stale timer
        }
        if n >= policy.max_retries {
            w.bcs().retry.outstanding.remove(&token);
            w.bcs().retry.aborts += 1;
            on_abort(w, sim);
        } else {
            w.bcs().retry.retries += 1;
            attempt(
                w, sim, verb, src, dst, bytes, policy, token, n + 1, on_deliver, on_abort,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BcsCluster;
    use qsnet::{NetModel, QsNetFabric};
    use std::cell::Cell;

    struct W {
        bcs: BcsCluster<W>,
        delivered: Vec<u64>,
        aborted: Vec<u64>,
    }

    impl BcsWorld for W {
        fn bcs(&mut self) -> &mut BcsCluster<W> {
            &mut self.bcs
        }
    }

    fn world(nodes: usize) -> (W, Sim<W>) {
        let fabric = Box::new(QsNetFabric::new(NetModel::qsnet(), nodes));
        (
            W {
                bcs: BcsCluster::new(fabric),
                delivered: vec![],
                aborted: vec![],
            },
            Sim::new(),
        )
    }

    fn hooks(id: u64) -> (RetryFn<W>, RetryFn<W>) {
        (
            Rc::new(move |w: &mut W, s: &mut Sim<W>| w.delivered.push(s.now().0.max(id))),
            Rc::new(move |w: &mut W, _: &mut Sim<W>| w.aborted.push(id)),
        )
    }

    #[test]
    fn lossless_transfer_delivers_once_without_retries() {
        let (mut w, mut sim) = world(4);
        let (d, a) = hooks(0);
        reliable_put(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, RetryPolicy::default(), d, a);
        sim.run(&mut w);
        assert_eq!(w.delivered.len(), 1);
        assert!(w.aborted.is_empty());
        assert_eq!(w.bcs.retry.retries, 0);
    }

    #[test]
    fn dropped_transfer_is_retried_and_eventually_delivered() {
        let (mut w, mut sim) = world(4);
        w.bcs.fabric.net_mut().plan_drops(vec![0]); // first bulk DMA lost
        let (d, a) = hooks(0);
        reliable_put(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, RetryPolicy::default(), d, a);
        sim.run(&mut w);
        assert_eq!(w.delivered.len(), 1, "retry must re-deliver");
        assert!(w.aborted.is_empty());
        assert_eq!(w.bcs.retry.retries, 1);
        assert_eq!(w.bcs.fabric.net().stats().drops, 1);
    }

    #[test]
    fn dead_destination_aborts_after_max_retries() {
        let (mut w, mut sim) = world(4);
        w.bcs.fabric.net_mut().kill_node(NodeId(1));
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let (d, a) = hooks(7);
        reliable_get(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, policy, d, a);
        sim.run(&mut w);
        assert!(w.delivered.is_empty());
        assert_eq!(w.aborted, vec![7], "abort fires exactly once");
        assert_eq!(w.bcs.retry.retries, 2);
        assert_eq!(w.bcs.retry.aborts, 1);
    }

    #[test]
    fn backoff_spaces_successive_attempts_apart() {
        let (mut w, mut sim) = world(4);
        w.bcs.fabric.net_mut().kill_node(NodeId(1));
        let policy = RetryPolicy {
            timeout: SimDuration::micros(10),
            backoff: 3,
            max_retries: 2,
        };
        let abort_at: Rc<Cell<u64>> = Rc::new(Cell::new(0));
        let at = Rc::clone(&abort_at);
        let a: RetryFn<W> = Rc::new(move |_: &mut W, s: &mut Sim<W>| at.set(s.now().0));
        let d: RetryFn<W> = Rc::new(|w: &mut W, _: &mut Sim<W>| w.delivered.push(0));
        reliable_put(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, policy, d, a);
        sim.run(&mut w);
        assert!(w.delivered.is_empty());
        // Grace periods 10, 30, 90 µs must all elapse before the abort.
        assert!(
            abort_at.get() >= SimDuration::micros(130).as_nanos(),
            "abort at {}ns, before backoff could elapse",
            abort_at.get()
        );
    }
}
