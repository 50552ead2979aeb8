//! Reliable delivery over the (normally lossless) fabric: timeout, retry
//! and exponential backoff for DMA transfers, used when fault injection can
//! drop data-channel packets (`Fabric::plan_drops`) — the paper's QsNet is
//! reliable in hardware, but §6's fault-tolerance sketch needs an
//! end-to-end story for transient losses.
//!
//! Semantics are at-most-once delivery with bounded retries, and they
//! follow from the verdict the simulated fabric gives at issue: `issue_put`
//! and `issue_get` return the delivery instant and whether the payload
//! lands (a planned drop or a dead endpoint is decided then). An attempt
//! that lands schedules the completion hook for its delivery instant — one
//! event, exactly as a plain `put` or `get` — and ends the transfer. An
//! attempt that does not land schedules a timeout instead, which re-issues
//! the transfer until `max_retries` is exhausted and then runs the abort
//! hook. No attempt follows one that lands, so the completion hook runs at
//! most once by construction, with no token to tell a duplicate by. The
//! timeout is anchored to the *expected* delivery instant, and only genuine
//! drops (or a fail-stopped endpoint) ever arm one.

use crate::BcsWorld;
use qsnet::NodeId;
use simcore::{Sim, SimDuration, SimTime};
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

/// Per-cluster counters. Fresh state is correct after a checkpoint restore:
/// BCS microphases cannot complete while any reliable transfer is
/// outstanding (delivery gates `work_item_done`), so slice boundaries are
/// retry-quiescent.
#[derive(Debug, Default)]
pub struct RetryState {
    /// Re-issued transfers (presumed-lost attempts).
    pub retries: u64,
    /// Transfers abandoned after exhausting `max_retries`.
    pub aborts: u64,
}

/// A lost attempt's hook, shared by its timeout and the attempts it re-issues.
type Hook<W> = Rc<dyn Fn(&mut W, &mut Sim<W>)>;

/// Which fabric verb a reliable transfer uses: `fabric.put(src, dst)` or
/// `fabric.get(requester = src, target = dst)`.
#[derive(Clone, Copy, Debug)]
enum Verb {
    Put,
    Get,
}

/// One reliable transfer: its verb, its endpoints, its size and policy.
#[derive(Clone, Copy, Debug)]
struct Transfer {
    verb: Verb,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
}

impl Transfer {
    /// Issue one attempt: its expected delivery instant and whether it lands.
    fn issue<W: BcsWorld>(self, w: &mut W, now: SimTime) -> (SimTime, bool) {
        let fabric = &mut w.bcs().fabric;
        match self.verb {
            Verb::Put => fabric.issue_put(now, self.src, self.dst, self.bytes),
            Verb::Get => fabric.issue_get(now, self.src, self.dst, self.bytes),
        }
    }
}

/// One-sided put from `src` to `dst` with retry-on-loss.
pub fn reliable_put<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    on_deliver: impl Fn(&mut W, &mut Sim<W>) + 'static,
    on_abort: impl Fn(&mut W, &mut Sim<W>) + 'static,
) {
    let t = Transfer { verb: Verb::Put, src, dst, bytes, policy };
    start(w, sim, t, on_deliver, on_abort);
}

/// One-sided get: `src` pulls `bytes` from `dst`, with retry-on-loss.
pub fn reliable_get<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    policy: RetryPolicy,
    on_deliver: impl Fn(&mut W, &mut Sim<W>) + 'static,
    on_abort: impl Fn(&mut W, &mut Sim<W>) + 'static,
) {
    let t = Transfer { verb: Verb::Get, src, dst, bytes, policy };
    start(w, sim, t, on_deliver, on_abort);
}

/// The first attempt: one that lands moves `on_deliver` into its delivery
/// event and drops `on_abort`; only one that is lost shares the hooks.
fn start<W: BcsWorld>(
    w: &mut W,
    sim: &mut Sim<W>,
    t: Transfer,
    on_deliver: impl Fn(&mut W, &mut Sim<W>) + 'static,
    on_abort: impl Fn(&mut W, &mut Sim<W>) + 'static,
) {
    let (expect, lands) = t.issue(w, sim.now());
    if lands {
        sim.schedule_at(expect, on_deliver);
    } else {
        time_out(sim, t, expect, 0, Rc::new(on_deliver), Rc::new(on_abort));
    }
}

/// Attempt `n` of `t`, expected at `expect`, was lost: when its grace
/// period has passed, re-issue the transfer, or abort it.
fn time_out<W: BcsWorld>(
    sim: &mut Sim<W>,
    t: Transfer,
    expect: SimTime,
    n: u32,
    on_deliver: Hook<W>,
    on_abort: Hook<W>,
) {
    let grace = t.policy.timeout * (t.policy.backoff as u64).pow(n);
    sim.schedule_at(expect + grace, move |w: &mut W, sim: &mut Sim<W>| {
        if n >= t.policy.max_retries {
            w.bcs().retry.aborts += 1;
            return on_abort(w, sim);
        }
        w.bcs().retry.retries += 1;
        let (expect, lands) = t.issue(w, sim.now());
        if lands {
            sim.schedule_at(expect, move |w: &mut W, sim: &mut Sim<W>| on_deliver(w, sim));
        } else {
            time_out(sim, t, expect, n + 1, on_deliver, on_abort);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BcsCluster;
    use qsnet::{NetModel, QsNetFabric};

    /// The cluster, and the instants (ns) of every delivery and abort.
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

    type HookFn = fn(&mut W, &mut Sim<W>);

    fn hooks() -> (HookFn, HookFn) {
        (|w, s| w.delivered.push(s.now().0), |w, s| w.aborted.push(s.now().0))
    }

    #[test]
    fn lossless_transfer_delivers_once_without_retries() {
        let (mut w, mut sim) = world(4);
        let (d, a) = hooks();
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
        let (d, a) = hooks();
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
        let (d, a) = hooks();
        reliable_get(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, policy, d, a);
        sim.run(&mut w);
        assert!(w.delivered.is_empty());
        assert_eq!(w.aborted.len(), 1, "abort fires exactly once");
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
        let (d, a) = hooks();
        reliable_put(&mut w, &mut sim, NodeId(0), NodeId(1), 100_000, policy, d, a);
        sim.run(&mut w);
        assert!(w.delivered.is_empty());
        // Grace periods 10, 30, 90 µs must all elapse before the abort.
        let at = w.aborted[0];
        assert!(at >= SimDuration::micros(130).as_nanos(), "abort at {at}ns, before backoff could elapse");
    }
}
