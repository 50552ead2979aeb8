//! Stackless rank-program VM.
//!
//! Each simulated process is a compiled state machine (a Rust `Future`)
//! stepped in place on the simulator thread by [`VmHarness`]. A rank's
//! entire control state — program counter and typed locals — lives inside
//! the future, so a 4096-rank job costs 4096 heap objects and no OS thread,
//! and at most one piece of simulation code is ever running: execution is
//! deterministic and process code needs no synchronization.
//!
//! The request/response types are chosen by the layer above (for MPI they
//! are `MpiCall` / `MpiResp`):
//!
//! ```text
//! simulator (single thread)            rank future
//! -------------------------            -----------
//! resume(pid, resp) ── put resp ──►    call(req).await returns resp
//!        poll()                        ... runs user code ...
//! Request(req) ◄── take outgoing ──    call(req).await parks (Pending)
//! ```
//!
//! A rank may suspend **only** inside [`VmChannel::call`]; suspending
//! anywhere else (a foreign future that returns `Pending` without posting a
//! request) is a protocol violation and panics. At most one request is in
//! flight per rank: the handoff is lock-step.

use std::any::Any;
use std::cell::RefCell;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Identifier of a simulated process within one harness (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcId(pub usize);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// What a process did when it last ran.
pub enum ProcYield<Req> {
    /// The process issued a request and is now parked awaiting the response.
    Request(Req),
    /// The process's future completed; its output is collected with
    /// [`VmHarness::take_result`].
    Finished,
}

/// The single-slot mailbox shared between one rank future and the harness.
struct VmCell<Req, Resp> {
    /// Request posted by the rank, awaiting pickup by the harness.
    outgoing: Option<Req>,
    /// Response deposited by the harness, awaiting pickup by the rank.
    incoming: Option<Resp>,
}

/// A rank's capability to issue requests. Clone one into the rank's future
/// and hand the original to [`VmHarness::spawn`].
pub struct VmChannel<Req, Resp>(Rc<RefCell<VmCell<Req, Resp>>>);

impl<Req, Resp> Clone for VmChannel<Req, Resp> {
    fn clone(&self) -> Self {
        VmChannel(Rc::clone(&self.0))
    }
}

impl<Req, Resp> Default for VmChannel<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> VmChannel<Req, Resp> {
    pub fn new() -> Self {
        VmChannel(Rc::new(RefCell::new(VmCell {
            outgoing: None,
            incoming: None,
        })))
    }

    /// Issue `req` and suspend this rank until the simulator responds.
    pub fn call(&self, req: Req) -> CallFuture<Req, Resp> {
        CallFuture {
            chan: self.clone(),
            req: Some(req),
        }
    }

    fn take_outgoing(&self) -> Option<Req> {
        self.0.borrow_mut().outgoing.take()
    }

    fn put_incoming(&self, resp: Resp) {
        let prev = self.0.borrow_mut().incoming.replace(resp);
        assert!(prev.is_none(), "response delivered while one is unconsumed");
    }
}

/// Future returned by [`VmChannel::call`]: posts the request on first poll,
/// completes when the harness deposits the response.
pub struct CallFuture<Req, Resp> {
    chan: VmChannel<Req, Resp>,
    req: Option<Req>,
}

/// No field is ever pinned (the future holds plain owned data), so the
/// manual poll below may freely use `get_mut`.
impl<Req, Resp> Unpin for CallFuture<Req, Resp> {}

impl<Req, Resp> Future for CallFuture<Req, Resp> {
    type Output = Resp;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Resp> {
        let this = self.get_mut();
        if let Some(resp) = this.chan.0.borrow_mut().incoming.take() {
            return Poll::Ready(resp);
        }
        if let Some(req) = this.req.take() {
            let mut cell = this.chan.0.borrow_mut();
            assert!(
                cell.outgoing.is_none(),
                "VM rank issued a second call without awaiting the first"
            );
            cell.outgoing = Some(req);
        }
        Poll::Pending
    }
}

struct VmSlot<Req, Resp> {
    chan: VmChannel<Req, Resp>,
    /// The rank's compiled state machine; dropped on finish/panic.
    fut: Option<Pin<Box<dyn Future<Output = Box<dyn Any + Send>>>>>,
    finished: bool,
    result: Option<Box<dyn Any + Send>>,
}

/// Harness owning all stackless processes of one simulation.
pub struct VmHarness<Req, Resp> {
    slots: Vec<VmSlot<Req, Resp>>,
    live: usize,
}

impl<Req, Resp> Default for VmHarness<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> VmHarness<Req, Resp> {
    pub fn new() -> Self {
        VmHarness {
            slots: Vec::new(),
            live: 0,
        }
    }

    /// Number of processes that have not yet finished.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total number of processes ever spawned.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Has the given process finished?
    // PANIC-OK: proc table entries are created at spawn and never removed;
    // ProcId values only come from spawn.
    pub fn is_finished(&self, pid: ProcId) -> bool {
        self.slots[pid.0].finished
    }

    /// Spawn a process and run it up to its first yield, which is returned
    /// together with its id. `chan` must be the channel whose clones `fut`
    /// issues its calls on. The future's output is retrievable with
    /// [`take_result`](Self::take_result) once the process finishes.
    pub fn spawn<R, F>(
        &mut self,
        chan: VmChannel<Req, Resp>,
        fut: F,
    ) -> (ProcId, ProcYield<Req>)
    where
        R: Send + 'static,
        F: Future<Output = R> + 'static,
    {
        let erased: Pin<Box<dyn Future<Output = Box<dyn Any + Send>>>> =
            Box::pin(async move { Box::new(fut.await) as Box<dyn Any + Send> });
        let pid = ProcId(self.slots.len());
        self.slots.push(VmSlot {
            chan,
            fut: Some(erased),
            finished: false,
            result: None,
        });
        self.live += 1;
        let y = self.step(pid);
        (pid, y)
    }

    /// Deliver `resp` to a parked process, let it run, and return its next
    /// yield.
    ///
    /// # Panics
    /// Panics if the process already finished, or if the process itself
    /// panicked (the panic message is propagated).
    // PANIC-OK: proc table entries live for the VM's lifetime; ProcId values
    // only come from spawn.
    pub fn resume(&mut self, pid: ProcId, resp: Resp) -> ProcYield<Req> {
        let slot = &mut self.slots[pid.0];
        assert!(!slot.finished, "resume() on finished process {pid}");
        slot.chan.put_incoming(resp);
        self.step(pid)
    }

    /// Poll the process once and translate the poll result into the
    /// harness protocol.
    // PANIC-OK: the step loop owns the proc slot for the duration of the poll;
    // a missing slot or double-poll is a VM bug that must abort the sim loudly.
    fn step(&mut self, pid: ProcId) -> ProcYield<Req> {
        let slot = &mut self.slots[pid.0];
        let fut = slot
            .fut
            .as_mut()
            .unwrap_or_else(|| panic!("step() on torn-down process {pid}"));
        let mut cx = Context::from_waker(Waker::noop());
        match panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Ready(result)) => {
                slot.finished = true;
                slot.result = Some(result);
                slot.fut = None;
                self.live -= 1;
                ProcYield::Finished
            }
            Ok(Poll::Pending) => {
                let req = slot.chan.take_outgoing().unwrap_or_else(|| {
                    panic!("simulated process {pid} suspended without issuing a call")
                });
                ProcYield::Request(req)
            }
            Err(payload) => {
                slot.finished = true;
                slot.fut = None;
                self.live -= 1;
                let msg = panic_message(payload.as_ref());
                panic!("simulated process {pid} panicked: {msg}");
            }
        }
    }

    /// Take the result of a finished process, downcasting it to `R`.
    ///
    /// Returns `None` if the process has not finished, already had its
    /// result taken, or the type does not match.
    // PANIC-OK: proc table entries live for the VM's lifetime; ProcId values
    // only come from spawn.
    pub fn take_result<R: 'static>(&mut self, pid: ProcId) -> Option<R> {
        let slot = &mut self.slots[pid.0];
        if !slot.finished {
            return None;
        }
        let boxed = slot.result.take()?;
        match boxed.downcast::<R>() {
            Ok(b) => Some(*b),
            Err(orig) => {
                slot.result = Some(orig);
                None
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Req {
        Add(u64, u64),
        Done,
    }

    fn spawn_prog<R, F, Fut>(
        h: &mut VmHarness<Req, u64>,
        body: F,
    ) -> (ProcId, ProcYield<Req>)
    where
        R: Send + 'static,
        F: FnOnce(VmChannel<Req, u64>) -> Fut,
        Fut: Future<Output = R> + 'static,
    {
        let chan = VmChannel::new();
        let fut = body(chan.clone());
        h.spawn(chan, fut)
    }

    #[test]
    fn basic_request_response_cycle() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let (pid, y) = spawn_prog(&mut h, |chan| async move {
            let s = chan.call(Req::Add(2, 3)).await;
            let s2 = chan.call(Req::Add(s, 10)).await;
            chan.call(Req::Done).await;
            s2
        });
        let ProcYield::Request(Req::Add(2, 3)) = y else {
            panic!("unexpected first yield")
        };
        let y = h.resume(pid, 5);
        let ProcYield::Request(Req::Add(5, 10)) = y else {
            panic!("unexpected second yield")
        };
        let y = h.resume(pid, 15);
        let ProcYield::Request(Req::Done) = y else {
            panic!("unexpected third yield")
        };
        let y = h.resume(pid, 0);
        assert!(matches!(y, ProcYield::Finished));
        assert!(h.is_finished(pid));
        assert_eq!(h.take_result::<u64>(pid), Some(15));
        assert_eq!(h.live(), 0);
    }

    #[test]
    fn immediate_finish_without_calls() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let (pid, y) = spawn_prog(&mut h, |_chan| async move { 42u64 });
        assert!(matches!(y, ProcYield::Finished));
        assert_eq!(h.take_result::<u64>(pid), Some(42));
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let mut pids = Vec::new();
        for i in 0..16u64 {
            let (pid, y) = spawn_prog(&mut h, move |chan| async move {
                let mut acc = i;
                for _ in 0..10 {
                    acc = chan.call(Req::Add(acc, 1)).await;
                }
                acc
            });
            assert!(matches!(y, ProcYield::Request(Req::Add(_, 1))));
            pids.push((pid, i));
        }
        // Round-robin drive them to completion.
        let mut done = 0;
        let mut vals: Vec<u64> = pids.iter().map(|&(_, i)| i).collect();
        let mut rounds = vec![0usize; 16];
        while done < 16 {
            for (k, &(pid, _)) in pids.iter().enumerate() {
                if h.is_finished(pid) {
                    continue;
                }
                vals[k] += 1;
                let y = h.resume(pid, vals[k]);
                rounds[k] += 1;
                if matches!(y, ProcYield::Finished) {
                    done += 1;
                }
            }
        }
        for (k, &(pid, i)) in pids.iter().enumerate() {
            assert_eq!(rounds[k], 10);
            assert_eq!(h.take_result::<u64>(pid), Some(i + 10));
        }
    }

    #[test]
    #[should_panic(expected = "panicked: boom")]
    fn process_panic_propagates() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let (pid, _) = spawn_prog(&mut h, |chan| async move {
            chan.call(Req::Done).await;
            panic!("boom");
            #[allow(unreachable_code)]
            0u64
        });
        let _ = h.resume(pid, 0);
    }

    #[test]
    fn dropping_harness_tears_down_parked_processes() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        for _ in 0..8 {
            let (_, y) = spawn_prog(&mut h, |chan| async move {
                chan.call(Req::Done).await; // will never be answered
                0u64
            });
            assert!(matches!(y, ProcYield::Request(Req::Done)));
        }
        drop(h); // futures drop in place; nothing to join or unwind
    }

    #[test]
    fn take_result_wrong_type_returns_none_and_preserves() {
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let (pid, _) = spawn_prog(&mut h, |_chan| async move { "hello".to_string() });
        assert_eq!(h.take_result::<u64>(pid), None);
        assert_eq!(h.take_result::<String>(pid), Some("hello".to_string()));
        // Second take yields None.
        assert_eq!(h.take_result::<String>(pid), None);
    }

    #[test]
    #[should_panic(expected = "suspended without issuing a call")]
    fn foreign_pending_future_is_a_protocol_violation() {
        struct NeverReady;
        impl Future for NeverReady {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let _ = spawn_prog(&mut h, |_chan| async move {
            NeverReady.await;
            0u64
        });
    }

    #[test]
    fn four_thousand_ranks_spawn_without_threads() {
        // The point of the VM: rank count is bounded by memory, not the
        // host thread limit. 4096 ranks each make 3 calls.
        let mut h: VmHarness<Req, u64> = VmHarness::new();
        let n = 4096u64;
        let mut pids = Vec::new();
        for i in 0..n {
            let (pid, y) = spawn_prog(&mut h, move |chan| async move {
                let mut acc = i;
                for _ in 0..3 {
                    acc = chan.call(Req::Add(acc, 1)).await;
                }
                acc
            });
            assert!(matches!(y, ProcYield::Request(_)));
            pids.push(pid);
        }
        for round in 1..=3u64 {
            for (i, &pid) in pids.iter().enumerate() {
                let y = h.resume(pid, i as u64 + round);
                assert_eq!(matches!(y, ProcYield::Finished), round == 3);
            }
        }
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(h.take_result::<u64>(pid), Some(i as u64 + 3));
        }
        assert_eq!(h.live(), 0);
    }
}
