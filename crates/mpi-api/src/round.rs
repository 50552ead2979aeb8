//! A collective round's value plane, written once for both engines (DESIGN
//! §14): the kinds, the join that checks a member's call against the
//! round's and stores its contribution, the close — the ascending fold
//! of a reduce — and the response each member gets. An engine keeps
//! only its time plane: when the round closes and when each response
//! reaches its member. A member whose kind, root, operator or element type
//! differs from the round's ends the run in one diagnostic on both engines;
//! kinds of different slots never meet in one round, so a barrier against
//! a broadcast stays a deadlock report.

use crate::call::MpiResp;
use crate::datatype::{Combine, Datatype, ReduceBuf, ReduceOp};
use crate::payload::Payload;
use crate::request::CallSite;

/// A collective's kind. Its slot indexes the per-member round counters
/// ([`crate::comm::RoundCounters`]) and BCS-MPI's per-communicator flag
/// words; a reduce and an allreduce share one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollKind {
    Barrier,
    Bcast,
    Reduce { all: bool },
}

impl CollKind {
    pub fn slot(self) -> usize {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce { .. } => 2,
        }
    }

    /// What a member that takes nothing from the round gets back, if it is
    /// one: a non-root member of a plain reduce. BCS-MPI blocks it until
    /// the round closes all the same (§4.4); the baseline lets it go once
    /// its partial is sent.
    pub fn leaf_response(self, root: bool) -> Option<MpiResp> {
        (self == CollKind::Reduce { all: false } && !root).then_some(MpiResp::RootData(None))
    }
}

/// One member's collective call, as the runtime hands it to an engine
/// (`Protocol::collective`).
#[derive(Debug)]
pub struct CollCall {
    pub kind: CollKind,
    /// Communicator rank of the root; 0 for a barrier.
    pub root: usize,
    /// A reduce's operator and element type.
    pub params: Option<(ReduceOp, Datatype)>,
    /// The member's contribution to a reduce, a broadcast root's payload.
    pub data: Option<Payload>,
    /// Who called, and when: what a mismatch diagnostic names.
    pub site: CallSite,
}

/// What an open round holds of its members' data: a barrier nothing, a
/// broadcast the root's payload, a reduce every member's bytes in one flat
/// buffer.
#[derive(Clone, Debug)]
enum RoundData {
    Barrier,
    Bcast(Option<Payload>),
    Reduce(ReduceBuf),
}

/// An open round: the call that opened it, what the members have brought
/// and how many have.
#[derive(Clone, Debug)]
pub struct Round {
    kind: CollKind,
    /// The name of the call that opened it.
    op: &'static str,
    root: usize,
    params: Option<(ReduceOp, Datatype)>,
    data: RoundData,
    arrived: usize,
}

impl Round {
    /// The empty round of `members` that `call` opens: every member's call
    /// must name its kind, root, operator and element type.
    pub fn open(call: &CollCall, members: usize) -> Round {
        let data = match call.kind {
            CollKind::Barrier => RoundData::Barrier,
            CollKind::Bcast => RoundData::Bcast(None),
            CollKind::Reduce { .. } => RoundData::Reduce(ReduceBuf::new(members)),
        };
        Round { kind: call.kind, op: call.site.op, root: call.root, params: call.params, data, arrived: 0 }
    }

    pub fn kind(&self) -> CollKind {
        self.kind
    }

    /// Communicator rank of the root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Members that have joined.
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// Communicator rank `member` joins with `call`: its call is checked
    /// against the round's and its contribution stored.
    // PANIC-OK: the runtime builds every reduce call with its data, a
    // broadcast root's with its payload, and a member joins each round once
    // (`RoundCounters`); a call that differs from the round's ends the run
    // in `CallSite::mismatch`.
    #[inline]
    pub fn join(&mut self, member: usize, call: CollCall) {
        let site = call.site;
        if call.kind != self.kind {
            site.mismatch("kind", &site.op, &self.op);
        }
        if call.root != self.root {
            site.mismatch("root", &call.root, &self.root);
        }
        if let (Some((op, dtype)), Some((round_op, round_dtype))) = (call.params, self.params) {
            if op != round_op {
                site.mismatch("op", &format_args!("{op:?}"), &format_args!("{round_op:?}"));
            }
            if dtype != round_dtype {
                site.mismatch("dtype", &format_args!("{dtype:?}"), &format_args!("{round_dtype:?}"));
            }
        }
        match &mut self.data {
            RoundData::Barrier => {}
            RoundData::Bcast(payload) => {
                if member == self.root {
                    *payload = Some(call.data.expect("bcast root needs data"));
                }
            }
            RoundData::Reduce(contribs) => contribs.put(member, &call.data.expect("reduce needs a contribution")),
        }
        self.arrived += 1;
    }

    /// The round's value: the reduce contributions folded in ascending rank
    /// order with `combine`, once every member has joined; a broadcast's is
    /// the root's payload, there from the root's join on.
    // PANIC-OK: an engine closes a reduce round only after all of its
    // members have joined, and a broadcast only after its root has.
    pub fn close(self, combine: Combine) -> Closed {
        match self.data {
            RoundData::Barrier => Closed::Barrier,
            RoundData::Bcast(payload) => Closed::Bcast(payload.expect("a broadcast closed before its root joined")),
            RoundData::Reduce(contribs) => {
                let (op, dtype) = self.params.expect("a reduce round names its operator");
                let all = self.kind == CollKind::Reduce { all: true };
                Closed::Reduce { all, value: contribs.fold(op, dtype, combine) }
            }
        }
    }
}

/// A closed round's value, the same under every wire schedule and on both
/// engines.
#[derive(Debug)]
pub enum Closed {
    Barrier,
    Bcast(Payload),
    Reduce { all: bool, value: Payload },
}

impl Closed {
    /// Payload bytes of the value: what a leg that carries it puts on the
    /// wire.
    pub fn bytes(&self) -> usize {
        match self {
            Closed::Barrier => 0,
            Closed::Bcast(value) | Closed::Reduce { value, .. } => value.len(),
        }
    }

    /// What a member gets back; `root` says whether it is the round's root.
    #[inline]
    pub fn response(&self, root: bool) -> MpiResp {
        match self {
            Closed::Barrier => MpiResp::Ok,
            Closed::Bcast(value) | Closed::Reduce { all: true, value } => MpiResp::Data(value.clone()),
            Closed::Reduce { all: false, value } => MpiResp::RootData(root.then(|| value.clone())),
        }
    }
}
