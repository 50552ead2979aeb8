//! The request lifecycle both engines share: post → complete → wait → retire.
//!
//! A [`ReqTable`] owns every open non-blocking request (an [`IdTable`], so
//! ids are dense, look-ups are an index and iteration is in id order) and,
//! per rank, the one request condition the rank may be suspended on
//! ([`Waiting`]). Every step is O(1) in the number of open requests:
//!
//! * [`ReqTable::post`] appends;
//! * [`ReqTable::complete`] flips the request's flag and, if its owner is
//!   suspended on it, either wakes the owner or decrements the outstanding
//!   count of the owner's wait-set — a completed member is never looked at
//!   again until the set retires;
//! * `wait`/`wait_all`/`test`/`test_all` validate the ids the *program*
//!   supplied in one pass (unknown, retired, foreign and duplicate ids all
//!   end in one diagnostic naming the rank, the call, the id and the
//!   virtual time; duplicates are caught by a mark bit in the request
//!   itself), answer at once if the condition already holds, and otherwise
//!   record it;
//! * retiring removes the requests and hands their results back as a
//!   [`Wake`].
//!
//! The runtime serves the four request calls from the engine's table, the
//! same on every engine (`runtime::world`); the engine posts and completes
//! the requests. What the engines keep to themselves is *when* a rank
//! resumes: a woken one at the next slice boundary in BCS-MPI, at once in
//! the baseline; one whose wait already holds after a descriptor post in
//! BCS-MPI, at once in the baseline (`runtime::Protocol::answer_cost`).

use crate::call::{MpiResp, ReqId};
use crate::message::Status;
use crate::payload::Payload;
use simcore::{IdTable, SimTime};
use std::fmt;

/// What a retired request yields: the received payload (`None` for sends)
/// and its status.
pub type ReqResult = (Option<Payload>, Option<Status>);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    Send,
    Recv,
}

/// One open request. Half a cache line: every post, completion and
/// retirement touches one, so their size is what the table of open
/// requests costs in memory traffic. A delivered receive keeps its
/// status's source and tag; its byte count is its payload's.
#[derive(Clone, Debug)]
pub struct Req {
    owner: u32,
    pub kind: ReqKind,
    pub complete: bool,
    /// Member of its owner's current wait-set (or of the `test_all` being
    /// validated): seeing it set twice in one pass is a duplicate id.
    marked: bool,
    /// Recv: [`ReqTable::deliver`] has filled in `data`, `source`, `tag`.
    delivered: bool,
    source: u32,
    tag: i32,
    /// Recv: the delivered payload. Send: engine-private parking space
    /// (the baseline holds a rendezvous payload here until the CTS).
    pub data: Option<Payload>,
    /// When the descriptor was posted (BCS-MPI's blocking-delay statistic).
    pub posted_at: SimTime,
}

impl Req {
    /// The rank that posted the request.
    pub fn owner(&self) -> usize {
        self.owner as usize
    }

    /// What a delivered receive reports; `None` before delivery and for
    /// sends.
    pub fn status(&self) -> Option<Status> {
        self.delivered.then(|| Status {
            source: self.source as usize,
            tag: self.tag,
            bytes: self.data.as_ref().map_or(0, Payload::len),
        })
    }

    fn into_result(self) -> ReqResult {
        let status = self.status();
        (self.data, status)
    }
}

/// The request condition a rank is suspended on. Two words: a job has one
/// slot per rank, used or not.
#[derive(Clone, Debug)]
pub enum Waiting {
    /// Blocking send: wakes with [`Wake::SendDone`].
    Send(ReqId),
    /// Blocking receive / `MPI_Wait`: wakes with [`Wake::WaitDone`].
    One(ReqId),
    /// `MPI_Waitall` over the members in slot `set` of the table's
    /// wait-sets, `outstanding` of them still incomplete: a completion
    /// counts down here, in the rank's own slot.
    All { set: u32, outstanding: u32 },
}

/// A satisfied [`Waiting`], with the retired requests' contents.
#[derive(Debug)]
pub enum Wake {
    SendDone(Req),
    WaitDone(Req),
    WaitallDone(Vec<ReqResult>),
}

impl Wake {
    /// The response the suspended call returns.
    pub fn into_resp(self) -> MpiResp {
        match self {
            Wake::SendDone(_) => MpiResp::Ok,
            Wake::WaitDone(st) => {
                let (data, status) = st.into_result();
                MpiResp::WaitDone { data, status }
            }
            Wake::WaitallDone(results) => MpiResp::WaitallDone { results },
        }
    }
}

/// Who is asking, for a misuse diagnostic. Built by the runtime for the
/// call being served (`runtime::world`): the request arms hand it to the
/// table, a collective carries it to the round it joins
/// ([`crate::round::Round::join`]).
#[derive(Clone, Copy, Debug)]
pub struct CallSite {
    pub rank: usize,
    /// [`crate::call::MpiCall::op_name`] of the call being served.
    pub op: &'static str,
    pub now: SimTime,
}

impl CallSite {
    pub fn new(rank: usize, op: &'static str, now: SimTime) -> CallSite {
        CallSite { rank, op, now }
    }

    /// The one exit for a request id the program had no right to pass.
    fn misuse(&self, id: ReqId, why: &str) -> ! {
        panic!("{self} on {id:?}, which {why}")
    }

    /// The one exit for a collective call whose `what` differs from the
    /// round it joins ([`crate::round::Round::join`]).
    #[cold]
    pub fn mismatch(&self, what: &str, mine: &dyn fmt::Display, theirs: &dyn fmt::Display) -> ! {
        panic!("{self}, a mismatched collective: {what} {mine} where the round it joins has {theirs}")
    }
}

/// `rank R called <op> at t=T`: how every misuse diagnostic names its call.
impl fmt::Display for CallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {} called {} at t={}", self.rank, self.op, self.now)
    }
}

/// The open requests; unit tests count the table's look-ups.
#[cfg(not(test))]
type Reqs = IdTable<ReqId, Req>;
#[cfg(test)]
type Reqs = IdTable<ReqId, Req, simcore::idtable::Counted>;

#[derive(Clone, Debug)]
pub struct ReqTable {
    reqs: Reqs,
    waiting: Vec<Option<Waiting>>,
    /// The members of each open waitall, in the slot its [`Waiting::All`]
    /// names. A retired set's slot is reused (`free`), so the table holds
    /// as many as were ever open at once, and a waitall allocates nothing.
    sets: Vec<Vec<ReqId>>,
    free: Vec<u32>,
}

impl ReqTable {
    pub fn new(ranks: usize) -> ReqTable {
        ReqTable {
            reqs: IdTable::new(),
            waiting: vec![None; ranks],
            sets: Vec::new(),
            free: Vec::new(),
        }
    }

    pub fn post(&mut self, owner: usize, kind: ReqKind, now: SimTime) -> ReqId {
        self.reqs.push(Req {
            owner: u32::try_from(owner).expect("a rank beyond 2^32"),
            kind,
            complete: false,
            marked: false,
            delivered: false,
            source: 0,
            tag: 0,
            data: None,
            posted_at: now,
        })
    }

    /// An open request the *engine* holds the id of; a miss is an engine
    /// bug (requests retire only after they complete), not program input.
    pub fn req_mut(&mut self, id: ReqId) -> &mut Req {
        self.reqs
            .get_mut(id)
            .unwrap_or_else(|| panic!("engine touched {id:?} after it was retired"))
    }

    /// Fill in what a receive request will hand back.
    pub fn deliver(&mut self, id: ReqId, data: Payload, status: Status) {
        let st = self.req_mut(id);
        debug_assert_eq!(st.kind, ReqKind::Recv);
        debug_assert_eq!(status.bytes, data.len(), "a status counts its bytes");
        st.delivered = true;
        st.source = u32::try_from(status.source).expect("a rank beyond 2^32");
        st.tag = status.tag;
        st.data = Some(data);
    }

    /// Mark `id` complete. If that satisfies what its owner is suspended
    /// on, retire the request(s) and return `(owner, wake)`.
    pub fn complete(&mut self, id: ReqId) -> Option<(usize, Wake)> {
        let st = self.req_mut(id);
        debug_assert!(!st.complete, "{id:?} completed twice");
        st.complete = true;
        let (owner, marked) = (st.owner(), st.marked);
        let satisfied = match self.waiting[owner].as_mut()? {
            Waiting::Send(r) | Waiting::One(r) => *r == id,
            Waiting::All { outstanding, .. } => {
                *outstanding -= marked as u32;
                *outstanding == 0
            }
        };
        satisfied.then(|| (owner, self.retire(owner)))
    }

    /// Suspend `rank` on the blocking send it just posted.
    pub fn block_on_send(&mut self, rank: usize, id: ReqId) {
        debug_assert!(self.waiting[rank].is_none());
        self.waiting[rank] = Some(Waiting::Send(id));
    }

    /// Suspend `rank` on the blocking receive it just posted.
    pub fn block_on_recv(&mut self, rank: usize, id: ReqId) {
        debug_assert!(self.waiting[rank].is_none());
        self.waiting[rank] = Some(Waiting::One(id));
    }

    /// `MPI_Wait`: the wake if `id` is already complete, else the rank is
    /// now suspended on it.
    pub fn wait(&mut self, site: CallSite, id: ReqId) -> Option<Wake> {
        let complete = self.checked(site, id).complete;
        self.waiting[site.rank] = Some(Waiting::One(id));
        complete.then(|| self.retire(site.rank))
    }

    /// `MPI_Waitall`, as [`Self::wait`]. The one pass over `ids` validates
    /// them, marks them as members and counts the incomplete ones.
    pub fn wait_all(&mut self, site: CallSite, ids: Vec<ReqId>) -> Option<Wake> {
        let outstanding = self.mark_all(site, &ids);
        let outstanding = u32::try_from(outstanding).expect("a waitall over 2^32 requests");
        let set = match self.free.pop() {
            Some(set) => {
                self.sets[set as usize] = ids;
                set
            }
            None => {
                self.sets.push(ids);
                u32::try_from(self.sets.len() - 1).expect("one open waitall per rank")
            }
        };
        self.waiting[site.rank] = Some(Waiting::All { set, outstanding });
        (outstanding == 0).then(|| self.retire(site.rank))
    }

    /// `MPI_Test`: retire `id` if complete.
    pub fn test(&mut self, site: CallSite, id: ReqId) -> Option<ReqResult> {
        if !self.checked(site, id).complete {
            return None;
        }
        Some(self.retire_one(id).into_result())
    }

    /// `MPI_Testall`: retire all of `ids` if all are complete, else none.
    pub fn test_all(&mut self, site: CallSite, ids: &[ReqId]) -> Option<Vec<ReqResult>> {
        if self.mark_all(site, ids) == 0 {
            return Some(self.retire_all(ids));
        }
        for &id in ids {
            self.req_mut(id).marked = false;
        }
        None
    }

    /// What `rank` is suspended on, if it is a request condition.
    pub fn waiting(&self, rank: usize) -> Option<&Waiting> {
        self.waiting[rank].as_ref()
    }

    /// One-line description of what `rank` is suspended on, for deadlock
    /// reports.
    pub fn describe(&self, rank: usize) -> Option<String> {
        Some(match self.waiting[rank].as_ref()? {
            Waiting::Send(q) => format!("blocking send {q:?}"),
            Waiting::One(q) => format!("wait {q:?}"),
            Waiting::All { set, outstanding } => {
                let members = self.sets[*set as usize].len();
                format!("waitall {members} reqs ({outstanding} outstanding)")
            }
        })
    }

    /// Open requests in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ReqId, &Req)> {
        self.reqs.iter()
    }

    /// Look up an id supplied by the program at `site`.
    fn checked(&mut self, site: CallSite, id: ReqId) -> &mut Req {
        let next = self.reqs.next_id();
        match self.reqs.get_mut(id) {
            Some(st) if st.owner() == site.rank => st,
            Some(st) => site.misuse(id, &format!("belongs to rank {}", st.owner())),
            None if id >= next => site.misuse(id, "was never posted"),
            None => site.misuse(id, "is already retired"),
        }
    }

    /// Validate and mark every id; returns how many are still incomplete.
    fn mark_all(&mut self, site: CallSite, ids: &[ReqId]) -> usize {
        let mut outstanding = 0;
        for &id in ids {
            let st = self.checked(site, id);
            if st.marked {
                site.misuse(id, "appears twice in the request list");
            }
            st.marked = true;
            outstanding += !st.complete as usize;
        }
        outstanding
    }

    fn retire_one(&mut self, id: ReqId) -> Req {
        self.reqs.remove(id).expect("awaited request retired early")
    }

    /// Retire a whole set in one pass: a look-up per member and one
    /// compaction of the table's front.
    fn retire_all(&mut self, ids: &[ReqId]) -> Vec<ReqResult> {
        self.reqs.remove_all(ids, |st| {
            st.expect("awaited request retired early").into_result()
        })
    }

    /// Retire what `rank` was suspended on (the condition holds).
    fn retire(&mut self, rank: usize) -> Wake {
        match self.waiting[rank].take().expect("rank is not suspended") {
            Waiting::Send(id) => Wake::SendDone(self.retire_one(id)),
            Waiting::One(id) => Wake::WaitDone(self.retire_one(id)),
            Waiting::All { set, .. } => {
                let ids = std::mem::take(&mut self.sets[set as usize]);
                self.free.push(set);
                Wake::WaitallDone(self.retire_all(&ids))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(rank: usize, op: &'static str) -> CallSite {
        CallSite::new(rank, op, SimTime::ZERO)
    }

    fn post_n(t: &mut ReqTable, n: usize) -> Vec<ReqId> {
        (0..n)
            .map(|_| t.post(0, ReqKind::Recv, SimTime::ZERO))
            .collect()
    }

    /// Complete the members of one 16 384-request waitall in `order`. Each
    /// completion but the last costs exactly one look-up (its own request),
    /// the wait-set's look-ups (build + retirement) stay within 2·N, and
    /// the retirement the last completion triggers costs N look-ups and
    /// one compaction of the table's front.
    fn fanin(order: impl Fn(usize) -> Vec<usize>) {
        const N: usize = 16_384;
        let mut t = ReqTable::new(1);
        let ids = post_n(&mut t, N);
        let p0 = t.reqs.probes();
        assert!(t.wait_all(site(0, "waitall"), ids.clone()).is_none());
        let mut woke = None;
        for i in order(N) {
            assert!(woke.is_none(), "woke before the last completion");
            let (before, compacted) = (t.reqs.probes(), t.reqs.compactions());
            woke = t.complete(ids[i]);
            let (probes, compactions) =
                (t.reqs.probes() - before, t.reqs.compactions() - compacted);
            if woke.is_none() {
                assert_eq!((probes, compactions), (1, 0), "completion must not rescan");
            } else {
                assert_eq!(probes, 1 + N as u64, "retirement is one look-up per member");
                assert_eq!(compactions, 1, "retirement compacts the window once");
            }
        }
        let (rank, wake) = woke.expect("last completion wakes the rank");
        assert_eq!(rank, 0);
        assert!(matches!(wake, Wake::WaitallDone(r) if r.len() == N));
        let wait_set = t.reqs.probes() - p0 - N as u64;
        assert!(wait_set <= 2 * N as u64, "{wait_set} wait-set probes for {N} requests");
        assert_eq!(t.reqs.span(), 0, "everything retired, window compacted");
    }

    #[test]
    fn per_rank_slot_is_two_words() {
        assert_eq!(std::mem::size_of::<Option<Waiting>>(), 16);
    }

    #[test]
    fn an_open_request_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Option<Req>>(), 32);
    }

    #[test]
    fn a_delivered_receive_reports_its_status() {
        let mut t = ReqTable::new(1);
        let ids = post_n(&mut t, 2);
        assert_eq!(t.req_mut(ids[0]).status(), None, "not delivered yet");
        let status = Status {
            source: 3,
            tag: -7,
            bytes: 5,
        };
        t.deliver(ids[0], Payload::from(vec![9u8; 5]), status);
        t.complete(ids[0]);
        let (data, got) = t.test(site(0, "test"), ids[0]).expect("complete");
        assert_eq!((data.map(|d| d.len()), got), (Some(5), Some(status)));
        let send = t.post(0, ReqKind::Send, SimTime::ZERO);
        t.complete(send);
        assert_eq!(t.test(site(0, "test"), send), Some((None, None)));
    }

    #[test]
    fn waitall_fanin_forward() {
        fanin(|n| (0..n).collect());
    }

    #[test]
    fn waitall_fanin_reverse() {
        fanin(|n| (0..n).rev().collect());
    }

    #[test]
    fn waitall_fanin_shuffled() {
        fanin(|n| {
            let mut order: Vec<usize> = (0..n).collect();
            simcore::SimRng::new(2003).shuffle(&mut order);
            order
        });
    }

    #[test]
    fn waitall_counts_only_incomplete_members() {
        let mut t = ReqTable::new(2);
        let ids = post_n(&mut t, 3);
        let other = t.post(1, ReqKind::Send, SimTime::ZERO);
        assert!(t.complete(ids[1]).is_none());
        assert!(t.wait_all(site(0, "waitall"), ids.clone()).is_none());
        assert!(t.complete(other).is_none(), "another rank's request");
        assert!(t.complete(ids[2]).is_none());
        let (rank, wake) = t.complete(ids[0]).expect("set complete");
        assert_eq!(rank, 0);
        assert!(matches!(wake, Wake::WaitallDone(r) if r.len() == 3));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn testall_leaves_an_incomplete_set_untouched() {
        let mut t = ReqTable::new(1);
        let ids = post_n(&mut t, 2);
        t.complete(ids[0]);
        assert!(t.test_all(site(0, "testall"), &ids).is_none());
        assert!(t.test_all(site(0, "testall"), &ids).is_none(), "marks were cleared");
        t.complete(ids[1]);
        assert_eq!(t.test_all(site(0, "testall"), &ids).map(|r| r.len()), Some(2));
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "rank 0 called waitall at t=0ns on ReqId(1), which appears twice")]
    fn duplicate_in_waitall_is_named() {
        let mut t = ReqTable::new(1);
        let ids = post_n(&mut t, 2);
        t.wait_all(site(0, "waitall"), vec![ids[0], ids[1], ids[1]]);
    }

    #[test]
    #[should_panic(expected = "called wait at t=0ns on ReqId(0), which is already retired")]
    fn retired_id_is_named() {
        let mut t = ReqTable::new(1);
        let ids = post_n(&mut t, 2);
        t.complete(ids[0]);
        assert!(t.test(site(0, "test"), ids[0]).is_some());
        t.wait(site(0, "wait"), ids[0]);
    }

    #[test]
    #[should_panic(expected = "on ReqId(7), which was never posted")]
    fn unknown_id_is_named() {
        let mut t = ReqTable::new(1);
        post_n(&mut t, 2);
        t.test(site(0, "test"), ReqId(7));
    }

    #[test]
    #[should_panic(expected = "rank 1 called wait at t=0ns on ReqId(0), which belongs to rank 0")]
    fn foreign_id_is_named() {
        let mut t = ReqTable::new(2);
        let ids = post_n(&mut t, 1);
        t.wait(site(1, "wait"), ids[0]);
    }
}
