//! The replay log's record format (DESIGN §11). A delivery is logged as a
//! short run of 16-byte [`Word`]s in one flat stream, in delivery order: a
//! head naming the rank and the response's variant, then the variant's
//! parts. Nothing is allocated per record — the stream is a chunk log's
//! tail, sealed at each capture — and a point-to-point payload costs one
//! word, a hollow reference to the send's origin. Records are decoded back
//! to [`MpiResp`]s only where a restore needs them.

use super::record::Delivery;
use crate::call::{MpiResp, ReqId};
use crate::comm::CommHandle;
use crate::message::Status;
use crate::payload::{Origin, Payload};
use simcore::chunklog::{ChunkLog, LogSnapshot, LogWork};

/// A response's variant, as the head of its record names it.
#[derive(Clone, Copy, Debug)]
pub(super) enum Kind {
    Ok,
    Time,
    Req,
    Data,
    RootData,
    WaitDone,
    WaitallDone,
    TestPending,
    TestDone,
    TestallPending,
    TestallDone,
    ProbeDone,
    CommSplitDone,
    Batch,
}

/// One word of the log. A record is a [`Word::Head`] and then, by its
/// kind: a payload word (`Data`; `RootData` may be `Absent`), a result —
/// payload or `Absent`, then status or `Absent` — or `n` of them
/// (`WaitDone`, `TestDone`; `WaitallDone`, `TestallDone`), a status
/// (`ProbeDone`), a handle or `Absent` (`CommSplitDone`), `n` records
/// (`Batch`), or nothing.
#[derive(Clone, Debug)]
pub(super) enum Word {
    /// A response to world rank `.0` of kind `.1`; `.2` is the `Time` or
    /// `Req` value, or the number of results or sub-responses that follow.
    Head(u32, Kind, u64),
    /// No payload, status or handle.
    Absent,
    /// A point-to-point payload by reference: send `.1` of world rank `.0`.
    Hollow(u32, u64),
    /// A payload kept by value.
    Value(Payload),
    /// A status's source and tag; its byte count follows as a `Count`.
    Status(u32, i32),
    Count(u64),
    /// A communicator handle (`comm_split` only).
    Handle(Box<CommHandle>),
}

const _: () = assert!(std::mem::size_of::<Word>() == 16);

fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("a rank beyond u32 in the replay log")
}

/// Append `resp`, delivered to world rank `rank`, to `out` in logged form;
/// returns the payload bytes it keeps by value. The one walk over a
/// response's payloads: a stamped payload is a point-to-point message its
/// sender regenerates on replay, so only its origin is kept.
fn encode(rank: usize, resp: &MpiResp, out: &mut impl FnMut(Word)) -> u64 {
    let mut enc = Encoder { rank: narrow(rank), out, kept: 0 };
    enc.resp(resp);
    enc.kept
}

struct Encoder<'a, F> {
    rank: u32,
    out: &'a mut F,
    kept: u64,
}

impl<F: FnMut(Word)> Encoder<'_, F> {
    fn head(&mut self, kind: Kind, arg: u64) {
        (self.out)(Word::Head(self.rank, kind, arg));
    }

    fn resp(&mut self, resp: &MpiResp) {
        match resp {
            MpiResp::Ok => self.head(Kind::Ok, 0),
            MpiResp::Time(t) => self.head(Kind::Time, *t),
            MpiResp::Req(id) => self.head(Kind::Req, id.0),
            MpiResp::Data(p) => {
                self.head(Kind::Data, 0);
                self.payload(Some(p));
            }
            MpiResp::RootData(p) => {
                self.head(Kind::RootData, 0);
                self.payload(p.as_ref());
            }
            MpiResp::WaitDone { data, status } => {
                self.head(Kind::WaitDone, 0);
                self.result(data, status);
            }
            MpiResp::WaitallDone { results } => self.results(Kind::WaitallDone, results),
            MpiResp::TestDone { result: None } => self.head(Kind::TestPending, 0),
            MpiResp::TestDone { result: Some((data, status)) } => {
                self.head(Kind::TestDone, 0);
                self.result(data, status);
            }
            MpiResp::TestallDone { results: None } => self.head(Kind::TestallPending, 0),
            MpiResp::TestallDone { results: Some(results) } => self.results(Kind::TestallDone, results),
            MpiResp::ProbeDone { status } => {
                self.head(Kind::ProbeDone, 0);
                self.status(status);
            }
            MpiResp::CommSplitDone { handle } => {
                self.head(Kind::CommSplitDone, 0);
                (self.out)(match handle {
                    Some(h) => Word::Handle(Box::new(h.clone())),
                    None => Word::Absent,
                });
            }
            MpiResp::Batch { resps } => {
                self.head(Kind::Batch, resps.len() as u64);
                resps.iter().for_each(|r| self.resp(r));
            }
        }
    }

    fn payload(&mut self, p: Option<&Payload>) {
        (self.out)(match p {
            None => Word::Absent,
            Some(p) => match p.origin() {
                Some(Origin { rank, ordinal }) => Word::Hollow(rank, ordinal),
                None => {
                    self.kept += p.len() as u64;
                    Word::Value(p.clone())
                }
            },
        });
    }

    fn status(&mut self, status: &Option<Status>) {
        match status {
            None => (self.out)(Word::Absent),
            Some(s) => {
                (self.out)(Word::Status(narrow(s.source), s.tag));
                (self.out)(Word::Count(s.bytes as u64));
            }
        }
    }

    fn result(&mut self, data: &Option<Payload>, status: &Option<Status>) {
        self.payload(data.as_ref());
        self.status(status);
    }

    fn results(&mut self, kind: Kind, results: &[(Option<Payload>, Option<Status>)]) {
        self.head(kind, results.len() as u64);
        results.iter().for_each(|(data, status)| self.result(data, status));
    }
}

/// Read one record off `words`: the rank it was delivered to and the
/// response, each hollow reference replaced by what `fill` gives for its
/// origin ([`Payload::hollow`] for the logged form itself).
// PANIC-OK: the words were written by `encode`; a record that does not
// parse is a bug in this module, not input.
pub(super) fn decode<'a>(
    words: &mut impl Iterator<Item = &'a Word>,
    fill: &mut impl FnMut(Origin) -> Payload,
) -> Delivery {
    let Some(&Word::Head(rank, kind, arg)) = words.next() else {
        panic!("replay log: a record does not start with a head");
    };
    let n = arg as usize;
    let resp = match kind {
        Kind::Ok => MpiResp::Ok,
        Kind::Time => MpiResp::Time(arg),
        Kind::Req => MpiResp::Req(ReqId(arg)),
        Kind::Data => MpiResp::Data(payload(words, fill).expect("replay log: data without a payload")),
        Kind::RootData => MpiResp::RootData(payload(words, fill)),
        Kind::WaitDone => {
            let (data, status) = result(words, fill);
            MpiResp::WaitDone { data, status }
        }
        Kind::WaitallDone => MpiResp::WaitallDone { results: (0..n).map(|_| result(words, fill)).collect() },
        Kind::TestPending => MpiResp::TestDone { result: None },
        Kind::TestDone => MpiResp::TestDone { result: Some(result(words, fill)) },
        Kind::TestallPending => MpiResp::TestallDone { results: None },
        Kind::TestallDone => MpiResp::TestallDone { results: Some((0..n).map(|_| result(words, fill)).collect()) },
        Kind::ProbeDone => MpiResp::ProbeDone { status: status(words) },
        Kind::CommSplitDone => MpiResp::CommSplitDone {
            handle: match words.next() {
                Some(Word::Handle(h)) => Some(CommHandle::clone(h)),
                Some(Word::Absent) => None,
                other => panic!("replay log: {other:?} where a communicator handle belongs"),
            },
        },
        Kind::Batch => MpiResp::Batch { resps: (0..n).map(|_| decode(words, fill).1).collect() },
    };
    (rank, resp)
}

// PANIC-OK: see `decode`.
fn payload<'a>(words: &mut impl Iterator<Item = &'a Word>, fill: &mut impl FnMut(Origin) -> Payload) -> Option<Payload> {
    match words.next() {
        Some(Word::Absent) => None,
        Some(&Word::Hollow(rank, ordinal)) => Some(fill(Origin { rank, ordinal })),
        Some(Word::Value(p)) => Some(p.clone()),
        other => panic!("replay log: {other:?} where a payload belongs"),
    }
}

// PANIC-OK: see `decode`.
fn status<'a>(words: &mut impl Iterator<Item = &'a Word>) -> Option<Status> {
    match words.next() {
        Some(Word::Absent) => None,
        Some(&Word::Status(source, tag)) => match words.next() {
            Some(&Word::Count(bytes)) => Some(Status { source: source as usize, tag, bytes: bytes as usize }),
            other => panic!("replay log: {other:?} where a status's byte count belongs"),
        },
        other => panic!("replay log: {other:?} where a status belongs"),
    }
}

fn result<'a>(
    words: &mut impl Iterator<Item = &'a Word>,
    fill: &mut impl FnMut(Origin) -> Payload,
) -> (Option<Payload>, Option<Status>) {
    let data = payload(words, fill);
    (data, status(words))
}

/// Read one record off `words` as [`decode`] does and check that it is
/// `resp` delivered to `rank` in logged form: each stamped payload a hollow
/// reference to its send, the form a restore compares
/// (`ClusterWorld::step_recorded`). It compares as it reads, allocating
/// nothing, so the count-based allocation tests hold in debug builds.
#[cfg(debug_assertions)]
fn assert_reads_back<'a>(words: &mut impl Iterator<Item = &'a Word>, rank: u32, resp: &MpiResp) {
    let Some(&Word::Head(logged, kind, arg)) = words.next() else {
        panic!("replay log: a record does not start with a head");
    };
    let result = |words: &mut _, data: &Option<Payload>, status: &Option<Status>| {
        reads_payload(words, data.as_ref()) && reads_status(words, status)
    };
    let n = arg as usize;
    let same = logged == rank
        && match (kind, resp) {
            (Kind::Ok, MpiResp::Ok)
            | (Kind::TestPending, MpiResp::TestDone { result: None })
            | (Kind::TestallPending, MpiResp::TestallDone { results: None }) => true,
            (Kind::Time, MpiResp::Time(x)) | (Kind::Req, MpiResp::Req(ReqId(x))) => arg == *x,
            (Kind::Data, MpiResp::Data(p)) => reads_payload(words, Some(p)),
            (Kind::RootData, MpiResp::RootData(p)) => reads_payload(words, p.as_ref()),
            (Kind::WaitDone, MpiResp::WaitDone { data, status })
            | (Kind::TestDone, MpiResp::TestDone { result: Some((data, status)) }) => result(words, data, status),
            (Kind::WaitallDone, MpiResp::WaitallDone { results })
            | (Kind::TestallDone, MpiResp::TestallDone { results: Some(results) }) => {
                n == results.len() && results.iter().all(|(data, status)| result(words, data, status))
            }
            (Kind::ProbeDone, MpiResp::ProbeDone { status }) => reads_status(words, status),
            (Kind::CommSplitDone, MpiResp::CommSplitDone { handle }) => match (words.next(), handle) {
                (Some(Word::Handle(logged)), Some(h)) => **logged == *h,
                (Some(Word::Absent), None) => true,
                _ => false,
            },
            (Kind::Batch, MpiResp::Batch { resps }) if n == resps.len() => {
                resps.iter().for_each(|r| assert_reads_back(words, rank, r));
                true
            }
            (kind, resp) => panic!("replay log: {resp:?} logged as a {kind:?} record of {n}"),
        };
    assert!(same, "replay log: {resp:?} to rank {rank} does not read back from its record");
}

#[cfg(debug_assertions)]
fn reads_payload<'a>(words: &mut impl Iterator<Item = &'a Word>, p: Option<&Payload>) -> bool {
    match (words.next(), p) {
        (Some(Word::Absent), None) => true,
        (Some(&Word::Hollow(rank, ordinal)), Some(p)) => p.origin() == Some(Origin { rank, ordinal }),
        (Some(Word::Value(logged)), Some(p)) => p.origin().is_none() && logged == p,
        _ => false,
    }
}

#[cfg(debug_assertions)]
fn reads_status<'a>(words: &mut impl Iterator<Item = &'a Word>, status: &Option<Status>) -> bool {
    match (words.next(), status) {
        (Some(Word::Absent), None) => true,
        (Some(&Word::Status(source, tag)), Some(s)) => {
            (source as usize, tag) == (s.source, s.tag) && matches!(words.next(), Some(&Word::Count(b)) if b as usize == s.bytes)
        }
        _ => false,
    }
}

/// The live log: the word stream and the deliveries it records.
pub(super) struct LiveLog {
    words: ChunkLog<Word>,
    deliveries: usize,
}

impl LiveLog {
    pub(super) fn new() -> LiveLog {
        LiveLog { words: ChunkLog::new(), deliveries: 0 }
    }

    /// The log an image's continues as: what a restore starts from.
    pub(super) fn resume(image: &ResponseLog) -> LiveLog {
        LiveLog { words: ChunkLog::resume(&image.words), deliveries: image.deliveries }
    }

    /// Log `resp`, delivered to `rank`; returns the payload bytes kept by
    /// value. Debug builds read the record back and check that it gives
    /// `resp` in logged form.
    pub(super) fn push(&mut self, rank: usize, resp: &MpiResp) -> u64 {
        self.deliveries += 1;
        #[cfg(debug_assertions)]
        let at = self.words.unsealed().len();
        let kept = encode(rank, resp, &mut |w| self.words.push(w));
        #[cfg(debug_assertions)]
        assert_reads_back(&mut self.words.unsealed()[at..].iter(), narrow(rank), resp);
        kept
    }

    /// Words appended since the last snapshot.
    pub(super) fn unsealed(&self) -> &[Word] {
        self.words.unsealed()
    }

    /// Seal what was logged since the last snapshot (O(1), see
    /// [`ChunkLog::snapshot`]) and return the whole log.
    pub(super) fn snapshot(&mut self) -> ResponseLog {
        ResponseLog { words: self.words.snapshot(), deliveries: self.deliveries }
    }

    /// The deliveries no snapshot holds, decoded, oldest first.
    pub(super) fn into_unsealed(self) -> Vec<Delivery> {
        let words = self.words.into_unsealed();
        let mut words = words.iter().peekable();
        let mut out = Vec::new();
        while words.peek().is_some() {
            out.push(decode(&mut words, &mut Payload::hollow));
        }
        out
    }
}

/// The replay log as an image keeps it: every response delivered to any
/// rank since program start, in delivery order, shared chunk by chunk with
/// the live log and with every other image of the run.
#[derive(Clone, Debug)]
pub struct ResponseLog {
    words: LogSnapshot<Word>,
    deliveries: usize,
}

impl ResponseLog {
    /// Deliveries logged.
    pub fn len(&self) -> usize {
        self.deliveries
    }

    pub fn is_empty(&self) -> bool {
        self.deliveries == 0
    }

    /// What the log had spent on snapshots up to and including this one.
    pub fn work(&self) -> LogWork {
        self.words.work()
    }

    /// Every delivery in logged form — stamped payloads as
    /// [`Payload::hollow`] references — oldest first. Decodes as it goes.
    pub fn iter(&self) -> impl Iterator<Item = Delivery> + '_ {
        let mut words = self.words.iter();
        (0..self.deliveries).map(move |_| decode(&mut words, &mut Payload::hollow))
    }

    /// The word stream, for a replay to decode as it feeds the ranks.
    pub(super) fn stream(&self) -> impl Iterator<Item = &Word> {
        self.words.iter()
    }

    /// The same log in one chunk of its own ([`LogSnapshot::materialize`]).
    pub fn materialize(&self) -> ResponseLog {
        ResponseLog { words: self.words.materialize(), ..*self }
    }
}
