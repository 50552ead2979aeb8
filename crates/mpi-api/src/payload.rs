//! Reference-counted copy-on-write message payloads.
//!
//! Every byte buffer that crosses the rank⇄engine boundary — send data,
//! received data, collective contributions and results — is a [`Payload`]:
//! an immutable, atomically reference-counted byte buffer. Cloning one is
//! a refcount bump, so the same bytes can simultaneously sit in an engine's
//! in-flight payload table, a response awaiting delivery and any number of
//! checkpoint images without ever being copied. Bytes are copied where they
//! enter as a borrow and nowhere else: `From<&[u8]>` copies once,
//! `From<Vec<u8>>` and a clone of an existing `Payload` never do — a rank
//! that posts one buffer to many peers, or every iteration, keeps it as a
//! `Payload` and posts clones (`AsyncMpi::isend_desc`). A receive hands the
//! rank the delivered `Payload` itself (`AsyncMpi::recv`, `wait`,
//! `waitall`, …), which reads as a `&[u8]` and compares with bytes by bytes
//! alone, so a rank reads the allocation its sender posted. The one
//! copy-on-write point is [`Payload::into_vec`], for a rank that wants to
//! own the bytes: the last holder takes the allocation back for free, while
//! a shared holder pays the one clone that mutation actually requires.
//!
//! The runtime's replay log does **not** hold message bytes. A recording
//! runtime stamps every point-to-point send payload with its [`Origin`] as
//! the rank yields it, and logs a delivered response with each stamped
//! payload as its origin alone, one word of the log's flat record
//! (`runtime::ResponseLog`), no allocation. Decoded, such a word is a
//! [`Payload::hollow`] reference — the origin and no bytes — which is what
//! a restore compares and a test reads. A rollback rebuilds every rank,
//! sender included: a full replay
//! regenerates the bytes and fills the reference from them
//! (`runtime::Job::resume_from`), and a restore that takes over the halted
//! run's ranks re-dispatches the very sends they yielded
//! (`runtime::Job::ranks`). For that, a recording runtime keeps the calls
//! yielded since the last capture, sends by reference: a receiver then
//! shares the message with that tape, and copies it only if it asks for
//! the bytes with `into_vec`. Payloads nobody stamped — collective results,
//! whatever an engine re-buffers — are logged by value. The stamp lives
//! inside the shared allocation, so the handle stays one pointer wide and
//! `MpiCall`/`MpiResp` do not grow. `Payload == Payload` is stamp and
//! bytes, which is how a restore compares logged responses; a payload
//! compared with `[u8]`, `Vec<u8>` or a byte array is equal on bytes alone,
//! because the same receive is stamped in a recording run and not
//! otherwise.
//!
//! `Arc` (not `Rc`) keeps a payload `Send + Sync`, for sharding a
//! simulation (ROADMAP item 6), which would move payloads between shards.
//! Nothing else needs it: one simulation runs on one thread, and a
//! checkpoint image never leaves the thread that captured it — it holds
//! `Rc`s (the fabric snapshot, the communicator groups, the NIC state).

use std::fmt;
use std::sync::Arc;

/// Where a point-to-point payload entered the machine: the `ordinal`-th
/// send (from 0, batch sub-calls counted at yield) of world rank `rank`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Origin {
    pub rank: u32,
    pub ordinal: u64,
}

struct Shared {
    data: Vec<u8>,
    origin: Option<Origin>,
}

/// Immutable shared byte buffer (see module docs).
#[derive(Clone)]
pub struct Payload(Arc<Shared>);

const _: () = assert!(std::mem::size_of::<Payload>() == std::mem::size_of::<usize>());

impl Payload {
    /// Wrap an owned buffer without copying.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Payload(Arc::new(Shared { data, origin: None }))
    }

    /// An empty payload (no allocation is shared, but still cheap).
    pub fn empty() -> Self {
        Payload::from_vec(Vec::new())
    }

    /// A reference to the payload stamped `origin`, carrying no bytes: a
    /// delivered point-to-point message as the replay log reads back.
    pub fn hollow(origin: Origin) -> Self {
        Payload(Arc::new(Shared { data: Vec::new(), origin: Some(origin) }))
    }

    /// The stamp, if the payload carries one.
    pub fn origin(&self) -> Option<Origin> {
        self.0.origin
    }

    /// Stamp the payload. A rank normally yields a buffer nobody else
    /// holds and the stamp is written in place; one it still shares (a
    /// hand-built call sending the same `Payload` twice) is copied, so no
    /// other holder sees a stamp that is not its own.
    pub fn stamp(&mut self, origin: Origin) {
        match Arc::get_mut(&mut self.0) {
            Some(unique) => unique.origin = Some(origin),
            None => *self = Payload(Arc::new(Shared { data: self.to_vec(), origin: Some(origin) })),
        }
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0.data
    }

    pub fn len(&self) -> usize {
        self.0.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.data.is_empty()
    }

    /// Take the bytes out. This is the only place a copy can happen: if
    /// the buffer is uniquely held the allocation is moved out; otherwise
    /// the data is cloned once, leaving the other holders untouched.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.0) {
            Ok(unique) => unique.data,
            Err(shared) => shared.data.clone(),
        }
    }

    /// Do the two payloads share one allocation? (Diagnostics/tests.)
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        Payload::from_vec(data)
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Self {
        Payload::from_vec(data.to_vec())
    }
}

/// Equal stamps and equal bytes. Between logged responses, where a stamped
/// payload is hollow, that compares point-to-point messages by origin and
/// everything else by value; a hollow reference never equals the bytes it
/// stands for.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        Payload::ptr_eq(self, other)
            || (self.origin() == other.origin() && self.as_slice() == other.as_slice())
    }
}

impl Eq for Payload {}

/// Bytes only, stamp ignored: what a rank or a test compares received data
/// with. A delivered payload is stamped in a recording run and not
/// otherwise, so comparing two `Payload`s would tell the runs apart.
impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_into_vec_is_cow() {
        let p = Payload::from_vec(vec![1, 2, 3]);
        let q = p.clone();
        assert!(Payload::ptr_eq(&p, &q));
        // Shared: into_vec copies, the sibling is untouched.
        let v = p.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(q.as_slice(), &[1, 2, 3]);
        // Unique: into_vec moves the allocation (observable as no copy via
        // capacity-preserving round trip).
        let mut big = Vec::with_capacity(1 << 20);
        big.extend_from_slice(&[7u8; 16]);
        let ptr = big.as_ptr();
        let back = Payload::from_vec(big).into_vec();
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn stamp_is_in_place_when_unique_and_copies_when_shared() {
        let o = |ordinal| Origin { rank: 3, ordinal };
        let mut p = Payload::from_vec(vec![9; 64]);
        let ptr = p.as_slice().as_ptr();
        p.stamp(o(0));
        assert_eq!(p.origin(), Some(o(0)));
        assert_eq!(p.as_slice().as_ptr(), ptr, "a unique buffer is stamped in place");
        // A second send of a buffer someone still holds gets its own copy:
        // the first holder's stamp must not change under it.
        let mut q = p.clone();
        q.stamp(o(1));
        assert_eq!((p.origin(), q.origin()), (Some(o(0)), Some(o(1))));
        assert!(!Payload::ptr_eq(&p, &q));
        assert_eq!(p.as_slice(), q.as_slice());
        let h = Payload::hollow(o(1));
        assert!(h.is_empty());
        assert_eq!(h.origin(), q.origin());
    }

    #[test]
    fn a_hollow_reference_differs_from_the_payload_it_stands_for() {
        let o = Origin { rank: 1, ordinal: 4 };
        let mut full = Payload::from_vec(vec![5; 32]);
        full.stamp(o);
        assert_eq!(full.origin(), Payload::hollow(o).origin());
        assert_ne!(full, Payload::hollow(o));
        assert_eq!(Payload::hollow(o), Payload::hollow(o));
        assert_ne!(Payload::hollow(o), Payload::hollow(Origin { ordinal: 5, ..o }));
    }

    #[test]
    fn unstamped_payloads_compare_by_bytes() {
        let a = Payload::from_vec(vec![1, 2, 3]);
        let b = Payload::from(&[1u8, 2, 3][..]);
        assert!(!Payload::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_ne!(a, Payload::from_vec(vec![1, 2, 4]));
        let mut stamped = b.clone();
        stamped.stamp(Origin { rank: 0, ordinal: 0 });
        assert_ne!(a, stamped, "same bytes, but only one is stamped");
    }

    #[test]
    fn received_bytes_compare_without_the_stamp() {
        let plain = Payload::from_vec(vec![4, 5, 6]);
        let mut stamped = Payload::from_vec(vec![4, 5, 6]);
        stamped.stamp(Origin { rank: 2, ordinal: 7 });
        let bytes: &[u8] = &[4, 5, 6];
        for p in [&plain, &stamped] {
            assert!(*p == *bytes);
            assert_eq!(*p, bytes);
            assert_eq!(*p, bytes.to_vec());
            assert_ne!(*p, vec![4, 5]);
        }
        assert_ne!(plain, stamped, "as payloads the stamp still counts");
    }
}
