//! MPI datatypes and reduction operators.
//!
//! Payloads travel as raw bytes (`Vec<u8>`); the datatype tells reductions
//! how to interpret them. The native combine here is what the baseline's
//! host-side reduction tree uses; BCS-MPI's Reduce Helper instead runs the
//! `softfloat` implementation, because the NIC it models has no FPU — the
//! two must agree bit-for-bit, which the cross-engine tests assert.

use crate::payload::Payload;

/// Element type of a reduction buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Datatype {
    U8,
    I32,
    I64,
    F32,
    F64,
}

impl Datatype {
    /// Size of one element in bytes.
    pub fn size(self) -> usize {
        match self {
            Datatype::U8 => 1,
            Datatype::I32 => 4,
            Datatype::I64 => 8,
            Datatype::F32 => 4,
            Datatype::F64 => 8,
        }
    }
}

/// Reduction operator (MPI_SUM, MPI_PROD, MPI_MIN, MPI_MAX, MPI_BAND,
/// MPI_BOR subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
    BAnd,
    BOr,
}

macro_rules! combine_numeric {
    ($op:expr, $a:expr, $b:expr, $ty:ty) => {{
        let x = <$ty>::from_le_bytes($a.try_into().unwrap());
        let y = <$ty>::from_le_bytes($b.try_into().unwrap());
        let r: $ty = match $op {
            ReduceOp::Sum => x.wrapping_add(y),
            ReduceOp::Prod => x.wrapping_mul(y),
            ReduceOp::Min => x.min(y),
            ReduceOp::Max => x.max(y),
            ReduceOp::BAnd => x & y,
            ReduceOp::BOr => x | y,
        };
        $a.copy_from_slice(&r.to_le_bytes());
    }};
}

macro_rules! combine_float {
    ($op:expr, $a:expr, $b:expr, $ty:ty) => {{
        let x = <$ty>::from_le_bytes($a.try_into().unwrap());
        let y = <$ty>::from_le_bytes($b.try_into().unwrap());
        let r: $ty = match $op {
            ReduceOp::Sum => x + y,
            ReduceOp::Prod => x * y,
            ReduceOp::Min => x.min(y),
            ReduceOp::Max => x.max(y),
            ReduceOp::BAnd | ReduceOp::BOr => {
                panic!("bitwise reduction on floating-point data")
            }
        };
        $a.copy_from_slice(&r.to_le_bytes());
    }};
}

/// Combine `b` into `a` element-wise with native host arithmetic:
/// `a[i] = op(a[i], b[i])`.
///
/// # Panics
/// Panics if the buffers differ in length, are not a multiple of the element
/// size, or a bitwise op is applied to floats.
pub fn combine_native(op: ReduceOp, dtype: Datatype, a: &mut [u8], b: &[u8]) {
    assert_eq!(a.len(), b.len(), "reduction buffers differ in length");
    let sz = dtype.size();
    assert_eq!(a.len() % sz, 0, "buffer not a multiple of element size");
    for (ca, cb) in a.chunks_exact_mut(sz).zip(b.chunks_exact(sz)) {
        match dtype {
            Datatype::U8 => combine_numeric!(op, ca, cb, u8),
            Datatype::I32 => combine_numeric!(op, ca, cb, i32),
            Datatype::I64 => combine_numeric!(op, ca, cb, i64),
            Datatype::F32 => combine_float!(op, ca, cb, f32),
            Datatype::F64 => combine_float!(op, ca, cb, f64),
        }
    }
}

/// An element-wise combine: host arithmetic ([`combine_native`]) or the
/// NIC's softfloat.
pub type Combine = fn(ReduceOp, Datatype, &mut [u8], &[u8]);

/// The value plane of every reduction, under every wire schedule and both
/// engines: one reduce round's contributions in one flat `members × len`
/// buffer, slot `i` holding communicator rank `i`'s bytes, folded in
/// ascending rank order into slot 0 ([`ReduceBuf::fold`]).
///
/// A contribution is copied in when it arrives, while it is hot, and the
/// rank's [`Payload`] can be dropped at once; the fold walks the buffer in
/// address order and the result is the buffer itself, truncated to one slot.
/// The slot length is the first contribution's; every later one must match.
#[derive(Clone, Debug)]
pub struct ReduceBuf {
    /// `members` slots of `len` bytes, allocated by the first contribution.
    bytes: Vec<u8>,
    /// Bytes per contribution, set by the first to arrive.
    len: usize,
    /// Which members have contributed.
    filled: Vec<bool>,
    count: usize,
}

impl ReduceBuf {
    /// An empty round of `members` contributions; the bytes are allocated
    /// by the first [`ReduceBuf::put`], which fixes their length.
    pub fn new(members: usize) -> ReduceBuf {
        ReduceBuf { bytes: Vec::new(), len: 0, filled: vec![false; members], count: 0 }
    }

    /// Copy communicator rank `slot`'s contribution into its slot.
    ///
    /// # Panics
    /// If `data` differs in length from the first contribution, or `slot`
    /// already holds one.
    pub fn put(&mut self, slot: usize, data: &[u8]) {
        assert!(!self.filled[slot], "slot {slot} of a reduce round filled twice");
        if self.count == 0 {
            self.len = data.len();
            self.bytes = vec![0; self.filled.len() * self.len];
        }
        let len = self.len;
        assert_eq!(len, data.len(), "reduction buffers differ in length");
        self.bytes[slot * len..(slot + 1) * len].copy_from_slice(data);
        self.filled[slot] = true;
        self.count += 1;
    }

    /// Fold slots `1..members` into slot 0, in ascending rank order, with
    /// `combine`; the buffer, truncated to that slot, is the result. The
    /// result can outlive the round (a recorded run logs it), so the bytes
    /// past it are handed back with a shrinking reallocation.
    ///
    /// # Panics
    /// If a member has not contributed.
    pub fn fold(self, op: ReduceOp, dtype: Datatype, combine: Combine) -> Payload {
        assert_eq!(self.count, self.filled.len(), "missing reduce contribution");
        let (mut bytes, len) = (self.bytes, self.len);
        #[cfg(debug_assertions)]
        let reference = per_slot_fold(&bytes, len, op, dtype, combine);
        if len > 0 {
            let (acc, rest) = bytes.split_at_mut(len);
            for slot in rest.chunks_exact(len) {
                combine(op, dtype, acc, slot);
            }
        }
        bytes.truncate(len);
        bytes.shrink_to_fit();
        #[cfg(debug_assertions)]
        assert!(bytes == reference, "the flat fold differs from the per-slot reference");
        Payload::from_vec(bytes)
    }
}

/// The fold [`ReduceBuf::fold`] replaces, checked against it in debug
/// builds: each slot copied out on its own and combined into the first, in
/// ascending rank order.
#[cfg(debug_assertions)]
fn per_slot_fold(
    bytes: &[u8],
    len: usize,
    op: ReduceOp,
    dtype: Datatype,
    combine: Combine,
) -> Vec<u8> {
    let members = bytes.len().checked_div(len).unwrap_or(0);
    let mut slots = (0..members).map(|i| bytes[i * len..(i + 1) * len].to_vec());
    let mut acc = slots.next().unwrap_or_default();
    for slot in slots {
        combine(op, dtype, &mut acc, &slot);
    }
    acc
}

/// Identity element of `op` for `dtype`, used to seed reduction trees.
pub fn identity(op: ReduceOp, dtype: Datatype, elems: usize) -> Vec<u8> {
    let one = |v: f64| -> Vec<u8> {
        match dtype {
            Datatype::U8 => vec![v as u8],
            Datatype::I32 => (v as i32).to_le_bytes().to_vec(),
            Datatype::I64 => (v as i64).to_le_bytes().to_vec(),
            Datatype::F32 => (v as f32).to_le_bytes().to_vec(),
            Datatype::F64 => v.to_le_bytes().to_vec(),
        }
    };
    let elem: Vec<u8> = match (op, dtype) {
        (ReduceOp::Sum, _) | (ReduceOp::BOr, _) => one(0.0),
        (ReduceOp::Prod, _) => one(1.0),
        (ReduceOp::BAnd, Datatype::U8) => vec![u8::MAX],
        (ReduceOp::BAnd, Datatype::I32) => (-1i32).to_le_bytes().to_vec(),
        (ReduceOp::BAnd, Datatype::I64) => (-1i64).to_le_bytes().to_vec(),
        (ReduceOp::BAnd, _) => panic!("bitwise reduction on floating-point data"),
        (ReduceOp::Min, Datatype::U8) => vec![u8::MAX],
        (ReduceOp::Min, Datatype::I32) => i32::MAX.to_le_bytes().to_vec(),
        (ReduceOp::Min, Datatype::I64) => i64::MAX.to_le_bytes().to_vec(),
        (ReduceOp::Min, Datatype::F32) => f32::INFINITY.to_le_bytes().to_vec(),
        (ReduceOp::Min, Datatype::F64) => f64::INFINITY.to_le_bytes().to_vec(),
        (ReduceOp::Max, Datatype::U8) => vec![0],
        (ReduceOp::Max, Datatype::I32) => i32::MIN.to_le_bytes().to_vec(),
        (ReduceOp::Max, Datatype::I64) => i64::MIN.to_le_bytes().to_vec(),
        (ReduceOp::Max, Datatype::F32) => f32::NEG_INFINITY.to_le_bytes().to_vec(),
        (ReduceOp::Max, Datatype::F64) => f64::NEG_INFINITY.to_le_bytes().to_vec(),
    };
    elem.iter().copied().cycle().take(elems * dtype.size()).collect()
}

// ----------------------------------------------------------------------
// Typed slice <-> bytes helpers, used throughout the workloads.
// ----------------------------------------------------------------------

macro_rules! le_codec {
    ($ty:ty, $to:ident, $from:ident, $from_chunks:ident) => {
        /// `xs` as little-endian bytes, written into one buffer sized up
        /// front.
        pub fn $to(xs: &[$ty]) -> Vec<u8> {
            const SIZE: usize = size_of::<$ty>();
            let mut out = vec![0; xs.len() * SIZE];
            for (bytes, x) in out.chunks_exact_mut(SIZE).zip(xs) {
                bytes.copy_from_slice(&x.to_le_bytes());
            }
            out
        }

        /// The inverse of the encoding above, bit for bit.
        pub fn $from(b: &[u8]) -> Vec<$ty> {
            $from_chunks(&[b])
        }

        /// Byte chunks laid end to end — the pieces an all-to-all or a
        /// gather returns — decoded into one vector sized up front.
        pub fn $from_chunks<B: AsRef<[u8]>>(chunks: &[B]) -> Vec<$ty> {
            const SIZE: usize = size_of::<$ty>();
            let bytes: usize = chunks.iter().map(|c| c.as_ref().len()).sum();
            let mut out = Vec::with_capacity(bytes / SIZE);
            for chunk in chunks {
                let chunk = chunk.as_ref();
                assert_eq!(chunk.len() % SIZE, 0, "buffer not a multiple of element size");
                out.extend(
                    chunk
                        .chunks_exact(SIZE)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().unwrap())),
                );
            }
            out
        }
    };
}

le_codec!(f64, to_bytes_f64, from_bytes_f64, from_chunks_f64);
le_codec!(i64, to_bytes_i64, from_bytes_i64, from_chunks_i64);
le_codec!(i32, to_bytes_i32, from_bytes_i32, from_chunks_i32);

#[cfg(test)]
mod tests {
    use super::*;
    use proplite::prelude::*;

    #[test]
    fn sizes() {
        assert_eq!(Datatype::U8.size(), 1);
        assert_eq!(Datatype::I32.size(), 4);
        assert_eq!(Datatype::I64.size(), 8);
        assert_eq!(Datatype::F32.size(), 4);
        assert_eq!(Datatype::F64.size(), 8);
    }

    #[test]
    fn combine_f64_sum_and_minmax() {
        let mut a = to_bytes_f64(&[1.0, -2.0, 3.5]);
        let b = to_bytes_f64(&[0.5, 7.0, -3.5]);
        combine_native(ReduceOp::Sum, Datatype::F64, &mut a, &b);
        assert_eq!(from_bytes_f64(&a), vec![1.5, 5.0, 0.0]);

        let mut a = to_bytes_f64(&[1.0, -2.0]);
        let b = to_bytes_f64(&[0.5, 7.0]);
        combine_native(ReduceOp::Min, Datatype::F64, &mut a, &b);
        assert_eq!(from_bytes_f64(&a), vec![0.5, -2.0]);
        let mut a = to_bytes_f64(&[1.0, -2.0]);
        combine_native(ReduceOp::Max, Datatype::F64, &mut a, &b);
        assert_eq!(from_bytes_f64(&a), vec![1.0, 7.0]);
    }

    #[test]
    fn combine_integer_ops() {
        let mut a = to_bytes_i64(&[3, -4, 100]);
        let b = to_bytes_i64(&[5, -6, -1]);
        combine_native(ReduceOp::Sum, Datatype::I64, &mut a, &b);
        assert_eq!(from_bytes_i64(&a), vec![8, -10, 99]);
        let mut a = to_bytes_i32(&[0b1100, 0b1010]);
        let b = to_bytes_i32(&[0b1010, 0b0110]);
        combine_native(ReduceOp::BAnd, Datatype::I32, &mut a, &b);
        assert_eq!(from_bytes_i32(&a), vec![0b1000, 0b0010]);
        let mut a = to_bytes_i32(&[0b1100]);
        let b = to_bytes_i32(&[0b0011]);
        combine_native(ReduceOp::BOr, Datatype::I32, &mut a, &b);
        assert_eq!(from_bytes_i32(&a), vec![0b1111]);
    }

    #[test]
    fn combine_wrapping_product() {
        let mut a = to_bytes_i32(&[i32::MAX]);
        let b = to_bytes_i32(&[2]);
        combine_native(ReduceOp::Prod, Datatype::I32, &mut a, &b);
        assert_eq!(from_bytes_i32(&a), vec![i32::MAX.wrapping_mul(2)]);
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn combine_length_mismatch_panics() {
        let mut a = vec![0u8; 8];
        combine_native(ReduceOp::Sum, Datatype::F64, &mut a, &[0u8; 16]);
    }

    #[test]
    #[should_panic(expected = "bitwise reduction")]
    fn bitwise_on_floats_panics() {
        let mut a = to_bytes_f64(&[1.0]);
        let b = to_bytes_f64(&[2.0]);
        combine_native(ReduceOp::BAnd, Datatype::F64, &mut a, &b);
    }

    #[test]
    fn a_reduce_buffer_folds_in_rank_order_whatever_the_arrival_order() {
        let mut buf = ReduceBuf::new(3);
        for (slot, x) in [(2, 1e16), (0, 1.0), (1, 1.0)] {
            buf.put(slot, &to_bytes_f64(&[x, slot as f64]));
        }
        // (1 + 1) + 1e16 is 1e16 + 2 in binary64; 1 + 1e16 ties to even
        // and rounds down, so the descending fold would give 1e16.
        let folded = buf.fold(ReduceOp::Sum, Datatype::F64, combine_native);
        assert_eq!(from_bytes_f64(&folded), vec![1e16 + 2.0, 3.0]);
        let mut empty = ReduceBuf::new(2);
        empty.put(1, &[]);
        empty.put(0, &[]);
        assert!(empty.fold(ReduceOp::BAnd, Datatype::F64, combine_native).is_empty());
    }

    #[test]
    #[should_panic(expected = "reduction buffers differ in length")]
    fn a_reduce_buffer_rejects_a_contribution_of_another_length() {
        let mut buf = ReduceBuf::new(2);
        buf.put(0, &[]);
        buf.put(1, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "missing reduce contribution")]
    fn a_reduce_buffer_folds_only_when_full() {
        let mut buf = ReduceBuf::new(2);
        buf.put(1, &[0; 8]);
        buf.fold(ReduceOp::Sum, Datatype::I64, combine_native);
    }

    #[test]
    fn identities_are_neutral() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            let mut id = identity(op, Datatype::F64, 3);
            let b = to_bytes_f64(&[1.5, -2.0, 0.25]);
            combine_native(op, Datatype::F64, &mut id, &b);
            assert_eq!(from_bytes_f64(&id), vec![1.5, -2.0, 0.25], "{op:?}");
        }
        for op in [ReduceOp::Sum, ReduceOp::BAnd, ReduceOp::BOr, ReduceOp::Min, ReduceOp::Max] {
            let mut id = identity(op, Datatype::I32, 2);
            let b = to_bytes_i32(&[37, -12]);
            combine_native(op, Datatype::I32, &mut id, &b);
            assert_eq!(from_bytes_i32(&id), vec![37, -12], "{op:?}");
        }
    }

    /// Doubles with the awkward bit patterns weighted up: NaNs with
    /// payloads, ±0, subnormals and ±∞.
    fn f64_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            3 => any::<u64>(),
            1 => any::<u64>().prop_map(|b| b | 0x7FF0_0000_0000_0001), // NaNs
            1 => any::<u64>().prop_map(|b| b & 0x800F_FFFF_FFFF_FFFF), // ±0, subnormals
            1 => prop_oneof![
                Just(0u64),
                Just(1 << 63),
                Just(f64::INFINITY.to_bits()),
                Just(f64::NEG_INFINITY.to_bits()),
            ],
        ]
    }

    proplite! {
        #![config(cases = 256)]

        #[test]
        fn encodings_are_le_concatenations_and_invert(
            f in prop::collection::vec(f64_bits(), 0..12),
            l in prop::collection::vec(any::<i64>(), 0..12),
            i in prop::collection::vec(any::<i32>(), 0..12),
            cut in 0..13usize,
        ) {
            // The reference is the per-element `flat_map` the one-pass
            // encoders replaced; decoding, whole or from two chunks cut at
            // an element boundary, gives back every bit.
            let f: Vec<f64> = f.into_iter().map(f64::from_bits).collect();
            let bytes = to_bytes_f64(&f);
            prop_assert_eq!(&bytes, &f.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
            let bits = |xs: Vec<f64>| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(from_bytes_f64(&bytes)), bits(f.clone()));
            let at = cut.min(f.len()) * 8;
            prop_assert_eq!(bits(from_chunks_f64(&[&bytes[..at], &bytes[at..]])), bits(f));

            let bytes = to_bytes_i64(&l);
            prop_assert_eq!(&bytes, &l.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
            prop_assert_eq!(&from_bytes_i64(&bytes), &l);
            let at = cut.min(l.len()) * 8;
            prop_assert_eq!(&from_chunks_i64(&[&bytes[..at], &bytes[at..]]), &l);

            let bytes = to_bytes_i32(&i);
            prop_assert_eq!(&bytes, &i.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>());
            prop_assert_eq!(&from_bytes_i32(&bytes), &i);
            let at = cut.min(i.len()) * 4;
            prop_assert_eq!(&from_chunks_i32(&[&bytes[..at], &bytes[at..]]), &i);
        }
    }

    #[test]
    fn byte_roundtrips() {
        let xs = vec![1.5f64, -0.0, f64::MAX];
        assert_eq!(from_bytes_f64(&to_bytes_f64(&xs)), xs);
        let ys = vec![i64::MIN, 0, 42];
        assert_eq!(from_bytes_i64(&to_bytes_i64(&ys)), ys);
        let zs = vec![i32::MAX, -7];
        assert_eq!(from_bytes_i32(&to_bytes_i32(&zs)), zs);
    }
}
