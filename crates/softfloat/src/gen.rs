//! Macro-generated binary32 / binary64 implementations.
//!
//! Both widths share one algorithm, instantiated by `softfloat_impl!` with the
//! format parameters (fraction bits, exponent bits, bias, carrier integer and
//! a double-width integer for products/quotients). Working significands carry
//! the implicit leading one at bit `FRAC + 3`, leaving three low-order
//! guard/round/sticky bits for correct rounding.

use std::cmp::Ordering;

// NOTE: the arithmetic methods are deliberately named add/sub/mul/div/neg
// like the operator traits: they are the *replacement* for those operators
// on a processor without an FPU, and implementing the traits themselves
// would invite accidental mixed native/soft arithmetic.
macro_rules! softfloat_impl {
    (
        $(#[$doc:meta])*
        $name:ident, $uty:ty, $wide:ty, $native:ty, $ity:ty,
        frac = $frac:expr, ebits = $ebits:expr, bias = $bias:expr
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name(pub $uty);

        #[allow(clippy::should_implement_trait)]
        impl $name {
            const FRAC: u32 = $frac;
            const EBITS: u32 = $ebits;
            const BIAS: i32 = $bias;
            const EXP_MAX: i32 = (1 << Self::EBITS) - 1;
            const FRAC_MASK: $uty = (1 << Self::FRAC) - 1;
            const IMPLICIT: $uty = 1 << Self::FRAC;
            const SIGN_BIT: $uty = 1 << (Self::FRAC + Self::EBITS);
            /// Bit index of the implicit one in a working significand.
            const WORK: u32 = Self::FRAC + 3;

            /// Positive zero.
            pub const ZERO: $name = $name(0);
            /// Canonical quiet NaN.
            pub const NAN: $name =
                $name(((Self::EXP_MAX as $uty) << Self::FRAC) | (1 << (Self::FRAC - 1)));
            /// Positive infinity.
            pub const INFINITY: $name = $name((Self::EXP_MAX as $uty) << Self::FRAC);

            #[inline]
            pub const fn from_bits(bits: $uty) -> $name {
                $name(bits)
            }

            #[inline]
            pub const fn to_bits(self) -> $uty {
                self.0
            }

            #[inline]
            fn unpack(self) -> (bool, i32, $uty) {
                (
                    self.0 & Self::SIGN_BIT != 0,
                    ((self.0 >> Self::FRAC) as i32) & Self::EXP_MAX,
                    self.0 & Self::FRAC_MASK,
                )
            }

            #[inline]
            fn pack(sign: bool, exp: i32, frac: $uty) -> $name {
                debug_assert!((0..=Self::EXP_MAX).contains(&exp));
                debug_assert!(frac <= Self::FRAC_MASK);
                $name(
                    ((sign as $uty) << (Self::FRAC + Self::EBITS))
                        | ((exp as $uty) << Self::FRAC)
                        | frac,
                )
            }

            #[inline]
            pub fn is_nan(self) -> bool {
                let (_, e, f) = self.unpack();
                e == Self::EXP_MAX && f != 0
            }

            #[inline]
            pub fn is_infinite(self) -> bool {
                let (_, e, f) = self.unpack();
                e == Self::EXP_MAX && f == 0
            }

            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 & !Self::SIGN_BIT == 0
            }

            #[inline]
            pub fn is_sign_negative(self) -> bool {
                self.0 & Self::SIGN_BIT != 0
            }

            #[inline]
            pub fn neg(self) -> $name {
                $name(self.0 ^ Self::SIGN_BIT)
            }

            fn inf(sign: bool) -> $name {
                Self::pack(sign, Self::EXP_MAX, 0)
            }

            fn zero(sign: bool) -> $name {
                Self::pack(sign, 0, 0)
            }

            /// Right shift preserving a sticky bit in the LSB.
            #[inline]
            fn shr_sticky(sig: $uty, n: u32) -> $uty {
                if n == 0 {
                    sig
                } else if n >= <$uty>::BITS {
                    (sig != 0) as $uty
                } else {
                    (sig >> n) | ((sig & ((1 << n) - 1) != 0) as $uty)
                }
            }

            /// Working significand (implicit bit at `WORK`) and effective
            /// biased exponent for a finite non-zero value.
            #[inline]
            fn working(exp: i32, frac: $uty) -> (i32, $uty) {
                if exp == 0 {
                    // Subnormal: exponent 1, no implicit bit; normalize so
                    // the arithmetic below sees a leading one.
                    let shift = Self::FRAC - (<$uty>::BITS - frac.leading_zeros() - 1);
                    ((1 - shift as i32), (frac << shift) << 3)
                } else {
                    (exp, (frac | Self::IMPLICIT) << 3)
                }
            }

            /// Round-to-nearest-even and pack. `sig` has the implicit one at
            /// bit `WORK` (or below it when `exp <= 0` after the subnormal
            /// shift); value represented is `sig / 2^WORK * 2^(exp - BIAS)`.
            fn round_pack(sign: bool, mut exp: i32, mut sig: $uty) -> $name {
                if exp <= 0 {
                    // Gradual underflow: shift into subnormal position.
                    let shift = (1 - exp) as u32;
                    sig = Self::shr_sticky(sig, shift.min(<$uty>::BITS));
                    exp = 0;
                }
                let round = (sig >> 2) & 1;
                let sticky = sig & 3 != 0;
                let lsb = (sig >> 3) & 1;
                let mut frac = sig >> 3;
                if round == 1 && (sticky || lsb == 1) {
                    frac += 1;
                }
                if frac >> (Self::FRAC + 1) != 0 {
                    frac >>= 1;
                    exp += 1;
                }
                if exp == 0 && frac >> Self::FRAC != 0 {
                    // Rounded up from the largest subnormal into the smallest
                    // normal.
                    exp = 1;
                }
                if exp >= Self::EXP_MAX {
                    return Self::inf(sign);
                }
                if exp == 0 {
                    Self::pack(sign, 0, frac)
                } else {
                    Self::pack(sign, exp, frac & Self::FRAC_MASK)
                }
            }

            /// IEEE addition, round-to-nearest-even.
            pub fn add(self, rhs: $name) -> $name {
                let (sa, ea, fa) = self.unpack();
                let (sb, eb, fb) = rhs.unpack();
                if self.is_nan() || rhs.is_nan() {
                    return Self::NAN;
                }
                if self.is_infinite() {
                    if rhs.is_infinite() && sa != sb {
                        return Self::NAN;
                    }
                    return self;
                }
                if rhs.is_infinite() {
                    return rhs;
                }
                if self.is_zero() {
                    if rhs.is_zero() {
                        // (+0)+(+0)=+0, (-0)+(-0)=-0, mixed = +0.
                        return Self::zero(sa && sb);
                    }
                    return rhs;
                }
                if rhs.is_zero() {
                    return self;
                }

                let (mut xe, mut xs) = Self::working(ea, fa);
                let (mut ye, mut ys) = Self::working(eb, fb);
                let (mut xsign, mut ysign) = (sa, sb);
                // Ensure x has the larger exponent.
                if ye > xe {
                    std::mem::swap(&mut xe, &mut ye);
                    std::mem::swap(&mut xs, &mut ys);
                    std::mem::swap(&mut xsign, &mut ysign);
                }
                ys = Self::shr_sticky(ys, (xe - ye) as u32);

                if xsign == ysign {
                    let mut sum = xs + ys;
                    let mut e = xe;
                    if sum >> (Self::WORK + 1) != 0 {
                        sum = Self::shr_sticky(sum, 1);
                        e += 1;
                    }
                    Self::round_pack(xsign, e, sum)
                } else {
                    // Magnitude subtraction; sign follows the larger operand.
                    let (sign, mut diff) = if xs >= ys {
                        (xsign, xs - ys)
                    } else {
                        (ysign, ys - xs)
                    };
                    if diff == 0 {
                        return Self::zero(false); // exact cancellation: +0
                    }
                    let mut e = xe;
                    while diff >> Self::WORK == 0 {
                        diff <<= 1;
                        e -= 1;
                    }
                    Self::round_pack(sign, e, diff)
                }
            }

            /// IEEE subtraction.
            #[inline]
            pub fn sub(self, rhs: $name) -> $name {
                self.add(rhs.neg())
            }

            /// IEEE multiplication, round-to-nearest-even.
            pub fn mul(self, rhs: $name) -> $name {
                let (sa, ea, fa) = self.unpack();
                let (sb, eb, fb) = rhs.unpack();
                let sign = sa ^ sb;
                if self.is_nan() || rhs.is_nan() {
                    return Self::NAN;
                }
                if self.is_infinite() || rhs.is_infinite() {
                    if self.is_zero() || rhs.is_zero() {
                        return Self::NAN; // inf * 0
                    }
                    return Self::inf(sign);
                }
                if self.is_zero() || rhs.is_zero() {
                    return Self::zero(sign);
                }
                let (xe, xs) = Self::working(ea, fa);
                let (ye, ys) = Self::working(eb, fb);
                // Strip the 3 working bits: multiply FRAC+1-bit significands.
                let ma = (xs >> 3) as $wide;
                let mb = (ys >> 3) as $wide;
                let prod = ma * mb; // in [2^(2F), 2^(2F+2))
                let e = xe + ye - Self::BIAS;
                let (shift, e) = if prod >> (2 * Self::FRAC + 1) != 0 {
                    (Self::FRAC - 2, e + 1)
                } else {
                    (Self::FRAC - 3, e)
                };
                let sticky = (prod & (((1 as $wide) << shift) - 1) != 0) as $uty;
                let sig = ((prod >> shift) as $uty) | sticky;
                Self::round_pack(sign, e, sig)
            }

            /// IEEE division, round-to-nearest-even.
            pub fn div(self, rhs: $name) -> $name {
                let (sa, ea, fa) = self.unpack();
                let (sb, eb, fb) = rhs.unpack();
                let sign = sa ^ sb;
                if self.is_nan() || rhs.is_nan() {
                    return Self::NAN;
                }
                if self.is_infinite() {
                    if rhs.is_infinite() {
                        return Self::NAN;
                    }
                    return Self::inf(sign);
                }
                if rhs.is_infinite() {
                    return Self::zero(sign);
                }
                if rhs.is_zero() {
                    if self.is_zero() {
                        return Self::NAN; // 0 / 0
                    }
                    return Self::inf(sign);
                }
                if self.is_zero() {
                    return Self::zero(sign);
                }
                let (xe, xs) = Self::working(ea, fa);
                let (ye, ys) = Self::working(eb, fb);
                let ma = (xs >> 3) as $wide; // [2^F, 2^(F+1))
                let mb = (ys >> 3) as $wide;
                let num = ma << (Self::FRAC + 4);
                let q = num / mb; // ratio * 2^(F+4) in (2^(F+3), 2^(F+5))
                let rem = num % mb;
                let sticky = (rem != 0) as $uty;
                let (sig, e) = if q >> (Self::FRAC + 4) != 0 {
                    (
                        Self::shr_sticky(q as $uty, 1) | sticky,
                        xe - ye + Self::BIAS,
                    )
                } else {
                    ((q as $uty) | sticky, xe - ye + Self::BIAS - 1)
                };
                Self::round_pack(sign, e, sig)
            }

            /// IEEE comparison; `None` when either operand is NaN.
            pub fn cmp_ieee(self, rhs: $name) -> Option<Ordering> {
                if self.is_nan() || rhs.is_nan() {
                    return None;
                }
                if self.is_zero() && rhs.is_zero() {
                    return Some(Ordering::Equal);
                }
                let (sa, _, _) = self.unpack();
                let (sb, _, _) = rhs.unpack();
                Some(match (sa, sb) {
                    (false, true) => Ordering::Greater,
                    (true, false) => Ordering::Less,
                    (false, false) => (self.0).cmp(&rhs.0),
                    (true, true) => (rhs.0 & !Self::SIGN_BIT).cmp(&(self.0 & !Self::SIGN_BIT)),
                })
            }

            /// IEEE `minNum`: NaN loses to a number; `min(-0, +0) == -0`.
            pub fn min(self, rhs: $name) -> $name {
                if self.is_nan() {
                    return rhs;
                }
                if rhs.is_nan() {
                    return self;
                }
                match self.cmp_ieee(rhs) {
                    Some(Ordering::Less) => self,
                    Some(Ordering::Greater) => rhs,
                    _ => {
                        if self.is_sign_negative() {
                            self
                        } else {
                            rhs
                        }
                    }
                }
            }

            /// IEEE `maxNum`: NaN loses to a number; `max(-0, +0) == +0`.
            pub fn max(self, rhs: $name) -> $name {
                if self.is_nan() {
                    return rhs;
                }
                if rhs.is_nan() {
                    return self;
                }
                match self.cmp_ieee(rhs) {
                    Some(Ordering::Greater) => self,
                    Some(Ordering::Less) => rhs,
                    _ => {
                        if self.is_sign_negative() {
                            rhs
                        } else {
                            self
                        }
                    }
                }
            }

            /// Convert from a signed integer, rounding to nearest-even.
            pub fn from_int(i: $ity) -> $name {
                if i == 0 {
                    return Self::ZERO;
                }
                let sign = i < 0;
                let mag = i.unsigned_abs() as $uty;
                let msb = <$uty>::BITS - mag.leading_zeros() - 1;
                let (sig, e) = if msb <= Self::WORK {
                    (mag << (Self::WORK - msb), Self::BIAS + msb as i32)
                } else {
                    (
                        Self::shr_sticky(mag, msb - Self::WORK),
                        Self::BIAS + msb as i32,
                    )
                };
                Self::round_pack(sign, e, sig)
            }

            /// Convert to a signed integer, truncating toward zero and
            /// saturating on overflow (NaN becomes 0) — the semantics of
            /// Rust's `as` casts.
            pub fn to_int(self) -> $ity {
                if self.is_nan() {
                    return 0;
                }
                let (sign, e, f) = self.unpack();
                if self.is_infinite() {
                    return if sign { <$ity>::MIN } else { <$ity>::MAX };
                }
                let eu = if e == 0 { 1 - Self::BIAS } else { e - Self::BIAS };
                if eu < 0 {
                    return 0;
                }
                let m = if e == 0 { f } else { f | Self::IMPLICIT };
                let width = (<$uty>::BITS - 1) as i32;
                if eu >= width {
                    // Exactly MIN is representable; anything else saturates.
                    if sign && eu == width && f == 0 && e != 0 {
                        return <$ity>::MIN;
                    }
                    return if sign { <$ity>::MIN } else { <$ity>::MAX };
                }
                let fr = Self::FRAC as i32;
                let mag = if eu >= fr {
                    m << (eu - fr) as u32
                } else {
                    m >> (fr - eu) as u32
                };
                if sign {
                    (mag as $ity).wrapping_neg()
                } else {
                    mag as $ity
                }
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({:#x})", stringify!($name), self.0)
            }
        }
    };
}

softfloat_impl!(
    /// IEEE-754 binary64 value carried in a `u64`.
    F64, u64, u128, f64, i64,
    frac = 52, ebits = 11, bias = 1023
);

softfloat_impl!(
    /// IEEE-754 binary32 value carried in a `u32`.
    F32, u32, u64, f32, i32,
    frac = 23, ebits = 8, bias = 127
);

impl F64 {
    /// Wrap a native `f64` (bit copy).
    #[inline]
    pub fn from_f64(x: f64) -> F64 {
        F64(x.to_bits())
    }

    /// Unwrap to a native `f64` (bit copy).
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl F32 {
    /// Wrap a native `f32` (bit copy).
    #[inline]
    pub fn from_f32(x: f32) -> F32 {
        F32(x.to_bits())
    }

    /// Unwrap to a native `f32` (bit copy).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check64(a: f64, b: f64) {
        let (sa, sb) = (F64::from_f64(a), F64::from_f64(b));
        for (name, soft, hard) in [
            ("add", sa.add(sb).to_f64(), a + b),
            ("sub", sa.sub(sb).to_f64(), a - b),
            ("mul", sa.mul(sb).to_f64(), a * b),
            ("div", sa.div(sb).to_f64(), a / b),
        ] {
            if hard.is_nan() {
                assert!(soft.is_nan(), "{name}({a:e},{b:e}): soft={soft:e}, host=NaN");
            } else {
                assert_eq!(
                    soft.to_bits(),
                    hard.to_bits(),
                    "{name}({a:e},{b:e}): soft={soft:e} host={hard:e}"
                );
            }
        }
    }

    fn check32(a: f32, b: f32) {
        let (sa, sb) = (F32::from_f32(a), F32::from_f32(b));
        for (name, soft, hard) in [
            ("add", sa.add(sb).to_f32(), a + b),
            ("sub", sa.sub(sb).to_f32(), a - b),
            ("mul", sa.mul(sb).to_f32(), a * b),
            ("div", sa.div(sb).to_f32(), a / b),
        ] {
            if hard.is_nan() {
                assert!(soft.is_nan(), "{name}({a:e},{b:e})");
            } else {
                assert_eq!(soft.to_bits(), hard.to_bits(), "{name}({a:e},{b:e})");
            }
        }
    }

    #[test]
    fn simple_arithmetic_matches_host() {
        check64(0.1, 0.2);
        check64(1.0, 3.0);
        check64(1e300, 1e-300);
        check64(-5.5, 5.5);
        check64(2.0f64.powi(52), 1.0);
        check64(1.0, 2.0f64.powi(-53)); // round-to-even boundary
        check32(0.1, 0.2);
        check32(1.5e38, 3.0);
    }

    #[test]
    fn specials_match_host() {
        let cases = [
            (f64::INFINITY, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
            (f64::INFINITY, 0.0),
            (f64::NAN, 1.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (f64::MAX, f64::MAX),
            (f64::MIN_POSITIVE, 0.5),
            (5e-324, 5e-324), // subnormal + subnormal
            (5e-324, 1.0),
            (f64::MAX, 2.0),  // overflow in mul
            (1e-308, 1e-308), // underflow in mul
        ];
        for (a, b) in cases {
            check64(a, b);
            check64(b, a);
        }
    }

    #[test]
    fn signed_zero_results() {
        // (+0) + (-0) = +0 ; (-0) + (-0) = -0.
        assert_eq!(
            F64::from_f64(0.0).add(F64::from_f64(-0.0)).to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(
            F64::from_f64(-0.0).add(F64::from_f64(-0.0)).to_bits(),
            (-0.0f64).to_bits()
        );
        // Exact cancellation gives +0.
        assert_eq!(
            F64::from_f64(7.25).sub(F64::from_f64(7.25)).to_bits(),
            0.0f64.to_bits()
        );
        // Signs in mul/div.
        assert_eq!(
            F64::from_f64(-0.0).mul(F64::from_f64(3.0)).to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(
            F64::from_f64(1.0).div(F64::INFINITY.to_f64().into_soft()).to_bits(),
            0.0f64.to_bits()
        );
    }

    trait IntoSoft {
        fn into_soft(self) -> F64;
    }
    impl IntoSoft for f64 {
        fn into_soft(self) -> F64 {
            F64::from_f64(self)
        }
    }

    #[test]
    fn comparisons_and_minmax() {
        use Ordering::*;
        let c = |a: f64, b: f64| F64::from_f64(a).cmp_ieee(F64::from_f64(b));
        assert_eq!(c(1.0, 2.0), Some(Less));
        assert_eq!(c(-1.0, -2.0), Some(Greater));
        assert_eq!(c(-1.0, 1.0), Some(Less));
        assert_eq!(c(0.0, -0.0), Some(Equal));
        assert_eq!(c(f64::NAN, 1.0), None);
        assert_eq!(c(f64::INFINITY, f64::MAX), Some(Greater));

        let min = |a: f64, b: f64| F64::from_f64(a).min(F64::from_f64(b)).to_f64();
        let max = |a: f64, b: f64| F64::from_f64(a).max(F64::from_f64(b)).to_f64();
        assert_eq!(min(1.0, 2.0), 1.0);
        assert_eq!(max(1.0, 2.0), 2.0);
        assert_eq!(min(f64::NAN, 2.0), 2.0);
        assert_eq!(max(2.0, f64::NAN), 2.0);
        assert_eq!(min(-0.0, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(max(-0.0, 0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn int_conversions_match_casts() {
        for i in [
            0i64,
            1,
            -1,
            42,
            -1_000_000,
            i64::MAX,
            i64::MIN,
            (1 << 53) + 1, // not exactly representable: rounds
            (1 << 53) - 1,
            0x7FFF_FFFF_FFFF_FC00,
        ] {
            assert_eq!(
                F64::from_int(i).to_f64().to_bits(),
                (i as f64).to_bits(),
                "from_int({i})"
            );
        }
        for x in [
            0.0f64, -0.5, 0.99, 1.0, 1.5, -2.75, 1e18, -1e18, 9.2e18, 1e300, -1e300,
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 9_007_199_254_740_993.0,
        ] {
            assert_eq!(F64::from_f64(x).to_int(), x as i64, "to_int({x})");
        }
    }

    #[test]
    fn f32_specials() {
        check32(f32::MAX, f32::MAX);
        check32(f32::MIN_POSITIVE, 0.5);
        check32(1e-45, 1e-45);
        check32(f32::INFINITY, -1.0);
        check32(0.0, -0.0);
        for i in [0i32, 1, -1, i32::MAX, i32::MIN, 16_777_217] {
            assert_eq!(
                F32::from_int(i).to_f32().to_bits(),
                (i as f32).to_bits(),
                "f32 from_int({i})"
            );
        }
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = f64::from_bits(1); // smallest subnormal
        check64(tiny, tiny);
        check64(tiny, -tiny);
        check64(f64::MIN_POSITIVE, -tiny);
        check64(tiny, 1e-300);
        // Division producing a subnormal.
        check64(1e-300, 1e20);
        // f32 subnormals.
        let t32 = f32::from_bits(1);
        check32(t32, t32);
        check32(f32::MIN_POSITIVE, -t32);
    }

    #[test]
    fn accumulation_matches_host_exactly() {
        // The Reduce Helper sums long vectors; verify a realistic chain.
        let mut soft = F64::ZERO;
        let mut hard = 0.0f64;
        let mut x = 0.123456789;
        for _ in 0..1000 {
            soft = soft.add(F64::from_f64(x));
            hard += x;
            x = x * 1.000001 - 0.0000001;
        }
        assert_eq!(soft.to_f64().to_bits(), hard.to_bits());
    }
}
